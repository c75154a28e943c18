"""Command-line front end.

Every subcommand computes its numbers up front and returns one result: a
CSV header, the CSV rows, a builder for the JSON body and, for some
commands, summary statistics.  ``main`` hands that result to the one
emitter, which writes CSV (default) or JSON to stdout or --output.  CSV
starts with a "# config:" comment recording the exact run parameters and
is streamed row by row; floats are printed with 17 significant digits, so
reruns are byte identical.  JSON is json.dumps(doc, sort_keys=True,
indent=2), written one top-level value at a time, except that the dynamics
probabilities stream one time point at a time from the cells formatted
once per equiprobability class.  Statistics close stdout CSV as a
"# stats:" comment, go to a FILE.stats.json sidecar next to a CSV file,
and sit under "stats" in JSON.  File output is streamed into a temporary
sibling that is renamed into place only once complete; a symlink keeps
pointing at the replaced target.  An existing FIFO or device node is
written in place, as stdout is, with the stats comment.  Exit codes:
0 success, 2 usage, 3 numerical failure, 4 I/O, 141 (128 + SIGPIPE) when
the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import IRREP_DIMS, IRREP_LABELS, N_SITES, build_geometry, build_group
from .hilbert import StateVector, build_initial_state, parse_state_spec, sector_basis
from .hamiltonian import DEG_TOL_RELATIVE, ModelParams
from .spectrum import (
    SUPPORT_TOL,
    _ground_vector,
    degeneracy_histogram,
    diagonalize_sector,
    ground_state_point,
    ground_state_scan,
    ising_degeneracy_check,
)
from .symmetry import irrep_counts, multiplet_counts
from .dynamics import (
    Trajectory,
    collapse_metrics,
    evolve_probabilities,
    regime_classifier,
    return_probability,
)
from .entanglement import SVD_TOL, is_entangled
from .analytic import m5_block, m5_probabilities, numeric_block


@dataclass(frozen=True)
class _Output:
    """One command's result, formatted only by the emitter."""
    header: list[str]
    rows: Iterable[list[str]]    # CSV cells, consumed once while writing
    doc: Callable[[], dict]      # JSON body, built only for --format json
    stats: dict | None = None


_fmt = "{:.17g}".format  # 17 significant digits: every float reads back exactly


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(alpha=args.alpha, jz_over_j=args.jz_over_j)


def _times(args: argparse.Namespace) -> np.ndarray:
    if args.t_steps < 1:
        raise ValueError("--t-steps must be at least 1")
    return np.linspace(0.0, args.t_max, args.t_steps)


def _check_inputs(args: argparse.Namespace) -> None:
    """Reject non-finite or negative inputs, --tol-deg above 1 and --tol-svd of 1 or more."""
    for name in ("t_max", "jz_min", "jz_max"):
        if not math.isfinite(getattr(args, name, 0.0)):
            raise ValueError(f"--{name.replace('_', '-')} must be finite")
    if not math.isfinite(getattr(args, "jz_max", 0.0) - getattr(args, "jz_min", 0.0)):
        raise ValueError("--jz-max minus --jz-min overflows: the Jz/J grid must be finite")
    for name in ("tol_deg", "tol_support", "tol_svd"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--{name.replace('_', '-')} must be finite and non-negative")
    if getattr(args, "tol_deg", 0.0) > 1.0:
        raise ValueError("--tol-deg must be at most 1, where every level is one cluster")
    if getattr(args, "tol_svd", 0.0) >= 1.0:
        raise ValueError("--tol-svd must be below 1, where no singular value counts")


def _resolve_state(args: argparse.Namespace) -> StateVector:
    if args.state != "ground":
        return build_initial_state(parse_state_spec(args.state))
    params = _params(args)
    point = ground_state_point(params, args.tol_deg)
    if point.degeneracy > 1:
        sectors = "|".join(str(m) for m in point.sectors)
        raise ValueError(
            f"ground level at Jz/J={args.jz_over_j:g} is {point.degeneracy}-fold "
            f"degenerate (sectors {sectors}); --state ground needs a unique ground state"
        )
    # unique, so in M = 0: every level of M != 0 has its spin-flip copy at -M
    amps = np.zeros(1 << N_SITES)
    amps[sector_basis(0).configs], _, _ = _ground_vector(params, args.tol_deg)
    return StateVector(amps=amps, sector=None)


@dataclass(frozen=True)
class _Encoded:
    """A top-level JSON list of number lists, its cells encoded row by row while writing."""
    rows: Iterable[list[str]]


def _json_float(x: float) -> str:
    # float.__repr__ with the stdlib's spellings of the non-finite values
    if x - x == 0.0:  # finite; inf - inf and nan - nan are nan
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _encoded_rows(rows: Iterable[list[str]]) -> Iterable[str]:
    # a top-level value's list of number lists as the stdlib indents it, one row a chunk
    head = "[\n    "
    for cells in rows:
        yield head + ("[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]")
        head = ",\n    "
    yield "[]" if head == "[\n    " else "\n  ]"


def _json_chunks(doc: dict) -> Iterable[str]:
    """The text of json.dumps(doc, sort_keys=True, indent=2) and a newline, in pieces.

    The keys of doc are strings.  Each top-level value is one piece, but an
    _Encoded value is written one row at a time.  Any other value is the
    stdlib's own text, indented one level at its newlines: JSON text holds
    no raw newline, so each of them starts a line.
    """
    head = "{\n  "
    for key, value in sorted(doc.items()):
        yield head + json.dumps(key) + ": "
        head = ",\n  "
        if isinstance(value, _Encoded):
            yield from _encoded_rows(value.rows)
        else:
            yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
    yield "{}\n" if head == "{\n  " else "\n}\n"


def _csv_lines(config: dict, out: _Output, stats: dict | None) -> Iterable[str]:
    yield "# config: " + json.dumps(config, sort_keys=True) + "\n"
    yield ",".join(out.header) + "\n"
    for row in out.rows:
        yield ",".join(row) + "\n"
    if stats is not None:
        yield "# stats: " + json.dumps(stats, sort_keys=True) + "\n"


def _emit(args: argparse.Namespace, out: _Output) -> None:
    config = {k.replace("_", "-"): v for k, v in vars(args).items()
              if k not in ("func", "output", "format") and v is not None}
    stats = {} if out.stats is None else {"stats": out.stats}
    if args.format == "json":
        _write(args.output, _json_chunks({"config": config} | out.doc() | stats))
    elif _in_place(args.output):
        _write(args.output, _csv_lines(config, out, out.stats))
    else:
        # file output: stats go to a JSON sidecar instead of a trailing comment
        _write(args.output, _csv_lines(config, out, None))
        if stats:
            _write(args.output + ".stats.json", _json_chunks({"config": config} | stats))


def _in_place(path: str) -> bool:
    """True for stdout and for an existing target that is neither a regular file nor a directory."""
    if path == "-":
        return True
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False
    return not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))


def _write(path: str, chunks: Iterable[str]) -> None:
    if path == "-":
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit
        return
    if _in_place(path):
        with open(path, "w") as fh:  # a FIFO or a device is written to, never replaced
            fh.writelines(chunks)
        return
    target = Path(path).resolve()  # a symlink stays, and its target is replaced
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give the output the usual 0666 & ~umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_geometry(args: argparse.Namespace) -> _Output:
    geometry = build_geometry()
    group = build_group(geometry)
    sites = [(i, "outer" if i < 6 else "inner", x, y)
             for i, (x, y) in enumerate(geometry.positions.tolist())]
    rows = [["site", f"{i}({ring})", _fmt(x), _fmt(y), "", "", ""] for i, ring, x, y in sites]
    rows += [["element", g.name, "", "", g.class_label, ":".join(map(str, g.perm)),
              str(g.parity)] for g in group]
    return _Output(["table", "name", "x", "y", "class", "perm", "parity"], rows, lambda: {
        "sites": [{"site": i, "ring": ring, "x": x, "y": y} for i, ring, x, y in sites],
        "distance_sq": geometry.distance_sq.tolist(),
        "elements": [{"name": g.name, "class": g.class_label, "perm": list(g.perm),
                      "parity": g.parity} for g in group],
    })


def cmd_symmetry_tables(args: argparse.Namespace) -> _Output:
    counts = irrep_counts().counts
    mult = multiplet_counts().multiplets

    def cells(table: dict, key: int) -> list[str]:
        return [f"2x{table[r][key]}" if IRREP_DIMS[r] == 2 else str(table[r][key])
                for r in IRREP_LABELS]

    rows = [["irreps_by_m", str(M)] + cells(counts, M) + [str(sector_basis(M).dim)]
            for M in range(6, -7, -1)]
    rows += [["multiplets_by_s", str(S)] + cells(mult, S)
             + [str(sum(IRREP_DIMS[r] * mult[r][S] for r in IRREP_LABELS))]
             for S in range(6, -1, -1)]
    return _Output(["table", "index", *IRREP_LABELS, "total"], rows, lambda: {
        "irreps_by_m": {r: {str(m): n for m, n in by.items()} for r, by in counts.items()},
        "multiplets_by_s": {r: {str(s): n for s, n in by.items()} for r, by in mult.items()},
    })


def _cluster_irrep_text(cluster) -> str:
    return cluster.irrep or "+".join(f"{r}:{n}" for r, n in sorted(cluster.irrep_slots.items()))


def cmd_spectrum(args: argparse.Namespace) -> _Output:
    params = _params(args)
    sectors = [args.sector] if args.sector is not None else range(6, -7, -1)
    # sector -M has the levels and labels of M; only its eigenvectors, unread here, differ.
    # |M| = 0 is solved first, so the smaller sectors' temporaries reuse its heap (peak RSS)
    solved = {m: diagonalize_sector(m, params, args.tol_deg)
              for m in sorted({abs(M) for M in sectors})}
    results = [(M, solved[abs(M)]) for M in sectors]
    rows = (
        [str(M), str(k), _fmt(res.eigenvalues[k]), str(ci), str(c.size),
         _cluster_irrep_text(c), "" if c.spin is None else str(c.spin)]
        for M, res in results for ci, c in enumerate(res.clusters) for k in c.indices.tolist()
    )
    return _Output(
        ["sector", "index", "energy", "cluster", "degeneracy", "irrep", "spin"], rows,
        lambda: {"sectors": [{
            "sector": M,
            "eigenvalues": res.eigenvalues.tolist(),
            "clusters": [
                {"indices": c.indices.tolist(), "energy": c.energy,
                 "irrep_slots": c.irrep_slots, "irrep": c.irrep, "spin": c.spin}
                for c in res.clusters
            ],
        } for M, res in results]},
    )


def cmd_degeneracy(args: argparse.Namespace) -> _Output:
    hist = degeneracy_histogram(_params(args), args.tol_deg)
    return _Output(
        ["degeneracy", "count"], [[str(d), str(n)] for d, n in hist.counts.items()],
        lambda: {"histogram": {str(d): n for d, n in hist.counts.items()}},
        {"total_states": hist.total_states, "deg_tol": hist.deg_tol,
         "ambiguous_gaps": len(hist.ambiguous_gaps)},
    )


def cmd_ground_scan(args: argparse.Namespace) -> _Output:
    if args.jz_points < 2:
        raise ValueError("--jz-points must be at least 2")
    grid = np.linspace(args.jz_min, args.jz_max, args.jz_points)
    scan = ground_state_scan(args.alpha, grid, args.tol_deg)
    rows = [[_fmt(p.jz_over_j), _fmt(p.energy), str(p.degeneracy),
             "|".join(str(m) for m in p.sectors), p.irrep or ""] for p in scan.points]
    return _Output(
        ["jz_over_j", "energy", "degeneracy", "sectors", "irrep"], rows,
        lambda: {"points": [
            {"jz_over_j": p.jz_over_j, "energy": p.energy, "degeneracy": p.degeneracy,
             "sectors": list(p.sectors), "irrep": p.irrep}
            for p in scan.points
        ]},
        {"block_solves": scan.block_solves,
         "crossover": scan.crossover,
         "crossover_bracket": list(scan.crossover_bracket) if scan.crossover_bracket else None,
         "crossover_excess": list(scan.crossover_excess) if scan.crossover_excess else None},
    )


def _class_cells(traj: Trajectory, fmt: Callable[[float], str]) -> Iterable[list[str]]:
    """Per time point, one cell per configuration, formatted once per class."""
    for column in traj.class_probs.T:  # one time point to Python floats at a time (peak RSS)
        yield np.array(list(map(fmt, column.tolist())), dtype=object)[traj.row_class].tolist()


def cmd_dynamics(args: argparse.Namespace) -> _Output:
    params = _params(args)
    state = _resolve_state(args)
    times = _times(args)
    traj = evolve_probabilities(state, args.sector, params, times,
                                args.tol_support, args.tol_deg)
    configs = sector_basis(args.sector).configs.tolist()
    cm = collapse_metrics(traj)
    stats = {
        "sector": traj.M,
        "sector_weight": traj.sector_weight,
        "support_dim": traj.support.dim,
        "num_trajectory_classes": traj.num_classes,
        "num_frequencies_formula": traj.freq.formula,
        "num_frequencies_distinct": traj.freq.distinct,
        "class_broadcast_bound": traj.broadcast_bound,
        "regime": regime_classifier(traj),
        "classes": [[configs[i] for i in cls] for cls in traj.classes],
        "collapse": {
            "initial_config": configs[cm.initial_outcome],
            "initial_prob": cm.initial_prob,
            "collapse_time": cm.collapse_time,
            "threshold": cm.threshold,
            "dominant_configs": [configs[i] for i in cm.dominant],
            "tail_max": cm.tail_max,
        },
    }
    # members of a class share its row bit for bit: format each class's cell
    # once per time point and gather, never the whole d x T grid as strings
    rows = ([_fmt(t), *cells] for t, cells in zip(times.tolist(), _class_cells(traj, _fmt)))
    return _Output(["t"] + [f"p{f}" for f in configs], rows, lambda: {
        "times": times.tolist(),
        "configs": configs,
        # one distribution per time point, aligned with "times"
        "probabilities": _Encoded(_class_cells(traj, _json_float)),
    }, stats)


def cmd_return_prob(args: argparse.Namespace) -> _Output:
    params = _params(args)
    state = _resolve_state(args)
    times = _times(args)
    p = return_probability(state, args.sector, params, times, args.tol_deg)
    return _Output(["t", "p_return"], ([_fmt(t), _fmt(v)] for t, v in zip(times, p)),
                   lambda: {"times": times.tolist(), "p_return": p.tolist()})


def cmd_schmidt(args: argparse.Namespace) -> _Output:
    state = _resolve_state(args)
    n = state.norm
    if n == 0.0:
        raise ValueError("state has zero norm")
    report = is_entangled(StateVector(amps=state.amps / n, sector=None), args.tol_svd)

    def sites(mask: int, side: int) -> str:
        return "|".join(str(i) for i in range(N_SITES) if (mask >> i) & 1 == side)

    rows = ([str(mask), sites(mask, 0), sites(mask, 1), str(rank)]
            for mask, rank in report.ranks.items())
    return _Output(
        ["mask", "sites_a", "sites_b", "rank"], rows,
        lambda: {"ranks": {str(m): r for m, r in report.ranks.items()}},
        {"entangled": report.entangled, "min_rank": report.min_rank,
         "max_rank": report.max_rank, "stabilizer_order": report.stabilizer_order,
         "cut_orbits": report.cut_orbits,
         "stabilizer_kept_margin": report.stabilizer_kept_margin,
         "stabilizer_rejected_margin": report.stabilizer_rejected_margin,
         "product_margin": report.product_margin},
    )


def cmd_analytic_m5(args: argparse.Namespace) -> _Output:
    block = m5_block(args.alpha, args.jz_over_j)
    times = _times(args)
    p_outer, p_inner = m5_probabilities(args.initial, args.alpha, args.jz_over_j, times)
    engine_dev = float(
        np.abs(numeric_block(args.alpha, args.jz_over_j) - block.matrix).max()
    )
    stats = {
        "matrix": block.matrix.tolist(),
        "exact": ([[str(e) for e in row] for row in block.exact]
                  if block.exact is not None else None),
        "delta_e": block.delta_e,
        "diagonal_gap": block.diagonal_gap,
        "engine_max_dev": engine_dev,
    }
    rows = ([_fmt(t), _fmt(po), _fmt(pi)] for t, po, pi in zip(times, p_outer, p_inner))
    return _Output(["t", "p_outer", "p_inner"], rows, lambda: {
        "times": times.tolist(), "p_outer": p_outer.tolist(), "p_inner": p_inner.tolist(),
    }, stats)


def cmd_ising(args: argparse.Namespace) -> _Output:
    check = ising_degeneracy_check(args.jz_sign)
    return _Output(
        ["jz_sign", "ground_energy", "degeneracy"],
        [[str(check.jz_sign), str(check.ground_energy), str(check.degeneracy)]],
        lambda: {"jz_sign": check.jz_sign, "ground_energy": check.ground_energy,
                 "degeneracy": check.degeneracy},
    )


def _add_common(sub: argparse.ArgumentParser, model: bool = True,
                times: bool = False, anisotropy: bool = True,
                clustering: bool = True) -> None:
    if model:
        sub.add_argument("--alpha", type=float, default=6.0,
                         help="coupling power (default 6)")
        if anisotropy:
            sub.add_argument("--jz-over-j", type=float, default=1.0,
                             help="Ising anisotropy Jz/J (default 1, Heisenberg)")
        if clustering:
            sub.add_argument("--tol-deg", type=float, default=DEG_TOL_RELATIVE,
                             help="eigenvalue clustering tolerance, relative to the spread")
    if times:
        sub.add_argument("--t-max", type=float, default=1.0,
                         help="end of the time grid, units of h/J (default 1)")
        sub.add_argument("--t-steps", type=int, default=2001,
                         help="number of grid points including both ends (default 2001)")
    sub.add_argument("--output", default="-",
                     help="output path, '-' for stdout (default)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


_STATE_HELP = "xi | chi | zeta:to,po,ti,pi | config:F | ground"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexstar",
        description="Exact diagonalization of twelve XXZ spins on a hexagram lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="site positions and point-group elements")
    _add_common(p, model=False)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("symmetry-tables",
                       help="irrep counts per sector and multiplets per total spin")
    _add_common(p, model=False)
    p.set_defaults(func=cmd_symmetry_tables)

    p = sub.add_parser("spectrum", help="eigenvalues with symmetry labels")
    _add_common(p)
    p.add_argument("--sector", type=int, default=None,
                   help="restrict to one magnetization sector (default: all)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("degeneracy", help="histogram of eigenvalue multiplicities")
    _add_common(p)
    p.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser("ground-scan", help="ground level along a Jz/J grid")
    _add_common(p, anisotropy=False)
    p.add_argument("--jz-min", type=float, default=-3.0)
    p.add_argument("--jz-max", type=float, default=3.0)
    p.add_argument("--jz-points", type=int, default=25)
    p.set_defaults(func=cmd_ground_scan)

    p = sub.add_parser("dynamics",
                       help="rescaled measurement probabilities along a time grid")
    _add_common(p, times=True)
    p.add_argument("--state", required=True, help=_STATE_HELP)
    p.add_argument("--sector", type=int, required=True)
    p.add_argument("--tol-support", type=float, default=SUPPORT_TOL,
                   help="overlap threshold defining the spectral support")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("return-prob", help="return probability of a sector component")
    _add_common(p, times=True)
    p.add_argument("--state", required=True, help=_STATE_HELP)
    p.add_argument("--sector", type=int, required=True)
    p.set_defaults(func=cmd_return_prob)

    p = sub.add_parser("schmidt", help="Schmidt ranks across all bipartitions")
    _add_common(p)
    p.add_argument("--state", required=True, help=_STATE_HELP)
    p.add_argument("--tol-svd", type=float, default=SVD_TOL,
                   help="relative singular value threshold")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("analytic-m5",
                       help="closed-form two-level block of the M=5 sector")
    _add_common(p, times=True, clustering=False)
    p.add_argument("--initial", choices=("outer", "symmetric"), default="outer")
    p.set_defaults(func=cmd_analytic_m5)

    p = sub.add_parser("ising", help="ground degeneracy of the nearest-neighbour Ising limit")
    _add_common(p, model=False)
    p.add_argument("--jz-sign", type=int, choices=(-1, 1), default=1)
    p.set_defaults(func=cmd_ising)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_inputs(args)
        _emit(args, args.func(args))
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # before ValueError, its base
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
