"""Command-line front end.

Every subcommand emits CSV (default) or JSON to stdout or --output.  CSV
starts with a "# config:" comment recording the exact run parameters;
floats are printed with 17 significant digits, so reruns are byte
identical.  File output is written to a temporary sibling and renamed
into place.  Exit codes: 0 success, 2 usage, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .lattice import N_SITES, build_geometry, build_group
from .hilbert import StateVector, build_initial_state, parse_state_spec, sector_basis
from .hamiltonian import DEG_TOL_RELATIVE, ModelParams
from .spectrum import (
    SUPPORT_TOL,
    _ground_state,
    degeneracy_histogram,
    diagonalize_sector,
    ground_state_scan,
    ising_degeneracy_check,
)
from .symmetry import irrep_counts, multiplet_counts
from .dynamics import (
    collapse_metrics,
    evolve_probabilities,
    regime_classifier,
    return_probability,
)
from .entanglement import is_entangled
from .analytic import m5_block, m5_probabilities, numeric_block

IRREP_ORDER = ("A1g", "A2g", "E2g", "B1u", "B2u", "E1u")
TWO_DIM = {"E2g", "E1u"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(alpha=args.alpha, jz_over_j=args.jz_over_j)


def _times(args: argparse.Namespace) -> np.ndarray:
    if args.t_steps < 1:
        raise ValueError("--t-steps must be at least 1")
    return np.linspace(0.0, args.t_max, args.t_steps)


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "output", "format"}
    return {"command": args.command} | {
        k.replace("_", "-"): v for k, v in sorted(vars(args).items())
        if k not in skip and k != "command" and v is not None
    }


def _check_inputs(args: argparse.Namespace) -> None:
    """Reject non-finite times and negative or non-finite tolerances up front."""
    if not math.isfinite(getattr(args, "t_max", 0.0)):
        raise ValueError("--t-max must be finite")
    for name in ("tol_deg", "tol_support", "tol_svd"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--{name.replace('_', '-')} must be finite and non-negative")


def _resolve_state(args: argparse.Namespace) -> StateVector:
    if args.state not in ("ground", "groundstate"):
        return build_initial_state(parse_state_spec(args.state))
    params = _params(args)
    point, M = _ground_state(params, args.tol_deg)
    if point.degeneracy > 1:
        sectors = "|".join(str(m) for m in point.sectors)
        raise ValueError(
            f"ground level at Jz/J={args.jz_over_j:g} is {point.degeneracy}-fold "
            f"degenerate (sectors {sectors}); --state ground needs a unique ground state"
        )
    # unique, so in M = 0: every level of M != 0 has its spin-flip copy at -M
    vector = diagonalize_sector(M, params, args.tol_deg).eigenvectors[:, 0]
    amps = np.zeros(1 << N_SITES)
    amps[sector_basis(M).configs] = vector
    return StateVector(amps=amps, sector=None)


def _csv_text(config: dict, header: list[str], rows: list[list[str]],
              stats: dict | None) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    if stats is not None:
        buf.write("# stats: " + json.dumps(stats, sort_keys=True) + "\n")
    return buf.getvalue()


def _emit(args: argparse.Namespace, config: dict, header: list[str],
          rows: list[list[str]], stats: dict | None, json_data: dict) -> None:
    if args.format == "json":
        doc = {"config": config} | json_data
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        _write(args.output, text)
        return
    if args.output == "-":
        _write("-", _csv_text(config, header, rows, stats))
        return
    # file output: stats go to a JSON sidecar instead of a trailing comment
    _write(args.output, _csv_text(config, header, rows, None))
    if stats is not None:
        sidecar = json.dumps({"config": config} | {"stats": stats},
                             sort_keys=True, indent=2) + "\n"
        _write(args.output + ".stats.json", sidecar)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give the output the usual 0666 & ~umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cell(irrep: str, n: int) -> str:
    return f"2x{n}" if irrep in TWO_DIM else str(n)


def cmd_geometry(args: argparse.Namespace) -> None:
    geometry = build_geometry()
    group = build_group(geometry)
    config = _config_dict(args)
    header = ["table", "name", "x", "y", "class", "perm", "parity"]
    rows = []
    for i in range(N_SITES):
        ring = "outer" if i < 6 else "inner"
        rows.append(["site", f"{i}({ring})", _fmt(geometry.positions[i, 0]),
                     _fmt(geometry.positions[i, 1]), "", "", ""])
    for g in group:
        rows.append(["element", g.name, "", "", g.class_label,
                     ":".join(str(p) for p in g.perm), str(g.parity)])
    json_data = {
        "sites": [
            {"site": i, "ring": "outer" if i < 6 else "inner",
             "x": geometry.positions[i, 0], "y": geometry.positions[i, 1]}
            for i in range(N_SITES)
        ],
        "distance_sq": geometry.distance_sq.tolist(),
        "elements": [
            {"name": g.name, "class": g.class_label, "perm": list(g.perm),
             "parity": g.parity}
            for g in group
        ],
    }
    _emit(args, config, header, rows, None, json_data)


def cmd_symmetry_tables(args: argparse.Namespace) -> None:
    counts = irrep_counts().counts
    mult = multiplet_counts().multiplets
    config = _config_dict(args)
    header = ["table", "index"] + list(IRREP_ORDER) + ["total"]
    rows = []
    for M in range(6, -7, -1):
        dim = sector_basis(M).dim
        rows.append(["irreps_by_m", str(M)]
                    + [_cell(r, counts[r][M]) for r in IRREP_ORDER] + [str(dim)])
    for S in range(6, -1, -1):
        total = sum((2 if r in TWO_DIM else 1) * mult[r][S] for r in IRREP_ORDER)
        rows.append(["multiplets_by_s", str(S)]
                    + [_cell(r, mult[r][S]) for r in IRREP_ORDER] + [str(total)])
    json_data = {
        "irreps_by_m": {r: {str(m): n for m, n in by.items()} for r, by in counts.items()},
        "multiplets_by_s": {r: {str(s): n for s, n in by.items()} for r, by in mult.items()},
    }
    _emit(args, config, header, rows, None, json_data)


def _cluster_irrep_text(cluster) -> str:
    if cluster.irrep is not None:
        return cluster.irrep
    if cluster.irrep_slots:
        return "+".join(f"{r}:{n}" for r, n in sorted(cluster.irrep_slots.items()))
    return ""


def cmd_spectrum(args: argparse.Namespace) -> None:
    params = _params(args)
    sectors = [args.sector] if args.sector is not None else list(range(6, -7, -1))
    config = _config_dict(args)
    header = ["sector", "index", "energy", "cluster", "degeneracy", "irrep", "spin"]
    rows = []
    json_sectors = []
    for M in sectors:
        res = diagonalize_sector(M, params, args.tol_deg)
        for ci, cluster in enumerate(res.clusters):
            irrep = _cluster_irrep_text(cluster)
            spin = "" if cluster.spin is None else str(cluster.spin)
            for k in cluster.indices:
                rows.append([str(M), str(int(k)), _fmt(res.eigenvalues[k]),
                             str(ci), str(cluster.size), irrep, spin])
        json_sectors.append({
            "sector": M,
            "eigenvalues": [float(e) for e in res.eigenvalues],
            "clusters": [
                {"indices": [int(i) for i in c.indices], "energy": c.energy,
                 "irrep_slots": c.irrep_slots, "irrep": c.irrep, "spin": c.spin}
                for c in res.clusters
            ],
        })
    _emit(args, config, header, rows, None, {"sectors": json_sectors})


def cmd_degeneracy(args: argparse.Namespace) -> None:
    params = _params(args)
    hist = degeneracy_histogram(params, args.tol_deg)
    config = _config_dict(args)
    header = ["degeneracy", "count"]
    rows = [[str(d), str(n)] for d, n in hist.counts.items()]
    stats = {
        "total_states": hist.total_states,
        "deg_tol": hist.deg_tol,
        "ambiguous_gaps": len(hist.ambiguous_gaps),
    }
    json_data = {"histogram": {str(d): n for d, n in hist.counts.items()},
                 "stats": stats}
    _emit(args, config, header, rows, stats, json_data)


def cmd_ground_scan(args: argparse.Namespace) -> None:
    if args.jz_points < 2:
        raise ValueError("--jz-points must be at least 2")
    grid = np.linspace(args.jz_min, args.jz_max, args.jz_points)
    scan = ground_state_scan(args.alpha, grid, args.tol_deg)
    config = _config_dict(args)
    header = ["jz_over_j", "energy", "degeneracy", "sectors", "irrep"]
    rows = [
        [_fmt(p.jz_over_j), _fmt(p.energy), str(p.degeneracy),
         "|".join(str(m) for m in p.sectors), p.irrep or ""]
        for p in scan.points
    ]
    stats = {
        "crossover": scan.crossover,
        "crossover_bracket": list(scan.crossover_bracket) if scan.crossover_bracket else None,
    }
    json_data = {
        "points": [
            {"jz_over_j": p.jz_over_j, "energy": p.energy, "degeneracy": p.degeneracy,
             "sectors": list(p.sectors), "irrep": p.irrep}
            for p in scan.points
        ],
        "stats": stats,
    }
    _emit(args, config, header, rows, stats, json_data)


def cmd_dynamics(args: argparse.Namespace) -> None:
    params = _params(args)
    state = _resolve_state(args)
    times = _times(args)
    traj = evolve_probabilities(state, args.sector, params, times,
                                args.tol_support, args.tol_deg)
    basis = sector_basis(args.sector)
    config = _config_dict(args)
    header = ["t"] + [f"p{int(f)}" for f in basis.configs]
    # a 2001 x 924 grid takes hundreds of MB as strings or floats: build one form only
    as_json = args.format == "json"
    rows = [] if as_json else [
        [_fmt(times[k])] + [_fmt(p) for p in traj.probs[:, k]]
        for k in range(len(times))
    ]
    cm = collapse_metrics(traj)
    stats = {
        "sector": traj.M,
        "sector_weight": traj.sector_weight,
        "support_dim": traj.support.dim,
        "num_trajectory_classes": traj.num_classes,
        "num_frequencies_formula": traj.freq.formula,
        "num_frequencies_distinct": traj.freq.distinct,
        "regime": regime_classifier(traj),
        "classes": [[int(basis.configs[i]) for i in cls] for cls in traj.classes],
        "collapse": {
            "initial_config": int(basis.configs[cm.initial_outcome]),
            "initial_prob": cm.initial_prob,
            "collapse_time": cm.collapse_time,
            "threshold": cm.threshold,
            "dominant_configs": [int(basis.configs[i]) for i in cm.dominant],
            "tail_max": cm.tail_max,
        },
    }
    json_data = {
        "times": [float(t) for t in times],
        "configs": [int(f) for f in basis.configs],
        # one distribution per time point, aligned with "times"
        "probabilities": [[float(p) for p in col] for col in traj.probs.T],
        "stats": stats,
    } if as_json else {}
    _emit(args, config, header, rows, stats, json_data)


def cmd_return_prob(args: argparse.Namespace) -> None:
    params = _params(args)
    state = _resolve_state(args)
    times = _times(args)
    p = return_probability(state, args.sector, params, times, args.tol_deg)
    config = _config_dict(args)
    header = ["t", "p_return"]
    rows = [[_fmt(t), _fmt(v)] for t, v in zip(times, p)]
    json_data = {"times": [float(t) for t in times],
                 "p_return": [float(v) for v in p]}
    _emit(args, config, header, rows, None, json_data)


def cmd_schmidt(args: argparse.Namespace) -> None:
    state = _resolve_state(args)
    n = state.norm
    if n == 0.0:
        raise ValueError("state has zero norm")
    state = StateVector(amps=state.amps / n, sector=None)
    report = is_entangled(state, args.tol_svd)
    config = _config_dict(args)
    header = ["mask", "sites_a", "sites_b", "rank"]
    rows = []
    for mask, rank in report.ranks.items():
        b = [i for i in range(N_SITES) if (mask >> i) & 1]
        a = [i for i in range(N_SITES) if not (mask >> i) & 1]
        rows.append([str(mask), "|".join(map(str, a)), "|".join(map(str, b)), str(rank)])
    stats = {
        "entangled": report.entangled,
        "min_rank": report.min_rank,
        "max_rank": report.max_rank,
    }
    json_data = {"ranks": {str(m): r for m, r in report.ranks.items()}, "stats": stats}
    _emit(args, config, header, rows, stats, json_data)


def cmd_analytic_m5(args: argparse.Namespace) -> None:
    block = m5_block(args.alpha, args.jz_over_j)
    times = _times(args)
    p_outer, p_inner = m5_probabilities(args.initial, args.alpha, args.jz_over_j, times)
    config = _config_dict(args)
    header = ["t", "p_outer", "p_inner"]
    rows = [[_fmt(t), _fmt(po), _fmt(pi)]
            for t, po, pi in zip(times, p_outer, p_inner)]
    engine_dev = float(
        np.abs(numeric_block(args.alpha, args.jz_over_j) - block.matrix).max()
    )
    stats = {
        "matrix": [[block.matrix[0, 0], block.matrix[0, 1]],
                   [block.matrix[1, 0], block.matrix[1, 1]]],
        "exact": ([[str(e) for e in row] for row in block.exact]
                  if block.exact is not None else None),
        "delta_e": block.delta_e,
        "diagonal_gap": block.diagonal_gap,
        "engine_max_dev": engine_dev,
    }
    json_data = {
        "times": [float(t) for t in times],
        "p_outer": [float(v) for v in p_outer],
        "p_inner": [float(v) for v in p_inner],
        "stats": stats,
    }
    _emit(args, config, header, rows, stats, json_data)


def cmd_ising(args: argparse.Namespace) -> None:
    check = ising_degeneracy_check(args.jz_sign)
    config = _config_dict(args)
    header = ["jz_sign", "ground_energy", "degeneracy"]
    rows = [[str(check.jz_sign), str(check.ground_energy), str(check.degeneracy)]]
    json_data = {"jz_sign": check.jz_sign, "ground_energy": check.ground_energy,
                 "degeneracy": check.degeneracy}
    _emit(args, config, header, rows, None, json_data)


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
    p.add_argument("--state", required=True,
                   help="xi | chi | zeta:to,po,ti,pi | config:F | groundstate")
    p.add_argument("--sector", type=int, required=True)
    p.add_argument("--tol-support", type=float, default=SUPPORT_TOL,
                   help="overlap threshold defining the spectral support")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("return-prob", help="return probability of a sector component")
    _add_common(p, times=True)
    p.add_argument("--state", required=True)
    p.add_argument("--sector", type=int, required=True)
    p.set_defaults(func=cmd_return_prob)

    p = sub.add_parser("schmidt", help="Schmidt ranks across all bipartitions")
    _add_common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--tol-svd", type=float, default=1e-10,
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
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
