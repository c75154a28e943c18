"""Compare the library's outputs on one committed case set between this checkout and a base revision.

    python3 scripts/equivalence.py --base HEAD~1
    python3 scripts/equivalence.py --base HEAD~1 --out equivalence.json

Run from the root of a checkout.  The cases are ``scripts/equivalence_cases.json``:
every state there, at every coupling, in every sector it reaches (a sector
component of nonzero weight); the labelled spectrum of every sector at every
coupling; the projection certificate of every sector M = 0..6; the ground
route's scans, points, vectors and overlap scans; and command lines run
through ``hexstar.cli.main`` ("README" stands for each ``hexstar`` line of
the README's command-line block).

Each tree runs the cases in a fresh interpreter of its own (``--dump``),
with its own ``src/`` on the import path, and pickles one record per case.
The base revision's committed files are unpacked by ``git archive`` into a
temporary directory (bench_record.base_tree).  Per field and per group of
cases the report says ``==`` with the dtype, or how many entries differ and
the largest absolute difference.  The groups are certificates, M >= 0,
M < 0, ground and command lines.  Fields:

- certificate: x, z and delta of spectrum._certificate(M), the bounds the
  residual check adds to every block residual;
- spectrum: eigenvalues, labels (indices, energy, irrep slots, irrep and
  spin of every cluster), eigenvectors (the dense columns) and
  residual_margin;
- dynamics: class_probs, row_class, return_prob, support_dim,
  support_overlap, classes, freq (formula, distinct) and regime;
- ground: a ground_state_scan's energies, points (Jz/J, sectors,
  degeneracy, irrep), crossover, bracket, excess and block_solves at each
  scan alpha on the scan grid; at each point alpha and Jz/J of the point
  grid, ground_state_point's energy and point, and _ground_vector's vector
  and block index, or its error text; heisenberg_overlap_scan's overlaps
  and spin weights at each overlap alpha on the overlap grid;
- command lines: exit code, stdout and stderr, with the cell diff of
  bench_record.output_diff where stdout differs.
"""

import argparse
import contextlib
import io
import json
import math
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_record import ROOT, _cells, _env, base_tree, output_diff, readme_lines

CASES = Path(__file__).with_name("equivalence_cases.json")
GROUPS = ("certificates", "M >= 0", "M < 0", "ground", "command lines")


def _cases() -> dict:
    """The case set, with "README" expanded into the README's command lines."""
    cases = json.loads(CASES.read_text())
    cases["cli"] = [line for entry in cases["cli"]
                    for line in (readme_lines() if entry == "README" else [entry])]
    return cases


def _records(cases: dict):
    """(group, key, fields) of every case, in a fixed order, computed by the hexstar on the path."""
    from hexstar import cli, hamiltonian
    from hexstar.dynamics import evolve_probabilities, regime_classifier, return_probability
    from hexstar.hilbert import build_initial_state, parse_state_spec, project_sector
    from hexstar.spectrum import _certificate, diagonalize_sector

    for M in range(7):
        x, z, delta = _certificate(M)
        yield "certificates", f"certificate M={M}", {"x": x, "z": z, "delta": delta}
    t = cases["times"]
    times = np.linspace(0.0, t["t_max"], t["t_steps"])
    states = {spec: build_initial_state(parse_state_spec(spec)) for spec in cases["states"]}
    for coupling in cases["couplings"]:
        name = coupling.get("name")
        params = (getattr(hamiltonian, name) if name
                  else hamiltonian.ModelParams(coupling["alpha"], coupling["jz_over_j"]))
        name = name or f"({params.alpha:g}, {params.jz_over_j:g})"
        for M in cases["sectors"]:
            group = "M >= 0" if M >= 0 else "M < 0"
            res = diagonalize_sector(M, params)
            yield group, f"spectrum {name} M={M}", {
                "eigenvalues": res.eigenvalues,
                "labels": [(c.indices.tolist(), c.energy, c.irrep_slots, c.irrep, c.spin)
                           for c in res.clusters],
                "eigenvectors": np.asarray(res.eigenvectors),
                "residual_margin": res.residual_margin,
            }
            for spec, state in states.items():
                if project_sector(state, M)[1] == 0.0:
                    continue
                traj = evolve_probabilities(state, M, params, times)
                yield group, f"dynamics {name} {spec} M={M}", {
                    "class_probs": traj.class_probs,
                    "row_class": traj.row_class,
                    "return_prob": return_probability(state, M, params, times),
                    "support_dim": traj.support.dim,
                    "support_overlap": traj.support.overlap,
                    "classes": [c.tolist() for c in traj.classes],
                    "freq": (traj.freq.formula, traj.freq.distinct),
                    "regime": regime_classifier(traj),
                }
    yield from _ground_records(cases["ground"])
    for line in cases["cli"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(line.split())
            except SystemExit as exc:  # argparse refuses the line
                code = exc.code
        yield "command lines", f"hexstar {line}", {
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _point(p) -> tuple:
    return p.jz_over_j, p.sectors, p.degeneracy, p.irrep


def _ground_records(ground: dict):
    """(group, key, fields) of the ground route's cases: scans, points, vectors, overlaps."""
    from hexstar.hamiltonian import DEG_TOL_RELATIVE, ModelParams
    from hexstar.spectrum import (_ground_vector, ground_state_point, ground_state_scan,
                                  heisenberg_overlap_scan)

    grid = np.linspace(*ground["scan_grid"])
    for alpha in ground["scan_alphas"]:
        scan = ground_state_scan(alpha, grid)
        yield "ground", f"ground scan alpha={alpha:g}", {
            "energies": np.array([p.energy for p in scan.points]),
            "points": [_point(p) for p in scan.points],
            "crossover": scan.crossover,
            "bracket": scan.crossover_bracket,
            "excess": scan.crossover_excess,
            "block_solves": scan.block_solves,
        }
    for alpha in ground["point_alphas"]:
        for jz in np.linspace(*ground["point_grid"]).tolist():
            params = ModelParams(alpha, jz)
            point = ground_state_point(params)
            try:
                vector, k, _ = _ground_vector(params, DEG_TOL_RELATIVE)
                error = ""
            except ValueError as exc:
                vector, k, error = None, None, str(exc)
            yield "ground", f"ground point ({alpha:g}, {jz:g})", {
                "energy": np.array(point.energy), "point": _point(point),
                "vector": vector, "block": k, "vector_error": error,
            }
    for alpha in ground["overlap_alphas"]:
        points = heisenberg_overlap_scan(np.linspace(*ground["overlap_grid"]), alpha)
        yield "ground", f"overlap scan alpha={alpha:g}", {
            "overlap_sq": np.array([p.overlap_sq for p in points]),
            "spin_weights": [p.spin_weights for p in points],
        }


def dump(cases_path: str, out_path: str) -> None:
    cases = json.loads(Path(cases_path).read_text())
    with open(out_path, "wb") as out:
        for record in _records(cases):
            pickle.dump(record, out, protocol=pickle.HIGHEST_PROTOCOL)


def _load(path: Path):
    with open(path, "rb") as f:
        while True:
            try:
                yield pickle.load(f)
            except EOFError:
                return


def _difference(a, b) -> tuple[int, int, float | None, str]:
    """(entries compared, entries differing, largest absolute difference, dtype) of one field."""
    if isinstance(a, str):  # an output: its cells
        cells = sum(len(row) for row in _cells(a.encode()))
        if a == b:
            return cells, 0, None, "str"
        diff = output_diff(a.encode(), b.encode())
        # at least one: outputs may differ in separators alone
        return cells, max(diff["cells_differing"], 1), diff["max_abs_diff"], "str"
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        kind = a.dtype.str if a.dtype == b.dtype else f"{a.dtype.str}/{b.dtype.str}"
        if a.shape != b.shape:
            return max(a.size, b.size), max(a.size, b.size), None, kind
        same = (a == b) | ((a != a) & (b != b))  # NaN matches NaN
        if same.all():
            return a.size, 0, None, kind
        gap = np.abs(a - b)[~same]
        return a.size, int((~same).sum()), float(gap.max()), kind
    return 1, int(a != b), None, type(a).__name__


def compare(parent: Path, child: Path) -> dict:
    """Per group and field: entries, differing entries, largest difference, dtypes; differing cases."""
    table, cases = {group: {} for group in GROUPS}, {}
    for (group, key, fields), (group_c, key_c, fields_c) in zip(_load(parent), _load(child)):
        if (group, key) != (group_c, key_c):
            raise SystemExit(f"the trees ran different cases: {key!r} against {key_c!r}")
        for field, value in fields.items():
            n, bad, gap, kind = _difference(value, fields_c[field])
            row = table[group].setdefault(
                field, {"cases": 0, "entries": 0, "differing": 0, "max_abs_diff": None,
                        "dtypes": []})
            row["cases"] += 1
            row["entries"] += n
            row["differing"] += bad
            if kind not in row["dtypes"]:
                row["dtypes"].append(kind)
            if gap is not None and math.isfinite(gap):
                row["max_abs_diff"] = max(gap, row["max_abs_diff"] or 0.0)
            if bad:
                cases.setdefault(key, []).append(field)
    return {"fields": table, "differing_cases": cases}


def report(doc: dict) -> str:
    lines = [f"base {doc['base']}"]
    for group, fields in doc["fields"].items():
        lines.append(f"{group}:")
        for field, row in fields.items():
            kinds = ",".join(row["dtypes"])
            if not row["differing"]:
                verdict = f"== ({kinds})"
            else:
                gap = row["max_abs_diff"]
                verdict = (f"{row['differing']} of {row['entries']} entries differ"
                           + ("" if gap is None else f", max |diff| {gap:.2g}") + f" ({kinds})")
            lines.append(f"  {field:16} {row['cases']:4} cases  {verdict}")
    lines += [f"differs: {key}: {', '.join(fields)}" for key, fields in doc["differing_cases"].items()
              if key.startswith("hexstar ")]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="compare against this revision")
    parser.add_argument("--out", help="also write the comparison here, as JSON")
    parser.add_argument("--dump", nargs=2, metavar=("CASES", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(*args.dump)
        return
    if not args.base:
        parser.error("--base is required")
    with base_tree(args.base) as (rev, tree), tempfile.TemporaryDirectory() as scratch:
        cases = Path(scratch) / "cases.json"
        cases.write_text(json.dumps(_cases()))
        dumps = {}
        for side, root in (("parent", tree), ("child", ROOT)):
            dumps[side] = Path(scratch) / f"{side}.pickle"
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(cases),
                            str(dumps[side])], cwd=root, env=_env(root), check=True)
        doc = {"base": rev, **compare(dumps["parent"], dumps["child"])}
    print(report(doc))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
