"""Record one BENCH_<n>.json: perfbench on fixed seeds, the README command lines, the test gate.

    python3 scripts/bench_record.py --out BENCH_1.json --seeds 1 2
    python3 scripts/bench_record.py --base HEAD~1 --out pairs.json --pairs 10 --seed-start 901

Run from the root of a checkout, on Linux.  For each seed it runs
``perfbench/run.py --workload all`` (every workload untraced and traced)
and keeps the end-to-end summary together with the per-layer metrics of
the traced runs, read from their records in ``perfbench/out/``.  It runs
each ``hexstar ...`` line of the README's command-line block through
``hexstar.cli.main`` in a fresh interpreter (PEAK_WRAPPER), three times with
stdout discarded, and keeps the best wall time and the smallest peak RSS of
each line.  A child's peak is the ``VmHWM`` it reads from its own
``/proc/self/status`` as it exits: the ``ru_maxrss`` that ``os.wait4``
returns would also count the recorder's own high-water mark, which Linux
folds into the child's at ``exec``.  It then
counts the lines of ``src/`` and runs the Tier-1 suite once, recording its
test count and wall time.  A claimed speedup is the difference between two
such files made on the same machine.

With ``--base REV`` it compares instead: REV's committed files are unpacked
by ``git archive`` into a temporary directory, removed afterwards
(base_tree), and parent (REV) and child (this checkout) run
``perfbench/run.py --trace 0`` alternately for BENCHMARK.json's
``run_seconds``, one seed per pair, the parent first on odd pairs.  It
records both trees' ``src/`` line counts, counted as the record mode
counts them (_src_lines).  For every workload and every end-to-end metric
of BENCHMARK.json it keeps both sides' values, their medians, the ratio
of the medians (child / parent), the pairs the child wins and the
parent's interquartile range.  Each README line runs LINE_REPEATS times in both
trees the same alternating way; it keeps each side's best wall time,
smallest peak RSS and whether stdout and stderr are byte-identical.  Where
they are not, it also records how many output cells of the two sides' stdout
differ and the largest absolute difference between their numeric cells.  The
BLAS thread variables are recorded as found; nothing is set.  Both modes also
record, per tree, the thread count numpy's bundled OpenBLAS was loaded with
and the counts in force at the ``eigh`` calls of one labelled solve, at the
``dynamics._power`` calls of one evolve and at the ``svd`` calls of one
entangled Schmidt scan, read in a fresh interpreter (BLAS_PROBE).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("classify", "scan", "quench", "cli")
LINE_REPEATS = 4  # runs of each README line per side in a paired comparison
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def perfbench(seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in WORKLOADS:
        record = ROOT / "perfbench" / "out" / f"{name}-seed{seed}-trace1.record.json"
        summary[name]["traced_metrics"] = json.loads(record.read_text())["result"]["metrics"]
    return summary


def _benchmark() -> tuple[dict, float]:
    """BENCHMARK.json's end-to-end metrics, each with True when higher is better, and run_seconds.

    run_seconds is the timed phase of each paired perfbench run.
    """
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return ({m["name"]: m["better"] == "higher" for m in doc["end_to_end"]},
            float(doc["run_seconds"]))


def _env(root: Path = ROOT) -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}


def _src_lines(root: Path = ROOT) -> int:
    """Lines of the Python files under root's ``src/``: the count every record carries."""
    return sum(len(path.read_text().splitlines()) for path in (root / "src").rglob("*.py"))


def readme_lines() -> list[str]:
    """The arguments of each ``hexstar`` line in the README's command-line block."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    return [line.split(None, 1)[1] for line in block.splitlines() if line.startswith("hexstar ")]


# Runs one command line through hexstar.cli.main, like ``python -m hexstar``, and
# writes the process's own peak RSS (VmHWM, in kB) to the file named by argv[1].
PEAK_WRAPPER = """\
import sys
from hexstar.cli import main
peak = sys.argv.pop(1)
try:
    code = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as status, open(peak, "w") as out:
        out.write(next(row for row in status if row.startswith("VmHWM:")).split()[1])
raise SystemExit(code)
"""


# Prints, as JSON, the thread count numpy's bundled OpenBLAS was loaded with and
# the counts in force at each np.linalg.eigh of the labelled M = 0 solve at
# (3.7, 0.4) ("solve"), at each dynamics._power of an evolve of chi on that
# sector ("evolve") and at each np.linalg.svd of the Schmidt scan of an entangled
# state, (|0> + |4095>) / sqrt 2 ("svd"), all read through ctypes; None where
# that library is not found.
BLAS_PROBE = """\
import ctypes, json, pathlib
import numpy as np
libs = sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("*scipy_openblas*"))
get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_ if libs else lambda: None
loaded, seen = get(), {"solve": set(), "evolve": set(), "svd": set()}
def spy(key, fn):
    return lambda *args, **kwargs: seen[key].add(get()) or fn(*args, **kwargs)
np.linalg.eigh = spy("solve", np.linalg.eigh)
np.linalg.svd = spy("svd", np.linalg.svd)
from hexstar import dynamics, entanglement, hilbert
from hexstar.hamiltonian import ModelParams
from hexstar.spectrum import diagonalize_sector
dynamics._power = spy("evolve", dynamics._power)
params = ModelParams(3.7, 0.4)
diagonalize_sector(0, params)
chi = hilbert.build_initial_state(hilbert.parse_state_spec("chi"))
dynamics.evolve_probabilities(chi, 0, params, np.linspace(0.0, 1.0, 2001))
ghz = np.zeros(hilbert.N_CONFIGS)
ghz[[0, -1]] = 0.5 ** 0.5
entanglement.is_entangled(hilbert.StateVector(ghz))
print(json.dumps({"loaded": loaded, **{k: sorted(v, key=str) for k, v in seen.items()}}))
"""


def blas_threads(root: Path = ROOT) -> dict:
    """OpenBLAS threads at numpy's load, at a solve's eigh, an evolve's _power and a scan's svd."""
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], cwd=root, env=_env(root),
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def run_line(line: str, root: Path = ROOT) -> tuple[float, float, str, bytes]:
    """Wall time, peak RSS (MB), a digest of stdout and stderr, and stdout of one README line."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.NamedTemporaryFile("r") as peak:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PEAK_WRAPPER, peak.name, *line.split()],
                              cwd=root, env=_env(root), stdout=out, stderr=err)
        wall = time.perf_counter() - start
        if proc.returncode:
            raise SystemExit(f"hexstar {line} exited with {proc.returncode} in {root}")
        out.seek(0)
        err.seek(0)
        stdout = out.read()
        digest = hashlib.sha256(stdout + b"\0" + err.read()).hexdigest()
        rss_kb = int(peak.read())
    return wall, rss_kb / 1024, digest, stdout


def _cells(text: bytes) -> list[list[str]]:
    """Each line's cells: the fields between commas, blanks, colons, quotes and brackets."""
    return [[c for c in re.split(r'[\s,:"\[\]{}]+', line) if c]
            for line in text.decode().splitlines()]


def output_diff(parent: bytes, child: bytes) -> dict:
    """Cells that differ between two outputs, and the largest absolute difference of numeric ones.

    Lines and cells are paired by position; a cell with no partner counts as
    differing.  A pair is numeric when both parse as finite floats.
    """
    differing, largest = 0, None
    a, b = _cells(parent), _cells(child)
    for row_a, row_b in zip(a, b):
        differing += abs(len(row_a) - len(row_b))
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            differing += 1
            try:
                gap = abs(float(x) - float(y))
            except ValueError:
                continue
            if math.isfinite(gap):
                largest = gap if largest is None else max(largest, gap)
    differing += sum(len(row) for row in a[len(b):] + b[len(a):])
    return {"cells_differing": differing, "max_abs_diff": largest}


def cli_lines(repeats: int = 3) -> dict:
    """Best wall time and smallest peak RSS of each README line over `repeats` runs."""
    out = {}
    for line in readme_lines():
        runs = [run_line(line) for _ in range(repeats)]
        out[f"hexstar {line}"] = {"wall_s": round(min(r[0] for r in runs), 3),
                                  "peak_rss_mb": round(min(r[1] for r in runs), 1)}
    return out


def _perfbench_run(root: Path, workload: str, seed: int) -> dict:
    """The end-to-end metric values and fail count of one untraced perfbench run in root."""
    e2e, seconds = _benchmark()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{name: m["value"] for name, m in result["metrics"].items() if name in e2e}}


def _summary(parent: list[float], child: list[float], higher_is_better: bool) -> dict:
    """Both sides, their medians, the median ratio, the child's wins and the parent's IQR."""
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    wins = sum((c > p) if higher_is_better else (c < p) for p, c in zip(parent, child))
    p50, c50 = statistics.median(parent), statistics.median(child)
    return {"parent": parent, "child": child, "parent_median": p50, "child_median": c50,
            "median_ratio": c50 / p50 if p50 else None, "child_wins": wins,
            "pairs": len(parent), "parent_iqr": q3 - q1}


@contextlib.contextmanager
def base_tree(base: str):
    """Yields (the commit base names, a temporary directory with its committed files)."""
    rev = subprocess.run(["git", "rev-parse", "--verify", base + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        yield rev, Path(tree)


def paired(base: str, pairs: int, seed_start: int) -> dict:
    """Parent (base) and child (this checkout) run alternately, the parent first on odd pairs."""
    e2e, seconds = _benchmark()
    with base_tree(base) as (rev, tree):
        src_lines = {"parent": _src_lines(tree), "child": _src_lines(ROOT)}
        blas = {"parent": blas_threads(tree), "child": blas_threads(ROOT)}
        order = (("parent", tree), ("child", ROOT))
        runs = {w: {"parent": [], "child": []} for w in WORKLOADS}
        for pair in range(1, pairs + 1):
            seed = seed_start + pair - 1
            for w in WORKLOADS:
                for side, root in order if pair % 2 else order[::-1]:
                    runs[w][side].append(_perfbench_run(root, w, seed))
        lines = {}
        for line in readme_lines():
            sides = {"parent": [], "child": []}
            for k in range(LINE_REPEATS):
                for side, root in order if k % 2 == 0 else order[::-1]:
                    sides[side].append(run_line(line, root))
            identical = len({r[2] for rs in sides.values() for r in rs}) == 1
            lines[f"hexstar {line}"] = {
                **{f"{side}_{what}": round(min(r[i] for r in sides[side]), 3 if i == 0 else 1)
                   for side in sides for i, what in ((0, "wall_s"), (1, "peak_rss_mb"))},
                "bytes_identical": identical,
                **({} if identical else output_diff(sides["parent"][0][3], sides["child"][0][3]))}
    return {
        "base": rev,
        "seeds": [seed_start, seed_start + pairs - 1],
        "seconds": seconds,
        "src_lines": src_lines,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads": blas,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "workloads": {w: {"failed": [sum(r["failed"] for r in runs[w][s]) for s in runs[w]],
                          "attempted": [sum(r["attempted"] for r in runs[w][s]) for s in runs[w]],
                          **{m: _summary([r[m] for r in runs[w]["parent"]],
                                         [r[m] for r in runs[w]["child"]], better)
                             for m, better in e2e.items()}}
                      for w in WORKLOADS},
        "readme_cli": lines,
    }


def tier1() -> dict:
    env = _env()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1]
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?|skipped)", tail)}
    return {"summary": tail, "counts": counts, "wall_s": round(wall, 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--base", help="compare against this revision in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1001, help="seed of the first pair")
    args = parser.parse_args()
    if args.base:
        doc = paired(args.base, args.pairs, args.seed_start)
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    doc = {
        "src_sha256": digest.hexdigest(),
        "src_lines": _src_lines(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads": blas_threads(),
        "perfbench": {str(seed): perfbench(seed) for seed in args.seeds},
        "readme_cli": cli_lines(),
        "tier1": tier1(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
