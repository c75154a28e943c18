"""Record one BENCH_<n>.json: perfbench on fixed seeds, the README command lines, the test gate.

    python3 scripts/bench_record.py --out BENCH_1.json --seeds 1 2

Run from the root of a checkout, on Linux.  For each seed it runs
``perfbench/run.py --workload all`` (every workload untraced and traced)
and keeps the end-to-end summary together with the per-layer metrics of
the traced runs, read from their records in ``perfbench/out/``.  It runs
each ``hexstar ...`` line of the README's command-line block as
``python -m hexstar``, three times with stdout discarded, and keeps the
best wall time and the smallest peak RSS of each line; a child's peak is
read from the rusage that ``os.wait4`` returns for it alone, since
RUSAGE_CHILDREN holds the largest peak of all children so far.  It then
counts the lines of ``src/`` and runs the Tier-1 suite once, recording its
test count and wall time.  A claimed speedup is the difference between two
such files made on the same machine.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("classify", "scan", "quench", "cli")


def perfbench(seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in WORKLOADS:
        record = ROOT / "perfbench" / "out" / f"{name}-seed{seed}-trace1.record.json"
        summary[name]["traced_metrics"] = json.loads(record.read_text())["result"]["metrics"]
    return summary


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def readme_lines() -> list[str]:
    """The arguments of each ``hexstar`` line in the README's command-line block."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    return [line.split(None, 1)[1] for line in block.splitlines() if line.startswith("hexstar ")]


def cli_lines(repeats: int = 3) -> dict:
    """Best wall time and smallest peak RSS of each README line over `repeats` runs."""
    out = {}
    for line in readme_lines():
        walls, peaks = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "hexstar", *line.split()],
                                    cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append(time.perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
            if proc.returncode:
                raise SystemExit(f"hexstar {line} exited with {proc.returncode}")
            peaks.append(usage.ru_maxrss / 1024)  # ru_maxrss is in KiB on Linux
        out[f"hexstar {line}"] = {"wall_s": round(min(walls), 3),
                                  "peak_rss_mb": round(min(peaks), 1)}
    return out


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
    args = parser.parse_args()
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    doc = {
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(path.read_text().splitlines()) for path in sources),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "perfbench": {str(seed): perfbench(seed) for seed in args.seeds},
        "readme_cli": cli_lines(),
        "tier1": tier1(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
