"""Benchmark of hexstar: four closed-loop workloads with oracle-checked ops.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the root of a checkout; hexstar is imported from its ``src``.  One
workload runs per process.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload untraced and traced,
each in a child process, and prints the end-to-end table with fail ratios
and the tracing overhead.  Run records, spans and cli output digests go to
``perfbench/out/``.
"""

import time

START = time.perf_counter()

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "scan", "quench", "cli")
E2E = ("setup_s", "ops_per_s", "op_p50_s", "cpu_s_per_op", "peak_rss_mb")


def import_hexstar() -> float:
    """Import hexstar from the checkout's src; returns seconds since process start."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hexstar
    except ImportError as exc:
        sys.exit(f"error: cannot import hexstar from {src}: {exc}")
    if Path(hexstar.__file__).resolve().parent != src / "hexstar":
        sys.exit(f"error: hexstar was imported from {hexstar.__file__}, not from {src}")
    return time.perf_counter() - START


def run_one(args) -> None:
    import_s = import_hexstar()
    import harness

    record = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), import_s)
    result = record["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']} in {record['rounds']} round(s), "
          f"{record['timed_s']:.2f} s timed")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {record['fail_ratio']:14.6g} ratio")
    for op in record["ops"]:
        for failure in op["failures"]:
            print(f"  op {op['id']} failed: {failure.splitlines()[-1]}")
    for failure in record["setup_failures"]:
        print(f"  set-up check failed: {failure}")
    print(f"  inputs sha256 {record['inputs_sha256']}")
    if record["cli_outputs_sha256"]:
        print(f"  cli outputs sha256 {record['cli_outputs_sha256']}")
    print(f"  record {record['path']}")
    print(json.dumps(result), flush=True)


def run_all(args) -> None:
    """Every workload untraced and traced, one child process each."""
    rows = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
            rows[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"seed {args.seed}, {args.seconds} s per run; op_p50_s over n ops")
    print(f"{'workload':10s}" + "".join(f"{m:>14s}" for m in E2E)
          + f"{'n':>5s}{'fail_ratio':>12s}{'traced_ops/s':>14s}{'overhead':>10s}")
    summary = {}
    for name in WORKLOADS:
        plain, traced = rows[name, 0], rows[name, 1]
        metrics = plain["metrics"]
        fail_ratio = plain["failed"] / plain["attempted"]
        traced_rate = traced["metrics"]["trace.ops_per_s"]["value"]
        overhead = 1.0 - traced_rate / metrics["ops_per_s"]["value"]
        print(f"{name:10s}" + "".join(f"{metrics[m]['value']:14.6g}" for m in E2E)
              + f"{plain['attempted']:5d}{fail_ratio:12.4g}{traced_rate:14.6g}{overhead:10.2%}")
        summary[name] = {"correct": plain["correct"] and traced["correct"],
                         "fail_ratio": fail_ratio, "tracing_overhead": overhead,
                         "metrics": metrics}
    print("units: " + ", ".join(f"{m} {rows[WORKLOADS[0], 0]['metrics'][m]['unit']}"
                                for m in E2E) + ", fail_ratio ratio")
    print(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="least length of the timed phase; it runs whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
