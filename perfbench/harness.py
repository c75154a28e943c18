"""One workload run: set-up, the timed closed loop, checks, metrics and the run record."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from hexstar import spectrum, symmetry

import workloads
from tracer import LAYERS, Layers, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3
THREAD_VARS = ("HEXSTAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Span names whose time each per-layer metric adds up.
SETUP_SPANS = {
    "lattice.setup_s": ("lattice.build_geometry", "lattice.build_group",
                        "lattice.character_table"),
    "hilbert.bases_s": ("hilbert.sector_basis",),
    "hamiltonian.casimir_s": ("hamiltonian.heisenberg_casimir",),
    "symmetry.census_s": ("symmetry.irrep_counts", "symmetry.multiplet_counts"),
    "spectrum.setup_spectra_s": ("spectrum.full_spectrum",),
}
OP_SPANS = {
    "hilbert.state_s": ("hilbert.parse_state_spec", "hilbert.build_initial_state"),
    "spectrum.full_spectrum_s": ("spectrum.full_spectrum",),
    "spectrum.histogram_s": ("spectrum.degeneracy_histogram",),
    "spectrum.scan_s": ("spectrum.ground_state_scan",),
    "dynamics.evolve_s": ("dynamics.evolve_probabilities",),
    "dynamics.collapse_s": ("dynamics.collapse_metrics", "dynamics.regime_classifier"),
    "dynamics.return_s": ("dynamics.return_probability",),
    "entanglement.scan_s": ("entanglement.is_entangled",),
}
CLI_COMMANDS = ("dynamics", "return-prob", "spectrum", "schmidt", "degeneracy")
PER_OP_COUNTS = ("dynamics.support_dim", "dynamics.classes", "entanglement.cuts",
                 "cli.bytes_out")


def clear_caches() -> None:
    """Empty every memo cache of the hexstar modules, so set-up starts cold."""
    for layer in LAYERS:
        for obj in vars(importlib.import_module(f"hexstar.{layer}")).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def setup(L: Layers, canonical_spectra: bool) -> None:
    """The work that does not depend on an op's parameters."""
    geometry = L.lattice.build_geometry()
    L.lattice.build_group(geometry)
    L.lattice.character_table()
    L.symmetry.irrep_counts()
    L.symmetry.multiplet_counts()
    for M in range(-6, 7):
        L.hilbert.sector_basis(M)
    for M in range(0, 7):
        L.hamiltonian.heisenberg_casimir(M)
    if canonical_spectra:
        L.spectrum.full_spectrum(L.hamiltonian.HEISENBERG)
        L.spectrum.full_spectrum(L.hamiltonian.XXZ_FERRO)


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import hexstar from this checkout."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import hexstar; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def check_setup() -> list[str]:
    return workloads.census_failures(symmetry.irrep_counts().counts,
                                     symmetry.multiplet_counts().multiplets)


def _diag_cache():
    info = getattr(spectrum.diagonalize_sector, "cache_info", None)
    return info() if callable(info) else None


def environment() -> dict:
    """Machine, library versions and thread settings as found; nothing is set."""
    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "sector_pool_workers": spectrum.thread_budget(),
    }


def source_state() -> dict:
    """Commit (when the checkout is a git repository) and the src/ line count."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"commit": commit, "src_lines": lines}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0) -> dict:
    """Run one workload; returns the result line plus the run record."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        return _run(name, seed, seconds, trace, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, import_s, workdir) -> dict:
    tracer = Tracer() if trace else None
    L = Layers(tracer)
    wl = workloads.make(name, workdir)

    # Import cannot be repeated in this process, so each repetition times it
    # in a fresh interpreter and then redoes the rest of set-up here, cold.
    rep_imports, rep_times = [], []
    for rep in range(SETUP_REPS):
        rep_imports.append(child_import_s())
        clear_caches()
        if tracer:
            tracer.phase = f"setup:{rep}"
        t0 = time.perf_counter()
        with L.span("bench.setup"):
            setup(L, wl.canonical_spectra)
        rep_times.append(time.perf_counter() - t0)
    setup_fails = check_setup()

    rng = random.Random(f"{name}:{seed}")
    tally = workloads.Tally()
    inputs, ops = [], []
    cache0 = _diag_cache()
    if tracer:
        tracer.phase = "ops"
    timed = 0.0
    r = 0
    while timed < seconds:   # whole rounds, so every run does the same mix
        for inp in wl.round(rng, r):
            ops.append(_op(wl, L, tracer, tally, len(ops), inp))
            inputs.append(inp)
            timed += ops[-1]["wall_s"]
        r += 1
    cache1 = _diag_cache()

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    walls = [op["wall_s"] for op in ops]
    metrics = {
        "setup_s": (statistics.median(i + t for i, t in zip(rep_imports, rep_times)), "s"),
        "ops_per_s": ((attempted - failed) / timed, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "cpu_s_per_op": (sum(op["cpu_s"] for op in ops) / attempted, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer:
        metrics = per_layer(tracer, inputs, ops, tally, cache0, cache1, metrics)

    result = {
        "correct": failed == 0 and not setup_fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "result": result,
        "fail_ratio": failed / attempted,
        "timed_s": timed,
        "rounds": r,
        "import_s": import_s,
        "setup_reps_import_s": rep_imports,
        "setup_reps_s": rep_times,
        "setup_failures": setup_fails,
        "inputs_sha256": _digest(inputs),
        "inputs": inputs,
        "ops": ops,
        "cli_outputs_sha256": _digest(tally.outputs) if tally.outputs else None,
        "cli_outputs": tally.outputs,
        "margins": tally.margins,
        "environment": environment(),
        "source": source_state(),
    }
    stem = f"{name}-seed{seed}-trace{int(bool(trace))}"
    if tracer:
        self_s: dict[str, float] = {}
        for s in tracer.spans:
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time
        record["self_s_by_span"] = dict(sorted(self_s.items()))
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as f:
            for rec in tracer.records():
                f.write(json.dumps(rec) + "\n")
    with open(OUT_DIR / f"{stem}.record.json", "w") as f:
        json.dump(record, f, indent=1)
    record["path"] = str((OUT_DIR / f"{stem}.record.json").relative_to(ROOT))
    return record


def _op(wl, L: Layers, tracer: Tracer | None, tally, op_id: int, inp: dict) -> dict:
    """One timed op, then its check outside the timed interval."""
    if tracer:
        tracer.op = op_id
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with L.span("bench.op"):
            out = wl.run(L, inp)
    except Exception:
        out, error = None, traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer:
        tracer.op = None
    if error is None:
        try:
            fails = wl.check(inp, out, tally)
        except Exception:
            fails = ["check raised: " + traceback.format_exc(limit=3)]
    else:
        fails = ["op raised: " + error]
    return {"id": op_id, "wall_s": wall, "cpu_s": cpu, "ok": not fails, "failures": fails[:5]}


def per_layer(tracer, inputs, ops, tally, cache0, cache1, e2e) -> dict:
    """The per-layer metrics of a traced run."""
    spans = tracer.spans
    n_ops = len(ops)
    op_spans = [s for s in spans if s.phase == "ops"]
    m: dict[str, tuple[float, str]] = {}

    for metric, names in SETUP_SPANS.items():
        per_rep = [sum(s.duration for s in spans if s.phase == f"setup:{rep}" and s.name in names)
                   for rep in range(SETUP_REPS)]
        m[metric] = (statistics.median(per_rep), "s/setup")

    def op_time(pred) -> float:
        return sum(s.duration for s in op_spans if pred(s)) / n_ops

    for metric, names in OP_SPANS.items():
        m[metric] = (op_time(lambda s: s.name in names), "s/op")

    def assembly(exact: bool):
        return lambda s: (s.name == "hamiltonian.build_sector_hamiltonian"
                          and ("exact=True" in s.detail) == exact)

    m["hamiltonian.assemble_s"] = (op_time(assembly(False)), "s/op")
    m["hamiltonian.exact_s"] = (op_time(assembly(True)), "s/op")

    for layer in ("spectrum", "entanglement"):
        inside = [s for s in op_spans if s.name.startswith(layer + ".")]
        wall = sum(s.duration for s in inside)
        m[f"{layer}.cpu_over_wall"] = (sum(s.cpu for s in inside) / wall if wall else 0.0, "ratio")

    hit_ratio = 0.0
    if cache0 is not None and cache1 is not None:
        lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses)
        hit_ratio = (cache1.hits - cache0.hits) / lookups if lookups else 0.0
    m["spectrum.diag_cache_hit_ratio"] = (hit_ratio, "ratio")
    m["spectrum.ambiguous_gaps"] = (tally.counts["spectrum.ambiguous_gaps"], "count")
    for name in workloads.MARGIN_BOUNDS:
        m[name] = (tally.margins.get(name, 0.0), "ratio")
    for name in PER_OP_COUNTS:
        m[name] = (tally.counts[name] / n_ops, "B/op" if name == "cli.bytes_out" else "1/op")

    cli_time: dict[str, list[float]] = {}
    for s in op_spans:
        if s.name == "cli.main":
            command = inputs[s.op]["argv"][0]
            key = command if command in CLI_COMMANDS else "other"
            cli_time.setdefault(key, []).append(s.duration)
    for key in CLI_COMMANDS + ("other",):
        times = cli_time.get(key, [])
        m[f"cli.{key}_s"] = (sum(times) / len(times) if times else 0.0, "s/call")

    cli_rc_errors = sum(1 for out in tally.outputs if out["rc"] != 0)
    for layer in LAYERS:
        mine = [s for s in spans if s.name.startswith(layer + ".")]
        errors = sum(s.error for s in mine) + (cli_rc_errors if layer == "cli" else 0)
        m[f"{layer}.calls"] = (len(mine), "count")
        m[f"{layer}.errors"] = (errors, "count")
    m["trace.ops_per_s"] = (e2e["ops_per_s"][0], "1/s")
    return m
