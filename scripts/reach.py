"""List the src/hexstar functions and properties that no source calls, and each lru_cache's use.

    python3 scripts/reach.py

Run from the root of a checkout, with Python 3.11 or later (it reads
``co_qualname``).  Each source runs in a fresh interpreter of
its own, with this checkout's ``src/`` on the import path, under a
``sys.setprofile`` hook that records every code object called:

- readme: each ``hexstar`` line of the README's command-line block
  (bench_record.readme_lines), through ``hexstar.cli.main``, in a temporary
  working directory;
- acceptance: ``tests/test_acceptance.py`` under pytest;
- classify, scan, quench, cli: round 0 of that perfbench workload (seed 1),
  each op run and checked through ``workloads.make(...)`` after
  ``harness.setup``.  It edits no file under ``perfbench/``.

The report lists the functions and properties defined in ``src/hexstar``
(nested ones too, lambdas not) that no source called, then each
``lru_cache``'s hits and misses per source: over the whole run for readme
and acceptance, and over the round alone, after set-up, for a workload.
Reachability is per function: a guard's raise inside a called function
counts as reached.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT, _env, readme_lines

SRC = ROOT / "src" / "hexstar"
SOURCES = ("readme", "acceptance", "classify", "scan", "quench", "cli")


def defined() -> dict[tuple[str, str], tuple[int, str]]:
    """(module, qualname) of every def in src/hexstar, with its line and kind."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [ast.unparse(d) for d in child.decorator_list]
                kind = "property" if "property" in names else "function"
                out[module, prefix + child.name] = child.lineno, kind
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def _caches() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every lru_cache that a hexstar module defines."""
    import hexstar
    out = {}
    for info in pkgutil.iter_modules(hexstar.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"hexstar.{info.name}")
        for name, obj in sorted(vars(module).items()):
            # an lru_cache wrapper, counted in the module that defines it; a
            # function that carries another's cache_info is not one
            cache_info = getattr(obj, "cache_info", None)
            if getattr(cache_info, "__self__", None) is obj and obj.__module__ == module.__name__:
                stats = cache_info()
                out[f"{info.name}.{name}"] = stats.hits, stats.misses
    return out


def _run_readme() -> dict:
    from hexstar.cli import main
    codes = []
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        for line in readme_lines():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(line.split()))
    return {"failures": sum(code != 0 for code in codes), "caches": _caches()}


def _run_acceptance() -> dict:
    import pytest
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_acceptance.py")])
    return {"failures": int(code), "caches": _caches()}


def _run_workload(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    import workloads
    from tracer import Layers
    layers = Layers(None)
    with tempfile.TemporaryDirectory() as work:
        wl = workloads.make(name, work)
        harness.clear_caches()
        harness.setup(layers, wl.canonical_spectra)
        before, tally, failures = _caches(), workloads.Tally(), 0
        for inp in wl.round(random.Random(f"{name}:1"), 0):
            failures += bool(wl.check(inp, wl.run(layers, inp), tally))
        after = _caches()
    return {"failures": failures,
            "caches": {k: (h - before[k][0], m - before[k][1]) for k, (h, m) in after.items()}}


def run_source(source: str, out: str) -> None:
    """Child mode: run one source under the hook and write what it called as JSON."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        if source == "readme":
            result = _run_readme()
        elif source == "acceptance":
            result = _run_acceptance()
        else:
            result = _run_workload(source)
    finally:
        sys.setprofile(None)
    src = os.path.realpath(SRC)
    result["called"] = sorted({(Path(c.co_filename).stem, c.co_qualname) for c in called
                               if os.path.realpath(os.path.dirname(c.co_filename)) == src})
    Path(out).write_text(json.dumps(result))


def report(results: dict) -> str:
    called = {tuple(c) for r in results.values() for c in r["called"]}
    unreached = sorted((key, line, kind) for key, (line, kind) in defined().items()
                       if key not in called)
    ran = (f"{source} ({r['failures']} failed)" for source, r in results.items())
    lines = ["sources: " + ", ".join(ran),
             f"functions and properties no source calls: {len(unreached)}"]
    lines += [f"  {m}.{q}  ({kind}, {m}.py:{line})" for (m, q), line, kind in unreached]
    names = sorted({name for r in results.values() for name in r["caches"]})
    width = max(map(len, names))
    lines += ["", "lru_cache hits / misses (workloads: their round, after set-up)",
              f"  {'cache':{width}s}" + "".join(f"{s:>14s}" for s in results)]
    for name in names:
        cells = ("{} / {}".format(*r["caches"][name]) for r in results.values())
        lines.append(f"  {name:{width}s}" + "".join(f"{c:>14s}" for c in cells))
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", nargs=2, metavar=("NAME", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.source:
        run_source(*args.source)
        return
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for source in SOURCES:
            out = Path(scratch) / f"{source}.json"
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--source", source,
                            str(out)], cwd=ROOT, env=_env(ROOT), check=True)
            results[source] = json.loads(out.read_text())
    print(report(results))


if __name__ == "__main__":
    main()
