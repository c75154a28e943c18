"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench/test_bench.py -q

They run real (short) workloads and take about two and a half minutes.
"""

import ast
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

ONE_ROUND = 1e-9   # any positive length runs exactly one round


def _rounds(name: str, seed: int, n: int = 3) -> list:
    rng = random.Random(f"{name}:{seed}")
    wl = workloads.make(name, workdir="unused")
    return [wl.round(rng, r) for r in range(n)]


def test_oracles_are_the_acceptance_constants():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    frozen = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.isupper()
    }
    for name in ("IRREP_CENSUS", "MULTIPLET_CENSUS", "SUPPORT_XI_XXZ", "SUPPORT_CHI_HEISENBERG"):
        assert getattr(oracles, name) == frozen[name], name


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    assert _rounds(name, 7) == _rounds(name, 7)
    assert _rounds(name, 7) != _rounds(name, 8)


@pytest.fixture(scope="module")
def cli_runs():
    return [harness.run_workload("cli", seed, ONE_ROUND, trace=False) for seed in (1, 1, 2)]


def test_same_seed_same_inputs_counts_and_digests(cli_runs):
    first, again, _ = cli_runs
    for key in ("inputs_sha256", "cli_outputs_sha256", "rounds"):
        assert first[key] == again[key], key
    for key in ("attempted", "failed"):
        assert first["result"][key] == again["result"][key], key


def test_second_seed_differs_and_passes(cli_runs):
    first, _, second = cli_runs
    assert second["inputs_sha256"] != first["inputs_sha256"]
    assert second["cli_outputs_sha256"] != first["cli_outputs_sha256"]
    for run in (first, second):
        assert run["fail_ratio"] == 0.0 and run["result"]["correct"]


def test_wrong_expected_value_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(oracles, "CROSSOVER_ALPHA6", (0.0, 0.1))
    run = harness.run_workload("scan", 1, ONE_ROUND, trace=False)
    result = run["result"]
    assert result["attempted"] == 2
    assert result["failed"] == 1   # the alpha = 6 op; the other op still passes
    assert not result["correct"]
    failures = [f for op in run["ops"] for f in op["failures"]]
    assert any("alpha 6 crossover" in f for f in failures)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "classify", "--seed", "3",
         "--seconds", str(ONE_ROUND), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
