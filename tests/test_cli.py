"""Command-line behaviour: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

import hexstar
from hexstar.cli import main
from hexstar.hamiltonian import total_coupling


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    stats = None
    if lines[-1].startswith("# stats: "):
        stats = json.loads(lines[-1][len("# stats: "):])
        lines = lines[:-1]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows, stats


def test_geometry_listing(capsys):
    code, out, _ = run_cli(capsys, "geometry")
    assert code == 0
    config, header, rows, _ = parse_csv(out)
    assert config["command"] == "geometry"
    assert sum(r[0] == "site" for r in rows) == 12
    assert sum(r[0] == "element" for r in rows) == 24


def test_symmetry_tables_cells(capsys):
    code, out, _ = run_cli(capsys, "symmetry-tables")
    assert code == 0
    _, header, rows, _ = parse_csv(out)
    col = {name: k for k, name in enumerate(header)}
    by_m = {r[col["index"]]: r for r in rows if r[col["table"]] == "irreps_by_m"}
    assert by_m["5"][col["A2g"]] == "2"
    assert by_m["5"][col["E2g"]] == "2x2"
    assert by_m["0"][col["total"]] == "924"
    assert by_m["-5"] [col["A2g"]] == "2"
    by_s = {r[col["index"]]: r for r in rows if r[col["table"]] == "multiplets_by_s"}
    assert by_s["6"][col["A2g"]] == "1"


def test_degeneracy_histogram_output(capsys):
    code, out, _ = run_cli(capsys, "degeneracy", "--jz-over-j", "-3")
    assert code == 0
    _, header, rows, stats = parse_csv(out)
    assert header == ["degeneracy", "count"]
    assert {int(d): int(n) for d, n in rows} == {1: 312, 2: 838, 4: 527}
    assert stats["total_states"] == 4096
    assert stats["ambiguous_gaps"] == 0


def test_spectrum_single_sector(capsys, geometry):
    code, out, _ = run_cli(capsys, "spectrum", "--sector", "6", "--jz-over-j", "-3")
    assert code == 0
    _, header, rows, _ = parse_csv(out)
    assert len(rows) == 1
    energy = float(rows[0][header.index("energy")])
    assert energy == pytest.approx(-3.0 * total_coupling(geometry, 6.0), rel=1e-15)
    assert rows[0][header.index("irrep")] == "A2g"


def test_dynamics_stats_and_determinism(capsys, tmp_path):
    args = ("dynamics", "--state", "xi", "--jz-over-j", "-3", "--sector", "5",
            "--t-max", "0.5", "--t-steps", "21")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    _, header, rows, stats = parse_csv(out)
    assert header[0] == "t" and len(header) == 13
    assert len(rows) == 21
    assert stats["regime"] == "sinusoidal"
    assert stats["num_trajectory_classes"] == 2
    assert stats["support_dim"] == 2

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main([*args, "--output", str(first)]) == 0
    assert main([*args, "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    # file mode moves the statistics into a sidecar
    sidecar = json.loads((tmp_path / "a.csv.stats.json").read_text())
    assert sidecar["stats"]["regime"] == "sinusoidal"
    assert "# stats" not in first.read_text()


def test_return_probability_output(capsys):
    code, out, _ = run_cli(capsys, "return-prob", "--state", "chi", "--sector", "5",
                           "--t-steps", "5")
    assert code == 0
    _, header, rows, _ = parse_csv(out)
    assert header == ["t", "p_return"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-13)


def test_schmidt_product_state(capsys):
    code, out, _ = run_cli(capsys, "schmidt", "--state", "config:63")
    assert code == 0
    _, header, rows, stats = parse_csv(out)
    assert len(rows) == (1 << 11) - 1
    assert stats == {"entangled": False, "min_rank": 1, "max_rank": 1}


def test_schmidt_of_the_unique_heisenberg_ground_state(capsys):
    code, out, _ = run_cli(capsys, "schmidt", "--state", "ground", "--jz-over-j", "1")
    assert code == 0
    _, _, rows, stats = parse_csv(out)
    assert len(rows) == (1 << 11) - 1
    assert stats["entangled"] is True


def test_degenerate_ground_state_is_refused(capsys):
    # the ferromagnetic ground level is the pair M = +-6
    code, out, err = run_cli(capsys, "schmidt", "--state", "ground", "--jz-over-j", "-3")
    assert code == 2
    assert out == ""
    assert "2-fold" in err and "-6|6" in err


def test_analytic_block_agrees_with_engine(capsys):
    code, out, _ = run_cli(capsys, "analytic-m5", "--jz-over-j", "-3",
                           "--t-steps", "3")
    assert code == 0
    _, _, rows, stats = parse_csv(out)
    assert stats["engine_max_dev"] < 1e-12
    assert float(rows[0][1]) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert stats["exact"][0][0] == "-173351219/4000752"


def test_ising_output(capsys):
    code, out, _ = run_cli(capsys, "ising", "--jz-sign", "1")
    assert code == 0
    _, _, rows, _ = parse_csv(out)
    assert rows == [["1", "-6", "730"]]


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "dynamics", "--state", "xi", "--jz-over-j", "-3",
                           "--sector", "6", "--t-steps", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "dynamics"
    assert doc["stats"]["regime"] == "constant"
    # one distribution per time point, aligned with doc["times"]
    assert len(doc["probabilities"]) == len(doc["times"]) == 3
    for dist in doc["probabilities"]:
        assert dist == pytest.approx([1.0])


def test_ground_scan_output(capsys):
    code, out, _ = run_cli(capsys, "ground-scan", "--jz-min", "-0.6",
                           "--jz-max", "-0.4", "--jz-points", "3")
    assert code == 0
    _, header, rows, stats = parse_csv(out)
    assert [r[header.index("sectors")] for r in rows] == ["-6|6", "-6|6", "0"]
    assert -0.49 < stats["crossover"] < -0.48


def test_descending_ground_scan_grid_is_refined(capsys):
    stats = []
    for lo, hi in (("-1", "0"), ("0", "-1")):
        code, out, _ = run_cli(capsys, "ground-scan", "--jz-min", lo, "--jz-max", hi,
                               "--jz-points", "2")
        assert code == 0
        stats.append(parse_csv(out)[3])
    assert stats[1] == stats[0]
    assert -0.49 < stats[1]["crossover"] < -0.48


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "dynamics", "--state", "bogus", "--sector", "0")[0] == 2
    assert run_cli(capsys, "dynamics", "--state", "chi", "--sector", "-2")[0] == 2
    code, _, err = run_cli(capsys, "dynamics", "--state", "xi", "--sector", "5",
                           "--t-steps", "0")
    assert code == 2 and "t-steps" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--sector", "6", "--alpha", "inf"),
    ("spectrum", "--sector", "6", "--jz-over-j", "nan"),
    ("ground-scan", "--alpha", "nan", "--jz-points", "2"),
    ("return-prob", "--state", "chi", "--sector", "5", "--t-max", "nan"),
    ("dynamics", "--state", "xi", "--sector", "6", "--t-max", "inf"),
    ("degeneracy", "--tol-deg", "-1"),
    ("spectrum", "--sector", "6", "--tol-deg", "nan"),
    ("dynamics", "--state", "xi", "--sector", "6", "--tol-support=-1e-10"),
    ("schmidt", "--state", "config:63", "--tol-svd", "inf"),
])
def test_non_finite_and_negative_inputs_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, named", [
    (("return-prob", "--state", "zeta:nan,0,1,1", "--sector", "0", "--t-steps", "3"),
     "theta_out=nan"),
    (("return-prob", "--state", "zeta:inf,0,1,1", "--sector", "0", "--t-steps", "3"),
     "theta_out=inf"),
    (("dynamics", "--state", "zeta:0,nan,1,-inf", "--sector", "0", "--t-steps", "3"),
     "phi_out=nan, phi_in=-inf"),
    (("schmidt", "--state", "zeta:1,0,nan,0"), "theta_in=nan"),
])
def test_non_finite_zeta_angles_exit_two(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: zeta angles must be finite") and named in err


def test_argparse_level_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--sector", "5"])   # missing --state
    assert exc.value.code == 2
    capsys.readouterr()


def test_io_errors_exit_four(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run_cli(capsys, "geometry", "--output", str(target))
    assert code == 4
    assert "i/o failure" in err


def test_output_ignores_a_stale_temp_name(capsys, tmp_path):
    target = tmp_path / "out.csv"
    (tmp_path / "out.csv.tmp").mkdir()  # blocked the old fixed temp name
    code, _, _ = run_cli(capsys, "geometry", "--output", str(target))
    assert code == 0
    assert target.read_text().startswith("# config: ")
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_failed_output_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    target.mkdir()  # a directory cannot be replaced by the written file
    code, _, err = run_cli(capsys, "geometry", "--output", str(target))
    assert code == 4
    assert "i/o failure" in err
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(hexstar.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "hexstar.cli", "symmetry-tables"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# config: ")
