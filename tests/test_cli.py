"""Command-line behaviour: formats, determinism, exit codes."""

import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hexstar
from hexstar import cli, entanglement, spectrum
from hexstar.cli import main
from hexstar.dynamics import evolve_probabilities
from hexstar.hamiltonian import ModelParams, total_coupling
from hexstar.lattice import build_geometry


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
    # config:63 (the outer ring down) is fixed by all 12 site permutations;
    # its unfoldings have s2 = 0, so the product bound is the rounding
    # allowance, 64 ulps for each of the twelve unfoldings in quadrature
    rounding = math.sqrt(12) * 64 * np.finfo(float).eps
    assert stats == {"entangled": False, "min_rank": 1, "max_rank": 1,
                     "stabilizer_order": 12, "cut_orbits": 209,
                     "stabilizer_kept_margin": 0.0, "stabilizer_rejected_margin": None,
                     "product_margin": pytest.approx(
                         2 * rounding / (entanglement.SVD_TOL * (1 - 2 * rounding)))}


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


@pytest.mark.parametrize("jz", ["1", "-3"])
def test_a_tolerance_of_the_whole_spread_refuses_every_state(capsys, jz):
    # every level v has v - e0 <= spread; e0 + spread can round below the top level
    code, _, err = run_cli(capsys, "schmidt", "--state", "ground", "--jz-over-j", jz,
                           "--tol-deg", "1")
    assert code == 2
    assert "4096-fold" in err


def test_the_ground_vector_takes_no_labelled_solve(capsys):
    # the vector comes from its one irrep block, and the overlap scan's spin
    # weights from that block's Casimir
    misses = spectrum._diagonalize_sector.cache_info().misses
    code, _, _ = run_cli(capsys, "schmidt", "--state", "ground", "--alpha", "4.4",
                         "--jz-over-j", "0.5")
    assert code == 0
    assert spectrum._diagonalize_sector.cache_info().misses == misses
    spectrum.heisenberg_overlap_scan(np.linspace(-1.0, 3.0, 11), 4.4)
    assert spectrum._diagonalize_sector.cache_info().misses == misses


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
    # the verdict is the same; the count of solved blocks depends on the order
    # of the points, and the first point solves all 36 even blocks
    assert min(s.pop("block_solves") for s in stats) >= 36
    assert stats[1] == stats[0]
    assert -0.49 < stats[1]["crossover"] < -0.48


def test_ground_scan_reports_the_excess_at_both_bracket_ends(capsys):
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "ground-scan", "--jz-min", "-0.6", "--jz-max", "-0.4",
                               "--jz-points", "3", "--format", fmt)
        assert code == 0
        stats = parse_csv(out)[3] if fmt == "csv" else json.loads(out)["stats"]
        f_lo, f_hi = stats["crossover_excess"]
        # the excess at the closed-form crossover is the check value, at both ends
        w = total_coupling(build_geometry(), 6.0)
        assert -0.49 < stats["crossover"] < -0.48
        assert f_lo == f_hi
        assert abs(f_lo) <= spectrum.RESIDUAL_TOL * max(1.0, abs(stats["crossover"]) * w)


@pytest.mark.parametrize("argv, message", [
    (("--jz-max", "inf"), "--jz-max must be finite"),
    (("--jz-min", "nan"), "--jz-min must be finite"),
    (("--jz-min=-inf", "--jz-max", "0"), "--jz-min must be finite"),
    (("--jz-min=-1e308", "--jz-max", "1e308"), "--jz-max minus --jz-min overflows"),
])
@pytest.mark.filterwarnings("error")
def test_non_finite_jz_grid_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, "ground-scan", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_overflowing_jz_grid_prints_nothing_from_numpy():
    proc = subprocess.run([sys.executable, "-m", "hexstar", "ground-scan",
                           "--jz-min=-1e308", "--jz-max", "1e308"],
                          capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: --jz-max minus --jz-min overflows: "
                           "the Jz/J grid must be finite\n")


@pytest.mark.parametrize("argv, code, message", [
    (("ground-scan", "--jz-min=-1e307", "--jz-max", "1e307", "--jz-points", "3"), 3,
     "numerical failure: a block level is not finite at alpha=6, Jz/J=-1e+307"),
    (("analytic-m5", "--alpha", "198", "--t-steps", "2"), 3,
     "numerical failure: the kappa gap formula overflows a float at alpha=198"),
    (("analytic-m5", "--alpha", "646", "--t-steps", "2"), 3,
     "numerical failure: the kappa gap formula overflows a float at alpha=646"),
    (("analytic-m5", "--alpha", "647", "--t-steps", "2"), 3,
     "numerical failure: the kappa gap formula overflows a float at alpha=647"),
    (("analytic-m5", "--jz-over-j", "1e200", "--t-steps", "2"), 3,
     "numerical failure: the kappa gap formula overflows a float at alpha=6, Jz/J=1e+200"),
    (("return-prob", "--state", "config:0", "--sector", "6", "--t-steps", "2",
      "--t-max", "1e308"), 2, "error: times must be finite and small enough"),
    (("dynamics", "--state", "xi", "--sector", "5", "--t-steps", "3", "--t-max", "1e308"), 2,
     "error: times must be finite and small enough"),
    (("analytic-m5", "--t-steps", "2", "--t-max", "1e308"), 2,
     "error: times must be finite and small enough"),
    (("spectrum", "--sector", "0", "--jz-over-j", "1e308"), 3,
     "numerical failure: a block level is not finite at alpha=6, Jz/J=1e+308"),
    (("spectrum", "--sector", "5", "--jz-over-j", "1e308"), 3,
     "numerical failure: a block level is not finite at alpha=6, Jz/J=1e+308"),
    (("return-prob", "--state", "chi", "--sector", "5", "--jz-over-j", "1e308",
      "--t-steps", "3"), 3,
     "numerical failure: a block level is not finite at alpha=6, Jz/J=1e+308"),
], ids=["ground-scan", "analytic-198", "analytic-646", "analytic-647", "analytic-jz-1e200",
        "return-prob", "dynamics", "analytic-time", "spectrum-0-jz-1e308",
        "spectrum-5-jz-1e308", "return-prob-jz-1e308"])
@pytest.mark.filterwarnings("error")
def test_overflowing_inputs_fail_in_one_line(capsys, argv, code, message):
    for fmt in ("csv", "json"):
        exit_code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (exit_code, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("ground-scan", "--jz-min=-1e306", "--jz-max=-1e305", "--jz-points", "2"),
    ("ground-scan", "--jz-min", "1e305", "--jz-max", "1e306", "--jz-points", "2"),
    ("analytic-m5", "--alpha", "197", "--t-steps", "3"),
    ("return-prob", "--state", "config:0", "--sector", "6", "--t-steps", "2", "--t-max", "1e306"),
    ("dynamics", "--state", "xi", "--sector", "5", "--t-steps", "3", "--t-max", "1e306"),
    ("analytic-m5", "--t-steps", "2", "--t-max", "1e306"),
    ("analytic-m5", "--jz-over-j", "1e150", "--t-steps", "2"),
    ("spectrum", "--sector", "5", "--jz-over-j", "1e307"),
], ids=["ferro-1e306", "antiferro-1e306", "analytic-197", "return-prob", "dynamics",
        "analytic-time", "analytic-jz-1e150", "spectrum-5-jz-1e307"])
@pytest.mark.filterwarnings("error")
def test_inputs_just_inside_the_float_range_still_work(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert not re.search(r"\bnan\b", out, re.IGNORECASE)


@pytest.mark.parametrize("argv, largest", [
    (("dynamics", "--state", "xi", "--sector", "5", "--tol-support", "2"), "1"),
    (("dynamics", "--state", "chi", "--sector", "0", "--tol-support", "0.9"), "0.279197"),
    (("dynamics", "--state", "xi", "--sector", "6", "--tol-support", "1e308"), "1"),
])
def test_a_support_tolerance_no_cluster_clears_is_a_usage_error(capsys, argv, largest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: no cluster overlap exceeds support_tol={float(argv[-1]):g}; "
                   f"the largest is {largest}\n")


def test_a_singular_value_tolerance_just_below_one_still_counts_the_largest(capsys):
    code, out, err = run_cli(capsys, "schmidt", "--state", "ground", "--tol-svd", "0.999")
    assert (code, err) == (0, "")
    assert parse_csv(out)[3]["min_rank"] == 1


def test_an_eigensolver_failure_is_a_numerical_failure(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "diagonalize_sector", fail)
    code, out, err = run_cli(capsys, "spectrum", "--sector", "6")
    assert (code, out) == (3, "")
    assert err == "numerical failure: Eigenvalues did not converge\n"


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "dynamics", "--state", "bogus", "--sector", "0")[0] == 2
    assert run_cli(capsys, "schmidt", "--state", "groundstate")[0] == 2  # no alias of ground
    assert run_cli(capsys, "dynamics", "--state", "chi", "--sector", "-2")[0] == 2
    code, _, err = run_cli(capsys, "dynamics", "--state", "xi", "--sector", "5",
                           "--t-steps", "0")
    assert code == 2 and "t-steps" in err


def test_a_one_point_ground_scan_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "ground-scan", "--jz-points", "1")
    assert (code, out) == (2, "") and "--jz-points must be at least 2" in err


@pytest.mark.parametrize("argv", [
    ("return-prob", "--state", "xi", "--sector", "6", "--t-steps", str(10**15)),
    ("ground-scan", "--jz-points", str(10**15)),
])
def test_a_grid_too_large_to_allocate_is_a_usage_error(capsys, argv):
    # 10**15 points (7 PiB) is refused at once; a size that might be allocated is never tried
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


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
    ("degeneracy", "--tol-deg", "1e308"),
    ("schmidt", "--state", "ground", "--tol-svd", "2"),
    ("schmidt", "--state", "config:63", "--tol-svd", "1"),
    ("analytic-m5", "--alpha", "-2", "--t-steps", "3"),
    ("analytic-m5", "--jz-over-j", "inf", "--t-steps", "3"),
    ("analytic-m5", "--alpha", "nan", "--t-steps", "3"),
    ("analytic-m5", "--alpha", "inf", "--t-steps", "3"),
    ("analytic-m5", "--jz-over-j", "nan", "--t-steps", "3"),
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


def test_output_through_a_symlink_replaces_its_target(capsys, tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to("real.csv")
    out = run_cli(capsys, "ising")[1]
    assert run_cli(capsys, "ising", "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == "real.csv"
    assert real.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_output_to_a_fifo_is_written_in_place_with_the_stats_comment(capsys, tmp_path):
    argv = ("analytic-m5", "--jz-over-j", "-3", "--t-steps", "3")
    out = run_cli(capsys, *argv)[1]
    assert out.splitlines()[-1].startswith("# stats: ")
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    got = []
    # a daemon reader with a timeout: a writer that replaces the FIFO leaves it blocked
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_cli(capsys, *argv, "--output", str(fifo)) == (0, "", "")
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [out]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe.csv"]


@pytest.mark.parametrize("argv", [
    ("geometry",),
    ("symmetry-tables",),
    ("spectrum", "--sector", "5", "--jz-over-j", "-3"),
    ("degeneracy", "--jz-over-j", "-3"),
    ("ground-scan", "--jz-min", "-0.6", "--jz-max", "-0.4", "--jz-points", "3"),
    ("dynamics", "--state", "xi", "--sector", "5", "--jz-over-j", "-3", "--t-steps", "5"),
    ("return-prob", "--state", "chi", "--sector", "5", "--t-steps", "5"),
    ("schmidt", "--state", "config:63"),
    ("analytic-m5", "--jz-over-j", "-3", "--t-steps", "3"),
    ("ising", "--jz-sign", "1"),
], ids=lambda argv: argv[0])
def test_file_output_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines(keepends=True)
    config = json.loads(lines[0][len("# config: "):])
    stats = None
    if lines[-1].startswith("# stats: "):
        stats = json.loads(lines.pop()[len("# stats: "):])

    target = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_text() == "".join(lines)
    sidecar = tmp_path / "out.csv.stats.json"
    if stats is None:
        assert not sidecar.exists()
    else:
        assert json.loads(sidecar.read_text()) == {"config": config, "stats": stats}

    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == config
    assert doc.get("stats") == stats
    target = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--format", "json", "--output", str(target)) == (0, "", "")
    assert target.read_text() == out


@pytest.mark.parametrize("existing", [False, True])
def test_a_failing_row_stream_leaves_the_target_alone(tmp_path, existing):
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("old\n")

    def rows():
        yield ["1", "2"]
        raise RuntimeError("row failed")

    result = cli._Output(["a", "b"], rows(), dict)
    args = cli.build_parser().parse_args(["ising", "--output", str(target)])
    with pytest.raises(RuntimeError, match="row failed"):
        cli._emit(args, result)
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


@pytest.mark.parametrize("module", ["hexstar", "hexstar.cli"])
def test_module_entry_point(module):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(hexstar.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", module, "symmetry-tables"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# config: ")


def _child_env():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(hexstar.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "hexstar", "dynamics", "--state", "chi", "--sector", "0",
         "--t-steps", "101"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # about 2 MB of rows are still to come
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141  # 128 + SIGPIPE, as a shell reports it
    assert first.startswith(b"# config: ")
    assert err == b""


def test_import_loads_no_scipy():
    code = "import sys, hexstar; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_solving_commands_load_no_scipy():
    code = ("import contextlib, io, sys\n"
            "from hexstar.cli import main\n"
            "for line in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(line.split()) == 0, line\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    lines = ["spectrum --sector 5", "degeneracy", "ground-scan --jz-points 3",
             "dynamics --state xi --sector 5 --t-steps 11",
             "return-prob --state chi --sector 5 --t-steps 11", "schmidt --state ground"]
    proc = subprocess.run([sys.executable, "-c", code, *lines], capture_output=True,
                          text=True, timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_negative_sectors_are_only_mirrored(monkeypatch, capsys):
    calls = []
    for name in ("_certify", "_certificate", "irrep_blocks", "_partner_operators"):
        def spy(M, *rest, _name=name, _original=getattr(spectrum, name), **kw):
            calls.append((_name, M))
            return _original(M, *rest, **kw)
        monkeypatch.setattr(spectrum, name, spy)
    spectrum.full_spectrum(ModelParams(4.25, 1.0))  # used by no other test
    assert main(["spectrum", "--alpha", "4.25"]) == 0
    assert main(["dynamics", "--alpha", "4.25", "--state", "xi", "--sector", "-2",
                 "--t-steps", "11"]) == 0
    capsys.readouterr()
    assert {M for _, M in calls} == set(range(0, 7))


def _stdlib_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("geometry",),
    ("symmetry-tables",),
    ("spectrum",),
    ("degeneracy", "--jz-over-j", "-3"),
    ("ground-scan", "--jz-min", "-0.6", "--jz-max", "-0.4", "--jz-points", "3"),
    ("return-prob", "--state", "zeta:1,0.3,2,1.1", "--sector", "1", "--t-steps", "51"),
    ("schmidt", "--state", "config:63"),
    ("analytic-m5", "--jz-over-j", "-3", "--t-steps", "51"),
    ("ising", "--jz-sign", "1"),
], ids=lambda argv: argv[0])
def test_json_writer_matches_the_stdlib(argv):
    args = cli.build_parser().parse_args([*argv, "--format", "json"])
    out = args.func(args)
    doc = {"config": {"command": argv[0]}} | out.doc() | {"stats": out.stats}
    assert "".join(cli._json_chunks(doc)) == _stdlib_json(doc)


@pytest.mark.parametrize("argv", [
    ("--state", "chi", "--sector", "0", "--t-steps", "41"),
    ("--state", "zeta:1,0.3,2,1.1", "--sector", "1", "--t-steps", "41"),
    ("--state", "config:3930", "--sector", "-2", "--jz-over-j", "-3", "--t-steps", "41"),
], ids=["chi", "zeta", "config"])
def test_dynamics_cells_are_those_of_every_row(capsys, argv):
    """Gathered class cells equal formatting every configuration's own value."""
    args = cli.build_parser().parse_args(["dynamics", *argv])
    times = np.linspace(0.0, args.t_max, args.t_steps)
    traj = evolve_probabilities(cli._resolve_state(args), args.sector, cli._params(args), times)

    code, out, _ = run_cli(capsys, "dynamics", *argv)
    assert code == 0
    _, _, rows, stats = parse_csv(out)
    assert [row[1:] for row in rows] == [[format(p, ".17g") for p in dist]
                                         for dist in traj.probs.T.tolist()]
    assert stats["class_broadcast_bound"] == traj.broadcast_bound

    code, out, _ = run_cli(capsys, "dynamics", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    doc["probabilities"] = traj.probs.T.tolist()
    assert out == _stdlib_json(doc)


def test_json_rows_stream_one_time_point_per_chunk():
    args = cli.build_parser().parse_args(
        ["dynamics", "--state", "chi", "--sector", "0", "--t-steps", "201", "--format", "json"])
    out = args.func(args)
    chunks = list(cli._json_chunks(out.doc()))
    times = np.linspace(0.0, args.t_max, args.t_steps)
    traj = evolve_probabilities(cli._resolve_state(args), args.sector, cli._params(args), times)
    probs = traj.probs.T.tolist()

    start = chunks.index(',\n  "probabilities": ') + 1
    rows = chunks[start:start + len(probs)]
    # each row chunk opens with "[" or "," plus a newline and four spaces
    assert [json.loads(row[6:]) for row in rows] == probs
    assert chunks[start + len(probs)] == "\n  ]"
    assert max(map(len, chunks)) <= max(map(len, rows))
    assert "".join(chunks) == _stdlib_json(out.doc() | {"probabilities": probs})


_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
            | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
            | st.text())
_runs = (st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=30)
         | st.lists(st.integers(), min_size=2, max_size=30)
         | st.lists(st.text(max_size=8), min_size=2, max_size=30))
_docs = st.recursive(
    _scalars | _runs,
    lambda children: (st.lists(children) | st.tuples(children, children)
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers() | st.floats(allow_nan=False), children)),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(doc=st.dictionaries(st.text(), _docs, max_size=4))
@example(doc={"runs": [[0.0, -0.0, 0.0], [-0.0, 0.0], [5e-324, -5e-324, 1.0],
                       [math.nan, 1.0, math.inf, -math.inf], [True, 1, 1.0], []],
              "numbers": {1: "a", -0.0: "b", 2.5: {}, math.inf: None},
              "\u00e9\u4e2d": {"\u00ff": ["\ud83d\ude00", ""], "": {}}})
def test_json_writer_matches_the_stdlib_on_any_document(doc):
    assert "".join(cli._json_chunks(doc)) == _stdlib_json(doc)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True))),
       key=st.text())
def test_encoded_rows_match_the_stdlib(rows, key):
    encoded = cli._Encoded([[cli._json_float(x) for x in row] for row in rows])
    assert "".join(cli._json_chunks({key: encoded, "~": [rows]})) == \
        _stdlib_json({key: rows, "~": [rows]})


def test_json_writer_rejects_what_the_stdlib_rejects():
    for doc in ({"a": object()}, {"a": [1, {2j: 0}]}, {"a": {1: 0, "b": 0}}):
        with pytest.raises(TypeError):
            _stdlib_json(doc)
        with pytest.raises(TypeError):
            "".join(cli._json_chunks(doc))


def test_spectrum_of_all_sectors_builds_no_mirror(monkeypatch, capsys):
    calls = []
    original = spectrum._mirror_result
    monkeypatch.setattr(spectrum, "_mirror_result",
                        lambda res: calls.append(res.M) or original(res))
    assert main(["spectrum"]) == 0
    assert main(["spectrum", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == []
