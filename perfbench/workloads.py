"""The four workloads: generated inputs, the timed op, and its oracle check.

Every workload is a closed loop with one client and one op outstanding.
Ops come in rounds.  A round's structure (which calls, in which order, on
which sectors, with which output formats) depends only on the round
number, so every seed does the same sequence of work.  The seed draws the
values inside it: couplings, angles, configurations and time windows.  The
program receives only the generated argument values.

``run`` is the timed op and reaches hexstar only through ``Layers``, so a
traced run can put a span around each call.  ``check`` runs outside the
timed interval, calls hexstar directly, and returns the failed checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import defaultdict
from fractions import Fraction

import numpy as np

from hexstar import analytic, dynamics, hamiltonian, hilbert, lattice, spectrum, symmetry

import oracles as O

T_STEPS = 2001   # time grid of every quench and cli time series
SCAN_GRID = (-1.0, 0.0, 11)

# Margins are the outside view of each tolerance decision: a value past
# its bound is an oracle failure.  "max" margins must stay at or below the
# bound, "min" margins strictly above it.
MARGIN_BOUNDS = {
    "symmetry.label_margin": ("max", 1.0),
    "spectrum.residual_margin": ("max", 1.0),
    "spectrum.cluster_gap_margin": ("min", 1.0),
    "spectrum.cluster_spread_margin": ("max", 1.0),
    "dynamics.conservation_margin": ("max", 1.0),
}


class Tally:
    """What the checks measure across a run: worst margins, work counts, digests."""

    def __init__(self) -> None:
        self.margins: dict[str, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.outputs: list[dict] = []   # cli output files and their sha256

    def margin(self, name: str, value: float, failures: list[str]) -> None:
        kind, bound = MARGIN_BOUNDS[name]
        prev = self.margins.get(name)
        if kind == "max":
            self.margins[name] = value if prev is None else max(prev, value)
            past = value > bound
        else:
            self.margins[name] = value if prev is None else min(prev, value)
            past = value <= bound
        if past:
            failures.append(f"{name} = {value:.6g} is past its bound {bound}")


def census_failures(by_m, by_s) -> list[str]:
    """Irrep counts per sector and multiplets per spin against the frozen census."""
    fails = []
    for r in O.IRREP_DIMS:
        for k in range(7):
            want = O.IRREP_CENSUS[r][6 - k]
            if by_m[r][k] != want or by_m[r][-k] != want:
                fails.append(f"irrep count {r} M=+-{k} is off the census")
            if by_s[r][k] != O.MULTIPLET_CENSUS[r][6 - k]:
                fails.append(f"multiplet count {r} S={k} is off the census")
    return fails


def _params(name: str) -> hamiltonian.ModelParams:
    return {"HEISENBERG": hamiltonian.HEISENBERG, "XXZ_FERRO": hamiltonian.XXZ_FERRO}[name]


def _zeta(rng, complex_phase: bool) -> str:
    """A two-ring product state with drawn polar (and optionally azimuthal) angles."""
    angles = []
    for _ in range(2):
        theta = rng.uniform(0.9, 2.2)
        phi = rng.uniform(0.3, 2.8) if complex_phase else 0.0
        angles += [f"{theta:.6f}", f"{phi:.6f}"]
    return "zeta:" + ",".join(angles)


def _config(rng, base: int) -> str:
    """A rotation of the configuration ``base`` by a drawn multiple of 60 degrees.

    Rotations map the star onto itself, so every draw has the same
    spectral support and costs the same; configurations of one sector
    differ by a factor of two in cost otherwise.
    """
    k = rng.randrange(6)
    f = 0
    for site in range(12):
        if base >> site & 1:
            ring, pos = divmod(site, 6)
            f |= 1 << (6 * ring + (pos + k) % 6)
    return f"config:{f}"


def _t_max(rng) -> str:
    return f"{rng.uniform(0.5, 2.0):.6f}"


def _state(spec: str) -> hilbert.StateVector:
    return hilbert.build_initial_state(hilbert.parse_state_spec(spec))


def _sector_margins(res, matrix: np.ndarray, tally: Tally, failures: list[str]) -> None:
    """Residual, labelling and clustering margins of one labelled sector spectrum."""
    values, vectors = res.eigenvalues, res.eigenvectors
    spread = float(values[-1] - values[0])
    residual = float(np.abs(matrix @ vectors - vectors * values).max())
    tally.margin("spectrum.residual_margin",
                 residual / (spectrum.RESIDUAL_TOL * max(spread, 1.0)), failures)

    starts = np.array([c.indices[0] for c in res.clusters])
    worst = 0.0
    for w in symmetry.irrep_weights(vectors, res.M).values():
        sums = np.add.reduceat(w, starts)
        worst = max(worst, float(np.abs(sums - np.rint(sums)).max()))
    tally.margin("symmetry.label_margin", worst / O.LABEL_TOL, failures)

    if res.deg_tol > 0.0:
        firsts = values[[c.indices[0] for c in res.clusters]]
        lasts = values[[c.indices[-1] for c in res.clusters]]
        tally.margin("spectrum.cluster_spread_margin",
                     float((lasts - firsts).max()) / res.deg_tol, failures)
        if len(res.clusters) > 1:
            tally.margin("spectrum.cluster_gap_margin",
                         float((firsts[1:] - lasts[:-1]).min()) / res.deg_tol, failures)


class Classify:
    """Full classified spectra at fresh coupling points.

    Dense eigh, irrep and spin labelling and rational assembly do the work;
    dynamics, entanglement and cli do none.
    """

    name = "classify"
    canonical_spectra = False

    def round(self, rng, r: int) -> list[dict]:
        ops = [
            # Jz/J exactly 1 turns on spin labelling; alpha 6 there would
            # repeat the canonical Heisenberg point.
            {"alpha": float(rng.choice((2, 4, 8))), "jz": 1.0},
            {"alpha": float(rng.choice((2, 4, 6, 8))), "jz": round(rng.uniform(-3.0, 3.0), 6)},
        ]
        if r == 0:   # the canonical points, once per run and cold
            ops = [{"alpha": 6.0, "jz": 1.0}, {"alpha": 6.0, "jz": -3.0}] + ops
        return ops

    def run(self, L, inp: dict):
        p = L.hamiltonian.ModelParams(alpha=inp["alpha"], jz_over_j=inp["jz"])
        floats = [L.hamiltonian.build_sector_hamiltonian(M, p, exact=False) for M in range(7)]
        spectra = L.spectrum.full_spectrum(p)
        hist = L.spectrum.degeneracy_histogram(p)
        exact = [L.hamiltonian.build_sector_hamiltonian(M, p, exact=True) for M in range(7)]
        return floats, spectra, hist, exact

    def check(self, inp: dict, out, tally: Tally) -> list[str]:
        floats, spectra, hist, exact = out
        fails: list[str] = []
        if sorted(spectra) != list(range(-6, 7)):
            return [f"spectra for sectors {sorted(spectra)}"]

        states = 0
        for M, res in spectra.items():
            slots = dict.fromkeys(O.IRREP_DIMS, 0)
            for c in res.clusters:
                states += c.size
                for r, n in (c.irrep_slots or {}).items():
                    slots[r] += n
            for r, dim in O.IRREP_DIMS.items():
                want = dim * O.IRREP_CENSUS[r][6 - abs(M)]
                if slots[r] != want:
                    fails.append(f"M={M} {r}: {slots[r]} states, census says {want}")
        if states != O.N_STATES:
            fails.append(f"clusters hold {states} states")

        if inp["jz"] == 1.0:   # spin-S clusters in sector M = S give the multiplets
            found = {r: [0] * 7 for r in O.IRREP_DIMS}
            for S in range(7):
                for c in spectra[S].clusters:
                    if c.spin == S:
                        for r, n in c.irrep_slots.items():
                            found[r][S] += n
            for r, dim in O.IRREP_DIMS.items():
                for S in range(7):
                    if found[r][S] != dim * O.MULTIPLET_CENSUS[r][6 - S]:
                        fails.append(f"S={S} {r}: {found[r][S]} states in spin-S clusters")

        canonical = {(6.0, 1.0): O.HISTOGRAM_HEISENBERG, (6.0, -3.0): O.HISTOGRAM_XXZ_FERRO}
        want_hist = canonical.get((inp["alpha"], inp["jz"]))
        if want_hist is not None and hist.counts != want_hist:
            fails.append(f"histogram {hist.counts} is not the frozen one")
        if hist.total_states != O.N_STATES:
            fails.append(f"histogram holds {hist.total_states} states")
        tally.counts["spectrum.ambiguous_gaps"] += len(hist.ambiguous_gaps)

        for M in range(7):
            matrix = floats[M].matrix
            entries = exact[M].exact
            dense = np.zeros_like(matrix)
            rows, cols = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
            dense[rows, cols] = np.fromiter(map(float, entries.values()), float, len(entries))
            dev = float(np.abs(dense - matrix).max())
            if dev > O.EXACT_FLOAT_REL * max(1.0, float(np.abs(matrix).max())):
                fails.append(f"M={M}: exact entries differ from the float matrix by {dev:.3g}")
            _sector_margins(spectra[M], matrix, tally, fails)

        # The ring-averaged M=5 block against the closed form.
        basis = hilbert.sector_basis(5)
        rings = ([int(basis.index_of[1 << k]) for k in range(6)],
                 [int(basis.index_of[1 << (6 + k)]) for k in range(6)])
        entries = exact[5].exact
        block = tuple(
            tuple(sum(entries.get((i, j), Fraction(0)) for i in rings[a] for j in rings[b]) / 6
                  for b in (0, 1))
            for a in (0, 1))
        closed = analytic.m5_block(inp["alpha"], inp["jz"]).exact
        if block != closed:
            fails.append(f"ring-averaged M=5 block {block} is not the closed form {closed}")
        return fails


class Scan:
    """The ground-state crossover along Jz/J in [-1, 0] at fresh interaction ranges.

    Eigenvalue-only solves at about 200 cold parameter points: many cheap
    assemblies instead of a few labelled decompositions.
    """

    name = "scan"
    canonical_spectra = False

    def round(self, rng, r: int) -> list[dict]:
        first = 6.0 if r == 0 else round(rng.uniform(3.0, 8.0), 4)
        return [{"alpha": first}, {"alpha": round(rng.uniform(3.0, 8.0), 4)}]

    def run(self, L, inp: dict):
        return L.spectrum.ground_state_scan(inp["alpha"], np.linspace(*SCAN_GRID))

    def check(self, inp: dict, scan, tally: Tally) -> list[str]:
        fails: list[str] = []
        if len(scan.points) != SCAN_GRID[2]:
            fails.append(f"{len(scan.points)} scan points")
        if scan.crossover is None or scan.crossover_bracket is None:
            return fails + ["no crossover was refined"]
        lo, hi = scan.crossover_bracket
        if not 0.0 <= hi - lo <= O.REFINE_TOL:
            fails.append(f"crossover bracket {lo}..{hi} wider than {O.REFINE_TOL}")
        w = hamiltonian.total_coupling(lattice.build_geometry(), inp["alpha"])
        for p in scan.points:
            if p.jz_over_j < scan.crossover:
                if p.degeneracy != 2:
                    fails.append(f"ferro point {p.jz_over_j} is {p.degeneracy}-fold")
                if abs(p.energy - p.jz_over_j * w) > O.ENERGY_TOL:
                    fails.append(f"ferro point {p.jz_over_j} energy {p.energy} != Jz*{w}")
            elif p.jz_over_j > scan.crossover and p.sectors != (0,):
                fails.append(f"antiferro point {p.jz_over_j} in sectors {p.sectors}")
        lo6, hi6 = O.CROSSOVER_ALPHA6
        if inp["alpha"] == 6.0 and not lo6 < scan.crossover < hi6:
            fails.append(f"alpha 6 crossover {scan.crossover} outside ({lo6}, {hi6})")
        return fails


class Quench:
    """Dynamics and the Schmidt scan over fresh product states.

    The mode sum, the equiprobability classes and the 2047-cut Schmidt scan
    do the work; hamiltonian and spectrum do none once a sector's spectrum
    is cached.
    """

    name = "quench"
    canonical_spectra = True

    def round(self, rng, r: int) -> list[dict]:
        # Two passes over the same sectors: the first use of a sector in a
        # process re-diagonalizes it, the second finds it cached.
        ops = []
        for _ in range(2):
            ops += [
                {"state": "xi", "sector": 0, "params": "XXZ_FERRO"},
                {"state": "chi", "sector": 0, "params": "HEISENBERG"},
                {"state": _zeta(rng, True), "sector": 1, "params": "XXZ_FERRO"},
                {"state": _zeta(rng, False), "sector": 2, "params": "HEISENBERG"},
                {"state": _config(rng, 3930), "sector": -2, "params": "XXZ_FERRO"},
                {"state": _zeta(rng, True), "sector": 0, "params": "HEISENBERG"},
            ]
        for op in ops:
            op["t_max"] = float(_t_max(rng))
        return ops

    def run(self, L, inp: dict):
        p = _params(inp["params"])
        M = inp["sector"]
        state = L.hilbert.build_initial_state(L.hilbert.parse_state_spec(inp["state"]))
        times = np.linspace(0.0, inp["t_max"], T_STEPS)
        traj = L.dynamics.evolve_probabilities(state, M, p, times)
        L.dynamics.collapse_metrics(traj)
        L.dynamics.regime_classifier(traj)
        ret = L.dynamics.return_probability(state, M, p, times)
        report = L.entanglement.is_entangled(state)
        return traj, ret, report

    def check(self, inp: dict, out, tally: Tally) -> list[str]:
        traj, ret, report = out
        fails: list[str] = []
        drift = float(np.abs(traj.probs.sum(axis=0) - 1.0).max())
        tally.margin("dynamics.conservation_margin", drift / O.PROB_TOL, fails)
        for members in traj.classes:
            block = traj.probs[members]
            if float(np.abs(block - block[0]).max()) > O.PROB_TOL:
                fails.append(f"class {members[:4].tolist()}... has unequal trajectories")
                break
        if abs(float(ret[0]) - 1.0) > O.PROB_TOL:
            fails.append(f"return probability {ret[0]} at t=0")
        if report.entangled or report.max_rank != 1:
            fails.append(f"product state reported entangled (max rank {report.max_rank})")
        fails += _support_oracle(inp["state"], inp["params"], inp["sector"],
                                 traj.support.dim, traj.num_classes,
                                 traj.freq.formula, traj.freq.distinct)
        tally.counts["dynamics.support_dim"] += traj.support.dim
        tally.counts["dynamics.classes"] += traj.num_classes
        tally.counts["entanglement.cuts"] += len(report.ranks)
        return fails


def _support_oracle(spec: str, params: str, M: int, dim: int, classes: int,
                    formula: int, distinct: int) -> list[str]:
    """Frozen support dimensions and frequency counts of xi (XXZ) and chi (Heisenberg)."""
    frozen = {("xi", "XXZ_FERRO"): (O.SUPPORT_XI_XXZ, O.FREQUENCIES_XI_XXZ_M0),
              ("chi", "HEISENBERG"): (O.SUPPORT_CHI_HEISENBERG,
                                      O.FREQUENCIES_CHI_HEISENBERG_M0)}.get((spec, params))
    if frozen is None:
        return []
    supports, freq0 = frozen
    d0 = supports[6 - abs(M)]
    fails = []
    if dim != d0 or classes != d0:
        fails.append(f"{spec} M={M}: support {dim}, classes {classes}, frozen {d0}")
    if M == 0 and not formula == distinct == freq0:
        fails.append(f"{spec} M=0: frequencies {formula}/{distinct}, frozen {freq0}")
    return fails


class Cli:
    """README command lines through ``hexstar.cli.main`` with file output.

    Output formatting and file writing do work here that no library
    workload sees: one dynamics call writes 2001 x 924 floats at 17 digits.
    """

    name = "cli"
    canonical_spectra = True

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def round(self, rng, r: int) -> list[dict]:
        fmt = ("csv", "json")[r % 2]
        other = ("json", "csv")[r % 2]
        kind = ("zeta", "xi", "chi", "config")[r % 4]
        schmidt_state = {"zeta": _zeta(rng, r % 8 == 0), "xi": "xi", "chi": "chi",
                         "config": f"config:{rng.randrange(O.N_STATES)}"}[kind]
        argvs = [
            ["dynamics", "--state", ("xi", "chi")[r % 2], "--sector", "0",
             "--jz-over-j", ("-3", "1")[r % 2], "--t-max", _t_max(rng), "--format", "csv"],
            ["dynamics", "--state", _zeta(rng, True), "--sector", "3",
             "--jz-over-j", ("1", "-3")[r % 2], "--t-max", _t_max(rng), "--format", "json"],
            ["return-prob", "--state", _zeta(rng, r % 2 == 1), "--sector", str((1, 2, 0)[r % 3]),
             "--jz-over-j", ("-3", "1")[r % 2], "--t-max", _t_max(rng), "--format", fmt],
            ["spectrum", "--jz-over-j", ("1", "-3")[r % 2], "--format", other],
            ["degeneracy", "--jz-over-j", ("-3", "1")[r % 2], "--format", fmt],
            ["schmidt", "--state", schmidt_state, "--format", other],
            ["analytic-m5", "--alpha", str(rng.choice((2, 4, 6, 8))),
             "--jz-over-j", f"{rng.uniform(-3.0, 3.0):.6f}",
             "--initial", rng.choice(("outer", "symmetric")), "--t-max", _t_max(rng),
             "--format", fmt],
            ["geometry", "--format", other],
            ["symmetry-tables", "--format", fmt],
            ["ising", "--jz-sign", rng.choice(("1", "-1")), "--format", other],
        ]
        return [{"argv": a} for a in argvs]

    def _target(self) -> str:
        return os.path.join(self.workdir, "out")

    def run(self, L, inp: dict):
        return L.cli.main(inp["argv"] + ["--output", self._target()])

    def check(self, inp: dict, rc: int, tally: Tally) -> list[str]:
        argv = inp["argv"]
        target = self._target()
        paths = [p for p in (target, target + ".stats.json") if os.path.exists(p)]
        digests = {}
        for path in paths:
            with open(path, "rb") as f:
                digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
            tally.counts["cli.bytes_out"] += os.path.getsize(path)
        tally.outputs.append({"argv": argv, "rc": rc, "sha256": digests})
        try:
            if rc != 0:
                return [f"exit code {rc}"]
            if target not in paths:
                return ["no output file"]
            return _check_cli_output(argv, target)
        finally:
            for path in paths:
                os.remove(path)


def _opt(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _read_csv(path: str, keep_rows: bool = True):
    """(header, rows or row count, stats) of a CSV output and its sidecar."""
    with open(path) as f:
        if not f.readline().startswith("# config: "):
            raise ValueError("CSV output lacks its config line")
        header = f.readline().rstrip("\n").split(",")
        if keep_rows:
            rows = [line.rstrip("\n").split(",") for line in f]
        else:
            rows = sum(1 for _ in f)
    stats = None
    if os.path.exists(path + ".stats.json"):
        with open(path + ".stats.json") as f:
            stats = json.load(f)["stats"]
    return header, rows, stats


def _check_cli_output(argv: list[str], path: str) -> list[str]:
    command, fmt = argv[0], _opt(argv, "--format")
    alpha = float(_opt(argv, "--alpha", "6"))
    jz = float(_opt(argv, "--jz-over-j", "1"))
    p = hamiltonian.ModelParams(alpha=alpha, jz_over_j=jz)
    fails: list[str] = []
    doc = None
    if fmt == "json":
        with open(path) as f:
            doc = json.load(f)

    if command == "dynamics":
        spec, M = _opt(argv, "--state"), int(_opt(argv, "--sector"))
        dim = math.comb(12, 6 - M)
        if doc is None:
            header, n_rows, stats = _read_csv(path, keep_rows=False)
            shape = (n_rows, len(header) - 1)
        else:
            stats = doc["stats"]
            shape = (len(doc["probabilities"]), len(doc["configs"]))
        if shape != (T_STEPS, dim):
            fails.append(f"dynamics output is {shape}, expected {(T_STEPS, dim)}")
        state = _state(spec)
        support = dynamics.spectral_support(state, M, p)
        _, weight = hilbert.project_sector(state, M)
        if stats["support_dim"] != support.dim:
            fails.append(f"support_dim {stats['support_dim']}, library {support.dim}")
        if abs(stats["sector_weight"] - weight) > O.PROB_TOL:
            fails.append(f"sector_weight {stats['sector_weight']}, library {weight}")
        params = {1.0: "HEISENBERG", -3.0: "XXZ_FERRO"}[jz]
        fails += _support_oracle(spec, params, M, stats["support_dim"],
                                 stats["num_trajectory_classes"],
                                 stats["num_frequencies_formula"],
                                 stats["num_frequencies_distinct"])
    elif command == "return-prob":
        values = (doc["p_return"] if doc is not None
                  else [float(r[1]) for r in _read_csv(path)[1]])
        times = np.linspace(0.0, float(_opt(argv, "--t-max")), T_STEPS)
        library = dynamics.return_probability(_state(_opt(argv, "--state")),
                                              int(_opt(argv, "--sector")), p, times)
        if len(values) != T_STEPS:
            fails.append(f"{len(values)} return-probability rows")
        elif float(np.abs(np.array(values) - library).max()) > O.PROB_TOL:
            fails.append("return probabilities differ from the library")
        elif abs(values[0] - 1.0) > O.PROB_TOL:
            fails.append(f"return probability {values[0]} at t=0")
    elif command == "spectrum":
        if doc is not None:
            energies = {s["sector"]: s["eigenvalues"] for s in doc["sectors"]}
        else:
            energies = defaultdict(list)
            for row in _read_csv(path)[1]:
                energies[int(row[0])].append(float(row[2]))
        if sum(len(v) for v in energies.values()) != O.N_STATES:
            fails.append("spectrum output does not list 4096 states")
        for M, values in energies.items():
            library = spectrum.diagonalize_sector(M, p, hamiltonian.DEG_TOL_RELATIVE)
            if list(values) != library.eigenvalues.tolist():
                fails.append(f"sector {M} eigenvalues differ from the library")
    elif command == "degeneracy":
        if doc is not None:
            counts = {int(d): n for d, n in doc["histogram"].items()}
        else:
            counts = {int(d): int(n) for d, n in _read_csv(path)[1]}
        frozen = {1.0: O.HISTOGRAM_HEISENBERG, -3.0: O.HISTOGRAM_XXZ_FERRO}[jz]
        if counts != frozen:
            fails.append(f"histogram {counts} is not the frozen one")
    elif command == "schmidt":
        if doc is not None:
            n_rows, stats = len(doc["ranks"]), doc["stats"]
        else:
            _, n_rows, stats = _read_csv(path, keep_rows=False)
        if n_rows != O.SCHMIDT_CUTS:
            fails.append(f"{n_rows} Schmidt cuts")
        if stats["entangled"] or stats["max_rank"] != 1 or stats["min_rank"] != 1:
            fails.append(f"product state reported with ranks {stats}")
    elif command == "analytic-m5":
        if doc is not None:
            n_rows, stats = len(doc["p_outer"]), doc["stats"]
        else:
            _, n_rows, stats = _read_csv(path, keep_rows=False)
        block = analytic.m5_block(alpha, jz)
        if n_rows != T_STEPS:
            fails.append(f"{n_rows} analytic-m5 rows")
        if stats["exact"] != [[str(e) for e in row] for row in block.exact]:
            fails.append("exact M=5 block differs from the closed form")
        if stats["delta_e"] != block.delta_e or stats["engine_max_dev"] > O.ENERGY_TOL:
            fails.append(f"gap {stats['delta_e']} or engine deviation "
                         f"{stats['engine_max_dev']} off the closed form")
    elif command == "geometry":
        n_rows = (len(doc["sites"]) + len(doc["elements"]) if doc is not None
                  else len(_read_csv(path)[1]))
        if n_rows != O.GEOMETRY_ROWS:
            fails.append(f"{n_rows} geometry rows")
    elif command == "symmetry-tables":
        if doc is not None:
            by_m = {r: {int(m): n for m, n in v.items()} for r, v in doc["irreps_by_m"].items()}
            by_s = {r: {int(s): n for s, n in v.items()}
                    for r, v in doc["multiplets_by_s"].items()}
        else:
            header, rows, _ = _read_csv(path)
            col = {name: k for k, name in enumerate(header)}
            by_m, by_s = defaultdict(dict), defaultdict(dict)
            for row in rows:
                table = by_m if row[0] == "irreps_by_m" else by_s
                for r in O.IRREP_DIMS:
                    table[r][int(row[1])] = int(row[col[r]].removeprefix("2x"))
        fails += census_failures(by_m, by_s)
    elif command == "ising":
        sign = int(_opt(argv, "--jz-sign"))
        if doc is not None:
            energy, degeneracy = doc["ground_energy"], doc["degeneracy"]
        else:
            _, energy, degeneracy = (int(x) for x in _read_csv(path)[1][0])
        if degeneracy != O.ISING_DEGENERACY[sign]:
            fails.append(f"Ising degeneracy {degeneracy} for sign {sign}")
        if sign == 1 and energy != O.ISING_GROUND_ENERGY_FERRO_SIGN:
            fails.append(f"Ising ground energy {energy}")
    else:
        fails.append(f"no check for command {command}")
    return fails


def make(name: str, workdir: str):
    """The workload called ``name``; ``workdir`` receives cli output files."""
    if name == "cli":
        return Cli(workdir)
    return {"classify": Classify, "scan": Scan, "quench": Quench}[name]()
