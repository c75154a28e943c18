"""End-to-end acceptance checks.

Each test covers one headline claim of the analysis at its stated
tolerance and prints a single PASS line with the measured numbers, so a
full run doubles as a reproduction report.  Frozen integers and closed
forms are the oracles; nothing here is read back from the engine.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hexstar.analytic import gap, m5_block
from hexstar.dynamics import (
    collapse_metrics,
    evolve_probabilities,
    regime_classifier,
    spectral_support,
)
from hexstar.entanglement import is_entangled
from hexstar.hamiltonian import (
    HEISENBERG,
    XXZ_FERRO,
    ModelParams,
    build_sector_hamiltonian,
    total_coupling,
)
from hexstar.hilbert import (
    StateVector,
    build_initial_state,
    parse_state_spec,
    sector_basis,
)
from hexstar.lattice import IRREP_DIMS, IRREP_LABELS
from hexstar.spectrum import (
    degeneracy_histogram,
    diagonalize_sector,
    ground_state_scan,
    heisenberg_overlap_scan,
    ising_degeneracy_check,
)
from hexstar.symmetry import irrep_counts, multiplet_counts
from reference import act_permutation, compose, inverse

IRREP_CENSUS = {
    "A1g": (0, 0, 3, 14, 35, 56, 70),
    "A2g": (1, 2, 9, 24, 50, 76, 90),
    "E2g": (0, 2, 12, 36, 85, 132, 156),
    "B1u": (0, 1, 5, 19, 40, 66, 76),
    "B2u": (0, 1, 5, 19, 40, 66, 76),
    "E1u": (0, 2, 10, 36, 80, 132, 150),
}
MULTIPLET_CENSUS = {
    "A1g": (0, 0, 3, 11, 21, 21, 14),
    "A2g": (1, 1, 7, 15, 26, 26, 14),
    "E2g": (0, 2, 10, 24, 49, 47, 24),
    "B1u": (0, 1, 4, 14, 21, 26, 10),
    "B2u": (0, 1, 4, 14, 21, 26, 10),
    "E1u": (0, 2, 8, 26, 44, 52, 18),
}
SUPPORT_XI_XXZ = (1, 2, 9, 24, 50, 76, 48)
SUPPORT_CHI_HEISENBERG = (1, 2, 9, 24, 50, 76, 90)


def _passed(k: int, text: str) -> None:
    print(f"criterion {k:02d} PASS  {text}")


@pytest.fixture(scope="module")
def xi():
    return build_initial_state(parse_state_spec("xi"))


@pytest.fixture(scope="module")
def chi():
    return build_initial_state(parse_state_spec("chi"))


def test_01_irrep_census():
    start = time.perf_counter()
    table = irrep_counts()
    for irrep, expected in IRREP_CENSUS.items():
        for M, n in zip(range(6, -1, -1), expected):
            assert table.counts[irrep][M] == n, (irrep, M)
            assert table.counts[irrep][-M] == n, (irrep, -M)
    for M in range(-6, 7):
        assert table.dimension_check(M) == math.comb(12, 6 - M)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"91 irrep-count cells and 13 sector totals exact ({elapsed:.2f}s)")


def test_02_degeneracy_histograms(xxz_spectra, heisenberg_spectra):
    aniso = degeneracy_histogram(XXZ_FERRO)
    assert aniso.counts == {1: 312, 2: 838, 4: 527}
    assert aniso.total_states == 4096 and aniso.ambiguous_gaps == ()
    iso = degeneracy_histogram(HEISENBERG)
    assert iso.counts == {
        1: 48, 2: 42, 3: 99, 5: 89, 6: 99, 7: 54, 9: 18,
        10: 93, 11: 3, 13: 1, 14: 50, 18: 18, 22: 4,
    }
    assert iso.total_states == 4096 and iso.ambiguous_gaps == ()
    _passed(2, "eigenvalue multiplicity histograms exact for both models")


def test_03_multiplet_census(heisenberg_spectra):
    table = multiplet_counts().multiplets
    for irrep, expected in MULTIPLET_CENSUS.items():
        for S, n in zip(range(6, -1, -1), expected):
            assert table[irrep][S] == n, (irrep, S)

    # independent route: count spin-S clusters sitting in sector M = S
    states = {r: dict.fromkeys(range(7), 0) for r in IRREP_LABELS}
    for S in range(0, 7):
        for cluster in heisenberg_spectra[S].clusters:
            if cluster.spin != S:
                continue
            for r, n in cluster.irrep_slots.items():
                states[r][S] += n
    for r in IRREP_LABELS:
        for S in range(7):
            assert states[r][S] % IRREP_DIMS[r] == 0
            assert states[r][S] // IRREP_DIMS[r] == table[r][S], (r, S)
    _passed(3, "42 multiplet counts exact, difference rule and spin labels agree")


def test_04_closed_form_block():
    # rational assembly straight from the exact sector matrix
    ham = build_sector_hamiltonian(5, XXZ_FERRO, exact=True)
    basis = sector_basis(5)
    rings = ([basis.index_of[1 << k] for k in range(6)],
             [basis.index_of[1 << (6 + k)] for k in range(6)])

    def entry(i, j):
        return ham.exact.get((i, j)) or ham.exact.get((j, i)) or Fraction(0)

    assembled = [
        [sum(entry(i, j) for i in rings[a] for j in rings[b]) / 6 for b in (0, 1)]
        for a in (0, 1)
    ]
    printed = [
        [Fraction(-173351219, 4000752), Fraction(22359, 5488)],
        [Fraction(22359, 5488), Fraction(-12105047, 444528)],
    ]
    assert assembled == printed  # exact equality, no tolerance

    evals = np.linalg.eigvalsh(m5_block(6.0, -3.0).matrix)
    closed = 5.0 * math.sqrt(52108288731277) / 2000376
    assert evals[1] - evals[0] == pytest.approx(closed, rel=1e-12)
    iso = gap(6.0, 1.0)
    assert iso == pytest.approx(22359 / 2744, rel=1e-12)
    _passed(4, f"two-level block exact; gaps {closed:.6f} and {iso:.6f} reproduced")


def test_05_support_statistics(xi, chi, xxz_spectra, heisenberg_spectra):
    for M, d0 in zip(range(6, -1, -1), SUPPORT_XI_XXZ):
        assert sector_basis(M).dim == math.comb(12, 6 - M)
        support = spectral_support(xi, M, XXZ_FERRO)
        assert support.dim == d0, M
    for M, d0 in zip(range(6, -1, -1), SUPPORT_CHI_HEISENBERG):
        support = spectral_support(chi, M, HEISENBERG)
        assert support.dim == d0, M

    # as many distinct trajectories as contributing eigenspaces, every sector
    short = np.linspace(0.0, 0.1, 3)
    for state, params, supports in (
        (xi, XXZ_FERRO, SUPPORT_XI_XXZ),
        (chi, HEISENBERG, SUPPORT_CHI_HEISENBERG),
    ):
        for M, d0 in zip(range(6, -1, -1), supports):
            traj = evolve_probabilities(state, M, params, short)
            assert traj.num_classes == d0, (M, params)

    balanced_xi = evolve_probabilities(xi, 0, XXZ_FERRO, short)
    assert balanced_xi.freq.formula == balanced_xi.freq.distinct == 1128
    balanced_chi = evolve_probabilities(chi, 0, HEISENBERG, short)
    assert balanced_chi.freq.formula == balanced_chi.freq.distinct == 4005
    _passed(5, "support dimensions, trajectory counts, and 1128/4005 frequencies")


def test_06_regime_oracles(xi, chi, unit_time_grid):
    for M in range(-6, 7):
        traj = evolve_probabilities(xi, M, HEISENBERG, unit_time_grid)
        flat = np.abs(traj.probs - 1.0 / sector_basis(M).dim).max()
        assert flat < 1e-10, M

    one_flip = evolve_probabilities(xi, 5, XXZ_FERRO, unit_time_grid)
    assert one_flip.freq.distinct == 1
    e = one_flip.support.energies
    aniso_gap = gap(6.0, -3.0)
    assert abs(e.max() - e.min()) == pytest.approx(aniso_gap, rel=1e-10)
    assert regime_classifier(one_flip) == "sinusoidal"

    rabi = evolve_probabilities(chi, 5, HEISENBERG, unit_time_grid)
    iso_gap = gap(6.0, 1.0)
    outer = np.cos(math.pi * iso_gap * unit_time_grid) ** 2 / 6.0
    inner = np.sin(math.pi * iso_gap * unit_time_grid) ** 2 / 6.0
    basis = sector_basis(5)
    for k in range(6):
        assert np.abs(rabi.probs[basis.index_of[1 << k]] - outer).max() < 1e-10
        assert np.abs(rabi.probs[basis.index_of[1 << (6 + k)]] - inner).max() < 1e-10
    _passed(6, f"stationary, sinusoidal at {aniso_gap:.4f}, and Rabi regimes exact")


def test_07_collapse(chi, unit_time_grid):
    traj = evolve_probabilities(chi, 0, HEISENBERG, unit_time_grid)
    metrics = collapse_metrics(traj)
    basis = sector_basis(0)
    assert basis.configs[metrics.initial_outcome] == 63
    assert metrics.initial_prob == pytest.approx(1.0, abs=1e-10)
    assert 0.02 < metrics.collapse_time < 0.08
    assert metrics.dominant == (0, 923)
    rest = np.delete(traj.probs, (0, 923), axis=0)
    assert rest.max() <= 0.04
    assert regime_classifier(traj) == "collapse"
    _passed(7, f"collapse at t={metrics.collapse_time:.4f}, "
               f"largest bystander {rest.max():.4f}")


def test_08_bounded_wandering(xi, unit_time_grid):
    traj = evolve_probabilities(xi, 0, XXZ_FERRO, unit_time_grid)
    peak = traj.probs.max()
    assert peak <= 0.065
    assert regime_classifier(traj) == "aperiodic"
    _passed(8, f"no outcome above {peak:.4f} across the window")


def test_09_ground_state(geometry):
    scan = ground_state_scan(6.0, np.linspace(-1.0, 0.0, 11))
    assert scan.crossover is not None and -0.49 < scan.crossover < -0.48

    ferro = [p for p in scan.points if p.jz_over_j < scan.crossover]
    assert all(p.degeneracy == 2 for p in ferro)
    slope, intercept = np.polyfit([p.jz_over_j for p in ferro],
                                  [p.energy for p in ferro], 1)
    residual = max(
        abs(p.energy - (slope * p.jz_over_j + intercept)) for p in ferro
    )
    assert residual < 1e-10
    assert slope == pytest.approx(total_coupling(geometry, 6.0), rel=1e-10)

    anti = [p for p in scan.points if p.jz_over_j > scan.crossover]
    assert all(p.degeneracy == 1 and p.sectors == (0,) and p.irrep == "A1g"
               for p in anti)

    overlaps = heisenberg_overlap_scan([0.0, 2.0, 3.0])
    assert all(p.overlap_sq > 0.995 for p in overlaps)

    for jz in (0.0, 1.0, 3.0):
        res = diagonalize_sector(0, ModelParams(6.0, jz))
        amps = np.zeros(1 << 12)
        amps[sector_basis(0).configs] = res.eigenvectors[:, 0]
        assert is_entangled(StateVector(amps=amps, sector=None)).entangled, jz
    polarized = diagonalize_sector(6, XXZ_FERRO)
    amps = np.zeros(1 << 12)
    amps[sector_basis(6).configs] = polarized.eigenvectors[:, 0]
    assert not is_entangled(StateVector(amps=amps, sector=None)).entangled
    _passed(9, f"crossover at {scan.crossover:.6f}, linear ferro branch, "
               f"overlaps {min(p.overlap_sq for p in overlaps):.6f}+")


def test_10_structural_properties(group, chi, plain_evolution):
    names = {g.name for g in group}
    for a in group:
        assert compose(a, inverse(a, group), group).name == "E"
        for b in group:
            product = compose(a, b, group)
            assert product.name in names
            assert product.parity == a.parity * b.parity

    rng = np.random.default_rng(77)
    for M in (5, 3):
        v = rng.normal(size=sector_basis(M).dim)
        for params in (HEISENBERG, XXZ_FERRO):
            h = build_sector_hamiltonian(M, params).matrix
            hv = h @ v
            for g in group:
                gv = act_permutation(g, StateVector(amps=v, sector=M)).amps
                ghv = act_permutation(g, StateVector(amps=hv, sector=M)).amps
                assert np.abs(h @ gv - ghv).max() < 1e-10, (M, g.name)

    for M in range(1, 7):
        # diagonalize_sector(-M) is the spin flip of M, so solve -M on its own
        up = diagonalize_sector(M, XXZ_FERRO).eigenvalues
        down = np.linalg.eigvalsh(build_sector_hamiltonian(-M, XXZ_FERRO).matrix)
        assert np.abs(up - down).max() < 1e-10, M

    times = np.linspace(0.0, 1.0, 201)
    xi = build_initial_state(parse_state_spec("xi"))
    for state, params, M in ((xi, XXZ_FERRO, 4), (chi, HEISENBERG, 3)):
        traj = evolve_probabilities(state, M, params, times)
        for members in traj.classes:
            block = traj.probs[members]
            assert np.abs(block - block[0]).max() < 1e-10
        sums = traj.probs.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-10

    combined = plain_evolution(chi, HEISENBERG, times)
    for M, probs in combined.items():
        alone = evolve_probabilities(chi, M, HEISENBERG, times)
        assert np.abs(probs - alone.probs).max() < 1e-10, M
    _passed(10, "group axioms, commutation, mirror, classes, conservation, "
                "parallel evolution")


def test_11_ising_limit():
    start = time.perf_counter()
    check = ising_degeneracy_check(1)
    elapsed = time.perf_counter() - start
    assert check.degeneracy == 730
    assert check.ground_energy == -6
    assert ising_degeneracy_check(-1).degeneracy == 2
    assert elapsed < 1.0
    _passed(11, f"730-fold short-range ground manifold ({elapsed * 1e3:.1f}ms)")
