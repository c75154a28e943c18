"""Diagonalization, degeneracy structure, and the ground-state scan."""

import numpy as np
import pytest

from hexstar.hamiltonian import (
    DEG_TOL_RELATIVE,
    HEISENBERG,
    XXZ_FERRO,
    ModelParams,
    build_sector_hamiltonian,
    total_coupling,
)
from hexstar.dynamics import evolve_probabilities
from hexstar.hilbert import (
    StateVector,
    act_permutation,
    build_initial_state,
    parse_state_spec,
    sector_basis,
)
from hexstar.spectrum import (
    degeneracy_histogram,
    diagonalize_sector,
    full_spectrum,
    ground_state_point,
    ground_state_scan,
    heisenberg_overlap_scan,
    ising_degeneracy_check,
    split_into_clusters,
    thread_budget,
)

# Eigenvalue multiplicities over all 4096 states, counted once at the
# default clustering tolerance and frozen.
XXZ_HISTOGRAM = {1: 312, 2: 838, 4: 527}
HEISENBERG_HISTOGRAM = {
    1: 48, 2: 42, 3: 99, 5: 89, 6: 99, 7: 54, 9: 18,
    10: 93, 11: 3, 13: 1, 14: 50, 18: 18, 22: 4,
}


def test_split_into_clusters_basics():
    values = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-9, 2.0])
    groups = split_into_clusters(values, 1e-8)
    assert [len(g) for g in groups] == [2, 2, 1]
    assert [len(g) for g in split_into_clusters(np.array([3.0]), 1e-8)] == [1]


def test_clusters_partition_each_sector(xxz_spectra):
    for M, res in xxz_spectra.items():
        seen = np.concatenate([c.indices for c in res.clusters])
        assert np.array_equal(np.sort(seen), np.arange(res.dim))


def test_eigenvalues_sorted_with_small_residual(heisenberg_spectra):
    for res in heisenberg_spectra.values():
        assert np.all(np.diff(res.eigenvalues) >= 0)


def test_hamiltonian_commutes_with_the_group(group):
    rng = np.random.default_rng(31)
    for params in (HEISENBERG, XXZ_FERRO):
        h = build_sector_hamiltonian(5, params).matrix
        v = rng.normal(size=12)
        hv = h @ v
        for g in group:
            gv = act_permutation(g, StateVector(amps=v, sector=5)).amps
            ghv = act_permutation(g, StateVector(amps=hv, sector=5)).amps
            assert np.abs(h @ gv - ghv).max() < 1e-12, g.name


def test_opposite_sectors_share_spectra():
    # the mirror sector is diagonalized from scratch here, so this checks
    # physics rather than the construction of the merged table
    for M in (4, 5):
        up = diagonalize_sector(M, XXZ_FERRO)
        down = diagonalize_sector(-M, XXZ_FERRO)
        assert up.eigenvalues == pytest.approx(down.eigenvalues, abs=1e-10)


def test_full_spectrum_covers_all_sectors(heisenberg_spectra):
    assert sorted(heisenberg_spectra.keys()) == list(range(-6, 7))
    total = sum(res.dim for res in heisenberg_spectra.values())
    assert total == 4096


def test_heisenberg_spin_labels_in_one_flip_sector(heisenberg_spectra):
    res = heisenberg_spectra[5]
    by_spin = {}
    for c in res.clusters:
        assert c.spin in (5, 6)
        by_spin[c.spin] = by_spin.get(c.spin, 0) + c.size
    assert by_spin == {6: 1, 5: 11}


def test_xxz_clusters_carry_no_spin(xxz_spectra):
    assert all(c.spin is None for c in xxz_spectra[5].clusters)


def test_degeneracy_histogram_xxz(xxz_spectra):
    hist = degeneracy_histogram(XXZ_FERRO)
    assert hist.counts == XXZ_HISTOGRAM
    assert hist.total_states == 4096
    assert hist.ambiguous_gaps == ()


def test_degeneracy_histogram_heisenberg(heisenberg_spectra):
    hist = degeneracy_histogram(HEISENBERG)
    assert hist.counts == HEISENBERG_HISTOGRAM
    assert hist.total_states == 4096
    assert hist.ambiguous_gaps == ()


def test_spectra_are_shared_through_one_cache_key():
    # full_spectrum, the dynamics and the histogram all reuse one labelled
    # decomposition per (M, params, tolerance)
    full_spectrum(HEISENBERG)
    misses = diagonalize_sector.cache_info().misses
    chi = build_initial_state(parse_state_spec("chi"))
    evolve_probabilities(chi, 0, HEISENBERG, np.linspace(0.0, 1.0, 11))
    degeneracy_histogram(HEISENBERG)
    assert diagonalize_sector.cache_info().misses == misses


def test_default_tolerance_shares_the_explicit_cache_entry():
    params = ModelParams(5.0, 0.5)  # used by no other test
    before = diagonalize_sector.cache_info()
    diagonalize_sector(6, params, DEG_TOL_RELATIVE)
    diagonalize_sector(6, params)
    after = diagonalize_sector.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


def test_ferromagnetic_ground_point(geometry):
    point = ground_state_point(XXZ_FERRO)
    w = total_coupling(geometry, 6.0)
    assert point.energy == pytest.approx(-3.0 * w, rel=1e-12)
    assert point.sectors == (-6, 6)
    assert point.degeneracy == 2
    assert point.irrep == "A2g"


def test_heisenberg_ground_point():
    point = ground_state_point(HEISENBERG)
    assert point.sectors == (0,)
    assert point.degeneracy == 1
    assert point.irrep == "A1g"


def test_ground_scan_finds_the_crossover(geometry):
    scan = ground_state_scan(6.0, np.linspace(-1.0, 0.0, 11))
    assert scan.crossover is not None
    assert -0.49 < scan.crossover < -0.48
    assert scan.crossover == pytest.approx(-0.486058, abs=1e-5)
    lo, hi = scan.crossover_bracket
    assert hi - lo <= 2.5e-6

    w = total_coupling(geometry, 6.0)
    for point in scan.points:
        if point.jz_over_j < scan.crossover:
            assert point.sectors == (-6, 6)
            # the polarized branch is exactly linear in the anisotropy
            assert point.energy == pytest.approx(point.jz_over_j * w, rel=1e-12)
        else:
            assert point.sectors == (0,)
            assert point.degeneracy == 1


def test_ground_overlap_with_heisenberg():
    pts = heisenberg_overlap_scan([0.0, 2.0, 3.0])
    frozen = (0.9998792194967177, 0.999961397081883, 0.9998586057524607)
    for point, expected in zip(pts, frozen):
        assert point.overlap_sq > 0.995
        assert point.overlap_sq == pytest.approx(expected, abs=1e-9)


def test_ising_limit_degeneracies():
    af = ising_degeneracy_check(1)
    assert (af.ground_energy, af.degeneracy) == (-6, 730)
    ferro = ising_degeneracy_check(-1)
    assert (ferro.ground_energy, ferro.degeneracy) == (-18, 2)
    with pytest.raises(ValueError):
        ising_degeneracy_check(0)


def test_thread_budget_env(monkeypatch):
    monkeypatch.setenv("HEXSTAR_THREADS", "3")
    assert thread_budget() == 3
    monkeypatch.delenv("HEXSTAR_THREADS")
    assert thread_budget() >= 1


def test_diagonalize_rejects_bad_sector():
    with pytest.raises(ValueError):
        diagonalize_sector(8, HEISENBERG)
