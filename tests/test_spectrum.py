"""Diagonalization, degeneracy structure, and the ground-state scan."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hexstar.hamiltonian import (
    DEG_TOL_RELATIVE,
    HEISENBERG,
    XXZ_FERRO,
    ModelParams,
    build_sector_hamiltonian,
    heisenberg_casimir,
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
from hexstar.lattice import IRREP_LABELS
from hexstar.spectrum import (
    EigenCluster,
    _diagonalize_sector,
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
from hexstar.symmetry import irrep_weights, label_eigenvector

# Eigenvalue multiplicities over all 4096 states, counted once at the
# default clustering tolerance and frozen.
XXZ_HISTOGRAM = {1: 312, 2: 838, 4: 527}
HEISENBERG_HISTOGRAM = {
    1: 48, 2: 42, 3: 99, 5: 89, 6: 99, 7: 54, 9: 18,
    10: 93, 11: 3, 13: 1, 14: 50, 18: 18, 22: 4,
}


def _dense_labelled(M, params, deg_tol_rel=DEG_TOL_RELATIVE):
    """Reference labelling: a dense sector eigh, irrep weights rounded per cluster.

    Returns the eigenvalues and (size, irrep_slots, irrep, spin) per cluster.
    """
    values, vectors = scipy.linalg.eigh(build_sector_hamiltonian(M, params, exact=False).matrix)
    weights = irrep_weights(vectors, M)
    s2 = heisenberg_casimir(M) if params.jz_over_j == 1.0 else None
    clusters = []
    for idx in split_into_clusters(values, deg_tol_rel * (values[-1] - values[0])):
        slots = {}
        for r, w in weights.items():
            total = float(np.sum(w[idx]))
            assert abs(total - round(total)) < 1e-6
            if round(total):
                slots[r] = round(total)
        assert sum(slots.values()) == len(idx)
        spin = None
        if s2 is not None:
            v = vectors[:, idx[0]]
            s_val = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * float(v @ (s2 @ v))))
            assert abs(s_val - round(s_val)) < 1e-6
            spin = round(s_val)
        irrep = next(iter(slots)) if len(slots) == 1 else None
        clusters.append((len(idx), slots, irrep, spin))
    return values, clusters


def _labels(res):
    return [(c.size, c.irrep_slots, c.irrep, c.spin) for c in res.clusters]


# A solve of their own, so random couplings do not evict the spectra other tests share.
_uncached = _diagonalize_sector.__wrapped__
_couplings = dict(alpha=st.floats(1.0, 8.0),
                  jz_over_j=st.just(1.0) | st.floats(-3.0, 3.0))


@settings(max_examples=15, deadline=None)
@given(**_couplings, M=st.integers(-6, 6))
def test_block_labels_match_the_dense_reference(alpha, jz_over_j, M):
    params = ModelParams(alpha, jz_over_j)
    res = _uncached(M, params, DEG_TOL_RELATIVE)
    values, clusters = _dense_labelled(M, params)
    spread = values[-1] - values[0]
    assert np.abs(res.eigenvalues - values).max() <= 1e-12 * max(spread, 1.0)
    assert _labels(res) == clusters

    vectors = res.eigenvectors
    assert np.abs(vectors.T @ vectors - np.eye(res.dim)).max() < 1e-12
    weights = irrep_weights(vectors, M)
    stacked = np.stack(list(weights.values()))
    assert stacked.max(axis=0).min() >= 1.0 - 1e-10
    # the irrep each column carries accounts for its cluster's slots
    own = np.array(list(weights))[stacked.argmax(axis=0)]
    for c in res.clusters:
        names, counts = np.unique(own[c.indices], return_counts=True)
        assert dict(zip(names.tolist(), counts.tolist())) == c.irrep_slots


@settings(max_examples=12, deadline=None)
@given(**_couplings, M=st.integers(1, 6))
def test_opposite_sectors_mirror_levels_and_labels(alpha, jz_over_j, M):
    # -M is solved from its own blocks here, not mirrored by full_spectrum
    params = ModelParams(alpha, jz_over_j)
    up = _uncached(M, params, DEG_TOL_RELATIVE)
    down = _uncached(-M, params, DEG_TOL_RELATIVE)
    assert np.abs(up.eigenvalues - down.eigenvalues).max() <= 1e-12
    assert ([(c.size, c.irrep_slots) for c in up.clusters]
            == [(c.size, c.irrep_slots) for c in down.clusters])


def test_slots_count_both_partners_of_e_levels(xxz_spectra):
    res = xxz_spectra[0]
    e_clusters = [c for c in res.clusters if c.irrep in ("E1u", "E2g")]
    assert e_clusters and all(c.size == 2 for c in e_clusters)
    slots = {}
    for c in res.clusters:
        for r, n in c.irrep_slots.items():
            slots[r] = slots.get(r, 0) + n
    assert slots == {r: n for r, n in zip(IRREP_LABELS, (70, 90, 312, 76, 76, 300))}


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


@pytest.mark.parametrize("params", [HEISENBERG, XXZ_FERRO] + [
    ModelParams(6.0, float(jz)) for jz in np.linspace(-1.0, 0.0, 11)
], ids=lambda p: f"alpha={p.alpha:g},jz={p.jz_over_j:.2g}")
def test_ground_irrep_matches_the_dense_ground_vector(params):
    point = ground_state_point(params)
    M = min(abs(m) for m in point.sectors)
    h = build_sector_hamiltonian(M, params, exact=False).matrix
    _, v = scipy.linalg.eigh(h, subset_by_index=[0, 0])
    assert point.irrep is not None
    assert point.irrep == label_eigenvector(v[:, 0], M)


@pytest.mark.parametrize("ground, expected", [
    ({0: {"E1u": 0.0}}, ((0,), 2, "E1u")),
    ({0: {"A1g": 0.0, "E1u": 0.0}}, ((0,), 3, None)),
    ({1: {"E2g": 0.0}, 3: {"B1u": 0.0}}, ((-3, -1, 1, 3), 6, "E2g")),
])
def test_ground_level_counts_two_states_per_e_level(monkeypatch, ground, expected):
    # every block starts above the ground level; `ground` puts e0 = 0 into some
    levels = {M: {"A2g": np.array([1.0, 2.0]), "E1u": np.array([1.5])} for M in range(7)}
    for M, blocks in ground.items():
        for irrep, e0 in blocks.items():
            levels[M][irrep] = np.array([e0, 3.0])
    monkeypatch.setattr("hexstar.spectrum._sector_levels", lambda params: levels)
    point = ground_state_point(HEISENBERG)
    assert (point.sectors, point.degeneracy, point.irrep) == expected
    assert point.energy == 0.0


@pytest.mark.parametrize("refine_tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_scan_rejects_bad_refine_tol(refine_tol):
    with pytest.raises(ValueError, match="refine_tol"):
        ground_state_scan(6.0, [-1.0, 0.0], refine_tol=refine_tol)


def test_descending_grid_is_refined_like_the_ascending_one():
    up = ground_state_scan(6.0, [-1.0, 0.0])
    down = ground_state_scan(6.0, [0.0, -1.0])
    assert down.crossover == up.crossover
    assert down.crossover_bracket == up.crossover_bracket
    assert down.points == up.points[::-1]
    lo, hi = down.crossover_bracket
    assert lo < hi and hi - lo <= 1e-6
    assert -0.49 < down.crossover < -0.48


@pytest.mark.parametrize("degenerate_jz", [1.0, 2.0])
def test_overlap_scan_refuses_a_degenerate_ground_level(monkeypatch, degenerate_jz):
    # no coupling on a coarse grid has one, so merge the two lowest M=0 clusters
    def fake(M, params, deg_tol_rel=DEG_TOL_RELATIVE):
        res = diagonalize_sector(M, params, deg_tol_rel)
        if params.jz_over_j != degenerate_jz:
            return res
        first, second = res.clusters[:2]
        merged = EigenCluster(indices=np.concatenate([first.indices, second.indices]),
                              energy=first.energy)
        return dataclasses.replace(res, clusters=(merged,) + res.clusters[2:])

    monkeypatch.setattr("hexstar.spectrum.diagonalize_sector", fake)
    with pytest.raises(ValueError, match=f"Jz/J={degenerate_jz:g}, alpha=6 is 2-fold"):
        heisenberg_overlap_scan([0.0, 2.0])


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
