"""Diagonalization, degeneracy structure, and the ground-state scan."""

import dataclasses
import functools
import re

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
    FULL_MASK,
    StateVector,
    act_permutation,
    build_initial_state,
    parse_state_spec,
    sector_basis,
)
from hexstar.lattice import IRREP_LABELS, N_SITES, build_geometry
from hexstar import spectrum
from hexstar.spectrum import (
    REFINE_TOL,
    RESIDUAL_TOL,
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
from hexstar.symmetry import irrep_blocks, irrep_weights, label_eigenvector

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


@pytest.mark.parametrize("params", [HEISENBERG, XXZ_FERRO], ids=["heisenberg", "xxz"])
@pytest.mark.parametrize("M", range(1, 7))
def test_negative_sector_is_the_spin_flip_of_the_positive_one(params, M):
    up = diagonalize_sector(M, params)
    down = diagonalize_sector(-M, params)
    assert down.M == -M
    assert np.array_equal(down.eigenvalues, up.eigenvalues)
    assert _labels(down) == _labels(up)
    rows = sector_basis(-M).index_of[sector_basis(M).configs ^ FULL_MASK]
    assert np.array_equal(down.eigenvectors[rows], up.eigenvectors)
    h = build_sector_hamiltonian(-M, params).matrix
    vectors = down.eigenvectors
    residual = np.abs(h @ vectors - vectors * down.eigenvalues).max()
    spread = down.eigenvalues[-1] - down.eigenvalues[0]
    assert residual <= RESIDUAL_TOL * max(spread, 1.0)


def test_diagonalize_rejects_a_sector_below_minus_six():
    with pytest.raises(ValueError, match="-7"):
        diagonalize_sector(-7, HEISENBERG)


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
    # physics rather than the spin flip diagonalize_sector(-M) applies
    for M in (4, 5):
        up = diagonalize_sector(M, XXZ_FERRO)
        down = np.linalg.eigvalsh(build_sector_hamiltonian(-M, XXZ_FERRO).matrix)
        assert up.eigenvalues == pytest.approx(down, abs=1e-10)


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


def test_histogram_builds_no_mirrored_eigenvectors(monkeypatch, heisenberg_spectra):
    calls = []
    original = spectrum._mirror_result
    monkeypatch.setattr(spectrum, "_mirror_result",
                        lambda res: calls.append(res.M) or original(res))
    assert degeneracy_histogram(HEISENBERG).counts == HEISENBERG_HISTOGRAM
    assert calls == []


def _cluster_margins(values, clusters):
    """Largest gap inside a cluster and smallest gap between two, over the spread."""
    gaps = np.diff(values) / (values[-1] - values[0])  # empty for a single level
    inside = np.ones(len(gaps), dtype=bool)
    inside[[idx[0] - 1 for idx in clusters[1:]]] = False
    return gaps[inside].max(initial=0.0), gaps[~inside].min(initial=np.inf)


@pytest.mark.parametrize("name, params", [("heisenberg", HEISENBERG), ("xxz", XXZ_FERRO)])
def test_clusters_hold_across_a_band_of_tolerances(name, params):
    # every deg_tol_rel in [1e-13, 1e-7] gives the same clusters, hence the
    # frozen cluster sizes and histograms
    spectra = full_spectrum(params)  # cached: no new solve
    per_sector = [_cluster_margins(res.eigenvalues, [c.indices for c in res.clusters])
                  for res in spectra.values()]
    merged = np.sort(np.concatenate([res.eigenvalues for res in spectra.values()]))
    groups = split_into_clusters(merged, DEG_TOL_RELATIVE * (merged[-1] - merged[0]))
    margins = {"per sector": (max(i for i, _ in per_sector), min(b for _, b in per_sector)),
               "merged": _cluster_margins(merged, groups)}
    for inside, between in margins.values():
        assert inside < 1e-13 and between > 1e-7
    print(f"cluster margins PASS  {name}: " + "; ".join(
        f"{k} inside <= {i:.2g}, between >= {b:.3g}" for k, (i, b) in margins.items()))


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


def test_descending_grid_is_refined_like_the_ascending_one():
    up = ground_state_scan(6.0, [-1.0, 0.0])
    down = ground_state_scan(6.0, [0.0, -1.0])
    assert down.crossover == up.crossover
    assert down.crossover_bracket == up.crossover_bracket
    assert down.points == up.points[::-1]
    lo, hi = down.crossover_bracket
    assert lo < hi and hi - lo <= 1e-6
    assert -0.49 < down.crossover < -0.48


def _bisection_bracket(alpha, lo, hi):
    """The bisection that refined the crossover before regula falsi, kept as the oracle.

    Returns the final bracket and the number of ferro-excess evaluations.
    """
    w = total_coupling(build_geometry(), alpha)

    def ferro_excess(jz):
        levels = spectrum._sector_levels(ModelParams(alpha=alpha, jz_over_j=jz))
        rival = min(v[0] for M in range(0, 6) for v in levels[M].values())
        return jz * w - rival

    f_lo = ferro_excess(lo)
    calls = 1
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = ferro_excess(mid)
        calls += 1
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo, hi), calls


def _check_against_bisection(monkeypatch, alpha, grid):
    """Refine at alpha; returns the scan's and the bisection's ferro-excess evaluations."""
    seen = []
    levels = spectrum._sector_levels
    monkeypatch.setattr(spectrum, "_sector_levels", lambda p: seen.append(p) or levels(p))
    scan = ground_state_scan(alpha, grid)
    refinement_calls = len(seen) - len(grid)
    step = sorted(next((a.jz_over_j, b.jz_over_j) for a, b in zip(scan.points, scan.points[1:])
                       if (6 in a.sectors) != (6 in b.sectors)))
    (lo, hi), oracle_calls = _bisection_bracket(alpha, *step)
    assert lo <= scan.crossover <= hi

    a, b = scan.crossover_bracket
    assert step[0] <= a <= scan.crossover <= b <= step[1]
    assert 0 < b - a <= REFINE_TOL
    w = total_coupling(build_geometry(), alpha)
    excess = [jz * w - min(v[0] for M in range(0, 6) for v in levels(
        ModelParams(alpha, jz))[M].values()) for jz in (a, b)]
    # the true excess at both ends, not the values the Illinois rule halved
    assert list(scan.crossover_excess) == excess
    assert excess[0] < 0 <= excess[1]
    return refinement_calls, oracle_calls


@pytest.mark.parametrize("alpha, grid", [
    (alpha, (-1.0, 0.0, 11)) for alpha in (3.0, 5.3, 6.0, 7.1, 8.0)
] + [(6.0, (-3.0, 3.0, 25))])
def test_crossover_lies_in_the_bisection_bracket(monkeypatch, alpha, grid):
    calls, oracle_calls = _check_against_bisection(monkeypatch, alpha, np.linspace(*grid))
    assert 2 * calls <= oracle_calls


@settings(max_examples=6, deadline=None)
@given(alpha=st.floats(3.0, 8.0))
def test_crossover_lies_in_the_bisection_bracket_at_any_range(alpha):
    # one grid step of width 1: the kinks of the excess near its root cost
    # regula falsi more steps here than on the grids above
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls, oracle_calls = _check_against_bisection(monkeypatch, alpha, [-1.0, 0.0])
    assert calls < oracle_calls


def test_scan_assembles_no_sector_hamiltonian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan assembled a dense sector Hamiltonian")

    monkeypatch.setattr("hexstar.spectrum.build_sector_hamiltonian", refuse)
    monkeypatch.setattr("hexstar.hamiltonian.build_sector_hamiltonian", refuse)
    scan = ground_state_scan(5.77, [-1.0, 0.0])  # an alpha no other test splits
    assert scan.crossover is not None


def _projected_levels(params):
    """Reference: the dense sector H projected onto each C2'(0)-even block, per point."""
    return {M: {b.irrep: np.linalg.eigvalsh(b.basis @ (b.basis @ h).T)
                for b in irrep_blocks(M) if b.partner > 0}
            for M, h in ((M, build_sector_hamiltonian(M, params).matrix) for M in range(7))}


@pytest.mark.parametrize("alpha", [3.0, 5.3, 6.0, 7.1, 8.0])
def test_ground_points_match_the_projected_hamiltonian(monkeypatch, alpha):
    for jz in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
        params = ModelParams(alpha, jz)
        point = ground_state_point(params)
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_sector_levels", _projected_levels)
            reference = ground_state_point(params)
        assert (point.sectors, point.degeneracy, point.irrep) == (
            reference.sectors, reference.degeneracy, reference.irrep)
        merged = np.concatenate([v for blocks in _projected_levels(params).values()
                                 for v in blocks.values()])
        spread = merged.max() - merged.min()
        assert abs(point.energy - reference.energy) <= 1e-12 * max(spread, 1.0)


@pytest.mark.parametrize("alpha", [1.5, 6.0])
def test_block_pairs_are_the_projected_split(alpha):
    import scipy.sparse

    for M, blocks in spectrum._block_pairs(alpha).items():
        x = build_sector_hamiltonian(M, ModelParams(alpha, 0.0)).matrix
        zz = np.diag(build_sector_hamiltonian(M, ModelParams(alpha, 1.0)).matrix)
        even = [b for b in irrep_blocks(M) if b.partner > 0]
        assert [r for r, _, _ in blocks] == [b.irrep for b in even]
        for (_, xr, zr), b in zip(blocks, even):
            assert np.abs(xr - b.basis @ (b.basis @ x).T).max() <= 1e-13
            # diag(zz) is constant on each row's orbit, so its block is diagonal
            dense = (b.basis @ scipy.sparse.diags_array(zz) @ b.basis.T).toarray()
            assert np.abs(dense - np.diag(zr)).max() <= 1e-13


def test_crossover_excess_is_the_true_excess_at_the_bracket_ends(monkeypatch):
    # a convex excess that is steep right of its root: the right grid point,
    # 4e-7 above the root, is kept (and halved) while the left end walks in
    w = total_coupling(build_geometry(), 6.0)
    root = -0.5

    def excess(jz):
        return (jz - root) * (1e6 if jz > root else 1.0)

    def synthetic(params):
        jz = params.jz_over_j
        levels = {M: {} for M in range(7)}
        levels[0]["A1g"] = np.array([jz * w - excess(jz), jz * w + 1.0])
        levels[6]["A2g"] = np.array([jz * w])
        return levels

    monkeypatch.setattr(spectrum, "_sector_levels", synthetic)
    scan = ground_state_scan(6.0, [-0.6, root + 4e-7])
    lo, hi = scan.crossover_bracket
    assert -0.6 < lo < root < hi == root + 4e-7 and hi - lo <= REFINE_TOL
    assert scan.crossover_excess == pytest.approx((excess(lo), excess(hi)), rel=1e-6)
    assert lo <= scan.crossover <= hi


@pytest.mark.parametrize("f_lo, f_hi, top_lo, top_hi, at", [
    (1e-7, 1.0, 1e3, 1.0, "lo"),   # lo ties the crossing: f > 0 at both ends
    (1e-7, 1e-7, 1e3, 1.0, "lo"),  # equal excess at both ends
    (0.0, 1.0, 1.0, 1.0, "lo"),    # lo sits exactly on the crossing
    (1.0, 1e-7, 1.0, 1e3, "hi"),   # the ferromagnet wins on the right
])
@pytest.mark.filterwarnings("error")
def test_a_grid_point_on_the_crossing_stays_in_its_step(monkeypatch, f_lo, f_hi,
                                                        top_lo, top_hi, at):
    lo, hi = -0.6, -0.4
    w = total_coupling(build_geometry(), 6.0)

    def synthetic(params):
        # rival level = ferro level - excess, linear in Jz/J; `top` sets the
        # spread and with it the clustering tolerance of the grid points
        jz = params.jz_over_j
        t = (jz - lo) / (hi - lo)
        excess = (1 - t) * f_lo + t * f_hi
        top = top_lo if jz == lo else top_hi
        levels = {M: {} for M in range(7)}
        levels[0]["A1g"] = np.array([jz * w - excess, jz * w + top])
        levels[6]["A2g"] = np.array([jz * w])
        return levels

    monkeypatch.setattr(spectrum, "_sector_levels", synthetic)
    with np.errstate(all="raise"):
        for grid in ([lo, hi], [hi, lo]):
            scan = ground_state_scan(6.0, grid)
            assert [6 in p.sectors for p in scan.points] == (
                [at == "lo", at == "hi"] if grid[0] == lo else [at == "hi", at == "lo"])
            end, f_end = (lo, f_lo) if at == "lo" else (hi, f_hi)
            assert scan.crossover == end
            assert scan.crossover_bracket == (end, end)
            assert scan.crossover_excess == pytest.approx((f_end, f_end), abs=1e-12)


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


def _spin_component(vector, M, S):
    """Reference: project onto total spin S with the polynomial in S^2 that kills the rest."""
    s2 = heisenberg_casimir(M)
    out = vector.copy()
    target = S * (S + 1)
    for other in range(0, N_SITES // 2 + 1):
        if other == S:
            continue
        casimir = other * (other + 1)
        out = (s2 @ out - casimir * out) / (target - casimir)
    return out


@pytest.mark.parametrize("alpha", [6.0, 3.0])
def test_overlap_scan_spin_weights_match_the_casimir_projection(monkeypatch, alpha):
    # solves of this test's own, so the scan does not evict the shared spectra
    solve = functools.lru_cache(lambda M, params: _uncached(M, params, DEG_TOL_RELATIVE))
    monkeypatch.setattr("hexstar.spectrum.diagonalize_sector", solve)
    grid = np.linspace(-1.0, 3.0, 11)
    for point, jz in zip(heisenberg_overlap_scan(grid, alpha), grid):
        v = solve(0, ModelParams(alpha, float(jz))).eigenvectors[:, 0]
        reference = {}
        for S in range(0, 7):
            comp = _spin_component(v, 0, S)
            w = float(np.dot(comp, comp))
            if w > 1e-12:
                reference[S] = w
        assert point.spin_weights.keys() == reference.keys()
        for S, w in reference.items():
            assert abs(point.spin_weights[S] - w) <= 1e-12, (jz, S)
        assert abs(sum(point.spin_weights.values()) - 1.0) <= 1e-12


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


@pytest.mark.filterwarnings("error")
def test_an_anisotropy_that_overflows_the_levels_is_a_numerical_failure(geometry):
    for jz in (1e307, -1e307, 1.7e308, -1.7e308):
        with pytest.raises(RuntimeError, match=re.escape(f"alpha=6, Jz/J={jz:g}")):
            ground_state_point(ModelParams(6.0, jz))
    with pytest.raises(RuntimeError, match="not finite"):
        ground_state_scan(6.0, [-1e307, 0.0, 1e307])
    # just inside the float range the ferromagnet still wins below the crossover
    w = total_coupling(geometry, 6.0)
    ferro = ground_state_point(ModelParams(6.0, -1e306))
    assert ferro.sectors == (-6, 6) and ferro.energy == pytest.approx(-1e306 * w, rel=1e-12)
    assert 0 in ground_state_point(ModelParams(6.0, 1e306)).sectors
