"""Diagonalization, degeneracy structure, and the ground-state scan."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
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
from hexstar.dynamics import evolve_probabilities, spectral_support
from hexstar.hilbert import (
    FULL_MASK,
    StateVector,
    build_initial_state,
    parse_state_spec,
    sector_basis,
)
from hexstar.lattice import IRREP_DIMS, IRREP_LABELS, N_SITES, build_geometry
from hexstar import cli, spectrum, symmetry
from hexstar.spectrum import (
    RESIDUAL_TOL,
    _diagonalize_sector,
    degeneracy_histogram,
    diagonalize_sector,
    full_spectrum,
    ground_state_point,
    ground_state_scan,
    heisenberg_overlap_scan,
    ising_degeneracy_check,
)
from hexstar.symmetry import irrep_blocks, irrep_weights
from reference import (
    act_permutation,
    assert_mirrored_blocks,
    dense_rows,
    eager_eigenvectors,
    histogram_by_group_means,
    label_eigenvector,
    per_cluster_labels,
    split_into_clusters,
)

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
@given(**_couplings)
def test_the_ground_route_is_the_labelled_ground_column(alpha, jz_over_j):
    params = ModelParams(alpha, jz_over_j)
    res = _uncached(0, params, DEG_TOL_RELATIVE)
    assume(res.clusters[0].size == 1)
    assert np.array_equal(spectrum._ground_vector(params, DEG_TOL_RELATIVE)[0],
                          res.eigenvectors[:, 0])


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


@pytest.mark.parametrize("params", [HEISENBERG, XXZ_FERRO, ModelParams(3.7, 0.37)],
                         ids=["heisenberg", "xxz", "alpha3.7"])
def test_lazy_eigenvectors_are_the_eager_scatter(params):
    for M in range(-6, 7):
        up = _uncached(abs(M), params, DEG_TOL_RELATIVE)
        res = up if M >= 0 else spectrum._mirror_result(up)  # as diagonalize_sector(M) does
        assert "eigenvectors" not in vars(up) | vars(res)  # the solve builds no column
        if M < 0:
            assert_mirrored_blocks(res, up)
        vectors = res.eigenvectors
        expected = eager_eigenvectors(M, params)  # sector -M: the spin flip of M's
        assert np.array_equal(vectors, expected)
        assert vectors.flags.f_contiguous == expected.flags.f_contiguous
        assert vectors.flags.c_contiguous == expected.flags.c_contiguous
        assert not vectors.flags.writeable
        again = res.eigenvectors  # built afresh: the result keeps no dense column
        assert again is not vectors and np.array_equal(again, vectors)
        assert again.flags.f_contiguous == vectors.flags.f_contiguous
        assert again.flags.c_contiguous == vectors.flags.c_contiguous
        assert not again.flags.writeable
        assert "eigenvectors" not in vars(res)


def test_a_labelled_solve_runs_one_eigh_per_even_block(monkeypatch):
    # each E1u and E2g copy is solved once: 6 eigh at M = 0, not 8
    calls = []
    eigh = np.linalg.eigh
    for M in range(7):
        irrep_blocks(M)  # the adapted basis solves its own projectors, once per process
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    for jz in (0.37, 1.0):
        counts = []
        for M in range(7):
            calls.clear()
            _uncached(M, ModelParams(4.4, jz), DEG_TOL_RELATIVE)
            assert calls == [b.copies for b in irrep_blocks(M) if b.partner > 0]
            counts.append(len(calls))
        assert counts == [6, 6, 6, 6, 6, 5, 1]  # both partners: [8, 8, 8, 8, 8, 7, 1]


def test_diagonalize_rejects_a_sector_below_minus_six():
    with pytest.raises(ValueError, match="-7"):
        diagonalize_sector(-7, HEISENBERG)


_TOLERANCE_ENTRIES = {
    "diagonalize_sector": lambda tol: diagonalize_sector(1, HEISENBERG, tol),
    "diagonalize_sector_mirrored": lambda tol: diagonalize_sector(-1, HEISENBERG, tol),
    "full_spectrum": lambda tol: full_spectrum(HEISENBERG, tol),
    "degeneracy_histogram": lambda tol: degeneracy_histogram(HEISENBERG, tol),
    "ground_state_point": lambda tol: ground_state_point(HEISENBERG, tol),
    "ground_state_scan": lambda tol: ground_state_scan(6.0, [-1.0, 0.0], tol),
}


@pytest.mark.parametrize("entry", list(_TOLERANCE_ENTRIES))
def test_a_nan_infinite_or_negative_tolerance_is_rejected(entry):
    # rejected before the cache is read: no sector is solved or cached at it
    misses = _diagonalize_sector.cache_info().misses
    for bad in (-1e-8, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="deg_tol_rel=.* must be finite and non-negative"):
            _TOLERANCE_ENTRIES[entry](bad)
    assert _diagonalize_sector.cache_info().misses == misses


def test_a_bad_tolerance_is_rejected_before_any_solve(monkeypatch):
    # each entry point checks its tolerances first: no sector is solved and no
    # block operator is summed before the ValueError
    chi = build_initial_state(parse_state_spec("chi"))
    params, times = ModelParams(5.55, 0.3), np.linspace(0.0, 1.0, 3)  # solved by no other test
    calls = []
    for name in ("_sector_levels", "_partner_operators"):
        real = getattr(spectrum, name)
        monkeypatch.setattr(spectrum, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    entries = {
        "deg_tol_rel": (lambda tol: ground_state_scan(5.61, [-1.0, 0.0], tol),
                        lambda tol: ground_state_point(params, tol),
                        lambda tol: spectrum._ground_vector(params, tol)),
        "support_tol": (lambda tol: evolve_probabilities(chi, 2, params, times, support_tol=tol),
                        lambda tol: spectral_support(chi, 2, params, support_tol=tol)),
    }
    misses = _diagonalize_sector.cache_info().misses
    for name, calls_at in entries.items():
        for call in calls_at:
            for bad in (-1.0, np.nan):
                with pytest.raises(ValueError, match=f"{name}=.* must be finite and non-negative"):
                    call(bad)
    assert calls == []
    assert _diagonalize_sector.cache_info().misses == misses


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
    # the library's one run rule starts the same runs
    assert spectrum._run_starts(values, 1e-8).tolist() == [g[0] for g in groups] == [0, 2, 4]
    assert spectrum._run_starts(np.array([3.0]), 1e-8).tolist() == [0]
    assert spectrum._run_starts(np.array([]), 1e-8).tolist() == []


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


@pytest.mark.parametrize("alpha, jz", [(6.0, 1.0), (6.0, -3.0), (3.7, 0.37), (2.0, 1.0)])
def test_histogram_counts_and_gaps_equal_the_per_group_means(monkeypatch, alpha, jz):
    # the levels do not depend on the clustering tolerance, so one solve serves all five
    params = ModelParams(alpha, jz)
    solved = {M: _uncached(M, params, DEG_TOL_RELATIVE) for M in range(7)}
    monkeypatch.setattr(spectrum, "diagonalize_sector", lambda M, p, tol: solved[M])
    merged = np.sort(np.concatenate([solved[abs(M)].eigenvalues for M in range(-6, 7)]))
    found = []
    for tol in (1e-8, 1e-5, 1e-4, 1e-3, 1e-2):
        hist = degeneracy_histogram(params, tol)
        deg_tol = tol * float(merged[-1] - merged[0])
        counts, gaps = histogram_by_group_means(merged, deg_tol)
        assert hist.deg_tol == deg_tol
        assert hist.counts == counts and list(hist.counts) == list(counts)
        assert hist.ambiguous_gaps == gaps
        found.append(len(gaps))
    assert max(found) > 0


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
    assert scan.crossover_bracket == (scan.crossover, scan.crossover)

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
    monkeypatch.setattr("hexstar.spectrum._sector_levels", lambda params, *memory: levels)
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
    assert lo == hi == down.crossover
    assert -0.49 < down.crossover < -0.48


def _ferro_excess(alpha, jz):
    """Ferromagnet energy (Jz/J) w minus the lowest level of M = 0..5, every even block solved."""
    levels = spectrum._sector_levels(ModelParams(alpha=alpha, jz_over_j=jz))
    return jz * total_coupling(build_geometry(), alpha) - min(
        v[0] for M in range(0, 6) for v in levels[M].values())


def _bisection_bracket(alpha, lo, hi, width=1e-6):
    """Bisection on the ferro excess of the true levels down to width, kept as the oracle."""
    f_lo = _ferro_excess(alpha, lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = _ferro_excess(alpha, mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo, hi


def _check_against_bisection(alpha, grid):
    """The crossover at alpha lies in the bisection bracket of its grid step."""
    scan = ground_state_scan(alpha, grid)
    step = sorted(next((a.jz_over_j, b.jz_over_j) for a, b in zip(scan.points, scan.points[1:])
                       if (6 in a.sectors) != (6 in b.sectors)))
    lo, hi = _bisection_bracket(alpha, *step)
    assert lo <= scan.crossover <= hi
    assert scan.crossover_bracket == (scan.crossover, scan.crossover)
    f, f_again = scan.crossover_excess
    w = total_coupling(build_geometry(), alpha)
    assert f == f_again and abs(f) <= RESIDUAL_TOL * max(1.0, abs(scan.crossover) * w)


@pytest.mark.parametrize("alpha, grid", [
    (alpha, (-1.0, 0.0, 11)) for alpha in (3.0, 5.3, 6.0, 7.1, 8.0)
] + [(6.0, (-3.0, 3.0, 25))])
def test_crossover_lies_in_the_bisection_bracket(alpha, grid):
    _check_against_bisection(alpha, np.linspace(*grid))


@settings(max_examples=6, deadline=None)
@given(alpha=st.floats(3.0, 8.0))
def test_crossover_lies_in_the_bisection_bracket_at_any_range(alpha):
    # one grid step of width 1, where the lowest levels of M = 5, 4, ..., 0
    # trade places near the crossing
    _check_against_bisection(alpha, [-1.0, 0.0])


@pytest.mark.parametrize("alpha", [0.5, 3.0, 6.0, 8.5, 14.0, 60.0, 400.0])
def test_the_ferro_excess_of_every_block_changes_sign_at_the_crossover(alpha):
    crossover = ground_state_scan(alpha, [-1.0, 0.0]).crossover
    delta = 1e-9 * max(1.0, abs(crossover))
    assert _ferro_excess(alpha, crossover - delta) < 0 < _ferro_excess(alpha, crossover + delta)


@pytest.mark.parametrize("reach", [1e12, 1e30, 1e60, 1e100, 1e306])
def test_the_crossover_does_not_depend_on_the_grid_range(reach):
    crossover = ground_state_scan(6.0, [-1.0, 0.0]).crossover
    assert ground_state_scan(6.0, [-reach, 0.0, reach]).crossover == crossover
    assert -0.49 < crossover < -0.48


def test_the_crossover_does_not_depend_on_the_clustering_tolerance():
    grid = np.linspace(-1.0, 0.0, 11)  # the README grid
    crossover = ground_state_scan(6.0, grid).crossover
    assert ground_state_scan(6.0, grid, 0.3).crossover == crossover
    assert -0.49 < crossover < -0.48


def test_a_grid_point_on_the_crossing_reads_the_closed_form():
    crossover = ground_state_scan(6.0, [-1.0, 0.0]).crossover
    for grid in ([crossover, 0.0], [0.0, crossover]):
        scan = ground_state_scan(6.0, grid)
        # the ferromagnet ties the M = 0 level there, within the clustering tolerance
        assert scan.points[grid.index(crossover)].sectors == (-6, 0, 6)
        assert scan.crossover == crossover
        assert scan.crossover_bracket == (crossover, crossover)


def test_a_lowered_crossover_fails_the_excess_check(monkeypatch, capsys):
    # every K_r eigenvalue 1e-6 low, the smallest too, moves the crossover off the
    # level crossing; the block solves of the grid points bind eigvalsh early
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def lowered(a):
        calls.append(len(a))
        return eigvalsh(a) - 1e-6

    assert -0.49 < ground_state_scan(6.0, [-1.0, 0.0]).crossover < -0.48
    monkeypatch.setattr(np.linalg, "eigvalsh", lowered)
    with pytest.raises(RuntimeError, match="ferro excess .* is not zero"):
        ground_state_scan(6.0, [-1.0, 0.0])
    assert len(calls) == 35  # the even blocks of M = 0..5
    assert cli.main(["ground-scan", "--jz-min", "-1", "--jz-max", "0", "--jz-points", "2"]) == 3
    assert "ferro excess" in capsys.readouterr().err


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(1.0, 10.0), points=st.integers(2, 13), descending=st.booleans(),
       deg_tol_rel=st.sampled_from([1e-8, 1e-3, 0.3]))
def test_a_scan_that_skips_blocks_equals_one_that_solves_them_all(alpha, points, descending,
                                                                  deg_tol_rel):
    grid = np.linspace(-3.0, 3.0, points)[::-1 if descending else 1]
    scan = ground_state_scan(alpha, grid, deg_tol_rel)
    levels = spectrum._sector_levels
    with pytest.MonkeyPatch.context() as m:
        # the memory withheld: every point and step solves all 36 even blocks
        m.setattr(spectrum, "_sector_levels", lambda p, *memory: levels(p))
        full = ground_state_scan(alpha, grid, deg_tol_rel)
    assert scan.points == full.points
    assert scan.crossover == full.crossover
    assert scan.crossover_bracket == full.crossover_bracket
    assert scan.crossover_excess == full.crossover_excess


def _count_block_solves(monkeypatch, solver=np.linalg.eigvalsh):
    """Blocks that _solve_blocks is asked to solve with solver, appended to a list."""
    counts = []
    solve_blocks = spectrum._solve_blocks

    def count(params, entries, solve=np.linalg.eigvalsh):
        if solve is solver:
            counts.append(len(entries))
        return solve_blocks(params, entries, solve)

    monkeypatch.setattr(spectrum, "_solve_blocks", count)
    return counts


def test_the_block_solve_counter_counts_every_eigvalsh(monkeypatch):
    counts = _count_block_solves(monkeypatch)
    # the crossover's K_r solves call eigvalsh itself, not through _solve_blocks
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counts.append(1) or eigvalsh(a))
    scan = ground_state_scan(6.0, np.linspace(-1.0, 0.0, 11))  # the README grid
    assert -0.49 < scan.crossover < -0.48
    assert scan.block_solves == sum(counts)
    # 11 x 36 = 396 when every point solves all 36 blocks, plus the crossover's 36
    assert scan.block_solves <= 180
    counts.clear()
    ground_state_point(ModelParams(6.0, -0.3))
    assert sum(counts) == 36  # no memory: every even block of M = 0..6


def test_the_ground_route_solves_one_block_for_its_vector(monkeypatch):
    counts = _count_block_solves(monkeypatch, np.linalg.eigh)
    spectrum._ground_vector(ModelParams(4.4, 0.3), DEG_TOL_RELATIVE)
    assert counts == [1]


def test_a_ground_scan_projects_no_odd_partner_block(monkeypatch):
    alpha = 4.91  # a range no other test solves
    spectrum._class_table.cache_clear()
    blocks = spectrum.irrep_blocks
    with monkeypatch.context() as m:
        # odd-partner rows that any projection fails on
        m.setattr(spectrum, "irrep_blocks", lambda M: tuple(
            b if b.partner > 0 else dataclasses.replace(b, rows=None, coef=None)
            for b in blocks(M)))
        assert ground_state_scan(alpha, [-1.0, 0.0]).crossover is not None
    assert spectrum._class_table.cache_info().currsize == 7  # the even partners of M = 0..6
    # a labelled solve at that range then projects nothing: it sums the even
    # blocks' class parts the scan built, and an odd block shares its even partner's
    table = spectrum._class_table.cache_info()
    for M in range(7):
        _uncached(M, ModelParams(alpha, 0.3), DEG_TOL_RELATIVE)
    assert spectrum._class_table.cache_info().misses - table.misses == 0


def test_a_ground_scan_builds_no_projection_certificate(monkeypatch):
    # its levels carry no residual check, so neither a scan nor a point pays
    # for the coupling-free certificate, which only the labelled solve and
    # the ground vector read
    calls, certificate = [], spectrum._certificate
    monkeypatch.setattr(spectrum, "_certificate", lambda M: calls.append(M) or certificate(M))
    # a range no other test solves
    assert ground_state_scan(4.67, [-1.0, 0.0]).crossover is not None
    ground_state_point(ModelParams(4.67, 0.4))
    assert calls == []


def _refuse_sector_hamiltonians(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense sector Hamiltonian was assembled")

    # every dense sector H and S^2 is summed by hamiltonian._assemble
    monkeypatch.setattr("hexstar.hamiltonian.build_sector_hamiltonian", refuse)
    monkeypatch.setattr("hexstar.hamiltonian._assemble", refuse)


def test_scan_assembles_no_sector_hamiltonian(monkeypatch):
    _refuse_sector_hamiltonians(monkeypatch)
    scan = ground_state_scan(5.77, [-1.0, 0.0])  # an alpha no other test splits
    assert scan.crossover is not None


def test_labelled_solves_assemble_no_sector_hamiltonian(monkeypatch):
    monkeypatch.setattr(spectrum, "_diagonalize_sector", _uncached)  # keep the shared spectra
    _refuse_sector_hamiltonians(monkeypatch)
    params = ModelParams(5.13, 0.3)  # a range no other test solves
    assert all(0.0 <= res.residual_margin <= 1.0 for res in full_spectrum(params).values())
    vector, _, _ = spectrum._ground_vector(params, DEG_TOL_RELATIVE)
    assert vector.shape == (sector_basis(0).dim,)


def test_the_projection_certificate_is_built_once_per_sector(monkeypatch):
    # it is free of both couplings: a fresh alpha or Jz/J only weights it
    monkeypatch.setattr(spectrum, "_diagonalize_sector", _uncached)
    spectrum._certificate.cache_clear()
    full_spectrum(ModelParams(4.83, 0.3))
    info = spectrum._certificate.cache_info()
    assert (info.misses, info.currsize) == (7, 7)
    full_spectrum(ModelParams(4.83, -1.9))
    full_spectrum(ModelParams(5.29, 0.3))
    spectrum._ground_vector(ModelParams(5.29, -0.4), DEG_TOL_RELATIVE)
    assert spectrum._certificate.cache_info().misses == 7


def _projected_levels(params, *memory):
    """Reference: the dense sector H projected onto each C2'(0)-even block, per point."""
    return {M: {b.irrep: np.linalg.eigvalsh(r @ (r @ h).T)
                for b, r in ((b, dense_rows(b)) for b in irrep_blocks(M)) if b.partner > 0}
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


def _even_entries(M, alpha):
    """Each block of irrep_blocks(M), both partners, with the operators of its even partner."""
    entries = {e[0].irrep: e for e in spectrum._partner_operators(M, alpha)}
    return [(b, *entries[b.irrep][1:]) for b in irrep_blocks(M)]


@pytest.mark.parametrize("alpha", [1.5, 6.0])
def test_block_operators_are_the_projected_sector_hamiltonian(alpha):
    # the reference is the per-point projection of the dense sector H, both
    # partners; an odd block has no operators of its own, only its even partner's
    for M in range(-6, 7):
        entries = _even_entries(M, alpha)
        assert ([b for b, _, _ in spectrum._partner_operators(M, alpha)]
                == [b for b in irrep_blocks(M) if b.partner > 0])
        rows = [dense_rows(b) for b, _, _ in entries]
        for jz in (0.0, 1.0, -2.5):
            h = build_sector_hamiltonian(M, ModelParams(alpha, jz)).matrix
            for (b, xr, zr), r in zip(entries, rows):
                assert np.abs(xr + np.diag(jz * zr) - r @ (r @ h).T).max() <= 1e-13


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(1.0, 8.0), jz_over_j=st.floats(-3.0, 3.0), M=st.integers(0, 5))
def test_odd_partner_blocks_carry_the_even_block_operators(alpha, jz_over_j, M):
    # the odd rows come from the even ones by the partner map, so B H B^T on
    # them is the even block's operator to rounding
    h = build_sector_hamiltonian(M, ModelParams(alpha, jz_over_j)).matrix
    scale = max(1.0, float(np.abs(h).max()))
    odd = [(b, xr, zr) for b, xr, zr in _even_entries(M, alpha) if b.partner < 0]
    assert {b.irrep for b, _, _ in odd} == {b.irrep for b in irrep_blocks(M)
                                            if IRREP_DIMS[b.irrep] == 2}
    for b, xr, zr in odd:
        r = dense_rows(b)
        assert np.abs(xr + np.diag(jz_over_j * zr) - r @ (r @ h).T).max() <= 1e-13 * scale


def test_a_second_anisotropy_builds_no_block_operators(monkeypatch):
    # the class table is built once per sector in a process, for the even
    # partner only; after that neither a fresh alpha nor a fresh Jz/J projects anything
    monkeypatch.setattr(spectrum, "_diagonalize_sector", _uncached)  # keep the shared spectra
    spectrum._class_table.cache_clear()
    full_spectrum(ModelParams(4.37, 0.3))  # a fresh range
    info = spectrum._class_table.cache_info()
    assert (info.misses, info.currsize) == (7, 7)

    def refuse(M):
        raise AssertionError(f"sector {M} was projected again")

    monkeypatch.setattr(spectrum, "coupling_classes", refuse)
    bases = symmetry._adapted_basis.cache_info().misses  # the irrep rows are looked up only
    full_spectrum(ModelParams(4.37, -1.7))
    full_spectrum(ModelParams(4.63, 0.3))
    ground_state_point(ModelParams(4.71, 0.3))
    ground_state_point(ModelParams(4.71, -1.7))
    assert spectrum._class_table.cache_info().misses == 7
    assert symmetry._adapted_basis.cache_info().misses == bases


def test_a_perturbed_block_operator_fails_the_residual_check(monkeypatch, capsys):
    # the first even block of sector 3, and of M = 0: A1g, the ground block at Jz/J = 0.5
    params = ModelParams(6.0, 0.5)
    build = spectrum._partner_operators
    for M, solve in ((3, lambda: _uncached(3, params, DEG_TOL_RELATIVE)),
                     (0, lambda: spectrum._ground_vector(params, DEG_TOL_RELATIVE))):
        entries = list(build(M, 6.0))
        b, xr, zr = entries[0]
        xr = xr.copy()
        xr[0, 0] += 1e-6
        entries[0] = (b, xr, zr)
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_partner_operators", lambda k, alpha: (
                tuple(entries) if k == M else build(k, alpha)))
            with pytest.raises(RuntimeError, match="eigenpair residual"):
                solve()
            if M == 0:
                assert cli.main(["schmidt", "--state", "ground", "--jz-over-j", "0.5"]) == 3
                assert "eigenpair residual" in capsys.readouterr().err


def test_a_perturbed_class_table_entry_fails_the_residual_check(monkeypatch):
    build = spectrum._class_table
    t = build(3)[0]
    n = t.z.shape[1]
    # a nearest-neighbour entry on or below the diagonal, which eigh reads, and its mirror
    k = np.nonzero((t.cls == 0) & (t.flat // n >= t.flat % n))[0][0]
    mirror = np.nonzero((t.cls == 0) & (t.flat == t.flat[k] % n * n + t.flat[k] // n))[0][0]
    # the projection certificate, built afresh from the perturbed table, sees the
    # entry move; with its mirror moved too, eigh and the block residual read one
    # symmetric operator, and only the certificate does
    monkeypatch.setattr(spectrum, "_certificate", spectrum._certificate.__wrapped__)
    for moved in ([k], [k, mirror]):
        x = t.x.copy()
        x[moved] += 1e-6
        table = (t._replace(x=x), *build(3)[1:])
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_class_table", lambda M, table=table: (
                table if M == 3 else build(M)))
            with pytest.raises(RuntimeError, match="eigenpair residual"):
                _uncached(3, ModelParams(6.0, 0.5), DEG_TOL_RELATIVE)


@settings(max_examples=20, deadline=None)
@given(**_couplings, M=st.integers(0, 6))
def test_the_residual_margin_bounds_the_dense_residual(alpha, jz_over_j, M):
    # the dense H V - V E stays the oracle; the certified bound lies above it,
    # both are rounding-sized, and they agree to within a thousandth of RESIDUAL_TOL
    params = ModelParams(alpha, jz_over_j)
    res = _uncached(M, params, DEG_TOL_RELATIVE)
    h = build_sector_hamiltonian(M, params).matrix
    vectors = res.eigenvectors
    dense = np.abs(h @ vectors - vectors * res.eigenvalues).max()
    scale = max(res.eigenvalues[-1] - res.eigenvalues[0], 1.0)
    assert 0.0 <= res.residual_margin <= 1.0
    assert dense <= res.residual_margin * RESIDUAL_TOL * scale
    assert abs(res.residual_margin * RESIDUAL_TOL * scale - dense) <= 1e-13 * scale


def test_a_swapped_pair_of_stored_columns_fails_the_residual_check(monkeypatch):
    # the residual reads each level at the column it fills, so two eigenvectors
    # of one block swapped against their levels fail, and so does a level
    # given to the wrong block; the even block 0 and an odd block each
    check = spectrum._certify

    def swap_vectors(k):
        def swapped(M, params, values, solved, spread):
            solved = list(solved)
            b, u, cols = solved[k]
            solved[k] = (b, u[:, [1, 0, *range(2, u.shape[1])]], cols)
            return check(M, params, values, solved, spread)
        return swapped

    def swap_levels(M, params, values, solved, spread):
        (b0, u0, cols0), (b1, u1, cols1), *rest = solved
        cols0, cols1 = cols0.copy(), cols1.copy()
        cols0[0], cols1[0] = cols1[0], cols0[0]
        return check(M, params, values, [(b0, u0, cols0), (b1, u1, cols1), *rest], spread)

    odd = next(k for k, b in enumerate(irrep_blocks(3)) if b.partner < 0)
    for fault in (swap_vectors(0), swap_vectors(odd), swap_levels):
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_certify", fault)
            with pytest.raises(RuntimeError, match="eigenpair residual"):
                _uncached(3, ModelParams(6.0, 0.5), DEG_TOL_RELATIVE)


@pytest.mark.parametrize("params", [HEISENBERG, XXZ_FERRO], ids=["heisenberg", "xxz"])
def test_mirrored_sectors_carry_the_residual_margin(params):
    for M in range(1, 7):
        up = diagonalize_sector(M, params)
        assert 0.0 <= up.residual_margin <= 1.0
        assert diagonalize_sector(-M, params).residual_margin == up.residual_margin


def test_a_perturbed_casimir_block_fails_the_spin_check(monkeypatch):
    spin_blocks = spectrum._spin_blocks
    monkeypatch.setattr(spectrum, "_spin_blocks", lambda M: tuple(
        a + 1e-3 * np.eye(len(a)) for a in spin_blocks(M)))
    with pytest.raises(RuntimeError, match="non-integer total spin"):
        _uncached(4, HEISENBERG, DEG_TOL_RELATIVE)


@pytest.mark.parametrize("alpha, jz", [(2.0, 1.0), (4.0, 1.0), (6.0, 1.0), (8.0, 1.0),
                                       (6.0, -3.0), (3.7, 0.37)])
def test_cluster_labels_match_the_per_cluster_loop(alpha, jz):
    # spins at Jz/J = 1 against the dense Casimir, irrep slots against one
    # bincount per cluster
    for M in range(7):
        res = _uncached(M, ModelParams(alpha, jz), DEG_TOL_RELATIVE)
        assert [(c.indices.tolist(), c.energy, c.irrep_slots, c.irrep, c.spin)
                for c in res.clusters] == per_cluster_labels(res)


def test_block_solves_accept_a_plain_eigenpair_tuple():
    # numpy before 2.0 returns eigh's eigenpairs as a plain (values, vectors) tuple
    entries = spectrum._partner_operators(2, 6.0)
    solved = spectrum._solve_blocks(ModelParams(6.0, 0.5), entries,
                                    lambda a: tuple(np.linalg.eigh(a)))
    levels = spectrum._solve_blocks(ModelParams(6.0, 0.5), entries)
    for (values, _), expected in zip(solved, levels):
        assert values == pytest.approx(expected, abs=1e-12)


def test_a_solver_failure_at_finite_levels_keeps_its_own_error():
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectrum._solve_blocks(ModelParams(6.0, 0.5), spectrum._partner_operators(2, 6.0), fail)


@pytest.mark.parametrize("f_lo, f_hi, top_lo, top_hi, at", [
    (1e-7, 1.0, 1e3, 1.0, "lo"),   # lo ties the crossing: f > 0 at both ends
    (1e-7, 1e-7, 1e3, 1.0, "lo"),  # equal excess at both ends
    (0.0, 1.0, 1.0, 1.0, "lo"),    # lo sits exactly on the crossing
    (1.0, 1e-7, 1.0, 1e3, "hi"),   # the ferromagnet wins on the right
])
@pytest.mark.filterwarnings("error")
def test_a_grid_point_on_the_crossing_stays_in_its_step(monkeypatch, f_lo, f_hi,
                                                        top_lo, top_hi, at):
    # the grid points read synthetic levels, the crossover the real block operators:
    # a tie at a grid point flips the verdict but does not move the crossover to it
    crossover = ground_state_scan(6.0, [-1.0, 0.0]).crossover
    lo, hi = -0.6, -0.4
    assert lo < crossover < hi
    w = total_coupling(build_geometry(), 6.0)

    def synthetic(params, *memory):
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
            assert scan.crossover == crossover
            assert scan.crossover == pytest.approx(-0.486058, abs=1e-5)
            assert scan.crossover_bracket == (crossover, crossover)
            f, f_again = scan.crossover_excess
            assert f == f_again and abs(f) <= RESIDUAL_TOL * max(1.0, abs(crossover) * w)


@pytest.mark.parametrize("degenerate_jz", [1.0, 2.0])
def test_overlap_scan_refuses_a_degenerate_ground_level(monkeypatch, degenerate_jz):
    # no coupling on a coarse grid has one, so merge the two lowest M=0
    # levels where the ground route reads them: eigvalsh of the even M = 0 blocks
    solve_blocks = spectrum._solve_blocks

    def merged(params, entries, solve=np.linalg.eigvalsh):
        solved = solve_blocks(params, entries, solve)
        if (params.jz_over_j == degenerate_jz
                and [e[0] for e in entries] == [t.block for t in spectrum._class_table(0)]):
            e0, e1 = np.sort(np.concatenate(solved))[:2]
            for v in solved:
                v[v == e1] = e0
        return solved

    monkeypatch.setattr(spectrum, "_solve_blocks", merged)
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
def test_overlap_scan_spin_weights_match_the_casimir_projection(alpha):
    # the test's own labelled solves are the oracle for v, the dense S^2 for its weights
    grid = np.linspace(-1.0, 3.0, 11)
    for point, jz in zip(heisenberg_overlap_scan(grid, alpha), grid):
        v = _uncached(0, ModelParams(alpha, float(jz)), DEG_TOL_RELATIVE).eigenvectors[:, 0]
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


def test_diagonalize_rejects_bad_sector():
    with pytest.raises(ValueError):
        diagonalize_sector(8, HEISENBERG)


@pytest.mark.filterwarnings("error")
def test_an_anisotropy_that_overflows_the_levels_is_a_numerical_failure(geometry):
    for jz in (1e307, -1e307, 1.7e308, -1.7e308):
        with pytest.raises(RuntimeError, match=re.escape(f"alpha=6, Jz/J={jz:g}")):
            ground_state_point(ModelParams(6.0, jz))
    # the second grid overflows only at a point bounded from solved ones: an
    # infinite bound never skips the block that overflows
    for grid in ([-1e307, 0.0, 1e307], [-1.0, 0.0, 1e307]):
        with pytest.raises(RuntimeError, match="not finite"):
            ground_state_scan(6.0, grid)
    # just inside the float range the ferromagnet still wins below the crossover
    w = total_coupling(geometry, 6.0)
    ferro = ground_state_point(ModelParams(6.0, -1e306))
    assert ferro.sectors == (-6, 6) and ferro.energy == pytest.approx(-1e306 * w, rel=1e-12)
    assert 0 in ground_state_point(ModelParams(6.0, 1e306)).sectors


_needs_openblas = pytest.mark.skipif(spectrum._OPENBLAS is None,
                                     reason="numpy's bundled OpenBLAS was not found")


def _blas_count():
    return spectrum._OPENBLAS[0]()


@_needs_openblas
def test_every_block_solve_runs_on_one_blas_thread(monkeypatch):
    seen = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, solve=solve: seen.append(_blas_count()) or solve(a))
    # _solve_blocks binds eigvalsh as its default when it is defined
    monkeypatch.setattr(spectrum._solve_blocks, "__defaults__", (np.linalg.eigvalsh,))
    spectrum._class_table.cache_clear()  # cold tables, built inside the solve
    spectrum._certificate.cache_clear()
    with spectrum.blas_threads(2):  # the caller's pool, whatever the environment set
        for M in range(7):
            diagonalize_sector(M, ModelParams(5.29, 0.3))  # a point no other test solves
        labelled = len(seen)
        scan = ground_state_scan(5.29, [-1.0, 0.0])
        assert _blas_count() == 2
    # one eigh per even block of M = 0..6, and the adapted basis's own if not yet built
    assert labelled >= 36
    assert len(seen) - labelled == scan.block_solves
    assert set(seen) == {1}


@_needs_openblas
def test_the_callers_blas_threads_are_restored():
    with spectrum.blas_threads(2):
        full_spectrum(HEISENBERG)
        assert _blas_count() == 2
        with pytest.raises(RuntimeError, match="overflow"):
            full_spectrum(ModelParams(6.0, 1.7e308))
        assert _blas_count() == 2


@_needs_openblas
def test_levels_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, as numpy loads it: one child per count
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    code = ("import sys; from hexstar import ModelParams, diagonalize_sector; sys.stdout.write("
            "diagonalize_sector(0, ModelParams(3.7, 0.4)).eigenvalues.tobytes().hex())")
    levels = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env, check=True)
        levels.append(np.frombuffer(bytes.fromhex(proc.stdout)))
    assert len(levels[0]) == sector_basis(0).dim
    assert np.array_equal(*levels)
