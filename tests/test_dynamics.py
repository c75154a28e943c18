"""Measurement-probability trajectories and their statistics."""

import dataclasses
import math
import sys
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexstar import analytic, dynamics, spectrum
from hexstar.analytic import gap, m5_block
from hexstar.dynamics import (
    CLASS_TOL,
    EVOLVE_FLOOR,
    SpectralSupport,
    collapse_metrics,
    equiprobability_classes,
    evolve_probabilities,
    frequency_count,
    regime_classifier,
    return_probability,
    spectral_support,
)
from hexstar.hamiltonian import DEG_TOL_RELATIVE, HEISENBERG, XXZ_FERRO, ModelParams
from hexstar.hilbert import (
    StateVector,
    basis_state,
    build_initial_state,
    parse_state_spec,
    product_state,
    project_sector,
    sector_basis,
    spin_flip,
)
from hexstar.spectrum import SUPPORT_TOL, SpectrumResult, _diagonalize_sector, diagonalize_sector
from reference import assert_mirrored_blocks, dense_cluster_overlaps, dense_modes

# Spectral support dimensions per sector, M = 6 down to 0.  The in-plane
# state is evolved under the anisotropic model, the mixed-ring state under
# the isotropic one.
SUPPORT_XI_XXZ = (1, 2, 9, 24, 50, 76, 48)
SUPPORT_CHI_HEISENBERG = (1, 2, 9, 24, 50, 76, 90)


@pytest.fixture(scope="module")
def xi():
    return build_initial_state(parse_state_spec("xi"))


@pytest.fixture(scope="module")
def chi():
    return build_initial_state(parse_state_spec("chi"))


@pytest.fixture(scope="module")
def chi_balanced_trajectory(chi, unit_time_grid, heisenberg_spectra):
    return evolve_probabilities(chi, 0, HEISENBERG, unit_time_grid)


def test_support_dimensions(xi, chi, xxz_spectra, heisenberg_spectra):
    for M, expected in zip(range(6, -1, -1), SUPPORT_XI_XXZ):
        assert spectral_support(xi, M, XXZ_FERRO).dim == expected, M
    for M, expected in zip(range(6, -1, -1), SUPPORT_CHI_HEISENBERG):
        assert spectral_support(chi, M, HEISENBERG).dim == expected, M


def test_support_is_mirror_symmetric(xi):
    up = spectral_support(xi, 5, XXZ_FERRO)
    down = spectral_support(xi, -5, XXZ_FERRO)
    assert up.dim == down.dim
    assert up.energies == pytest.approx(down.energies, abs=1e-10)


def test_support_weights_resolve_unity(chi):
    support = spectral_support(chi, 3, HEISENBERG)
    total = sum(support.overlap**2)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_trajectory_classes_match_support_dimension(xi, chi):
    # as many distinct trajectories as contributing eigenspaces
    times = np.linspace(0.0, 0.1, 11)
    for state, params in ((xi, XXZ_FERRO), (chi, HEISENBERG)):
        for M in (5, 4, 0):
            traj = evolve_probabilities(state, M, params, times)
            assert traj.num_classes == traj.support.dim, (M, params)


def test_frequency_counts(xi, chi):
    times = np.linspace(0.0, 0.1, 3)
    traj = evolve_probabilities(xi, 0, XXZ_FERRO, times)
    assert traj.freq.formula == 48 * 47 // 2 == 1128
    assert traj.freq.distinct == 1128
    traj = evolve_probabilities(chi, 0, HEISENBERG, times)
    assert traj.freq.formula == 90 * 89 // 2 == 4005
    assert traj.freq.distinct == 4005
    traj = evolve_probabilities(xi, 4, XXZ_FERRO, times)
    assert traj.freq.formula == traj.freq.distinct == 36


def test_probabilities_sum_to_one(xi):
    times = np.linspace(0.0, 1.0, 101)
    traj = evolve_probabilities(xi, 3, XXZ_FERRO, times)
    sums = traj.probs.sum(axis=0)
    assert sums == pytest.approx(np.ones_like(sums), abs=1e-12)


def test_class_members_share_one_trajectory(xi):
    times = np.linspace(0.0, 1.0, 101)
    traj = evolve_probabilities(xi, 4, XXZ_FERRO, times)
    for members in traj.classes:
        block = traj.probs[members]
        spread = np.abs(block - block[0]).max()
        assert spread < 1e-12


def test_xi_is_stationary_under_the_isotropic_model(xi):
    # equatorial product states are eigenstate mixtures with equal energy
    # inside each sector's symmetric block
    times = np.linspace(0.0, 1.0, 101)
    for M in (5, 2, 0):
        traj = evolve_probabilities(xi, M, HEISENBERG, times)
        d = sector_basis(M).dim
        assert np.abs(traj.probs - 1.0 / d).max() < 1e-12


def test_chi_one_flip_rabi_oscillation(chi):
    times = np.linspace(0.0, 1.0, 101)
    traj = evolve_probabilities(chi, 5, HEISENBERG, times)
    delta = gap(6.0, 1.0)
    outer = np.cos(math.pi * delta * times) ** 2 / 6.0
    inner = np.sin(math.pi * delta * times) ** 2 / 6.0
    basis = sector_basis(5)
    for k in range(6):
        assert traj.probs[basis.index_of[1 << k]] == pytest.approx(outer, abs=1e-12)
        assert traj.probs[basis.index_of[1 << (6 + k)]] == pytest.approx(inner, abs=1e-12)


def test_xi_one_flip_single_frequency(xi):
    times = np.linspace(0.0, 1.0, 11)
    traj = evolve_probabilities(xi, 5, XXZ_FERRO, times)
    assert traj.support.dim == 2
    assert traj.freq.distinct == 1
    e = traj.support.energies
    assert abs(e.max() - e.min()) == pytest.approx(gap(6.0, -3.0), rel=1e-12)
    assert regime_classifier(traj) == "sinusoidal"


def test_regime_constant(xi):
    times = np.linspace(0.0, 1.0, 11)
    traj = evolve_probabilities(xi, 6, XXZ_FERRO, times)
    assert traj.support.dim == 1
    assert regime_classifier(traj) == "constant"


def test_regime_aperiodic(xi, unit_time_grid):
    traj = evolve_probabilities(xi, 0, XXZ_FERRO, unit_time_grid)
    assert regime_classifier(traj) == "aperiodic"
    # bounded wandering: no outcome ever dominates
    assert traj.probs.max() < 0.065


def test_collapse_of_the_balanced_outer_state(chi_balanced_trajectory):
    traj = chi_balanced_trajectory
    metrics = collapse_metrics(traj)
    basis = sector_basis(0)
    assert basis.configs[metrics.initial_outcome] == 63
    assert metrics.initial_prob == pytest.approx(1.0, abs=1e-10)
    assert metrics.collapse_time == pytest.approx(0.034, abs=1e-9)
    assert metrics.dominant == (0, 923)
    assert basis.configs[923] == 4032  # the spin-flipped partner revives
    assert metrics.tail_max < 0.04
    assert regime_classifier(traj) == "collapse"


def test_initial_outcome_takes_the_lowest_of_tied_indices(xi):
    traj = evolve_probabilities(xi, 5, XXZ_FERRO, np.linspace(0.0, 1.0, 11))
    assert np.ptp(traj.probs[:, 0]) < 1e-14   # all twelve outcomes at 1/12
    assert collapse_metrics(traj).initial_outcome == 0
    probs = np.full((3, 2), 1.0 / 3.0)
    probs[2, 0] += 1e-15
    tied = dataclasses.replace(traj, class_probs=probs, row_class=np.arange(3),
                               times=np.array([0.0, 1.0]))
    metrics = collapse_metrics(tied)
    assert metrics.initial_outcome == 0
    assert metrics.initial_prob == 1.0 / 3.0


def _row_grid_collapse_metrics(probs, times):
    """Oracle: the collapse metrics read row by row from the full (d, T) grid."""
    threshold = dynamics.COLLAPSE_THRESHOLD
    initial = int(np.argmax(probs[:, 0] >= probs[:, 0].max() - CLASS_TOL))
    p0 = float(probs[initial, 0])
    collapse_time = None
    if p0 >= threshold:
        below = np.nonzero(probs[initial] < threshold)[0]
        if len(below):
            collapse_time = float(times[below[0]])
    peaks = probs.max(axis=1)
    third = float(np.sort(peaks)[::-1][2])
    dominant = tuple(int(i) for i in np.nonzero(peaks > 2.0 * third)[0])
    rest = [float(peaks[i]) for i in range(len(peaks)) if i not in dominant]
    return dynamics.CollapseMetrics(initial_outcome=initial, initial_prob=p0,
                                    collapse_time=collapse_time, threshold=threshold,
                                    dominant=dominant, tail_max=max(rest) if rest else 0.0)


@pytest.mark.parametrize("spec, M, params", [
    ("xi", 5, XXZ_FERRO),             # twelve tied outcomes, one class
    ("chi", 0, HEISENBERG),
    ("config:3930", -2, XXZ_FERRO),   # the initial row 448 is row 447 of the class table
    ("config:1365", 0, XXZ_FERRO),    # the initial row 286 is row 160 of the class table
], ids=["xi-5", "chi-0", "config-m2", "config-0"])
def test_collapse_metrics_read_per_class_equal_the_row_grid(spec, M, params, xxz_spectra,
                                                            heisenberg_spectra):
    state = build_initial_state(parse_state_spec(spec))
    times = np.linspace(0.0, 1.0, 201)
    traj = evolve_probabilities(state, M, params, times)
    assert "probs" not in vars(traj)
    metrics = collapse_metrics(traj)
    assert "probs" not in vars(traj)  # the metrics never build the (d, T) grid
    assert metrics == _row_grid_collapse_metrics(traj.probs, times)


def test_trajectories_mirror_under_global_flip(xi):
    times = np.linspace(0.0, 1.0, 51)
    up = evolve_probabilities(xi, 4, XXZ_FERRO, times)
    down = evolve_probabilities(xi, -4, XXZ_FERRO, times)
    up_basis, down_basis = sector_basis(4), sector_basis(-4)
    rows = down_basis.index_of[up_basis.configs ^ 4095]
    assert np.abs(down.probs[rows] - up.probs).max() < 1e-12


def test_full_evolution_agrees_with_sector_evolution(chi, plain_evolution):
    times = np.linspace(0.0, 1.0, 51)
    combined = plain_evolution(chi, HEISENBERG, times)
    assert sorted(combined.keys()) == list(range(0, 7))
    for M, probs in combined.items():
        alone = evolve_probabilities(chi, M, HEISENBERG, times)
        assert np.abs(probs - alone.probs).max() < 1e-12


def test_return_probability_closed_form(chi):
    times = np.linspace(0.0, 1.0, 101)
    p = return_probability(chi, 5, HEISENBERG, times)
    delta = gap(6.0, 1.0)
    assert p == pytest.approx(np.cos(math.pi * delta * times) ** 2, abs=1e-12)
    assert p[0] == pytest.approx(1.0, abs=1e-13)


def test_support_tolerance_does_not_change_probabilities(chi):
    times = np.linspace(0.0, 0.5, 21)
    loose = evolve_probabilities(chi, 4, HEISENBERG, times, support_tol=0.3)
    tight = evolve_probabilities(chi, 4, HEISENBERG, times)
    # the support filter reshapes the reported statistics only
    assert np.abs(loose.probs - tight.probs).max() < 1e-15
    assert loose.support.dim <= tight.support.dim


def test_empty_sector_component_is_rejected(chi):
    with pytest.raises(ValueError):
        evolve_probabilities(chi, -2, HEISENBERG, np.linspace(0, 1, 5))


def test_a_sector_state_of_another_sector_or_of_zero_norm_is_rejected():
    times = np.linspace(0, 1, 5)
    other = StateVector(amps=np.ones(sector_basis(3).dim), sector=3)
    with pytest.raises(ValueError, match="state lives in sector 3, not 4"):
        evolve_probabilities(other, 4, HEISENBERG, times)
    zero = StateVector(amps=np.zeros(sector_basis(4).dim), sector=4)
    with pytest.raises(ValueError, match="cannot evolve the zero vector"):
        evolve_probabilities(zero, 4, HEISENBERG, times)


def test_configuration_state_return_is_not_instantly_lost():
    state = basis_state(63)
    times = np.array([0.0])
    p = return_probability(state, 0, HEISENBERG, times)
    assert p[0] == pytest.approx(1.0, abs=1e-13)


def _first_fit_classes(rows, tol=CLASS_TOL):
    """Reference: every row against every representative, first match wins."""
    reps = []
    members = []
    for f in range(rows.shape[0]):
        r = rows[f]
        placed = False
        for k, rep in enumerate(reps):
            if np.max(np.abs(r - rep)) <= tol or np.max(np.abs(r + rep)) <= tol:
                members[k].append(f)
                placed = True
                break
        if not placed:
            reps.append(r)
            members.append([f])
    return members


def _assert_same_classes(state, M, params):
    support = spectral_support(state, M, params)
    classes = equiprobability_classes(support)
    assert [c.tolist() for c in classes] == _first_fit_classes(support.basis), (M, params)
    return support, classes


def test_classes_match_first_fit_for_canonical_states(xi, chi, xxz_spectra, heisenberg_spectra):
    for state in (xi, chi):
        for params in (XXZ_FERRO, HEISENBERG):
            for M in range(-6, 7):
                if project_sector(state, M)[1] > 0.0:
                    _assert_same_classes(state, M, params)


def test_classes_match_first_fit_for_complex_and_configuration_states():
    zeta = build_initial_state(parse_state_spec("zeta:1.1,0.4,1.9,2.5"))
    assert np.iscomplexobj(zeta.amps)
    for params in (XXZ_FERRO, HEISENBERG):
        for M in (0, 1, -1):
            _assert_same_classes(zeta, M, params)
    support, classes = _assert_same_classes(
        build_initial_state(parse_state_spec("config:3930")), -2, XXZ_FERRO)
    assert support.basis.shape == (495, 330)
    assert len(classes) == 493


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classes_match_first_fit_at_the_tolerance_edge(seed):
    # rows are +-copies of a few unit rows (one of them zero), each shifted
    # by exactly s in every entry, with s just inside or outside the tolerance
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    base = rng.normal(size=(6, n))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    base[0] = 0.0
    picks = rng.integers(0, 6, size=80)
    signs = rng.choice([-1.0, 1.0], size=(80, 1))
    shifts = CLASS_TOL * rng.choice([0.0, 0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0], size=(80, 1))
    rows = signs * base[picks] + shifts * rng.choice([-1.0, 1.0], size=(80, n))
    assert [c.tolist() for c in equiprobability_classes(_row_support(rows))] == \
        _first_fit_classes(rows)


def _row_support(rows):
    """A support whose basis is the given rows; only the classes read it."""
    n = rows.shape[1]
    return SpectralSupport(M=0, overlap=np.ones(1), energies=np.zeros(1), basis=rows,
                           col_cluster=np.zeros(n, dtype=int),
                           coef=np.zeros(n, dtype=complex), support_tol=0.0)


@pytest.mark.parametrize("gram_block", [1, 2, 128])
@pytest.mark.parametrize("entries, expected", [
    # the third row matches both earlier rows, which do not match each other
    ((0.0, 1.5, 0.8), [[0, 2], [1]]),
    # the last row matches only the later representative, once under each sign
    ((0.0, 1.5, 0.8, 2.3), [[0, 2], [1, 3]]),
    ((0.0, 1.5, 0.8, -2.3, 3.0), [[0, 2], [1, 3], [4]]),
    # a row claimed from an earlier Gram block is not visited again
    ((0.0, 3.0, 1.5, 0.8, 2.3, -0.5), [[0, 3, 5], [1, 4], [2]]),
], ids=["shared-match", "later-rep", "later-rep-minus", "claimed-across-blocks"])
def test_a_row_joins_the_earliest_representative_it_matches(monkeypatch, gram_block, entries,
                                                             expected):
    monkeypatch.setattr(dynamics, "GRAM_BLOCK", gram_block)
    rows = CLASS_TOL * np.array(entries)[:, None]
    classes = equiprobability_classes(_row_support(rows))
    assert [c.tolist() for c in classes] == expected == _first_fit_classes(rows)


_TOLERANCE_ENTRIES = {  # (name in the message, call at that tolerance)
    "evolve_probabilities_support_tol": ("support_tol", lambda xi, tol: evolve_probabilities(
        xi, 5, HEISENBERG, np.linspace(0.0, 1.0, 3), support_tol=tol)),
    "evolve_probabilities_deg_tol_rel": ("deg_tol_rel", lambda xi, tol: evolve_probabilities(
        xi, 5, HEISENBERG, np.linspace(0.0, 1.0, 3), deg_tol_rel=tol)),
    "spectral_support": ("support_tol", lambda xi, tol: spectral_support(
        xi, 5, HEISENBERG, support_tol=tol)),
    "return_probability": ("deg_tol_rel", lambda xi, tol: return_probability(
        xi, 5, HEISENBERG, np.linspace(0.0, 1.0, 3), deg_tol_rel=tol)),
    "restrict": ("support_tol", lambda xi, tol: spectral_support(
        xi, 5, HEISENBERG).restrict(tol)),
    "frequency_count": ("deg_tol", lambda xi, tol: frequency_count(
        spectral_support(xi, 5, HEISENBERG), tol)),
}


@pytest.mark.parametrize("entry", list(_TOLERANCE_ENTRIES))
def test_a_nan_infinite_or_negative_tolerance_is_rejected(xi, entry):
    name, call = _TOLERANCE_ENTRIES[entry]
    for bad in (-1e-8, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"{name}=.* must be finite and non-negative"):
            call(xi, bad)


def test_non_finite_times_are_rejected(chi):
    for bad in (np.array([0.0, np.inf]), np.array([0.0, np.nan]), np.array([-np.inf])):
        with pytest.raises(ValueError, match="finite"):
            return_probability(chi, 6, XXZ_FERRO, bad)
        with pytest.raises(ValueError, match="finite"):
            evolve_probabilities(chi, 5, HEISENBERG, bad)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(1.0, 8.0),
    jz_over_j=st.floats(-3.0, 3.0),
    angles=st.tuples(*(st.floats(0.0, math.pi) if i % 2 == 0 else st.floats(0.0, 2 * math.pi)
                       for i in range(4))),
    M=st.sampled_from((3, 4, 5, 6, -3, -4, -5, -6)),
    phase_seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_evolution_properties_at_random_couplings(
    plain_evolution, alpha, jz_over_j, angles, M, phase_seed
):
    params = ModelParams(alpha=alpha, jz_over_j=jz_over_j)
    state = product_state(angles[:2], angles[2:])
    if phase_seed is not None:
        # random phase per configuration: no longer symmetric, so degenerate
        # clusters carry independent real and imaginary parts (two columns)
        kick = np.exp(2j * np.pi * np.random.default_rng(phase_seed).random(4096))
        state = StateVector(amps=state.amps * kick, sector=None)
    assume(project_sector(state, M)[1] > 1e-8)
    times = np.linspace(0.0, 1.0, 21)
    # a cache of its own, so random couplings do not evict the spectra other tests share
    own_cache = lru_cache(maxsize=2)(_diagonalize_sector.__wrapped__)
    with mock.patch("hexstar.dynamics.diagonalize_sector", own_cache):
        traj = evolve_probabilities(state, M, params, times)
        mirror = evolve_probabilities(spin_flip(state), -M, params, times)
        support = spectral_support(state, M, params)

    assert np.abs(traj.probs.sum(axis=0) - 1.0).max() < 1e-10

    rows = sector_basis(-M).index_of[sector_basis(M).configs ^ 4095]
    assert np.abs(mirror.probs[rows] - traj.probs).max() < 1e-12

    reference = plain_evolution(state, params, times, sectors=(M,))[M]
    assert np.abs(reference - traj.probs).max() < 1e-12

    for field in ("overlap", "energies", "basis", "col_cluster", "coef"):
        assert np.array_equal(getattr(support, field), getattr(traj.support, field)), field


def _per_row_probabilities(state, M, params, times):
    """Oracle: every configuration's own row of the evolved modes, in the library's real formula.

    a = basis * coef summed per cluster, theta = -2 pi E t, and
    (a_r . cos - a_i . sin)^2 + (a_r . sin + a_i . cos)^2, with a_i left out
    for a real state, as the library evaluates its class rows.
    """
    modes = spectral_support(state, M, params, support_tol=EVOLVE_FLOOR)
    theta = -2.0 * np.pi * np.outer(modes.energies, times)
    cos, sin = np.cos(theta), np.sin(theta)
    scaled = modes.basis * (modes.coef if np.iscomplexobj(state.amps) else modes.coef.real)
    a = np.zeros((len(modes.basis), len(modes.energies)), dtype=scaled.dtype)
    for k in range(len(modes.energies)):
        a[:, k] = scaled[:, modes.col_cluster == k].sum(axis=1)
    re, im = a.real @ cos, a.real @ sin
    if np.iscomplexobj(a):
        re, im = re - a.imag @ sin, im + a.imag @ cos
    return re**2 + im**2


def _complex_per_row_probabilities(state, M, params, times):
    """Oracle: every configuration's own row of the evolved modes, basis @ (coef * phase)."""
    modes = spectral_support(state, M, params, support_tol=EVOLVE_FLOOR)
    phase = np.exp(-2j * np.pi * np.outer(modes.energies[modes.col_cluster], times))
    amps = modes.basis @ (modes.coef[:, None] * phase)
    return amps.real**2 + amps.imag**2


@pytest.mark.parametrize("spec, M, params, support_tol", [
    ("chi", 0, HEISENBERG, SUPPORT_TOL),
    ("xi", 0, XXZ_FERRO, SUPPORT_TOL),
    ("zeta:1,0.3,2,1.1", 1, HEISENBERG, SUPPORT_TOL),
    ("config:3930", -2, XXZ_FERRO, SUPPORT_TOL),
    ("chi", 0, HEISENBERG, 0.05),
], ids=["chi-0", "xi-0", "zeta-1", "config-m2", "chi-0-tol"])
def test_class_rows_match_the_per_row_evolution(spec, M, params, support_tol,
                                                xxz_spectra, heisenberg_spectra):
    state = build_initial_state(parse_state_spec(spec))
    times = np.linspace(0.0, 1.0, 201)
    traj = evolve_probabilities(state, M, params, times, support_tol=support_tol)
    oracle = _per_row_probabilities(state, M, params, times)
    deviation = float(np.abs(traj.probs - oracle).max())
    assert deviation < 1e-12
    assert deviation <= traj.broadcast_bound
    # the real formula is the complex mode sum up to rounding
    complex_oracle = _complex_per_row_probabilities(state, M, params, times)
    assert float(np.abs(traj.probs - complex_oracle).max()) < 1e-12
    # one evolved row per class, shared bit for bit by its members
    assert traj.class_probs.shape == (traj.row_class.max() + 1, len(times))
    assert np.array_equal(traj.probs, traj.class_probs[traj.row_class])
    for k in range(len(traj.class_probs)):
        members = traj.probs[traj.row_class == k]
        assert (members == members[0]).all()
    # the reported classes are those of the support at support_tol
    support = spectral_support(state, M, params, support_tol=support_tol)
    assert [c.tolist() for c in traj.classes] == \
        [c.tolist() for c in equiprobability_classes(support)]


@pytest.mark.parametrize("class_tol", [0.1, 0.3])
def test_broadcast_bound_holds_when_classes_merge_unequal_rows(chi, monkeypatch, class_tol,
                                                               heisenberg_spectra):
    # a coarse class tolerance merges rows that differ, so the broadcast changes them
    monkeypatch.setattr(dynamics, "CLASS_TOL", class_tol)
    times = np.linspace(0.0, 1.0, 201)
    traj = evolve_probabilities(chi, 0, HEISENBERG, times)
    deviation = float(np.abs(traj.probs - _per_row_probabilities(chi, 0, HEISENBERG, times)).max())
    assert 1e-3 < deviation <= traj.broadcast_bound


def test_coarse_support_keeps_the_evolved_classes(chi, heisenberg_spectra):
    times = np.linspace(0.0, 1.0, 11)
    loose = evolve_probabilities(chi, 0, HEISENBERG, times, support_tol=0.05)
    tight = evolve_probabilities(chi, 0, HEISENBERG, times)
    # 0.05 drops modes, yet the evolution still tells their rows apart
    assert loose.support.basis.shape[1] < tight.support.basis.shape[1]
    assert np.array_equal(loose.row_class, tight.row_class)
    assert np.array_equal(loose.probs, tight.probs)


def test_return_probability_needs_no_mode_basis(chi, monkeypatch):
    times = np.linspace(0.0, 1.0, 11)
    expected = return_probability(chi, 4, HEISENBERG, times)

    def no_modes(*args, **kwargs):
        raise AssertionError("return_probability built the mode basis")

    monkeypatch.setattr(dynamics, "_sector_modes", no_modes)
    assert np.array_equal(return_probability(chi, 4, HEISENBERG, times), expected)


def test_a_phase_that_overflows_is_rejected(xi, chi):
    for t_max in (1e308, -1e308):
        times = np.array([0.0, t_max])
        with pytest.raises(ValueError, match="every phase 2 pi E t is finite"):
            return_probability(chi, 5, HEISENBERG, times)
        with pytest.raises(ValueError, match="every phase 2 pi E t is finite"):
            evolve_probabilities(xi, 5, HEISENBERG, times)


@pytest.mark.filterwarnings("error")
def test_phase_factors_are_the_plain_exponential_inside_the_float_range(xi):
    rng = np.random.default_rng(5)
    energies = np.concatenate([[0.0, -0.0], rng.uniform(-20.0, 20.0, 40)])
    times = np.concatenate([[0.0, 1e306, -1e306], rng.uniform(-1e3, 1e3, 30)])
    expected = np.exp(-2j * np.pi * np.outer(energies, times))
    cos, sin = dynamics._phase_parts(energies, times)
    assert np.array_equal(cos, expected.real)
    assert np.array_equal(sin, expected.imag)
    traj = evolve_probabilities(xi, 5, HEISENBERG, np.array([0.0, 1e306]))
    assert np.isfinite(traj.probs).all()


def _complex_m5(initial, alpha, jz_over_j, times):
    """The complex route of m5_probabilities: an e^{i theta} table and one complex product."""
    start = np.array([1.0, 0.0]) if initial == "outer" else np.array([1.0, 1.0]) / math.sqrt(2.0)
    evals, evecs = np.linalg.eigh(m5_block(alpha, jz_over_j).matrix)
    coef = evecs.T @ start
    amp = evecs @ (coef[:, None] * np.exp(-2j * np.pi * np.outer(evals, times)))
    return (amp[0].real**2 + amp[0].imag**2) / 6, (amp[1].real**2 + amp[1].imag**2) / 6


def _clear_memo():
    """Empty the two dynamics caches: the last cluster overlaps and the last phase table."""
    dynamics._solved_overlaps.cache_clear()
    dynamics._phases.cache_clear()


def test_every_evolution_reads_one_real_phase_table_and_one_kernel(chi):
    times = np.linspace(0.0, 50.0, 2001)
    phases = mock.Mock(wraps=dynamics._phase_parts)
    power = mock.Mock(wraps=dynamics._power)
    _clear_memo()
    with mock.patch.multiple(dynamics, _phase_parts=phases, _power=power), \
            mock.patch.multiple(analytic, _phase_parts=phases, _power=power):
        return_probability(chi, 4, HEISENBERG, times)
        assert (phases.call_count, power.call_count) == (1, 1)
        evolve_probabilities(chi, 4, HEISENBERG, times)  # the return's phases, from the memo
        assert (phases.call_count, power.call_count) == (1, 2)
        for alpha in (2.0, 3.3):
            for initial in ("outer", "symmetric"):
                calls = phases.call_count, power.call_count
                got = analytic.m5_probabilities(initial, alpha, 0.37, times)
                assert (phases.call_count, power.call_count) == (calls[0] + 1, calls[1] + 1)
                for p, q in zip(got, _complex_m5(initial, alpha, 0.37, times)):
                    assert np.array_equal(p, q), (alpha, initial)


def test_an_evolve_and_a_return_hit_each_dynamics_cache_once(chi):
    # the return reads the evolve's overlaps and phase table from the two
    # caches; a cold start's rule, cache_clear on every module attribute that
    # has one, empties both
    times = np.linspace(0.0, 1.0, 21)
    caches = (dynamics._solved_overlaps, dynamics._phases)
    _clear_memo()
    evolve_probabilities(chi, 1, HEISENBERG, times)
    return_probability(chi, 1, HEISENBERG, times)
    for cache in caches:
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    for obj in list(vars(dynamics).values()):
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]


def _fresh(fn, *args, **kwargs):
    """fn with the dynamics memo emptied first: the oracle for every memo test."""
    _clear_memo()
    return fn(*args, **kwargs)


def _assert_same_trajectory(got, expected):
    for field in ("class_probs", "row_class", "probs", "times"):
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    assert got.broadcast_bound == expected.broadcast_bound
    assert got.sector_weight == expected.sector_weight
    assert [c.tolist() for c in got.classes] == [c.tolist() for c in expected.classes]


@pytest.mark.parametrize("evolve_first", [True, False], ids=["evolve-return", "return-evolve"])
def test_an_evolve_and_a_return_share_one_decomposition(evolve_first, heisenberg_spectra):
    state = build_initial_state(parse_state_spec("zeta:1,0.3,2,1.1"))
    times = np.linspace(0.0, 1.0, 201)
    args = (state, 0, HEISENBERG, times)
    traj_alone = _fresh(evolve_probabilities, *args)
    ret_alone = _fresh(return_probability, *args)
    _clear_memo()
    with mock.patch.object(dynamics, "_phase_parts", wraps=dynamics._phase_parts) as phases, \
            mock.patch.object(dynamics, "diagonalize_sector",
                              wraps=dynamics.diagonalize_sector) as spectra:
        if evolve_first:
            traj = evolve_probabilities(*args)
            ret = return_probability(*args)
        else:
            ret = return_probability(*args)
            traj = evolve_probabilities(*args)
    assert phases.call_count == spectra.call_count == 1
    _assert_same_trajectory(traj, traj_alone)
    assert np.array_equal(ret, ret_alone)


def test_the_memo_reads_the_amplitudes_not_the_state_object(chi):
    state = StateVector(amps=chi.amps.copy(), sector=None)
    times = np.linspace(0.0, 1.0, 51)
    before = _fresh(evolve_probabilities, state, 3, HEISENBERG, times)
    state.amps[:] = np.roll(state.amps, 1)
    traj = evolve_probabilities(state, 3, HEISENBERG, times)
    ret = return_probability(state, 3, HEISENBERG, times)
    assert not np.array_equal(traj.probs, before.probs)
    _assert_same_trajectory(traj, _fresh(evolve_probabilities, state, 3, HEISENBERG, times))
    assert np.array_equal(ret, _fresh(return_probability, state, 3, HEISENBERG, times))


@pytest.mark.parametrize("change", ["t_max", "params", "deg_tol_rel", "sector_sign"])
def test_the_memo_misses_when_any_input_changes(change, xxz_spectra):
    # row for row the same amplitudes in M = 3 and M = -3: the two sector
    # components are the same array bit for bit, and only M tells them apart
    v = np.random.default_rng(7).normal(size=sector_basis(3).dim)
    amps = np.zeros(4096)
    amps[sector_basis(3).configs] = amps[sector_basis(-3).configs] = v
    state = StateVector(amps=amps, sector=None)
    base = dict(M=3, params=XXZ_FERRO, times=np.linspace(0.0, 1.0, 51),
                deg_tol_rel=dynamics.DEG_TOL_RELATIVE)
    other = dict(base, **{
        "t_max": {"times": np.linspace(0.0, 2.0, 51)},
        "params": {"params": ModelParams(alpha=6.0, jz_over_j=-2.0)},
        "deg_tol_rel": {"deg_tol_rel": 1e-2},
        "sector_sign": {"M": -3},
    }[change])

    def run(kw):
        args = (state, kw["M"], kw["params"], kw["times"])
        return (evolve_probabilities(*args, deg_tol_rel=kw["deg_tol_rel"]),
                return_probability(*args, deg_tol_rel=kw["deg_tol_rel"]))

    _clear_memo()
    first = run(base)
    traj, ret = run(other)
    _clear_memo()
    traj_alone, ret_alone = run(other)
    assert not (np.array_equal(traj.probs, first[0].probs) and np.array_equal(ret, first[1]))
    _assert_same_trajectory(traj, traj_alone)
    assert np.array_equal(ret, ret_alone)


def test_the_memo_arrays_are_read_only(chi):
    times = np.linspace(0.0, 1.0, 11)
    evolve_probabilities(chi, 2, HEISENBERG, times)
    overlaps = dynamics._cluster_overlaps(chi, 2, HEISENBERG, dynamics.DEG_TOL_RELATIVE)[2]
    hits = dynamics._phases.cache_info().hits
    for part in dynamics._phase_table(overlaps.energies, times):  # the evolve's cos and sin
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 0.0
    assert dynamics._phases.cache_info().hits == hits + 1
    for array in overlaps:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def _overlap_states():
    """States that meet few blocks (chi, a complex zeta) and all blocks (random: real, complex)."""
    rng = np.random.default_rng(11)
    plain = rng.normal(size=4096)
    return (build_initial_state(parse_state_spec("chi")),
            build_initial_state(parse_state_spec("zeta:1,0.3,2,1.1")),
            StateVector(amps=plain, sector=None),
            StateVector(amps=plain * np.exp(2j * np.pi * rng.random(4096)), sector=None))


def _assert_block_form_is_the_dense_oracle(state, M, params, res):
    """z per cluster, P_c psi, the kept clusters, the modes and the classes against V's columns."""
    component, weight = project_sector(state, M)
    psi = component.amps / np.sqrt(weight)  # ||psi|| = 1, so 1e-13 is 1e-13 ||psi||
    _clear_memo()
    with mock.patch.object(dynamics, "diagonalize_sector", lambda *args: res):
        overlaps = dynamics._cluster_overlaps(state, M, params, DEG_TOL_RELATIVE)[2]
        modes = dynamics._sector_modes(state, M, params, DEG_TOL_RELATIVE)[0]
    dense = dense_cluster_overlaps(res, psi)
    for c, (z, _) in zip(res.clusters, dense):
        assert np.abs(overlaps.z[c.indices] - z).max() <= 1e-13
    kept, basis, col_cluster, coef = dense_modes(dense, EVOLVE_FLOOR)
    assert [k for k, c in enumerate(res.clusters) if overlaps.slot[c.indices[0]] >= 0] == kept
    proj = dynamics._projections(res, overlaps)
    assert np.abs(proj - np.stack([dense[k][1] for k in kept], axis=1)).max() <= 1e-13
    assert np.array_equal(modes.col_cluster, col_cluster)
    # the modes rebuild each P_c psi: sum of basis * coef over the cluster's columns
    rebuilt = np.zeros(proj.shape, dtype=complex)
    np.add.at(rebuilt.T, modes.col_cluster, (modes.basis * modes.coef).T)
    assert np.abs(rebuilt - proj).max() <= 1e-13
    oracle = SpectralSupport(M=M, overlap=np.array([np.linalg.norm(dense[k][0]) for k in kept]),
                             energies=np.array([res.clusters[k].energy for k in kept]),
                             basis=basis, col_cluster=col_cluster, coef=coef,
                             support_tol=EVOLVE_FLOOR)
    assert np.array_equal(modes.energies, oracle.energies)
    assert np.abs(modes.overlap - oracle.overlap).max() <= 1e-13
    for tol in (EVOLVE_FLOOR, SUPPORT_TOL):
        got, want = modes.restrict(tol), oracle.restrict(tol)
        assert np.array_equal(got.energies, want.energies)
        assert np.array_equal(got.col_cluster, want.col_cluster)
        assert [c.tolist() for c in equiprobability_classes(got)] == \
            [c.tolist() for c in equiprobability_classes(want)]


@pytest.mark.parametrize("params", [HEISENBERG, XXZ_FERRO, ModelParams(alpha=3.7, jz_over_j=0.4)],
                         ids=["heisenberg", "xxz", "alpha3.7"])
def test_block_form_overlaps_match_the_dense_columns(params):
    states = _overlap_states()
    for M in range(-6, 7):
        res = diagonalize_sector(M, params)  # one result, so its dense columns are built once
        for state in states:
            if project_sector(state, M)[1] > 0.0:
                _assert_block_form_is_the_dense_oracle(state, M, params, res)


def test_block_form_reads_its_own_blocks_after_a_read_and_for_a_negative_sector():
    params = ModelParams(alpha=3.7, jz_over_j=0.4)
    times = np.linspace(0.0, 1.0, 51)
    solve = _diagonalize_sector.__wrapped__  # fresh results, outside the cache
    for M in (-5, -2, 0, 3):
        states = [s for s in _overlap_states() if project_sector(s, M)[1] > 0.0]
        results = [solve(M, params, DEG_TOL_RELATIVE)]  # M < 0: solved on its own blocks
        if M < 0:
            up = solve(-M, params, DEG_TOL_RELATIVE)
            results.append(spectrum._mirror_result(up))  # as diagonalize_sector(M) reads it
            assert_mirrored_blocks(results[-1], up)
        for res in results:
            _assert_reads_its_own_blocks(states, M, params, times, res)


def _assert_reads_its_own_blocks(states, M, params, times, res):
    """Trajectories from res's block form equal before and after its dense columns are built."""
    assert len(res.solved) > 0
    with mock.patch.object(dynamics, "diagonalize_sector", lambda *args: res):
        unread = [_fresh(evolve_probabilities, s, M, params, times) for s in states]
        res.eigenvectors  # builds the dense columns; the block form stays
        read = [_fresh(evolve_probabilities, s, M, params, times) for s in states]
    for got, expected in zip(read, unread):
        _assert_same_trajectory(got, expected)
    for state in states:
        _assert_block_form_is_the_dense_oracle(state, M, params, res)


def test_no_dynamics_path_flips_a_state(monkeypatch, xxz_spectra, heisenberg_spectra):
    # sector -M carries M's blocks read through the flip: psi and the projections stay put
    def tripwire(state):
        raise AssertionError(f"a sector {state.sector} state went through the spin flip")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "hexstar"]:
        if getattr(module, "spin_flip", None) is spin_flip:
            monkeypatch.setattr(module, "spin_flip", tripwire)
    times = np.linspace(0.0, 1.0, 51)
    for spec, M, params in [("xi", -5, XXZ_FERRO), ("xi", -1, HEISENBERG),
                            ("zeta:1,0.3,2,1.1", -3, HEISENBERG), ("config:3930", -2, XXZ_FERRO)]:
        state = build_initial_state(parse_state_spec(spec))
        _clear_memo()
        assert np.isfinite(evolve_probabilities(state, M, params, times).class_probs).all()
        _clear_memo()
        assert np.isfinite(return_probability(state, M, params, times)).all()
        _clear_memo()
        assert spectral_support(state, M, params).dim > 0


def test_no_dynamics_path_reads_the_dense_eigenvectors(monkeypatch, xxz_spectra,
                                                      heisenberg_spectra):
    def tripwire(self):
        raise AssertionError(f"sector {self.M}: the dense eigenvectors were read")

    monkeypatch.setattr(SpectrumResult, "eigenvectors", property(tripwire))
    times = np.linspace(0.0, 1.0, 101)
    for spec, M, params in [("xi", 0, XXZ_FERRO), ("chi", 0, HEISENBERG),
                            ("zeta:1,0.3,2,1.1", 3, HEISENBERG), ("config:3930", -2, XXZ_FERRO)]:
        state = build_initial_state(parse_state_spec(spec))
        _clear_memo()
        assert np.isfinite(evolve_probabilities(state, M, params, times).class_probs).all()
        assert np.isfinite(return_probability(state, M, params, times)).all()
        assert spectral_support(state, M, params).dim > 0
