"""Measurement-probability trajectories and their statistics."""

import dataclasses
import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexstar import dynamics
from hexstar.analytic import gap
from hexstar.dynamics import (
    CLASS_TOL,
    EVOLVE_FLOOR,
    SpectralSupport,
    collapse_metrics,
    equiprobability_classes,
    evolve_probabilities,
    regime_classifier,
    return_probability,
    spectral_support,
)
from hexstar.hamiltonian import HEISENBERG, XXZ_FERRO, ModelParams
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
from hexstar.spectrum import SUPPORT_TOL, _diagonalize_sector

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
    total = sum(w**2 for _, w in support.entries)
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
    tied = dataclasses.replace(traj, probs=probs, times=np.array([0.0, 1.0]))
    metrics = collapse_metrics(tied)
    assert metrics.initial_outcome == 0
    assert metrics.initial_prob == 1.0 / 3.0


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
    support = SpectralSupport(M=0, first=np.zeros(1, dtype=int), overlap=np.ones(1),
                              energies=np.zeros(1), basis=rows,
                              col_cluster=np.zeros(n, dtype=int),
                              coef=np.zeros(n, dtype=complex), support_tol=0.0)
    assert [c.tolist() for c in equiprobability_classes(support)] == _first_fit_classes(rows)


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

    assert support.entries == traj.support.entries
    for field in ("energies", "basis", "col_energy", "coef"):
        assert np.array_equal(getattr(support, field), getattr(traj.support, field)), field


def _per_row_probabilities(state, M, params, times):
    """Oracle: every configuration's own row of the evolved modes, basis @ (coef * phase)."""
    modes = spectral_support(state, M, params, support_tol=EVOLVE_FLOOR)
    phase = np.exp(-2j * np.pi * np.outer(modes.col_energy, times))
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
    assert np.array_equal(dynamics.phase_factors(energies, times), expected)
    traj = evolve_probabilities(xi, 5, HEISENBERG, np.array([0.0, 1e306]))
    assert np.isfinite(traj.probs).all()
