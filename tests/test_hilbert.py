"""Configuration basis, sector decomposition, and initial states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexstar.hilbert import (
    N_CONFIGS,
    _POPCOUNT,
    StateSpec,
    StateVector,
    basis_state,
    build_initial_state,
    parse_state_spec,
    product_state,
    project_sector,
    sector_basis,
)
from hexstar.lattice import N_SITES
from reference import act_permutation, compose, spin_flip


def _magnetization(f: int) -> int:
    """Total magnetization quantum number M of configuration f."""
    return N_SITES // 2 - int(_POPCOUNT[f])


def test_sector_dimensions_are_binomials():
    total = 0
    for M in range(-6, 7):
        dim = sector_basis(M).dim
        assert dim == math.comb(12, 6 - M)
        total += dim
    assert total == N_CONFIGS


def test_sector_configs_sorted_and_consistent():
    for M in (-6, -2, 0, 3, 6):
        basis = sector_basis(M)
        assert np.all(np.diff(basis.configs) > 0)
        assert all(_magnetization(int(f)) == M for f in basis.configs)


def test_balanced_sector_endpoints():
    basis = sector_basis(0)
    assert basis.configs[0] == 63        # all six ↓ on the outer ring
    assert basis.configs[923] == 4032    # all six ↓ on the inner ring
    assert basis.index_of[63] == 0
    assert basis.index_of[4032] == 923


def test_index_of_roundtrip():
    basis = sector_basis(2)
    for k, f in enumerate(basis.configs):
        assert basis.index_of[f] == k


def test_magnetization_extremes():
    assert _magnetization(0) == 6
    assert _magnetization(N_CONFIGS - 1) == -6
    assert _magnetization(63) == 0


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        basis_state(-1)
    with pytest.raises(ValueError):
        basis_state(N_CONFIGS)


def test_a_sector_state_is_not_projected_again():
    component, _ = project_sector(basis_state(63), 0)
    with pytest.raises(ValueError, match="already restricted to a sector"):
        project_sector(component, 0)


def test_an_unknown_state_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown state kind 'bogus'"):
        build_initial_state(StateSpec(kind="bogus"))


def test_act_permutation_is_norm_preserving(group):
    rng = np.random.default_rng(11)
    v = StateVector(amps=rng.normal(size=N_CONFIGS), sector=None)
    for g in group:
        w = act_permutation(g, v)
        assert w.norm == pytest.approx(v.norm, rel=1e-14)


def test_act_permutation_respects_composition(group):
    rng = np.random.default_rng(12)
    v = StateVector(amps=rng.normal(size=sector_basis(4).dim), sector=4)
    for a in group[::5]:
        for b in group[::3]:
            one = act_permutation(a, act_permutation(b, v))
            two = act_permutation(compose(a, b, group), v)
            assert np.allclose(one.amps, two.amps, atol=1e-14)


def test_spin_flip_is_an_involution():
    rng = np.random.default_rng(13)
    v = StateVector(amps=rng.normal(size=sector_basis(3).dim), sector=3)
    w = spin_flip(v)
    assert w.sector == -3
    back = spin_flip(w)
    assert back.sector == 3
    assert np.array_equal(back.amps, v.amps)


def test_spin_flip_on_configurations():
    v = spin_flip(basis_state(0))
    assert v.amps[N_CONFIGS - 1] == 1.0 and v.norm == 1.0


def test_project_sector_resolves_identity():
    state = build_initial_state(parse_state_spec("xi"))
    weights = []
    pieces = np.zeros(N_CONFIGS, dtype=complex)
    for M in range(-6, 7):
        component, w = project_sector(state, M)
        weights.append(w)
        basis = sector_basis(M)
        pieces[basis.configs] += component.amps
    assert sum(weights) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(pieces, state.amps, atol=1e-14)


def test_sector_weights_are_binomial_for_xi():
    # every site lies in the equatorial plane, so each of the 4096
    # configurations carries weight 2^-12
    state = build_initial_state(parse_state_spec("xi"))
    for M in range(-6, 7):
        _, w = project_sector(state, M)
        assert w == pytest.approx(math.comb(12, 6 - M) / 4096, rel=1e-12)


def test_chi_support():
    # inner spins point up, so only outer-flip configurations appear
    state = build_initial_state(parse_state_spec("chi"))
    support = np.nonzero(state.amps)[0]
    assert support.max() < 64
    assert len(support) == 64
    assert np.abs(state.amps[support]) == pytest.approx(2.0 ** -3)


def test_parse_state_spec_shapes():
    assert parse_state_spec("xi").kind == "xi"
    assert parse_state_spec("chi").kind == "chi"
    spec = parse_state_spec("zeta:0.1,0.2,0.3,0.4")
    assert spec.kind == "zeta"
    assert spec.outer == (0.1, 0.2) and spec.inner == (0.3, 0.4)
    assert parse_state_spec("config:63").config == 63


def test_parse_state_spec_rejections():
    for bad in ("zeta:1,2", "config:4096", "config:x", "nonsense", ""):
        with pytest.raises(ValueError):
            parse_state_spec(bad)
    for bad, named in (("zeta:nan,0,1,1", "theta_out=nan"),
                       ("zeta:0,1,-inf,2", "theta_in=-inf")):
        with pytest.raises(ValueError, match=f"must be finite: {named}"):
            parse_state_spec(bad)


def test_xi_is_uniform_in_magnitude():
    state = build_initial_state(parse_state_spec("xi"))
    assert np.abs(state.amps) == pytest.approx(2.0 ** -6)
    assert state.norm == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(*(st.floats(0.0, math.pi) if i % 2 == 0 else st.floats(0.0, 2 * math.pi)
                for i in range(4)))
)
def test_product_states_are_normalized(angles):
    state = product_state((angles[0], angles[1]), (angles[2], angles[3]))
    assert state.norm == pytest.approx(1.0, rel=1e-12)
    total = sum(project_sector(state, M)[1] for M in range(-6, 7))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_config_state_lives_in_one_sector():
    state = build_initial_state(parse_state_spec("config:63"))
    _, w = project_sector(state, 0)
    assert w == 1.0
    _, w1 = project_sector(state, 1)
    assert w1 == 0.0
