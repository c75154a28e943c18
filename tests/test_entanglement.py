"""Schmidt ranks across bipartitions of the twelve sites."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexstar.entanglement import (
    SVD_CHUNK, SVD_TOL, _cut_matrix, _orbit_scan, _product_distance, _ranks, is_entangled,
)
from hexstar.symmetry import STABILIZER_TOL, stabilizer
from hexstar.hamiltonian import ModelParams
from hexstar.hilbert import (
    StateVector,
    basis_state,
    build_initial_state,
    parse_state_spec,
    sector_basis,
)
from hexstar.spectrum import diagonalize_sector

from reference import full_scan_ranks

FULL_MASK = (1 << 12) - 1


def _schmidt_number(state: StateVector, mask: int, tol: float = SVD_TOL) -> int:
    """Schmidt rank of a full-space state across the bipartition ``mask``."""
    if state.sector is not None:
        raise ValueError("schmidt_number expects a full-space state")
    if not 0 < mask < FULL_MASK:
        raise ValueError("mask must put at least one site on each side")
    matrix = _cut_matrix(state.amps.reshape((2,) * 12), mask)
    return int(_ranks(np.linalg.svd(matrix, compute_uv=False), tol))


def _embedded_ground_state(jz_over_j: float) -> StateVector:
    res = diagonalize_sector(0, ModelParams(6.0, jz_over_j))
    basis = sector_basis(0)
    amps = np.zeros(1 << 12)
    amps[basis.configs] = res.eigenvectors[:, 0]
    return StateVector(amps=amps, sector=None)


def test_configuration_states_are_products():
    report = is_entangled(basis_state(63))
    assert not report.entangled
    assert report.min_rank == report.max_rank == 1
    assert len(report.ranks) == (1 << 11) - 1


def test_factorized_states_are_products():
    for spec in ("xi", "chi", "zeta:0.7,0.3,2.1,5.0"):
        report = is_entangled(build_initial_state(parse_state_spec(spec)))
        assert not report.entangled, spec
        assert report.max_rank == 1


def test_singlet_pair_cuts():
    # a two-site singlet on the adjacent tips 0 and 1, everything else up
    amps = np.zeros(1 << 12)
    amps[1 << 0] = 1.0 / math.sqrt(2.0)
    amps[1 << 1] = -1.0 / math.sqrt(2.0)
    state = StateVector(amps=amps, sector=None)
    assert _schmidt_number(state, 1 << 0) == 2       # separates the pair
    assert _schmidt_number(state, (1 << 0) | (1 << 1)) == 1
    assert _schmidt_number(state, 1 << 5) == 1       # spectator site
    report = is_entangled(state)
    assert report.entangled is False                # one product cut suffices
    assert report.min_rank == 1 and report.max_rank == 2


def test_rank_is_complement_invariant():
    rng = np.random.default_rng(41)
    amps = rng.normal(size=1 << 12)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps=amps, sector=None)
    for mask in (0b1, 0b111000111, 0b10101010101):
        assert _schmidt_number(state, mask) == _schmidt_number(state, FULL_MASK ^ mask)


def test_random_state_is_heavily_entangled():
    rng = np.random.default_rng(42)
    amps = rng.normal(size=1 << 12)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps=amps, sector=None)
    # a generic vector saturates the rank bound on every cut
    assert _schmidt_number(state, 0b1) == 2
    assert _schmidt_number(state, 0b111111) == 64


def test_balanced_ground_states_are_entangled():
    for jz in (0.0, 1.0, 3.0):
        report = is_entangled(_embedded_ground_state(jz))
        assert report.entangled, jz
        assert report.min_rank >= 2


def test_heisenberg_ground_state_ranks():
    report = is_entangled(_embedded_ground_state(1.0))
    assert report.min_rank == 2
    assert report.max_rank == 64


def test_mask_bounds_are_enforced():
    state = basis_state(0)
    for bad in (0, FULL_MASK, -1, 1 << 12):
        with pytest.raises(ValueError):
            _schmidt_number(state, bad)


def test_sector_states_are_rejected():
    sector_state = StateVector(amps=np.ones(12) / math.sqrt(12.0), sector=5)
    with pytest.raises(ValueError):
        _schmidt_number(sector_state, 1)
    with pytest.raises(ValueError):
        is_entangled(sector_state)


def _gathered_cut_matrix(amps, mask):
    """Reference: place every amplitude by its part-A and part-B bit strings."""
    configs = np.arange(1 << 12)
    a_sites = [i for i in range(12) if not (mask >> i) & 1]
    b_sites = [i for i in range(12) if (mask >> i) & 1]
    rows = np.zeros(1 << 12, dtype=np.int64)
    cols = np.zeros(1 << 12, dtype=np.int64)
    for k, site in enumerate(a_sites):
        rows |= ((configs >> site) & 1) << k
    for k, site in enumerate(b_sites):
        cols |= ((configs >> site) & 1) << k
    matrix = np.zeros((1 << len(a_sites), 1 << len(b_sites)), dtype=amps.dtype)
    matrix[rows, cols] = amps
    return matrix


def test_cut_matrices_match_the_bit_gather():
    rng = np.random.default_rng(43)
    amps = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
    tensor = amps.reshape((2,) * 12)
    for mask in (1, 1 << 11, 0b101, 0b111000111, 0b10101010101, FULL_MASK ^ 1, 2047, 2048):
        assert np.array_equal(_cut_matrix(tensor, mask), _gathered_cut_matrix(amps, mask)), mask


def _random_state(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "real":
        amps = rng.normal(size=1 << 12)
    elif kind == "complex":
        amps = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
    elif kind == "product":
        # random states of the two parts of a random cut: rank one there only
        mask = int(rng.integers(1, FULL_MASK))
        a = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
        b = rng.normal(size=1 << 12) + 1j * rng.normal(size=1 << 12)
        configs = np.arange(1 << 12)
        amps = a[configs & ~mask & FULL_MASK] * b[configs & mask]
    else:
        M = int(rng.integers(-6, 7))
        basis = sector_basis(M)
        amps = np.zeros(1 << 12)
        amps[basis.configs] = rng.normal(size=basis.dim)
    return StateVector(amps=amps / np.linalg.norm(amps), sector=None)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(("real", "complex", "product", "sector")), st.integers(0, 2**32 - 1))
def test_scan_ranks_match_single_cuts(kind, seed):
    state = _random_state(kind, seed)
    report = is_entangled(state)
    assert list(report.ranks) == list(range(1, 1 << 11))
    assert report.ranks == {mask: _schmidt_number(state, mask) for mask in report.ranks}
    if kind == "product":
        assert report.min_rank == 1


def _named_state(spec):
    """A state spec of the CLI, or ground:<Jz/J> for the embedded M = 0 ground state."""
    kind, _, rest = spec.partition(":")
    if kind == "ground":
        return _embedded_ground_state(float(rest))
    return build_initial_state(parse_state_spec(spec))


@pytest.mark.parametrize("spec, order, orbits", [
    ("ground:0", 12, 209), ("ground:1", 12, 209), ("ground:3", 12, 209),
    ("zeta:1,0.3,2,1.1", 12, 209),
    ("config:1365", 3, 687),   # sites 0 2 4 6 8 10 down: the rotations by 120 degrees
    ("config:819", 1, 2047),   # a trivial stabilizer: every cut is its own orbit
])
def test_orbit_scan_matches_the_full_scan(spec, order, orbits):
    state = _named_state(spec)
    report = is_entangled(state)
    assert (report.stabilizer_order, report.cut_orbits) == (order, orbits)
    assert list(report.ranks) == list(range(1, 1 << 11))
    assert report.ranks == full_scan_ranks(state)


def test_stabilizer_margins_leave_room_on_both_sides():
    # kept permutations deviate at rounding level, rejected ones at order one
    for jz in (0.0, 1.0, 3.0):
        stab = stabilizer(_embedded_ground_state(jz))
        assert len(stab.perms) == 12 and stab.rejected_margin is None
        assert stab.kept_margin < 1e-2
    for f, order in ((63, 12), (1365, 3), (819, 1)):
        stab = stabilizer(basis_state(f))
        assert len(stab.perms) == order and stab.kept_margin == 0.0
        if order < 12:
            assert stab.rejected_margin == 1 / STABILIZER_TOL
    assert stabilizer(basis_state(63)).perms[0] == tuple(range(12))


@pytest.mark.parametrize("base, f", [
    # sites 0-5 down, plus 1e-9 on sites 1-6 down: the rank is 2 exactly on
    # the cuts that separate sites 0 and 6, a pair no other permutation keeps
    ("config:63", 0b000001111110),
    ("ground:1", 0b000111000111),  # sites 0 1 2 6 7 8 down, in the state's sector
])
def test_a_near_symmetry_is_not_taken_for_an_exact_one(base, f):
    amps = _named_state(base).amps.copy()
    amps[f] += 1e-9
    near = StateVector(amps=amps, sector=None)
    report = is_entangled(near)
    assert report.stabilizer_order < 12
    assert report.stabilizer_rejected_margin > 5e2  # 1e-9 of max|psi| or more moved
    assert report.ranks == {mask: _schmidt_number(near, mask) for mask in report.ranks}


def test_a_stabilizer_needs_a_full_space_state():
    with pytest.raises(ValueError):
        stabilizer(StateVector(amps=np.ones(12) / math.sqrt(12.0), sector=5))


def _spinor_product(spinors) -> np.ndarray:
    """Amplitudes of the product of one spinor per site, site 0 the lowest bit."""
    amps = np.ones(1)
    for spinor in reversed(spinors):
        amps = np.kron(amps, spinor)
    return amps


def _svd_spy(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of the stack of every np.linalg.svd call."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


@settings(max_examples=8, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(("dense", "single")),
    st.floats(-15.0, -8.0),
    st.sampled_from(("zero", "default", "below", "above")),
)
def test_the_product_bound_keeps_the_full_scan_ranks(seed, complex_, kind, exponent, tol_kind):
    # a random product (a trivial stabilizer, so the orbit scan is the
    # per-cut scan) plus a perturbation of relative size 10^exponent
    rng = np.random.default_rng(seed)
    spinors = rng.normal(size=(12, 2)) + (1j * rng.normal(size=(12, 2)) if complex_ else 0.0)
    amps = _spinor_product(spinors)
    amps /= np.linalg.norm(amps)
    if kind == "dense":
        noise = rng.normal(size=amps.shape) + (1j * rng.normal(size=amps.shape) if complex_ else 0.0)
        amps = amps + 10.0**exponent * noise / np.linalg.norm(noise)
    else:
        amps[int(rng.integers(1 << 12))] += 10.0**exponent
    state = StateVector(amps=amps, sector=None)
    # the tolerance at which the product margin reads 1
    norm, eps = _product_distance(amps.reshape((2,) * 12))
    threshold = 2 * eps / (norm - 2 * eps)
    tol = {"zero": 0.0, "default": SVD_TOL,
           "below": 0.99 * threshold, "above": 1.01 * threshold}[tol_kind]
    report = is_entangled(state, tol)
    assert report.ranks == full_scan_ranks(state, tol)
    if report.product_margin is not None and report.product_margin < 1:
        assert report.max_rank == 1


@pytest.mark.parametrize("spec", ["xi", "zeta:1,0.3,2,1.1", "config:3930"])
def test_a_certified_product_takes_one_svd(monkeypatch, spec):
    state = _named_state(spec)
    shapes = _svd_spy(monkeypatch)
    report = is_entangled(state)
    assert shapes == [(12, 2, 1 << 11)]
    assert report.product_margin < 1 and report.max_rank == 1


@pytest.mark.parametrize("spec, f", [("ground:1", None), ("config:63", 0b000001111110)])
def test_an_uncertified_state_takes_one_svd_per_orbit(monkeypatch, spec, f):
    state = _named_state(spec)
    if f is not None:
        amps = state.amps.copy()
        amps[f] += 1e-9
        state = StateVector(amps=amps, sector=None)
    shapes = _svd_spy(monkeypatch)
    report = is_entangled(state)
    assert report.product_margin is None or report.product_margin >= 1
    assert shapes[0] == (12, 2, 1 << 11)
    assert all(shape[0] <= SVD_CHUNK for shape in shapes[1:])
    assert sum(shape[0] for shape in shapes[1:]) == report.cut_orbits


def test_the_rounding_allowance_keeps_the_bound_off_noise_level_tolerances(monkeypatch):
    # config:63 has exactly rank-one unfoldings: its whole bound is the
    # allowance of sqrt(12) x 64 ulps (64 per unfolding, twelve unfoldings),
    # which no tolerance below twice that, about 443 ulps, can clear
    eps = float(np.finfo(float).eps)
    allowance = np.sqrt(12) * 64 * eps
    state = basis_state(63)
    for tol in (SVD_TOL, 1e-13):
        margin = is_entangled(state, tol).product_margin
        assert margin == pytest.approx(2 * allowance / (tol * (1 - 2 * allowance)))
    shapes = _svd_spy(monkeypatch)
    report = is_entangled(state, 100 * eps)
    assert report.product_margin > 1 and len(shapes) > 1


@pytest.mark.parametrize("spec", ["xi", "chi", "zeta:1,0.3,2,1.1", "zeta:0.7,0.3,2.1,0", "config:3930"])
def test_the_product_bound_reads_the_ranks_the_orbit_scan_reads(spec):
    # from the default tolerance down past the rounding floor (3e-14 is about
    # where the bound starts to settle exact products), where the scan itself
    # counts noise and the bound must stand aside
    state = _named_state(spec)
    for tol in (SVD_TOL, 1e-13, 3e-14, 1e-15, 1e-16):
        scan = _orbit_scan(state.amps.reshape((2,) * 12), stabilizer(state).perms, tol)
        assert is_entangled(state, tol).ranks == scan, tol


def test_the_zero_state_has_rank_zero_on_every_cut():
    report = is_entangled(StateVector(amps=np.zeros(1 << 12), sector=None))
    assert set(report.ranks.values()) == {0}
    assert report.product_margin is None


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.nan)])
def test_non_finite_amplitudes_are_refused(bad):
    amps = build_initial_state(parse_state_spec("xi")).amps.astype(complex)
    amps[700] = bad
    amps[900] = np.nan
    with pytest.raises(ValueError, match="amplitude 700 is"):
        is_entangled(StateVector(amps=amps, sector=None))


@pytest.mark.parametrize("tol", [-1e-10, 1.0, 2.0, np.nan])
def test_a_tolerance_outside_zero_to_one_is_refused(tol):
    with pytest.raises(ValueError, match="tol"):
        is_entangled(basis_state(63), tol)
