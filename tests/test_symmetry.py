"""Symmetry classification: irrep censuses, projectors, state labels."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexstar import lattice, symmetry
from hexstar.hamiltonian import HEISENBERG, XXZ_FERRO, ModelParams, build_sector_hamiltonian
from hexstar.hilbert import (
    StateVector,
    _config_map,
    basis_state,
    product_state,
    sector_basis,
)
from hexstar.lattice import IRREP_DIMS, IRREP_LABELS, character_table
from hexstar.spectrum import _sector_levels
from hexstar.symmetry import (
    _group,
    irrep_blocks,
    irrep_counts,
    irrep_weights,
    multiplet_counts,
    orbit_layout,
    sector_character,
)
from reference import act_permutation, dense_rows, label_eigenvector

# Multiplicity of each irrep in the sectors M = 6 down to 0, counted once
# by the character sum and frozen here.  Negative M mirrors positive M.
IRREP_CENSUS = {
    "A1g": (0, 0, 3, 14, 35, 56, 70),
    "A2g": (1, 2, 9, 24, 50, 76, 90),
    "E2g": (0, 2, 12, 36, 85, 132, 156),
    "B1u": (0, 1, 5, 19, 40, 66, 76),
    "B2u": (0, 1, 5, 19, 40, 66, 76),
    "E1u": (0, 2, 10, 36, 80, 132, 150),
}

# Number of total-spin multiplets per irrep for S = 6 down to 0, from the
# difference rule applied to the census above.
MULTIPLET_CENSUS = {
    "A1g": (0, 0, 3, 11, 21, 21, 14),
    "A2g": (1, 1, 7, 15, 26, 26, 14),
    "E2g": (0, 2, 10, 24, 49, 47, 24),
    "B1u": (0, 1, 4, 14, 21, 26, 10),
    "B2u": (0, 1, 4, 14, 21, 26, 10),
    "E1u": (0, 2, 8, 26, 44, 52, 18),
}


@lru_cache(maxsize=64)
def _irrep_projector(irrep: str, M: int) -> np.ndarray:
    """Dense projector onto the irrep component of the sector."""
    group = _group()
    ct = character_table()
    basis = sector_basis(M)
    d = basis.dim
    proj = np.zeros((d, d))
    scale = ct.dims[irrep] / len(group)
    cols = np.arange(d)
    for g in group:
        rows = basis.index_of[_config_map(g.perm)[basis.configs]]
        proj[rows, cols] += scale * ct.chi(irrep, g.class_label) * g.parity
    trace = float(np.trace(proj))
    expected = ct.dims[irrep] * irrep_counts().counts[irrep][M]
    if abs(trace - expected) > 1e-8:
        raise RuntimeError(f"projector trace {trace} != {expected} for {irrep}, M={M}")
    proj.flags.writeable = False
    return proj


def _classify_factorized_state(state: StateVector) -> dict[str, float]:
    """Eigenvalue of each group element class on a (normalized) state.

    A two-ring product state is mapped to itself up to a sign by every
    element; the pattern of signs over the twelve classes identifies the
    one-dimensional irrep it carries.  Raises if some element fails to
    reproduce the state up to a scalar.
    """
    amps = state.amps / np.linalg.norm(state.amps)
    normalized = StateVector(amps=amps, sector=state.sector)
    signature: dict[str, float] = {}
    for g in _group():
        moved = act_permutation(g, normalized)
        lam = complex(np.vdot(amps, moved.amps))
        residual = float(np.linalg.norm(moved.amps - lam * amps))
        if residual > 1e-10:
            raise ValueError(f"state is not symmetry-adapted: element {g.name} "
                             f"moves it (residual {residual:.2e})")
        value = float(lam.real)
        prev = signature.get(g.class_label)
        if prev is not None and abs(prev - value) > 1e-10:
            raise ValueError(f"inconsistent eigenvalues within class {g.class_label}")
        signature[g.class_label] = value
    return signature


def _identify_one_dim_irrep(signature: dict[str, float]) -> str:
    """Match a class-eigenvalue signature against the 1D irrep characters."""
    ct = character_table()
    for r in ct.irreps:
        if ct.dims[r] != 1:
            continue
        if all(abs(signature[c] - ct.chi(r, c)) < 1e-8 for c in ct.classes):
            return r
    raise ValueError("signature does not match any retained one-dimensional irrep")


def test_irrep_census_matches_frozen_table():
    table = irrep_counts().counts
    for irrep, expected in IRREP_CENSUS.items():
        for M, n in zip(range(6, -1, -1), expected):
            assert table[irrep][M] == n, (irrep, M)


def test_irrep_census_is_mirror_symmetric():
    table = irrep_counts().counts
    for irrep in IRREP_LABELS:
        for M in range(1, 7):
            assert table[irrep][M] == table[irrep][-M]


def test_dimension_sum_rule():
    table = irrep_counts()
    for M in range(-6, 7):
        assert table.dimension_check(M) == sector_basis(M).dim


def test_multiplet_census_matches_frozen_table():
    table = multiplet_counts().multiplets
    for irrep, expected in MULTIPLET_CENSUS.items():
        for S, n in zip(range(6, -1, -1), expected):
            assert table[irrep][S] == n, (irrep, S)


def test_multiplets_resolve_the_census():
    # summing multiplets with S >= |M| must reproduce the sector census
    counts = irrep_counts().counts
    mult = multiplet_counts().multiplets
    for irrep in IRREP_LABELS:
        for M in range(0, 7):
            acc = sum(mult[irrep][S] for S in range(M, 7))
            assert acc == counts[irrep][M]


def test_multiplet_state_total_is_hilbert_dimension():
    mult = multiplet_counts().multiplets
    total = sum(
        IRREP_DIMS[irrep] * (2 * S + 1) * n
        for irrep, by_s in mult.items()
        for S, n in by_s.items()
    )
    assert total == 4096


def test_sector_characters_by_hand(group):
    by_name = {g.name: g for g in group}
    basis_dim = sector_basis(0).dim
    # identity and the in-plane mirror both fix everything
    assert sector_character(by_name["E"], 0) == basis_dim
    assert sector_character(by_name["sigma_h"], 0) == basis_dim
    # a sixth turn fixes only the two single-ring configurations
    assert sector_character(by_name["C6"], 0) == 2
    # the half turn pairs sites, leaving C(6,3) balanced choices
    assert sector_character(by_name["C2"], 0) == math.comb(6, 3)


def test_projector_traces():
    table = irrep_counts().counts
    for M in (5, 4):
        for irrep in IRREP_LABELS:
            p = _irrep_projector(irrep, M)
            expected = IRREP_DIMS[irrep] * table[irrep][M]
            assert np.trace(p) == pytest.approx(expected, abs=1e-9)


def test_projectors_are_idempotent_and_complete():
    total = np.zeros((12, 12))
    for irrep in IRREP_LABELS:
        p = _irrep_projector(irrep, 5)
        assert np.abs(p @ p - p).max() < 1e-12
        total += p
    assert np.abs(total - np.eye(12)).max() < 1e-12


def test_projectors_commute_with_hamiltonian():
    for params in (HEISENBERG, XXZ_FERRO):
        h = build_sector_hamiltonian(4, params).matrix
        for irrep in ("A2g", "E1u"):
            p = _irrep_projector(irrep, 4)
            assert np.abs(h @ p - p @ h).max() < 1e-10


def test_irrep_block_sizes_match_the_census():
    table = irrep_counts().counts
    for M in range(0, 7):
        sizes = {b.irrep: (b.copies, len(b.rows)) for b in irrep_blocks(M) if b.partner > 0}
        d = sector_basis(M).dim
        assert sizes == {r: (table[r][M], d) for r in IRREP_LABELS if table[r][M]}
    even = [b.copies for b in irrep_blocks(0) if b.partner > 0]
    assert even == [70, 90, 156, 76, 76, 150]


@pytest.mark.parametrize("M", [0, 2, -3, 5])
def test_odd_partner_rows_complete_the_sector(group, M):
    table = irrep_counts().counts
    blocks = list(irrep_blocks(M))
    even = [b for b in blocks if b.partner > 0]
    odd = [b for b in blocks if b.partner < 0]
    assert blocks == even + odd
    assert {b.irrep: b.copies for b in odd} == {
        r: table[r][M] for r in ("E2g", "E1u") if table[r][M]}
    rows = np.vstack([dense_rows(b) for b in blocks])
    assert rows.shape == (sector_basis(M).dim,) * 2
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-12

    h = next(g for g in group if g.name == "C2'(0)")
    for b in blocks:
        bt = dense_rows(b).T
        assert np.abs(_irrep_projector(b.irrep, M) @ bt - bt).max() < 1e-12
        if IRREP_DIMS[b.irrep] == 2:  # the partners are the two eigenspaces of U_h
            moved = act_permutation(h, StateVector(amps=bt, sector=M)).amps
            assert np.abs(moved - b.partner * bt).max() < 1e-12


@pytest.mark.parametrize("M", range(-6, 7))
def test_the_orbit_layout_scatters_back_to_every_block(group, M):
    blocks = irrep_blocks(M)
    basis = sector_basis(M)
    d = basis.dim
    state, row, coef = orbit_layout(M)
    n, k = coef.shape[:2]
    assert state.shape == row.shape == (d,) and coef.shape == (n, k, k)
    # states and rows each fill every place once: places 0..m-1 of an orbit of m states
    sizes = np.bincount(state // k, minlength=n)
    assert sizes.min() > 0
    places = np.flatnonzero(np.arange(k) < sizes[:, None])
    for part in (state, row):
        assert np.array_equal(np.sort(part), places)
    # each orbit is one configuration orbit of the group, members ascending by place
    for m in np.split(np.argsort(state), np.cumsum(sizes)[:-1]):
        images = {int(basis.index_of[_config_map(e.perm)[basis.configs[m[0]]]]) for e in group}
        assert sorted(images) == m.tolist()
    # the rows of irrep_blocks(M) in order, entry for entry, and zero past an orbit's places
    at = np.full((2, n * k), -1)  # the state and the row at each place
    at[0, state] = at[1, row] = np.arange(d)
    filled = at[0].reshape(n, k) >= 0
    o, i, j = np.nonzero(filled[:, :, None] & filled[:, None, :])
    assert np.count_nonzero(coef) == np.count_nonzero(coef[o, i, j])
    stacked = np.zeros((d, d))
    stacked[at[1].reshape(n, k)[o, i], at[0].reshape(n, k)[o, j]] = coef[o, i, j]
    assert np.array_equal(stacked, np.vstack([dense_rows(b) for b in blocks]))


@pytest.fixture
def cold_basis():
    """An empty adapted-basis cache, emptied again afterwards."""
    symmetry._adapted_basis.cache_clear()
    yield
    symmetry._adapted_basis.cache_clear()


def test_the_adapted_basis_refuses_a_row_count_off_the_census(monkeypatch, cold_basis):
    table = irrep_counts()
    counts = {r: dict(by_m) for r, by_m in table.counts.items()}
    counts["A1g"][3] += 1
    monkeypatch.setattr(symmetry, "irrep_counts",
                        lambda: dataclasses.replace(table, counts=counts))
    with pytest.raises(RuntimeError, match="^14 rows for A1g in sector 3, expected 15$"):
        irrep_blocks(3)


def test_the_adapted_basis_refuses_rows_that_leave_an_orbit_unfilled(monkeypatch, cold_basis):
    irrep_counts()  # cached with every irrep, before the table loses one
    ct = character_table()
    without_a2g = dataclasses.replace(ct, irreps=tuple(r for r in ct.irreps if r != "A2g"))
    monkeypatch.setattr(lattice, "character_table", lambda: without_a2g)
    with pytest.raises(RuntimeError, match="^irrep rows of sector 3 do not fill each orbit once$"):
        orbit_layout(3)


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(1.0, 8.0), jz_over_j=st.floats(-3.0, 3.0), M=st.integers(0, 6))
def test_irrep_blocks_split_the_sector_hamiltonian(alpha, jz_over_j, M):
    params = ModelParams(alpha, jz_over_j)
    h = build_sector_hamiltonian(M, params, exact=False).matrix
    dense = np.linalg.eigvalsh(h)
    blocks = [b for b in irrep_blocks(M) if b.partner > 0]
    levels = _sector_levels(params)[M]
    assert list(levels) == [b.irrep for b in blocks]
    merged = np.sort(np.concatenate([np.repeat(levels[b.irrep], IRREP_DIMS[b.irrep])
                                     for b in blocks]))
    spread = dense[-1] - dense[0]
    assert np.abs(merged - dense).max() <= 1e-12 * max(spread, 1.0)

    dense = {b: dense_rows(b) for b in blocks}
    rows = np.vstack(list(dense.values()))
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-12
    for b in blocks:
        bt = dense[b]
        assert np.abs(_irrep_projector(b.irrep, M) @ bt.T - bt.T).max() < 1e-12
        for other in blocks:
            if other is not b:
                # group commutation: H never couples two irreps
                assert np.abs(bt @ h @ dense[other].T).max() < 1e-12


def test_every_configuration_meets_the_a2g_block():
    # measurement outcomes always overlap the symmetric class, which is
    # why no outcome probability can vanish identically
    for M in (0, 2, 5):
        p = _irrep_projector("A2g", M)
        assert np.linalg.norm(p, axis=0).min() > 1e-3


def test_irrep_weights_resolve_identity():
    rng = np.random.default_rng(21)
    v = rng.normal(size=(sector_basis(3).dim, 3))
    v /= np.linalg.norm(v, axis=0)
    weights = irrep_weights(v, 3)
    total = sum(weights.values())
    assert total == pytest.approx(np.ones(3), abs=1e-10)


def test_eigenvector_labels_reproduce_the_census(xxz_spectra):
    res = xxz_spectra[5]
    found = {}
    for k in range(res.dim):
        label = label_eigenvector(res.eigenvectors[:, k], 5)
        assert label is not None
        found[label] = found.get(label, 0) + 1
    table = irrep_counts().counts
    for irrep in IRREP_LABELS:
        states = IRREP_DIMS[irrep] * table[irrep][5]
        assert found.get(irrep, 0) == states


def test_factorized_states_share_one_symmetry_class():
    samples = [
        product_state((math.pi / 2, 0.0), (math.pi / 2, 0.0)),
        product_state((math.pi / 2, 0.0), (0.0, 0.0)),
        product_state((0.7, 0.3), (2.1, 5.0)),
        product_state((1.2, 4.4), (0.4, 1.9)),
    ]
    for state in samples:
        signature = _classify_factorized_state(state)
        assert _identify_one_dim_irrep(signature) == "A2g"


def test_single_configuration_is_a2g():
    signature = _classify_factorized_state(basis_state(63))
    assert _identify_one_dim_irrep(signature) == "A2g"


def test_classify_rejects_entangled_states():
    amps = np.zeros(4096)
    amps[1] = amps[2] = 1.0 / math.sqrt(2.0)  # not an eigenvector of C6
    with pytest.raises(ValueError):
        _classify_factorized_state(StateVector(amps=amps, sector=None))
