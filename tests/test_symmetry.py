"""Symmetry classification: irrep censuses, projectors, state labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexstar.hamiltonian import HEISENBERG, XXZ_FERRO, ModelParams, build_sector_hamiltonian
from hexstar.hilbert import (
    StateVector,
    act_permutation,
    basis_state,
    product_state,
    sector_basis,
)
from hexstar.lattice import IRREP_DIMS, IRREP_LABELS
from hexstar.spectrum import _sector_levels
from hexstar.symmetry import (
    classify_factorized_state,
    identify_one_dim_irrep,
    irrep_blocks,
    irrep_counts,
    irrep_projector,
    irrep_weights,
    label_eigenvector,
    multiplet_counts,
    odd_partner_blocks,
    sector_character,
)

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
            p = irrep_projector(irrep, M)
            expected = IRREP_DIMS[irrep] * table[irrep][M]
            assert np.trace(p) == pytest.approx(expected, abs=1e-9)


def test_projectors_are_idempotent_and_complete():
    total = np.zeros((12, 12))
    for irrep in IRREP_LABELS:
        p = irrep_projector(irrep, 5)
        assert np.abs(p @ p - p).max() < 1e-12
        total += p
    assert np.abs(total - np.eye(12)).max() < 1e-12


def test_projectors_commute_with_hamiltonian():
    for params in (HEISENBERG, XXZ_FERRO):
        h = build_sector_hamiltonian(4, params).matrix
        for irrep in ("A2g", "E1u"):
            p = irrep_projector(irrep, 4)
            assert np.abs(h @ p - p @ h).max() < 1e-10


def test_irrep_block_sizes_match_the_census():
    table = irrep_counts().counts
    for M in range(0, 7):
        sizes = {b.irrep: b.basis.shape for b in irrep_blocks(M)}
        d = sector_basis(M).dim
        assert sizes == {r: (table[r][M], d) for r in IRREP_LABELS if table[r][M]}
    assert [b.basis.shape[0] for b in irrep_blocks(0)] == [70, 90, 156, 76, 76, 150]


@pytest.mark.parametrize("M", [0, 2, -3, 5])
def test_odd_partner_rows_complete_the_sector(group, M):
    table = irrep_counts().counts
    even, odd = irrep_blocks(M), odd_partner_blocks(M)
    assert {b.irrep: b.basis.shape[0] for b in odd} == {
        r: table[r][M] for r in ("E2g", "E1u") if table[r][M]}
    rows = np.vstack([b.basis.toarray() for b in even + odd])
    assert rows.shape == (sector_basis(M).dim,) * 2
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-12

    h = next(g for g in group if g.name == "C2'(0)")
    for blocks, sign in ((even, 1.0), (odd, -1.0)):
        for b in blocks:
            bt = b.basis.toarray().T
            assert np.abs(irrep_projector(b.irrep, M) @ bt - bt).max() < 1e-12
            if b.dim == 2:  # the partners are the two eigenspaces of U_h
                moved = act_permutation(h, StateVector(amps=bt, sector=M)).amps
                assert np.abs(moved - sign * bt).max() < 1e-12


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(1.0, 8.0), jz_over_j=st.floats(-3.0, 3.0), M=st.integers(0, 6))
def test_irrep_blocks_split_the_sector_hamiltonian(alpha, jz_over_j, M):
    params = ModelParams(alpha, jz_over_j)
    h = build_sector_hamiltonian(M, params, exact=False).matrix
    dense = np.linalg.eigvalsh(h)
    blocks = irrep_blocks(M)
    levels = _sector_levels(params)[M]
    assert list(levels) == [b.irrep for b in blocks]
    merged = np.sort(np.concatenate([np.repeat(levels[b.irrep], b.dim) for b in blocks]))
    spread = dense[-1] - dense[0]
    assert np.abs(merged - dense).max() <= 1e-12 * max(spread, 1.0)

    rows = np.vstack([b.basis.toarray() for b in blocks])
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-12
    for b in blocks:
        bt = b.basis.toarray()
        assert np.abs(irrep_projector(b.irrep, M) @ bt.T - bt.T).max() < 1e-12
        for other in blocks:
            if other is not b:
                # group commutation: H never couples two irreps
                assert np.abs(bt @ h @ other.basis.toarray().T).max() < 1e-12


def test_every_configuration_meets_the_a2g_block():
    # measurement outcomes always overlap the symmetric class, which is
    # why no outcome probability can vanish identically
    for M in (0, 2, 5):
        p = irrep_projector("A2g", M)
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
        signature = classify_factorized_state(state)
        assert identify_one_dim_irrep(signature) == "A2g"


def test_single_configuration_is_a2g():
    signature = classify_factorized_state(basis_state(63))
    assert identify_one_dim_irrep(signature) == "A2g"


def test_classify_rejects_entangled_states():
    amps = np.zeros(4096)
    amps[1] = amps[2] = 1.0 / math.sqrt(2.0)  # not an eigenvector of C6
    with pytest.raises(ValueError):
        classify_factorized_state(StateVector(amps=amps, sector=None))
