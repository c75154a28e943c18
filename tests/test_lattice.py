"""Star geometry and the 24-element prism group acting on it."""

import math
from collections import Counter

import numpy as np
import pytest

from hexstar.lattice import (
    ALLOWED_DISTANCE_SQ,
    CLASS_NAMES,
    CLASS_SIZES,
    IRREP_DIMS,
    IRREP_LABELS,
    N_SITES,
    permutation_parity,
)
from reference import compose, conjugacy_classes, inverse


def test_ring_radii(geometry):
    radii = np.linalg.norm(geometry.positions, axis=1)
    assert radii[:6] == pytest.approx(math.sqrt(3.0))
    assert radii[6:] == pytest.approx(1.0)


def test_squared_distances_are_the_allowed_integers(geometry):
    off = geometry.distance_sq[~np.eye(N_SITES, dtype=bool)]
    assert set(np.unique(off).tolist()) == set(ALLOWED_DISTANCE_SQ)


def test_specific_separations(geometry):
    d2 = geometry.distance_sq
    assert d2[0, 7] == 1 and d2[0, 8] == 1   # tip to its two adjacent inner sites
    assert d2[0, 1] == 3                     # adjacent tips
    assert d2[6, 9] == 4                     # opposite inner sites
    assert d2[0, 3] == 12                    # opposite tips, the diameter
    assert np.array_equal(d2, d2.T)


def test_nearest_neighbour_counts(geometry):
    nn_counts = (geometry.distance_sq == 1).sum(axis=1)
    assert np.all(nn_counts[:6] == 2)   # tips touch two inner sites
    assert np.all(nn_counts[6:] == 4)   # inner sites also touch their ring mates
    assert nn_counts.sum() // 2 == 18   # bonds of the short-range limit


def test_group_order_and_class_census(group):
    assert len(group) == 24
    census = Counter(g.class_label for g in group)
    assert [census[name] for name in CLASS_NAMES] == list(CLASS_SIZES)


def test_elements_preserve_distances(geometry, group):
    d2 = geometry.distance_sq
    for g in group:
        p = np.array(g.perm)
        assert np.array_equal(d2[np.ix_(p, p)], d2), g.name


def test_rotations_preserve_rings(group):
    for g in group:
        outer_image = {g.perm[i] for i in range(6)}
        assert outer_image == set(range(6)), g.name


def test_closure_identity_inverses(group):
    names = {g.name for g in group}
    identity = next(g for g in group if g.name == "E")
    for a in group:
        assert compose(a, inverse(a, group), group).name == "E"
        assert compose(a, identity, group).name == a.name
        for b in group:
            assert compose(a, b, group).name in names


def test_associativity_on_generators(group):
    gens = [g for g in group if g.name in ("C6", "C2'(0)", "I")]
    for a in gens:
        for b in group:
            for c in gens:
                left = compose(compose(a, b, group), c, group)
                right = compose(a, compose(b, c, group), group)
                assert left.name == right.name


def test_parity_is_a_homomorphism(group):
    for a in group:
        for b in group:
            assert compose(a, b, group).parity == a.parity * b.parity


def test_known_parities(group):
    by_name = {g.name: g for g in group}
    assert by_name["C6"].parity == 1        # two six-cycles
    assert by_name["C2'(0)"].parity == -1   # transposition count is odd
    assert by_name["I"].parity == 1
    assert by_name["sigma_h"].parity == 1


def test_site_action_kernel(group):
    # the star is planar, so reflection through its plane moves nothing
    trivial = sorted(g.name for g in group if g.perm == tuple(range(N_SITES)))
    assert trivial == ["E", "sigma_h"]


def test_permutation_parity_on_samples():
    assert permutation_parity(tuple(range(5))) == 1
    assert permutation_parity((1, 0, 2)) == -1
    assert permutation_parity((1, 2, 0)) == 1


def test_conjugacy_classes_partition_the_group(group):
    classes = conjugacy_classes(group)
    sizes = sorted(len(c) for c in classes)
    assert sizes == sorted(CLASS_SIZES)
    seen = [g.name for cls in classes for g in cls]
    assert sorted(seen) == sorted(g.name for g in group)
    for cls in classes:
        assert len({g.class_label for g in cls}) == 1


def test_character_row_orthogonality(chartable):
    for r in IRREP_LABELS:
        for s in IRREP_LABELS:
            acc = sum(
                size * chartable.chi(r, c) * chartable.chi(s, c)
                for c, size in zip(CLASS_NAMES, CLASS_SIZES)
            )
            assert acc == (24 if r == s else 0)


def test_character_identity_column(chartable):
    for r in IRREP_LABELS:
        assert chartable.chi(r, "E") == IRREP_DIMS[r]


def test_parity_vector_is_a_character_row(chartable, group):
    # the sign picked up by a configuration under each element matches one
    # specific one-dimensional irrep, which is why factorized states all
    # land in the same symmetry class
    for g in group:
        assert g.parity == chartable.chi("A2g", g.class_label)
