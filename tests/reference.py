"""Independent references shared by several test modules.

The group product read off the abstract (inverted, rot, flip) coordinates,
the signed permutation action on amplitudes, the dense irrep labeller
that rounds projection weights, and the Schmidt scan over every cut.  The
library builds none of these: its blocks carry their labels by
construction and its scan takes one cut per orbit, so these only check it.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from hexstar.entanglement import SVD_CHUNK, SVD_TOL, _cut_matrix, _ranks
from hexstar.hilbert import StateVector, _config_map, sector_basis
from hexstar.lattice import GroupElement
from hexstar.symmetry import irrep_weights

PURE_TOL = 0.999  # amplitude of one irrep that labels an eigenvector as pure


def compose(a: GroupElement, b: GroupElement, group: tuple[GroupElement, ...]) -> GroupElement:
    """Group product a.b, looked up among the 24 elements."""
    inverted = a.inverted ^ b.inverted
    rot = (a.rot - b.rot) % 6 if a.flip else (a.rot + b.rot) % 6
    flip = a.flip ^ b.flip
    for e in group:
        if (e.inverted, e.rot, e.flip) == (inverted, rot, flip):
            return e
    raise RuntimeError("composition left the group")


def inverse(a: GroupElement, group: tuple[GroupElement, ...]) -> GroupElement:
    identity = next(e for e in group if not e.inverted and e.rot == 0 and not e.flip)
    for e in group:
        if compose(a, e, group) is identity:
            return e
    raise RuntimeError("element has no inverse in the group")


def conjugacy_classes(group: tuple[GroupElement, ...]) -> list[set[GroupElement]]:
    """Conjugacy classes computed from the multiplication table alone."""
    remaining = list(group)
    classes = []
    while remaining:
        a = remaining[0]
        orbit = {compose(compose(g, a, group), inverse(g, group), group) for g in group}
        classes.append(orbit)
        remaining = [e for e in remaining if e not in orbit]
    return classes


def act_permutation(g: GroupElement, state: StateVector) -> StateVector:
    """Apply g: amplitude of f moves to the permuted configuration, times parity."""
    cmap = _config_map(g.perm)
    if state.sector is None:
        new = np.empty_like(state.amps)
        new[cmap] = g.parity * state.amps
        return StateVector(amps=new, sector=None)
    basis = sector_basis(state.sector)
    rows = basis.index_of[cmap[basis.configs]]
    new = np.empty_like(state.amps)
    new[rows] = g.parity * state.amps
    return StateVector(amps=new, sector=state.sector)


def label_eigenvector(vector: np.ndarray, M: int) -> str | None:
    """Irrep of an eigenvector, or None when no single irrep dominates."""
    weights = irrep_weights(vector[:, None], M)
    for r, w in weights.items():
        if w[0] > PURE_TOL**2:
            return r
    return None


def full_scan_ranks(state: StateVector, tol: float = SVD_TOL) -> dict[int, int]:
    """Schmidt rank of every cut 1 .. 2^11 - 1, one SVD per cut and no symmetry."""
    tensor = state.amps.reshape((2,) * 12)
    masks = range(1, 1 << 11)
    found: dict[int, int] = {}
    for _, group in groupby(sorted(masks, key=int.bit_count), key=int.bit_count):
        group = list(group)
        for start in range(0, len(group), SVD_CHUNK):
            chunk = group[start:start + SVD_CHUNK]
            stack = np.stack([_cut_matrix(tensor, mask) for mask in chunk])
            sv = np.linalg.svd(stack, compute_uv=False)
            found.update(zip(chunk, _ranks(sv, tol).tolist()))
    return {mask: found[mask] for mask in masks}
