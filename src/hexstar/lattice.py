"""Hexagram lattice geometry and its point group acting on the 12 sites.

The lattice is a six-pointed star: six outer tips on a circle of radius
sqrt(3) and six inner sites on the unit circle, in units of the
nearest-neighbour distance a.  Site ordering is fixed once and for all:
outer tips are sites 0..5 (counter-clockwise starting from the top, i.e.
at angle 90 degrees), inner sites are 6..11 (starting from angle 0).

The point group of the star is D6h, order 24.  Acting on the plane it is
not faithful on the sites: the horizontal mirror fixes every site, so the
24 abstract elements realise only 12 distinct site permutations.  We keep
all 24 elements, each tagged with its permutation and the sign it
contributes when acting on spin states (one factor -1 per site
transposition, from the spin-1/2 rotation convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_SITES = 12

# Squared distances (units of a^2) occurring between distinct sites.
ALLOWED_DISTANCE_SQ = (1, 3, 4, 7, 9, 12)

CLASS_NAMES = (
    "E", "2C6", "2C3", "C2", "3C2'", "3C2''",
    "I", "2S3", "2S6", "sigma_h", "3sigma_d", "3sigma_v",
)
CLASS_SIZES = (1, 2, 2, 1, 3, 3, 1, 2, 2, 1, 3, 3)

# The six irreps that can occur for in-plane spin configurations: the
# horizontal mirror acts trivially on the sites, so only irreps with
# chi(sigma_h) = dim survive.
IRREP_LABELS = ("A1g", "A2g", "E2g", "B1u", "B2u", "E1u")
IRREP_DIMS = {"A1g": 1, "A2g": 1, "E2g": 2, "B1u": 1, "B2u": 1, "E1u": 2}

_CHARACTERS = {
    #        E  2C6 2C3  C2 3C2' 3C2''  I  2S3 2S6 s_h 3s_d 3s_v
    "A1g": (1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1),
    "A2g": (1,  1,  1,  1, -1, -1,  1,  1,  1,  1, -1, -1),
    "E2g": (2, -1, -1,  2,  0,  0,  2, -1, -1,  2,  0,  0),
    "B1u": (1, -1,  1, -1,  1, -1, -1,  1, -1,  1, -1,  1),
    "B2u": (1, -1,  1, -1, -1,  1, -1,  1, -1,  1,  1, -1),
    "E1u": (2,  1, -1, -2,  0,  0, -2, -1,  1,  2,  0,  0),
}


@dataclass(frozen=True, eq=False)
class Geometry:
    """Site positions (units of a) and the exact table of squared distances."""

    positions: np.ndarray    # (12, 2) float
    distance_sq: np.ndarray  # (12, 12) int, units of a^2


@dataclass(frozen=True, eq=False)
class GroupElement:
    """One abstract element of the order-24 point group.

    ``perm`` sends site i to site perm[i]; ``parity`` is the sign of the
    permutation (product of -1 per transposition in its cycle
    decomposition).  The abstract coordinates (inverted, rot, flip) encode
    the element as I^inverted . R(60 rot) . F^flip with F the two-fold
    rotation about the x axis; they distinguish elements whose site action
    coincides (E vs sigma_h and so on).
    """

    name: str
    class_label: str
    perm: tuple[int, ...]
    parity: int
    inverted: bool
    rot: int
    flip: bool


@dataclass(frozen=True, eq=False)
class CharacterTable:
    irreps: tuple[str, ...]
    classes: tuple[str, ...]
    class_sizes: tuple[int, ...]
    dims: dict[str, int]
    table: dict[str, dict[str, int]]  # table[irrep][class]

    def chi(self, irrep: str, class_label: str) -> int:
        return self.table[irrep][class_label]


@lru_cache(maxsize=1)  # read-only arrays: every caller shares one geometry
def build_geometry() -> Geometry:
    pos = np.empty((N_SITES, 2))
    for k in range(6):
        a_out = math.radians(90 + 60 * k)
        pos[k] = (math.sqrt(3.0) * math.cos(a_out), math.sqrt(3.0) * math.sin(a_out))
        a_in = math.radians(60 * k)
        pos[6 + k] = (math.cos(a_in), math.sin(a_in))

    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    d2_int = np.rint(d2).astype(np.int64)
    if np.abs(d2 - d2_int).max() > 1e-12:
        raise RuntimeError("squared distances are not integers; geometry is broken")
    off_diag = d2_int[~np.eye(N_SITES, dtype=bool)]
    if not set(np.unique(off_diag)) <= set(ALLOWED_DISTANCE_SQ):
        raise RuntimeError(f"unexpected squared distances {sorted(set(off_diag))}")

    pos.flags.writeable = False
    d2_int.flags.writeable = False
    return Geometry(positions=pos, distance_sq=d2_int)


def _coordinate_matrix(inverted: bool, rot: int, flip: bool) -> np.ndarray:
    """In-plane action of I^inverted . R(60 rot) . F^flip on (x, y)."""
    ang = math.pi * rot / 3.0
    m = np.array([[math.cos(ang), -math.sin(ang)],
                  [math.sin(ang), math.cos(ang)]])
    if flip:
        # C2 about the x axis: (x, y, z) -> (x, -y, -z); in plane a mirror.
        m = m @ np.diag([1.0, -1.0])
    if inverted:
        m = -m
    return m


def _permutation_from_matrix(m: np.ndarray, geometry: Geometry) -> tuple[int, ...]:
    perm = []
    new_pos = geometry.positions @ m.T
    for i in range(N_SITES):
        dist = np.linalg.norm(geometry.positions - new_pos[i], axis=1)
        j = int(np.argmin(dist))
        if dist[j] > 1e-9:
            raise RuntimeError("coordinate action does not permute the sites")
        perm.append(j)
    if sorted(perm) != list(range(N_SITES)):
        raise RuntimeError("coordinate action is not a permutation")
    return tuple(perm)


def permutation_parity(perm: tuple[int, ...]) -> int:
    """Sign of a permutation via its cycle decomposition."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _class_label(inverted: bool, rot: int, flip: bool) -> str:
    if not flip:
        proper = {0: "E", 1: "2C6", 2: "2C3", 3: "C2", 4: "2C3", 5: "2C6"}[rot]
        improper = {0: "I", 1: "2S3", 2: "2S6", 3: "sigma_h", 4: "2S6", 5: "2S3"}[rot]
        return improper if inverted else proper
    # Two-fold in-plane axes: R(60k).F is the flip about the axis at 30k
    # degrees.  Even k axes pass through inner sites (C2'), odd k through
    # the outer tips (C2'').  Composing with I turns C2' into sigma_d and
    # C2'' into sigma_v.
    if not inverted:
        return "3C2'" if rot % 2 == 0 else "3C2''"
    return "3sigma_d" if rot % 2 == 0 else "3sigma_v"


def _element_name(inverted: bool, rot: int, flip: bool) -> str:
    if not flip:
        proper = {0: "E", 1: "C6", 2: "C3", 3: "C2", 4: "C3^2", 5: "C6^5"}[rot]
        if not inverted:
            return proper
        return {0: "I", 1: "S3", 2: "S6", 3: "sigma_h", 4: "S6^5", 5: "S3^5"}[rot]
    axis = 30 * rot
    if not inverted:
        kind = "C2'" if rot % 2 == 0 else "C2''"
        return f"{kind}({axis})"
    kind = "sigma_d" if rot % 2 == 0 else "sigma_v"
    return f"{kind}({axis})"


def build_group(geometry: Geometry) -> tuple[GroupElement, ...]:
    """All 24 point-group elements, with site permutations and parities.

    Each element's permutation is read off its coordinate action; the
    construction fails loudly if any candidate matrix does not map the
    site set onto itself or does not preserve the distance table.
    """
    elements = []
    for inverted in (False, True):
        for flip in (False, True):
            for rot in range(6):
                m = _coordinate_matrix(inverted, rot, flip)
                perm = _permutation_from_matrix(m, geometry)
                d2 = geometry.distance_sq
                for i in range(N_SITES):
                    for j in range(N_SITES):
                        if d2[perm[i], perm[j]] != d2[i, j]:
                            raise RuntimeError("group element breaks the distance table")
                elements.append(GroupElement(
                    name=_element_name(inverted, rot, flip),
                    class_label=_class_label(inverted, rot, flip),
                    perm=perm,
                    parity=permutation_parity(perm),
                    inverted=inverted,
                    rot=rot,
                    flip=flip,
                ))
    if len({(e.inverted, e.rot, e.flip) for e in elements}) != 24:
        raise RuntimeError("expected 24 distinct group elements")
    return tuple(elements)


def character_table() -> CharacterTable:
    table = {
        irrep: dict(zip(CLASS_NAMES, row)) for irrep, row in _CHARACTERS.items()
    }
    return CharacterTable(
        irreps=IRREP_LABELS,
        classes=CLASS_NAMES,
        class_sizes=CLASS_SIZES,
        dims=dict(IRREP_DIMS),
        table=table,
    )
