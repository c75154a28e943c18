"""XXZ Hamiltonian with power-law couplings, assembled per magnetization sector.

In units of the transverse coupling J,

    H/J = sum_{i<j} d_ij^{-alpha} [ (sx_i sx_j + sy_i sy_j) + (Jz/J) sz_i sz_j ]

with Pauli matrices s and distances in units of the nearest-neighbour
spacing.  Squared distances are exact integers, so for even alpha every
matrix element is a rational number; the exact assembly keeps them as
Fractions.  Only six squared distances occur, so
H/J = sum_c w_c [X_c + (Jz/J) diag(zz_c)] with w_c = d_c^-alpha and integer
class parts X_c, zz_c free of both couplings.  One per-sector class table
holds them; the float matrix, the exact entries, the Casimir S^2 (unit
weights) and the irrep-block operators all weight it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import ALLOWED_DISTANCE_SQ, N_SITES, Geometry, build_geometry
from .hilbert import sector_basis

DEG_TOL_RELATIVE = 1e-8   # default eigenvalue clustering tolerance, times the spread


@dataclass(frozen=True)
class ModelParams:
    alpha: float = 6.0
    jz_over_j: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive and finite")
        if not math.isfinite(self.jz_over_j):
            raise ValueError("jz_over_j must be finite")


HEISENBERG = ModelParams(alpha=6.0, jz_over_j=1.0)
XXZ_FERRO = ModelParams(alpha=6.0, jz_over_j=-3.0)

_PAIRS = tuple((i, j) for i in range(N_SITES) for j in range(i + 1, N_SITES))


def exact_capable(alpha: float) -> bool:
    """True for a positive even integer alpha, the powers at which every d^-alpha is rational."""
    return float(alpha).is_integer() and alpha > 0 and int(alpha) % 2 == 0


def _exact_weight(d2: int, alpha: float) -> Fraction:
    if not exact_capable(alpha):
        raise ValueError("exact couplings need a positive even integer alpha")
    return Fraction(1, d2 ** (int(alpha) // 2))


def _pair_couplings(distance_sq: tuple[int, ...], alpha: float) -> list[float]:
    """d^-alpha per pair, as Python's scalar float power of the squared distance."""
    return [float(d2) ** (-alpha / 2.0) for d2 in distance_sq]


def total_coupling(geometry: Geometry, alpha: float) -> float:
    """Sum of couplings over all pairs; the ferromagnet energy is (Jz/J) times this."""
    return sum(_pair_couplings([geometry.distance_sq[i, j] for i, j in _PAIRS], alpha))


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    M: int
    params: ModelParams
    matrix: np.ndarray  # (d, d) float64, units of J
    exact: dict[tuple[int, int], Fraction] | None  # sparse entries, same units


class CouplingClasses(NamedTuple):
    """Sector M of H/J as sum_c w_c [X_c + (Jz/J) diag(zz_c)], free of both couplings.

    Class c holds the pairs at squared distance ALLOWED_DISTANCE_SQ[c], and
    w_c = class_weights(alpha)[c].
    """
    rows: np.ndarray    # flip-flop entries of every X_c, both orders listed
    cols: np.ndarray
    cls: np.ndarray     # int8 class of each entry; X_c[rows, cols] = 2
    zz: np.ndarray      # (d, 6) int8 sum of sz sz over the pairs of each class


@lru_cache(maxsize=None)
def coupling_classes(M: int) -> CouplingClasses:
    """The integer class parts of sector M, read off its basis and the pair distances."""
    basis = sector_basis(M)
    i, j = np.array(_PAIRS).T
    pair_class = np.searchsorted(ALLOWED_DISTANCE_SQ, build_geometry().distance_sq[i, j])
    z = 1 - 2 * ((basis.configs[:, None] >> np.arange(N_SITES)) & 1)  # sz = +-1 per site
    zz_pair = z[:, i] * z[:, j]
    # sx sx + sy sy exchanges an anti-aligned pair: f couples to f ^ mask, by row then pair
    rows, pair = np.nonzero(zz_pair < 0)
    cols = basis.index_of[basis.configs[rows] ^ ((1 << i) | (1 << j))[pair]]
    zz = (zz_pair @ (pair_class[:, None] == np.arange(len(ALLOWED_DISTANCE_SQ)))).astype(np.int8)
    # narrow integers keep the cached table small; every product casts them to float64
    classes = CouplingClasses(rows=rows.astype(np.int32), cols=cols.astype(np.int32),
                              cls=pair_class[pair].astype(np.int8), zz=zz)
    for arr in classes:
        arr.flags.writeable = False
    return classes


def _assemble(M: int, weights: np.ndarray, jz_over_j: float) -> np.ndarray:
    """Dense sum_c weights[c] [X_c + jz_over_j diag(zz_c)] over the six classes."""
    classes = coupling_classes(M)
    matrix = np.diag(jz_over_j * (classes.zz @ weights))
    matrix[classes.rows, classes.cols] = 2.0 * weights[classes.cls]
    return matrix


def class_weights(alpha: float) -> np.ndarray:
    """w_c = d_c^-alpha of the six classes, as the pair couplings compute it."""
    return np.array(_pair_couplings(ALLOWED_DISTANCE_SQ, alpha))


@lru_cache(maxsize=None)
def _exact_layout(M: int) -> tuple[list[tuple[int, int]], list[int], list[list[int]]]:
    """The keys of sector M's exact entries, each key's slot, and the distinct rows of zz.

    Keys run over the diagonal, then the flip-flop entries in coupling_classes order.
    A diagonal key's slot is its distinct zz row; a flip-flop key's is the
    number of distinct rows plus its class.
    """
    classes = coupling_classes(M)
    levels, level_of = np.unique(classes.zz, axis=0, return_inverse=True)
    d = len(classes.zz)
    keys = list(zip(range(d), range(d)))
    keys += zip(classes.rows.tolist(), classes.cols.tolist())
    slots = level_of.ravel().tolist() + (len(levels) + classes.cls.astype(np.int64)).tolist()
    return keys, slots, levels.tolist()


def _exact_entries(M: int, params: ModelParams) -> dict[tuple[int, int], Fraction]:
    """The _assemble sum with Fraction class weights, as sparse entries in _exact_layout order.

    Each distinct diagonal jz sum_c w_c zz_c is one integer numerator over the
    lcm of the six weight denominators, so a call makes one Fraction per
    distinct diagonal and per class, then one dict over the cached keys.
    """
    keys, slots, levels = _exact_layout(M)
    weights = [_exact_weight(d2, params.alpha) for d2 in ALLOWED_DISTANCE_SQ]
    denominator = math.lcm(*(w.denominator for w in weights))
    numerators = [w.numerator * (denominator // w.denominator) for w in weights]
    jz = Fraction(params.jz_over_j)
    values = [jz * Fraction(sum(map(operator.mul, row, numerators)), denominator)
              for row in levels]
    values += [2 * w for w in weights]
    return dict(zip(keys, map(values.__getitem__, slots)))


def build_sector_hamiltonian(
    M: int, params: ModelParams, exact: bool = False
) -> SectorHamiltonian:
    """Dense sector block of H/J.

    ``exact=True`` adds the rational entries, which need an even-integer
    alpha (ValueError otherwise); the default skips them, since the
    floating matrix is all the eigensolvers need.
    """
    return SectorHamiltonian(
        M=M,
        params=params,
        matrix=_assemble(M, class_weights(params.alpha), params.jz_over_j),
        exact=_exact_entries(M, params) if exact else None,
    )


def heisenberg_casimir(M: int) -> np.ndarray:
    """Total-spin Casimir S^2 in the sector basis; eigenvalues are S(S+1)."""
    # S^2 = 3N/4 + sum_{i<j} 2 S_i.S_j, and 2 S_i.S_j is half a unit-weight pair term.
    h = _assemble(M, np.ones(len(ALLOWED_DISTANCE_SQ)), 1.0)
    return 0.5 * h + 0.75 * N_SITES * np.eye(len(h))
