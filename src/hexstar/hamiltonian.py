"""XXZ Hamiltonian with power-law couplings, assembled per magnetization sector.

In units of the transverse coupling J,

    H/J = sum_{i<j} d_ij^{-alpha} [ (sx_i sx_j + sy_i sy_j) + (Jz/J) sz_i sz_j ]

with Pauli matrices s and distances in units of the nearest-neighbour
spacing.  Squared distances are exact integers, so for even alpha every
matrix element is a rational number; the exact assembly keeps them as
Fractions.  The float matrix, its split into the flip-flop part and the
z-z diagonal that Jz/J scales, the exact entries and the Casimir S^2 all
weight one per-sector table of flip-flop bonds and z-z signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import N_SITES, Geometry, build_geometry
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
_PAIR_I, _PAIR_J = np.array(_PAIRS).T
_PAIR_MASKS = np.array([(1 << i) | (1 << j) for i, j in _PAIRS])


@lru_cache(maxsize=1)
def _pair_distance_sq() -> tuple[int, ...]:
    """Squared distance of each pair in _PAIRS, read from the geometry once."""
    return tuple(build_geometry().distance_sq[_PAIR_I, _PAIR_J].tolist())


def coupling(geometry: Geometry, i: int, j: int, alpha: float) -> float:
    """Distance-power coupling d_ij^-alpha in units of J."""
    if i == j:
        raise ValueError("coupling needs two distinct sites")
    return float(geometry.distance_sq[i, j]) ** (-alpha / 2.0)


def exact_capable(alpha: float) -> bool:
    """True for an even integer alpha, the powers at which every d^-alpha is rational."""
    return float(alpha).is_integer() and int(alpha) % 2 == 0


def _exact_weight(d2: int, alpha: float) -> Fraction:
    if not exact_capable(alpha):
        raise ValueError("exact couplings need an even integer alpha")
    return Fraction(1, d2 ** (int(alpha) // 2))


def exact_coupling(geometry: Geometry, i: int, j: int, alpha: float) -> Fraction:
    return _exact_weight(int(geometry.distance_sq[i, j]), alpha)


def _pair_couplings(distance_sq: tuple[int, ...], alpha: float) -> list[float]:
    """d^-alpha per pair, as ``coupling`` computes it: Python's scalar float power."""
    return [float(d2) ** (-alpha / 2.0) for d2 in distance_sq]


def total_coupling(geometry: Geometry, alpha: float) -> float:
    """Sum of couplings over all pairs; the ferromagnet energy is (Jz/J) times this."""
    return sum(_pair_couplings(geometry.distance_sq[_PAIR_I, _PAIR_J].tolist(), alpha))


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    M: int
    params: ModelParams
    matrix: np.ndarray  # (d, d) float64, units of J
    exact: dict[tuple[int, int], Fraction] | None  # sparse entries, same units

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _site_z(configs: np.ndarray) -> np.ndarray:
    """(d, 12) array of sz eigenvalues +-1 per configuration."""
    bits = (configs[:, None] >> np.arange(N_SITES)[None, :]) & 1
    return 1 - 2 * bits


class _BondTable(NamedTuple):
    a: np.ndarray     # row of each flip-flop element, both orders listed
    b: np.ndarray     # its column
    pair: np.ndarray  # index into _PAIRS of the exchanged pair
    zz: np.ndarray    # (d, 66) sz_i sz_j per configuration and pair


@lru_cache(maxsize=16)
def _bond_table(M: int) -> _BondTable:
    """Pair structure of sector M that H, S^2 and the exact entries all weight."""
    basis = sector_basis(M)
    z = _site_z(basis.configs)
    zz = np.stack([z[:, i] * z[:, j] for i, j in _PAIRS], axis=1)
    # sx sx + sy sy exchanges an anti-aligned pair: f couples to f ^ mask.
    a, pair = np.nonzero(zz < 0)
    b = basis.index_of[basis.configs[a] ^ _PAIR_MASKS[pair]]
    table = _BondTable(a=a, b=b, pair=pair, zz=zz)
    for arr in table:
        arr.flags.writeable = False
    return table


class AnisotropySplit(NamedTuple):
    """Sector M of H/J as X + (Jz/J) diag(zz): both parts are free of the anisotropy."""
    rows: np.ndarray  # flip-flop entries of X, both orders listed
    cols: np.ndarray
    flip: np.ndarray  # X[rows, cols] = 2 d^-alpha of the exchanged pair
    zz: np.ndarray    # (d,) diagonal of sum_k d_k^-alpha sz sz


def _split(M: int, weights: np.ndarray) -> AnisotropySplit:
    table = _bond_table(M)
    return AnisotropySplit(rows=table.a, cols=table.b, flip=2.0 * weights[table.pair],
                           zz=table.zz @ weights)


def anisotropy_split(M: int, alpha: float) -> AnisotropySplit:
    """The two parts of sector M at interaction range alpha that every Jz/J weights."""
    return _split(M, np.array(_pair_couplings(_pair_distance_sq(), alpha)))


def _assemble(M: int, weights: np.ndarray, jz_over_j: float) -> np.ndarray:
    """Dense sum_k weights[k] [(sx sx + sy sy) + jz_over_j sz sz] over the pairs."""
    split = _split(M, weights)
    matrix = np.zeros((len(split.zz),) * 2)
    np.fill_diagonal(matrix, jz_over_j * split.zz)
    matrix[split.rows, split.cols] = split.flip
    return matrix


def _exact_entries(M: int, params: ModelParams) -> dict[tuple[int, int], Fraction]:
    """The _assemble sum with Fraction weights, as sparse entries."""
    table = _bond_table(M)
    weights = [_exact_weight(d2, params.alpha) for d2 in _pair_distance_sq()]
    # Diagonal sums run over integers on a common denominator.
    denom = math.lcm(*(w.denominator for w in weights))
    numer = np.array([int(w * denom) for w in weights], dtype=object)
    jz = Fraction(params.jz_over_j)
    entries = {(a, a): jz * Fraction(int(s), denom)
               for a, s in enumerate(table.zz @ numer)}
    flip = [2 * w for w in weights]
    entries.update(zip(zip(table.a.tolist(), table.b.tolist()),
                       (flip[k] for k in table.pair.tolist())))
    return entries


def build_sector_hamiltonian(
    M: int, params: ModelParams, exact: bool = False
) -> SectorHamiltonian:
    """Dense sector block of H/J.

    ``exact=True`` adds the rational entries, which need an even-integer
    alpha (ValueError otherwise); the default skips them, since the
    floating matrix is all the eigensolvers need.
    """
    weights = np.array(_pair_couplings(_pair_distance_sq(), params.alpha))
    return SectorHamiltonian(
        M=M,
        params=params,
        matrix=_assemble(M, weights, params.jz_over_j),
        exact=_exact_entries(M, params) if exact else None,
    )


@lru_cache(maxsize=16)
def heisenberg_casimir(M: int) -> np.ndarray:
    """Total-spin Casimir S^2 in the sector basis; eigenvalues are S(S+1)."""
    # S^2 = 3N/4 + sum_{i<j} 2 S_i.S_j, and 2 S_i.S_j is half a unit-weight pair term.
    h = _assemble(M, np.ones(len(_PAIRS)), 1.0)
    s2 = 0.5 * h + 0.75 * N_SITES * np.eye(len(h))
    s2.flags.writeable = False
    return s2
