"""Closed-form treatment of the fully symmetric M=5 pair of levels.

The symmetric combinations of one flipped spin on the outer ring and one
on the inner ring span a two-dimensional block that the Hamiltonian never
leaves.  Its entries have closed forms in alpha and Jz/J, written down
here independently of the generic assembly code so the two can be played
against each other.  All energies are in units of J.  The block evolves
through dynamics' one real kernel, with no complex phase table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import _phase_parts, _power
from .hamiltonian import ModelParams, build_sector_hamiltonian, exact_capable
from .hilbert import StateVector, sector_basis

_M = 5          # the block lives in the single-flipped-spin sector
_RING = 6       # sites per ring


def _sym_ring_state(outer: bool) -> StateVector:
    """Normalized symmetric one-flip state on one ring, in the M=5 basis."""
    basis = sector_basis(_M)
    amps = np.zeros(basis.dim)
    sites = range(0, 6) if outer else range(6, 12)
    for i in sites:
        amps[basis.index_of[1 << i]] = 1.0 / math.sqrt(_RING)
    return StateVector(amps=amps, sector=_M)


def _closed_form(p2, p3, r3, r7):
    """The five block entries from 2^-a, 3^-a, 3^(-a/2), 7^(-a/2), floats or Fractions."""
    return (
        4 * p3 + 4 * r3 + 2 * p2 * r3,
        4 * (1 + p2 + r7),
        4 + 4 * r3 + 2 * p2,
        14 + 11 * p2 + 2 * p3 + 8 * r3 + p2 * r3 + 8 * r7,
        10 + 9 * p2 + 6 * p3 + 8 * r3 + 3 * p2 * r3 + 8 * r7,
    )


def block_entries(alpha: float) -> tuple[float, float, float, float, float]:
    """(h11_0, h12_0, h22_0, h11_1, h22_1): the Jz-free part and the Jz slopes.

    Index 1 is the outer-ring state, index 2 the inner-ring one; the
    off-diagonal has no Jz part.
    """
    return _closed_form(2.0 ** (-alpha), 3.0 ** (-alpha), 3.0 ** (-alpha / 2),
                        7.0 ** (-alpha / 2))


def exact_block_entries(alpha: float) -> tuple[Fraction, ...]:
    if not exact_capable(alpha):
        raise ValueError("exact entries need a positive even integer alpha")
    a = int(alpha)
    return _closed_form(Fraction(1, 2**a), Fraction(1, 3**a), Fraction(1, 3 ** (a // 2)),
                        Fraction(1, 7 ** (a // 2)))


def kappa(alpha: float) -> tuple[float, float]:
    """Coefficients of the gap formula |dE|/J = sqrt(k0 + k1 x (x - 2)), x = Jz/J."""
    p2 = 2.0 ** (-alpha)
    p3 = 3.0 ** (-alpha)
    r3 = 3.0 ** (-alpha / 2)
    r7 = 7.0 ** (-alpha / 2)
    k0 = (
        80.0
        + 2.0 ** (4 - alpha) * (9 + 3.0 ** (-3 * alpha / 2) - p3 - r3 + 8 * r7)
        + 4.0 ** (1 - alpha) * (17 + p3 - 2 * r3)
        - 32 * p3
        + 64 * 7.0 ** (-alpha)
        + 128 * r7
        + 16 * 9.0 ** (-alpha)
    )
    try:
        k1 = 4.0 ** (1 - alpha) * 9.0 ** (-alpha) * (
            2.0 ** (1 + alpha) + 3.0 ** (alpha / 2) - 3.0**alpha * (1 + 2.0 ** (1 + alpha))
        ) ** 2
    except OverflowError:  # the squared bracket, past alpha ~ 197
        k1 = math.nan
    if not math.isfinite(k1):  # past alpha ~ 395 the bracket is inf and k1 is 0 * inf
        raise RuntimeError(f"the kappa gap formula overflows a float at alpha={alpha:g}")
    return k0, k1


def gap(alpha: float, jz_over_j: float) -> float:
    """|dE|/J between the two symmetric M=5 levels, from the kappa formula."""
    k0, k1 = kappa(alpha)
    value = math.sqrt(k0 + k1 * jz_over_j * (jz_over_j - 2.0))
    if not math.isfinite(value):  # k1 x (x - 2) overflows past |Jz/J| ~ 3e153
        raise RuntimeError(f"the kappa gap formula overflows a float at alpha={alpha:g}, "
                           f"Jz/J={jz_over_j:g}")
    return value


@dataclass(frozen=True, eq=False)
class M5Block:
    alpha: float
    jz_over_j: float
    e_outer: StateVector
    e_inner: StateVector
    matrix: np.ndarray                              # 2x2, (outer, inner) ordering
    exact: tuple[tuple[Fraction, ...], ...] | None  # same entries as Fractions
    delta_e: float                                  # |dE|/J from the kappa formula
    diagonal_gap: float                             # h11 - h22; sign gives the ordering


def _matrix(alpha: float, jz_over_j: float) -> np.ndarray:
    """The 2x2 block in (outer, inner) ordering, after the couplings' own checks."""
    ModelParams(alpha, jz_over_j)  # ValueError on a bad alpha or Jz/J
    h11_0, h12_0, h22_0, h11_1, h22_1 = block_entries(alpha)
    x = jz_over_j
    return np.array([
        [h11_0 + x * h11_1, h12_0],
        [h12_0, h22_0 + x * h22_1],
    ])


def m5_block(alpha: float, jz_over_j: float) -> M5Block:
    matrix = _matrix(alpha, jz_over_j)
    exact = None
    if exact_capable(alpha):
        e11_0, e12_0, e22_0, e11_1, e22_1 = exact_block_entries(alpha)
        xf = Fraction(jz_over_j)
        exact = (
            (e11_0 + xf * e11_1, e12_0),
            (e12_0, e22_0 + xf * e22_1),
        )
    return M5Block(
        alpha=alpha,
        jz_over_j=jz_over_j,
        e_outer=_sym_ring_state(outer=True),
        e_inner=_sym_ring_state(outer=False),
        matrix=matrix,
        exact=exact,
        delta_e=gap(alpha, jz_over_j),
        diagonal_gap=matrix[0, 0] - matrix[1, 1],
    )


def numeric_block(alpha: float, jz_over_j: float) -> np.ndarray:
    """The same 2x2, but assembled by the generic engine for cross-checking."""
    params = ModelParams(alpha=alpha, jz_over_j=jz_over_j)
    ham = build_sector_hamiltonian(_M, params)
    s = np.stack(
        [_sym_ring_state(outer=True).amps, _sym_ring_state(outer=False).amps],
        axis=1,
    )
    return s.T @ ham.matrix @ s


def m5_probabilities(
    initial: str, alpha: float, jz_over_j: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-configuration probabilities (outer, inner) under the 2x2 block.

    ``initial`` picks the starting vector: "outer" for the one-flip state
    spread over the outer ring, "symmetric" for the S=6 combination.  Each
    returned probability is shared equally by the six configurations of
    its ring, hence the factor 1/6.  Times are in units of h/J.
    """
    if initial == "outer":
        start = np.array([1.0, 0.0])
    elif initial == "symmetric":
        start = np.array([1.0, 1.0]) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown initial vector {initial!r}")
    evals, evecs = np.linalg.eigh(_matrix(alpha, jz_over_j))
    coef = evecs.T @ start
    cos, sin = _phase_parts(evals, times)
    p_outer, p_inner = _power(evecs, None, coef[:, None] * cos, coef[:, None] * sin) / _RING
    return p_outer, p_inner
