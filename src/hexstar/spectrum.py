"""Sector diagonalization and spectral bookkeeping on irrep-block operators.

Labelled spectra and ground-state scans both solve the C2'(0)-even irrep
blocks of X + (Jz/J) diag(zz); the odd block of E1u or E2g is its even
block's partner and shares its operator and eigenpairs.  Both parts are
sums over the six distance classes, w_c B X_c B^T and w_c B diag(zz_c) B^T,
whose class parts are projected once per sector; any alpha is then a
six-term sum.  A ground-state scan remembers where it last solved each
block and skips the blocks whose Weyl bounds prove that they cannot hold a
level its verdict reads; its ferro/antiferro crossover is the smallest
lowest eigenvalue of one alpha-only matrix per block, in closed form.  Spin
labels read B S^2 B^T, cached per sector.  A labelled solve checks every
eigenpair at block size, ||H_r u - e u||; a projection certificate, built
once per sector from the class parts and free of both couplings
(_certificate), bounds what the dense sector H adds to that, so no dense H
is formed.  Downstream code reads the SpectrumResult: eigenvalues in units
of J, eigenvectors in block form (dense columns over the sector basis only
when read), eigenvalue clusters at a relative tolerance of the spread, and
the certified residual over its bound.  Sector -M is never solved: it is
M's result with each block's state axis reversed (_mirror_result), and is
read like any other.  Every entry point that solves blocks runs on one
thread of numpy's OpenBLAS (blas_threads) and gives the caller's count back:
a block has at most 156 rows, too few to share, and after each call on two
threads the idle worker spins for about 0.13 s of CPU.  The levels then no
longer depend on the caller's thread count.
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lattice import IRREP_DIMS, IRREP_LABELS, N_SITES, build_geometry
from .hilbert import sector_basis
from .hamiltonian import (
    DEG_TOL_RELATIVE,
    ModelParams,
    class_weights,
    coupling_classes,
    total_coupling,
)
from .symmetry import IrrepBlock, irrep_blocks, orbit_layout

SUPPORT_TOL = 1e-10   # default overlap threshold for spectral support
RESIDUAL_TOL = 1e-10  # per-eigenpair residual bound, relative to the spread


def _check_tol(name: str, value: float) -> None:
    """ValueError for a NaN, infinite or negative tolerance."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name}={value:g} must be finite and non-negative")


def thread_budget() -> int:
    """Workers that solve sectors: 1, since sectors are diagonalized one after another.

    perfbench records it as ``sector_pool_workers``.  Each solve also runs on
    one BLAS thread (blas_threads).
    """
    return 1


def _load_openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through ctypes; else None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*scipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has loaded it, so this is numpy's copy
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or without these symbols
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_OPENBLAS = _load_openblas()


@contextmanager
def blas_threads(n: int):
    """Run the body, or each call of the decorated function, on n OpenBLAS threads.

    The caller's count is restored afterwards, also when the body raises.  The
    count is process-wide, so calls from several Python threads would share
    it.  Without numpy's bundled OpenBLAS this does nothing.
    """
    if _OPENBLAS is None:
        yield
        return
    get, put = _OPENBLAS
    caller = get()
    put(n)
    try:
        yield
    finally:
        put(caller)


@dataclass(frozen=True, eq=False)
class EigenCluster:
    indices: np.ndarray      # eigenindices, contiguous ascending
    energy: float            # representative eigenvalue, units of J
    irrep_slots: dict[str, int]  # eigenstates per irrep
    spin: int | None = None  # total spin, Heisenberg point only

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def irrep(self) -> str | None:
        """The irrep when a single one fills the cluster, else None."""
        return next(iter(self.irrep_slots)) if len(self.irrep_slots) == 1 else None


_Solved = tuple[IrrepBlock, np.ndarray, np.ndarray]  # (block, its eigh vectors U_r, their columns)


def _columns(b: IrrepBlock, u: np.ndarray) -> np.ndarray:
    """V_r = B_r^T U_r: the block's eigenvectors over the sector basis."""
    return np.einsum("st,stk->sk", b.coef, u[b.rows])


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """One sector's levels and labels, with its eigenvectors in block form.

    ``solved`` keeps each block's (B_b over this sector's states, U_b, sorted
    columns); sector -M's holds M's, read through the flip.  ``eigenvectors``
    maps them out to dense columns afresh on every read and keeps none, so
    the result holds the block form alone.  No library path reads
    ``eigenvectors``: dynamics works on the blocks.  The dense columns are for
    the tests and the benchmark checks.
    """

    M: int
    params: ModelParams
    eigenvalues: np.ndarray   # ascending, units of J
    clusters: tuple[EigenCluster, ...]
    deg_tol: float            # absolute clustering tolerance used
    residual_margin: float    # a bound on max|H v - E v| over RESIDUAL_TOL max(spread, 1)
    solved: tuple[_Solved, ...] = field(repr=False)  # per block

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def eigenvectors(self) -> np.ndarray:
        """Column k belongs to eigenvalues[k]: F-ordered, read-only, B_b^T U_b per block."""
        vectors = np.empty((self.dim, self.dim), order="F")
        for b, u, cols in self.solved:
            vectors[:, cols] = _columns(b, u)
        vectors.flags.writeable = False
        return vectors


def _run_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """Start of each run of ascending values, split where a gap exceeds tol: the one run rule."""
    return np.flatnonzero(np.concatenate(([len(values) > 0], np.diff(values) > tol)))


@blas_threads(1)
def diagonalize_sector(
    M: int, params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> SpectrumResult:
    """Eigenpairs and labelled eigenvalue clusters of sector M, cached.

    Every call form (tolerance given or defaulted, positional or keyword)
    shares one cache entry per (|M|, params, deg_tol_rel): sector -M is
    the cached sector M read through the exact spin flip (_mirror_result),
    never solved on its own.  A NaN, infinite or negative deg_tol_rel raises
    ValueError before the cache is read.
    """
    _check_tol("deg_tol_rel", deg_tol_rel)
    if M >= 0:
        return _diagonalize_sector(M, params, deg_tol_rel)
    sector_basis(M)  # rejects M < -6
    return _mirror_result(_diagonalize_sector(-M, params, deg_tol_rel))


_Entry = tuple[IrrepBlock, np.ndarray, np.ndarray]  # (block, B X B^T, diagonal of B diag(zz) B^T)


class _ClassBlock(NamedTuple):
    """One irrep block's class operators: B X_c B^T as entries over the six classes."""
    block: IrrepBlock
    flat: np.ndarray  # int32 row * n + column of each entry
    cls: np.ndarray   # int8 class c of each entry
    x: np.ndarray     # its value in B X_c B^T
    z: np.ndarray     # (6, n) diagonal of B diag(zz_c) B^T per class


@lru_cache(maxsize=None)  # every M = 0..6, built once per process
def _class_table(M: int) -> tuple[_ClassBlock, ...]:
    """The class parts of every C2'(0)-even irrep block of sector M.

    An odd block carries its even partner's operators.  The point group
    keeps distances, so it commutes with each X_c, and a row of B lives on
    one configuration orbit, which keeps each zz_c: every B diag(zz_c) B^T
    is diagonal, zz_c weighted by squared rows.  A flip-flop entry (a, b) of
    X_c adds 2 B[i, a] B[j, b] to entry (i, j) of B X_c B^T for every row i
    that a meets and j that b meets, so one bincount over (class, i, j)
    projects all six classes; X_c is symmetric, so the entries a < b and
    the transpose of their sum give the rest.
    """
    classes = coupling_classes(M)
    k = classes.zz.shape[1]
    upper = classes.rows < classes.cols
    left, right = classes.rows[upper], classes.cols[upper]
    cls = classes.cls[upper].astype(np.intp)
    table = []
    for b in irrep_blocks(M):
        if b.partner < 0:
            continue
        n = b.copies
        i = (cls[:, None] * n + np.take(b.rows, left, axis=0)) * n
        j = np.take(b.rows, right, axis=0)
        ci, cj = np.take(b.coef, left, axis=0), np.take(b.coef, right, axis=0)
        dense = np.bincount((i[:, :, None] + j[:, None, :]).ravel(),
                            (2.0 * ci[:, :, None] * cj[:, None, :]).ravel(),
                            minlength=k * n * n).reshape(k, n, n)
        dense = (dense + dense.transpose(0, 2, 1)).ravel()
        cell = np.flatnonzero(dense)
        z = np.bincount((b.rows[:, :, None] + n * np.arange(k)).ravel(),
                        ((b.coef ** 2)[:, :, None] * classes.zz[:, None, :]).ravel(),
                        minlength=k * n)
        table.append(_ClassBlock(block=b, flat=(cell % (n * n)).astype(np.int32),
                                 cls=(cell // (n * n)).astype(np.int8), x=dense[cell],
                                 z=z.reshape(k, n)))
        for arr in table[-1][1:]:
            arr.flags.writeable = False
    return tuple(table)


@lru_cache(maxsize=None)  # every M = 0..6, next to its class table: free of alpha and Jz/J
def _certificate(M: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Bounds on ||E^X_c||_2 and ||E^Z_c||_2 per class c, and on ||B B^T - I||_2.

    E^X_c = B X_c B^T - (+)_r X_c,r and E^Z_c = B diag(zz_c) B^T - (+)_r diag(z_c,r)
    over every row of B, an odd block carrying its even partner's class parts.
    B is block-diagonal over the configuration orbits (orbit_layout, k places
    each), so B X_c B^T is one k x k block coef_O C coef_P^T per orbit pair
    (O, P) that X_c or the class table links, C the pair's flip-flop entries
    by place.
    ||E^X_c||_2 is at most the largest row sum of the symmetric matrix of its
    blocks' Frobenius norms; diag(zz_c) and B B^T keep each orbit, so E^Z_c
    and B B^T - I are bounded by their largest orbit block's Frobenius norm.
    No (d, d) array is formed.
    """
    classes, (state, row, coef) = coupling_classes(M), orbit_layout(M)
    n, k = coef.shape[:2]
    own = np.bincount(state, minlength=n * k).reshape(n, k)  # 1 at each orbit's places
    sizes = {(b.irrep, b.partner): b.copies for b in irrep_blocks(M)}
    first = dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))  # of each block
    parts, diagonal = [], np.zeros((6, n * k))  # the class table over every row of B
    for t in _class_table(M):
        p, q = np.divmod(t.flat.astype(np.intp), len(t.z[0]))
        for s in (first[key] for key in ((t.block.irrep, 1), (t.block.irrep, -1)) if key in first):
            parts.append((row[s + p], row[s + q], t.cls.astype(np.intp), t.x))
            diagonal[:, row[s:s + len(t.z[0])]] = t.z
    i, j, cls, value = (np.concatenate(a) for a in zip(*parts))

    def block_of(a, b, c):
        """The orbit pair (class, O, P) of entries (a, b) of class c, and their place in it."""
        return (c * n + a // k) * n + b // k, a % k * k + b % k

    flips, f_place = block_of(state[classes.rows], state[classes.cols], classes.cls.astype(np.intp))
    table, t_place = block_of(i, j, cls)
    linked = np.bincount(np.concatenate((flips, table)), minlength=6 * n * n) > 0
    pair = np.cumsum(linked) - 1  # each linked orbit pair in order
    f_place += pair[flips] * k * k
    t_place += pair[table] * k * k
    c, left, right = np.unravel_index(np.flatnonzero(linked), (6, n, n))
    transposed = coef.transpose(0, 2, 1).copy()  # contiguous, for BLAS
    frobenius = np.zeros((6, n, n))
    for s in range(0, len(c), 256):  # 256 blocks at a time: small temporaries (peak RSS)
        at, lo, cells = slice(s, s + 256), s * k * k, len(c[s:s + 256]) * k * k
        mine_f = (f_place >= lo) & (f_place < lo + cells)
        mine_t = (t_place >= lo) & (t_place < lo + cells)
        count = np.bincount(f_place[mine_f] - lo, minlength=cells).reshape(-1, k, k)
        e = coef[left[at]] @ (2.0 * count) @ transposed[right[at]]
        e -= np.bincount(t_place[mine_t] - lo, value[mine_t], minlength=cells).reshape(-1, k, k)
        frobenius[c[at], left[at], right[at]] = np.sqrt((e * e).sum((1, 2)))
    zz = np.zeros((6, n * k))
    zz[:, state] = classes.zz.T
    ez = (coef * zz.reshape(6, n, 1, k)) @ transposed
    ez[..., range(k), range(k)] -= diagonal.reshape(6, n, k)
    gram = coef @ transposed
    gram[:, range(k), range(k)] -= own
    x = np.maximum(frobenius, frobenius.transpose(0, 2, 1)).sum(axis=2).max(axis=1)
    z = np.sqrt((ez * ez).sum((2, 3))).max(axis=1)
    x.flags.writeable = z.flags.writeable = False  # cached: every caller reads the same arrays
    return x, z, float(np.sqrt((gram * gram).sum((1, 2))).max())


def _class_sum(t: _ClassBlock, w: np.ndarray) -> np.ndarray:
    """sum_c w_c B X_c B^T, dense."""
    n = t.z.shape[1]
    return np.bincount(t.flat, w[t.cls] * t.x, minlength=n * n).reshape(n, n)


def _partner_operators(M: int, alpha: float) -> tuple[_Entry, ...]:
    """Both parts of every C2'(0)-even irrep block of sector M, for any Jz/J.

    Six-term sums over the class table: nothing is projected at a fresh alpha.
    An odd block's operators are its even partner's.
    """
    w = class_weights(alpha)
    return tuple((t.block, _class_sum(t, w), w @ t.z) for t in _class_table(M))


@lru_cache(maxsize=None)  # every M = 0..6, next to its class table: free of alpha and Jz/J
def _spin_blocks(M: int) -> tuple[np.ndarray, ...]:
    """B S^2 B^T = 3N/4 + (sum_c B [X_c + diag(zz_c)] B^T) / 2 of each even block of sector M."""
    ones = np.ones(6)  # one weight per distance class
    blocks = tuple(0.5 * (_class_sum(t, ones) + np.diag(ones @ t.z))
                   + 0.75 * N_SITES * np.eye(t.z.shape[1]) for t in _class_table(M))
    for a in blocks:
        a.flags.writeable = False
    return blocks


def _cluster_spins(M: int, block: np.ndarray, offset: np.ndarray, pairs: list) -> list[int]:
    """Spins from S(S+1) = u^T B S^2 B^T u, u = U_r[:, offset], (values, U_r) = pairs[block]."""
    s_sq = np.empty(len(block))
    for k in np.unique(block).tolist():
        hit = block == k
        u = pairs[k][1][:, offset[hit]]
        s_sq[hit] = np.einsum("ij,ij->j", u, _spin_blocks(M)[k] @ u)
    return _spins(M, s_sq).tolist()


def _spins(M: int, s_sq: np.ndarray) -> np.ndarray:
    """Integer S from values S(S+1) of sector M; RuntimeError if one is off by more than 1e-6."""
    s_val = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * s_sq))
    off = np.abs(s_val - np.rint(s_val))
    if off.max() > 1e-6:
        raise RuntimeError(f"non-integer total spin {s_val[off.argmax()]} in sector {M}")
    return np.rint(s_val).astype(int)


def _solve_blocks(params: ModelParams, entries: tuple[_Entry, ...], solve=np.linalg.eigvalsh):
    """eigvalsh (or eigh) of each X_r + (Jz/J) diag(z_r); RuntimeError if a level overflows."""
    jz = params.jz_over_j
    with np.errstate(over="ignore"):
        diagonals = [jz * z for _, _, z in entries]
    if all(np.isfinite(z).all() for z in diagonals):
        solved = [solve(x + np.diag(z)) for (_, x, _), z in zip(entries, diagonals)]
        # eigh gives a (values, vectors) tuple, eigvalsh the values alone
        if all(np.isfinite(s[0] if isinstance(s, tuple) else s).all() for s in solved):
            return solved
    raise RuntimeError(f"a block level is not finite at alpha={params.alpha:g}, "
                       f"Jz/J={jz:g}: the energies overflow a float")


def _certify(M: int, params: ModelParams, values: np.ndarray, solved: tuple[_Solved, ...],
             spread: float) -> float:
    """Certified max|H v - e v| over RESIDUAL_TOL max(spread, 1); RuntimeError above 1, or at NaN.

    v = B^T u runs over every column u of every block's U_r in solved (both
    partners, or any subset), e its level read at the block's sorted columns,
    so a level at the wrong column fails.  H_r is the class-table sum
    X_r + (Jz/J) diag(z_r), not the operator handed to eigh, and an odd block
    is checked against its even partner's H_r.  With B H B^T = (+) H_r + E and
    B B^T = I + D, B (H v - e v) = (H_r u - e u) + E u - e D u, and
    ||B^-1||_2 <= 1 / sqrt(1 - ||D||_2), so max|H v - e v| <= ||H v - e v||_2 <=
    (max ||H_r u - e u||_2 + ||E||_2 + max|e| ||D||_2) / sqrt(1 - ||D||_2), and
    ||E||_2 <= sum_c |w_c| (||E^X_c||_2 + |Jz/J| ||E^Z_c||_2) (_certificate).
    No dense H is formed.
    """
    w, jz = class_weights(params.alpha), params.jz_over_j
    tables = {t.block.irrep: t for t in _class_table(M)}
    products, worst, top = {}, [], []  # H_r U_r per irrep, kept for an odd partner's same U_r
    for b, u, cols in solved:
        if products.get(b.irrep, (None,))[0] is not u:
            t = tables[b.irrep]
            products[b.irrep] = u, _class_sum(t, w) @ u + (jz * (w @ t.z))[:, None] * u
        r = products[b.irrep][1] - u * values[cols]
        peak = np.abs(r).max(axis=0)
        r /= np.where(peak > 0.0, peak, 1.0)  # scaled, so that no square overflows
        worst.append((peak * np.sqrt(np.einsum("ij,ij->j", r, r))).max())
        top.append(np.abs(values[cols]).max())
    x, z, delta = _certificate(M)
    spill = float(np.abs(w) @ (x + abs(jz) * z))
    # NaN if any residual or level is
    bound = (float(np.max(worst)) + spill + delta * float(np.max(top))) / np.sqrt(1.0 - delta)
    tol = RESIDUAL_TOL * max(spread, 1.0)
    if not bound <= tol:
        raise RuntimeError(f"eigenpair residual {bound:.2e} too large in sector {M}")
    return bound / tol


@lru_cache(maxsize=26)  # M >= 0 only: three parameter sets of 7 sectors, plus 5 entries
def _diagonalize_sector(M: int, params: ModelParams, deg_tol_rel: float) -> SpectrumResult:
    """Eigenpairs from eigh of every C2'(0)-even block operator, one row per state.

    An odd block takes its even partner's levels and eigh vectors, so each E
    level is solved, labelled and spin-checked once and fills two columns.
    Each eigenvector is a block eigenvector mapped back through its block's
    rows, so it carries one irrep and a cluster's irrep slots count its block
    levels.  _certify bounds max|H v - E v| over every column v of the dense
    sector H by the block residual of both partners' columns plus the
    sector's projection certificate; above RESIDUAL_TOL max(spread, 1), or
    NaN, it raises RuntimeError, and otherwise that bound over its tolerance
    is residual_margin.
    """
    entries = _partner_operators(M, params.alpha)
    pairs = _solve_blocks(params, entries, np.linalg.eigh)
    blocks = irrep_blocks(M)
    index = {b.irrep: k for k, (b, _, _) in enumerate(entries)}
    even = [index[b.irrep] for b in blocks]  # each block's even partner
    merged = np.concatenate([pairs[k][0] for k in even])
    order = np.argsort(merged, kind="stable")
    eigenvalues = merged[order]
    column = np.empty_like(order)  # sorted column of each merged level
    column[order] = np.arange(len(order))
    sizes = [b.copies for b in blocks]
    starts = np.cumsum([0] + sizes)
    solved = tuple((b, pairs[k][1], column[i:j])
                   for b, k, i, j in zip(blocks, even, starts, starts[1:]))

    spread = float(eigenvalues[-1] - eigenvalues[0])
    margin = _certify(M, params, eigenvalues, solved, spread)

    deg_tol = deg_tol_rel * spread
    firsts = _run_starts(eigenvalues, deg_tol)
    raw = np.split(np.arange(len(eigenvalues)), firsts[1:])
    spins = [None] * len(raw)
    if params.jz_over_j == 1.0:
        level = order[firsts]  # merged position of each cluster's first level
        offset = level - np.repeat(starts[:-1], sizes)[level]
        spins = _cluster_spins(M, np.repeat(even, sizes)[level], offset, pairs)
    # eigenstates per irrep of every cluster, one reduceat over the columns
    irrep_of = np.repeat([IRREP_LABELS.index(b.irrep) for b in blocks], sizes)[order]
    slots = np.add.reduceat(np.eye(len(IRREP_LABELS), dtype=np.int64)[irrep_of], firsts)
    clusters = []
    for idx, spin, counts in zip(raw, spins, slots.tolist()):
        held = {r: n for r, n in zip(IRREP_LABELS, counts) if n}
        clusters.append(EigenCluster(
            indices=idx,
            energy=float(eigenvalues[idx[0]]),
            irrep_slots=held,
            spin=spin,
        ))
    eigenvalues.flags.writeable = False
    return SpectrumResult(
        M=M,
        params=params,
        eigenvalues=eigenvalues,
        clusters=tuple(clusters),
        deg_tol=deg_tol,
        residual_margin=margin,
        solved=solved,
    )


diagonalize_sector.cache_info = _diagonalize_sector.cache_info
diagonalize_sector.cache_clear = _diagonalize_sector.cache_clear


def _mirror_result(res: SpectrumResult) -> SpectrumResult:
    """Sector -M by the exact global spin flip: M's levels, labels, U_b and columns.

    The flip f -> f XOR 4095 = 4095 - f reverses the increasing-f order, so
    state i of sector M is state d - 1 - i of -M, with no sign: each block
    of -M is M's block with its state axis reversed.
    """
    solved = tuple((replace(b, rows=b.rows[::-1], coef=b.coef[::-1]), u, cols)
                   for b, u, cols in res.solved)
    return replace(res, M=-res.M, solved=solved)


def full_spectrum(
    params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> dict[int, SpectrumResult]:
    """Spectra of all thirteen sectors; negative M mirrored from positive."""
    return {M: diagonalize_sector(M, params, deg_tol_rel) for M in range(-6, 7)}


@dataclass(frozen=True)
class DegeneracyHistogram:
    params: ModelParams
    counts: dict[int, int]        # degeneracy -> number of clusters
    deg_tol: float                # absolute tolerance used on the merged list
    ambiguous_gaps: tuple[float, ...]  # inter-cluster gaps below 10x tolerance

    @property
    def total_states(self) -> int:
        return sum(d * n for d, n in self.counts.items())


def degeneracy_histogram(
    params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> DegeneracyHistogram:
    """Histogram of eigenvalue multiplicities across the full 4096 states.

    Sector -M has the levels of M, so only the cached sectors M >= 0 are read.
    The groups are the runs of _run_starts, sized from their starts.  A gap
    between the mean levels of two neighbouring groups is never below the
    gap at their edges, up to the rounding of the two means (at most a few
    ulps per level of the larger group), so only neighbours whose edge gap
    falls below 10 deg_tol plus that slack need their means.
    """
    # M = 0 is solved first, so the smaller sectors' temporaries reuse its heap (peak RSS)
    levels = [diagonalize_sector(M, params, deg_tol_rel).eigenvalues for M in range(7)]
    merged = np.sort(np.concatenate(levels[:0:-1] + levels))
    deg_tol = deg_tol_rel * float(merged[-1] - merged[0])
    bounds = np.append(_run_starts(merged, deg_tol), len(merged))
    breaks = bounds[1:-1]
    sizes, counts = np.unique(np.diff(bounds), return_counts=True)

    slack = 4 * int(sizes[-1]) * np.spacing(np.abs(merged).max())
    near = np.flatnonzero(merged[breaks] - merged[breaks - 1] < 10.0 * deg_tol + slack)
    gaps = [merged[b:c].mean() - merged[a:b].mean()  # upper mean minus lower
            for a, b, c in zip(bounds[near], bounds[near + 1], bounds[near + 2])]
    return DegeneracyHistogram(
        params=params,
        counts=dict(zip(sizes.tolist(), counts.tolist())),
        deg_tol=deg_tol,
        ambiguous_gaps=tuple(float(g) for g in gaps if g < 10.0 * deg_tol),
    )


@dataclass(frozen=True)
class GroundPoint:
    jz_over_j: float
    energy: float             # units of J
    sectors: tuple[int, ...]  # magnetizations sharing the ground energy
    degeneracy: int           # states at the ground energy across all sectors
    irrep: str | None


@dataclass(frozen=True)
class GroundScan:
    alpha: float
    points: tuple[GroundPoint, ...]
    crossover: float | None          # Jz/J where the ferromagnet stops winning
    crossover_bracket: tuple[float, float] | None  # (crossover, crossover)
    crossover_excess: tuple[float, float] | None  # ferro excess at the crossover, twice
    block_solves: int = field(compare=False)  # block eigvalsh calls, the crossover's included


class _LevelMemory:
    """A scan's memory of the C2'(0)-even blocks at one alpha: the range of z_r, the last solve.

    From its last solve at Jz, block r = X_r + (Jz/J) diag(z_r) moves by
    (Jz' - Jz) diag(z_r), so by Weyl's inequality (Horn & Johnson, Matrix
    Analysis, section 4.3) each of its levels moves by no less than the
    shift at one end of [min z_r, max z_r] and no more than at the other.
    The crossover reads the blocks of M = 0..5 from the same list.
    """

    def __init__(self, alpha: float, deg_tol_rel: float = DEG_TOL_RELATIVE):
        self.alpha, self.deg_tol_rel = alpha, deg_tol_rel
        self.blocks = [(M, e) for M in range(0, 7) for e in _partner_operators(M, alpha)]
        self.z_lo, self.z_hi = np.array([(z.min(), z.max()) for _, (_, _, z) in self.blocks]).T
        self.jz, self.low, self.top = np.full((3, len(self.blocks)), np.nan)  # the last solve
        self.solves = 0  # block eigvalsh calls

    def bounds(self, jz: float) -> tuple[np.ndarray, np.ndarray]:
        """Per block, bounds below its lowest level and above its highest at jz.

        Each is widened by 1e-9 of the magnitudes that enter it, so that it also
        bounds what eigvalsh returns.  It is NaN for a block never solved, and
        infinite where a diagonal jz z_r overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # the solved diagonals differ by jz z - Jz z, extreme at min z_r or max z_r
            lo, hi = jz * self.z_lo - self.jz * self.z_lo, jz * self.z_hi - self.jz * self.z_hi
            slack = 1e-9 * (1.0 + np.abs(self.low) + np.abs(self.top) + (abs(jz) + np.abs(self.jz))
                            * np.maximum(np.abs(self.z_lo), np.abs(self.z_hi)))
            return self.low + np.minimum(lo, hi) - slack, self.top + np.maximum(lo, hi) + slack

    def solve(self, params: ModelParams, pick: np.ndarray) -> dict[int, np.ndarray]:
        """eigvalsh of the picked blocks, remembered; their levels by block index."""
        index = np.flatnonzero(pick)
        values = _solve_blocks(params, tuple(self.blocks[k][1] for k in index))
        self.jz[index] = params.jz_over_j
        self.low[index], self.top[index] = [v[0] for v in values], [v[-1] for v in values]
        self.solves += len(index)
        return dict(zip(index.tolist(), values))


def _sector_levels(
    params: ModelParams, memory: _LevelMemory | None = None
) -> dict[int, dict[str, np.ndarray]]:
    """Eigenvalues of the C2'(0)-even irrep blocks of the sectors M >= 0, keyed by irrep.

    Sector -M repeats the levels of M; a level of a two-dimensional irrep
    stands for two states of its sector.  A Jz/J so large that a level
    overflows raises RuntimeError.

    With no memory every block is solved.  A scan's memory leaves out each
    block (and each sector left empty) whose bounds prove that it holds none
    of what a ground point reads: the lowest level e0, a level within deg_tol
    of it, and the highest level.  Pass 1 solves the blocks never solved, the
    block of the smallest lower bound and that of the largest upper bound;
    pass 2 every block that the exact pass-1 levels cannot rule out.  Three
    guards keep the result exact:
    - deg_tol is bounded above with the caller's deg_tol_rel, kept in the
      memory, and the widest spread the bounds allow;
    - a NaN or infinite bound never skips a block, so an overflow still raises;
    - a slack of 1e-9 (1 + |e0| + |top|), besides each bound's own widening,
      absorbs the rounding of eigvalsh and of the comparisons.
    """
    memory = _LevelMemory(params.alpha) if memory is None else memory
    lower, upper = memory.bounds(params.jz_over_j)
    pick = ~(np.isfinite(lower) & np.isfinite(upper))
    pick[np.argmin(np.where(pick, np.inf, lower))] = True
    pick[np.argmax(np.where(np.isfinite(upper), upper, -np.inf))] = True
    levels = memory.solve(params, pick)

    e0, top = memory.low[pick].min(), memory.top[pick].max()
    slack = 1e-9 * (1.0 + abs(e0) + abs(top))
    spread = (max(top, upper[~pick].max(initial=-np.inf))
              - min(e0, lower[~pick].min(initial=np.inf)))
    clear = (lower > e0 + memory.deg_tol_rel * spread + slack) & (upper < top - slack)
    levels.update(memory.solve(params, ~pick & ~clear))

    out: dict[int, dict[str, np.ndarray]] = {}
    for k in sorted(levels):
        M, (b, _, _) = memory.blocks[k]
        out.setdefault(M, {})[b.irrep] = levels[k]
    return out


def _ground_point(
    jz_over_j: float, levels: dict[int, dict[str, np.ndarray]], deg_tol_rel: float
) -> GroundPoint:
    merged = np.concatenate([v for blocks in levels.values() for v in blocks.values()])
    deg_tol = deg_tol_rel * float(merged.max() - merged.min())
    e0 = float(merged.min())

    degeneracy = 0
    sectors = []
    holders = None  # irreps at the ground level in its lowest |M|
    for M, blocks in levels.items():  # ascending M
        hits = {r: int(np.count_nonzero(v - e0 <= deg_tol)) for r, v in blocks.items()}
        states = sum(IRREP_DIMS[r] * n for r, n in hits.items())
        if not states:
            continue
        # the exact spin flip duplicates every M > 0 level at -M
        degeneracy += states if M == 0 else 2 * states
        sectors.extend((0,) if M == 0 else (-M, M))
        if holders is None:
            holders = [r for r, n in hits.items() if n]
    return GroundPoint(
        jz_over_j=jz_over_j,
        energy=e0,
        sectors=tuple(sorted(sectors)),
        degeneracy=degeneracy,
        irrep=holders[0] if len(holders) == 1 else None,
    )


def ground_state_point(
    params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> GroundPoint:
    """Global ground level at one parameter point: the one point of ground_state_scan.

    It holds every level v with v - e0 <= deg_tol_rel * spread, the one degeneracy rule.
    A unique ground level lies in M = 0: every level of M > 0 has its spin-flip copy at -M.
    """
    return ground_state_scan(params.alpha, [params.jz_over_j], deg_tol_rel).points[0]


@blas_threads(1)
def _ground_vector(params: ModelParams, deg_tol_rel: float) -> tuple[np.ndarray, int, np.ndarray]:
    """The M = 0 ground vector B^T u; k, the index of its block in _class_table(0); and u.

    u is the lowest eigenvector of the one block that holds the ground level.
    _ground_point on the C2'(0)-even M = 0 levels (eigvalsh) decides uniqueness (ValueError
    if not unique); a unique level lies in a one-dimensional irrep, whose rows each state
    meets once, and eigh solves that block alone.  The pair is checked like a labelled
    solve's: its block residual plus the M = 0 certificate.
    """
    _check_tol("deg_tol_rel", deg_tol_rel)
    entries = _partner_operators(0, params.alpha)
    levels = {b.irrep: values for (b, _, _), values in zip(entries, _solve_blocks(params, entries))}
    point = _ground_point(params.jz_over_j, {0: levels}, deg_tol_rel)
    if point.degeneracy > 1:
        raise ValueError(f"M=0 ground level at Jz/J={params.jz_over_j:g}, alpha={params.alpha:g} "
                         f"is {point.degeneracy}-fold degenerate: no single ground vector")
    k = next(k for k, (b, _, _) in enumerate(entries) if b.irrep == point.irrep)
    ((values, u),) = _solve_blocks(params, entries[k:k + 1], np.linalg.eigh)
    b = entries[k][0]
    vector = np.einsum("st,st->s", b.coef, u[b.rows, 0])
    spread = max(v[-1] for v in levels.values()) - point.energy
    _certify(0, params, values, ((b, u[:, :1], np.zeros(1, dtype=np.intp)),), spread)
    return vector, k, u[:, 0]


def _crossover(memory: _LevelMemory, w: float) -> tuple[float, float]:
    """The Jz/J where the ferromagnet stops winning, and its excess there.

    The ferromagnet has energy (Jz/J) w.  Against it, even block r of
    M = 0..5 is X_r + (Jz/J) diag(z_r) - (Jz/J) w = D^1/2 (K_r - Jz/J) D^1/2,
    with D = w - z_r a positive diagonal (each of its states has an
    anti-aligned pair) and K_r = D^-1/2 X_r D^-1/2.  By Sylvester's law of
    inertia the ferromagnet lies below every level of block r exactly when
    Jz/J < min eig K_r, so the crossover J* is the smallest of these.  The
    excess J* w minus the lowest level of the block that attains J* is a
    check: above RESIDUAL_TOL max(1, |J*| w) it raises RuntimeError.
    """
    blocks = [e for M, e in memory.blocks if M < 6]
    roots = [np.linalg.eigvalsh(x / np.sqrt(np.outer(w - z, w - z)))[0] for _, x, z in blocks]
    k = int(np.argmin(roots))
    jz = float(roots[k])
    (levels,) = _solve_blocks(ModelParams(alpha=memory.alpha, jz_over_j=jz), (blocks[k],))
    memory.solves += len(blocks) + 1
    excess = jz * w - float(levels[0])
    if not abs(excess) <= RESIDUAL_TOL * max(1.0, abs(jz) * w):
        raise RuntimeError(f"ferro excess {excess:.2e} at the crossover Jz/J={jz:g}, "
                           f"alpha={memory.alpha:g}, is not zero")
    return jz, excess


@blas_threads(1)
def ground_state_scan(
    alpha: float,
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> GroundScan:
    """Ground level along a Jz/J grid, with the ferro/antiferro crossover in closed form.

    The points share one _LevelMemory, so each solves only the blocks that
    Weyl bounds from their last solve cannot rule out (see _sector_levels);
    the points equal those of solving every block.  Where the grid's verdict
    "M = 6 holds the ground level" changes, in either direction of the grid,
    the crossover is _crossover's J*, whatever the grid step or the
    clustering tolerance; its bracket is (J*, J*) and its excess the check
    value, twice.  Otherwise all three are None.  block_solves counts the
    block eigvalsh calls, the crossover's 35 and its check included.
    """
    _check_tol("deg_tol_rel", deg_tol_rel)
    memory = _LevelMemory(alpha, deg_tol_rel)
    points = tuple(_ground_point(jz, _sector_levels(ModelParams(alpha=alpha, jz_over_j=jz),
                                                    memory), deg_tol_rel)
                   for jz in map(float, jz_values))
    if any((6 in a.sectors) != (6 in b.sectors) for a, b in zip(points, points[1:])):
        jz, excess = _crossover(memory, total_coupling(build_geometry(), alpha))
        return GroundScan(alpha, points, jz, (jz, jz), (excess, excess), memory.solves)
    return GroundScan(alpha, points, None, None, None, memory.solves)


@dataclass(frozen=True)
class OverlapPoint:
    jz_over_j: float
    overlap_sq: float                 # against the Heisenberg ground state
    spin_weights: dict[int, float]    # total-spin content of the ground state


@blas_threads(1)
def heisenberg_overlap_scan(
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    alpha: float = 6.0,
) -> tuple[OverlapPoint, ...]:
    """Overlap of the M=0 ground state with its Heisenberg-point counterpart.

    Each ground vector, the reference's too, is solved from the one irrep block
    that holds it; a degenerate lowest M=0 level raises ValueError.  S^2 keeps
    that block, and B S^2 B^T is free of alpha and Jz/J: the spin weight of S
    is the sum of (q^T u)^2 over its eigenvectors q of spin S, u the point's
    block eigenvector.
    """
    ref_vector, _, _ = _ground_vector(ModelParams(alpha=alpha, jz_over_j=1.0), DEG_TOL_RELATIVE)
    out = []
    for jz in jz_values:
        v, k, u = _ground_vector(ModelParams(alpha=alpha, jz_over_j=float(jz)), DEG_TOL_RELATIVE)
        s_sq, q = np.linalg.eigh(_spin_blocks(0)[k])
        weights = np.bincount(_spins(0, s_sq), (q.T @ u) ** 2)
        out.append(OverlapPoint(
            jz_over_j=float(jz),
            overlap_sq=float(np.dot(ref_vector, v) ** 2),
            spin_weights={S: float(w) for S, w in enumerate(weights) if w > 1e-12},
        ))
    return tuple(out)


@dataclass(frozen=True)
class IsingCheck:
    jz_sign: int
    ground_energy: int      # in units of |Jz|, exact integer count of bond mismatch
    degeneracy: int


def ising_degeneracy_check(jz_sign: int) -> IsingCheck:
    """Exact ground degeneracy of the nearest-neighbour Ising limit (J=0).

    Counts, over all 4096 configurations, the minimizers of
    sign(Jz) * sum_{<ij>} z_i z_j restricted to distance-1 bonds: the
    nearest-neighbour class column of coupling_classes(M) for M = 0..6, with
    M > 0 counted twice, since the spin flip keeps every z_i z_j.
    """
    if jz_sign not in (-1, 1):
        raise ValueError("jz_sign must be +1 or -1")
    energies = [jz_sign * coupling_classes(M).zz[:, 0] for M in range(7)]
    e0 = min(int(e.min()) for e in energies)
    return IsingCheck(
        jz_sign=jz_sign,
        ground_energy=e0,
        degeneracy=sum((1 if M == 0 else 2) * int(np.count_nonzero(e == e0))
                       for M, e in enumerate(energies)),
    )
