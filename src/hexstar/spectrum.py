"""Sector diagonalization and spectral bookkeeping.

Everything downstream (degeneracy tables, ground-state scans, quench
dynamics) consumes the SpectrumResult produced here: eigenvalues in units
of J, eigenvectors as columns over the sector basis, and eigenvalue
clusters resolved at a relative tolerance of the spectral spread.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import IRREP_DIMS, IRREP_LABELS, N_SITES, build_geometry
from .hilbert import FULL_MASK, sector_basis
from .hamiltonian import (
    DEG_TOL_RELATIVE,
    ModelParams,
    build_sector_hamiltonian,
    heisenberg_casimir,
    total_coupling,
)
from .symmetry import irrep_blocks, odd_partner_blocks

SUPPORT_TOL = 1e-10   # default overlap threshold for spectral support
RESIDUAL_TOL = 1e-10  # per-eigenpair residual bound, relative to the spread


def thread_budget() -> int:
    """Worker cap once used for a sector fan-out, overridable via HEXSTAR_THREADS.

    The library no longer reads it: sectors are diagonalized one after
    another.  perfbench still records it as ``sector_pool_workers``.
    """
    env = os.environ.get("HEXSTAR_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError("HEXSTAR_THREADS must be a positive integer")
        return n
    return min(7, os.cpu_count() or 1)


@dataclass(frozen=True, eq=False)
class EigenCluster:
    indices: np.ndarray      # eigenindices, contiguous ascending
    energy: float            # representative eigenvalue, units of J
    irrep_slots: dict[str, int] | None = None  # eigenstates per irrep
    irrep: str | None = None  # set when a single irrep fills the cluster
    spin: int | None = None   # total spin, Heisenberg point only

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    M: int
    params: ModelParams
    eigenvalues: np.ndarray   # ascending, units of J
    eigenvectors: np.ndarray  # column k belongs to eigenvalues[k]
    clusters: tuple[EigenCluster, ...]
    deg_tol: float            # absolute clustering tolerance used

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def split_into_clusters(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group ascending values into runs separated by gaps larger than tol."""
    if len(values) == 0:
        return []
    breaks = np.nonzero(np.diff(values) > tol)[0]
    return np.split(np.arange(len(values)), breaks + 1)


def diagonalize_sector(
    M: int, params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> SpectrumResult:
    """Eigenpairs and labelled eigenvalue clusters of sector M, cached.

    Every call form (tolerance given or defaulted, positional or keyword)
    shares one cache entry per (M, params, deg_tol_rel).
    """
    return _diagonalize_sector(M, params, deg_tol_rel)


@lru_cache(maxsize=26)  # two parameter sets of all 13 sectors
def _diagonalize_sector(M: int, params: ModelParams, deg_tol_rel: float) -> SpectrumResult:
    """Eigenpairs from the irrep blocks of both partners, one row per state.

    Every eigenvector is a block eigenvector mapped back through its
    block's rows, so it carries exactly one irrep, and a cluster's irrep
    slots count the levels each irrep contributes to it.
    """
    h = build_sector_hamiltonian(M, params, exact=False).matrix
    blocks = irrep_blocks(M) + odd_partner_blocks(M)
    solved = [np.linalg.eigh(b.basis @ (b.basis @ h).T) for b in blocks]
    merged = np.concatenate([values for values, _ in solved])
    order = np.argsort(merged, kind="stable")
    eigenvalues = merged[order]
    column = np.empty_like(order)  # sorted column of each merged level
    column[order] = np.arange(len(order))
    eigenvectors = np.empty((len(order), len(order)), order="F")  # columns contiguous
    irrep_of = np.empty(len(order), dtype=np.int64)  # index into IRREP_LABELS per column
    start = 0
    for b, (values, u) in zip(blocks, solved):
        cols = column[start:start + len(values)]
        eigenvectors[:, cols] = b.basis.T @ u
        irrep_of[cols] = IRREP_LABELS.index(b.irrep)
        start += len(values)

    spread = float(eigenvalues[-1] - eigenvalues[0])
    residual = np.abs(h @ eigenvectors - eigenvectors * eigenvalues).max()
    if residual > RESIDUAL_TOL * max(spread, 1.0):
        raise RuntimeError(f"eigenpair residual {residual:.2e} too large in sector {M}")

    deg_tol = deg_tol_rel * spread
    raw = split_into_clusters(eigenvalues, deg_tol)
    spins = [None] * len(raw)
    if params.jz_over_j == 1.0:
        # S(S+1) = <v|S^2|v> on each cluster's first eigenvector
        v = eigenvectors[:, [idx[0] for idx in raw]]
        s_sq = np.einsum("ij,ij->j", v, heisenberg_casimir(M) @ v)
        s_val = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * s_sq))
        off = np.abs(s_val - np.rint(s_val))
        if off.max() > 1e-6:
            raise RuntimeError(f"non-integer total spin {s_val[off.argmax()]} in sector {M}")
        spins = np.rint(s_val).astype(int).tolist()
    clusters = []
    for idx, spin in zip(raw, spins):
        counts = np.bincount(irrep_of[idx], minlength=len(IRREP_LABELS))
        slots = {r: int(n) for r, n in zip(IRREP_LABELS, counts) if n}
        clusters.append(EigenCluster(
            indices=idx,
            energy=float(eigenvalues[idx[0]]),
            irrep_slots=slots,
            irrep=next(iter(slots)) if len(slots) == 1 else None,
            spin=spin,
        ))
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return SpectrumResult(
        M=M,
        params=params,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        clusters=tuple(clusters),
        deg_tol=deg_tol,
    )


diagonalize_sector.cache_info = _diagonalize_sector.cache_info
diagonalize_sector.cache_clear = _diagonalize_sector.cache_clear


def _mirror_result(res: SpectrumResult) -> SpectrumResult:
    """Spectrum of sector -M from sector M via the exact global spin flip."""
    src = sector_basis(res.M)
    dst = sector_basis(-res.M)
    rows = dst.index_of[src.configs ^ FULL_MASK]
    vectors = np.empty_like(res.eigenvectors)
    vectors[rows] = res.eigenvectors
    vectors.flags.writeable = False
    return SpectrumResult(
        M=-res.M,
        params=res.params,
        eigenvalues=res.eigenvalues,
        eigenvectors=vectors,
        clusters=res.clusters,
        deg_tol=res.deg_tol,
    )


def full_spectrum(
    params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> dict[int, SpectrumResult]:
    """Spectra of all thirteen sectors; negative M mirrored from positive."""
    out = {M: diagonalize_sector(M, params, deg_tol_rel) for M in range(0, 7)}
    for M in range(1, 7):
        out[-M] = _mirror_result(out[M])
    return dict(sorted(out.items()))


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
    """Histogram of eigenvalue multiplicities across the full 4096 states."""
    spectra = full_spectrum(params, deg_tol_rel)
    merged = np.sort(np.concatenate([s.eigenvalues for s in spectra.values()]))
    deg_tol = deg_tol_rel * float(merged[-1] - merged[0])
    groups = split_into_clusters(merged, deg_tol)

    counts: dict[int, int] = {}
    for idx in groups:
        counts[len(idx)] = counts.get(len(idx), 0) + 1

    centers = np.array([merged[idx].mean() for idx in groups])
    gaps = np.diff(centers)
    ambiguous = tuple(float(g) for g in gaps if g < 10.0 * deg_tol)
    return DegeneracyHistogram(
        params=params,
        counts=dict(sorted(counts.items())),
        deg_tol=deg_tol,
        ambiguous_gaps=ambiguous,
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
    crossover_bracket: tuple[float, float] | None


def _sector_levels(params: ModelParams) -> dict[int, dict[str, np.ndarray]]:
    """Eigenvalues of every irrep block of every sector M >= 0, keyed by irrep.

    Sector -M repeats the levels of M; a level of a two-dimensional irrep
    stands for two states of its sector.
    """
    levels = {}
    for M in range(0, 7):
        h = build_sector_hamiltonian(M, params, exact=False).matrix
        levels[M] = {
            b.irrep: np.linalg.eigvalsh(b.basis @ (b.basis @ h).T) for b in irrep_blocks(M)
        }
    return levels


def _ground_state(params: ModelParams, deg_tol_rel: float) -> tuple[GroundPoint, int]:
    """Global ground level and the lowest M >= 0 holding it, from block eigenvalues alone."""
    levels = _sector_levels(params)
    merged = np.concatenate([v for blocks in levels.values() for v in blocks.values()])
    deg_tol = deg_tol_rel * float(merged.max() - merged.min())
    e0 = float(merged.min())

    degeneracy = 0
    sectors = []
    winner = None
    for M in range(0, 7):
        hits = {r: int(np.count_nonzero(v <= e0 + deg_tol)) for r, v in levels[M].items()}
        states = sum(IRREP_DIMS[r] * n for r, n in hits.items())
        if not states:
            continue
        if M == 0:
            degeneracy += states
            sectors.append(0)
        else:  # the exact spin flip duplicates every M > 0 level at -M
            degeneracy += 2 * states
            sectors.extend((-M, M))
        if winner is None:
            winner = M
            holders = [r for r, n in hits.items() if n]
    point = GroundPoint(
        jz_over_j=params.jz_over_j,
        energy=e0,
        sectors=tuple(sorted(sectors)),
        degeneracy=degeneracy,
        irrep=holders[0] if len(holders) == 1 else None,
    )
    return point, winner


def ground_state_point(
    params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> GroundPoint:
    """Global ground level at one parameter point, from irrep-block eigenvalues only."""
    return _ground_state(params, deg_tol_rel)[0]


def ground_state_scan(
    alpha: float,
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
    refine_tol: float = 1e-6,
) -> GroundScan:
    """Ground level along a Jz/J grid, with the level crossing refined by bisection.

    The ferromagnetic branch is exactly linear, E = (Jz/J) * sum of
    couplings, so the crossing against the lowest level of the sectors
    M = 0..5 is a clean one-dimensional root find.  The grid may run in
    either direction; the bisection works between the ordered endpoints
    of the first grid step where the ferromagnet starts or stops winning.
    """
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refine_tol must be finite and positive, got {refine_tol}")
    points = tuple(
        ground_state_point(ModelParams(alpha=alpha, jz_over_j=float(jz)), deg_tol_rel)
        for jz in jz_values
    )

    crossover = None
    bracket = None
    w = total_coupling(build_geometry(), alpha)

    def ferro_excess(jz: float) -> float:
        levels = _sector_levels(ModelParams(alpha=alpha, jz_over_j=jz))
        rival = min(v[0] for M in range(0, 6) for v in levels[M].values())
        return jz * w - rival

    for a, b in zip(points[:-1], points[1:]):
        ferro_a = 6 in a.sectors or -6 in a.sectors
        ferro_b = 6 in b.sectors or -6 in b.sectors
        if ferro_a == ferro_b:
            continue
        lo, hi = sorted((a.jz_over_j, b.jz_over_j))
        f_lo = ferro_excess(lo)
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            f_mid = ferro_excess(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        crossover = 0.5 * (lo + hi)
        bracket = (lo, hi)
        break
    return GroundScan(alpha=alpha, points=points, crossover=crossover,
                      crossover_bracket=bracket)


@dataclass(frozen=True)
class OverlapPoint:
    jz_over_j: float
    overlap_sq: float                 # against the Heisenberg ground state
    spin_weights: dict[int, float]    # total-spin content of the ground state


def _spin_component(vector: np.ndarray, M: int, S: int) -> np.ndarray:
    """Project onto total spin S with the polynomial in S^2 that kills the rest."""
    s2 = heisenberg_casimir(M)
    out = vector.copy()
    target = S * (S + 1)
    for other in range(0, N_SITES // 2 + 1):
        if other == S:
            continue
        casimir = other * (other + 1)
        out = (s2 @ out - casimir * out) / (target - casimir)
    return out


def heisenberg_overlap_scan(
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    alpha: float = 6.0,
) -> tuple[OverlapPoint, ...]:
    """Overlap of the M=0 ground state with its Heisenberg-point counterpart.

    Raises ValueError when the lowest M=0 level of the reference or of any
    point is degenerate: no single vector of that level is the ground state.
    """
    def ground_vector(jz: float) -> np.ndarray:
        res = diagonalize_sector(0, ModelParams(alpha=alpha, jz_over_j=jz))
        size = res.clusters[0].size
        if size > 1:
            raise ValueError(
                f"M=0 ground level at Jz/J={jz:g}, alpha={alpha:g} is {size}-fold "
                "degenerate; the overlap scan needs a unique ground state"
            )
        return res.eigenvectors[:, 0]

    ref_vector = ground_vector(1.0)
    out = []
    for jz in jz_values:
        v = ground_vector(float(jz))
        overlap_sq = float(np.dot(ref_vector, v) ** 2)
        weights = {}
        for S in range(0, 7):
            comp = _spin_component(v, 0, S)
            w = float(np.dot(comp, comp))
            if w > 1e-12:
                weights[S] = w
        out.append(OverlapPoint(jz_over_j=float(jz), overlap_sq=overlap_sq,
                                spin_weights=weights))
    return tuple(out)


@dataclass(frozen=True)
class IsingCheck:
    jz_sign: int
    ground_energy: int      # in units of |Jz|, exact integer count of bond mismatch
    degeneracy: int


def ising_degeneracy_check(jz_sign: int) -> IsingCheck:
    """Exact ground degeneracy of the nearest-neighbour Ising limit (J=0).

    Counts, over all 4096 configurations, the minimizers of
    sign(Jz) * sum_{<ij>} z_i z_j restricted to distance-1 bonds.
    """
    if jz_sign not in (-1, 1):
        raise ValueError("jz_sign must be +1 or -1")
    geometry = build_geometry()
    bonds = [
        (i, j)
        for i in range(N_SITES) for j in range(i + 1, N_SITES)
        if geometry.distance_sq[i, j] == 1
    ]
    f = np.arange(1 << N_SITES)
    z = 1 - 2 * ((f[:, None] >> np.arange(N_SITES)[None, :]) & 1)
    s = np.zeros(len(f), dtype=np.int64)
    for i, j in bonds:
        s += z[:, i] * z[:, j]
    energies = jz_sign * s
    e0 = int(energies.min())
    return IsingCheck(
        jz_sign=jz_sign,
        ground_energy=e0,
        degeneracy=int(np.count_nonzero(energies == e0)),
    )
