"""Sector diagonalization and spectral bookkeeping.

Everything downstream (degeneracy tables, ground-state scans, quench
dynamics) consumes the SpectrumResult produced here: eigenvalues in units
of J, eigenvectors as columns over the sector basis, and eigenvalue
clusters resolved at a relative tolerance of the spectral spread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .lattice import N_SITES, build_geometry
from .hilbert import FULL_MASK, sector_basis
from .hamiltonian import (
    DEG_TOL_RELATIVE,
    ModelParams,
    build_sector_hamiltonian,
    heisenberg_casimir,
    total_coupling,
)
from .symmetry import irrep_weights, label_eigenvector

SUPPORT_TOL = 1e-10   # default overlap threshold for spectral support
RESIDUAL_TOL = 1e-10  # per-eigenpair residual bound, relative to the spread


def thread_budget() -> int:
    """Worker cap for sector fan-out, overridable via HEXSTAR_THREADS."""
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


def _label_clusters(
    raw: list[np.ndarray],
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    M: int,
    with_spin: bool,
) -> tuple[EigenCluster, ...]:
    weights = irrep_weights(eigenvectors, M)
    s2 = heisenberg_casimir(M) if with_spin else None
    clusters = []
    for idx in raw:
        slots: dict[str, int] = {}
        for r, w in weights.items():
            total = float(np.sum(w[idx]))
            n = int(round(total))
            if abs(total - n) > 1e-6:
                raise RuntimeError(
                    f"irrep weight {total} for {r} is not an integer in sector {M}; "
                    "eigenvalue clustering is too coarse or too fine"
                )
            if n:
                slots[r] = n
        if sum(slots.values()) != len(idx):
            raise RuntimeError(f"irrep slots {slots} do not fill a cluster of {len(idx)}")
        irrep = next(iter(slots)) if len(slots) == 1 else None
        spin = None
        if s2 is not None:
            v = eigenvectors[:, idx[0]]
            s_sq = float(v @ (s2 @ v))
            s_val = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * s_sq))
            spin = int(round(s_val))
            if abs(s_val - spin) > 1e-6:
                raise RuntimeError(f"non-integer total spin {s_val} in sector {M}")
        clusters.append(EigenCluster(
            indices=idx,
            energy=float(eigenvalues[idx[0]]),
            irrep_slots=slots,
            irrep=irrep,
            spin=spin,
        ))
    return tuple(clusters)


def diagonalize_sector(
    M: int, params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> SpectrumResult:
    """Eigenpairs and labelled eigenvalue clusters of sector M, cached.

    Every call form (tolerance given or defaulted, positional or keyword)
    shares one cache entry per (M, params, deg_tol_rel).
    """
    return _diagonalize_sector(M, params, deg_tol_rel)


@lru_cache(maxsize=48)
def _diagonalize_sector(M: int, params: ModelParams, deg_tol_rel: float) -> SpectrumResult:
    ham = build_sector_hamiltonian(M, params, exact=False)
    eigenvalues, eigenvectors = scipy.linalg.eigh(ham.matrix)

    spread = float(eigenvalues[-1] - eigenvalues[0])
    residual = np.abs(ham.matrix @ eigenvectors - eigenvectors * eigenvalues).max()
    if residual > RESIDUAL_TOL * max(spread, 1.0):
        raise RuntimeError(f"eigenpair residual {residual:.2e} too large in sector {M}")

    deg_tol = deg_tol_rel * spread
    raw = split_into_clusters(eigenvalues, deg_tol)
    with_spin = params.jz_over_j == 1.0
    clusters = _label_clusters(raw, eigenvalues, eigenvectors, M, with_spin)
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return SpectrumResult(
        M=M,
        params=params,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        clusters=clusters,
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
    with ThreadPoolExecutor(max_workers=thread_budget()) as pool:
        futures = {
            M: pool.submit(diagonalize_sector, M, params, deg_tol_rel)
            for M in range(0, 7)
        }
        out = {M: f.result() for M, f in futures.items()}
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


def _sector_levels(params: ModelParams) -> dict[int, np.ndarray]:
    """Eigenvalues of every sector M >= 0; sector -M repeats those of M."""
    return {
        M: np.linalg.eigvalsh(build_sector_hamiltonian(M, params, exact=False).matrix)
        for M in range(0, 7)
    }


def _ground_state(
    params: ModelParams, deg_tol_rel: float
) -> tuple[GroundPoint, int, np.ndarray]:
    """Global ground level, the lowest M >= 0 holding it and one ground vector there.

    Eigenvalues only for every sector; the winner alone gets a vector.
    """
    levels = _sector_levels(params)
    merged = np.concatenate(list(levels.values()))
    deg_tol = deg_tol_rel * float(merged.max() - merged.min())
    e0 = float(merged.min())

    degeneracy = 0
    sectors = []
    winner = None
    for M in range(0, 7):
        hits = int(np.count_nonzero(levels[M] <= e0 + deg_tol))
        if not hits:
            continue
        if M == 0:
            degeneracy += hits
            sectors.append(0)
        else:  # the exact spin flip duplicates every M > 0 level at -M
            degeneracy += 2 * hits
            sectors.extend((-M, M))
        if winner is None:
            winner = M
    ham = build_sector_hamiltonian(winner, params, exact=False)
    if ham.dim == 1:
        vector = np.ones(1)
    else:
        _, v = scipy.linalg.eigh(ham.matrix, subset_by_index=[0, 0])
        vector = v[:, 0]
    point = GroundPoint(
        jz_over_j=params.jz_over_j,
        energy=e0,
        sectors=tuple(sorted(sectors)),
        degeneracy=degeneracy,
        irrep=label_eigenvector(vector, winner),
    )
    return point, winner, vector


def ground_state_point(
    params: ModelParams, deg_tol_rel: float = DEG_TOL_RELATIVE
) -> GroundPoint:
    """Global ground level at one parameter point, eigenvalues-only except the winner."""
    return _ground_state(params, deg_tol_rel)[0]


def ground_state_scan(
    alpha: float,
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
    refine_tol: float = 1e-6,
) -> GroundScan:
    """Ground level along a Jz/J grid, with the level crossing refined by bisection.

    The ferromagnetic branch is exactly linear, E = (Jz/J) * sum of
    couplings, so the crossing against the lowest M=0 level is a clean
    one-dimensional root find.
    """
    points = tuple(
        ground_state_point(ModelParams(alpha=alpha, jz_over_j=float(jz)), deg_tol_rel)
        for jz in jz_values
    )

    crossover = None
    bracket = None
    w = total_coupling(build_geometry(), alpha)

    def ferro_excess(jz: float) -> float:
        levels = _sector_levels(ModelParams(alpha=alpha, jz_over_j=jz))
        rival = min(levels[M][0] for M in range(0, 6))
        return jz * w - rival

    for a, b in zip(points[:-1], points[1:]):
        ferro_a = 6 in a.sectors or -6 in a.sectors
        ferro_b = 6 in b.sectors or -6 in b.sectors
        if ferro_a == ferro_b:
            continue
        lo, hi = a.jz_over_j, b.jz_over_j
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
    """Overlap of the M=0 ground state with its Heisenberg-point counterpart."""
    reference = diagonalize_sector(0, ModelParams(alpha=alpha, jz_over_j=1.0))
    ref_vector = reference.eigenvectors[:, 0]

    out = []
    for jz in jz_values:
        res = diagonalize_sector(0, ModelParams(alpha=alpha, jz_over_j=float(jz)))
        v = res.eigenvectors[:, 0]
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
