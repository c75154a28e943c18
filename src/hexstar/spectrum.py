"""Sector diagonalization and spectral bookkeeping.

Everything downstream (degeneracy tables, ground-state scans, quench
dynamics) consumes the SpectrumResult produced here: eigenvalues in units
of J, eigenvectors as columns over the sector basis, and eigenvalue
clusters resolved at a relative tolerance of the spectral spread.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .lattice import IRREP_DIMS, IRREP_LABELS, N_SITES, build_geometry
from .hilbert import StateVector, sector_basis, spin_flip
from .hamiltonian import (
    DEG_TOL_RELATIVE,
    ModelParams,
    anisotropy_split,
    build_sector_hamiltonian,
    heisenberg_casimir,
    total_coupling,
)
from .symmetry import irrep_blocks

SUPPORT_TOL = 1e-10   # default overlap threshold for spectral support
RESIDUAL_TOL = 1e-10  # per-eigenpair residual bound, relative to the spread
REFINE_TOL = 1e-6     # Jz/J width of the bracket the ground-state crossover is refined to


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
    shares one cache entry per (|M|, params, deg_tol_rel): sector -M is
    the exact spin flip of the cached sector M, never solved on its own.
    """
    if M >= 0:
        return _diagonalize_sector(M, params, deg_tol_rel)
    sector_basis(M)  # rejects M < -6
    return _mirror_result(_diagonalize_sector(-M, params, deg_tol_rel))


@lru_cache(maxsize=26)  # M >= 0 only: three parameter sets of 7 sectors, plus 5 entries
def _diagonalize_sector(M: int, params: ModelParams, deg_tol_rel: float) -> SpectrumResult:
    """Eigenpairs from the irrep blocks of both partners, one row per state.

    Every eigenvector is a block eigenvector mapped back through its
    block's rows, so it carries exactly one irrep, and a cluster's irrep
    slots count the levels each irrep contributes to it.
    """
    h = build_sector_hamiltonian(M, params).matrix
    blocks = irrep_blocks(M)
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
    vectors = spin_flip(StateVector(amps=res.eigenvectors, sector=res.M)).amps
    vectors.flags.writeable = False
    return replace(res, M=-res.M, eigenvectors=vectors)


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
    """
    merged = np.sort(np.concatenate([
        diagonalize_sector(abs(M), params, deg_tol_rel).eigenvalues for M in range(-6, 7)]))
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
    crossover_excess: tuple[float, float] | None  # ferro excess at the two bracket ends


@lru_cache(maxsize=1)
def _block_pairs(alpha: float) -> dict[int, tuple[tuple[str, np.ndarray, np.ndarray], ...]]:
    """(irrep, B X B^T, diagonal of B diag(zz) B^T) per C2'(0)-even block of each M >= 0.

    Sector M is X + (Jz/J) diag(zz) at every anisotropy, so the pair gives
    each block along the whole Jz/J axis of this alpha.  X is projected as
    a sparse matrix.  Each row of B lives on one orbit of configurations
    under the point group, which preserves distances and so leaves zz
    constant on the orbit: B diag(zz) B^T is diagonal, each row's squared
    entries weighting zz.
    """
    import scipy.sparse  # deferred: `import hexstar` does not load scipy.sparse

    pairs = {}
    for M in range(0, 7):
        split = anisotropy_split(M, alpha)
        d = len(split.zz)
        x = scipy.sparse.csr_array((split.flip, (split.rows, split.cols)), shape=(d, d))
        pairs[M] = tuple(
            (b.irrep, (b.basis @ x @ b.basis.T).toarray(), (b.basis * b.basis) @ split.zz)
            for b in irrep_blocks(M) if b.partner > 0
        )
    return pairs


def _sector_levels(params: ModelParams) -> dict[int, dict[str, np.ndarray]]:
    """Eigenvalues of the C2'(0)-even irrep blocks of every sector M >= 0, keyed by irrep.

    Sector -M repeats the levels of M; a level of a two-dimensional irrep
    stands for two states of its sector.  A Jz/J so large that a level
    overflows raises RuntimeError.
    """
    jz = params.jz_over_j
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            levels = {M: {r: np.linalg.eigvalsh(x + np.diag(jz * z)) for r, x, z in blocks}
                      for M, blocks in _block_pairs(params.alpha).items()}
        if all(np.isfinite(v).all() for blocks in levels.values() for v in blocks.values()):
            return levels
    except np.linalg.LinAlgError:  # LAPACK gives up on some infinite entries
        pass
    raise RuntimeError(f"a block level is not finite at alpha={params.alpha:g}, "
                       f"Jz/J={jz:g}: the energies overflow a float")


def _ground_point(
    jz_over_j: float, levels: dict[int, dict[str, np.ndarray]], deg_tol_rel: float
) -> GroundPoint:
    merged = np.concatenate([v for blocks in levels.values() for v in blocks.values()])
    deg_tol = deg_tol_rel * float(merged.max() - merged.min())
    e0 = float(merged.min())

    degeneracy = 0
    sectors = []
    holders = None  # irreps at the ground level in its lowest |M|
    for M in range(0, 7):
        hits = {r: int(np.count_nonzero(v <= e0 + deg_tol)) for r, v in levels[M].items()}
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
    """Global ground level at one parameter point, from irrep-block eigenvalues only.

    A unique ground level lies in M = 0: every level of M > 0 has its
    spin-flip copy at -M.
    """
    return _ground_point(params.jz_over_j, _sector_levels(params), deg_tol_rel)


def _ferro_excess(jz: float, w: float, levels: dict[int, dict[str, np.ndarray]]) -> float:
    """Ferromagnet energy (Jz/J) w minus the lowest level of the sectors M = 0..5."""
    return jz * w - float(min(v[0] for M in range(0, 6) for v in levels[M].values()))


def _refine_crossing(
    alpha: float, w: float, lo: float, f_lo: float, hi: float, f_hi: float
) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """Illinois regula falsi on the ferro excess: crossover, bracket and true excess at its ends."""
    if (f_lo < 0) == (f_hi < 0):  # no sign change: a grid point ties the crossing
        x, f_x = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
        return x, (x, x), (f_x, f_x)
    s_lo, s_hi = f_lo, f_hi  # the excess the secant uses, halved by the Illinois rule
    kept = 0                 # -1 after lo moved, +1 after hi moved
    while hi - lo > REFINE_TOL:
        x = lo - s_lo * (hi - lo) / (s_hi - s_lo)  # s_lo and s_hi differ in sign
        x = min(max(x, lo + 0.5 * REFINE_TOL), hi - 0.5 * REFINE_TOL)
        f_x = _ferro_excess(x, w, _sector_levels(ModelParams(alpha=alpha, jz_over_j=x)))
        if (f_x < 0) == (f_lo < 0):
            lo, f_lo, s_lo = x, f_x, f_x
            if kept < 0:
                s_hi *= 0.5
            kept = -1
        else:
            hi, f_hi, s_hi = x, f_x, f_x
            if kept > 0:
                s_lo *= 0.5
            kept = 1
    crossover = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    return min(max(crossover, lo), hi), (lo, hi), (f_lo, f_hi)


def ground_state_scan(
    alpha: float,
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> GroundScan:
    """Ground level along a Jz/J grid, with the level crossing refined by regula falsi.

    The ferromagnetic branch is exactly linear, E = (Jz/J) w with w the sum
    of couplings, and the lowest level of the sectors M = 0..5 is concave in
    Jz/J (a minimum over affine functions), so the ferro excess
    f = (Jz/J) w - rival is convex and has one root in any bracket across
    which it changes sign.  The bracket is the first grid step, its ends
    ordered, where the ferromagnet starts or stops winning; the grid may run
    in either direction.  The Illinois variant of regula falsi (Dowell &
    Jarratt 1971) refines the root with no derivative: each step is the
    secant root of the bracket, kept at least REFINE_TOL/2 inside it, and an
    end that survives two steps in a row has its stored excess halved.  It
    stops at a bracket of REFINE_TOL.  The crossover is the secant root of
    the true excess at the bracket's ends, and both values are reported.  A
    grid point within the clustering tolerance of the crossing can leave
    one sign of f at both ends; the crossing is then the end of smaller |f|,
    with a bracket of zero width.
    """
    w = total_coupling(build_geometry(), alpha)
    points = []
    excess = []
    for jz in map(float, jz_values):
        levels = _sector_levels(ModelParams(alpha=alpha, jz_over_j=jz))
        points.append(_ground_point(jz, levels, deg_tol_rel))
        excess.append(_ferro_excess(jz, w, levels))

    for k in range(len(points) - 1):
        if (6 in points[k].sectors) != (6 in points[k + 1].sectors):
            (lo, f_lo), (hi, f_hi) = sorted([(points[k].jz_over_j, excess[k]),
                                             (points[k + 1].jz_over_j, excess[k + 1])])
            return GroundScan(alpha, tuple(points),
                              *_refine_crossing(alpha, w, lo, f_lo, hi, f_hi))
    return GroundScan(alpha, tuple(points), None, None, None)


@dataclass(frozen=True)
class OverlapPoint:
    jz_over_j: float
    overlap_sq: float                 # against the Heisenberg ground state
    spin_weights: dict[int, float]    # total-spin content of the ground state


def heisenberg_overlap_scan(
    jz_values: tuple[float, ...] | list[float] | np.ndarray,
    alpha: float = 6.0,
) -> tuple[OverlapPoint, ...]:
    """Overlap of the M=0 ground state with its Heisenberg-point counterpart.

    The spin weights of a point are its squared overlaps with the
    Heisenberg-point M=0 eigenvectors, summed per total-spin label over
    whole clusters, so no vector of a degenerate level is singled out.
    Raises ValueError when the lowest M=0 level of the reference or of any
    point is degenerate: no single vector of that level is the ground state.
    """
    def ground(jz: float) -> SpectrumResult:
        res = diagonalize_sector(0, ModelParams(alpha=alpha, jz_over_j=jz))
        size = res.clusters[0].size
        if size > 1:
            raise ValueError(
                f"M=0 ground level at Jz/J={jz:g}, alpha={alpha:g} is {size}-fold "
                "degenerate; the overlap scan needs a unique ground state"
            )
        return res

    ref = ground(1.0)
    # clusters are contiguous runs of columns, so this is the spin of each column
    spin_of = np.repeat([c.spin for c in ref.clusters], [c.size for c in ref.clusters])
    out = []
    for jz in jz_values:
        v = ground(float(jz)).eigenvectors[:, 0]
        weights = np.bincount(spin_of, (ref.eigenvectors.T @ v) ** 2)
        out.append(OverlapPoint(
            jz_over_j=float(jz),
            overlap_sq=float(np.dot(ref.eigenvectors[:, 0], v) ** 2),
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
