"""Quench dynamics of measurement probabilities within magnetization sectors.

Times are measured in units of h/J, so a level pair split by |dE| = J
beats exactly once per unit of the dimensionless time.  The rescaled
probability of configuration f is

    p_f(t) = |sum_nu e^{-i 2 pi (E_nu/J) t} <c_f|nu><nu|psi0>|^2 / ||psi0||^2

with psi0 the sector component of the initial state.  Degenerate levels
are handled cluster-wise throughout: what counts is the projection of
psi0 onto each eigenvalue cluster, never individual eigenvectors of a
degenerate block, so every reported number is basis-choice free.

Every entry point starts from one mode decomposition, read from the
sector spectrum's block form and never from dense eigenvector columns:
z = U_b^T (B_b psi0) per irrep block b, scattered to the block's sorted
columns, and psi0's projection onto each cluster, sum_b B_b^T U_b z over
the cluster's columns of each block.  One real kernel, _power, serves an
evolve's class rows, a return's squared overlaps and analytic's M = 5 block:
with theta = -2 pi E t and a_k the amplitude that mode k carries to a row,

    p(t) = (Re a . cos theta - Im a . sin theta)^2 + (Re a . sin theta + Im a . cos theta)^2,

so no complex phase table is formed.  Two one-entry lru_caches keep the last
cluster overlaps (_solved_overlaps) and the last (cos theta, sin theta) table
(_phases), each keyed on the bytes of the arrays it is computed from, so an
evolve and a return of the same state on the same grid compute them once.
Equiprobability classes are first-fit classes, found by
walking the representatives: each claims its later unclaimed matches at
once, so a row goes to the earliest representative it matches, first-fit's
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .hilbert import StateVector, project_sector
from .hamiltonian import DEG_TOL_RELATIVE, ModelParams
from .spectrum import (SUPPORT_TOL, SpectrumResult, _check_tol, _columns, _run_starts,
                       diagonalize_sector)
from .symmetry import IrrepBlock

# Clusters with projection below this never matter against the 1e-10
# tolerances used downstream; dropping them keeps the mode sum small.
EVOLVE_FLOOR = 1e-13

CLASS_TOL = 1e-8          # entrywise tolerance when matching support rows
GRAM_BLOCK = 128          # support rows per Gram-matrix block of the class prefilter
COLLAPSE_THRESHOLD = 0.1  # rescaled probability below which the peak has collapsed


@dataclass(frozen=True, eq=False)
class SpectralSupport:
    """Clusters of the sector spectrum that carry the initial state.

    Cluster arrays have one entry per contributing cluster, column arrays
    one per mode vector; ``col_cluster`` maps each column to its cluster.
    The orthonormal ``basis`` spans the projections of psi0 onto those
    clusters (two columns per cluster when the state is genuinely
    complex), so basis @ basis.T is the support projector P0.
    """

    M: int
    overlap: np.ndarray        # (K,) projection norm ||P_cluster psi0||
    energies: np.ndarray       # (K,) units of J
    basis: np.ndarray          # (d, ncols) real orthonormal
    col_cluster: np.ndarray    # (ncols,) index into the cluster arrays
    coef: np.ndarray           # (ncols,) complex; P0 psi0 = basis @ coef
    support_tol: float

    @property
    def dim(self) -> int:
        """The support dimension delta_0."""
        return len(self.overlap)

    def restrict(self, support_tol: float) -> SpectralSupport:
        """The clusters above support_tol, with their columns; ValueError if none is.

        A NaN, infinite or negative support_tol raises ValueError.
        """
        _check_tol("support_tol", support_tol)
        keep = self.overlap > support_tol
        if not keep.any():
            raise ValueError(f"no cluster overlap exceeds support_tol={support_tol:g}; "
                             f"the largest is {self.overlap.max(initial=0.0):g}")
        cols = keep[self.col_cluster]
        return SpectralSupport(
            M=self.M,
            overlap=self.overlap[keep],
            energies=self.energies[keep],
            basis=self.basis.compress(cols, axis=1),  # C order, like the full basis
            col_cluster=(np.cumsum(keep) - 1)[self.col_cluster[cols]],
            coef=self.coef[cols],
            support_tol=support_tol,
        )


def _normalized_sector_state(
    state: StateVector, M: int
) -> tuple[np.ndarray, float]:
    if state.sector is None:
        component, weight = project_sector(state, M)
        if weight == 0.0:
            raise ValueError(f"initial state has no component in sector M={M}")
        return component.amps / np.sqrt(weight), weight
    if state.sector != M:
        raise ValueError(f"state lives in sector {state.sector}, not {M}")
    n = state.norm
    if n == 0.0:
        raise ValueError("cannot evolve the zero vector")
    return state.amps / n, n * n


def _content(a: np.ndarray) -> tuple:
    """(dtype, shape, bytes): a hashable key that _array turns back into the same array."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _array(dtype: str, shape: tuple, data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype).reshape(shape)


def _phase_parts(energies: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) of theta = -2 pi E t: one row per energy and one column per time.

    Raises ValueError when a phase is not finite: a non-finite time, or a
    finite one so large that the phase overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta = -2.0 * np.pi * np.outer(energies, times)
    if not np.isfinite(theta).all():
        raise ValueError("times must be finite and small enough that every phase "
                         "2 pi E t is finite")
    return np.cos(theta), np.sin(theta, out=theta)


def _power(a_r: np.ndarray, a_i: np.ndarray | None,
           cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """|(a_r + i a_i) . e^{i theta}|^2 per row and time: the one time-evolution kernel.

    It is (a_r cos - a_i sin)^2 + (a_r sin + a_i cos)^2, real products only,
    with cos and sin one row per mode; a_i None is a real amplitude.
    """
    re, im = a_r @ cos, a_r @ sin
    if a_i is not None:
        re -= a_i @ sin
        im += a_i @ cos
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    return re


class _Overlaps(NamedTuple):
    """psi's coefficients on the sorted columns of a sector spectrum, and the clusters kept."""
    z: np.ndarray         # (d,) V^T psi, column k for eigenvalues[k]
    slot: np.ndarray      # (d,) index among the kept clusters of each column's cluster, or -1
    energies: np.ndarray  # (K,) level of each kept cluster
    norms: np.ndarray     # (K,) ||z|| over each kept cluster's columns, = ||P_cluster psi||


def _block_rows(b: IrrepBlock, psi: np.ndarray) -> np.ndarray:
    """B_b psi: one bincount over the rows each state meets (two for a complex psi)."""
    w = b.coef * psi[:, None]
    rows = b.rows.ravel()
    if np.iscomplexobj(w):
        return (np.bincount(rows, w.real.ravel(), b.copies)
                + 1j * np.bincount(rows, w.imag.ravel(), b.copies))
    return np.bincount(rows, w.ravel(), b.copies)


def _cluster_overlaps(
    state: StateVector, M: int, params: ModelParams, deg_tol_rel: float
) -> tuple[float, SpectrumResult, _Overlaps]:
    """First stage of the mode decomposition: the sector weight, then _solved_overlaps of psi."""
    psi, weight = _normalized_sector_state(state, M)
    return weight, *_solved_overlaps(M, params, deg_tol_rel, _content(psi))


@lru_cache(maxsize=1)  # the last state's: an evolve and a return of it share one decomposition
def _solved_overlaps(M: int, params: ModelParams, deg_tol_rel: float,
                     psi: tuple) -> tuple[SpectrumResult, _Overlaps]:
    """The sector spectrum and the overlaps of the psi whose _content is given.

    The overlaps are z at every sorted column, from each block's
    U_b^T (B_b psi), and the clusters whose ||z|| exceeds EVOLVE_FLOOR; a
    sector -M's blocks are M's read through the spin flip, so psi is never
    flipped.  The value is a function of the key alone, psi's bytes with M,
    params and deg_tol_rel; its arrays are read-only.
    """
    psi = _array(*psi)
    res = diagonalize_sector(M, params, deg_tol_rel)
    z = np.empty_like(psi)
    for b, u, cols in res.solved:
        z[cols] = u.T @ _block_rows(b, psi)
    starts = _run_starts(res.eigenvalues, res.deg_tol)
    norms = np.sqrt(np.add.reduceat((z * z.conj()).real, starts))
    kept = np.flatnonzero(norms > EVOLVE_FLOOR)
    slot = np.full(len(starts), -1)
    slot[kept] = np.arange(len(kept))
    overlaps = _Overlaps(z=z, slot=np.repeat(slot, np.diff(starts, append=res.dim)),
                         energies=res.eigenvalues[starts[kept]], norms=norms[kept])
    for arr in overlaps:
        arr.flags.writeable = False
    return res, overlaps


def _projections(res: SpectrumResult, overlaps: _Overlaps) -> np.ndarray:
    """(d, K) psi's projection onto each kept cluster: sum over blocks of B_b^T U_b z.

    A block's columns ascend, so those of one cluster are adjacent, and one
    reduceat sums U_b z over every cluster segment of the block at once.
    """
    z, slot = overlaps.z, overlaps.slot
    proj = np.zeros((res.dim, len(overlaps.norms)), dtype=z.dtype)
    for b, u, cols in res.solved:
        k = slot[cols]
        sel = np.flatnonzero(k >= 0)
        if len(sel):
            k = k[sel]
            seg = _run_starts(k, 0)
            proj[:, k[seg]] += _columns(b, np.add.reduceat(u[:, sel] * z[cols[sel]], seg, axis=1))
    return proj


def _phase_table(energies: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_phase_parts(energies, times), read-only, from _phases' cache when both match the last."""
    return _phases(_content(energies), _content(times))


@lru_cache(maxsize=1)  # the last grid's: an evolve and a return on it share one table
def _phases(energies: tuple, times: tuple) -> tuple[np.ndarray, np.ndarray]:
    """_phase_parts of the energies and times given by their _content, read-only."""
    parts = _phase_parts(_array(*energies), _array(*times))
    for arr in parts:
        arr.flags.writeable = False
    return parts


def _sector_modes(
    state: StateVector, M: int, params: ModelParams, deg_tol_rel: float
) -> tuple[SpectralSupport, float, float]:
    """Mode decomposition of the normalized sector component of the state.

    Returns the support at EVOLVE_FLOOR, every mode that is ever evolved,
    with the sector weight and the absolute clustering tolerance.  Each
    cluster's projection of psi is split into real and (for a complex psi)
    imaginary parts, orthonormalized within the cluster; a part whose
    remainder is at most EVOLVE_FLOOR adds no column.
    """
    weight, res, overlaps = _cluster_overlaps(state, M, params, deg_tol_rel)
    proj = _projections(res, overlaps)
    cols, keep = [], []
    for part in (proj.real, proj.imag) if np.iscomplexobj(proj) else (proj,):
        w = part.copy()
        for c in cols:  # this cluster's earlier part
            w -= c * np.einsum("ij,ij->j", c, w)
        rest = np.linalg.norm(w, axis=0)
        ok = rest > EVOLVE_FLOOR
        w /= np.where(ok, rest, 1.0)
        w[:, ~ok] = 0.0
        cols.append(w)
        keep.append(ok)
    # a cluster's columns side by side, real part first
    keep = np.stack(keep, axis=1).ravel()
    basis = np.stack(cols, axis=2).reshape(len(proj), -1).compress(keep, axis=1)
    col_cluster = np.flatnonzero(keep) // len(cols)
    return SpectralSupport(
        M=M,
        overlap=overlaps.norms,
        energies=overlaps.energies,
        basis=basis,
        col_cluster=col_cluster,
        coef=np.einsum("ij,ij->j", basis, proj[:, col_cluster]).astype(complex),
        support_tol=EVOLVE_FLOOR,
    ), weight, res.deg_tol


def spectral_support(
    state: StateVector,
    M: int,
    params: ModelParams,
    support_tol: float = SUPPORT_TOL,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> SpectralSupport:
    _check_tol("support_tol", support_tol)
    return _sector_modes(state, M, params, deg_tol_rel)[0].restrict(support_tol)


@dataclass(frozen=True)
class FrequencyCount:
    formula: int    # delta0 * (delta0 - 1) / 2
    distinct: int   # numerically distinct |E_k - E_l| at the clustering tolerance


def frequency_count(support: SpectralSupport, deg_tol: float) -> FrequencyCount:
    _check_tol("deg_tol", deg_tol)
    n = support.dim
    formula = n * (n - 1) // 2
    e = support.energies
    diffs = np.sort(np.abs(e[:, None] - e[None, :])[np.triu_indices(n, k=1)])
    return FrequencyCount(formula=formula, distinct=len(_run_starts(diffs, deg_tol)))


def equiprobability_classes(support: SpectralSupport) -> tuple[np.ndarray, ...]:
    """Group outcomes whose support projections agree up to one global sign.

    Two configurations with P0|c_f> = +-P0|c_g> have identical rescaled
    probability trajectories for every time, so the class count N_p lower-
    bounds the number of distinct curves a measurement can follow.

    The classes are first-fit's: each row joins the earliest class whose
    representative (first member) matches it to CLASS_TOL entrywise under
    either sign, else it starts a class.  The loop walks representatives,
    not rows: a row that no earlier representative has claimed starts a
    class and at once claims every later unclaimed row it matches.  A row
    is therefore claimed by the earliest representative that matches it,
    which is first-fit's rule, so members and their order are first-fit's,
    and claimed rows are never visited again.  Only rows that pass a
    Gram-matrix prefilter are tested.  With n columns and tol = CLASS_TOL,
    ||r_f -+ r_g||_inf <= tol implies ||r_f -+ r_g||_2^2 <= n tol^2, and
    ||r_f -+ r_g||_2^2 = |r_f|^2 + |r_g|^2 -+ 2 r_f.r_g.  In floating
    point the computed right side is off by at most
    2 gamma_{n+2} (|r_f|^2 + |r_g|^2), gamma_k = k eps / (1 - k eps), so
    accepting pairs with |r_f|^2 + |r_g|^2 - 2 |r_f.r_g| up to n tol^2
    plus twice that error keeps every pair the exact test could accept,
    whichever side of the Gram product the pair is read from.
    """
    rows = support.basis
    d, n = rows.shape
    sq = np.einsum("ij,ij->i", rows, rows)
    rounding = 4.0 * (n + 2) * np.finfo(float).eps
    claimed = np.zeros(d, dtype=bool)
    members: list[np.ndarray] = []
    for start in range(0, d, GRAM_BLOCK):
        # Gram rows of the block's unclaimed rows, against the rows from start on
        block = start + np.flatnonzero(~claimed[start:start + GRAM_BLOCK])
        pair_sq = sq[block, None] + sq[None, start:]
        gram = rows[block] @ rows[start:].T
        near = pair_sq - 2.0 * np.abs(gram) <= n * CLASS_TOL * CLASS_TOL + rounding * pair_sq
        for i, f in enumerate(block):
            if claimed[f]:  # by a representative earlier in this block
                continue
            claimed[f] = True
            # every unclaimed row from start on comes after f
            cand = start + np.flatnonzero(near[i] & ~claimed[start:])
            if len(cand):
                r, other = rows[f], rows[cand]
                cand = cand[(np.max(np.abs(other - r), axis=1) <= CLASS_TOL)
                            | (np.max(np.abs(other + r), axis=1) <= CLASS_TOL)]
                claimed[cand] = True
            members.append(np.concatenate(([f], cand)))
    return tuple(members)


@dataclass(frozen=True, eq=False)
class Trajectory:
    M: int
    params: ModelParams
    times: np.ndarray          # units of h/J
    class_probs: np.ndarray    # (N_e, T) one evolved row per class of the evolved modes
    row_class: np.ndarray      # (d,) index into class_probs of each configuration
    broadcast_bound: float     # bound on what giving members their class's row changes
    sector_weight: float       # squared norm of the sector component
    support: SpectralSupport
    classes: tuple[np.ndarray, ...]
    freq: FrequencyCount

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def probs(self) -> np.ndarray:
        """(d, T) rescaled within the sector, class_probs[row_class]; built on first read."""
        return self.class_probs[self.row_class]


def evolve_probabilities(
    state: StateVector,
    M: int,
    params: ModelParams,
    times: np.ndarray,
    support_tol: float = SUPPORT_TOL,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> Trajectory:
    """Rescaled probability of every sector configuration along a time grid.

    Every mode above EVOLVE_FLOOR is evolved, one row per equiprobability
    class of those modes.  For the class representative's basis row r_rep,
    a_k = sum of r_rep * coef over cluster k's columns, and with
    theta = -2 pi E_k t the row is

        p_rep(t) = (Re a . cos theta - Im a . sin theta)^2
                   + (Re a . sin theta + Im a . cos theta)^2,

    real matrix products only (Im a is 0 for a real state and is skipped),
    given to every member, so the members of a class are bitwise equal.
    That is |r_rep . (coef * e^{i theta})|^2; since |r . a(t)| <= 1 and
    ||a(t)||_1 = ||coef||_1, a member with r_f = +-r_rep + e differs from
    its class's row by at most 2 ||e||_inf ||coef||_1 in exact arithmetic;
    the largest such value is ``broadcast_bound``.  ``support_tol`` only
    selects the support the statistics and reported classes are read from,
    the same one spectral_support reports; when it drops no mode column the
    reported classes are the evolved ones.
    """
    _check_tol("support_tol", support_tol)
    modes, weight, deg_tol = _sector_modes(state, M, params, deg_tol_rel)
    evolved = equiprobability_classes(modes)
    reps = np.array([members[0] for members in evolved])
    row_class = np.empty(len(modes.basis), dtype=int)
    for k, members in enumerate(evolved):
        row_class[members] = k
    rep_rows = modes.basis[reps][row_class]
    row_dev = np.minimum(np.abs(modes.basis - rep_rows).max(axis=1, initial=0.0),
                         np.abs(modes.basis + rep_rows).max(axis=1, initial=0.0))
    class_probs = _mode_sums(modes.basis[reps], modes, np.iscomplexobj(state.amps),
                             *_phase_table(modes.energies, times))
    support = modes.restrict(support_tol)
    same_modes = support.basis.shape == modes.basis.shape
    return Trajectory(
        M=M,
        params=params,
        times=times,
        class_probs=class_probs,
        row_class=row_class,
        broadcast_bound=2.0 * float(row_dev.max()) * float(np.abs(modes.coef).sum()),
        sector_weight=weight,
        support=support,
        classes=evolved if same_modes else equiprobability_classes(support),
        freq=frequency_count(support, deg_tol),
    )


def _mode_sums(rows: np.ndarray, modes: SpectralSupport, complex_state: bool,
               cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """|rows . (coef * e^{i theta})|^2 per row and time, by _power.

    The amplitudes a = rows * coef are summed per cluster first (C x K), so
    each cluster's cos and sin rows are read once; a cluster without a
    column keeps a zero column.
    """
    starts = _run_starts(modes.col_cluster, 0)
    scaled = rows * (modes.coef if complex_state else modes.coef.real)
    amps = np.zeros((len(rows), len(cos)), dtype=scaled.dtype)
    amps[:, modes.col_cluster[starts]] = np.add.reduceat(scaled, starts, axis=1)
    a_i = np.ascontiguousarray(amps.imag) if complex_state else None
    return _power(np.ascontiguousarray(amps.real), a_i, cos, sin)


def return_probability(
    state: StateVector,
    M: int,
    params: ModelParams,
    times: np.ndarray,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> np.ndarray:
    """|<psi0|psi(t)>|^2 for the normalized sector component of the state.

    With o_k the projection norm of kept cluster k and theta = -2 pi E_k t,
    it is _power of the real amplitudes o^2, (o^2 . cos theta)^2 +
    (o^2 . sin theta)^2.  That needs only each
    cluster's energy and projection norm, the first stage of the mode
    decomposition, and reads the (cos, sin) pair that an evolve of the same
    state on the same grid has built.
    """
    overlaps = _cluster_overlaps(state, M, params, deg_tol_rel)[2]
    return _power(overlaps.norms**2, None, *_phase_table(overlaps.energies, times))


@dataclass(frozen=True)
class CollapseMetrics:
    initial_outcome: int            # most likely outcome at t=0, lowest index on ties
    initial_prob: float
    collapse_time: float | None     # first grid time below threshold, None if never
    threshold: float
    dominant: tuple[int, ...]       # outcomes whose peak clears 2x the third-largest
    tail_max: float                 # largest peak among the non-dominant outcomes


def collapse_metrics(traj: Trajectory) -> CollapseMetrics:
    """Collapse of the most likely initial outcome, and the dominant outcomes.

    The initial outcome is the lowest index whose t=0 probability lies
    within CLASS_TOL of the maximum, so outcomes tied up to rounding (all
    twelve of xi in M=5, say) resolve the same way on every platform.
    """
    # read per class: a configuration's row is its class's row
    probs, row_class = traj.class_probs, traj.row_class
    start = probs[row_class, 0]
    initial = int(np.argmax(start >= start.max() - CLASS_TOL))
    p0 = float(start[initial])

    collapse_time = None
    if p0 >= COLLAPSE_THRESHOLD:
        below = np.nonzero(probs[row_class[initial]] < COLLAPSE_THRESHOLD)[0]
        if len(below):
            collapse_time = float(traj.times[below[0]])

    peaks = probs.max(axis=1)[row_class]
    if len(peaks) >= 3:
        third = float(np.sort(peaks)[::-1][2])
        is_dominant = peaks > 2.0 * third
    else:
        is_dominant = peaks > 0.5
    dominant = tuple(int(i) for i in np.flatnonzero(is_dominant))
    rest = peaks[~is_dominant]
    tail_max = float(rest.max()) if len(rest) else 0.0
    return CollapseMetrics(
        initial_outcome=initial,
        initial_prob=p0,
        collapse_time=collapse_time,
        threshold=COLLAPSE_THRESHOLD,
        dominant=dominant,
        tail_max=tail_max,
    )


def regime_classifier(traj: Trajectory) -> str:
    """One of "constant", "sinusoidal", "collapse", "aperiodic"."""
    if traj.freq.distinct == 0:
        return "constant"
    if traj.freq.distinct == 1:
        return "sinusoidal"
    if collapse_metrics(traj).collapse_time is not None:
        return "collapse"
    return "aperiodic"
