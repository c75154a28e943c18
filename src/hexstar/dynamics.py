"""Quench dynamics of measurement probabilities within magnetization sectors.

Times are measured in units of h/J, so a level pair split by |dE| = J
beats exactly once per unit of the dimensionless time.  The rescaled
probability of configuration f is

    p_f(t) = |sum_nu e^{-i 2 pi (E_nu/J) t} <c_f|nu><nu|psi0>|^2 / ||psi0||^2

with psi0 the sector component of the initial state.  Degenerate levels
are handled cluster-wise throughout: what counts is the projection of
psi0 onto each eigenvalue cluster, never individual eigenvectors of a
degenerate block, so every reported number is basis-choice free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, project_sector
from .hamiltonian import DEG_TOL_RELATIVE, ModelParams
from .spectrum import SUPPORT_TOL, EigenCluster, SpectrumResult, diagonalize_sector

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
    first: np.ndarray          # (K,) first eigenindex of each cluster
    overlap: np.ndarray        # (K,) projection norm ||P_cluster psi0||
    energies: np.ndarray       # (K,) units of J
    basis: np.ndarray          # (d, ncols) real orthonormal
    col_cluster: np.ndarray    # (ncols,) index into the cluster arrays
    coef: np.ndarray           # (ncols,) complex; P0 psi0 = basis @ coef
    support_tol: float

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """One (first eigenindex, projection norm) pair per cluster."""
        return tuple(zip(self.first.tolist(), self.overlap.tolist()))

    @property
    def col_energy(self) -> np.ndarray:
        return self.energies[self.col_cluster]

    @property
    def dim(self) -> int:
        """The support dimension delta_0."""
        return len(self.first)

    def restrict(self, support_tol: float) -> SpectralSupport:
        """The clusters above support_tol, with their columns."""
        keep = self.overlap > support_tol
        cols = keep[self.col_cluster]
        return SpectralSupport(
            M=self.M,
            first=self.first[keep],
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


def phase_factors(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-2 pi i E t), one row per energy and one column per time.

    Raises ValueError when a phase 2 pi E t is not finite: a non-finite
    time, or a finite one so large that the phase overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        arg = -2j * np.pi * np.outer(energies, times)
    if not np.isfinite(arg).all():
        raise ValueError("times must be finite and small enough that every phase "
                         "2 pi E t is finite")
    return np.exp(arg)


def _cluster_overlaps(
    state: StateVector, M: int, params: ModelParams, deg_tol_rel: float
) -> tuple[float, SpectrumResult, list[tuple[EigenCluster, np.ndarray, np.ndarray, float]]]:
    """First stage of the mode decomposition: psi's component in each cluster.

    Returns the sector weight, the sector spectrum and, for every cluster
    whose projection norm exceeds EVOLVE_FLOOR, the cluster with its
    eigenvector block, the block coefficients z = block^T psi and ||z||.
    """
    psi, weight = _normalized_sector_state(state, M)
    res = diagonalize_sector(M, params, deg_tol_rel)
    kept = []
    for cluster in res.clusters:
        # cluster indices are contiguous, so the block is a view, not a copy
        block = res.eigenvectors[:, cluster.indices[0]:cluster.indices[-1] + 1]
        z = block.T @ psi
        norm = float(np.linalg.norm(z))
        if norm > EVOLVE_FLOOR:
            kept.append((cluster, block, z, norm))
    return weight, res, kept


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
    weight, res, kept = _cluster_overlaps(state, M, params, deg_tol_rel)
    cols: list[np.ndarray] = []
    col_cluster: list[int] = []
    coef: list[complex] = []
    parts = (np.real, np.imag) if np.iscomplexobj(state.amps) else (np.real,)
    for k, (_, block, z, _) in enumerate(kept):
        proj = block @ z  # P_cluster psi, complex iff psi is
        own = len(cols)
        for part in parts:
            w = part(proj).copy()
            for c in cols[own:]:
                w -= c * (c @ w)
            rest = float(np.linalg.norm(w))
            if rest <= EVOLVE_FLOOR:
                continue
            w /= rest
            cols.append(w)
            col_cluster.append(k)
            coef.append(complex(w @ proj))
    return SpectralSupport(
        M=M,
        first=np.array([int(c.indices[0]) for c, *_ in kept], dtype=int),
        overlap=np.array([norm for *_, norm in kept]),
        energies=np.array([c.energy for c, *_ in kept]),
        basis=np.stack(cols, axis=1) if cols else np.zeros((res.dim, 0)),
        col_cluster=np.array(col_cluster, dtype=int),
        coef=np.array(coef, dtype=complex),
        support_tol=EVOLVE_FLOOR,
    ), weight, res.deg_tol


def spectral_support(
    state: StateVector,
    M: int,
    params: ModelParams,
    support_tol: float = SUPPORT_TOL,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> SpectralSupport:
    return _sector_modes(state, M, params, deg_tol_rel)[0].restrict(support_tol)


@dataclass(frozen=True)
class FrequencyCount:
    formula: int    # delta0 * (delta0 - 1) / 2
    distinct: int   # numerically distinct |E_k - E_l| at the clustering tolerance


def frequency_count(support: SpectralSupport, deg_tol: float) -> FrequencyCount:
    n = support.dim
    formula = n * (n - 1) // 2
    e = support.energies
    diffs = np.sort(np.abs(e[:, None] - e[None, :])[np.triu_indices(n, k=1)])
    distinct = 1 + int(np.count_nonzero(np.diff(diffs) > deg_tol)) if len(diffs) else 0
    return FrequencyCount(formula=formula, distinct=distinct)


def equiprobability_classes(support: SpectralSupport) -> tuple[np.ndarray, ...]:
    """Group outcomes whose support projections agree up to one global sign.

    Two configurations with P0|c_f> = +-P0|c_g> have identical rescaled
    probability trajectories for every time, so the class count N_p lower-
    bounds the number of distinct curves a measurement can follow.

    Rows are assigned first-fit: each joins the earliest class whose
    representative (first member) matches it to CLASS_TOL entrywise under
    either sign, else it starts a class.  Only representatives that pass
    a Gram-matrix prefilter are tested.  With n columns and tol = CLASS_TOL,
    ||r_f -+ r_g||_inf <= tol implies ||r_f -+ r_g||_2^2 <= n tol^2, and
    ||r_f -+ r_g||_2^2 = |r_f|^2 + |r_g|^2 -+ 2 r_f.r_g.  In floating
    point the computed right side is off by at most
    2 gamma_{n+2} (|r_f|^2 + |r_g|^2), gamma_k = k eps / (1 - k eps), so
    accepting pairs with |r_f|^2 + |r_g|^2 - 2 |r_f.r_g| up to n tol^2
    plus twice that error keeps every pair the exact test could accept.
    The candidates are a superset, so the classes, members and order
    included, are those of testing every representative.
    """
    rows = support.basis
    d, n = rows.shape
    sq = np.einsum("ij,ij->i", rows, rows)
    rounding = 4.0 * (n + 2) * np.finfo(float).eps
    rep_class = np.full(d, -1)  # class of each representative row, -1 elsewhere
    members: list[list[int]] = []
    for start in range(0, d, GRAM_BLOCK):
        stop = min(start + GRAM_BLOCK, d)
        pair_sq = sq[start:stop, None] + sq[None, :]
        gram = rows[start:stop] @ rows.T
        near = pair_sq - 2.0 * np.abs(gram) <= n * CLASS_TOL * CLASS_TOL + rounding * pair_sq
        for f in range(start, stop):
            r = rows[f]
            # rows from f on are no representatives yet, so only earlier ones qualify
            for g in np.flatnonzero(near[f - start] & (rep_class >= 0)):
                rep = rows[g]
                if (np.max(np.abs(r - rep)) <= CLASS_TOL
                        or np.max(np.abs(r + rep)) <= CLASS_TOL):
                    members[rep_class[g]].append(f)
                    break
            else:
                rep_class[f] = len(members)
                members.append([f])
    return tuple(np.array(m) for m in members)


@dataclass(frozen=True, eq=False)
class Trajectory:
    M: int
    params: ModelParams
    times: np.ndarray          # units of h/J
    probs: np.ndarray          # (d, T) rescaled within the sector, class_probs[row_class]
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
    class of those modes: p_rep(t) = |r_rep . (coef * phase(t))|^2 for the
    class representative's basis row r_rep, given to every member, so the
    members of a class are bitwise equal.  Since |r . a(t)| <= 1 and
    ||a(t)||_1 = ||coef||_1, a member with r_f = +-r_rep + e differs from
    its class's row by at most 2 ||e||_inf ||coef||_1 in exact arithmetic;
    the largest such value is ``broadcast_bound``.  ``support_tol`` only
    selects the support the statistics and reported classes are read from,
    the same one spectral_support reports; when it drops no mode column the
    reported classes are the evolved ones.
    """
    modes, weight, deg_tol = _sector_modes(state, M, params, deg_tol_rel)
    evolved = equiprobability_classes(modes)
    reps = np.array([members[0] for members in evolved])
    row_class = np.empty(len(modes.basis), dtype=int)
    for k, members in enumerate(evolved):
        row_class[members] = k
    rep_rows = modes.basis[reps][row_class]
    row_dev = np.minimum(np.abs(modes.basis - rep_rows).max(axis=1, initial=0.0),
                         np.abs(modes.basis + rep_rows).max(axis=1, initial=0.0))
    phase = phase_factors(modes.col_energy, times)
    amps = modes.basis[reps] @ (modes.coef[:, None] * phase)
    class_probs = amps.real**2 + amps.imag**2
    support = modes.restrict(support_tol)
    same_modes = support.basis.shape == modes.basis.shape
    return Trajectory(
        M=M,
        params=params,
        times=times,
        probs=class_probs[row_class],
        class_probs=class_probs,
        row_class=row_class,
        broadcast_bound=2.0 * float(row_dev.max()) * float(np.abs(modes.coef).sum()),
        sector_weight=weight,
        support=support,
        classes=evolved if same_modes else equiprobability_classes(support),
        freq=frequency_count(support, deg_tol),
    )


def return_probability(
    state: StateVector,
    M: int,
    params: ModelParams,
    times: np.ndarray,
    deg_tol_rel: float = DEG_TOL_RELATIVE,
) -> np.ndarray:
    """|<psi0|psi(t)>|^2 for the normalized sector component of the state.

    Needs only each cluster's energy and projection norm, the first stage
    of the mode decomposition.
    """
    kept = _cluster_overlaps(state, M, params, deg_tol_rel)[2]
    energies = np.array([c.energy for c, *_ in kept])
    overlap = np.array([norm for *_, norm in kept])
    phase = phase_factors(energies, times)
    amp = overlap**2 @ phase
    return amp.real**2 + amp.imag**2


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
    probs = traj.probs
    initial = int(np.argmax(probs[:, 0] >= probs[:, 0].max() - CLASS_TOL))
    p0 = float(probs[initial, 0])

    collapse_time = None
    if p0 >= COLLAPSE_THRESHOLD:
        below = np.nonzero(probs[initial] < COLLAPSE_THRESHOLD)[0]
        if len(below):
            collapse_time = float(traj.times[below[0]])

    peaks = probs.max(axis=1)
    if len(peaks) >= 3:
        third = float(np.sort(peaks)[::-1][2])
        dominant = tuple(int(i) for i in np.nonzero(peaks > 2.0 * third)[0])
    else:
        dominant = tuple(int(i) for i in np.nonzero(peaks > 0.5)[0])
    rest = [float(peaks[i]) for i in range(len(peaks)) if i not in dominant]
    tail_max = max(rest) if rest else 0.0
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
