"""Schmidt numbers over all bipartitions of the 12 sites.

A bipartition is a 12-bit mask: bit i set puts site i in part B.  A pure
state is a product over the cut iff the reshaped amplitude matrix has
exactly one singular value above the (relative) noise floor; it is
entangled outright iff every one of the 2^11 - 1 inequivalent cuts has
Schmidt rank at least two.

Cut matrices are tensor transposes, not index gathers.  Amplitude index
``sum_i bit_i << i`` makes ``amps.reshape((2,) * 12)`` a tensor whose axis
k is site 11 - k.  Moving the part-A site axes (highest site first) in
front of the part-B ones and reshaping to (2^|A|, 2^|B|) puts the
amplitude of every configuration at row ``sum_k bit(a_k) << k`` and
column ``sum_k bit(b_k) << k``, with a_k and b_k the sites of each part
in ascending order.  The scan groups its cuts by |B|, so every group has
one matrix shape, and takes the singular values of a fixed number of
stacked matrices per LAPACK call.

Cuts related by a symmetry of the state share their rank.  When a site
permutation g fixes psi up to a phase, the cut matrix of g(A)|g(B) is
a row and column permutation of that of A|B, times the phase, and a cut
and its complement have transposed matrices.  The scan finds the
stabilizer of psi among the 12 site permutations (``symmetry.stabilizer``,
to STABILIZER_TOL relative to max|psi|), maps every cut to the smallest
mask of its orbit under the stabilizer and complement, and takes the
singular values of those representatives only; every other cut copies
its representative's rank.  A state fixed by all 12 permutations has 209
cut orbits among the 2047 cuts; a trivial stabilizer makes every cut its
own orbit.  A kept permutation moves a singular value by at most the
Frobenius norm of its deviation, 64 STABILIZER_TOL max|psi|, so only a
singular value that close to the SVD_TOL threshold could count
differently on the two cuts.

A product state needs no cut SVD.  Truncating each of the twelve
one-site unfoldings (2 x 2^11, singular values s1(k) >= s2(k)) to its
leading singular vector gives a product state within sqrt(sum_k s2(k)^2)
of psi (truncated HOSVD: De Lathauwer, De Moor & Vandewalle, SIAM J.
Matrix Anal. Appl. 21, 1253 (2000), Property 10).  Its cut matrices have
rank one, so by Weyl's inequality (Horn & Johnson, Matrix Analysis,
section 7.3) every cut of psi has s2 <= eps and s1 >= |psi| - 2 eps, eps
being that distance plus PRODUCT_ROUNDING |psi| for LAPACK's rounding of
the twelve unfoldings.  If 2 eps < tol (|psi| - 2 eps), every exact s2 is
below tol s1 / 2, which leaves the other half (over 220 eps_mach |psi|)
for the scan's own rounding: the scan would read rank one on every cut,
and is skipped.  The strict inequality leaves the all-zero state to the
scan (rank 0); the allowance keeps the shortcut off tolerances below
about 1e-13, where the scan counts rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .lattice import N_SITES
from .hilbert import FULL_MASK, StateVector, _config_map
from .spectrum import blas_threads
from .symmetry import STABILIZER_TOL, stabilizer

SVD_TOL = 1e-10  # relative threshold on singular values

# Cut matrices per stacked SVD call; bounds the stack at 32 x 4096 amplitudes.
SVD_CHUNK = 32

# Rounding allowance of the twelve unfolding SVDs, relative to |psi|: 64 eps_mach
# per unfolding, and sqrt(N_SITES) of that for the root sum of their squares.
PRODUCT_ROUNDING = math.sqrt(N_SITES) * 64 * np.finfo(float).eps


def _cut_axes(mask: int) -> tuple[int, ...]:
    """Tensor axes of part A, then of part B, each highest site first."""
    high_first = range(N_SITES - 1, -1, -1)
    a_axes = [N_SITES - 1 - i for i in high_first if not (mask >> i) & 1]
    b_axes = [N_SITES - 1 - i for i in high_first if (mask >> i) & 1]
    return tuple(a_axes + b_axes)


def _cut_matrix(tensor: np.ndarray, mask: int) -> np.ndarray:
    n_b = int(mask).bit_count()
    return tensor.transpose(_cut_axes(mask)).reshape(1 << (N_SITES - n_b), 1 << n_b)


@lru_cache(maxsize=None)  # one entry per stabilizer; D6 has few subgroups
def _cut_orbits(perms: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbit representative of every mask 1 .. 2^11 - 1, and the representatives by |B|.

    A mask's orbit runs over its images under perms and their complements;
    each is taken with site 11 in part A, and the smallest is the representative.
    """
    masks = np.arange(1, 1 << (N_SITES - 1))
    rep = masks
    for perm in perms:
        image = _config_map(perm)[masks]
        rep = np.minimum(rep, np.where(image >> (N_SITES - 1), image ^ FULL_MASK, image))
    rep_of = tuple(rep.tolist())
    return rep_of, tuple(sorted(set(rep_of), key=lambda mask: (mask.bit_count(), mask)))


def _ranks(sv: np.ndarray, tol: float) -> np.ndarray:
    """Schmidt rank of each row of descending singular values."""
    return np.count_nonzero(sv > tol * sv[..., :1], axis=-1)


def _product_distance(tensor: np.ndarray) -> tuple[float, float]:
    """|psi| and a bound on s2 of every cut: the truncated-HOSVD distance plus rounding."""
    unfoldings = np.stack([np.moveaxis(tensor, k, 0).reshape(2, -1) for k in range(N_SITES)])
    sv = np.linalg.svd(unfoldings, compute_uv=False).tolist()
    norm = math.hypot(*sv[0])
    return norm, math.hypot(*(s2 for _, s2 in sv)) + PRODUCT_ROUNDING * norm


def _orbit_scan(tensor: np.ndarray, perms: tuple[tuple[int, ...], ...], tol: float) -> dict[int, int]:
    """Schmidt rank of every cut, from one SVD per orbit representative."""
    rep_of, representatives = _cut_orbits(perms)
    found: dict[int, int] = {}
    for _, group in groupby(representatives, key=int.bit_count):
        group = list(group)
        for start in range(0, len(group), SVD_CHUNK):
            chunk = group[start:start + SVD_CHUNK]
            stack = np.stack([_cut_matrix(tensor, mask) for mask in chunk])
            sv = np.linalg.svd(stack, compute_uv=False)
            found.update(zip(chunk, _ranks(sv, tol).tolist()))
    return {mask: found[rep] for mask, rep in enumerate(rep_of, start=1)}


@dataclass(frozen=True)
class EntanglementReport:
    entangled: bool       # rank >= 2 across every cut
    min_rank: int
    max_rank: int
    ranks: dict[int, int]  # mask -> Schmidt rank, site 11 always in part A
    stabilizer_order: int  # site permutations that fix the state up to a phase
    cut_orbits: int        # orbits of cuts, whether or not their SVDs were needed
    stabilizer_kept_margin: float             # see symmetry.Stabilizer
    stabilizer_rejected_margin: float | None
    # 2 eps / (tol (|psi| - 2 eps)): below 1 exactly when the product bound
    # settled every cut; None when |psi| <= 2 eps
    product_margin: float | None


@blas_threads(1)
def is_entangled(state: StateVector, tol: float = SVD_TOL) -> EntanglementReport:
    """Scan the 2^11 - 1 distinct bipartitions (complement cuts coincide), one SVD per orbit.

    A state the product bound certifies takes no cut SVD.  tol must lie in
    [0, 1) and every amplitude must be finite.
    """
    if state.sector is not None:
        raise ValueError("is_entangled expects a full-space state")
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), not {tol}")
    amps = state.amps
    bad = np.flatnonzero(~np.isfinite(amps))
    if bad.size:
        raise ValueError(f"amplitude {bad[0]} is {amps[bad[0]]}, not finite")
    stab = stabilizer(state)
    tensor = amps.reshape((2,) * N_SITES)
    norm, eps = _product_distance(tensor)
    bound = tol * (norm - 2 * eps)
    if 2 * eps < bound:
        ranks = dict.fromkeys(range(1, 1 << (N_SITES - 1)), 1)
    else:
        ranks = _orbit_scan(tensor, stab.perms, tol)
    values = ranks.values()
    return EntanglementReport(
        entangled=min(values) >= 2,
        min_rank=min(values),
        max_rank=max(values),
        ranks=ranks,
        stabilizer_order=len(stab.perms),
        cut_orbits=len(_cut_orbits(stab.perms)[1]),
        stabilizer_kept_margin=stab.kept_margin,
        stabilizer_rejected_margin=stab.rejected_margin,
        product_margin=None if norm <= 2 * eps else 2 * eps / bound if bound else math.inf,
    )
