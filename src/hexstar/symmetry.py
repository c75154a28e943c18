"""Point-group bookkeeping on the sector bases.

Characters of the signed permutation action, irrep multiplicities per
magnetization sector, total-spin multiplet counts, projectors onto the six
irreps that survive the trivial horizontal mirror, and the symmetry-adapted
bases that split each sector Hamiltonian into one block per irrep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import lattice
from .lattice import CharacterTable, GroupElement
from .hilbert import StateVector, _config_map, act_permutation, sector_basis

if TYPE_CHECKING:
    import scipy.sparse

INT_TOL = 1e-9   # multiplicities and projector traces must be integers to this


@lru_cache(maxsize=1)
def _group() -> tuple[GroupElement, ...]:
    return lattice.build_group(lattice.build_geometry())


@lru_cache(maxsize=1)
def _chartable() -> CharacterTable:
    return lattice.character_table()


def sector_character(g: GroupElement, M: int) -> int:
    """Trace of the signed permutation action of g on the sector basis."""
    basis = sector_basis(M)
    cmap = _config_map(g.perm)
    fixed = int(np.count_nonzero(cmap[basis.configs] == basis.configs))
    return g.parity * fixed


@dataclass(frozen=True)
class IrrepCountTable:
    """counts[irrep][M] = multiplicity of the irrep in sector M.

    For the two-dimensional irreps this is the number of copies; each copy
    contributes two basis states, which is how the dimension sum rule
    sum_r dim(r) * counts[r][M] recovers the sector dimension.
    """

    counts: dict[str, dict[int, int]]

    def dimension_check(self, M: int) -> int:
        dims = _chartable().dims
        return sum(dims[r] * self.counts[r][M] for r in self.counts)


@dataclass(frozen=True)
class MultipletTable:
    """multiplets[irrep][S] = number of total-spin-S multiplets of that irrep."""

    multiplets: dict[str, dict[int, int]]


@lru_cache(maxsize=1)
def irrep_counts() -> IrrepCountTable:
    group = _group()
    ct = _chartable()
    counts: dict[str, dict[int, int]] = {r: {} for r in ct.irreps}
    for M in range(-6, 7):
        chars = {g: sector_character(g, M) for g in group}
        for r in ct.irreps:
            total = sum(ct.chi(r, g.class_label) * chars[g] for g in group)
            n = total / len(group)
            if abs(n - round(n)) > INT_TOL:
                raise RuntimeError(f"non-integer multiplicity for {r}, M={M}: {n}")
            counts[r][M] = int(round(n))
    return IrrepCountTable(counts=counts)


@lru_cache(maxsize=1)
def multiplet_counts() -> MultipletTable:
    """Resolve sector multiplicities into total-spin multiplets.

    A spin-S multiplet shows up once in every sector |M| <= S, so the
    number of S multiplets is the count at M=S minus the count at M=S+1.
    """
    counts = irrep_counts().counts
    multiplets: dict[str, dict[int, int]] = {}
    for r, by_m in counts.items():
        multiplets[r] = {}
        for S in range(0, 7):
            above = by_m[S + 1] if S + 1 <= 6 else 0
            n = by_m[S] - above
            if n < 0:
                raise RuntimeError(f"negative multiplet count for {r}, S={S}")
            multiplets[r][S] = n
    return MultipletTable(multiplets=multiplets)


@lru_cache(maxsize=64)
def irrep_projector(irrep: str, M: int) -> np.ndarray:
    """Dense projector onto the irrep component of the sector."""
    group = _group()
    ct = _chartable()
    basis = sector_basis(M)
    d = basis.dim
    proj = np.zeros((d, d))
    scale = ct.dims[irrep] / len(group)
    cols = np.arange(d)
    for g in group:
        rows = basis.index_of[_config_map(g.perm)[basis.configs]]
        proj[rows, cols] += scale * ct.chi(irrep, g.class_label) * g.parity
    trace = float(np.trace(proj))
    expected = ct.dims[irrep] * irrep_counts().counts[irrep][M]
    if abs(trace - expected) > 1e-8:
        raise RuntimeError(f"projector trace {trace} != {expected} for {irrep}, M={M}")
    proj.flags.writeable = False
    return proj


@dataclass(frozen=True, eq=False)
class IrrepBlock:
    """Symmetry-adapted rows of one irrep in one sector.

    Each row is one copy of the irrep.  For E1u and E2g it is one partner
    of the copy, even or odd under the two-fold rotation C2'(0); a level
    of the even block H_r = basis @ H @ basis.T stands for ``dim`` states
    of the sector, one per partner.
    """

    irrep: str
    dim: int                        # dimension of the irrep
    basis: scipy.sparse.csr_array  # (copies, sector dim), orthonormal rows


def _partner_blocks(M: int, sign: int) -> tuple[IrrepBlock, ...]:
    """Rows of P_r (1 + sign U_h) / 2 per irrep, with h = C2'(0).

    sign = +1 gives every irrep, its two-dimensional ones reduced to the
    C2'(0)-even partner; sign = -1 gives only the odd partners of E1u and
    E2g.  Each block has one row per copy of its irrep in the sector.
    """
    import scipy.sparse  # deferred: `import hexstar` does not load scipy.sparse

    ct = _chartable()
    proper = [g for g in _group() if not g.inverted]
    by_perm = {g.perm: g for g in proper}
    h = next(g for g in proper if g.flip and g.rot == 0)
    # the element acting as U_g U_h, found by composing the site maps
    times_h = [by_perm[tuple(g.perm[i] for i in h.perm)] for g in proper]
    parity = np.array([g.parity for g in proper])

    basis = sector_basis(M)
    d = basis.dim
    images = np.stack([basis.index_of[_config_map(g.perm)[basis.configs]] for g in proper])
    # orbits labelled by their smallest index; members in ascending order
    _, orbit, sizes = np.unique(images.min(axis=0), return_inverse=True, return_counts=True)
    order = np.argsort(orbit, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.empty(d, dtype=np.int64)
    pos[order] = np.arange(d) - starts[orbit[order]]

    expected = irrep_counts().counts
    blocks = []
    for r in ct.irreps:
        chi = np.array([ct.chi(r, g.class_label) for g in proper])
        if ct.dims[r] == 2:
            chi = chi + sign * np.array([ct.chi(r, g.class_label) for g in times_h])
        elif sign < 0:
            continue
        coef = (chi * parity)[:, None] / 12.0  # U_g weight in the projector
        data, indices, lengths = [], [], []
        for n in np.unique(sizes):
            picked = np.nonzero(sizes == n)[0]
            members = order[starts[picked][:, None] + np.arange(n)]  # (orbits, n)
            local = np.empty(len(sizes), dtype=np.int64)
            local[picked] = np.arange(len(picked))
            src = members.ravel()
            # Q[o, pos(g f), pos(f)] += coef(g) for every member f and element g
            flat = (local[orbit[src]] * n + pos[images[:, src]]) * n + pos[src]
            q = np.bincount(flat.ravel(), np.broadcast_to(coef, flat.shape).ravel(),
                            minlength=len(picked) * n * n).reshape(-1, n, n)
            evals, evecs = np.linalg.eigh(q)
            o, k = np.nonzero(evals > 0.5)
            data.append(evecs[o, :, k].ravel())
            indices.append(members[o].ravel())
            lengths.append(np.full(len(o), n))
        lengths = np.concatenate(lengths)
        if len(lengths) != expected[r][M]:
            raise RuntimeError(
                f"{len(lengths)} rows for {r} in sector {M}, expected {expected[r][M]}")
        if not len(lengths):
            continue
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        rows = scipy.sparse.csr_array(
            (np.concatenate(data), np.concatenate(indices), indptr), shape=(len(lengths), d))
        for a in (rows.data, rows.indices, rows.indptr):
            a.flags.writeable = False
        blocks.append(IrrepBlock(irrep=r, dim=ct.dims[r], basis=rows))
    return tuple(blocks)


@lru_cache(maxsize=None)
def irrep_blocks(M: int) -> tuple[IrrepBlock, ...]:
    """Orthonormal symmetry-adapted basis of sector M, one block per irrep present.

    The 12 proper elements realise the 12 distinct site permutations, and
    every retained irrep has sigma_h trivial, so P_r = (d_r / 12) sum_g
    chi_r(g) U_g with U_g the signed action.  For the two-dimensional
    irreps P_r (1 + U_h) / 2, h = C2'(0) with chi(h) = 0, keeps one
    partner; it is again an orthogonal projector, because P_r is central
    and so commutes with U_h.  Both map each configuration orbit to
    itself, so each orbit's restricted projector is diagonalized on its
    own and its unit eigenvectors become rows.
    """
    blocks = _partner_blocks(M, +1)
    d = sector_basis(M).dim
    if sum(b.dim * b.basis.shape[0] for b in blocks) != d:
        raise RuntimeError(f"irrep blocks do not fill sector {M} of dimension {d}")
    return blocks


@lru_cache(maxsize=None)
def odd_partner_blocks(M: int) -> tuple[IrrepBlock, ...]:
    """The C2'(0)-odd partner rows of E1u and E2g in sector M.

    Built like ``irrep_blocks`` with (1 - U_h) / 2 in place of
    (1 + U_h) / 2.  U_h and H commute, so each odd block has the spectrum
    of its even partner; together with ``irrep_blocks(M)`` the rows form
    an orthonormal basis of the sector, one row per state.
    """
    blocks = _partner_blocks(M, -1)
    d = sector_basis(M).dim
    if sum(b.basis.shape[0] for b in irrep_blocks(M) + blocks) != d:
        raise RuntimeError(f"irrep rows of both partners do not fill sector {M} of "
                           f"dimension {d}")
    return blocks


def irrep_weights(vectors: np.ndarray, M: int) -> dict[str, np.ndarray]:
    """Squared projection norms per irrep for each column of ``vectors``.

    Uses <v|P|v> with P idempotent, evaluated as a character sum over the
    24 group elements instead of materializing the projectors.
    """
    group = _group()
    ct = _chartable()
    basis = sector_basis(M)
    out = {}
    overlaps = {}
    for g in group:
        rows = basis.index_of[_config_map(g.perm)[basis.configs]]
        overlaps[g] = g.parity * np.einsum("af,af->f", vectors[rows], vectors)
    for r in ct.irreps:
        acc = sum(ct.chi(r, g.class_label) * overlaps[g] for g in group)
        out[r] = (ct.dims[r] / len(group)) * acc
    return out


def label_eigenvector(vector: np.ndarray, M: int, pure_tol: float = 0.999) -> str | None:
    """Irrep of an eigenvector, or None when no single irrep dominates."""
    weights = irrep_weights(vector[:, None], M)
    for r, w in weights.items():
        if w[0] > pure_tol**2:
            return r
    return None


def classify_factorized_state(state: StateVector) -> dict[str, float]:
    """Eigenvalue of each group element class on a (normalized) state.

    A two-ring product state is mapped to itself up to a sign by every
    element; the pattern of signs over the twelve classes identifies the
    one-dimensional irrep it carries.  Raises if some element fails to
    reproduce the state up to a scalar.
    """
    amps = state.amps / np.linalg.norm(state.amps)
    normalized = StateVector(amps=amps, sector=state.sector)
    signature: dict[str, float] = {}
    for g in _group():
        moved = act_permutation(g, normalized)
        lam = complex(np.vdot(amps, moved.amps))
        residual = float(np.linalg.norm(moved.amps - lam * amps))
        if residual > 1e-10:
            raise ValueError(f"state is not symmetry-adapted: element {g.name} "
                             f"moves it (residual {residual:.2e})")
        value = float(lam.real)
        prev = signature.get(g.class_label)
        if prev is not None and abs(prev - value) > 1e-10:
            raise ValueError(f"inconsistent eigenvalues within class {g.class_label}")
        signature[g.class_label] = value
    return signature


def identify_one_dim_irrep(signature: dict[str, float]) -> str:
    """Match a class-eigenvalue signature against the 1D irrep characters."""
    ct = _chartable()
    for r in ct.irreps:
        if ct.dims[r] != 1:
            continue
        if all(abs(signature[c] - ct.chi(r, c)) < 1e-8 for c in ct.classes):
            return r
    raise ValueError("signature does not match any retained one-dimensional irrep")
