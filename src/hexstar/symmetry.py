"""Point-group bookkeeping on the sector bases.

Characters of the signed permutation action, irrep multiplicities per
magnetization sector, total-spin multiplet counts, the symmetry-adapted
bases that split each sector Hamiltonian into one block per irrep and
C2'(0) partner, for the six irreps that survive the trivial horizontal
mirror (all blocks' rows stored once, orbit by orbit, and each block read
off that store as the rows every sector state meets), and the stabilizer
of a full-space state among the site permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import lattice
from .lattice import GroupElement
from .hilbert import StateVector, _config_map, sector_basis

INT_TOL = 1e-9  # multiplicities must be integers to this
STABILIZER_TOL = 1e-12  # largest deviation from a phase of a kept permutation, relative to max|psi|


@lru_cache(maxsize=1)
def _group() -> tuple[GroupElement, ...]:
    return lattice.build_group(lattice.build_geometry())


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
        dims = lattice.character_table().dims
        return sum(dims[r] * self.counts[r][M] for r in self.counts)


@dataclass(frozen=True)
class MultipletTable:
    """multiplets[irrep][S] = number of total-spin-S multiplets of that irrep."""

    multiplets: dict[str, dict[int, int]]


@lru_cache(maxsize=1)
def irrep_counts() -> IrrepCountTable:
    group = _group()
    ct = lattice.character_table()
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


@dataclass(frozen=True, eq=False)
class IrrepBlock:
    """Symmetry-adapted rows of one irrep in one sector, seen from the sector states.

    Each row is one copy of the irrep.  For E1u and E2g it is one partner
    of the copy, even (``partner`` +1) or odd (-1) under the two-fold
    rotation C2'(0).  Row i of the odd block is the partner of row i of the
    even one, so both carry the same operator of any H that commutes with
    the group, and a level of their even block stands for two states.
    The rows B are kept per state: state s meets row rows[s, j] with
    coefficient B[rows[s, j], s] = coef[s, j].  A row lives on one
    configuration orbit, so a state meets at most t rows (t is 1, or 2 for
    E1u and E2g), and coefficient 0 pads the rest.
    """

    irrep: str
    partner: int        # -1 for the C2'(0)-odd rows of E1u and E2g, else +1
    copies: int         # number of rows; they are orthonormal
    rows: np.ndarray    # (sector dim, t) int, the rows each state meets
    coef: np.ndarray    # (sector dim, t) float, the state's coefficient in each


class OrbitLayout(NamedTuple):
    """B over the configuration orbits, padded to the largest orbit's k places each."""
    state: np.ndarray  # (sector dim,) orbit * k + place of each sector state, ascending per orbit
    row: np.ndarray    # (sector dim,) orbit * k + place of each row of B, ascending per orbit
    coef: np.ndarray   # (orbits, k, k) B[row, state] by place, zero past the orbit's size


def irrep_blocks(M: int) -> tuple[IrrepBlock, ...]:
    """Orthonormal symmetry-adapted basis of sector M, one row per state.

    The C2'(0)-even blocks come first, one per irrep present in irrep
    order, then the odd partner blocks of the two-dimensional irreps.
    The 12 proper elements realise the 12 distinct site permutations, and
    every retained irrep has sigma_h trivial, so P_r = (d_r / 12) sum_g
    chi_r(g) U_g with U_g the signed action.  For the two-dimensional
    irreps P_r (1 + U_h) / 2, h = C2'(0) with chi(h) = 0, keeps the even
    partner; it is again an orthogonal projector, because P_r is central
    and so commutes with U_h.  Every projector maps each configuration
    orbit to itself, so each orbit's restricted projector is diagonalized
    on its own and its unit eigenvectors become rows, placed in
    orbit_layout(M) and read off it per state.  The
    odd rows are the partner functions of the even ones (Serre, Linear
    Representations of Finite Groups, section 2.7): U_C6 turns a copy's
    (even, odd) pair by m pi / 3, m = 1 for E1u and 2 for E2g, so the odd
    row of e is o = (U_C6 e - c e) / sqrt(1 - c^2), c = chi_r(C6) / 2.
    """
    return _adapted_basis(M)[0]


def orbit_layout(M: int) -> OrbitLayout:
    """B, the rows of every block of irrep_blocks(M) stacked in that order, orbit by orbit.

    Each row of B lives on one configuration orbit and B is orthogonal, so
    an orbit of m states carries exactly m rows and B is block-diagonal over
    the orbits: B A B^T of an operator A is one k x k block per pair of
    orbits that A links.  The orbits come by size, then by smallest state.
    This is the one store of B: each row is placed here as it is found, and
    every block of irrep_blocks(M) is read off it.
    """
    return _adapted_basis(M)[1]


@lru_cache(maxsize=None)
def _adapted_basis(M: int) -> tuple[tuple[IrrepBlock, ...], OrbitLayout]:
    """irrep_blocks(M) and orbit_layout(M): each row of B placed once, every block read off."""
    ct = lattice.character_table()
    proper = [g for g in _group() if not g.inverted]
    by_perm = {g.perm: g for g in proper}
    h = next(g for g in proper if g.flip and g.rot == 0)
    # the element acting as U_g U_h, found by composing the site maps
    times_h = [by_perm[tuple(g.perm[i] for i in h.perm)] for g in proper]
    c6 = next(k for k, g in enumerate(proper) if g.rot == 5 and not g.flip)  # C6^5, C6's inverse
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
    by_size = np.argsort(sizes, kind="stable")  # the layout's orbits: by size, then smallest state
    slot = np.argsort(by_size)[orbit]  # each state's orbit in the layout
    k, filled = sizes.max(), np.zeros(len(sizes), dtype=np.intp)  # filled: rows on each orbit
    layout = OrbitLayout(state=slot * k + pos,
                         row=np.empty(d, dtype=np.intp), coef=np.zeros((len(sizes), k, k)))
    ns, firsts = np.unique(sizes[by_size], return_index=True)
    # per orbit size: the layout's first orbit of that size, and the members of each such orbit
    spans = {n: (first, order[starts[sizes == n][:, None] + np.arange(n)])
             for n, first in zip(ns.tolist(), firsts.tolist())}

    expected = irrep_counts().counts
    partners = [(r, 1) for r in ct.irreps] + [(r, -1) for r in ct.irreps if ct.dims[r] == 2]
    blocks, even, taken = [], {}, 0  # even: per (irrep, orbit size) its even rows; taken: rows
    for r, partner in partners:
        chi = np.array([ct.chi(r, g.class_label) for g in proper])
        if ct.dims[r] == 2:
            chi = chi + np.array([ct.chi(r, g.class_label) for g in times_h])
        weight = (chi * parity)[:, None] / 12.0  # U_g weight in the even projector
        c = ct.chi(r, "2C6") / 2
        lo = taken  # the block's rows of B are lo..taken-1
        for n, (first, members) in spans.items():  # members: (orbits, n)
            if partner > 0:
                src, m = members.ravel(), len(members)
                # Q[o, pos(g f), pos(f)] += weight(g) for every member f and element g
                flat = (np.repeat(np.arange(m), n) * n + pos[images[:, src]]) * n + pos[src]
                q = np.bincount(flat.ravel(), np.broadcast_to(weight, flat.shape).ravel(),
                                minlength=m * n * n).reshape(-1, n, n)
                evals, evecs = np.linalg.eigh(q)
                o, v = np.nonzero(evals > 0.5)
                o, vectors = even[r, n] = o, evecs[o, :, v]
            else:  # the partner (U_C6 e - c e) / s of each even row e, on its orbit
                o, e = even[r, n]
                moved = np.take_along_axis(e, pos[images[c6, members[o]]], axis=1)
                vectors = (moved - c * e) / np.sqrt(1.0 - c * c)
            o = first + o  # ascending, so the batch rows on one orbit are adjacent
            place = filled[o] + np.arange(len(o)) - np.searchsorted(o, o)
            layout.coef[o, place, :n] = vectors
            layout.row[taken:taken + len(o)] = o * k + place
            np.add.at(filled, o, 1)
            taken += len(o)
        copies = taken - lo
        if copies != expected[r][M]:
            raise RuntimeError(f"{copies} rows for {r} in sector {M}, expected {expected[r][M]}")
        if not copies:
            continue
        # the block's rows run through the orbits in ascending order; a state meets its own orbit's
        on = layout.row[lo:taken] // k
        start = np.searchsorted(on, slot)
        met = np.searchsorted(on, slot, side="right") - start
        j = np.arange(met.max())
        hit = j < met[:, None]  # pads: row 0 with coefficient 0
        rows = np.where(hit, start[:, None] + j, 0)
        coef = np.where(hit, layout.coef[slot[:, None], layout.row[lo + rows] % k, pos[:, None]],
                        0.0)
        for a in (rows, coef):
            a.flags.writeable = False
        blocks.append(IrrepBlock(irrep=r, partner=partner, copies=copies, rows=rows, coef=coef))
    if not np.array_equal(filled, sizes[by_size]):  # so taken == d too
        raise RuntimeError(f"irrep rows of sector {M} do not fill each orbit once")
    for a in layout:
        a.flags.writeable = False
    return tuple(blocks), layout


def irrep_weights(vectors: np.ndarray, M: int) -> dict[str, np.ndarray]:
    """Squared projection norms per irrep for each column of ``vectors``.

    Uses <v|P|v> with P idempotent, evaluated as a character sum over the
    24 group elements instead of materializing the projectors.
    """
    group = _group()
    ct = lattice.character_table()
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


@dataclass(frozen=True)
class Stabilizer:
    """Site permutations of the point group that fix a state up to a phase."""

    perms: tuple[tuple[int, ...], ...]  # in group order, the identity first
    kept_margin: float             # largest kept deviation / STABILIZER_TOL
    rejected_margin: float | None  # smallest rejected deviation / STABILIZER_TOL; None if none


def stabilizer(state: StateVector) -> Stabilizer:
    """The distinct site permutations g that fix a full-space state psi up to a phase.

    U_g moves the amplitude of f to the permuted configuration; the sign of
    the signed action is itself a phase, so the 12 site permutations stand
    for all 24 elements.  g is kept when max|U_g psi - c psi| is at most
    STABILIZER_TOL max|psi|, with c = <psi|U_g psi> / <psi|psi>.
    """
    if state.sector is not None:
        raise ValueError("stabilizer expects a full-space state")
    amps = state.amps
    scale = float(np.abs(amps).max())
    norm_sq = float(np.vdot(amps, amps).real)

    def deviation(perm: tuple[int, ...]) -> float:
        moved = np.empty_like(amps)
        moved[_config_map(perm)] = amps
        phase = np.vdot(amps, moved) / norm_sq if norm_sq else 1.0
        return float(np.abs(moved - phase * amps).max()) / scale if scale else 0.0

    deviations = {perm: deviation(perm) for perm in dict.fromkeys(g.perm for g in _group())}
    kept = tuple(perm for perm, d in deviations.items() if d <= STABILIZER_TOL)
    rejected = [d for perm, d in deviations.items() if perm not in kept]
    return Stabilizer(
        perms=kept,
        kept_margin=max((deviations[perm] for perm in kept), default=0.0) / STABILIZER_TOL,
        rejected_margin=min(rejected) / STABILIZER_TOL if rejected else None,
    )
