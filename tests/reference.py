"""Independent references shared by several test modules.

The group product read off the abstract (inverted, rot, flip) coordinates,
the signed permutation action on amplitudes, the dense rows of an irrep
block, the dense irrep labeller that rounds projection weights, the Schmidt
scan over every cut, the exact entries summed pair by pair over a pair
table built here from the geometry and the sector basis, cluster labels
counted cluster by cluster with spins from the dense Casimir, the global
spin flip, the dense eigenvectors scattered at once after the solve (sector
-M through the flip), a state's cluster overlaps and modes read off those
dense columns, and clusters cut one gap at a time.  The library builds none
of these: its blocks carry their labels by construction, its scan takes one
cut per orbit, its matrices, exact entries and spins are all read from the
six distance classes, its sector -M is M's blocks with the state axis
reversed, its dense eigenvectors are mapped out of the block form afresh on
every read and kept nowhere, its dynamics read the block form and its runs
are cut by one vectorized rule, so these only check it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

import numpy as np

from hexstar.entanglement import SVD_CHUNK, SVD_TOL, _cut_matrix, _ranks
from hexstar.hamiltonian import ModelParams, heisenberg_casimir
from hexstar.hilbert import FULL_MASK, N_CONFIGS, StateVector, _config_map, sector_basis
from hexstar.lattice import IRREP_LABELS, N_SITES, GroupElement, build_geometry
from hexstar.spectrum import SpectrumResult, _partner_operators, _solve_blocks
from hexstar.symmetry import IrrepBlock, irrep_blocks, irrep_weights

PURE_TOL = 0.999  # amplitude of one irrep that labels an eigenvector as pure


def compose(a: GroupElement, b: GroupElement, group: tuple[GroupElement, ...]) -> GroupElement:
    """Group product a.b, looked up among the 24 elements."""
    inverted = a.inverted ^ b.inverted
    rot = (a.rot - b.rot) % 6 if a.flip else (a.rot + b.rot) % 6
    flip = a.flip ^ b.flip
    for e in group:
        if (e.inverted, e.rot, e.flip) == (inverted, rot, flip):
            return e
    raise RuntimeError("composition left the group")


def inverse(a: GroupElement, group: tuple[GroupElement, ...]) -> GroupElement:
    identity = next(e for e in group if not e.inverted and e.rot == 0 and not e.flip)
    for e in group:
        if compose(a, e, group) is identity:
            return e
    raise RuntimeError("element has no inverse in the group")


def conjugacy_classes(group: tuple[GroupElement, ...]) -> list[set[GroupElement]]:
    """Conjugacy classes computed from the multiplication table alone."""
    remaining = list(group)
    classes = []
    while remaining:
        a = remaining[0]
        orbit = {compose(compose(g, a, group), inverse(g, group), group) for g in group}
        classes.append(orbit)
        remaining = [e for e in remaining if e not in orbit]
    return classes


def act_permutation(g: GroupElement, state: StateVector) -> StateVector:
    """Apply g: amplitude of f moves to the permuted configuration, times parity."""
    cmap = _config_map(g.perm)
    if state.sector is None:
        new = np.empty_like(state.amps)
        new[cmap] = g.parity * state.amps
        return StateVector(amps=new, sector=None)
    basis = sector_basis(state.sector)
    rows = basis.index_of[cmap[basis.configs]]
    new = np.empty_like(state.amps)
    new[rows] = g.parity * state.amps
    return StateVector(amps=new, sector=state.sector)


def label_eigenvector(vector: np.ndarray, M: int) -> str | None:
    """Irrep of an eigenvector, or None when no single irrep dominates."""
    weights = irrep_weights(vector[:, None], M)
    for r, w in weights.items():
        if w[0] > PURE_TOL**2:
            return r
    return None


def full_scan_ranks(state: StateVector, tol: float = SVD_TOL) -> dict[int, int]:
    """Schmidt rank of every cut 1 .. 2^11 - 1, one SVD per cut and no symmetry."""
    tensor = state.amps.reshape((2,) * 12)
    masks = range(1, 1 << 11)
    found: dict[int, int] = {}
    for _, group in groupby(sorted(masks, key=int.bit_count), key=int.bit_count):
        group = list(group)
        for start in range(0, len(group), SVD_CHUNK):
            chunk = group[start:start + SVD_CHUNK]
            stack = np.stack([_cut_matrix(tensor, mask) for mask in chunk])
            sv = np.linalg.svd(stack, compute_uv=False)
            found.update(zip(chunk, _ranks(sv, tol).tolist()))
    return {mask: found[mask] for mask in masks}


@lru_cache(maxsize=None)
def pair_table(M: int):
    """Per pair: squared distance; per state: z_i z_j; flip-flops (row, column, pair) by row, then pair."""
    pairs = [(i, j) for i in range(N_SITES) for j in range(i + 1, N_SITES)]
    distance_sq = build_geometry().distance_sq
    basis = sector_basis(M)
    zz, flips = [], []
    for a, f in enumerate(basis.configs.tolist()):
        z = [1 - 2 * (f >> site & 1) for site in range(N_SITES)]
        zz.append([z[i] * z[j] for i, j in pairs])
        flips += [(a, int(basis.index_of[f ^ (1 << i) ^ (1 << j)]), k)
                  for k, (i, j) in enumerate(pairs) if z[i] != z[j]]
    return [int(distance_sq[i, j]) for i, j in pairs], zz, flips


def exact_entries_by_pair(M: int, params: ModelParams) -> dict[tuple[int, int], Fraction]:
    """Exact sector entries with one Fraction weight per pair, diagonals on a common denominator."""
    distance_sq, zz, flips = pair_table(M)
    weights = [Fraction(1, d2 ** (int(params.alpha) // 2)) for d2 in distance_sq]
    denom = math.lcm(*(w.denominator for w in weights))
    numer = [int(w * denom) for w in weights]
    jz = Fraction(params.jz_over_j)
    entries = {(a, a): jz * Fraction(sum(map(operator.mul, row, numer)), denom)
               for a, row in enumerate(zz)}
    flip = [2 * w for w in weights]
    entries.update(((a, b), flip[k]) for a, b, k in flips)
    return entries


def split_into_clusters(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of each run of ascending values, cut one gap at a time where it exceeds tol."""
    groups: list[list[int]] = []
    for i, value in enumerate(values):
        if not groups or value - values[i - 1] > tol:
            groups.append([])
        groups[-1].append(i)
    return [np.array(g) for g in groups]


def histogram_by_group_means(merged: np.ndarray, deg_tol: float) -> tuple[dict, tuple]:
    """Degeneracy counts and ambiguous gaps of sorted levels: every group's mean, then their gaps."""
    counts: dict[int, int] = {}
    groups = split_into_clusters(merged, deg_tol)
    for idx in groups:
        counts[len(idx)] = counts.get(len(idx), 0) + 1
    gaps = np.diff(np.array([merged[idx].mean() for idx in groups]))
    return dict(sorted(counts.items())), tuple(float(g) for g in gaps if g < 10.0 * deg_tol)


def dense_rows(block: IrrepBlock) -> np.ndarray:
    """The (copies, sector dim) rows of an irrep block, filled in from its per-state view."""
    rows = np.zeros((block.copies, len(block.rows)))
    np.add.at(rows, (block.rows, np.arange(len(block.rows))[:, None]), block.coef)
    return rows


def dense_casimir_spins(vectors: np.ndarray, M: int) -> list[int]:
    """Total spin of each column from <v|S^2|v> with the dense sector Casimir."""
    s_sq = np.einsum("ij,ij->j", vectors, heisenberg_casimir(M) @ vectors)
    s_val = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * s_sq))
    off = np.abs(s_val - np.rint(s_val))
    if off.max() > 1e-6:
        raise RuntimeError(f"non-integer total spin {s_val[off.argmax()]} in sector {M}")
    return np.rint(s_val).astype(int).tolist()


def per_cluster_labels(res: SpectrumResult) -> list[tuple]:
    """(indices, energy, irrep_slots, irrep, spin) of each cluster, counted one cluster at a time.

    A column's irrep is that of the block holding its eigenvector; spins
    (Jz/J = 1 only) come from the dense Casimir on each cluster's first column.
    """
    blocks = irrep_blocks(res.M)
    vectors = res.eigenvectors  # built afresh on every read
    projected = [dense_rows(b) @ vectors for b in blocks]
    held = np.stack([np.einsum("ij,ij->j", p, p) for p in projected])
    irrep_of = np.array([IRREP_LABELS.index(b.irrep) for b in blocks])[held.argmax(axis=0)]
    clusters = split_into_clusters(res.eigenvalues, res.deg_tol)
    spins = [None] * len(clusters)
    if res.params.jz_over_j == 1.0:
        spins = dense_casimir_spins(vectors[:, [idx[0] for idx in clusters]], res.M)
    out = []
    for idx, spin in zip(clusters, spins):
        counts = np.bincount(irrep_of[idx], minlength=len(IRREP_LABELS))
        slots = {r: int(n) for r, n in zip(IRREP_LABELS, counts) if n}
        out.append((idx.tolist(), float(res.eigenvalues[idx[0]]), slots,
                    next(iter(slots)) if len(slots) == 1 else None, spin))
    return out


def spin_flip(state: StateVector) -> StateVector:
    """Global spin flip f -> f XOR 4095; maps sector M to -M with no sign."""
    if state.sector is None:
        return StateVector(amps=state.amps[np.arange(N_CONFIGS) ^ FULL_MASK], sector=None)
    src = sector_basis(state.sector)
    dst = sector_basis(-state.sector)
    new = np.empty_like(state.amps)
    new[dst.index_of[src.configs ^ FULL_MASK]] = state.amps
    return StateVector(amps=new, sector=-state.sector)


def eager_eigenvectors(M: int, params: ModelParams) -> np.ndarray:
    """The dense eigenvectors of sector M scattered at once, as a labelled solve once stored them.

    eigh of each C2'(0)-even block operator, an odd block taking its even
    partner's eigenpairs; every block's B^T u goes to the sorted columns of
    its levels in one F-ordered array.  Sector -M is the spin flip of M.
    """
    if M < 0:
        return spin_flip(StateVector(amps=eager_eigenvectors(-M, params), sector=-M)).amps
    entries = _partner_operators(M, params.alpha)
    pairs = dict(zip((b.irrep for b, _, _ in entries),
                     _solve_blocks(params, entries, np.linalg.eigh)))
    blocks = irrep_blocks(M)
    merged = np.concatenate([pairs[b.irrep][0] for b in blocks])
    order = np.argsort(merged, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    vectors = np.empty((len(order), len(order)), order="F")
    start = 0
    for b in blocks:
        values, u = pairs[b.irrep]
        vectors[:, column[start:start + len(values)]] = np.einsum("st,stk->sk", b.coef, u[b.rows])
        start += len(values)
    return vectors


def assert_mirrored_blocks(down: SpectrumResult, up: SpectrumResult) -> None:
    """Sector -M's block form is M's U_b and columns, each block's state axis reversed.

    The spin flip f -> 4095 - f sends state i of sector M to state d - 1 - i of -M.
    """
    assert down.M == -up.M < 0 and len(down.solved) == len(up.solved)
    for (b, u, cols), (b_up, u_up, cols_up) in zip(down.solved, up.solved):
        assert u is u_up and cols is cols_up
        assert (b.irrep, b.partner, b.copies) == (b_up.irrep, b_up.partner, b_up.copies)
        assert np.array_equal(b.rows, b_up.rows[::-1])
        assert np.array_equal(b.coef, b_up.coef[::-1])


def dense_cluster_overlaps(res: SpectrumResult,
                           psi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(z, P psi) of every cluster from the dense columns V_c: z = V_c^T psi and P psi = V_c z."""
    vectors = res.eigenvectors
    out = []
    for c in res.clusters:
        block = vectors[:, c.indices]
        z = block.T @ psi
        out.append((z, block @ z))
    return out


def dense_modes(overlaps: list[tuple[np.ndarray, np.ndarray]],
                floor: float) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Kept clusters, mode basis, column clusters and coefficients, from dense_cluster_overlaps.

    A cluster is kept when ||z|| exceeds floor.  Its projection's real and
    (for a complex psi) imaginary parts are orthonormalized by Gram-Schmidt
    within the cluster, each adding a column when its remainder exceeds floor.
    """
    kept, cols, col_cluster, coef = [], [], [], []
    parts = (np.real, np.imag) if np.iscomplexobj(overlaps[0][0]) else (np.real,)
    for k, (z, proj) in enumerate(overlaps):
        if not np.linalg.norm(z) > floor:
            continue
        own = len(cols)
        for part in parts:
            w = part(proj).copy()
            for c in cols[own:]:
                w -= c * (c @ w)
            rest = float(np.linalg.norm(w))
            if rest > floor:
                cols.append(w / rest)
                col_cluster.append(len(kept))
                coef.append(complex(cols[-1] @ proj))
        kept.append(k)
    return kept, np.stack(cols, axis=1), np.array(col_cluster), np.array(coef)
