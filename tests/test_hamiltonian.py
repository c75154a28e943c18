"""Sector Hamiltonians: couplings, exact entries, spin Casimir."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from hexstar.analytic import exact_block_entries
from hexstar.hamiltonian import (
    HEISENBERG,
    XXZ_FERRO,
    ModelParams,
    build_sector_hamiltonian,
    coupling_classes,
    exact_capable,
    heisenberg_casimir,
    total_coupling,
)
from hexstar.hamiltonian import _assemble, _exact_entries, class_weights
from hexstar.hilbert import sector_basis
from hexstar.lattice import ALLOWED_DISTANCE_SQ, Geometry, build_geometry
from hexstar.spectrum import full_spectrum
from reference import exact_entries_by_pair, pair_table


def _coupling(geometry: Geometry, i: int, j: int, alpha: float) -> float:
    """Distance-power coupling d_ij^-alpha in units of J."""
    if i == j:
        raise ValueError("coupling needs two distinct sites")
    return float(geometry.distance_sq[i, j]) ** (-alpha / 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.0, jz_over_j=1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=-2.0, jz_over_j=1.0)
    for alpha, jz in ((math.inf, 1.0), (math.nan, 1.0), (6.0, math.nan), (6.0, -math.inf)):
        with pytest.raises(ValueError):
            ModelParams(alpha=alpha, jz_over_j=jz)


def test_exact_capable():
    assert exact_capable(6.0)
    assert exact_capable(2.0)
    assert not exact_capable(3.0)
    assert not exact_capable(6.5)
    for alpha in (-2.0, -6.0, 0.0, math.inf, math.nan):
        assert not exact_capable(alpha)
    with pytest.raises(ValueError):
        exact_block_entries(-2.0)


def test_coupling_values(geometry):
    assert _coupling(geometry, 0, 8, 6.0) == pytest.approx(1.0)
    assert _coupling(geometry, 0, 1, 6.0) == pytest.approx(3.0 ** -3)
    assert _coupling(geometry, 6, 9, 6.0) == pytest.approx(2.0 ** -6)


def test_total_coupling(geometry):
    acc = sum(
        _coupling(geometry, i, j, 6.0)
        for i in range(12) for j in range(i + 1, 12)
    )
    assert total_coupling(geometry, 6.0) == pytest.approx(acc, rel=1e-15)


def test_sector_matrices_are_symmetric():
    for M in (6, 5, 3, 0):
        ham = build_sector_hamiltonian(M, XXZ_FERRO)
        assert ham.matrix.shape == (sector_basis(M).dim,) * 2
        assert np.array_equal(ham.matrix, ham.matrix.T)


def test_polarized_sector_energy(geometry):
    # a single configuration with every spin up: purely diagonal energy
    for params in (HEISENBERG, XXZ_FERRO):
        ham = build_sector_hamiltonian(6, params)
        expected = params.jz_over_j * total_coupling(geometry, params.alpha)
        assert ham.matrix[0, 0] == pytest.approx(expected, rel=1e-13)


def test_known_exchange_entry(geometry):
    # flipping site 0 vs site 1: adjacent tips, squared separation 3
    ham = build_sector_hamiltonian(5, HEISENBERG)
    basis = sector_basis(5)
    k, l = basis.index_of[1 << 0], basis.index_of[1 << 1]
    assert ham.matrix[k, l] == pytest.approx(2.0 * 3.0 ** -3, rel=1e-15)


def test_exact_entries_match_floats():
    ham = build_sector_hamiltonian(4, XXZ_FERRO, exact=True)
    assert ham.exact is not None
    for (k, l), frac in ham.exact.items():
        assert ham.matrix[k, l] == pytest.approx(float(frac), rel=1e-15, abs=1e-18)
    # and the sparse dict covers every nonzero entry up to symmetry
    nz = {(min(k, l), max(k, l)) for k, l in zip(*np.nonzero(ham.matrix))}
    assert nz == {(min(k, l), max(k, l)) for k, l in ham.exact}


# alpha 40 with Jz/J 3.5e12 puts integer numerators far beyond 64 bits on the diagonal
@pytest.mark.parametrize("alpha", [2.0, 4.0, 6.0, 8.0, 10.0, 40.0])
def test_exact_class_entries_equal_the_per_pair_sums_in_key_order(alpha):
    params = ModelParams(alpha, {2.0: 1.0, 4.0: -3.0, 6.0: 0.37, 8.0: -1.23456, 10.0: 0.0,
                                 40.0: 3.5e12}[alpha])
    for M in range(-6, 7):
        # the entries are sum_c w_c [X_c + (Jz/J) diag(zz_c)]: integer class parts
        # equal to the per-pair sums make them equal at every alpha and Jz/J
        distance_sq, zz, flips = pair_table(M)
        pair_class = np.array([ALLOWED_DISTANCE_SQ.index(d2) for d2 in distance_sq])
        classes = coupling_classes(M)
        assert np.array_equal(classes.zz, np.array(zz) @ (pair_class[:, None] == np.arange(6)))
        a, b, k = np.array(flips, dtype=int).reshape(-1, 3).T  # none in M = +-6
        assert np.array_equal(classes.rows, a) and np.array_equal(classes.cols, b)
        assert np.array_equal(classes.cls, pair_class[k])
        # and one exact dict per sector ties them to the Fraction weights, in key order
        entries = _exact_entries(M, params)
        reference = exact_entries_by_pair(M, params)
        assert entries == reference
        assert list(entries) == list(reference)
        assert {type(v) for v in entries.values()} == {Fraction}


def test_exact_entries_skipped_when_disabled():
    assert build_sector_hamiltonian(3, XXZ_FERRO, exact=False).exact is None
    assert build_sector_hamiltonian(3, ModelParams(3.0, 1.0)).exact is None


def test_casimir_spectrum_in_one_flip_sector():
    # one state of total spin 6, eleven of total spin 5
    values = np.sort(np.linalg.eigvalsh(heisenberg_casimir(5)))
    assert values[:11] == pytest.approx(30.0, abs=1e-10)
    assert values[11] == pytest.approx(42.0, abs=1e-10)


def test_casimir_commutes_with_heisenberg_only():
    casimir = heisenberg_casimir(4)
    iso = build_sector_hamiltonian(4, HEISENBERG).matrix
    assert np.abs(iso @ casimir - casimir @ iso).max() < 1e-10
    aniso = build_sector_hamiltonian(4, XXZ_FERRO).matrix
    assert np.abs(aniso @ casimir - casimir @ aniso).max() > 1e-3


def test_sector_dimensions_guard():
    with pytest.raises(ValueError):
        build_sector_hamiltonian(7, HEISENBERG)


def test_exact_assembly_refuses_an_odd_alpha():
    with pytest.raises(ValueError, match="exact couplings need a positive even integer alpha"):
        build_sector_hamiltonian(5, ModelParams(3.0, 1.0), exact=True)


@pytest.fixture(scope="module")
def pauli_sites():
    """Sparse 4096x4096 Pauli x, y, z on each site; bit i is site i, set means down."""
    paulis = {
        "x": sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]),
        "y": sp.csr_matrix([[0.0, -1.0j], [1.0j, 0.0]]),
        "z": sp.csr_matrix([[1.0, 0.0], [0.0, -1.0]]),
    }
    eye = sp.identity(2, format="csr")

    def on_site(op, i):
        out = sp.identity(1, format="csr")
        for site in reversed(range(12)):   # kron puts its first factor on the top bit
            out = sp.kron(out, op if site == i else eye, format="csr")
        return out

    return {a: [on_site(op, i) for i in range(12)] for a, op in paulis.items()}


def test_sector_blocks_match_the_full_pauli_hamiltonian(geometry, pauli_sites):
    sx, sy, sz = pauli_sites["x"], pauli_sites["y"], pauli_sites["z"]
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    for params in (HEISENBERG, XXZ_FERRO, ModelParams(3.0, 0.5)):
        full = sum(
            _coupling(geometry, i, j, params.alpha)
            * (sx[i] @ sx[j] + sy[i] @ sy[j] + params.jz_over_j * sz[i] @ sz[j])
            for i, j in pairs
        )
        assert abs(full.imag).max() == 0.0
        full = full.real.tocsr()
        for M in range(-6, 7):
            configs = sector_basis(M).configs
            block = full[configs][:, configs].toarray()
            ham = build_sector_hamiltonian(M, params, exact=False)
            assert np.abs(block - ham.matrix).max() < 1e-12


def test_casimir_matches_the_full_pauli_spin(pauli_sites):
    total = [sum(ops) / 2.0 for ops in pauli_sites.values()]
    s2 = (sum(t @ t for t in total)).tocsr()
    assert abs(s2.imag).max() == 0.0
    s2 = s2.real.tocsr()
    for M in range(-6, 7):
        configs = sector_basis(M).configs
        block = s2[configs][:, configs].toarray()
        assert np.abs(block - heisenberg_casimir(M)).max() < 1e-12


FLOAT_ALPHAS = [0.37, 1.0, 3.7, 6.0, 13.1]


@pytest.mark.parametrize("alpha", FLOAT_ALPHAS)
def test_float_assembly_is_the_six_class_sum_bit_for_bit(alpha):
    for M in (0, 3, -5):
        ham = build_sector_hamiltonian(M, ModelParams(alpha, -0.7), exact=False)
        assert np.array_equal(ham.matrix, _assemble(M, class_weights(alpha), -0.7))


@pytest.mark.parametrize("alpha", FLOAT_ALPHAS)
def test_float_assembly_matches_the_per_pair_sum(alpha):
    for M in (0, 3, -5):
        distance_sq, zz, flips = pair_table(M)
        weights = np.array([float(d2) ** (-alpha / 2.0) for d2 in distance_sq])
        by_pair = np.diag(-0.7 * (np.array(zz) @ weights))
        a, b, k = np.array(flips).T
        by_pair[a, b] = 2.0 * weights[k]
        ham = build_sector_hamiltonian(M, ModelParams(alpha, -0.7), exact=False)
        assert np.abs(ham.matrix - by_pair).max() <= 1e-13 * np.abs(by_pair).max()


@pytest.mark.parametrize("alpha", FLOAT_ALPHAS)
def test_total_coupling_is_the_pairwise_sum_bit_for_bit(geometry, alpha):
    weights = [_coupling(geometry, i, j, alpha) for i in range(12) for j in range(i + 1, 12)]
    assert total_coupling(geometry, alpha) == sum(weights)


def test_spectra_do_not_rebuild_the_geometry():
    full_spectrum(ModelParams(4.5, 0.3))
    counter = mock.Mock(wraps=build_geometry)
    with mock.patch("hexstar.hamiltonian.build_geometry", counter), \
            mock.patch("hexstar.lattice.build_geometry", counter):
        full_spectrum(ModelParams(4.5, 0.35))  # new couplings: every sector is assembled
        build_sector_hamiltonian(3, ModelParams(4.0, 0.35), exact=True)
    assert counter.call_count == 0
