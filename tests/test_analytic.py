"""Closed-form two-level block versus the generic engine."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hexstar.analytic import (
    block_entries,
    exact_block_entries,
    exact_heisenberg_gap,
    gap,
    heisenberg_gap,
    heisenberg_m5_eigenstates,
    kappa,
    m5_block,
    m5_probabilities,
    numeric_block,
)
from hexstar.dynamics import evolve_probabilities
from hexstar.hamiltonian import (
    HEISENBERG,
    ModelParams,
    build_sector_hamiltonian,
    heisenberg_casimir,
)
from hexstar.hilbert import StateVector, sector_basis

ALPHAS = (3.0, 6.0)
ANISOTROPIES = (-3.0, -1.0, 0.0, 1.0, 3.0)


def test_block_matches_engine_on_the_grid():
    for alpha in ALPHAS:
        for jz in ANISOTROPIES:
            formula = m5_block(alpha, jz).matrix
            engine = numeric_block(alpha, jz)
            assert np.abs(engine - formula).max() < 1e-12, (alpha, jz)


def test_gap_formula_matches_eigenvalues():
    for alpha in ALPHAS:
        for jz in ANISOTROPIES:
            block = m5_block(alpha, jz)
            evals = np.linalg.eigvalsh(block.matrix)
            assert block.delta_e == pytest.approx(evals[1] - evals[0], rel=1e-12)
            assert block.delta_e == pytest.approx(gap(alpha, jz), rel=1e-15)


def test_exact_rational_entries():
    # strongly anisotropic ferromagnetic point, assembled with no rounding
    block = m5_block(6.0, -3.0)
    assert block.exact == (
        (Fraction(-173351219, 4000752), Fraction(22359, 5488)),
        (Fraction(22359, 5488), Fraction(-12105047, 444528)),
    )
    expected = 5.0 * math.sqrt(52108288731277) / 2000376
    assert block.delta_e == pytest.approx(expected, rel=1e-12)


def test_exact_isotropic_gap():
    assert exact_heisenberg_gap(6.0) == Fraction(22359, 2744)
    assert gap(6.0, 1.0) == pytest.approx(22359 / 2744, rel=1e-12)
    for alpha in ALPHAS:
        assert gap(alpha, 1.0) == pytest.approx(heisenberg_gap(alpha), rel=1e-13)


def test_exact_entries_require_even_power():
    with pytest.raises(ValueError):
        exact_block_entries(3.0)
    with pytest.raises(ValueError):
        exact_heisenberg_gap(5.0)
    assert m5_block(3.0, 1.0).exact is None


def test_kappa_consistency_with_entries():
    for alpha in ALPHAS:
        h11_0, h12_0, h22_0, h11_1, h22_1 = block_entries(alpha)
        d0 = h11_0 - h22_0
        d1 = h11_1 - h22_1
        k0, k1 = kappa(alpha)
        # the quadratic-in-x form requires the slopes to be opposite
        assert d0 == pytest.approx(-d1, rel=1e-12)
        assert k1 == pytest.approx(d1 * d1, rel=1e-12)
        assert k0 == pytest.approx(d1 * d1 + 4.0 * h12_0 * h12_0, rel=1e-12)


def test_isotropic_eigenstates():
    sym, anti = heisenberg_m5_eigenstates()
    assert abs(float(sym.amps @ anti.amps)) < 1e-14
    casimir = heisenberg_casimir(5)
    assert sym.amps @ casimir @ sym.amps == pytest.approx(42.0, abs=1e-10)
    assert anti.amps @ casimir @ anti.amps == pytest.approx(30.0, abs=1e-10)
    # both stay eigenvectors of the full sector matrix for any power law
    for alpha in (3.7, 6.0):
        h = build_sector_hamiltonian(5, ModelParams(alpha, 1.0), exact=False).matrix
        for vec in (sym.amps, anti.amps):
            image = h @ vec
            energy = vec @ image
            assert np.abs(image - energy * vec).max() < 1e-10


def test_probabilities_boundary_values():
    times = np.array([0.0])
    p_outer, p_inner = m5_probabilities("outer", 6.0, 1.0, times)
    assert p_outer[0] == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert p_inner[0] == pytest.approx(0.0, abs=1e-14)
    # full population transfer after half a beat at the isotropic point
    half_beat = np.array([0.5 / gap(6.0, 1.0)])
    p_outer, p_inner = m5_probabilities("outer", 6.0, 1.0, half_beat)
    assert p_outer[0] == pytest.approx(0.0, abs=1e-12)
    assert p_inner[0] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_probabilities_match_engine_evolution():
    times = np.linspace(0.0, 1.0, 101)
    basis = sector_basis(5)
    for alpha, jz, initial in ((6.0, -3.0, "symmetric"), (6.0, 1.0, "outer"),
                               (3.0, 2.0, "outer")):
        p_outer, p_inner = m5_probabilities(initial, alpha, jz, times)
        block = m5_block(alpha, jz)
        if initial == "outer":
            start = block.e_outer
        else:
            amps = (block.e_outer.amps + block.e_inner.amps) / math.sqrt(2.0)
            start = StateVector(amps=amps, sector=5)
        traj = evolve_probabilities(start, 5, ModelParams(alpha, jz), times)
        for k in range(6):
            row_out = traj.probs[basis.index_of[1 << k]]
            row_in = traj.probs[basis.index_of[1 << (6 + k)]]
            assert np.abs(row_out - p_outer).max() < 1e-10, (alpha, jz)
            assert np.abs(row_in - p_inner).max() < 1e-10, (alpha, jz)


def test_unknown_initial_vector_rejected():
    with pytest.raises(ValueError):
        m5_probabilities("inner", 6.0, 1.0, np.array([0.0]))


def test_heisenberg_point_gap_agrees_with_spectrum(heisenberg_spectra):
    # the one-flip spectrum must contain two levels split by the closed form
    sym, anti = heisenberg_m5_eigenstates()
    h = build_sector_hamiltonian(5, HEISENBERG).matrix
    e_sym = sym.amps @ h @ sym.amps
    e_anti = anti.amps @ h @ anti.amps
    assert abs(e_anti - e_sym) == pytest.approx(gap(6.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("alpha", [197.7, 198.0, 395.0, 646.0, 647.0, 1000.0])
def test_kappa_refuses_an_alpha_that_overflows_it(alpha):
    # past alpha ~ 197 the squared bracket overflows; past ~ 395 it is inf and k1 is 0 * inf
    with pytest.raises(RuntimeError, match=f"overflows a float at alpha={alpha:g}"):
        kappa(alpha)
    with pytest.raises(RuntimeError, match="kappa"):
        m5_block(alpha, 1.0)


def test_kappa_is_finite_up_to_its_overflow():
    for alpha in (100.0, 197.0, 197.6):
        k0, k1 = kappa(alpha)
        assert (k0, k1) == (pytest.approx(80.0), pytest.approx(16.0))
        assert gap(alpha, 3.0) == pytest.approx(math.sqrt(80.0 + 16.0 * 3.0))
