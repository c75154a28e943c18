from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from hexstar import (
    HEISENBERG,
    XXZ_FERRO,
    build_geometry,
    build_group,
    build_sector_hamiltonian,
    character_table,
    full_spectrum,
    project_sector,
)


@pytest.fixture(scope="session")
def geometry():
    return build_geometry()


@pytest.fixture(scope="session")
def group(geometry):
    return build_group(geometry)


@pytest.fixture(scope="session")
def chartable():
    return character_table()


# Diagonalizations are memoized process-wide, so these just warm the cache
# once and hand out the shared results.

@pytest.fixture(scope="session")
def heisenberg_spectra():
    return full_spectrum(HEISENBERG)


@pytest.fixture(scope="session")
def xxz_spectra():
    return full_spectrum(XXZ_FERRO)


@pytest.fixture(scope="session")
def unit_time_grid():
    return np.linspace(0.0, 1.0, 2001)


@lru_cache(maxsize=16)
def _plain_eigh(M, params):
    return scipy.linalg.eigh(build_sector_hamiltonian(M, params, exact=False).matrix)


def _plain_evolution(state, params, times, sectors=range(-6, 7)):
    """Rescaled probabilities per sector from plain eigh eigenvectors.

    No clustering and no Gram-Schmidt: each sector component is expanded
    in whatever eigenvectors eigh returns and evolved level by level, which
    is basis-choice free because degenerate levels share one phase.
    """
    out = {}
    for M in sectors:
        component, weight = project_sector(state, M)
        if weight == 0.0:
            continue
        energies, vectors = _plain_eigh(M, params)
        phase = np.exp(-2j * np.pi * np.outer(energies, times))
        amps = vectors @ ((vectors.T @ component.amps)[:, None] * phase)
        out[M] = (amps.real**2 + amps.imag**2) / weight
    return out


@pytest.fixture(scope="session")
def plain_evolution():
    """Independent reference for the sector-by-sector mode evolution."""
    return _plain_evolution
