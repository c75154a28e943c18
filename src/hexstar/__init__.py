"""Exact diagonalization of twelve XXZ spins on a hexagram lattice.

Six outer and six inner sites, power-law couplings, full D6h symmetry
resolution, quench dynamics of measurement probabilities, entanglement
scans, and a closed-form two-level block for cross-validation.
"""

from .lattice import (
    Geometry,
    GroupElement,
    CharacterTable,
    build_geometry,
    build_group,
    character_table,
)
from .hilbert import (
    SectorBasis,
    StateVector,
    StateSpec,
    sector_basis,
    basis_state,
    spin_flip,
    project_sector,
    parse_state_spec,
    build_initial_state,
    product_state,
)
from .hamiltonian import (
    ModelParams,
    SectorHamiltonian,
    HEISENBERG,
    XXZ_FERRO,
    exact_capable,
    total_coupling,
    build_sector_hamiltonian,
    heisenberg_casimir,
)
from .symmetry import (
    IrrepBlock,
    IrrepCountTable,
    MultipletTable,
    Stabilizer,
    sector_character,
    irrep_counts,
    multiplet_counts,
    irrep_blocks,
    irrep_weights,
    stabilizer,
)
from .spectrum import (
    SpectrumResult,
    EigenCluster,
    DegeneracyHistogram,
    GroundScan,
    GroundPoint,
    OverlapPoint,
    IsingCheck,
    diagonalize_sector,
    full_spectrum,
    degeneracy_histogram,
    ground_state_point,
    ground_state_scan,
    heisenberg_overlap_scan,
    ising_degeneracy_check,
)
from .dynamics import (
    SpectralSupport,
    Trajectory,
    FrequencyCount,
    CollapseMetrics,
    spectral_support,
    evolve_probabilities,
    return_probability,
    frequency_count,
    equiprobability_classes,
    collapse_metrics,
    regime_classifier,
)
from .entanglement import EntanglementReport, is_entangled
from .analytic import (
    M5Block,
    m5_block,
    block_entries,
    exact_block_entries,
    kappa,
    gap,
    m5_probabilities,
    numeric_block,
)

__version__ = "0.1.0"
