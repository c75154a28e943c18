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
    magnetization,
    basis_state,
    act_permutation,
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
    coupling,
    exact_capable,
    exact_coupling,
    total_coupling,
    build_sector_hamiltonian,
    heisenberg_casimir,
)
from .symmetry import (
    IrrepBlock,
    IrrepCountTable,
    MultipletTable,
    sector_character,
    irrep_counts,
    multiplet_counts,
    irrep_projector,
    irrep_blocks,
    irrep_weights,
    label_eigenvector,
    classify_factorized_state,
    identify_one_dim_irrep,
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
from .entanglement import EntanglementReport, schmidt_number, is_entangled
from .analytic import (
    M5Block,
    m5_block,
    block_entries,
    exact_block_entries,
    kappa,
    gap,
    heisenberg_gap,
    exact_heisenberg_gap,
    heisenberg_m5_eigenstates,
    m5_probabilities,
    numeric_block,
)

__version__ = "0.1.0"
