"""Eigenvalue-indexed spectral decompositions of controllability Gramians and
their inverses for continuous LTI systems, with brute-force oracles for every
closed-form path."""

from .companion import (
    CompanionRealization,
    EigenStructure,
    JordanBlockChain,
    JordanChainSet,
    LtiSystem,
    SimilarityTransform,
    build_companion,
    controllability_matrix,
    eigen_structure,
    hankel_lower,
    hankel_upper,
    jordan_chains_companion,
    left_eigenvector,
    residue_companion,
    require_controllable,
    residues_general,
    right_eigenvector,
    similarity_transform,
)
from .document import SystemDocument, parse_system
from .energy import (
    EnergyPartition,
    OptimalControlSignal,
    OverlapReport,
    control_energy_quadrature,
    energy_partition,
    min_energy,
    modal_overlap_integrals,
    optimal_control,
)
from .errors import (
    ConditioningError,
    ControllabilityError,
    ConvergenceError,
    GramspecError,
    MultipleEigenvalueError,
    SchemaError,
    SolvabilityError,
    StabilityError,
)
from .gramians import (
    FiniteGramianDecomposition,
    InitialCondition,
    SpectralComponentSet,
    exponent_collisions,
    finite_pair_subgramians,
    finite_subgramians,
    homogeneous_pair_subgramians,
    homogeneous_subgramians,
    infinite_pair_subgramians,
    infinite_subgramians,
    lift_to_original,
    multiple_eig_gramian,
    zero_plaid_defect,
)
from .inverse import (
    NormalizationState,
    OrthogonalityReport,
    finite_inverse,
    inverse_eigenparts,
    inverse_multiple_eig,
    inverse_pair_parts,
    orthogonality_certificate,
    riccati_general,
)
from .oracle import (
    OracleResult,
    gramian_quadrature,
    integrate_lyapunov,
    matrix_exp_reference,
    residual_lyapunov,
    residual_riccati,
    solve_lyapunov_dense,
)
from .spectrum import (
    Polynomial,
    SolvabilityReport,
    Spectrum,
    Tolerances,
    char_poly,
    check_solvability,
    cluster,
    eval_with_derivative,
    find_roots,
    poly_from_roots,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
