"""eigentow: eigenstates of commuting symmetric operators via collapse dynamics.

The core loop integrates the nonlinear relaxation whose stable fixed points
are common eigenvectors, using an L-stable implicit-Euler step on a centred
generator, which converges in tens of steps at the default dt.  On top of
it sit eigenstate towing along operator ladders, an eigenbasis coefficient
simulator with a closed-form decoherence oracle, a molecules-plus-field
test problem with finite-size scaling experiments, and brute-force
eigensolvers used as ground truth.
"""
from .bench import BenchRecord, bench, loglog_slope
from .coeffsim import (
    CoefficientState,
    coeff_simulate,
    damping_rate,
    lindblad_closed_form,
    probabilities,
)
from .collapse import CollapseConfig, ConvergenceReport, collapse, implicit_step
from .errors import ContractViolationError, DegenerateStateError, ParameterError
from .jaynes_cummings import (
    JCParams,
    ScalingTable,
    ScanResult,
    ScanRow,
    atomic_inversion,
    auto_kappa_grid,
    build_hamiltonian,
    critical_coupling,
    critical_coupling_at_ratio,
    fit_critical_exponent,
    scan_kappa,
)
from .operators import (
    Moments,
    OperatorSet,
    SparseSymmetricOperator,
    StateVector,
    apply_B,
    combine_operators,
    commutation_check,
    exchange_operator,
    moments,
)
from .oracle import (
    EigenDecomposition,
    compare_eigvec,
    dense_eig,
    rayleigh_residual,
    tridiag_eig,
    tridiag_eigenvalues,
)
from .towing import (
    TowingPlan,
    TowingResult,
    make_schedule,
    refine,
    squared_overlap,
    tow,
    tow_many,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "bench",
    "loglog_slope",
    "CoefficientState",
    "coeff_simulate",
    "damping_rate",
    "lindblad_closed_form",
    "probabilities",
    "CollapseConfig",
    "ConvergenceReport",
    "collapse",
    "implicit_step",
    "ContractViolationError",
    "DegenerateStateError",
    "ParameterError",
    "JCParams",
    "ScalingTable",
    "ScanResult",
    "ScanRow",
    "atomic_inversion",
    "auto_kappa_grid",
    "build_hamiltonian",
    "critical_coupling",
    "critical_coupling_at_ratio",
    "fit_critical_exponent",
    "scan_kappa",
    "Moments",
    "OperatorSet",
    "SparseSymmetricOperator",
    "StateVector",
    "apply_B",
    "combine_operators",
    "commutation_check",
    "exchange_operator",
    "moments",
    "EigenDecomposition",
    "compare_eigvec",
    "dense_eig",
    "rayleigh_residual",
    "tridiag_eig",
    "tridiag_eigenvalues",
    "TowingPlan",
    "TowingResult",
    "make_schedule",
    "refine",
    "squared_overlap",
    "tow",
    "tow_many",
]
