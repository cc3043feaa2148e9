"""Solvers and certificates for the equation A x - B |x| - b = 0.

The package implements the exact Newton-based matrix-splitting iteration
and its inexact variant with pluggable inner solvers, the named splitting
constructions (Picard, MN, NJ, NGS, NSOR, NAOR, HSS, NMN, DRS), numerical
convergence certificates, problem generators, and a benchmark CLI.
"""

from .certify import (
    Certificate,
    Condition,
    check_corollary,
    check_inexact,
    evaluate,
)
from .errors import (
    ConfigurationError,
    ConvergenceFailure,
    DimensionError,
    DivergenceError,
    FormatError,
    GavekitError,
    NumericsError,
    ParameterError,
    SingularMatrixError,
    SpecError,
)
from .linalg import (
    Factorization,
    LsqrOutcome,
    lsqr,
    lu_factorize,
    min_singular_value,
    spectral_norm,
    symmetric_eig_extremes,
)
from .mmio import read_matrix_market, read_vector, write_matrix_market, write_vector
from .problems import (
    GaveProblem,
    LcpInstance,
    gave_to_lcp,
    gen_certified,
    gen_example41,
    lcp_to_gave,
    load_problem,
    save_problem,
)
from .solver import (
    SolveReport,
    SolverConfig,
    ThetaSchedule,
    inms_solve,
    nms_solve,
    residual,
    theta_at,
    verify_inexact_condition,
)
from .sparse import (
    SparseMatrix,
    diag_matrix,
    hermitian_split,
    identity,
    sparse_add,
    sparse_scale,
    sparse_sub,
    spmv,
    zeros,
)
from .splittings import (
    OmegaSpec,
    Splitting,
    SplittingKind,
    build_splitting,
    resolve_omega,
    triangular_parts,
)
from .bench import (
    ExperimentSpec,
    MethodSpec,
    ResultRow,
    emit_table,
    parse_spec,
    run_experiment,
    tune_alpha,
)

__version__ = "0.1.0"
