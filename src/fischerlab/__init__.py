"""Exact Fischer operators on graded polynomial spaces.

The toolkit realizes the maps q -> laplacian(psi * q) (and the general
q -> p(D)(psi * q)) as exact linear maps between graded monomial slices,
computes decompositions f = psi*q + h with h harmonic, solves the Dirichlet
problem with polynomial data on quadric boundaries, and produces degree-wise
surjectivity certificates.  All coefficient arithmetic is exact (rationals
or Gaussian rationals); floats only appear in boundary sampling.
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .errors import (
    BasisOverflowError,
    FischerlabError,
    FloatEvaluationError,
    InconsistentSystemError,
    NoBoundaryHitError,
    NoDecompositionFoundError,
    ParseError,
    SliceTooLargeError,
    UnknownVariableError,
    UnsolvableSliceError,
)
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    GAUSSIAN_I,
    GaussianRational,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
)
from .polyring import (
    Basis,
    FILTERED,
    HOMOGENEOUS,
    MAX_SLICE_DIMENSION,
    NEG_INF,
    Poly,
    apply_operator,
    basis_dimension,
    coordinates,
    filtered_basis,
    from_coordinates,
    grlex_key,
    homogeneous_basis,
    poly_from_json,
    poly_to_json,
    squared_norm,
)
from .linalg import (
    ExactMatrix,
    GrowingEchelon,
    RrefResult,
    rank_and_first_missing,
    rref,
    solve,
)
from .fischer import (
    BijectivitySlice,
    DecompositionCertificate,
    DegreeVerdict,
    FischerOperator,
    NOT_SURJECTIVE,
    RankProfile,
    RankProfileRow,
    SURJECTIVE,
    UNDETERMINED,
    fischer_decompose,
    fischer_theorem_check,
    khavinson_psi,
    operator_matrix,
    rank_profile,
)
from .dirichlet import (
    DirichletSolution,
    QuadricDomain,
    ResidualReport,
    VerificationRecord,
    boundary_mismatches,
    boundary_samples,
    dirichlet_solve,
    ks_residual,
    verify_solution,
)
from .exprs import (
    default_var_names,
    format_polynomial,
    parse_polynomial,
    parse_scalar,
    validate_var_names,
)
