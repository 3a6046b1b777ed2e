"""Exact link invariants from two-dimensional Yang-Baxter solutions.

The package computes polynomial invariants of braid closures from the
catalog of nonsingular constant R-matrices in dimension two, from their
enhanced trace operators, and from diagonal dressings into higher
dimensions.  All arithmetic is exact.
"""

from .errors import (
    ConditionViolation,
    ContextMismatch,
    DimensionMismatch,
    ExponentOverflow,
    InverseOutsideRing,
    NonInvertible,
    NotAUnit,
    NotDivisible,
    ParseError,
    PositionOutOfRange,
    PreconditionViolation,
    ProportionalityFailure,
    StrandBoundViolation,
    UnknownName,
    UnknownRow,
    YbtraceError,
)
from .ring import (
    MAX_EXPONENT,
    Scalar,
    ScalarContext,
    format_scalar,
    parse_scalar,
    pow_int,
    substitute,
    try_div_exact,
)
from .tensor import (
    SquareMatrix,
    embed_generator,
    invert,
    kron,
    matadd,
    matmul,
    matrix_substitute,
    scalar_scale,
    trace,
)
from .catalog import (
    CATALOG_NAMES,
    RMatrixSpec,
    TransformSpec,
    check_ybe,
    get_rmatrix,
    is_spin_preserving,
    load_rmatrix_json,
    transform_rmatrix,
)
from .braid import (
    BraidWord,
    KNOT_NAMES,
    LINK_NAMES,
    NAMED_LINKS,
    NamedLink,
    conjugate,
    disjoint_union,
    get_named_braid,
    parse_braid,
    stabilize,
)
from .eyb import (
    EnhancedOperator,
    Table1Entry,
    TABLE1,
    get_table1_entry,
    get_table1_eyb,
    sign_variants,
    specialize,
    table1_entries,
    verify_eyb,
)
from .invariant import (
    ANNIHILATING_RELATIONS,
    InvariantResult,
    SkeinFamily,
    alexander_nabla,
    braid_representation,
    check_skein_family,
    classification_report,
    compute_ts,
    get_relation,
    open_trace,
    unknot_value,
    verify_annihilating,
)

__version__ = "0.1.0"
