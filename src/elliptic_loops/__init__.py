"""Exact arithmetic for elliptic loops over finite local rings."""

from .errors import (
    DegenerateSum,
    EllipticLoopError,
    EvenOrder,
    HessianNotUnit,
    NilpotencyTooHigh,
    NonUnit,
    NotPrimitive,
    PreconditionUnmet,
    SingularCurve,
)
from .ring import INTEGER_QUOTIENT, TRUNCATED_POLYNOMIAL, RingConfig, RingElem
from .projective import ProjPoint, count_projective, normalize, plane_points, proj_equal
from .loop_core import (
    LoopParams,
    add,
    eval_F,
    eval_H,
    identity,
    lift_affine,
    membership,
    neg,
    order_of,
    scalar_mul,
    sub,
    validate_params,
)
from .layers import (
    Layer,
    all_layers,
    layer_infinity_generator,
    layer_isomorphism_check,
    layer_membership,
    layer_points,
    layer_report,
    stratify,
)
from .structure import (
    AssocMatrix,
    InfDecomposition,
    TorsionLine,
    assoc_sufficient,
    difference_group,
    fiber_points,
    forbidden_locus_check,
    infinity_decompose,
    infinity_generators,
    matrix_rank,
    torsion_fiber,
    torsion_geometry,
    torsion_line,
    triple_associates,
)
from .diagnostics import (
    LAW_NAMES,
    CayleyIndex,
    LawReport,
    WitnessReport,
    cardinality_report,
    classify_group_loops,
    group_certificate,
    infinity_suite,
    law_suite,
    low_nilpotency_suite,
    replay,
    technical_congruences,
    verify_instance,
    witness_A,
    witness_B,
    witness_inf,
)

__version__ = "0.1.0"
