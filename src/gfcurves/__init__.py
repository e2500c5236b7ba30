"""Exact computations for the curve family a*X^n*Y^n - X^n - Y^n + b over F_q.

Point counts on the nonsingular model, upper bounds of Hasse-Weil and
Stohr-Voloch type, local order sequences at the special points, and chord
counts of affinely regular polygons inscribed in the hyperbola XY = 1.
"""

from .bounds import (
    BoundReport,
    f_u,
    giulietti_bound,
    hasse_weil,
    k_threshold,
    lemma34_check,
    np_bound,
    np_bound_value,
    sv_bound,
    v_of_k,
    vtilde,
    w_bound,
)
from .chords import (
    ChordSet,
    Polygon,
    build_polygon,
    chord_set,
    chords_through,
    restricted_count,
    verify_prop41,
)
from .curve import (
    CountReport,
    CurveParams,
    SpecialPoint,
    count_points,
    count_points_fast,
    make_curve,
    smoothness_scan,
    special_points,
)
from .ffield import (
    FieldCtx,
    make_field,
    nth_root_count,
    subgroup_generator,
)
from .localexp import (
    OrderSequence,
    TruncatedSeries,
    branch_orders,
    expand_at_inflection,
    expand_branch_at_infinity,
    inflection_orders,
    order_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChordSet",
    "CountReport",
    "CurveParams",
    "FieldCtx",
    "OrderSequence",
    "Polygon",
    "SpecialPoint",
    "TruncatedSeries",
    "branch_orders",
    "build_polygon",
    "chord_set",
    "chords_through",
    "count_points",
    "count_points_fast",
    "expand_at_inflection",
    "expand_branch_at_infinity",
    "f_u",
    "giulietti_bound",
    "hasse_weil",
    "inflection_orders",
    "k_threshold",
    "lemma34_check",
    "make_curve",
    "make_field",
    "np_bound",
    "np_bound_value",
    "nth_root_count",
    "order_sequence",
    "restricted_count",
    "smoothness_scan",
    "special_points",
    "subgroup_generator",
    "sv_bound",
    "v_of_k",
    "verify_prop41",
    "vtilde",
    "w_bound",
    "__version__",
]
