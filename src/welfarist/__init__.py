"""Exact-arithmetic additive welfarist rules for indivisible goods.

The package keeps utilities and welfare comparisons exact (big rationals,
log-products, quadratic surds) so that argmax sets and EF1 verdicts carry no
floating-point ambiguity, and verifies the block-increment conditions that
characterize which rules guarantee EF1 on which instance classes.
"""

__version__ = "0.1.0"

from .conditions import (
    Bounds,
    ConditionId,
    ConditionReport,
    analytic_verdict,
    check_condition,
    find_witness_adaptive,
    implication_scan,
    marginal_growth_envelope,
    numeric_lemma_suite,
    threshold_bisect,
    violates,
)
from .fairness import Ef1Report, ParetoResult, is_ef, is_ef1, is_pareto_optimal
from .functions import (
    LinearCombo,
    Log,
    ModHarmonic,
    ModLog,
    PMean,
    PiecewiseTable,
    WelfareFunction,
    delta,
    evaluate,
    increment,
    parse_welfare,
)
from .model import (
    Allocation,
    ClassProfile,
    Instance,
    ParseError,
    classify,
    is_positive_admitting,
    parse_allocation,
    parse_instance,
    random_instance,
    serialize_allocation,
    serialize_instance,
)
from .quadrature import DivergentIntegralError, QuadratureError, harmonic_integral
from .solver import (
    EnumerationCapExceeded,
    MaximizerSet,
    chosen_all_ef1,
    enumerate_maximizers,
    solve_branch_bound,
    split_family_argmax,
    welfare_of,
)
from .values import (
    EQUAL,
    GREATER,
    LESS,
    NEG_INF,
    POS_INF,
    ExactValue,
    IntervalValue,
    PrecisionPolicy,
    Relation,
    ValueOrdering,
    compare,
    value_sum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
