"""Construction and numerical certification of matrix-monotone, matrix-convex,
and strongly matrix-convex functions on an interval.

The package has three layers:

* representations and evaluation — ``funexpr`` (expression trees),
  ``measures`` (discrete integral forms), ``ratpoly`` (exact rational forms);
* certification — ``classify`` (randomized operator-inequality checks,
  divided-difference and Pick matrices) over ``matcalc``;
* construction — ``transforms`` (single checked steps) and ``processes``
  (the forward cycle, the repeated-quotient ladder, the backward cycle).
"""

from . import errors
from .classify import (
    Certificate,
    CertifyConfig,
    ClassifyResult,
    check_convex,
    check_halfplane,
    check_loewner,
    check_monotone,
    check_strong,
    classify_all,
    loewner_matrix,
    replay_witness,
)
from .funexpr import (
    Affine,
    Catalog,
    Compose,
    Constant,
    DiffQuot,
    FunctionExpr,
    MeasureForm,
    MeasureOC,
    MeasureOM,
    MeasureSOC,
    MulLinear,
    NegRecip,
    Power,
    Quotient,
    Reciprocal,
    from_json,
    identity,
    to_json,
)
from .interval import REAL_LINE, Interval
from .matcalc import (
    apply_fn,
    compress,
    embed,
    psd_min_eig,
    rand_hermitian,
    rand_ordered_pair,
    schur_complement,
)
from .measures import (
    DiscreteMeasure,
    OCRep,
    OMRep,
    SOCRep,
    extend_at_endpoint,
    om_to_soc,
    recover_atom_weight,
    rep_from_json,
    rep_to_json,
    substitute_square,
)
from .processes import PipelineRun, PipelineStage, backward_process, main_cycle, star_process
from .ratpoly import RationalFunction, as_rational
from .transforms import (
    ComposeResult,
    choose_shift,
    compose_checked,
    diff_quotient,
    mul_linear,
    neg_reciprocal,
)

__version__ = "0.1.0"
