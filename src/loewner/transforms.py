"""Checked single-step transforms between the three function classes.

The raw expression nodes (funexpr) only validate what is structurally
necessary; this layer adds the mathematical side conditions:

* ``neg_reciprocal``  scans the sign of f and raises when it fails,
* ``choose_shift``    picks a constant making f(x)(x - x0) + c negative,
* ``compose_checked`` verifies the outer-monotone composition hypotheses
                      statistically before handing back the composite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import (
    Certificate,
    CertifyConfig,
    check_convex,
    check_loewner,
    check_monotone,
    check_strong,
)
from .errors import HypothesisViolated, NoFiniteLimit, OutsideClosure
from .funexpr import Compose, DiffQuot, FunctionExpr, MulLinear, NegRecip
from .scanning import check_bounded, check_negative, check_positive, closure_value, scan_grid

__all__ = [
    "diff_quotient", "neg_reciprocal", "mul_linear", "choose_shift",
    "compose_checked", "ComposeResult",
]


def diff_quotient(fn: FunctionExpr, x0: float) -> DiffQuot:
    """(f(x) - f(x0))/(x - x0); x0 must have a finite value or limit."""
    return DiffQuot(fn, x0)


def neg_reciprocal(fn: FunctionExpr, positive: bool = True) -> NegRecip:
    """-1/f, after verifying the expected strict sign of f on the scan grid.

    With positive=True a nonpositive value raises NotPositive (ZeroFunction
    for the identically-zero child); positive=False expects f < 0.
    """
    if positive:
        check_positive(fn.eval_real, fn.domain)
    else:
        check_negative(fn.eval_real, fn.domain)
    return NegRecip(fn, positive_child=positive)


def mul_linear(fn: FunctionExpr, x0: float, c: float = 0.0) -> MulLinear:
    """f(x) * (x - x0) + c."""
    return MulLinear(fn, x0, c)


def choose_shift(fn: FunctionExpr, x0: float) -> float:
    """Shift c making f(x)(x - x0) + c negative on the whole grid.

    c = -(sup of f(x)(x - x0)) - margin with margin = max(1, 0.1 * range);
    the sup comes from the refining 1001 -> 4001 point scan, so Unbounded
    propagates when f(x)(x - x0) has no finite sup.
    """
    g = MulLinear(fn, x0, 0.0)
    sup, inf = check_bounded(g.eval_real, g.domain)
    margin = max(1.0, 0.1 * (sup - inf))
    return -sup - margin


@dataclass(frozen=True)
class ComposeResult:
    """Composite expression plus the certificates backing it."""

    expr: Compose
    mode: str                      # "strong" or "convex"
    claim: str                     # certified property of the composite
    certificate: Certificate       # check of the claim on the composite
    hypothesis_certs: dict         # the outer/inner hypothesis checks

    def to_json(self) -> dict:
        return {"mode": self.mode, "claim": self.claim,
                "function": self.expr.to_json(),
                "certificate": self.certificate.to_json(),
                "hypotheses": {k: c.to_json()
                               for k, c in sorted(self.hypothesis_certs.items())}}


def compose_checked(outer: FunctionExpr, inner: FunctionExpr, mode: str,
                    config: CertifyConfig = CertifyConfig()) -> ComposeResult:
    """outer(inner) with the composition hypotheses verified.

    Both modes require: outer operator monotone (randomized check plus
    divided-difference matrices), inner strongly operator convex, and
    inner's range inside outer's domain on the scan grid.  They differ at
    zero.  Mode "strong" needs a value there -- 0 in outer's domain, or an
    excluded endpoint with a finite limit -- and outer(0) >= 0; it claims
    the composite strongly operator convex.  Mode "convex" only needs 0 to
    lie in the domain or be its left endpoint (outer may even diverge
    there) and claims plain operator convexity.  Violations raise
    HypothesisViolated naming the failed clause.  Both outer(0) >= 0 and the
    range (as Compose tests it) are exact, so scaling outer moves no clause.
    """
    if mode not in ("strong", "convex"):
        raise ValueError(f"mode must be 'strong' or 'convex', got {mode!r}")

    hyp = {}
    hyp["outer_monotone"] = check_monotone(outer, config)
    if hyp["outer_monotone"].verdict != "pass":
        raise HypothesisViolated("outer-not-monotone",
                                 f"verdict {hyp['outer_monotone'].verdict}")
    hyp["outer_loewner"] = check_loewner(outer, config)
    if hyp["outer_loewner"].verdict != "pass":
        raise HypothesisViolated("outer-not-monotone",
                                 "divided-difference matrix not PSD")

    odom = outer.domain
    if mode == "strong":
        try:
            at_zero = closure_value(outer, 0.0)
        except OutsideClosure as err:
            raise HypothesisViolated("outer-domain", str(err)) from err
        except NoFiniteLimit as err:
            raise HypothesisViolated("outer-value-at-zero", str(err)) from err
        if at_zero < 0.0:
            raise HypothesisViolated("outer-value-at-zero",
                                     f"outer(0) = {at_zero} < 0")
    elif not (odom.contains(0.0) or odom.lo == 0.0):
        raise HypothesisViolated("outer-domain",
                                 f"0 neither in {odom} nor its left endpoint")

    vals = np.asarray(inner.eval_real(scan_grid(inner.domain)), dtype=float)
    ok = odom.mask(vals)
    if not np.all(ok):
        raise HypothesisViolated("range", f"inner value {vals[~ok][0]} escapes {odom}")

    hyp["inner_strong"] = check_strong(inner, config)
    if hyp["inner_strong"].verdict != "pass":
        raise HypothesisViolated("inner-not-strongly-convex",
                                 f"verdict {hyp['inner_strong'].verdict}")
    claim = "strongly_operator_convex" if mode == "strong" else "operator_convex"

    expr = Compose(outer, inner)
    cert = check_strong(expr, config) if mode == "strong" else check_convex(expr, config)
    return ComposeResult(expr=expr, mode=mode, claim=claim,
                         certificate=cert, hypothesis_certs=hyp)
