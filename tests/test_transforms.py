import numpy as np
import pytest

from catalog import ID_POS, RECIP, SQRT, SQUARE

from loewner import (
    Affine,
    CertifyConfig,
    Constant,
    DiscreteMeasure,
    Interval,
    MeasureOM,
    OMRep,
    Power,
    Quotient,
    choose_shift,
    compose_checked,
    diff_quotient,
    mul_linear,
    neg_reciprocal,
)
from loewner.errors import (
    HypothesisViolated,
    NotNegative,
    NotPositive,
    Unbounded,
    ZeroFunction,
)

QUICK = CertifyConfig(trials=60, dims=(2, 3, 4), seed=0)


def test_diff_quotient_builds_the_node():
    f = diff_quotient(SQRT, 1.0)
    assert f.kind == "diffquot"
    assert np.isclose(f.eval_real(4.0), 1.0 / 3.0)


def test_neg_reciprocal_requires_a_sign():
    g = neg_reciprocal(ID_POS)
    assert np.isclose(g.eval_real(2.0), -0.5)
    dom = Interval(0.0, 3.0)
    with pytest.raises(NotPositive):
        neg_reciprocal(Affine(1.0, -1.0, dom))  # crosses zero
    with pytest.raises(NotNegative):
        neg_reciprocal(Affine(1.0, -1.0, dom), positive=False)
    with pytest.raises(ZeroFunction):
        neg_reciprocal(Constant(0.0, dom))
    # only an exactly zero function is ZeroFunction, whatever the scale
    assert neg_reciprocal(Constant(1e-14, dom)).eval_real(1.0) == -1.0 / 1e-14


def test_neg_reciprocal_negative_mode():
    dom = Interval(0.0, 3.0)
    g = neg_reciprocal(Affine(1.0, -5.0, dom), positive=False)  # x - 5 < 0
    assert np.isclose(g.eval_real(1.0), 0.25)


def test_mul_linear_shifts():
    f = mul_linear(SQRT, 1.0, -3.0)
    assert np.isclose(f.eval_real(4.0), 2.0 * 3.0 - 3.0)


def test_choose_shift_forces_negativity():
    dom = Interval(0.0, 2.0, lo_closed=True, hi_closed=True)
    c = choose_shift(Power(0.5, dom), 1.0)
    assert c == pytest.approx(-2.414213562373095, abs=1e-12)
    shifted = mul_linear(Power(0.5, dom), 1.0, c)
    xs = np.linspace(0.0, 2.0, 101)
    assert np.max(shifted.eval_real(xs)) < 0.0


def test_choose_shift_needs_a_bounded_product():
    f = ID_POS  # x(x - 1) is bounded on (0,3); x(x-0) on (0,inf) is not
    c = choose_shift(f, 1.0)
    assert c < 0.0
    from loewner import identity
    with pytest.raises(Unbounded):
        choose_shift(identity(Interval(0.0, np.inf)), 0.0)


# --- checked composition -------------------------------------------------------------

def test_compose_strong_mode_accepts_the_textbook_pair():
    outer = Quotient((0.0, 1.0), (1.0, 1.0), Interval(0.0, np.inf, lo_closed=True))
    res = compose_checked(outer, RECIP, "strong", QUICK)
    assert res.mode == "strong"
    assert res.claim == "strongly_operator_convex"
    assert res.certificate.verdict == "pass"
    xs = np.linspace(0.2, 9.8, 50)
    assert np.allclose(res.expr.eval_real(xs), 1.0 / (1.0 + xs), atol=1e-12)
    assert res.hypothesis_certs["outer_monotone"].verdict == "pass"
    assert res.hypothesis_certs["inner_strong"].verdict == "pass"


def test_compose_convex_mode_allows_left_endpoint_zero():
    # log diverges at 0, yet qualifies: 0 is the left endpoint of its domain
    from loewner import Catalog
    res = compose_checked(Catalog("log"), RECIP, "convex", QUICK)
    assert res.claim == "operator_convex"
    assert res.certificate.verdict == "pass"
    xs = np.linspace(0.2, 9.8, 50)
    assert np.allclose(res.expr.eval_real(xs), -np.log(xs), atol=1e-12)


def test_compose_convex_mode_still_needs_a_strongly_convex_inner():
    outer = Quotient((0.0, 1.0), (1.0, 1.0), Interval(0.0, np.inf, lo_closed=True))
    inner = Power(2.0, Interval(-1.0, 1.0))  # convex, but not strongly so
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, inner, "convex", QUICK)
    assert exc.value.clause == "inner-not-strongly-convex"


def test_compose_rejects_non_monotone_outer():
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(SQUARE, RECIP, "strong", QUICK)
    assert exc.value.clause == "outer-not-monotone"


def test_compose_rejects_an_outer_that_only_the_divided_differences_catch():
    # x + 1e-3 x^3 on [0, 1] passes the monotone check at the default config
    outer = Quotient((0.0, 1.0, 0.0, 1e-3), (1.0,), Interval(0.0, 1.0, True, True))
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, RECIP, "convex")
    assert exc.value.clause == "outer-not-monotone"
    assert "divided-difference" in str(exc.value)


def test_compose_rejects_negative_value_at_zero():
    outer = Affine(1.0, -1.0)  # monotone, but -1 at 0
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, RECIP, "strong", QUICK)
    assert exc.value.clause == "outer-value-at-zero"


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_compose_clauses_do_not_move_when_outer_or_inner_is_scaled(c):
    # outer(0) = -1e-13 c, and an inner value -1e-13 c below outer's closed
    # endpoint 0: an absolute slack of 1e-12 passed both at c <= 1 only, and
    # Compose itself rejects the inner value when it evaluates
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(Affine(c, -1e-13 * c), RECIP, "strong", QUICK)
    assert exc.value.clause == "outer-value-at-zero"
    inner = Affine(c, -1e-13 * c, Interval(0.0, 1.0, lo_closed=True, hi_closed=True))
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(Power(0.5), inner, "convex", QUICK)
    assert exc.value.clause == "range"


def test_compose_divergence_at_zero_blocks_strong_but_not_convex():
    # 1 - 1/x: monotone on (0, inf) with a pole at 0
    rep = OMRep(a=0.0, b=0.0, x0=1.0,
                mu=DiscreteMeasure(((0.0, 1.0),)), interval=Interval(0.0, np.inf))
    outer = MeasureOM(rep)
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, RECIP, "strong", QUICK)
    assert exc.value.clause == "outer-value-at-zero"
    # mode (ii) has no value condition at the left endpoint; the composite
    # (1 - 1/x) o (1/x) = 1 - x is affine, hence operator convex
    res = compose_checked(outer, RECIP, "convex", QUICK)
    assert res.certificate.verdict == "pass"
    xs = np.linspace(0.2, 9.8, 30)
    assert np.allclose(res.expr.eval_real(xs), 1.0 - xs, atol=1e-12)


def test_compose_convex_mode_rejects_zero_right_of_domain():
    # domain (1, 2): zero is neither inside nor the left endpoint
    outer = Affine(1.0, 0.0, Interval(1.0, 2.0))
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, RECIP, "convex", QUICK)
    assert exc.value.clause == "outer-domain"


def test_compose_strong_mode_rejects_zero_outside_the_closure():
    outer = Affine(1.0, 0.0, Interval(1.0, 2.0))
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, RECIP, "strong", QUICK)
    assert exc.value.clause == "outer-domain"


def test_compose_rejects_range_mismatch():
    outer = Power(0.5)  # needs nonnegative inputs
    inner = Affine(1.0, -5.0, Interval(0.0, 3.0))  # range (-5, -2)
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, inner, "strong", QUICK)
    assert exc.value.clause == "range"


def test_compose_rejects_inner_of_the_wrong_class():
    outer = Quotient((0.0, 1.0), (1.0, 1.0), Interval(0.0, np.inf, lo_closed=True))
    inner = Power(2.0, Interval(0.5, 2.0))  # convex but not strongly so
    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(outer, inner, "strong", QUICK)
    assert exc.value.clause == "inner-not-strongly-convex"


def test_compose_result_serializes():
    outer = Quotient((0.0, 1.0), (1.0, 1.0), Interval(0.0, np.inf, lo_closed=True))
    res = compose_checked(outer, RECIP, "strong", QUICK)
    d = res.to_json()
    assert d["claim"] == "strongly_operator_convex"
    assert d["certificate"]["verdict"] == "pass"
    assert d["function"]["kind"] == "compose"
    assert set(d["hypotheses"]) == {"outer_monotone", "outer_loewner", "inner_strong"}


def test_neg_reciprocal_of_a_quotient_with_a_grid_point_next_to_the_anchor():
    # the anchor 0.3 * 1.5 lies within rounding of a scan-grid point, where
    # f(x) == f(x0) exactly; the quotient must take the derivative there
    rep = OMRep(a=0.0, b=0.0, x0=0.75, mu=DiscreteMeasure(((2.5, 1.0),)),
                interval=Interval(0.0, 1.5, True, True))
    f = MeasureOM(rep)
    x0 = 0.3 * 1.5
    q = diff_quotient(f, x0)
    g = neg_reciprocal(q)
    near = np.nextafter(x0, 1.0)
    assert q.eval_real(near) == q.eval_real(x0) == f.eval_deriv(x0)
    assert g.eval_real(near) < 0.0
