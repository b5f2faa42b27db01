import numpy as np
import pytest

from catalog import ID_POS

from loewner import (
    Affine,
    Catalog,
    Compose,
    Constant,
    DiffQuot,
    DiscreteMeasure,
    Interval,
    MeasureForm,
    MulLinear,
    NegRecip,
    Power,
    Quotient,
    REAL_LINE,
    Reciprocal,
    SOCRep,
    from_json,
    identity,
    to_json,
)
from loewner.errors import (
    DomainError,
    EmptyDomain,
    NoFiniteLimit,
    NonFiniteValue,
    OutsideClosure,
    UnsupportedNode,
)

DERIV_TOL = 1e-8


# --- leaves -----------------------------------------------------------------------

def test_affine_and_constant_eval():
    f = Affine(2.0, -1.0, Interval(0.0, 5.0))
    xs = np.array([1.0, 2.0, 4.0])
    assert np.allclose(f.eval_real(xs), 2 * xs - 1, rtol=0, atol=0)
    assert Constant(3.5).eval_real(0.0) == 3.5
    assert identity(REAL_LINE).eval_real(-7.0) == -7.0


def test_power_natural_domains():
    assert Power(2.0).domain == REAL_LINE
    assert Power(0.5).domain == Interval(0.0, np.inf, lo_closed=True)
    assert Power(-1.0).domain == Interval(0.0, np.inf)


def test_power_negative_exponent_on_negative_axis():
    f = Power(-2.0, Interval(-5.0, -1.0))
    assert np.isclose(f.eval_real(-2.0), 0.25)
    with pytest.raises(DomainError):
        Power(0.5, Interval(-5.0, -1.0))  # fractional power of negatives


def test_power_requires_domain_inside_natural_one():
    with pytest.raises(DomainError):
        Power(-1.0, Interval(-1.0, 1.0))  # pole at 0 inside


def test_power_rejects_a_negative_integer_power_at_zero():
    # the pole may not sit at a closed end either: no kernel would catch it
    with pytest.raises(DomainError):
        Power(-1.0, Interval(-1.0, 0.0, hi_closed=True))
    assert Power(-1.0, Interval(-1.0, 0.0)).eval_real(-0.5) == -2.0


def test_domain_violation_raises():
    f = Power(0.5)
    with pytest.raises(DomainError):
        f.eval_real(-1.0)
    with pytest.raises(DomainError):
        f.eval_real(np.array([1.0, -2.0]))


def test_open_endpoint_is_not_evaluable():
    f = Reciprocal(Interval(0.1, 10.0))
    with pytest.raises(DomainError):
        f.eval_real(0.1)
    assert np.isclose(f.eval_real(0.2), 5.0)


def test_eval_complex_requires_upper_half_plane():
    f = Power(0.5)
    v = f.eval_complex(complex(4.0, 1e-8))
    assert np.isclose(v.real, 2.0, atol=1e-6)
    with pytest.raises(DomainError):
        f.eval_complex(complex(4.0, 0.0))
    with pytest.raises(DomainError):
        f.eval_complex(complex(4.0, -1.0))


def test_eval_complex_principal_branch():
    # sqrt maps the upper half-plane to the first quadrant
    z = complex(-4.0, 1e-9)
    v = Power(0.5).eval_complex(z)
    assert v.imag > 0 and abs(v - 2j) < 1e-4


@pytest.mark.parametrize("fn,x,expected", [
    (Power(2.0), 3.0, 6.0),
    (Power(0.5), 4.0, 0.25),
    (Reciprocal(Interval(0.1, 10.0)), 2.0, -0.25),
    (Affine(3.0, 1.0, REAL_LINE), 0.7, 3.0),
])
def test_derivatives_match_calculus(fn, x, expected):
    assert abs(fn.eval_deriv(x) - expected) < DERIV_TOL


def test_catalog_log():
    f = Catalog("log")
    assert np.isclose(f.eval_real(np.e), 1.0)
    assert abs(f.eval_deriv(2.0) - 0.5) < DERIV_TOL


def test_catalog_mirrored_power_difference():
    f = Catalog("power_diff_mirror", (("alpha", 0.5),))
    xs = np.linspace(0.05, 1.95, 50)
    assert np.allclose(f.eval_real(xs), np.sqrt(xs) - np.sqrt(2 - xs))
    assert f.eval_real(1.0) == 0.0
    # symmetric around x = 1
    assert np.allclose(f.eval_real(2 - xs), -f.eval_real(xs))


def test_catalog_unknown_name_rejected():
    with pytest.raises(UnsupportedNode):
        Catalog("nope")
    with pytest.raises(ValueError):
        Catalog("power_diff_mirror", (("alpha", 1.5),))


def test_quotient_eval_and_pole_rejection():
    # (2x + 1)/(x + 1) on (-1, inf)
    f = Quotient((1.0, 2.0), (1.0, 1.0), Interval(-1.0, np.inf))
    assert np.isclose(f.eval_real(1.0), 1.5)
    with pytest.raises(DomainError):
        Quotient((1.0,), (1.0, 1.0), Interval(-2.0, 0.0))  # pole at -1 inside
    # inf - inf * x is NaN at every grid point: no sign, so no quotient
    with np.errstate(invalid="ignore"), pytest.raises(DomainError):
        Quotient((1.0,), (np.inf, -np.inf), Interval(0.5, 1.0))


def test_quotient_zero_or_empty_denominator_is_empty_domain():
    for den in ((0.0, 0.0), ()):
        with pytest.raises(EmptyDomain):
            Quotient((1.0,), den)
    assert Quotient((), (1.0,)).eval_real(2.0) == 0.0  # () is the zero polynomial


# --- transform nodes --------------------------------------------------------------

def test_diffquot_values_and_center_fill():
    f = DiffQuot(Power(0.5), 1.0)
    assert np.isclose(f.eval_real(4.0), (2.0 - 1.0) / 3.0)
    # at the center the quotient continues with the derivative
    assert np.isclose(f.eval_real(1.0), 0.5)
    xs = np.array([0.25, 1.0, 9.0])
    assert np.allclose(f.eval_real(xs), [2.0 / 3.0, 0.5, 0.25])


def test_diffquot_center_at_endpoint_uses_limit():
    # (sqrt(x) - 0)/x at center 0: value from the one-sided limit, domain loses 0
    f = DiffQuot(Power(0.5), 0.0)
    assert abs(f.center_value) < 1e-6
    assert not f.domain.lo_closed
    with pytest.raises(DomainError):
        f.eval_real(0.0)


def test_diffquot_center_outside_closure_rejected():
    with pytest.raises(OutsideClosure):
        DiffQuot(Reciprocal(Interval(0.1, 10.0)), 20.0)


def test_diffquot_center_with_divergent_limit_rejected():
    with pytest.raises(NoFiniteLimit):
        DiffQuot(Reciprocal(Interval(0.0, 1.0)), 0.0)


def test_diffquot_derivative_near_and_at_center():
    f = DiffQuot(Power(2.0), 1.0)  # (x^2-1)/(x-1) = x + 1 away from 1
    assert abs(f.eval_deriv(3.0) - 1.0) < 1e-9
    assert abs(f.eval_deriv(1.0 + 1e-12) - 1.0) < 1e-5


def test_diffquot_derivative_next_to_an_endpoint_center():
    # sqrt(x)/x = x^-0.5; a central difference with its usual step would
    # sample x < 0, so the quotient rule applies right up to the endpoint
    f = DiffQuot(Power(0.5), 0.0)
    for x in (1e-9, 5e-9, 1e-8):
        assert f.eval_deriv(x) == pytest.approx(-0.5 * x**-1.5, rel=1e-9)


def test_negrecip_eval():
    f = NegRecip(ID_POS)
    assert np.isclose(f.eval_real(2.0), -0.5)
    assert abs(f.eval_deriv(2.0) - 0.25) < DERIV_TOL


def test_mullinear_eval():
    f = MulLinear(Power(0.5), 1.0, -3.0)
    assert np.isclose(f.eval_real(4.0), 2.0 * 3.0 - 3.0)


def test_mullinear_anchor_must_touch_closure():
    with pytest.raises(OutsideClosure):
        MulLinear(Reciprocal(Interval(0.1, 10.0)), 99.0)


def test_mullinear_complex_and_derivative_channels():
    f = MulLinear(Power(0.5), 1.0, -3.0)  # sqrt(x)(x - 1) - 3
    z = complex(4.0, 1.0)
    assert abs(f.eval_complex(z) - (np.sqrt(z) * (z - 1.0) - 3.0)) < 1e-12
    assert abs(f.eval_deriv(4.0) - (0.25 * 3.0 + 2.0)) < DERIV_TOL


def test_compose_complex_and_derivative_channels():
    f = Compose(Power(2.0), Affine(2.0, 1.0))  # (2x + 1)^2
    z = complex(0.5, 0.25)
    assert abs(f.eval_complex(z) - (2.0 * z + 1.0) ** 2) < 1e-12
    assert abs(f.eval_deriv(0.5) - 8.0) < DERIV_TOL


def test_non_finite_derivative_raises():
    # sqrt'(0) = inf times (x^2)'(0) = 0 is NaN at x = 0
    f = Compose(Power(0.5), Power(2.0, Interval(-1.0, 1.0)))
    for x in (0.0, np.array([0.5, 0.0])):
        with pytest.raises(NonFiniteValue):
            with np.errstate(all="ignore"):
                f.eval_deriv(x)
    assert abs(f.eval_deriv(0.5) - 1.0) < DERIV_TOL


ON_HALF_TO_TWO = Interval(0.5, 2.0)
OUTER_LEAVES = [
    Constant(1.0, ON_HALF_TO_TWO),
    Affine(2.0, 1.0, ON_HALF_TO_TWO),
    Power(0.5, ON_HALF_TO_TWO),
    Reciprocal(ON_HALF_TO_TWO),
    Catalog("log", (), ON_HALF_TO_TWO),
    Quotient((1.0,), (3.0, -1.0), ON_HALF_TO_TWO),
    MeasureForm(SOCRep(a=1.0, mu_plus=DiscreteMeasure(((4.0, 1.0),)),
                       mu_minus=DiscreteMeasure(()), interval=ON_HALF_TO_TWO)),
]


@pytest.mark.parametrize("outer", OUTER_LEAVES, ids=lambda f: f.kind)
def test_compose_raises_where_an_inner_value_leaves_the_outer_domain(outer):
    f = Compose(outer, identity(Interval(0.0, 5.0)))
    assert f.eval_real(1.0) == outer.eval_real(1.0)
    assert f.eval_deriv(1.0) == outer.eval_deriv(1.0)
    for channel in (f.eval_real, f.eval_deriv):
        with pytest.raises(DomainError):
            channel(3.0)
        with pytest.raises(DomainError):
            channel(np.array([1.0, 0.25]))


def test_compose_is_formulaic():
    f = Compose(Power(2.0), Power(2.0, Interval(-1.0, 1.0)))
    xs = np.linspace(-0.9, 0.9, 21)
    assert np.allclose(f.eval_real(xs), xs**4)
    assert f.domain == Interval(-1.0, 1.0)


# --- serialization ----------------------------------------------------------------

@pytest.mark.parametrize("fn", [
    Constant(2.0, Interval(0.0, 1.0)),
    Affine(1.5, -2.0, Interval(-3.0, 3.0, lo_closed=True)),
    Power(0.5),
    Power(-1.0, Interval(1.0, 2.0)),
    Reciprocal(Interval(0.1, 10.0)),
    Catalog("power_diff_mirror", (("alpha", 0.25),)),
    Quotient((1.0, 2.0), (1.0, 1.0), Interval(-1.0, np.inf)),
    DiffQuot(Power(0.5), 1.0),
    NegRecip(DiffQuot(Power(0.5), 1.0)),
    MulLinear(Power(0.5), 1.0, -3.0),
    Compose(Power(2.0), Power(2.0, Interval(-1.0, 1.0))),
])
def test_json_round_trip_preserves_values(fn):
    back = from_json(to_json(fn))
    assert back.kind == fn.kind
    assert back.domain == fn.domain
    xs = np.linspace(*_probe_window(fn.domain), 17)
    assert np.allclose(back.eval_real(xs), fn.eval_real(xs), rtol=0, atol=1e-15)


def test_from_json_rejects_unknown_kind():
    with pytest.raises(UnsupportedNode):
        from_json({"kind": "wavelet"})
    with pytest.raises(ValueError):
        from_json(["not", "an", "object"])


def _probe_window(domain):
    win = domain.clip(8.0)
    width = win.hi - win.lo
    return win.lo + 0.05 * width, win.hi - 0.05 * width
