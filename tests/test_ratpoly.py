import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    OCRep,
    Power,
    Quotient,
    RationalFunction,
    Reciprocal,
    SOCRep,
    as_rational,
    identity,
)
from loewner.errors import NotRational

coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=4)


def test_lowest_terms_and_monic_denominator():
    # (2x + 2)/(2x + 4) reduces to (x + 1)/(x + 2)
    f = RationalFunction((2, 2), (4, 2))
    assert f.num == (Fraction(1), Fraction(1))
    assert f.den == (Fraction(2), Fraction(1))
    assert f(Fraction(0)) == Fraction(1, 2)


def test_zero_normal_form():
    z = RationalFunction((0, 0, 0), (3, 1))
    assert z.is_zero
    assert z.num == (Fraction(0),) and z.den == (Fraction(1),)


def test_degree_counts_max_of_num_and_den():
    assert RationalFunction((1, 2), (1, 1)).degree == 1
    assert RationalFunction((1,), (1, 0, 2)).degree == 2
    assert RationalFunction((7,)).degree == 0


def test_call_is_exact():
    f = RationalFunction((1, 2), (1, 1))  # (1 + 2x)/(1 + x)
    assert f(Fraction(1, 3)) == Fraction(5, 4)


def test_diffquot_divides_exactly():
    # f = x^2, center 3: (x^2 - 9)/(x - 3) = x + 3
    f = RationalFunction((0, 0, 1))
    g = f.diffquot(Fraction(3))
    assert g.num == (Fraction(3), Fraction(1))
    assert g.den == (Fraction(1),)


def test_diffquot_pole_at_center_rejected():
    f = RationalFunction((1,), (0, 1))  # 1/x
    with pytest.raises(NotRational):
        f.diffquot(Fraction(0))


def test_negrecip_and_mullinear():
    f = RationalFunction((1, 1))  # 1 + x
    g = f.negrecip()
    assert g(Fraction(1)) == Fraction(-1, 2)
    h = f.mullinear(Fraction(2), Fraction(-3))  # (1+x)(x-2) - 3
    assert h(Fraction(0)) == Fraction(-5)
    assert h.degree == 2


@settings(derandomize=True, max_examples=40)
@given(num=coeffs, den=coeffs, x=st.integers(-20, 20))
def test_diffquot_identity_on_random_rationals(num, den, x):
    if all(c == 0 for c in den):
        den = [1]
    f = RationalFunction(tuple(num), tuple(den))
    x0 = Fraction(1, 7)  # unlikely pole; skip when it is one
    x = Fraction(x, 3)
    try:
        g = f.diffquot(x0)
    except NotRational:
        return
    if x == x0:
        return
    try:
        lhs = (f(x) - f(x0)) / (x - x0)
    except ZeroDivisionError:
        return  # x sits on a pole of f
    assert g(x) == lhs  # exact rational equality


def _horner(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_transforms_are_exact_beyond_float_and_int64_range():
    # numerators near 1e30 over up to 3^40: a float or int64 cast anywhere
    # would change a value or leave a non-Fraction coefficient behind
    rnd = random.Random(20)

    def big():
        top = rnd.randint(-10**30, 10**30)
        return top if rnd.random() < 0.3 else Fraction(top, 3 ** rnd.randint(1, 40))

    for _ in range(60):
        num = [big() for _ in range(rnd.randint(1, 4))]
        den = [big() for _ in range(rnd.randint(1, 4))]
        x0, c = Fraction(big()), Fraction(big())
        f = RationalFunction(tuple(num), tuple(den))

        def ref(x, num=num, den=den):
            return _horner(num, x) / _horner(den, x)

        derived = [
            (f, ref),
            (f.diffquot(x0), lambda x: (ref(x) - ref(x0)) / (x - x0)),
            (f.mullinear(x0, c), lambda x: ref(x) * (x - x0) + c),
            (f.negrecip(), lambda x: -1 / ref(x)),
        ]
        points = [Fraction(rnd.randint(-10**12, 10**12), 7 ** rnd.randint(0, 15))
                  for _ in range(3)]
        for g, expected in derived:
            assert all(type(v) is Fraction for v in g.num + g.den)
            for x in points:
                assert g(x) == expected(x)


def test_as_rational_covers_arithmetic_nodes():
    dom = Interval(0.5, 4.0)
    cases = [
        (Constant(2.5, dom), Fraction(2.0), Fraction(5, 2)),
        (Affine(2.0, -1.0, dom), Fraction(3), Fraction(5)),
        (Power(3.0, dom), Fraction(2), Fraction(8)),
        (Reciprocal(dom), Fraction(2), Fraction(1, 2)),
        (Quotient((1.0, 2.0), (1.0, 1.0), dom), Fraction(1), Fraction(3, 2)),
        (DiffQuot(Power(2.0, Interval(0.0, 9.0)), 1.0), Fraction(4), Fraction(5)),
        (MulLinear(identity(dom), 1.0, -3.0), Fraction(2), Fraction(-1)),
    ]
    for fn, x, expected in cases:
        r = as_rational(fn)
        assert r(x) == expected, fn.kind


def test_as_rational_negrecip():
    r = as_rational(NegRecip(identity(Interval(0.0, 3.0))))
    assert r(Fraction(2)) == Fraction(-1, 2)


def test_as_rational_rejects_transcendental_nodes():
    with pytest.raises(NotRational):
        as_rational(Power(0.5))
    with pytest.raises(NotRational):
        as_rational(Catalog("log"))
    with pytest.raises(NotRational):
        as_rational(Compose(Power(2.0), Power(2.0, Interval(-1.0, 1.0))))


def test_rational_degree_of_expressions():
    assert as_rational(Quotient((1.0, 2.0), (1.0, 1.0), Interval(-1.0, 9.0))).degree == 1
    assert as_rational(Constant(4.0)).degree == 0
    with pytest.raises(NotRational):
        as_rational(Power(0.5))


def _random_rep(rng, kind):
    """A random convex or strong form on (-1, 1), 0-2 atoms a side."""
    def atoms(lo, hi):
        return DiscreteMeasure(tuple((float(rng.uniform(lo, hi)), float(rng.uniform(0.1, 2.0)))
                                     for _ in range(rng.integers(0, 3))))

    plus, minus = atoms(1.0, 4.0), atoms(-4.0, -1.0)
    a = float(rng.uniform(0.0, 1.0))
    if kind == "soc":
        return SOCRep(a=a, mu_plus=plus, mu_minus=minus, interval=Interval(-1.0, 1.0))
    b, c, x0 = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
    return OCRep(a=a, b=b, c=c, x0=0.5 * x0, mu_plus=plus, mu_minus=minus,
                 interval=Interval(-1.0, 1.0))


@pytest.mark.parametrize("kind", ["oc", "soc"])
def test_form_rational_agrees_with_the_form(kind):
    rng = np.random.default_rng(7)
    for _ in range(40):
        rep = _random_rep(rng, kind)
        rat = as_rational(MeasureForm(rep))
        for x in (Fraction(-3, 4), Fraction(1, 3), Fraction(5, 7)):
            assert abs(float(rat(x)) - rep(float(x))) <= 1e-12 * (1.0 + abs(rep(float(x))))
