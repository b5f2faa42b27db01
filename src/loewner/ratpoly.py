"""Exact rational-function arithmetic over Fraction coefficients.

The pipeline stages built from rational seeds stay rational, and their degree
(max of numerator/denominator degree after cancellation) drops by one per
full three-step cycle.  Tracking that exactly — and deciding "is this stage
identically zero" symbolically instead of by grid — needs exact arithmetic,
which ``fractions.Fraction`` provides.  Polynomials are stored as tuples of
Fractions, ascending order, no trailing zeros (the zero polynomial is
``(0,)``).  The arithmetic is ``numpy.polynomial.polynomial`` on object arrays
of Fractions, which stays exact; only the gcd, which numpy lacks, is Euclid's
loop here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import funexpr as fe
from .errors import NotRational

__all__ = ["RationalFunction", "as_rational"]


def _P():  # numpy.polynomial.polynomial, looked up on use: loading it costs every import
    return np.polynomial.polynomial


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _fracs(p) -> np.ndarray:
    """p as a trimmed object array of Fractions."""
    return _P().polytrim(np.array([_frac(c) for c in p], dtype=object))


def _pgcd(p, q) -> np.ndarray:
    """Monic gcd of two nonzero trimmed Fraction arrays, by Euclid."""
    while q[-1] != 0:
        p, q = q, _P().polydiv(p, q)[1]
    return p / p[-1]


@dataclass(frozen=True)
class RationalFunction:
    """num/den in lowest terms, denominator monic."""

    num: tuple
    den: tuple = (Fraction(1),)

    def __post_init__(self):
        num, den = _fracs(self.num), _fracs(self.den)
        if den[-1] == 0:
            raise ZeroDivisionError("zero denominator")
        if num[-1] == 0:
            den = (Fraction(1),)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, den = _P().polydiv(num, g)[0], _P().polydiv(den, g)[0]
            num, den = num / den[-1], den / den[-1]
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    # --- queries ---

    @property
    def is_zero(self) -> bool:
        return self.num == (0,)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        dv = _P().polyval(x, self.den)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return _P().polyval(x, self.num) / dv

    # --- pipeline transforms (all exact) ---

    def diffquot(self, x0) -> "RationalFunction":
        """(f(x) - f(x0)) / (x - x0) with the removable factor cancelled."""
        x0 = _frac(x0)
        d0 = _P().polyval(x0, self.den)
        if d0 == 0:
            raise NotRational(f"pole at difference-quotient center {x0}")
        n0 = _P().polyval(x0, self.num)
        # f(x) - f(x0) = (num * d0 - n0 * den) / (den * d0); root at x0 is exact
        top = _P().polysub(_P().polymul(self.num, (d0,)), _P().polymul(self.den, (n0,)))
        quot, rem = _P().polydiv(top, (-x0, Fraction(1)))
        assert rem[-1] == 0, "difference-quotient numerator must vanish at x0"
        return RationalFunction(quot, _P().polymul(self.den, (d0,)))

    def negrecip(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("-1/f of the zero function")
        return RationalFunction(_P().polysub((Fraction(0),), self.den), self.num)

    def mullinear(self, x0, c=0) -> "RationalFunction":
        """f(x) * (x - x0) + c."""
        x0, c = _frac(x0), _frac(c)
        shifted = _P().polymul(self.num, (-x0, Fraction(1)))
        return RationalFunction(_P().polyadd(shifted, _P().polymul(self.den, (c,))), self.den)


def as_rational(fn) -> RationalFunction:
    """Exact rational form of an expression tree, or NotRational.

    Powers must have integer exponents; catalog functions and compositions
    are rejected.  Float parameters convert exactly (binary value) so the
    result is a faithful rational model of what eval_real computes.
    """
    if isinstance(fn, fe.Constant):
        return RationalFunction((fn.c,))
    if isinstance(fn, fe.Affine):
        return RationalFunction((fn.b, fn.a))
    if isinstance(fn, fe.Power):
        if not float(fn.alpha).is_integer():
            raise NotRational(f"non-integer exponent {fn.alpha}")
        k = int(fn.alpha)
        mono = (0,) * abs(k) + (1,)  # x^|k|
        return RationalFunction(mono) if k >= 0 else RationalFunction((1,), mono)
    if isinstance(fn, fe.Reciprocal):
        return RationalFunction((1,), (0, 1))
    if isinstance(fn, fe.Quotient):
        return RationalFunction(fn.num, fn.den)
    if isinstance(fn, fe.DiffQuot):
        return as_rational(fn.child).diffquot(fn.x0)
    if isinstance(fn, fe.NegRecip):
        return as_rational(fn.child).negrecip()
    if isinstance(fn, fe.MulLinear):
        return as_rational(fn.child).mullinear(fn.x0, fn.c)
    if isinstance(fn, fe.MeasureForm):
        return _form_rational(fn.rep)
    raise NotRational(f"{type(fn).__name__} node is not rational")


def _form_rational(rep) -> RationalFunction:
    """Polynomial part plus w (x - x0)^k / ((r - x)(r - x0)^k) per signed atom,
    with k = 1, 2, 0 for the monotone, convex and strong forms."""
    if rep.kind == "om":
        coeffs, k = (rep.b, rep.a), 1
    elif rep.kind == "oc":
        coeffs, k = (rep.c, rep.b, rep.a), 2
    else:
        coeffs, k = (rep.a,), 0
    x0 = _frac(getattr(rep, "x0", 0.0))
    lift = _P().polypow((-x0, Fraction(1)), k)  # (x - x0)^k
    out = RationalFunction(coeffs)
    for r, w in rep.signed_atoms:
        r = _frac(r)
        scale = (r - x0) ** k
        out = _radd(out, RationalFunction(_frac(w) * lift, (r * scale, -scale)))
    return out


def _radd(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    num = _P().polyadd(_P().polymul(f.num, g.den), _P().polymul(g.num, f.den))
    return RationalFunction(num, _P().polymul(f.den, g.den))
