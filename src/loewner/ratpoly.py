"""Exact rational-function arithmetic over Fraction coefficients.

The pipeline stages built from rational seeds stay rational, and their degree
(max of numerator/denominator degree after cancellation) drops by one per
full three-step cycle.  Tracking that exactly — and deciding "is this stage
identically zero" symbolically instead of by grid — needs exact arithmetic,
which ``fractions.Fraction`` provides.  Polynomials are tuples of Fractions,
ascending order, no trailing zeros (the zero polynomial is ``(0,)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import funexpr as fe
from .errors import NotRational

__all__ = ["RationalFunction", "as_rational"]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _trim(p) -> tuple:
    out = [(_frac(c)) for c in p]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _is_zero(p) -> bool:
    return all(c == 0 for c in p)


def _padd(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if _is_zero(p) or _is_zero(q):
        return (Fraction(0),)
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _peval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pdivmod(p, q):
    if _is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        coef = rem[i] / lead
        quot[i - dq] = coef
        for j in range(len(q)):
            rem[i - dq + j] -= coef * q[j]
    return _trim(quot), _trim(rem)


def _pgcd(p, q):
    a, b = _trim(p), _trim(q)
    while not _is_zero(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    if _is_zero(a):
        return (Fraction(1),)
    return tuple(c / a[-1] for c in a)  # monic


@dataclass(frozen=True)
class RationalFunction:
    """num/den in lowest terms, denominator monic."""

    num: tuple
    den: tuple = (Fraction(1),)

    def __post_init__(self):
        num, den = _trim(self.num), _trim(self.den)
        if _is_zero(den):
            raise ZeroDivisionError("zero denominator")
        if _is_zero(num):
            num, den = (Fraction(0),), (Fraction(1),)
        else:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
            lead = den[-1]
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # --- queries ---

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.num)

    @property
    def is_constant(self) -> bool:
        return len(self.num) == 1 and len(self.den) == 1

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        dv = _peval(self.den, x)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return _peval(self.num, x) / dv

    # --- pipeline transforms (all exact) ---

    def diffquot(self, x0) -> "RationalFunction":
        """(f(x) - f(x0)) / (x - x0) with the removable factor cancelled."""
        x0 = _frac(x0)
        d0 = _peval(self.den, x0)
        if d0 == 0:
            raise NotRational(f"pole at difference-quotient center {x0}")
        n0 = _peval(self.num, x0)
        # f(x) - f(x0) = (num * d0 - n0 * den) / (den * d0); root at x0 is exact
        top = _padd(_pmul(self.num, (d0,)), _pneg(_pmul(self.den, (n0,))))
        quot, rem = _pdivmod(top, (-x0, Fraction(1)))
        assert _is_zero(rem), "difference-quotient numerator must vanish at x0"
        return RationalFunction(quot, _pmul(self.den, (d0,)))

    def negrecip(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("-1/f of the zero function")
        return RationalFunction(_pneg(self.den), self.num)

    def mullinear(self, x0, c=0) -> "RationalFunction":
        """f(x) * (x - x0) + c."""
        x0, c = _frac(x0), _frac(c)
        shifted = _pmul(self.num, (-x0, Fraction(1)))
        return RationalFunction(_padd(shifted, _pmul(self.den, (c,))), self.den)


def as_rational(fn) -> RationalFunction:
    """Exact rational form of an expression tree, or NotRational.

    Powers must have integer exponents; catalog functions and compositions
    are rejected.  Float parameters convert exactly (binary value) so the
    result is a faithful rational model of what eval_real computes.
    """
    if isinstance(fn, fe.Constant):
        return RationalFunction((_frac(fn.c),))
    if isinstance(fn, fe.Affine):
        return RationalFunction((_frac(fn.b), _frac(fn.a)))
    if isinstance(fn, fe.Power):
        if not float(fn.alpha).is_integer():
            raise NotRational(f"non-integer exponent {fn.alpha}")
        k = int(fn.alpha)
        mono = (Fraction(0), Fraction(1))
        acc = RationalFunction((Fraction(1),))
        for _ in range(abs(k)):
            acc = RationalFunction(_pmul(acc.num, mono), acc.den)
        if k < 0:
            acc = RationalFunction(acc.den, acc.num)
        return acc
    if isinstance(fn, fe.Reciprocal):
        return RationalFunction((Fraction(1),), (Fraction(0), Fraction(1)))
    if isinstance(fn, fe.Quotient):
        return RationalFunction(tuple(map(_frac, fn.num)), tuple(map(_frac, fn.den)))
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
    lift = (Fraction(1),)
    for _ in range(k):
        lift = _pmul(lift, (-x0, Fraction(1)))  # (x - x0)^k
    out = RationalFunction(tuple(map(_frac, coeffs)))
    for r, w in rep.signed_atoms:
        r = _frac(r)
        scale = (r - x0) ** k
        out = _radd(out, RationalFunction(_pmul((_frac(w),), lift), (r * scale, -scale)))
    return out


def _radd(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    num = _padd(_pmul(f.num, g.den), _pmul(g.num, f.den))
    return RationalFunction(num, _pmul(f.den, g.den))

