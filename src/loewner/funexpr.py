"""Immutable expression trees for the scalar functions under study.

A tree is built from leaf nodes (constants, affine maps, powers, reciprocal,
named catalog functions, polynomial quotients, discrete-measure forms) and
transform nodes (difference quotient, negated reciprocal, multiply-by-linear,
composition).  Every node knows its real interval of definition and supports
three evaluation channels:

* ``eval_real(x)``     -- values on the domain (vectorized over arrays),
* ``eval_complex(z)``  -- the holomorphic extension on the open upper
                          half-plane, agreeing with eval_real as Im z -> 0+,
* ``eval_deriv(x)``    -- first derivative at interior points, by symbolic
                          rules per node.

Nodes are frozen dataclasses: value-equal trees compare equal and hash, and
every tree round-trips through ``to_json``/``from_json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    EmptyDomain,
    NonFiniteValue,
    OutsideClosure,
    UnsupportedNode,
)
from .interval import REAL_LINE, Interval, json_flag, json_number, json_numbers, json_object
from .measures import REP_KINDS, form_sum, rep_from_json, rep_to_json
from .scanning import closure_value, scan_grid

__all__ = [
    "FunctionExpr", "Constant", "Affine", "Power", "Reciprocal", "Catalog",
    "Quotient", "DiffQuot", "NegRecip", "MulLinear", "Compose",
    "MeasureForm", "MeasureOM", "MeasureOC", "MeasureSOC",
    "identity", "to_json", "from_json", "CATALOG",
]

DERIV_STEP = 1e-5


def _central_diff(fn, xs):
    """4th-order five-point central difference, step 1e-5 * (1 + |x|)."""
    h = DERIV_STEP * (1.0 + np.abs(xs))
    return (-fn(xs + 2 * h) + 8 * fn(xs + h) - 8 * fn(xs - h) + fn(xs - 2 * h)) / (12 * h)


class FunctionExpr:
    """Base class: evaluation entry points with domain checking.

    Subclasses provide ``domain`` (field or property) plus the unchecked
    array kernels ``_val`` / ``_cval`` / ``_dval``: plain formulas, called only
    on points of the domain (``Compose`` checks what it hands its outer node).
    """

    kind = "abstract"

    def eval_real(self, x):
        xs = np.asarray(x, dtype=float)
        ok = self.domain.mask(xs)
        if not np.all(ok):
            raise DomainError(f"x={xs[~ok].ravel()[0]!r} outside domain {self.domain}")
        out = self._val(xs)
        return float(out) if np.ndim(x) == 0 else out

    def eval_complex(self, z):
        zs = np.asarray(z, dtype=complex)
        if np.any(zs.imag <= 0):
            bad = zs[zs.imag <= 0].ravel()[0]
            raise DomainError(f"z={bad} not in the open upper half-plane")
        out = self._cval(zs)
        return complex(out) if np.ndim(z) == 0 else out

    def eval_deriv(self, x):
        xs = np.asarray(x, dtype=float)
        dom = self.domain
        lo_ok = xs > dom.lo
        hi_ok = xs < dom.hi
        if not np.all(lo_ok & hi_ok):
            bad = xs[~(lo_ok & hi_ok)].ravel()[0]
            raise DomainError(f"x={bad!r} not interior to {dom}")
        out = self._dval(xs)
        bad = ~np.isfinite(out)
        if np.any(bad):
            x_bad = float(xs[bad].ravel()[0])
            raise NonFiniteValue(f"derivative is not finite at x={x_bad!r}")
        return float(out) if np.ndim(x) == 0 else out

    def to_json(self) -> dict:
        """{"kind": ...} plus every init field: child nodes and intervals as
        their own JSON, tuples as lists."""
        out = {"kind": self.kind}
        for f in fields(self):
            if not f.init:
                continue
            v = getattr(self, f.name)
            if isinstance(v, (FunctionExpr, Interval)):
                v = v.to_json()
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    def __call__(self, x):
        return self.eval_real(x)


# --- leaves --------------------------------------------------------------------

def _within_natural(node, natural: Interval, *also: Interval):
    """Default node.domain to ``natural``; a given one must lie within it or an ``also``."""
    if node.domain is None:
        object.__setattr__(node, "domain", natural)
    elif not any(iv.contains_interval(node.domain) for iv in (natural, *also)):
        raise DomainError(f"domain {node.domain} not within natural domain {natural}")


@dataclass(frozen=True)
class Constant(FunctionExpr):
    c: float
    domain: Interval = REAL_LINE
    kind = "constant"

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))

    def _val(self, xs):
        return np.full_like(xs, self.c)

    _cval = _val  # the same formula on complex points

    def _dval(self, xs):
        return np.zeros_like(xs)


@dataclass(frozen=True)
class Affine(FunctionExpr):
    a: float
    b: float
    domain: Interval = REAL_LINE
    kind = "affine"

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    def _val(self, xs):
        return self.a * xs + self.b

    _cval = _val  # the same formula on complex points

    def _dval(self, xs):
        return np.full_like(xs, self.a)


def identity(domain: Interval = REAL_LINE) -> Affine:
    return Affine(1.0, 0.0, domain)


@dataclass(frozen=True)
class Power(FunctionExpr):
    """x^alpha.  Natural domain: all reals for integer alpha >= 0, (0, inf)
    for negative alpha, [0, inf) for non-integer positive alpha.  A negative
    integer power may also live on an interval left of 0."""

    alpha: float
    domain: Interval = None
    kind = "power"

    def __post_init__(self):
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        natural = (REAL_LINE if alpha >= 0 and alpha.is_integer()
                   else Interval(0.0, math.inf, lo_closed=not alpha < 0))
        left = (Interval(-math.inf, 0.0),) if alpha < 0 and alpha.is_integer() else ()
        _within_natural(self, natural, *left)

    def _val(self, xs):
        return np.power(xs, self.alpha)

    def _cval(self, zs):
        if self.alpha.is_integer():
            return np.power(zs, int(self.alpha))
        return np.exp(self.alpha * np.log(zs))  # principal branch

    def _dval(self, xs):
        if self.alpha == 0:
            return np.zeros_like(xs)
        return self.alpha * np.power(xs, self.alpha - 1.0)


@dataclass(frozen=True)
class Reciprocal(FunctionExpr):
    """1/x on an interval not containing 0 (default (0, inf))."""

    domain: Interval = Interval(0.0, math.inf)
    kind = "reciprocal"

    def __post_init__(self):
        if self.domain.contains(0.0):
            raise DomainError(f"domain {self.domain} contains the pole at 0")

    def _val(self, xs):
        return 1.0 / xs

    _cval = _val  # the same formula on complex points

    def _dval(self, xs):
        return -1.0 / xs**2


class _CatalogEntry:
    def __init__(self, domain, val, cval, dval, validate=None):
        self.domain = domain
        self.val = val
        self.cval = cval
        self.dval = dval
        self.validate = validate


def _pdm_validate(p):
    if not 0.0 < p["alpha"] <= 1.0:
        raise ValueError(f"alpha={p['alpha']} outside (0, 1]")


CATALOG = {
    # x^alpha - (2-x)^alpha on [0, 2]; odd around x=1, increasing for alpha in (0,1]
    "power_diff_mirror": _CatalogEntry(
        domain=Interval(0.0, 2.0, lo_closed=True, hi_closed=True),
        val=lambda p, x: np.power(x, p["alpha"]) - np.power(2.0 - x, p["alpha"]),
        cval=lambda p, z: (np.exp(p["alpha"] * np.log(z))
                           - np.exp(p["alpha"] * np.log(2.0 - z))),
        dval=lambda p, x: p["alpha"] * (np.power(x, p["alpha"] - 1.0)
                                        + np.power(2.0 - x, p["alpha"] - 1.0)),
        validate=_pdm_validate,
    ),
    "log": _CatalogEntry(
        domain=Interval(0.0, math.inf),
        val=lambda p, x: np.log(x),
        cval=lambda p, z: np.log(z),
        dval=lambda p, x: 1.0 / x,
    ),
}


@dataclass(frozen=True)
class Catalog(FunctionExpr):
    """Named function from the built-in catalog, with numeric parameters."""

    name: str
    params: dict | tuple = ()   # a mapping or (name, value) pairs; kept as sorted pairs
    domain: Interval = None
    kind = "catalog"

    def __post_init__(self):
        if self.name not in CATALOG:
            raise UnsupportedNode(f"unknown catalog function {self.name!r}")
        params = self.params.items() if isinstance(self.params, dict) else self.params
        params = tuple(sorted((k, float(v)) for k, v in params))
        object.__setattr__(self, "params", params)
        entry = CATALOG[self.name]
        if entry.validate is not None:
            entry.validate(dict(params))
        _within_natural(self, entry.domain)

    @property
    def _p(self) -> dict:
        return dict(self.params)

    def _val(self, xs):
        return CATALOG[self.name].val(self._p, xs)

    def _cval(self, zs):
        return CATALOG[self.name].cval(self._p, zs)

    def _dval(self, xs):
        return CATALOG[self.name].dval(self._p, xs)

    def to_json(self):
        return {**super().to_json(), "params": dict(self.params)}


def _trim(coeffs) -> tuple:
    out = [float(c) for c in coeffs]
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out) or (0.0,)


@dataclass(frozen=True)
class Quotient(FunctionExpr):
    """Ratio of polynomials, coefficients ascending.  The denominator is
    scanned on a 1001-point grid at construction and must keep one strict sign:
    a zero, a sign change (a pole inside the domain), a NaN or the zero
    polynomial is rejected."""

    num: tuple
    den: tuple
    domain: Interval = REAL_LINE
    kind = "quotient"

    def __post_init__(self):
        num, den = _trim(self.num), _trim(self.den)
        if den == (0.0,):
            raise EmptyDomain("zero denominator polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if len(den) > 1:
            dv = np.polynomial.polynomial.polyval(scan_grid(self.domain), den)
            if not (np.all(dv > 0.0) or np.all(dv < 0.0)):
                raise DomainError(f"denominator vanishes inside {self.domain}")

    def _val(self, xs):
        pv = np.polynomial.polynomial.polyval
        dv = pv(xs, self.den)
        if np.any(dv == 0.0):
            raise DomainError("denominator vanishes at an evaluation point")
        return pv(xs, self.num) / dv

    def _cval(self, zs):
        pv = np.polynomial.polynomial.polyval
        return pv(zs, self.num) / pv(zs, self.den)

    def _dval(self, xs):
        pv, der = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
        n, d = self.num, self.den
        dv = pv(xs, d)
        return (pv(xs, der(n)) * dv - pv(xs, n) * pv(xs, der(d))) / dv**2


# --- measure-form leaf ------------------------------------------------------------

@dataclass(frozen=True)
class MeasureForm(FunctionExpr):
    """A discrete-measure form (OMRep, OCRep or SOCRep) as a leaf on the
    form's interval."""

    rep: object

    @property
    def kind(self) -> str:
        return "measure_" + self.rep.kind

    @property
    def domain(self) -> Interval:
        return self.rep.interval

    def _val(self, xs):
        return np.asarray(form_sum(self.rep, xs))

    _cval = _val  # the same formula on complex points

    def _dval(self, xs):
        return np.asarray(form_sum(self.rep, xs, deriv=True))

    def to_json(self):
        return {"kind": self.kind, **rep_to_json(self.rep)}


MeasureOM = MeasureOC = MeasureSOC = MeasureForm


# --- transforms -------------------------------------------------------------------

@dataclass(frozen=True)
class DiffQuot(FunctionExpr):
    """(f(x) - f(x0)) / (x - x0).

    The center may be any point of the closure of the child's domain at which
    the child has a finite value or limit.  If x0 is an endpoint the result's
    domain excludes it; an interior x0 stays in the domain and the value there
    is the child's derivative (the removable singularity is filled in).  So
    is the value within 1e-8 * (1 + |x0|) of an interior x0, where
    f(x) - f(x0) is mostly rounding, and the derivative there is a central
    difference of the quotient; elsewhere it follows the quotient rule.
    """

    child: FunctionExpr
    x0: float
    center_value: float = field(init=False, compare=False, repr=False, default=0.0)
    kind = "diffquot"

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "center_value",
                           float(closure_value(self.child, self.x0)))

    @property
    def domain(self) -> Interval:
        cdom = self.child.domain
        if cdom.is_endpoint(self.x0):
            return cdom.without_endpoint(self.x0)
        return cdom

    @cached_property
    def _center_deriv(self) -> float:
        return self.child.eval_deriv(self.x0)

    @cached_property
    def _center_band(self) -> float:
        if self.child.domain.interior_contains(self.x0):
            return 1e-8 * (1.0 + abs(self.x0))
        return 0.0

    def _val(self, xs):
        diff = xs - self.x0
        at_center = np.abs(diff) <= self._center_band
        out = np.empty_like(xs)
        if np.any(~at_center):
            cv = self.child._val(xs[~at_center])
            out[~at_center] = (cv - self.center_value) / diff[~at_center]
        if np.any(at_center):
            out[at_center] = self._center_deriv
        return out

    def _cval(self, zs):
        return (self.child._cval(zs) - self.center_value) / (zs - self.x0)

    def _dval(self, xs):
        diff = xs - self.x0
        near = np.abs(diff) <= self._center_band
        out = np.empty_like(xs)
        if np.any(~near):
            x = xs[~near]
            d = diff[~near]
            out[~near] = (self.child._dval(x) * d
                          - (self.child._val(x) - self.center_value)) / d**2
        if np.any(near):
            out[near] = _central_diff(self._val, xs[near])
        return out


@dataclass(frozen=True)
class NegRecip(FunctionExpr):
    """-1/f.  The sign of f is not checked here: ``transforms.neg_reciprocal``
    scans it before building the node."""

    child: FunctionExpr
    positive_child: bool = True
    kind = "negrecip"

    @property
    def domain(self) -> Interval:
        return self.child.domain

    def _val(self, xs):
        cv = self.child._val(xs)
        if np.any(cv == 0.0):
            raise DomainError("child of -1/f vanishes at an evaluation point")
        return -1.0 / cv

    def _cval(self, zs):
        return -1.0 / self.child._cval(zs)

    def _dval(self, xs):
        cv = self.child._val(xs)
        return self.child._dval(xs) / cv**2


@dataclass(frozen=True)
class MulLinear(FunctionExpr):
    """f(x) * (x - x0) + c."""

    child: FunctionExpr
    x0: float
    c: float = 0.0
    kind = "mullinear"

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "c", float(self.c))
        if not self.child.domain.closure_contains(self.x0):
            raise OutsideClosure(
                f"anchor {self.x0} outside the closure of {self.child.domain}")

    @property
    def domain(self) -> Interval:
        return self.child.domain

    def _val(self, xs):
        return self.child._val(xs) * (xs - self.x0) + self.c

    def _cval(self, zs):
        return self.child._cval(zs) * (zs - self.x0) + self.c

    def _dval(self, xs):
        return self.child._dval(xs) * (xs - self.x0) + self.child._val(xs)


@dataclass(frozen=True)
class Compose(FunctionExpr):
    """outer(inner(x)) on inner's domain.  Both real channels raise
    DomainError where an inner value falls outside outer's domain; that
    inner's whole range lies inside it is checked by the transform layer."""

    outer: FunctionExpr
    inner: FunctionExpr
    kind = "compose"

    @property
    def domain(self) -> Interval:
        return self.inner.domain

    def _handoff(self, xs):
        """inner's values at xs, each a point of outer's domain."""
        vs = np.asarray(self.inner._val(xs), dtype=float)
        ok = self.outer.domain.mask(vs)
        if not np.all(ok):
            raise DomainError(f"inner value {vs[~ok].ravel()[0]!r} outside "
                              f"the outer domain {self.outer.domain}")
        return vs

    def _val(self, xs):
        return self.outer._val(self._handoff(xs))

    def _cval(self, zs):
        return self.outer._cval(np.asarray(self.inner._cval(zs), dtype=complex))

    def _dval(self, xs):
        return self.outer._dval(self._handoff(xs)) * self.inner._dval(xs)


# --- JSON ------------------------------------------------------------------------

def to_json(fn: FunctionExpr) -> dict:
    return fn.to_json()


def from_json(d: dict) -> FunctionExpr:
    """Rebuild an expression tree from its JSON dict."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("function JSON must be an object with a 'kind' key")
    kind = d["kind"]
    if kind in {"measure_" + k for k in REP_KINDS}:
        return MeasureForm(rep_from_json(d, kind.removeprefix("measure_")))
    if kind not in _KINDS:
        raise UnsupportedNode(f"unknown function kind {kind!r}")
    cls = _KINDS[kind]
    return cls(**{f.name: _DECODE.get(f.type, lambda v: v)(d[f.name])
                  for f in fields(cls) if f.init and f.name in d})


_KINDS = {cls.kind: cls for cls in (Constant, Affine, Power, Reciprocal, Catalog,
                                    Quotient, DiffQuot, NegRecip, MulLinear, Compose)}


def _json_params(v) -> dict:
    return {k: json_number(p) for k, p in json_object(v).items()}


# a field's annotation (a string: annotations are postponed) -> decoder of its
# JSON; only a "str" field (Catalog.name) passes as it is, and the node checks it
_DECODE = {"Interval": Interval.from_json, "FunctionExpr": from_json, "float": json_number,
           "tuple": json_numbers, "bool": json_flag, "dict | tuple": _json_params}
