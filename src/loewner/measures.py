"""Discrete-measure integral representations of the three function classes.

A finite atomic measure supported off the interval I gives closed-form
evaluation of the three canonical representations:

* monotone form:   f(x) = a*x + b + sum_r w * (1/(r-x) - 1/(r-x0))
* convex form:     f(x) = a*x^2 + b*x + c
                          + sum_{r>I} w * (x-x0)^2 / ((r-x)(r-x0)^2)
                          + sum_{r<I} w * (x-x0)^2 / ((x-r)(x0-r)^2)
* strong form:     f(x) = a + sum_{r>I} w/(r-x) + sum_{r<I} w/(x-r)

The integrability side conditions of the continuous theory hold automatically
for finite atom lists and are not represented.  This module also carries the
measure-level difference-quotient transform (weights scaled by 1/|x0-r|),
endpoint extension, the square substitution, and Poisson-kernel atom
recovery from boundary values of the holomorphic extension, integrated by
breadth-first Gauss-Kronrod (G7-K15) panels with one array evaluation of the
extension per refinement round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    AtomAtX0,
    BadMeasureInput,
    DomainError,
    NegativeAtom,
    NonFiniteValue,
    NonzeroMuMinus,
    NotEndpoint,
    QuadratureFailure,
    WindowContainsPole,
)
from .interval import Interval, json_number

__all__ = [
    "DiscreteMeasure", "OMRep", "OCRep", "SOCRep", "REP_KINDS",
    "form_sum", "eval_form",
    "om_to_soc", "extend_at_endpoint", "substitute_square",
    "recover_atom_weight", "EndpointExtension",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure: tuple of (location, weight) with weights >= 0."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple(sorted((float(r), float(w)) for r, w in self.atoms))
        locs = [r for r, _ in atoms]
        if len(set(locs)) != len(locs):
            raise BadMeasureInput("atom locations must be distinct")
        for r, w in atoms:
            if not (math.isfinite(r) and math.isfinite(w)):
                raise BadMeasureInput(f"atom ({r}, {w}) is not finite")
            if w < 0:
                raise BadMeasureInput(f"atom weight at r={r} is negative")
        object.__setattr__(self, "atoms", atoms)

    def weight_at(self, r: float, tol: float = 0.0) -> float:
        for loc, w in self.atoms:
            if abs(loc - r) <= tol * (1.0 + abs(r)):
                return w
        return 0.0


def _require_outside(measure: DiscreteMeasure, interval: Interval, side: str | None):
    for r, _ in measure.atoms:
        if interval.contains(r):
            raise BadMeasureInput(f"atom at r={r} lies inside the interval {interval}")
        if side == "+" and r <= interval.lo:
            raise BadMeasureInput(f"atom at r={r} is not to the right of {interval}")
        if side == "-" and r >= interval.hi:
            raise BadMeasureInput(f"atom at r={r} is not to the left of {interval}")


def _split_sides(measure: DiscreteMeasure, interval: Interval):
    plus = tuple((r, w) for r, w in measure.atoms if r >= interval.hi)
    minus = tuple((r, w) for r, w in measure.atoms if r <= interval.lo)
    return DiscreteMeasure(plus), DiscreteMeasure(minus)


def _signed_atoms(rep) -> tuple:
    """Right atoms as they are, then left atoms with negated weight."""
    return rep.mu_plus.atoms + tuple((r, -w) for r, w in rep.mu_minus.atoms)


@dataclass(frozen=True)
class OMRep:
    """Coefficient pack of the operator-monotone integral form."""

    a: float
    b: float
    x0: float
    mu: DiscreteMeasure
    interval: Interval
    kind = "om"

    def __post_init__(self):
        if self.a < 0:
            raise BadMeasureInput("slope coefficient a must be >= 0")
        if not self.interval.contains(self.x0):
            raise BadMeasureInput(f"anchor x0={self.x0} must lie in {self.interval}")
        _require_outside(self.mu, self.interval, side=None)

    @property
    def signed_atoms(self) -> tuple:
        return self.mu.atoms

    def poly(self, x, deriv):
        return np.full_like(x, self.a) if deriv else self.a * x + self.b

    def term(self, r, w, x, deriv):
        if deriv:
            return w / (r - x) ** 2
        return w * (1.0 / (r - x) - 1.0 / (r - self.x0))

    def __call__(self, x):
        return eval_form(self, x)


@dataclass(frozen=True)
class OCRep:
    """Coefficient pack of the operator-convex integral form."""

    a: float
    b: float
    c: float
    x0: float
    mu_plus: DiscreteMeasure
    mu_minus: DiscreteMeasure
    interval: Interval
    kind = "oc"

    def __post_init__(self):
        if self.a < 0:
            raise BadMeasureInput("quadratic coefficient a must be >= 0")
        if not self.interval.interior_contains(self.x0):
            raise BadMeasureInput(
                f"anchor x0={self.x0} must be interior to {self.interval}")
        _require_outside(self.mu_plus, self.interval, side="+")
        _require_outside(self.mu_minus, self.interval, side="-")

    signed_atoms = cached_property(_signed_atoms)

    def poly(self, x, deriv):
        if deriv:
            return 2.0 * self.a * x + self.b
        return self.a * x**2 + self.b * x + self.c

    def term(self, r, w, x, deriv):
        x0 = self.x0
        if deriv:
            num = 2.0 * (x - x0) * (r - x) + (x - x0) ** 2
            return w * num / ((r - x) ** 2 * (r - x0) ** 2)
        return w * (x - x0) ** 2 / ((r - x) * (r - x0) ** 2)

    def __call__(self, x):
        return eval_form(self, x)


@dataclass(frozen=True)
class SOCRep:
    """Coefficient pack of the strongly-operator-convex integral form."""

    a: float
    mu_plus: DiscreteMeasure
    mu_minus: DiscreteMeasure
    interval: Interval
    kind = "soc"

    def __post_init__(self):
        if self.a < 0:
            raise BadMeasureInput("constant coefficient a must be >= 0")
        _require_outside(self.mu_plus, self.interval, side="+")
        _require_outside(self.mu_minus, self.interval, side="-")

    signed_atoms = cached_property(_signed_atoms)

    def poly(self, x, deriv):
        return np.zeros_like(x) if deriv else np.full_like(x, self.a)

    def term(self, r, w, x, deriv):
        return w / (r - x) ** 2 if deriv else w / (r - x)

    def __call__(self, x):
        return eval_form(self, x)


REP_KINDS = {"om": OMRep, "oc": OCRep, "soc": SOCRep}


# --- evaluation ---------------------------------------------------------------

def form_sum(rep, x, deriv: bool = False):
    """Polynomial part plus one term per signed atom of rep's form (or their
    derivatives), over a real or complex array.  Left atoms of the convex and
    strong forms carry negated weights: w/(x - r) == -w/(r - x) exactly in
    IEEE arithmetic, so one loop covers both sides."""
    out = rep.poly(x, deriv)
    for r, w in rep.signed_atoms:
        out = out + rep.term(r, w, x, deriv)
    return out


def eval_form(rep, x):
    """Evaluate rep's form at x (scalar or array) inside its interval."""
    xs = np.asarray(x, dtype=float)
    ok = rep.interval.mask(xs)
    if not np.all(ok):
        raise DomainError(f"x={xs[~ok].ravel()[0]!r} outside {rep.interval}")
    out = form_sum(rep, xs)
    return out if np.ndim(x) else float(out)


# --- transforms -------------------------------------------------------------------

def om_to_soc(rep: OMRep, x0: float) -> SOCRep:
    """Measure-level difference quotient: weights scaled by 1/|x0 - r|.

    The output satisfies, for every x != x0 in the interval,

        out(x) == (rep(x) - rep(x0)) / (x - x0).
    """
    if not rep.interval.closure_contains(x0):
        raise DomainError(f"center {x0} not in the closure of {rep.interval}")
    for r, _ in rep.mu.atoms:
        if r == x0:
            raise AtomAtX0(f"atom coincides with center x0={x0}")
    scaled = tuple((r, w / abs(x0 - r)) for r, w in rep.mu.atoms)
    plus, minus = _split_sides(DiscreteMeasure(scaled), rep.interval)
    return SOCRep(a=rep.a, mu_plus=plus, mu_minus=minus, interval=rep.interval)


@dataclass(frozen=True)
class EndpointExtension:
    """Extension data for f(x) = (x-b) g(x) at a finite excluded endpoint b,
    where g is the strong form ``rep``.

    ``value_at_b`` is the continuous extension f(b) = -delta (right
    endpoint) or +delta (left), where delta is the mass of the strong form's
    measure at b itself.  ``quotient_rep`` is g with the boundary atom
    stripped: the difference quotient (f(x) - f(b))/(x - b) equals it
    identically on the interval.
    """

    b: float
    delta: float
    value_at_b: float
    rep: SOCRep = field(repr=False)
    quotient_rep: SOCRep = field(repr=False, default=None)

    def identity_residual(self, x) -> float:
        """max | (f(x)-f(b))/(x-b) - quotient_rep(x) | over x."""
        xs = np.asarray(x, dtype=float)
        f = (xs - self.b) * eval_form(self.rep, xs)
        lhs = (f - self.value_at_b) / (xs - self.b)
        rhs = eval_form(self.quotient_rep, xs)
        return float(np.max(np.abs(lhs - rhs)))


def extend_at_endpoint(rep: SOCRep, b: float) -> tuple[EndpointExtension, float]:
    """Extend f(x) = (x-b) g(x) across a finite excluded endpoint b of rep's
    interval; returns the extension data and delta = mass of the boundary atom."""
    iv = rep.interval
    right = b == iv.hi and not iv.hi_closed and math.isfinite(iv.hi)
    left = b == iv.lo and not iv.lo_closed and math.isfinite(iv.lo)
    if not (right or left):
        raise NotEndpoint(f"{b} is not a finite excluded endpoint of {iv}")
    side = rep.mu_plus if right else rep.mu_minus
    delta = side.weight_at(b, tol=1e-12)
    sign = -1.0 if right else 1.0
    value_at_b = sign * delta
    stripped = tuple((r, w) for r, w in side.atoms if r != b)
    if right:
        quotient = SOCRep(a=rep.a, mu_plus=DiscreteMeasure(stripped),
                          mu_minus=rep.mu_minus, interval=iv)
    else:
        quotient = SOCRep(a=rep.a, mu_plus=rep.mu_plus,
                          mu_minus=DiscreteMeasure(stripped), interval=iv)
    ext = EndpointExtension(b=b, delta=delta, value_at_b=value_at_b,
                            rep=rep, quotient_rep=quotient)
    return ext, delta


def substitute_square(rep: OCRep) -> OCRep:
    """Convex form of g(x) = phi(x^2) from the convex form of phi.

    Requires the anchor at 0, an empty left measure, no quadratic term, and
    strictly positive atom locations.  Each atom (r, w) of the input splits
    into atoms (sqrt(r), w/(2 sqrt r)) and (-sqrt(r), w/(2 sqrt r)); the x^2
    coefficient of the output is b - sum(w / r^2).
    """
    if rep.mu_minus.atoms:
        raise NonzeroMuMinus("square substitution requires an empty left measure")
    if rep.x0 != 0.0:
        raise BadMeasureInput("square substitution requires anchor x0 = 0")
    if rep.a != 0.0:
        raise BadMeasureInput("square substitution requires no x^2 term in the input")
    for r, _ in rep.mu_plus.atoms:
        if r <= 0:
            raise NegativeAtom(f"atom location {r} must be positive")

    hi = rep.interval.hi
    if not math.isfinite(hi):
        raise BadMeasureInput("square substitution needs a finite right endpoint")
    s = math.sqrt(hi)
    out_interval = Interval(-s, s, rep.interval.hi_closed, rep.interval.hi_closed)

    nu = []
    alpha = rep.b
    for r, w in rep.mu_plus.atoms:
        root = math.sqrt(r)
        nu.append((root, w / (2.0 * root)))
        nu.append((-root, w / (2.0 * root)))
        alpha -= w / r**2
    plus = DiscreteMeasure(tuple(a for a in nu if a[0] > 0))
    minus = DiscreteMeasure(tuple(a for a in nu if a[0] < 0))
    return OCRep(a=alpha, b=0.0, c=rep.c, x0=0.0,
                 mu_plus=plus, mu_minus=minus, interval=out_interval)


# --- JSON ----------------------------------------------------------------------

def _scalars(rep) -> list:
    """The float fields of a representation or its class, in their JSON order."""
    return [f.name for f in fields(rep) if f.type == "float"]


def rep_to_json(rep) -> dict:
    """Serialize a representation to the measure JSON layout."""
    if type(rep) not in REP_KINDS.values():
        raise TypeError(f"not a representation: {type(rep).__name__}")
    plus, minus = (_split_sides(rep.mu, rep.interval) if rep.kind == "om"
                   else (rep.mu_plus, rep.mu_minus))
    return {**{k: getattr(rep, k) for k in _scalars(rep)},
            "atoms_plus": [list(a) for a in plus.atoms],
            "atoms_minus": [list(a) for a in minus.atoms],
            "interval": rep.interval.to_json()}


def rep_from_json(d: dict, kind: str):
    """Parse a representation dict of a kind in REP_KINDS; numbers must be JSON numbers."""
    if kind not in REP_KINDS:
        raise BadMeasureInput(f"unknown representation kind {kind!r}")
    cls = REP_KINDS[kind]
    interval = Interval.from_json(d["interval"])
    plus, minus = (tuple((json_number(r), json_number(w)) for r, w in d.get(key, ()))
                   for key in ("atoms_plus", "atoms_minus"))
    scalars = {k: json_number(d[k]) for k in _scalars(cls)}
    if kind == "om":
        return cls(**scalars, mu=DiscreteMeasure(plus + minus), interval=interval)
    return cls(**scalars, mu_plus=DiscreteMeasure(plus), mu_minus=DiscreteMeasure(minus),
               interval=interval)


# --- Poisson-kernel atom recovery ---------------------------------------------

# QUADPACK qk15 (Piessens et al., 1983): the Kronrod abscissae on [0, 1] from
# the outside in, their weights, and the weights of the embedded 7-point Gauss
# rule, whose nodes are the 2nd, 4th, 6th and 8th abscissae.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

# The two rules on the 15 ascending nodes of [-1, 1]; Gauss nodes sit at the
# odd indices, and the Gauss weight is 0 at the others.
GK_NODES = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))
GK_KRONROD = np.array(_WGK + _WGK[-2::-1])
GK_GAUSS = np.zeros(15)
GK_GAUSS[1::2] = _WG + _WG[-2::-1]

QUAD_MAX_ROUNDS = 60
QUAD_MAX_PANELS = 4096


def _gauss_kronrod(fn, lo, hi, tol: float) -> np.ndarray:
    """Integrals k = 0, 1, ... of fn over [lo[k], hi[k]], each to absolute
    tolerance ``tol``, by breadth-first G7-K15 bisection.

    ``fn(t, k)`` takes an (n, 15) array of abscissae, row i on a panel of
    integral k[i], and returns the values there.  Each round makes one fn
    call over every node of every live panel.  A panel is accepted when
    |K15 - G7| is within its tolerance share; any other is bisected, and each
    half gets half that share.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    k = np.arange(lo.size)
    share = np.full(lo.size, float(tol))
    total = np.zeros(lo.size)
    for _ in range(QUAD_MAX_ROUNDS):
        if k.size > QUAD_MAX_PANELS:
            raise QuadratureFailure(
                f"Gauss-Kronrod passed {QUAD_MAX_PANELS} live panels")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = fn(mid[:, None] + half[:, None] * GK_NODES, k)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("integrand is not finite on a quadrature panel")
        kronrod = half * (vals @ GK_KRONROD)
        done = np.abs(kronrod - half * (vals @ GK_GAUSS)) <= share
        np.add.at(total, k[done], kronrod[done])
        live = ~done
        lo, mid, hi = lo[live], mid[live], hi[live]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        k, share = np.tile(k[live], 2), np.tile(0.5 * share[live], 2)
        if not k.size:
            return total
    raise QuadratureFailure(f"Gauss-Kronrod did not converge in {QUAD_MAX_ROUNDS} rounds")


def recover_atom_weight(f, r: float, window: tuple, eps_list=(1e-2, 1e-3, 1e-4),
                        side: str = "+") -> float:
    """Recover the weight of the atom at r from the imaginary part of f's
    holomorphic extension just above the real axis.

    For the two smallest eps, integrates (1/pi) Im f(t + i*eps) over the
    window with vectorized Gauss-Kronrod panels (split at r, absolute
    tolerance 5e-11 per side), then applies two-point Richardson
    extrapolation in eps to remove the O(eps) window leakage.  Every eps must
    be finite and > 0, and the two smallest must differ.  The largest eps
    sets the guard: r must lie at least 10*max(eps) inside the window.
    ``side`` = "-" flips the sign for left-measure atoms.  Raises
    NonFiniteValue on a non-finite integrand value and QuadratureFailure when
    the panels do not converge.
    """
    if len(window) != 2:
        raise BadMeasureInput(f"window must be a pair (lo, hi), got {window!r}")
    lo, hi = float(window[0]), float(window[1])
    if side not in ("+", "-"):
        raise BadMeasureInput(f"side must be '+' or '-', got {side!r}")
    if not lo < r < hi:
        raise BadMeasureInput(f"window ({lo}, {hi}) must contain the atom location {r}")
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 2:
        raise BadMeasureInput("need at least two eps values for extrapolation")
    if not all(0.0 < e < math.inf for e in eps_list):
        raise BadMeasureInput(f"eps values must be finite and > 0, got {eps_list}")
    e2, e1 = eps_list[0], eps_list[1]
    if e1 == e2:
        raise BadMeasureInput(f"the two smallest eps must differ, got {e2} twice")
    guard = 10.0 * max(eps_list)
    if min(r - lo, hi - r) < guard:
        raise WindowContainsPole(
            f"atom at {r} within {guard} of the window boundary")
    sgn = 1.0 if side == "+" else -1.0
    # integrals 0, 1: eps e2 left and right of r; 2, 3: the same at e1
    eps = np.array([e2, e2, e1, e1])

    def integrand(t, k):
        z = (t + 1j * eps[k, None]).ravel()
        return sgn * f.eval_complex(z).imag.reshape(t.shape) / math.pi

    parts = _gauss_kronrod(integrand, [lo, r, lo, r], [r, hi, r, hi], 5e-11)
    m2, m1 = parts[0] + parts[1], parts[2] + parts[3]
    # leakage is O(eps): eliminate the linear term with the two smallest eps
    return float((e1 * m2 - e2 * m1) / (e1 - e2))
