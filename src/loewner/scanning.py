"""Grid scans over intervals: sign checks, endpoint limits, boundedness.

These are the desk-scale decidable proxies used wherever a contract quantifies
over a whole interval (positivity for the negative-reciprocal transform,
boundedness for backward-process shifts, exact zero for pipeline termination
and the strong check).  Every scan reads ``grid_values``.  Unbounded intervals
are clipped to a long window; open endpoints are approached geometrically so
blow-ups and limits near the boundary are seen even on a coarse linear grid.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (NoFiniteLimit, NonFiniteValue, NotNegative, NotPositive,
                     OutsideClosure, Unbounded, ZeroFunction)
from .interval import Interval

SCAN_POINTS = 1001
SCAN_WINDOW = 1e6

# geometric offsets used both as near-endpoint samples and for limit estimation
_APPROACH_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def scan_grid(domain: Interval, n: int = SCAN_POINTS, window: float = SCAN_WINDOW) -> np.ndarray:
    """Scan points: an ``n``-point linear grid on the (clipped) interval, closed
    endpoints included, open endpoints replaced by interior offsets, plus
    geometric approach points near each finite open endpoint."""
    w = domain.clip(window)
    lo, hi = w.lo, w.hi
    width = hi - lo
    eps = 1e-9 * (width + abs(lo) + abs(hi))
    a = lo if w.lo_closed else lo + eps
    b = hi if w.hi_closed else hi - eps
    near = np.array([lo, hi]) + np.multiply.outer(_APPROACH_STEPS, [width, -width])
    opened = near[:, [not w.lo_closed, not w.hi_closed]].ravel()
    pts = np.sort(np.concatenate([np.linspace(a, b, n), opened]), kind="stable")
    # a stable sort keeps the first of 0.0 and -0.0, as np.unique does
    return pts[np.r_[True, pts[1:] != pts[:-1]] & (pts >= lo) & (pts <= hi)]


def endpoint_limit(fn, domain: Interval, endpoint: float) -> float:
    """Numeric one-sided limit of ``fn`` at a finite endpoint of ``domain``.

    Evaluates along five geometric approach points and Richardson-style checks
    that successive values stabilize.  Raises NoFiniteLimit when they grow or
    refuse to settle.
    """
    w = domain.clip(SCAN_WINDOW)
    width = w.hi - w.lo
    sign = +1.0 if endpoint == domain.lo else -1.0
    xs = [endpoint + sign * step * width for step in _APPROACH_STEPS]
    vals = [float(fn(x)) for x in xs]
    if any(not math.isfinite(v) for v in vals):
        raise NoFiniteLimit(f"no finite limit at {endpoint}")
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    scale = 1.0 + max(abs(v) for v in vals)
    # growing magnitudes or non-shrinking increments mean divergence
    if abs(vals[-1]) > 1e8 * (1.0 + abs(vals[0])):
        raise NoFiniteLimit(f"values blow up approaching {endpoint}")
    if diffs[-1] > max(2.0 * diffs[0], 1e-3 * scale):
        raise NoFiniteLimit(f"values do not settle approaching {endpoint}")
    return vals[-1]


def closure_value(fn, x: float) -> float:
    """fn at a point x of the closure of its domain: its value inside the
    domain, ``endpoint_limit`` at an excluded finite endpoint.  Raises
    OutsideClosure anywhere else (NaN and +-inf included) and NoFiniteLimit
    where the limit diverges."""
    dom = fn.domain
    if dom.contains(x):
        return fn.eval_real(x)
    if not dom.closure_contains(x):
        raise OutsideClosure(f"{x} is not in the closure of {dom}")
    return endpoint_limit(fn.eval_real, dom, x)


def grid_values(fn, domain: Interval, n: int = SCAN_POINTS, window: float = SCAN_WINDOW):
    """(grid, values): ``scan_grid(domain, n, window)`` and fn on it;
    NonFiniteValue on a NaN or inf."""
    xs = scan_grid(domain, n, window)
    vals = np.asarray(fn(xs), dtype=float)
    odd = np.flatnonzero(~np.isfinite(vals))
    if odd.size:
        raise NonFiniteValue(f"value {vals[odd[0]]} at x={xs[odd[0]]!r} on the scan grid")
    return xs, vals


def is_zero_on_grid(fn, domain: Interval) -> bool:
    """Whether fn is exactly 0.0 at every scan point; NonFiniteValue on a NaN or inf."""
    return not np.any(grid_values(fn, domain)[1])


def check_positive(fn, domain: Interval) -> None:
    """Positivity scan backing the negative-reciprocal transform.

    Requires fn > 0 at every point of ``scan_grid``, which holds the approach
    points ``endpoint_limit`` reads at a finite open endpoint; the limit there
    may be 0.  On a finite domain wider than SCAN_WINDOW the window keeps the
    lower end, and the far end is not sampled.  Raises NonFiniteValue on a NaN
    or infinite grid value, ZeroFunction when every grid value is exactly
    0.0, NotPositive otherwise.
    """
    xs, vals = grid_values(fn, domain)
    if not np.any(vals):
        raise ZeroFunction("function is identically zero on the scan grid")
    bad = np.flatnonzero(vals <= 0.0)
    if bad.size:
        i = int(bad[np.argmin(vals[bad])])
        raise NotPositive(float(xs[i]), float(vals[i]))


def check_negative(fn, domain: Interval) -> None:
    """Mirror of :func:`check_positive` for the f < 0 convention."""
    try:
        check_positive(lambda x: -np.asarray(fn(x)), domain)
    except NotPositive as e:
        raise NotNegative(e.point, -e.value) from None


def check_bounded(fn, domain: Interval) -> tuple[float, float]:
    """Refinement-stable supremum check.

    Scans at 1001 then 4001 points (the refined scan also widens the clip
    window fourfold when the interval is unbounded); a >10% jump in the
    supremum magnitude, or a divergent endpoint limit, raises Unbounded.
    Returns (sup, inf) from the refined scan.
    """
    window2 = SCAN_WINDOW if domain.bounded else 4 * SCAN_WINDOW
    try:
        v1 = grid_values(fn, domain)[1]
        v2 = grid_values(fn, domain, 4 * SCAN_POINTS - 3, window2)[1]
    except NonFiniteValue:
        raise Unbounded("non-finite value on scan grid") from None
    sup1, inf1, sup2, inf2 = v1.max(), v1.min(), float(v2.max()), float(v2.min())
    scale = 1.0 + max(abs(sup1), abs(inf1))
    if sup2 - sup1 > 0.10 * scale or inf1 - inf2 > 0.10 * scale:
        raise Unbounded("grid supremum diverges under refinement")
    for end, closed in ((domain.lo, domain.lo_closed), (domain.hi, domain.hi_closed)):
        if math.isfinite(end) and not closed:
            try:
                endpoint_limit(fn, domain, end)
            except NoFiniteLimit:
                raise Unbounded(f"function diverges at endpoint {end}") from None
    return sup2, inf2
