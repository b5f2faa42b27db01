import numpy as np
import pytest

from loewner import Affine, Constant, Interval, Power, Reciprocal, identity
from loewner.errors import (
    NoFiniteLimit,
    NonFiniteValue,
    NotNegative,
    NotPositive,
    OutsideClosure,
    Unbounded,
    ZeroFunction,
)
from loewner.scanning import (
    _APPROACH_STEPS,
    SCAN_POINTS,
    SCAN_WINDOW,
    check_bounded,
    check_negative,
    check_positive,
    closure_value,
    endpoint_limit,
    is_zero_on_grid,
    scan_grid,
)


def test_scan_grid_stays_inside_open_interval():
    xs = scan_grid(Interval(0.0, 1.0))
    assert len(xs) >= SCAN_POINTS  # linear grid plus endpoint-approach points
    assert xs[0] > 0.0 and xs[-1] < 1.0
    assert np.all(np.diff(xs) > 0)


def test_scan_grid_clips_unbounded_domains():
    xs = scan_grid(Interval(0.0, np.inf, lo_closed=True))
    assert xs[-1] <= 1e6


def _list_scan_grid(domain, n, window):
    """scan_grid as a Python list of points through np.unique: the reference."""
    w = domain.clip(window)
    lo, hi = w.lo, w.hi
    width = hi - lo
    eps = 1e-9 * (width + abs(lo) + abs(hi))
    pts = list(np.linspace(lo if w.lo_closed else lo + eps, hi if w.hi_closed else hi - eps, n))
    for step in _APPROACH_STEPS:
        if not w.lo_closed:
            pts.append(lo + step * width)
        if not w.hi_closed:
            pts.append(hi - step * width)
    arr = np.unique(np.asarray(pts, dtype=float))
    return arr[(arr >= lo) & (arr <= hi)]


@pytest.mark.parametrize("lo, hi", [
    (0.0, 1.0), (-3.0, 7.5), (-0.0, 1.0), (-1.0, -0.0), (-0.01, 0.99),   # 0.0 on the grid
    (0.0, np.inf), (-np.inf, -0.0), (-np.inf, np.inf),                     # half-lines, the line
    (0.0, 3e6), (-5e6, 5e6), (1e-3, 9e5),                                  # wider than the window
    (1.0, 1.0 + 1e-12), (0.0, 1e-300), (1e10, 1e10 + 1e-5), (-1e-300, 1e-300),  # very thin
])
def test_scan_grid_equals_the_list_and_unique_grid_bit_for_bit(lo, hi):
    for lo_closed in (False, True)[:1 + np.isfinite(lo)]:
        for hi_closed in (False, True)[:1 + np.isfinite(hi)]:
            dom = Interval(lo, hi, lo_closed, hi_closed)
            for n, window in ((SCAN_POINTS, SCAN_WINDOW), (4 * SCAN_POINTS - 3, 4 * SCAN_WINDOW)):
                want = _list_scan_grid(dom, n, window)
                assert scan_grid(dom, n, window).tobytes() == want.tobytes()


def test_endpoint_limit_sqrt_at_zero():
    # width-relative approach: a coarse but sign-correct proxy for the limit
    dom = Interval(0.0, 2.0)
    assert abs(endpoint_limit(Power(0.5, dom), dom, 0.0)) < 1e-2


def test_endpoint_limit_divergent():
    from loewner.errors import NoFiniteLimit
    recip = Reciprocal(Interval(0.0, 1.0))
    with pytest.raises(NoFiniteLimit):
        endpoint_limit(recip, recip.domain, 0.0)


def test_is_zero_on_grid():
    dom = Interval(0.0, 3.0)
    assert is_zero_on_grid(Constant(0.0, dom), dom)
    assert not is_zero_on_grid(identity(dom), dom)
    # exact: no tolerance, so no scale of a nonzero f reads as zero
    assert not is_zero_on_grid(Constant(1e-14, dom), dom)


def test_check_positive_accepts_open_endpoint_zero_limit():
    # sqrt -> 0 at the open left endpoint: the limit may touch zero,
    # closed endpoints and interior points may not
    check_positive(Power(0.5), Interval(0.0, 2.0, hi_closed=True))
    with pytest.raises(NotPositive):
        check_positive(Power(0.5), Interval(0.0, 2.0, lo_closed=True, hi_closed=True))


def test_check_positive_reports_witness_point():
    dom = Interval(0.0, 3.0)
    shifted = Affine(1.0, -1.0, dom)  # x - 1 crosses zero
    with pytest.raises(NotPositive) as exc:
        check_positive(shifted, dom)
    assert shifted.eval_real(exc.value.point) == exc.value.value
    assert exc.value.value <= 0.0


def test_check_positive_rejects_zero_function():
    dom = Interval(0.0, 3.0)
    with pytest.raises(ZeroFunction):
        check_positive(Constant(0.0, dom), dom)


def test_check_negative():
    dom = Interval(0.0, 3.0)
    check_negative(Affine(1.0, -5.0, dom), dom)  # x - 5 < 0 throughout
    with pytest.raises(NotNegative):
        check_negative(Affine(1.0, -1.0, dom), dom)


def test_check_bounded_returns_sup_and_inf():
    dom = Interval(0.0, 2.0, lo_closed=True, hi_closed=True)
    sup, inf = check_bounded(Power(0.5, dom), dom)
    assert abs(sup - np.sqrt(2.0)) < 1e-3
    assert abs(inf) < 1e-3


def test_check_bounded_rejects_pole():
    recip = Reciprocal(Interval(0.0, 1.0))
    with pytest.raises(Unbounded):
        check_bounded(recip, recip.domain)


def test_check_bounded_rejects_growth_at_infinity():
    f = identity(Interval(0.0, np.inf))
    with pytest.raises(Unbounded):
        check_bounded(f, f.domain)


def test_closure_value_inside_at_an_open_end_and_outside():
    f = Power(0.5, Interval(1.0, 4.0, hi_closed=True))
    assert closure_value(f, 4.0) == 2.0
    assert closure_value(f, 1.0) == endpoint_limit(f, f.domain, 1.0)
    for x in (0.5, 5.0, np.nan, np.inf, -np.inf):
        with pytest.raises(OutsideClosure):
            closure_value(f, x)
    with pytest.raises(NoFiniteLimit):
        closure_value(Reciprocal(Interval(0.0, 1.0)), 0.0)


def test_endpoint_limit_rejects_values_that_blow_up_or_overflow():
    with pytest.raises(NoFiniteLimit, match="blow up"):
        closure_value(Power(-4.0, Interval(0.0, 1.0)), 0.0)
    steep = Power(-200.0, Interval(0.0, 1.0))  # inf at every approach point
    with np.errstate(over="ignore"):
        with pytest.raises(NoFiniteLimit, match="no finite limit"):
            closure_value(steep, 0.0)
        with pytest.raises(Unbounded, match="non-finite value on scan grid"):
            check_bounded(steep, steep.domain)


def _limit_probes(domain, end):
    seen = []
    endpoint_limit(lambda x: seen.append(x) or 1.0, domain, end)
    return seen


@pytest.mark.parametrize("domain", [
    Interval(0.0, 1.0), Interval(-3.0, 7.5, lo_closed=True), Interval(1e-3, 9e5),
    Interval(0.0, np.inf), Interval(-np.inf, 2.0)])
def test_scan_grid_holds_every_endpoint_limit_probe(domain):
    # why check_positive reads no limit apart: its grid already has the points
    xs = set(scan_grid(domain).tolist())
    for end, closed in ((domain.lo, domain.lo_closed), (domain.hi, domain.hi_closed)):
        if np.isfinite(end) and not closed:
            assert set(_limit_probes(domain, end)) <= xs


def test_scan_grid_of_a_domain_wider_than_the_window_misses_the_far_end():
    wide = Interval(0.0, 3e6)
    xs = set(scan_grid(wide).tolist())
    assert set(_limit_probes(wide, 0.0)) <= xs
    assert not set(_limit_probes(wide, 3e6)) & xs


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_sign_scans_reject_non_finite_values(c):
    f = Constant(c, Interval(0.0, 1.0))
    with pytest.raises(NonFiniteValue):
        check_positive(f, f.domain)
    with pytest.raises(NonFiniteValue):
        check_negative(f, f.domain)
