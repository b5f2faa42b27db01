import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import Interval, REAL_LINE
from loewner.errors import EmptyDomain
from loewner.interval import json_number


def test_open_interval_excludes_endpoints():
    iv = Interval(0.0, 1.0)
    assert 0.5 in iv
    assert 0.0 not in iv
    assert 1.0 not in iv


def test_closed_endpoints_are_members():
    iv = Interval(0.0, 1.0, lo_closed=True, hi_closed=True)
    assert 0.0 in iv and 1.0 in iv
    assert iv.interior_contains(0.5)
    assert not iv.interior_contains(0.0)


def test_closure_and_endpoint_queries():
    iv = Interval(0.0, 1.0)
    assert iv.closure_contains(0.0) and iv.closure_contains(1.0)
    assert not iv.closure_contains(-0.1)
    assert iv.is_endpoint(1.0) and not iv.is_endpoint(0.5)


def test_empty_and_degenerate_rejected():
    with pytest.raises(EmptyDomain):
        Interval(2.0, 1.0)
    with pytest.raises(EmptyDomain):
        Interval(1.0, 1.0)  # degenerate, even with closed ends
    with pytest.raises(EmptyDomain):
        Interval(0.0, float("nan"))


def test_contains_interval():
    outer = Interval(0.0, 10.0, lo_closed=True)
    assert outer.contains_interval(Interval(0.0, 5.0, lo_closed=True))
    assert not Interval(0.0, 10.0).contains_interval(
        Interval(0.0, 5.0, lo_closed=True))  # open outer, closed inner at 0


def test_without_endpoint_opens_one_side():
    iv = Interval(0.0, 2.0, lo_closed=True, hi_closed=True)
    assert not iv.without_endpoint(0.0).lo_closed
    assert iv.without_endpoint(0.0).hi_closed


def test_clip_bounds_total_width():
    win = Interval(0.0, math.inf, lo_closed=True).clip(20.0)
    assert (win.lo, win.hi) == (0.0, 20.0)
    win = REAL_LINE.clip(10.0)
    assert (win.lo, win.hi) == (-5.0, 5.0)
    # bounded intervals come back unchanged
    iv = Interval(1.0, 2.0)
    assert iv.clip(100.0) == iv


def test_width_and_bounded():
    assert Interval(1.0, 4.0).width == 3.0
    assert not REAL_LINE.bounded
    assert Interval(0.0, 1.0).bounded


def test_json_round_trip_with_infinities():
    for iv in (Interval(0.0, 1.0, lo_closed=True),
               Interval(-math.inf, 5.0),
               REAL_LINE):
        assert Interval.from_json(iv.to_json()) == iv
    d = Interval(0.0, math.inf).to_json()
    assert d["hi"] == "inf"


def test_json_number_rejects_nan_and_reads_a_raw_infinity():
    # Python's json reads the NaN and Infinity literals; NaN is no number,
    # and a raw Infinity endpoint parses like the "inf" string
    with pytest.raises(TypeError):
        json_number(json.loads("NaN"))
    assert math.isnan(json_number(json.loads("NaN"), nan=True))
    raw = Interval.from_json(json.loads('{"lo": 0, "hi": Infinity}'))
    assert raw == Interval.from_json({"lo": 0, "hi": "inf"}) == Interval(0.0, math.inf)


def test_json_flags_must_be_booleans():
    assert Interval.from_json({"lo": 0, "hi": 1}) == Interval(0.0, 1.0)
    assert Interval.from_json({"lo": 0, "hi": 1, "hi_closed": True}).hi_closed
    for bad in ("false", 0, 1, None):
        with pytest.raises(TypeError):
            Interval.from_json({"lo": 0, "hi": 1, "lo_closed": bad})


@settings(derandomize=True, max_examples=60)
@given(x=st.floats(-5, 5), lo=st.floats(-4, 0), hi=st.floats(1, 4))
def test_interior_implies_membership_implies_closure(x, lo, hi):
    iv = Interval(lo, hi, lo_closed=True)
    if iv.interior_contains(x):
        assert x in iv
    if x in iv:
        assert iv.closure_contains(x)
