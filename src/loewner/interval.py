"""Non-degenerate real intervals with open/closed endpoint flags.

Endpoints may be infinite (``math.inf`` sentinels); a closed endpoint must be
finite.  Instances are immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDomain

__all__ = ["Interval", "REAL_LINE", "json_number", "json_numbers", "json_flag", "json_object"]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise EmptyDomain("interval endpoint is NaN")
        if not self.lo < self.hi:
            raise EmptyDomain(f"degenerate interval [{self.lo}, {self.hi}]")
        if self.lo_closed and math.isinf(self.lo):
            raise EmptyDomain("closed endpoint must be finite")
        if self.hi_closed and math.isinf(self.hi):
            raise EmptyDomain("closed endpoint must be finite")

    # --- membership ---------------------------------------------------------

    def mask(self, xs, snap: float = 0.0) -> np.ndarray:
        """Elementwise membership of ``xs``; NaN is outside.  A closed
        endpoint also admits points up to ``snap * (1 + |endpoint|)`` past it."""
        xs = np.asarray(xs, dtype=float)
        if self.lo_closed:
            lo_ok = xs >= self.lo - snap * (1.0 + abs(self.lo))
        else:
            lo_ok = xs > self.lo
        if self.hi_closed:
            hi_ok = xs <= self.hi + snap * (1.0 + abs(self.hi))
        else:
            hi_ok = xs < self.hi
        return lo_ok & hi_ok

    def contains(self, x: float) -> bool:
        return bool(self.mask(x))

    def __contains__(self, x) -> bool:
        return self.contains(float(x))

    def interior_contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def closure_contains(self, x: float) -> bool:
        if math.isinf(x):
            return False
        return self.lo <= x <= self.hi

    def is_endpoint(self, x: float) -> bool:
        return x == self.lo or x == self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is a subset of this interval."""
        if other.lo < self.lo or (other.lo == self.lo and other.lo_closed and not self.lo_closed):
            return False
        if other.hi > self.hi or (other.hi == self.hi and other.hi_closed and not self.hi_closed):
            return False
        return True

    # --- derived intervals ----------------------------------------------------

    def without_endpoint(self, x: float) -> "Interval":
        """Open the endpoint at ``x`` (domain rule for difference quotients)."""
        if x == self.lo:
            return Interval(self.lo, self.hi, False, self.hi_closed)
        if x == self.hi:
            return Interval(self.lo, self.hi, self.lo_closed, False)
        return self

    @property
    def bounded(self) -> bool:
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def clip(self, length: float) -> "Interval":
        """Bounded sub-window of at most ``length``: anchored at a finite end,
        or centered at 0 when both ends are infinite."""
        lo, hi = self.lo, self.hi
        if math.isinf(lo) and math.isinf(hi):
            return Interval(-length / 2, length / 2, False, False)
        if math.isinf(hi):
            return Interval(lo, lo + length, self.lo_closed, False)
        if math.isinf(lo):
            return Interval(hi - length, hi, False, self.hi_closed)
        if hi - lo <= length:
            return self
        return Interval(lo, lo + length, self.lo_closed, False)

    # --- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        def enc(v):
            if v == math.inf:
                return "inf"
            if v == -math.inf:
                return "-inf"
            return v

        return {
            "lo": enc(self.lo),
            "hi": enc(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        """Parse ``to_json`` output.  A finite end must be a JSON number and a
        flag a JSON boolean; an absent flag means open."""
        def dec(v):
            if v == "inf":
                return math.inf
            if v == "-inf":
                return -math.inf
            return json_number(v)

        return cls(dec(obj["lo"]), dec(obj["hi"]), json_flag(obj.get("lo_closed", False)),
                   json_flag(obj.get("hi_closed", False)))

    def __str__(self):
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"


REAL_LINE = Interval(-math.inf, math.inf)


# JSON readers: every spec parser in the package reads its numbers, flags and
# objects here
def json_number(v) -> float:
    """A JSON number (an int or a float, not a bool or a string) as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a JSON number")
    return float(v)


def json_numbers(v, nulls: bool = False) -> tuple:
    """A JSON array of numbers as floats; with ``nulls``, null entries stay None."""
    if not isinstance(v, list):
        raise TypeError(f"{v!r} is not a JSON array of numbers")
    return tuple(None if c is None and nulls else json_number(c) for c in v)


def json_flag(v) -> bool:
    """A JSON boolean."""
    if not isinstance(v, bool):
        raise TypeError(f"{v!r} is not true or false")
    return v


def json_object(v) -> dict:
    """A JSON object."""
    if not isinstance(v, dict):
        raise TypeError(f"{v!r} is not a JSON object")
    return v
