"""Detection floors: how close to its class a function may come and still be
caught by a check, at the default config.

Each family below is known to lie outside the class by a parameter that can
be made as small as we like.  A test asserts a fail at the floor measured when
it was added, found no later than the trial (or node set) it was found at
then.  None asserts a pass below a floor: that would pin a defect, and a
change that lowers a floor should move its row down, not break a test.  The
README's "What a pass rules out" table is this file's table.
"""

import pytest

from loewner import Interval, Power, Quotient
from loewner.classify import check_convex, check_halfplane, check_loewner, check_monotone

UNIT = Interval(0.0, 1.0, True, True)
CHECKS = {"monotone": check_monotone, "convex": check_convex,
          "loewner": check_loewner, "halfplane": check_halfplane}


def near_cubic(eps: float) -> Quotient:
    """x + eps x^3 on [0, 1]: neither operator monotone nor operator convex for eps > 0."""
    return Quotient((0.0, 1.0, 0.0, eps), (1.0,), UNIT)


def near_linear_power(delta: float) -> Power:
    """x^(1 + delta) on [0, inf): not operator monotone for delta > 0."""
    return Power(1.0 + delta)


# (family, parameter, check, the trial or node set the fail was found at)
FLOORS = [
    (near_cubic, 1e-2, "monotone", 3),
    (near_cubic, 1e-3, "loewner", 10),
    (near_cubic, 1e-4, "halfplane", 27),
    (near_cubic, 1e-6, "convex", 2),
    (near_linear_power, 1e-6, "monotone", 2),
    (near_linear_power, 1e-6, "loewner", 2),
    (near_linear_power, 1e-6, "halfplane", 2),
]


@pytest.mark.parametrize("family, param, check, found_at", FLOORS,
                         ids=[f"{f.__name__}-{p:g}-{c}" for f, p, c, _ in FLOORS])
def test_check_fails_at_its_floor(family, param, check, found_at):
    cert = CHECKS[check](family(param))
    assert cert.verdict == "fail"
    assert cert.trials <= found_at
