"""Exact values of the measure-form leaf and its domain guard under Compose.

The hex floats were produced by the three per-form evaluators that the single
form kernel replaced; any change to an atom term's arithmetic or to the order
in which the terms are summed shows up here as a changed bit.
"""

import numpy as np
import pytest

from loewner import (
    Affine,
    Compose,
    DiscreteMeasure,
    Interval,
    MeasureForm,
    OCRep,
    OMRep,
    SOCRep,
)
from loewner.errors import DomainError

IV = Interval(-1.0, 2.0, True, False)
OM = OMRep(a=0.5, b=-0.25, x0=0.3, interval=IV,
           mu=DiscreteMeasure(((-1.5, 0.7), (2.5, 1.3))))
OC = OCRep(a=0.25, b=0.5, c=-1.0, x0=0.2, interval=IV,
           mu_plus=DiscreteMeasure(((2.5, 1.3), (4.0, 0.6))),
           mu_minus=DiscreteMeasure(((-1.5, 0.7),)))
SOC = SOCRep(a=0.5, interval=IV,
             mu_plus=DiscreteMeasure(((2.5, 1.3),)),
             mu_minus=DiscreteMeasure(((-1.5, 0.7), (-3.0, 0.2))))

XS = np.array([-1.0, -0.2, 0.3, 1.1, 1.9])
ZS = np.array([0.4 + 0.5j, -0.7 + 1e-3j, 1.5 + 2.0j])
DS = np.array([-0.5, 0.3, 1.7])

OM_REAL = ["-0x1.fb080d981f536p+0", "-0x1.37cee1c752c2bp-1", "-0x1.999999999999ap-4",
           "0x1.83bf81c990f64p-1", "0x1.3ab8c84c2d256p+1"]
OM_COMPLEX = [("-0x1.6005ca112107ap-7", "0x1.ebaeaf13a26edp-2"),
              ("-0x1.45511be4c9057p+0", "0x1.c3125104d853dp-10"),
              ("0x1.95f4b7bb313a1p-2", "0x1.a0b0716d7d3e4p+0")]
OM_DERIV = ["0x1.582d82d82d82dp+0", "0x1.f823505eddf74p-1", "0x1.4cbffffffffffp+1"]

PINNED = {
    "om": (OM, OM_REAL, OM_COMPLEX, OM_DERIV),
    "oc": (OC,
           ["-0x1.c1e47cfd2719cp-2", "-0x1.0b466c1bd2816p+0", "-0x1.a65c92e9878b6p-1",
            "0x1.4ed5c918294e3p-4", "0x1.264da65516f0bp+1"],
           [("-0x1.beb64acea9a06p-1", "0x1.988e270a95306p-2"),
            ("-0x1.d366d2dae9ed7p-1", "-0x1.b5a1d0d2f1ec6p-11"),
            ("-0x1.5027abdb7f98dp+0", "0x1.78382a82916aep+1")],
           ["-0x1.48b6ab915fd18p-2", "0x1.670f7711c87cap-1", "0x1.b0cc1ab4c5ae4p+1"]),
    "soc": (SOC,
            ["0x1.2f8af8af8af8bp+1", "0x1.976420ecb9764p+0", "0x1.8a57eb50295fap+0",
             "0x1.bf200afa7136cp+0", "0x1.74e927d97b710p+1"],
            [("0x1.7cebeaf018778p+0", "0x1.4a7f81a1e2ed0p-5"),
             ("0x1.de42b0780880dp+0", "-0x1.0759b908d848ep-10"),
             ("0x1.ead46ac4d35c8p-1", "0x1.954ff683e4cffp-2")],
            ["-0x1.2cd414ef63711p-1", "0x1.18010b77721e8p-5", "0x1.f42ea5422c450p+0"]),
}


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def complex_hexes(values):
    return [(float(v.real).hex(), float(v.imag).hex()) for v in np.ravel(values)]


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_measure_form_channels_are_bit_exact(kind):
    rep, real, cplx, deriv = PINNED[kind]
    node = MeasureForm(rep)
    assert node.kind == f"measure_{kind}"
    assert hexes(node.eval_real(XS)) == real
    assert complex_hexes(node.eval_complex(ZS)) == cplx
    assert hexes(node.eval_deriv(DS)) == deriv


def test_module_level_evaluators_are_bit_exact():
    # the representation's own checked evaluator, rep(x), runs the same kernel
    assert hexes(OM(XS)) == OM_REAL
    assert float(OM(0.7)).hex() == "0x1.3544c8a9a1e00p-2"


@pytest.mark.parametrize("rep", [OM, OC, SOC], ids=["om", "oc", "soc"])
def test_compose_with_a_measure_outer_checks_the_form_interval(rep):
    # inner maps [0, 1] onto [0, 3]; the form lives on [-1, 2)
    comp = Compose(MeasureForm(rep), Affine(3.0, 0.0, Interval(0.0, 1.0, True, True)))
    assert np.isfinite(comp.eval_real(0.5))
    with pytest.raises(DomainError):
        comp.eval_real(0.9)
