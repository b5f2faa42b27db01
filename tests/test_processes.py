"""Pipeline tests: main cycle, star process, backward process."""

import math

import numpy as np
import pytest

from loewner import (
    CertifyConfig,
    Constant,
    Interval,
    PipelineRun,
    Power,
    Quotient,
    as_rational,
    backward_process,
    identity,
    main_cycle,
    star_process,
)
from loewner.errors import NonFiniteValue, StageCertificationFailed

from catalog import SQRT, SQUARE, interior_grid

QUICK = CertifyConfig(trials=40, dims=(2, 3), seed=0)


# --- main cycle --------------------------------------------------------------

def test_main_cycle_sqrt_stage_values():
    run = main_cycle(SQRT, (1.0, 0.0))
    assert run.kind == "main"
    assert run.status == "completed"
    assert [s.index for s in run.stages] == [0, 1, 2, 3]
    assert [s.label for s in run.stages] == ["OM", "SOC", "OC", "OM"]

    # f1 = (sqrt(x) - 1)/(x - 1); f2 = -(sqrt(x) + 1); f3 = -1/sqrt(x)
    f1, f2, f3 = (run.stage(k).expr for k in (1, 2, 3))
    assert f1.eval_real(4.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert f1.eval_real(1.0) == pytest.approx(0.5, abs=1e-14)  # derivative fill
    assert f2.eval_real(4.0) == pytest.approx(-3.0, abs=1e-14)
    assert f3.eval_real(4.0) == pytest.approx(-0.5, abs=1e-14)

    xs = np.geomspace(0.01, 100.0, 200)
    want = (xs ** -0.5 - 1.0) / (xs ** 0.5 - 1.0)
    got = np.array([f3.eval_real(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-12


def test_main_cycle_points_recorded():
    run = main_cycle(SQRT, (1.0, 0.0))
    assert run.points == (1.0, 0.0)
    assert run.stage(1).point == 1.0
    assert run.stage(2).point is None        # neg-reciprocal consumes nothing
    assert run.stage(3).point == 0.0


def test_main_cycle_endpoint_center_opens_domain():
    # stage 3 differentiates at 0, the closed left endpoint of stage 2's
    # domain; the quotient only has a limit there, so 0 falls out
    run = main_cycle(SQRT, (1.0, 0.0))
    dom = run.stage(3).expr.domain
    assert dom.lo == 0.0 and not dom.lo_closed


def test_main_cycle_points_cycle_when_exhausted():
    # one anchor reused for both difference quotients of the cycle
    run = main_cycle(SQRT, (1.0,), cycles=1)
    assert run.stage(1).point == 1.0
    assert run.stage(3).point == 1.0


def test_main_cycle_empty_points_rejected():
    with pytest.raises(ValueError):
        main_cycle(SQRT, ())


def test_main_cycle_identity_terminates_at_zero():
    run = main_cycle(identity(), (1.0, 0.0), cycles=5)
    assert run.status == "terminated_zero"
    assert [s.index for s in run.stages] == [0, 1, 2, 3, 4]
    assert [s.label for s in run.stages] == ["OM", "SOC", "OC", "OM", "SOC"]
    # f1 = 1, f2 = -1, f3 = 0, and the surfaced zero stage f4 = 0
    for k in (3, 4):
        fk = run.stage(k).expr
        assert all(fk.eval_real(x) == 0.0 for x in np.linspace(-3.0, 3.0, 50))
    assert run.final is run.stage(4).expr


def test_main_cycle_constant_seed_stops_at_the_soc_stage():
    run = main_cycle(Constant(2.0, Interval(0.0, 3.0)), (1.0, 2.0), cycles=3)
    assert run.status == "terminated_zero"
    assert [s.label for s in run.stages] == ["OM", "SOC"]


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_main_cycle_of_a_non_finite_constant_raises_non_finite_value(c):
    # no rational form, so the zero test of the SOC stage scans a grid of NaNs
    with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
        main_cycle(Constant(c), (0.5,))


@pytest.mark.parametrize("process, counts", [
    (main_cycle, {"cycles": -2}), (star_process, {"steps": -1}),
    (backward_process, {"cycles": -1})], ids=["main", "star", "backward"])
def test_negative_stage_counts_are_rejected(process, counts):
    with pytest.raises(ValueError):
        process(SQRT, (1.0,), **counts)


def test_main_cycle_mobius_terminates_rational():
    f0 = Quotient((1.0, 2.0), (1.0, 1.0), Interval(-1.0, math.inf))
    assert as_rational(f0).degree == 1
    run = main_cycle(f0, (1.0, 0.0), cycles=5)
    assert run.status == "terminated_rational"
    assert [s.index for s in run.stages] == [0, 1, 2, 3]
    rat = as_rational(run.final)
    assert rat.degree == 0
    from fractions import Fraction
    assert rat(Fraction(7)) == Fraction(-2)


def test_main_cycle_certified_stages():
    run = main_cycle(SQRT, (1.0, 0.0), certify=True, config=QUICK)
    assert all(s.certificate is not None for s in run.stages)
    assert all(s.certificate.verdict == "pass" for s in run.stages)


def test_main_cycle_certify_rejects_bad_seed():
    with pytest.raises(StageCertificationFailed) as exc:
        main_cycle(SQUARE, (1.0, 0.0), certify=True, config=QUICK)
    assert exc.value.stage_index == 0
    assert exc.value.certificate.verdict == "fail"


# --- star process ------------------------------------------------------------

def test_star_labels_alternate():
    run = star_process(SQRT, (1.0, 0.0))
    assert run.kind == "star"
    assert [s.label for s in run.stages] == ["OM", "SOC", "OM"]
    assert run.stage(1).point == 1.0
    assert run.stage(2).point == 0.0
    assert run.status == "completed"


def test_star_second_stage_value():
    run = star_process(SQRT, (1.0, 0.0))
    f2 = run.stage(2).expr
    xs = np.geomspace(0.01, 100.0, 200)
    want = (xs ** -0.5 - 1.0) / (xs - 1.0)
    got = np.array([f2.eval_real(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-12


def test_star_default_steps_is_point_count():
    run = star_process(SQRT, (1.0, 2.0, 3.0))
    assert len(run.stages) == 4


def test_star_runs_through_zero_stages():
    # a zero stage is a fixed point of the quotient, not a stopping rule
    run = star_process(identity(), (1.0, 0.5, 2.0))
    assert run.status == "completed"
    assert [s.label for s in run.stages] == ["OM", "SOC", "OM", "SOC"]
    f3 = run.stage(3).expr
    assert all(f3.eval_real(x) == 0.0 for x in np.linspace(-3.0, 3.0, 50))


# --- backward process --------------------------------------------------------

def test_backward_indices_labels_and_slots():
    f0 = Power(0.5, Interval(0.0, 2.0, True, True))
    run = backward_process(f0, (1.0, 0.0), shifts=(-3.0, 0.0))
    assert run.kind == "backward"
    assert [s.index for s in run.stages] == [0, -1, -2, -3]
    assert [s.label for s in run.stages] == ["OM", "OC", "SOC", "OM"]
    assert (run.stage(-1).point, run.stage(-1).shift) == (1.0, -3.0)
    assert run.stage(-2).point is None and run.stage(-2).shift is None
    assert (run.stage(-3).point, run.stage(-3).shift) == (0.0, 0.0)


def test_backward_final_formula():
    f0 = Power(0.5, Interval(0.0, 2.0, True, True))
    run = backward_process(f0, (1.0, 0.0), shifts=(-3.0,))
    ys = np.linspace(0.01, 1.99, 200)
    want = ys / (3.0 - np.sqrt(ys) * (ys - 1.0))
    got = np.array([run.final.eval_real(y) for y in ys])
    assert np.max(np.abs(got - want)) < 1e-12


def test_backward_auto_shift_used_when_unspecified():
    # with no shift list the OC stage picks one via choose_shift, and the
    # shifted product must come out strictly negative on its domain
    f0 = Power(0.5, Interval(0.0, 2.0, True, True))
    run = backward_process(f0, (1.0, 0.0))
    c = run.stage(-1).shift
    assert c is not None and c < 0.0
    g = run.stage(-1).expr
    assert all(g.eval_real(x) < 0.0 for x in interior_grid(g.domain, 101))


def test_backward_om_stage_defaults_to_zero_shift():
    f0 = Power(0.5, Interval(0.0, 2.0, True, True))
    run = backward_process(f0, (1.0, 0.0), shifts=(-3.0,))
    assert run.stage(-3).shift == 0.0


# --- serialization -----------------------------------------------------------

def test_pipeline_run_json_round_trip():
    run = main_cycle(SQRT, (1.0, 0.0))
    back = PipelineRun.from_json(run.to_json())
    assert back.kind == run.kind and back.status == run.status
    assert back.points == run.points
    assert [s.index for s in back.stages] == [s.index for s in run.stages]
    assert [s.label for s in back.stages] == [s.label for s in run.stages]
    assert [s.point for s in back.stages] == [s.point for s in run.stages]
    for a, b in zip(run.stages, back.stages):
        for x in interior_grid(a.expr.domain, 40):
            assert b.expr.eval_real(x) == a.expr.eval_real(x)


def test_pipeline_run_json_keeps_certificates():
    run = backward_process(Power(0.5, Interval(0.0, 2.0, True, True)),
                           (1.0, 0.0), shifts=(-3.0, 0.0),
                           certify=True, config=QUICK)
    back = PipelineRun.from_json(run.to_json())
    assert all(s.certificate is not None for s in back.stages)
    assert [s.certificate.verdict for s in back.stages] == ["pass"] * 4
    assert (back.stage(-1).shift, back.stage(-3).shift) == (-3.0, 0.0)


def test_stage_lookup_missing_index():
    run = star_process(SQRT, (1.0,))
    with pytest.raises(KeyError):
        run.stage(7)
