"""Multi-stage construction pipelines over the three function classes.

Three processes, all driven by a seed function and a list of anchor points
(consumed cyclically when a process outlives the list):

* main_cycle:       OM --diffquot--> SOC --(-1/f)--> OC --diffquot--> OM ...
* star_process:     repeated difference quotients, classes alternating
                    OM, SOC, OM, SOC, ...
* backward_process: OM --(*(x-x0)+c, c<0)--> OC --(-1/f)--> SOC
                    --(*(x-x1)+c)--> OM ...  (runs the cycle in reverse)

A main cycle stops early when a difference-quotient stage in SOC position
is identically zero ("terminated_zero") or when an OM stage collapses to a
nonzero rational of degree 0 ("terminated_rational" — the degree of a
rational seed drops by one per full cycle, so this is the generic end).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .classify import CertifyConfig, check_convex, check_monotone, check_strong
from .errors import NotRational, StageCertificationFailed
from .funexpr import FunctionExpr
from .interval import json_fields
from .ratpoly import as_rational
from .scanning import is_zero_on_grid
from .transforms import choose_shift, diff_quotient, mul_linear, neg_reciprocal

__all__ = ["PipelineStage", "PipelineRun", "main_cycle", "star_process", "backward_process"]


@dataclass(frozen=True)
class PipelineStage:
    index: int
    label: str                  # "OM" | "SOC" | "OC"
    expr: FunctionExpr
    point: float = None         # anchor consumed to build this stage
    shift: float = None         # additive constant, for mul-linear stages
    certificate: object = None

    def to_json(self) -> dict:
        return json_fields(self, {"expr": "function"})


@dataclass(frozen=True)
class PipelineRun:
    kind: str                   # "main" | "star" | "backward"
    stages: tuple
    points: tuple
    status: str                 # "completed" | "terminated_zero" | "terminated_rational"
    inconsistencies: tuple = ()

    @property
    def final(self) -> FunctionExpr:
        return self.stages[-1].expr

    def stage(self, index: int) -> PipelineStage:
        for s in self.stages:
            if s.index == index:
                return s
        raise KeyError(f"no stage with index {index}")

    to_json = json_fields


_CHECKS = {"OM": check_monotone, "OC": check_convex, "SOC": check_strong}


def _certify(stage: PipelineStage, certify: bool,
             config: CertifyConfig) -> PipelineStage:
    if not certify:
        return stage
    cert = _CHECKS[stage.label](stage.expr, config)
    if cert.verdict == "fail":
        raise StageCertificationFailed(stage.index, cert)
    return replace(stage, certificate=cert)


def _rational_or_none(fn: FunctionExpr):
    """The exact rational form of fn, or None when fn is not rational."""
    try:
        return as_rational(fn)
    except NotRational:
        return None


def _is_zero_stage(fn: FunctionExpr) -> bool:
    rat = _rational_or_none(fn)
    return is_zero_on_grid(fn.eval_real, fn.domain) if rat is None else rat.is_zero


def _inputs(points, name: str, count, default) -> tuple:
    """(points as a tuple of floats, the stage count ``name``): at least one
    point, and a count >= 0, ``default(points)`` when None."""
    points = tuple(float(p) for p in points)
    if not points:
        raise ValueError("need at least one anchor point")
    if count is None:
        return points, default(points)
    if count < 0:
        raise ValueError(f"{name} must be >= 0, got {count}")
    return points, count


def _half(points: tuple) -> int:
    return max(1, math.ceil(len(points) / 2))


def main_cycle(f0: FunctionExpr, points, cycles: int = None,
               certify: bool = False,
               config: CertifyConfig = CertifyConfig()) -> PipelineRun:
    """Run the three-step cycle starting from an operator monotone seed.

    Each cycle consumes two anchors (cyclically).  Stages are indexed
    f_0, f_1, f_2, ... with labels OM, SOC, OC, OM, SOC, OC, ...
    """
    points, cycles = _inputs(points, "cycles", cycles, _half)
    anchors = itertools.cycle(points)

    stages = [_certify(PipelineStage(0, "OM", f0), certify, config)]
    status = "completed"
    for _ in range(cycles):
        p = next(anchors)
        soc = PipelineStage(len(stages), "SOC",
                            diff_quotient(stages[-1].expr, p), point=p)
        vanished = _is_zero_stage(soc.expr)
        stages.append(_certify(soc, certify, config))
        if vanished:
            status = "terminated_zero"
            break

        oc = PipelineStage(len(stages), "OC", neg_reciprocal(soc.expr, positive=True))
        stages.append(_certify(oc, certify, config))

        p = next(anchors)
        om = PipelineStage(len(stages), "OM", diff_quotient(oc.expr, p), point=p)
        stages.append(_certify(om, certify, config))

        rat = _rational_or_none(om.expr)
        if rat is not None:
            if rat.is_zero:
                # the next difference quotient is identically zero whatever
                # the anchor; surface the zero in SOC position and stop
                p = next(anchors)
                zero = PipelineStage(len(stages), "SOC",
                                     diff_quotient(om.expr, p), point=p)
                stages.append(_certify(zero, certify, config))
                status = "terminated_zero"
                break
            if rat.degree == 0:
                status = "terminated_rational"
                break
    return PipelineRun("main", tuple(stages), points, status)


def star_process(f0: FunctionExpr, points, steps: int = None,
                 certify: bool = False,
                 config: CertifyConfig = CertifyConfig()) -> PipelineRun:
    """Repeated difference quotients; the class alternates OM, SOC, OM, ...

    Runs through identically-zero stages without terminating (a zero is a
    fixed point of the difference quotient, not an error here).
    """
    points, steps = _inputs(points, "steps", steps, len)

    stages = [_certify(PipelineStage(0, "OM", f0), certify, config)]
    for k in range(steps):
        p = points[k % len(points)]
        label = "SOC" if k % 2 == 0 else "OM"
        nxt = PipelineStage(k + 1, label,
                            diff_quotient(stages[-1].expr, p), point=p)
        stages.append(_certify(nxt, certify, config))
    return PipelineRun("star", tuple(stages), points, "completed")


def backward_process(f0: FunctionExpr, points, shifts=None,
                     cycles: int = None, certify: bool = False,
                     config: CertifyConfig = CertifyConfig()) -> PipelineRun:
    """Run the cycle in reverse from an operator monotone seed.

    Stage -1 is f0(x)(x - x0) + c with c forced negative (given, or picked
    by choose_shift); stage -2 is -1/(stage -1); stage -3 multiplies by the
    next linear factor (shift defaults to 0).  Stages are indexed 0, -1,
    -2, ... with labels OM, OC, SOC, OM, ...
    """
    points, cycles = _inputs(points, "cycles", cycles, _half)
    shifts = list(shifts) if shifts is not None else []
    anchors = enumerate(itertools.cycle(points))

    def shift(k: int, fn, x0: float, auto: bool) -> float:
        # slot k belongs to the k-th anchor taken
        if k < len(shifts) and shifts[k] is not None:
            return float(shifts[k])
        return choose_shift(fn, x0) if auto else 0.0

    stages = [_certify(PipelineStage(0, "OM", f0), certify, config)]
    for _ in range(cycles):
        k, p = next(anchors)
        c = shift(k, stages[-1].expr, p, auto=True)
        oc = PipelineStage(-len(stages), "OC", mul_linear(stages[-1].expr, p, c),
                           point=p, shift=c)
        stages.append(_certify(oc, certify, config))

        soc = PipelineStage(-len(stages), "SOC",
                            neg_reciprocal(oc.expr, positive=False))
        stages.append(_certify(soc, certify, config))

        k, p = next(anchors)
        c = shift(k, stages[-1].expr, p, auto=False)
        om = PipelineStage(-len(stages), "OM", mul_linear(soc.expr, p, c),
                           point=p, shift=c)
        stages.append(_certify(om, certify, config))
    return PipelineRun("backward", tuple(stages), points, "completed")
