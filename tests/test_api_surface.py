"""Names that the benchmark (perfbench/) and the test suite import.

A cleanup that drops or moves one of these breaks the benchmark's workloads
or its tracer; this test makes that visible without running the benchmark.
"""

import importlib
import inspect
import pathlib
import sys
import types

import pytest

import loewner
from loewner import cli, classify, funexpr, matcalc, measures, processes, ratpoly
from loewner import scanning, transforms

TOP_LEVEL = (
    "Interval", "Power", "Quotient", "DiscreteMeasure", "OMRep", "OCRep", "SOCRep",
    "MeasureForm", "MeasureOM", "MeasureOC", "MeasureSOC", "Certificate",
    "classify_all", "replay_witness", "recover_atom_weight", "to_json",
)
CHANNELS = ("eval_real", "eval_complex", "eval_deriv")
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("classify-pass", "classify-fail", "pipeline-cli", "recover-atoms")
# every function the benchmark's tracer (perfbench/spans.py, LAYER_FUNCTIONS)
# wraps; a run without tracing never imports the tracer, so only this shows a
# renamed or moved target before a traced run fails
TRACED = {
    matcalc: ("apply_fn", "rand_hermitian", "rand_ordered_pair", "haar_unitary"),
    classify: ("check_monotone", "check_convex", "check_strong", "check_loewner",
               "check_halfplane", "replay_witness"),
    measures: ("recover_atom_weight",),
    scanning: ("check_positive", "check_negative", "is_zero_on_grid", "check_bounded"),
    transforms: ("diff_quotient", "neg_reciprocal", "mul_linear", "choose_shift",
                 "compose_checked"),
    ratpoly: ("as_rational",),
    processes: ("main_cycle", "star_process", "backward_process", "_certify"),
    cli: ("main",),
}


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_package_exports(name):
    assert hasattr(loewner, name)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in TRACED.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v))
def test_traced_functions_exist(module, name):
    assert inspect.isfunction(getattr(module, name))


def test_old_leaf_names_build_the_measure_form():
    for name in ("MeasureOM", "MeasureOC", "MeasureSOC"):
        assert getattr(funexpr, name) is funexpr.MeasureForm


def test_evaluation_channels_live_only_on_the_base_class():
    # the benchmark's tracer times every node by wrapping these three methods
    # on FunctionExpr; an override in a subclass would escape it
    for channel in CHANNELS:
        assert channel in vars(funexpr.FunctionExpr)
    nodes = [cls for _, cls in inspect.getmembers(funexpr, inspect.isclass)
             if issubclass(cls, funexpr.FunctionExpr) and cls is not funexpr.FunctionExpr]
    assert nodes
    for cls in nodes:
        for klass in cls.__mro__:
            if klass is funexpr.FunctionExpr:
                break
            assert not set(CHANNELS) & set(vars(klass)), cls.__name__


@pytest.fixture(scope="module")
def bench():
    """The benchmark's harness, tracer and workloads, imported from perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(m) for m in ("run", "spans", "workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_tracer_self_check(bench, workload, tmp_path, monkeypatch):
    # what `perfbench/run.py --trace 1` checks, on two runs of one request: the
    # first on a cold draw cache, the second on the warm one, as the traced
    # passes of a run are.  Each run is correct, both count alike, and every
    # layer count the workload must exercise is nonzero in the second
    run, spans, workloads = bench
    item = run.set_up(workloads, workload, 1, str(tmp_path))[0]
    request = workloads.WORKLOADS[workload][1]
    ctx = types.SimpleNamespace(work_dir=str(tmp_path), in_process=True, first_bytes={})
    monkeypatch.setattr(classify, "_DRAWS", classify._DrawCache())
    snapshots = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            ok, _, extra = tracer.span("request", request, (item, ctx), {})
        finally:
            tracer.uninstall()
        assert ok
        snapshots.append(tracer.snapshot())
    assert snapshots[0] == snapshots[1]
    _, counts = run.layer_metrics(tracer, 1, [extra], 1.0, 1.0, 0.0)
    assert [k for k in run.DOMINANT[workload] if not counts.get(k)] == []
