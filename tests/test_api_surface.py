"""Names that the benchmark (perfbench/) and the test suite import.

A cleanup that drops or moves one of these breaks the benchmark's workloads
or its tracer; this test makes that visible without running the benchmark.
"""

import inspect

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
