"""Names that the benchmark (perfbench/) and the test suite import.

A cleanup that drops or moves one of these breaks the benchmark's workloads
or its tracer; this test makes that visible without running the benchmark.
"""

import inspect

import pytest

import loewner
from loewner import funexpr, measures, processes

TOP_LEVEL = (
    "Interval", "Power", "Quotient", "DiscreteMeasure", "OMRep", "OCRep", "SOCRep",
    "MeasureForm", "MeasureOM", "MeasureOC", "MeasureSOC", "Certificate",
    "classify_all", "replay_witness", "recover_atom_weight", "to_json",
    "eval_om", "eval_oc", "eval_soc",
)
MEASURES = (
    "eval_om", "eval_oc", "eval_soc", "eval_om_complex", "eval_oc_complex",
    "eval_soc_complex", "deriv_om", "deriv_oc", "deriv_soc",
)
CHANNELS = ("eval_real", "eval_complex", "eval_deriv")


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_package_exports(name):
    assert hasattr(loewner, name)


@pytest.mark.parametrize("name", MEASURES)
def test_measure_evaluators_importable(name):
    assert callable(getattr(measures, name))


def test_pipeline_helpers_importable():
    assert callable(processes.rational_degree_of)


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
