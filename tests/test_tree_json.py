"""Pins of the function JSON layout.

Each string is ``json.dumps(to_json(fn), sort_keys=True)`` as the per-node
encoders that the field-driven codec replaced wrote it; each digest is the
sha256 of that text for the last stage of a construction run, whose tree
nests difference quotients, negated reciprocals and multiply-by-linear nodes.
A renamed key, a changed value or a changed nesting shows up here, and every
pinned tree must read back equal from its text.
"""

import hashlib
import json
import math
from dataclasses import fields

import pytest

from loewner import (
    Affine,
    Constant,
    DiscreteMeasure,
    Interval,
    MeasureForm,
    OCRep,
    OMRep,
    Power,
    Quotient,
    SOCRep,
    backward_process,
    from_json,
    main_cycle,
    star_process,
    to_json,
)
from loewner import funexpr
from loewner.funexpr import Catalog, Compose, DiffQuot, MulLinear, NegRecip, Reciprocal

SQRT = Power(0.5)
UNIT = Interval(0.0, 1.0)
SOC = SOCRep(a=0.1, mu_plus=DiscreteMeasure(((1.0, 0.7),)),
             mu_minus=DiscreteMeasure(()), interval=UNIT)
KINDS = {"constant", "affine", "power", "reciprocal", "catalog", "quotient",
         "diffquot", "negrecip", "mullinear", "compose",
         "measure_om", "measure_oc", "measure_soc"}

TREES = {
    "constant": Constant(2.5),
    "affine": Affine(2.0, -1.0, Interval(0.0, 1.0, True, False)),
    "power": SQRT,
    "power_left": Power(-1.0, Interval(-3.0, -1.0, True, True)),
    "reciprocal": Reciprocal(),
    "catalog": Catalog("power_diff_mirror", {"alpha": 0.5}),
    "catalog_log": Catalog("log", (), Interval(1.0, 2.0, True, True)),
    "quotient": Quotient((1.0, 2.0), (1.0, 1.0), Interval(-1.0, math.inf)),
    "diffquot": DiffQuot(SQRT, 0.0),
    "negrecip": NegRecip(DiffQuot(SQRT, 1.0)),
    "negrecip_not_positive": NegRecip(Affine(1.0, -2.0, UNIT), positive_child=False),
    "mullinear": MulLinear(NegRecip(DiffQuot(SQRT, 1.0)), 0.0, -0.25),
    "compose": Compose(Quotient((0.0, 1.0), (1.0, 1.0),
                                Interval(0.0, math.inf, lo_closed=True)), SQRT),
    "measure_om": MeasureForm(OMRep(
        a=1.0, b=-0.5, x0=0.25, mu=DiscreteMeasure(((2.0, 3.0), (-1.5, 0.5))),
        interval=UNIT)),
    "measure_oc": MeasureForm(OCRep(
        a=0.5, b=1.0, c=0.3, x0=0.5, mu_plus=DiscreteMeasure(((4.0, 2.0),)),
        mu_minus=DiscreteMeasure(((-1.0, 0.25),)),
        interval=Interval(0.0, 2.0, True, False))),
    "measure_soc": MeasureForm(SOC),
    "nested": Compose(MulLinear(DiffQuot(MeasureForm(SOC), 0.5), 1.0, 0.0),
                      NegRecip(Catalog("log", (), Interval(2.0, 3.0)))),
}

PINNED = {
    "constant": (
        '{"c": 2.5, "domain": {"hi": "inf", "hi_closed": false, '
        '"lo": "-inf", "lo_closed": false}, "kind": "constant"}'),
    "affine": (
        '{"a": 2.0, "b": -1.0, "domain": {"hi": 1.0, "hi_closed": false, '
        '"lo": 0.0, "lo_closed": true}, "kind": "affine"}'),
    "power": (
        '{"alpha": 0.5, "domain": {"hi": "inf", "hi_closed": false, '
        '"lo": 0.0, "lo_closed": true}, "kind": "power"}'),
    "power_left": (
        '{"alpha": -1.0, "domain": {"hi": -1.0, "hi_closed": true, '
        '"lo": -3.0, "lo_closed": true}, "kind": "power"}'),
    "reciprocal": (
        '{"domain": {"hi": "inf", "hi_closed": false, "lo": 0.0, '
        '"lo_closed": false}, "kind": "reciprocal"}'),
    "catalog": (
        '{"domain": {"hi": 2.0, "hi_closed": true, "lo": 0.0, '
        '"lo_closed": true}, "kind": "catalog", "name": "power_diff_mirror", '
        '"params": {"alpha": 0.5}}'),
    "catalog_log": (
        '{"domain": {"hi": 2.0, "hi_closed": true, "lo": 1.0, '
        '"lo_closed": true}, "kind": "catalog", "name": "log", '
        '"params": {}}'),
    "quotient": (
        '{"den": [1.0, 1.0], "domain": {"hi": "inf", "hi_closed": false, '
        '"lo": -1.0, "lo_closed": false}, "kind": "quotient", "num": [1.0, '
        '2.0]}'),
    "diffquot": (
        '{"child": {"alpha": 0.5, "domain": {"hi": "inf", '
        '"hi_closed": false, "lo": 0.0, "lo_closed": true}, '
        '"kind": "power"}, "kind": "diffquot", "x0": 0.0}'),
    "negrecip": (
        '{"child": {"child": {"alpha": 0.5, "domain": {"hi": "inf", '
        '"hi_closed": false, "lo": 0.0, "lo_closed": true}, '
        '"kind": "power"}, "kind": "diffquot", "x0": 1.0}, '
        '"kind": "negrecip", "positive_child": true}'),
    "negrecip_not_positive": (
        '{"child": {"a": 1.0, "b": -2.0, "domain": {"hi": 1.0, '
        '"hi_closed": false, "lo": 0.0, "lo_closed": false}, '
        '"kind": "affine"}, "kind": "negrecip", "positive_child": false}'),
    "mullinear": (
        '{"c": -0.25, "child": {"child": {"child": {"alpha": 0.5, '
        '"domain": {"hi": "inf", "hi_closed": false, "lo": 0.0, '
        '"lo_closed": true}, "kind": "power"}, "kind": "diffquot", '
        '"x0": 1.0}, "kind": "negrecip", "positive_child": true}, '
        '"kind": "mullinear", "x0": 0.0}'),
    "compose": (
        '{"inner": {"alpha": 0.5, "domain": {"hi": "inf", '
        '"hi_closed": false, "lo": 0.0, "lo_closed": true}, '
        '"kind": "power"}, "kind": "compose", "outer": {"den": [1.0, 1.0], '
        '"domain": {"hi": "inf", "hi_closed": false, "lo": 0.0, '
        '"lo_closed": true}, "kind": "quotient", "num": [0.0, 1.0]}}'),
    "measure_om": (
        '{"a": 1.0, "atoms_minus": [[-1.5, 0.5]], "atoms_plus": [[2.0, '
        '3.0]], "b": -0.5, "interval": {"hi": 1.0, "hi_closed": false, '
        '"lo": 0.0, "lo_closed": false}, "kind": "measure_om", "x0": 0.25}'),
    "measure_oc": (
        '{"a": 0.5, "atoms_minus": [[-1.0, 0.25]], "atoms_plus": [[4.0, '
        '2.0]], "b": 1.0, "c": 0.3, "interval": {"hi": 2.0, '
        '"hi_closed": false, "lo": 0.0, "lo_closed": true}, '
        '"kind": "measure_oc", "x0": 0.5}'),
    "measure_soc": (
        '{"a": 0.1, "atoms_minus": [], "atoms_plus": [[1.0, 0.7]], '
        '"interval": {"hi": 1.0, "hi_closed": false, "lo": 0.0, '
        '"lo_closed": false}, "kind": "measure_soc"}'),
    "nested": (
        '{"inner": {"child": {"domain": {"hi": 3.0, "hi_closed": false, '
        '"lo": 2.0, "lo_closed": false}, "kind": "catalog", "name": "log", '
        '"params": {}}, "kind": "negrecip", "positive_child": true}, '
        '"kind": "compose", "outer": {"c": 0.0, '
        '"child": {"child": {"a": 0.1, "atoms_minus": [], '
        '"atoms_plus": [[1.0, 0.7]], "interval": {"hi": 1.0, '
        '"hi_closed": false, "lo": 0.0, "lo_closed": false}, '
        '"kind": "measure_soc"}, "kind": "diffquot", "x0": 0.5}, '
        '"kind": "mullinear", "x0": 1.0}}'),
}
STAGE_DIGESTS = {
    "power_main": "812b22dce9401403342af384eeeb691a495ffd626303af4d428466b5dcd9a37e",
    "power_star": "b2a59ee8889dcf33d3ea9aaf141478c1566a53ff576a62f1aab732e67ae76106",
    "power_backward": "f1a24221d86803fb344bfe69b3b41607b844f498e9c9319e91b97e797c61cc6d",
    "measure_main": "0d3f4e3904b52bba86f9084a0012245d49715a7fdf9f55d1ecbc9292a707e76a",
    "measure_star": "7977987c16a8858837fc5cf2b1fb30417c79deddc9c976f4664dbe3d3570aaea",
    "measure_backward": "6040912befc085092097f0a4aa432c8d51208e7f5ba64978241c5f9675981e03",
    "quotient_main": "a6af5657ca682d49d391ab174db432fad28fc87eda30660a8933cc252c30078f",
    "quotient_star": "41d422f78ef033f5f5d27eba81584614d9ff6e85d56ba673e8e40625e827d048",
    "quotient_backward": "4b23c0597ef298a5d554bdd07dd63e6a648e93a85b95d147985fbe88ec5e9e40",
}

MEASURE_SEED = MeasureForm(OMRep(
    a=0.5, b=0.0, x0=0.5, mu=DiscreteMeasure(((2.0, 1.0), (-1.0, 0.5))),
    interval=UNIT))
# seed -> (seed, the seed on a bounded domain for the backward process, anchors)
SEEDS = {
    "power": (SQRT, Power(0.5, Interval(0.0, 2.0, True, True)), (1.0, 0.0)),
    "measure": (MEASURE_SEED, MEASURE_SEED, (0.3, 0.7)),
    "quotient": (TREES["quotient"],
                 Quotient((1.0, 2.0), (1.0, 1.0), Interval(0.0, 4.0, True, True)),
                 (1.0, 0.0)),
}


def final_tree(name):
    seed, process = name.split("_")
    fn, bounded, points = SEEDS[seed]
    if process == "main":
        return main_cycle(fn, points, cycles=2).final
    if process == "star":
        return star_process(fn, points, steps=3).final
    return backward_process(bounded, points, cycles=1).final


def test_pinned_trees_cover_every_kind():
    assert {fn.kind for fn in TREES.values()} == KINDS


def test_every_field_is_read_through_a_json_decoder():
    # a field whose annotation has no decoder reaches its node as the spec
    # wrote it, where float() would take "2.5" or true as a number
    for cls in funexpr._KINDS.values():
        for f in fields(cls):
            if f.init:
                assert f.type in funexpr._DECODE or f.type == "str", (cls.kind, f.name)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tree_json_is_pinned(name):
    text = json.dumps(to_json(TREES[name]), sort_keys=True)
    assert text == PINNED[name]
    assert from_json(json.loads(text)) == TREES[name]


@pytest.mark.parametrize("name", sorted(STAGE_DIGESTS))
def test_stage_tree_json_is_pinned(name):
    fn = final_tree(name)
    text = json.dumps(to_json(fn), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == STAGE_DIGESTS[name]
    assert from_json(json.loads(text)) == fn
