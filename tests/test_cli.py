"""End-to-end CLI tests, run in process through main(argv), and one run as a
process, to see all that it writes to stderr."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import loewner
from loewner import (
    CertifyConfig,
    DiscreteMeasure,
    Interval,
    OCRep,
    OMRep,
    Power,
    SOCRep,
    classify_all,
    rep_from_json,
    rep_to_json,
    to_json,
)
from loewner.cli import main

from catalog import SQRT, SQUARE

FAST = {"trials": 40, "dims": [2, 3], "seed": 0}


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


# --- classify ----------------------------------------------------------------------

def test_classify_writes_certificates_and_values(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": FAST})
    out = tmp_path / "out"
    assert main(["classify", "--spec", spec, "--out", str(out)]) == 0

    doc = read_json(out, "certificates.json")
    assert doc["config"] == {"trials": 40, "dims": [2, 3], "tol": 1e-9, "seed": 0}
    assert doc["function"]["kind"] == "power"
    verdicts = {k: v["verdict"] for k, v in doc["result"]["certificates"].items()}
    assert verdicts["monotone"] == "pass"
    assert verdicts["convex"] == "fail"       # concave, so convexity must fail
    assert doc["result"]["flags"] == []

    lines = (out / "values.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 202                   # header + one row per grid point


def test_classify_rerun_is_byte_identical(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": FAST})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["classify", "--spec", spec, "--out", str(out1)]) == 0
    assert main(["classify", "--spec", spec, "--out", str(out2)]) == 0
    for name in ("certificates.json", "values.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_classify_seed_precedence(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, {
        "function": to_json(SQRT),
        "config": {"trials": 5, "dims": [2], "seed": 1},
    })

    def seed_of(out, extra=()):
        assert main(["classify", "--spec", spec, "--out", str(out), *extra]) == 0
        return read_json(out, "certificates.json")["config"]["seed"]

    monkeypatch.delenv("LOEWNER_SEED", raising=False)
    assert seed_of(tmp_path / "o1") == 1                  # spec config
    monkeypatch.setenv("LOEWNER_SEED", "2")
    assert seed_of(tmp_path / "o2") == 2                  # env overrides spec
    assert seed_of(tmp_path / "o3", ("--seed", "3")) == 3  # flag overrides env


def test_non_integer_env_seed_is_parse_error(tmp_path, monkeypatch, capsys):
    spec = write_spec(tmp_path, {"function": to_json(SQRT)})
    monkeypatch.setenv("LOEWNER_SEED", "abc")
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert "LOEWNER_SEED" in capsys.readouterr().err


def test_trials_and_dims_flags_override_config(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": FAST})
    out = tmp_path / "out"
    assert main(["classify", "--spec", spec, "--out", str(out),
                 "--trials", "7", "--dims", "2..4"]) == 0
    cfg = read_json(out, "certificates.json")["config"]
    assert cfg["trials"] == 7
    assert cfg["dims"] == [2, 3, 4]

    out2 = tmp_path / "out2"
    assert main(["classify", "--spec", spec, "--out", str(out2),
                 "--trials", "7", "--dims", "2,5"]) == 0
    assert read_json(out2, "certificates.json")["config"]["dims"] == [2, 5]


def test_bad_dims_flag_is_parse_error(tmp_path, capsys):
    spec = write_spec(tmp_path, {"function": to_json(SQRT)})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--dims", "0"]) == 2
    assert "dims" in capsys.readouterr().err


def test_dims_flag_below_two_is_parse_error(tmp_path, capsys):
    spec = write_spec(tmp_path, {"function": to_json(SQRT)})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--dims", "1"]) == 2
    assert "dims" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"dims": []},
    {"dims": [1]},
    {"dims": [2, 1]},
    {"dims": 3},
    {"trials": "abc"},
    {"trials": -1},
    {"tol": "tiny"},
    {"tol": -1.0},
    {"seed": "s"},
    {"seed": -1},
    {"trials": 2.5},
    {"dims": [2.5]},
    {"seed": True},
    {"tol": True},
    [["trials", 5]],
    "",
    [],
], ids=["dims-empty", "dims-1", "dims-2-1", "dims-scalar", "trials", "trials-negative",
        "tol", "tol-negative", "seed", "seed-negative", "trials-float", "dims-float",
        "seed-bool", "tol-bool", "config-pairs", "config-empty-string", "config-empty-list"])
def test_malformed_spec_config_is_eval_error(tmp_path, capsys, config):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": config})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("loewner: ")


# --- input validation --------------------------------------------------------------

def test_unparsable_json_reports_byte_offset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"function": }')
    assert main(["classify", "--spec", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "byte offset" in capsys.readouterr().err


def test_missing_spec_file_is_parse_error(tmp_path, capsys):
    assert main(["classify", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "cannot read spec" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_unusable_out_is_parse_error(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("")
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": FAST})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / out)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_missing_function_entry_is_eval_error(tmp_path):
    spec = write_spec(tmp_path, {"config": FAST})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def test_invalid_function_domain_is_eval_error(tmp_path, capsys):
    spec = write_spec(tmp_path, {"function": {
        "kind": "power", "alpha": -1.0,
        "domain": {"lo": -1.0, "hi": 1.0},
    }})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    assert "bad function" in capsys.readouterr().err


def test_overflowing_gap_is_eval_error(tmp_path, capsys):
    # gaps of 1e308 x stay finite, but their Hermitian part must not overflow
    spec = write_spec(tmp_path, {"function": {
        "kind": "affine", "a": 1e308, "b": 0.0,
        "domain": {"lo": 0.0, "hi": 1.0, "lo_closed": True, "hi_closed": True},
    }})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["classify", "--spec", spec, "--out", str(out), "--trials", "3"]) == 3
    assert capsys.readouterr().err.startswith("loewner: NonFiniteValue")


def test_a_non_finite_run_writes_only_its_error_to_stderr(tmp_path):
    # on the real line f(h) of 1e308 x overflows inside numpy, which would warn
    spec = write_spec(tmp_path, {"function": {"kind": "affine", "a": 1e308, "b": 0.0}})
    src = str(pathlib.Path(loewner.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-W", "default", "-m", "loewner.cli", "classify", "--spec", spec,
         "--out", str(tmp_path / "o"), "--trials", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 3
    assert run.stderr.splitlines() == [
        "loewner: NonFiniteValue: operator_monotone trial 0: the monotone matrix has a "
        "non-finite entry"]


MEASURE_OM = {"kind": "measure_om", "a": 1.0, "b": 0.0, "x0": 0.5, "atoms_plus": [[2.0, 1.0]],
              "interval": {"lo": 0.0, "hi": 1.0}}


@pytest.mark.parametrize("function", [
    {"kind": "catalog", "name": "log", "params": [1, 2]},
    {"kind": "power", "alpha": 0.5,
     "domain": {"lo": 0.0, "hi": 1.0, "lo_closed": "false"}},
    {"kind": "quotient", "num": [1.0, 2.0]},
    {"kind": "constant", "c": float("nan")},   # json.dumps writes NaN
    {"kind": "quotient", "num": [1.0], "den": [0, 0]},
    {"kind": "quotient", "num": [1.0], "den": []},
    # a string or a boolean where a number, a list of numbers or a flag belongs
    {"kind": "quotient", "num": "12", "den": [1]},
    {"kind": "power", "alpha": "2.5"},
    {"kind": "constant", "c": True},
    {"kind": "negrecip", "child": {"kind": "constant", "c": 2.0}, "positive_child": "false"},
    {"kind": "catalog", "name": "power_diff_mirror", "params": {"alpha": "0.5"}},
    {"kind": "power", "alpha": 0.5, "domain": {"lo": True, "hi": 2.0}},
    {**MEASURE_OM, "x0": "0.5"},
    {**MEASURE_OM, "atoms_plus": [[2.0, True]]},
    {"kind": "power", "alpha": 0.5, "domain": {"lo": 0, "hi": 1e-300, "lo_closed": True}},
], ids=["catalog-params-list", "interval-flag-string", "quotient-no-den",
        "constant-nan", "quotient-den-zero", "quotient-den-empty", "quotient-num-string",
        "power-alpha-string", "constant-c-bool", "negrecip-flag-string",
        "catalog-param-string", "interval-lo-bool", "measure-x0-string",
        "measure-atom-bool", "domain-too-thin-to-sample"])
def test_malformed_function_spec_is_eval_error(tmp_path, capsys, function):
    spec = write_spec(tmp_path, {"function": function, "config": FAST})
    out = tmp_path / "o"
    assert main(["classify", "--spec", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("loewner: ")
    assert not (out / "certificates.json").exists()


# --- pipeline ----------------------------------------------------------------------

def test_pipeline_main_artifacts(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT),
                                 "process": "main", "points": [1.0, 0.0]})
    out = tmp_path / "out"
    assert main(["pipeline", "--spec", spec, "--out", str(out)]) == 0

    run = read_json(out, "pipeline.json")["run"]
    assert run["kind"] == "main" and run["status"] == "completed"
    assert [s["label"] for s in run["stages"]] == ["OM", "SOC", "OC", "OM"]

    lines = (out / "stages.csv").read_text().splitlines()
    assert lines[0] == "x,value,stage"
    assert len(lines) == 1 + 4 * 201
    assert {row.rsplit(",", 1)[1] for row in lines[1:]} == {"0", "1", "2", "3"}


@pytest.mark.parametrize("argv, extra, files, written", [
    (["pipeline", "--certify"], {"process": "main", "points": [1.0, 0.0]},
     ("pipeline.json", "stages.csv"), b'"certificate"'),
    (["classify"], {}, ("certificates.json", "values.csv"), b'"witness"'),
], ids=["pipeline", "classify"])
def test_cli_bytes_do_not_depend_on_the_draw_cache(tmp_path, argv, extra, files, written):
    # in process after classify_all under another seed and then this config, so
    # on a warm draw cache, and as a child process, so on a cold one
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": FAST, **extra})
    for config in (CertifyConfig(40, (2, 3), seed=1), CertifyConfig(40, (2, 3))):
        classify_all(SQUARE, config)
    warm, cold, args = tmp_path / "warm", tmp_path / "cold", [*argv, "--spec", spec, "--out"]
    assert main([*args, str(warm)]) == 0
    src = str(pathlib.Path(loewner.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-m", "loewner.cli", *args, str(cold)],
                         capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert written in (warm / files[0]).read_bytes()
    for name in files:
        assert (warm / name).read_bytes() == (cold / name).read_bytes()


def test_pipeline_backward_records_shifts(tmp_path):
    f0 = Power(0.5, Interval(0.0, 2.0, True, True))
    spec = write_spec(tmp_path, {"function": to_json(f0), "process": "backward",
                                 "points": [1.0, 0.0], "shifts": [-3.0, 0.0]})
    out = tmp_path / "out"
    assert main(["pipeline", "--spec", spec, "--out", str(out)]) == 0
    stages = {s["index"]: s for s in read_json(out, "pipeline.json")["run"]["stages"]}
    assert stages[-1]["shift"] == -3.0 and stages[-1]["point"] == 1.0
    assert stages[-3]["shift"] == 0.0


def test_pipeline_star_artifacts(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "process": "star",
                                 "points": [1.0, 0.0], "steps": 2})
    out = tmp_path / "out"
    assert main(["pipeline", "--spec", spec, "--out", str(out)]) == 0
    run = read_json(out, "pipeline.json")["run"]
    assert run["kind"] == "star" and run["status"] == "completed"
    assert [s["label"] for s in run["stages"]] == ["OM", "SOC", "OM"]
    assert [s.get("point") for s in run["stages"]] == [None, 1.0, 0.0]


def test_pipeline_missing_points_is_eval_error(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "process": "main"})
    assert main(["pipeline", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def test_pipeline_unknown_process_is_eval_error(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQRT),
                                 "process": "sideways", "points": [1.0]})
    assert main(["pipeline", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("field", [
    {"points": ["a"]},
    {"points": 5},
    {"cycles": "x"},
    {"process": "star", "steps": "x"},
    {"process": "backward", "shifts": ["q"]},
    {"cycles": -1},
    {"process": "star", "steps": -1},
    {"cycles": 2.5},
    {"cycles": True},
    {"process": "star", "steps": "2"},
    {"points": "10"},
    {"function": to_json(Power(0.5, Interval(0.0, 2.0, True, True))),
     "process": "backward", "shifts": ""},
    {"points": [1.0, True]},
    {"certify": "false"},
    {"certify": 1},
], ids=["points", "points-scalar", "cycles", "steps", "shifts", "cycles-negative",
        "steps-negative", "cycles-float", "cycles-bool", "steps-string", "points-string",
        "shifts-string", "points-bool", "certify-string", "certify-int"])
def test_malformed_pipeline_field_is_eval_error(tmp_path, capsys, field):
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "process": "main",
                                 "points": [1.0, 0.0], **field})
    out = tmp_path / "o"
    assert main(["pipeline", "--spec", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("loewner: ")
    assert not (out / "pipeline.json").exists()


# --- measure -----------------------------------------------------------------------

def om_rep():
    return OMRep(a=1.0, b=0.0, x0=0.0,
                 mu=DiscreteMeasure(((2.0, 3.0), (-4.0, 1.0))),
                 interval=Interval(-1.0, 1.0))


def test_measure_om_to_soc(tmp_path):
    spec = write_spec(tmp_path, {"kind": "om", "measure": rep_to_json(om_rep()),
                                 "transform": {"op": "om_to_soc", "x0": 0.5}})
    out = tmp_path / "out"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    doc = read_json(out, "measure.json")
    assert (doc["kind_in"], doc["kind_out"]) == ("om", "soc")
    soc = rep_from_json(doc["output"], "soc")
    assert soc.mu_plus.weight_at(2.0) == pytest.approx(3.0 / 1.5)
    assert soc.mu_minus.weight_at(-4.0) == pytest.approx(1.0 / 4.5)
    assert (out / "values.csv").exists()


def test_measure_extend(tmp_path):
    rep = SOCRep(a=0.1, mu_plus=DiscreteMeasure(((1.0, 0.7),)),
                 mu_minus=DiscreteMeasure(()), interval=Interval(0.0, 1.0))
    spec = write_spec(tmp_path, {"kind": "soc", "measure": rep_to_json(rep),
                                 "transform": {"op": "extend", "b": 1.0}})
    out = tmp_path / "out"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    doc = read_json(out, "measure.json")
    ext = doc["extension"]
    assert ext["delta"] == 0.7 and ext["value_at_b"] == -0.7
    assert ext["identity_residual_max"] < 1e-9
    quotient = rep_from_json(doc["output"], doc["kind_out"])
    assert quotient.mu_plus.weight_at(1.0) == 0.0  # boundary atom stripped


def test_measure_substitute_square(tmp_path):
    rep = OCRep(a=0.0, b=1.0, c=0.3, x0=0.0,
                mu_plus=DiscreteMeasure(((4.0, 2.0),)),
                mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))
    spec = write_spec(tmp_path, {"kind": "oc", "measure": rep_to_json(rep),
                                 "transform": {"op": "substitute_square"}})
    out = tmp_path / "out"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    doc = read_json(out, "measure.json")
    assert doc["kind_out"] == "oc"
    sub = rep_from_json(doc["output"], "oc")
    assert sub.mu_plus.atoms == ((2.0, 0.5),)
    assert sub.mu_minus.atoms == ((-2.0, 0.5),)


def test_measure_recover_atom_weight(tmp_path):
    rep = OMRep(a=0.0, b=0.5, x0=0.5, mu=DiscreteMeasure(((2.0, 1.0),)),
                interval=Interval(0.0, 1.0))
    spec = write_spec(tmp_path, {"kind": "om", "measure": rep_to_json(rep),
                                 "transform": {"op": "recover", "r": 2.0,
                                               "window": [1.2, 3.5]}})
    out = tmp_path / "out"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    got = read_json(out, "measure.json")["recovered"]
    assert got["r"] == 2.0
    assert got["weight"] == pytest.approx(1.0, abs=1e-6)


def test_measure_bad_kind_is_eval_error(tmp_path):
    spec = write_spec(tmp_path, {"kind": "weird",
                                 "measure": rep_to_json(om_rep())})
    assert main(["measure", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def test_measure_unknown_op_is_eval_error(tmp_path):
    spec = write_spec(tmp_path, {"kind": "om", "measure": rep_to_json(om_rep()),
                                 "transform": {"op": "fold"}})
    assert main(["measure", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def soc_rep():
    return SOCRep(a=0.1, mu_plus=DiscreteMeasure(((1.0, 0.7),)),
                  mu_minus=DiscreteMeasure(()), interval=Interval(0.0, 1.0))


def oc_rep_off_zero():
    return OCRep(a=0.0, b=0.0, c=0.0, x0=0.5, mu_plus=DiscreteMeasure(((4.0, 1.0),)),
                 mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))


def om_rep_huge_atom():
    # Im f overflows to inf within eps of the atom
    return OMRep(a=0.0, b=0.0, x0=0.5, mu=DiscreteMeasure(((2.0, 1e306),)),
                 interval=Interval(0.0, 1.0))


@pytest.mark.parametrize("kind, rep, transform", [
    ("soc", soc_rep, {"op": "om_to_soc", "x0": 0.5}),
    ("om", om_rep, {"op": "extend", "b": 1.0}),
    ("om", om_rep, {"op": "substitute_square"}),
    ("om", om_rep, {"op": "om_to_soc"}),
    ("om", om_rep, {"op": "om_to_soc", "x0": "half"}),
    ("soc", soc_rep, {"op": "extend"}),
    ("om", om_rep, {"op": "recover", "r": 2.0}),
    ("om", om_rep, {"op": "recover", "window": [1.2, 3.5]}),
    ("om", om_rep, "x"),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [2.5, 3.5]}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [1.2, 3.5], "side": "x"}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [1.2, 3.5], "eps": ["a", "b"]}),
    ("oc", oc_rep_off_zero, {"op": "substitute_square"}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [1.5]}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [1.2, 3.5],
                    "eps": [0.001, 0.001]}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [1.2, 3.5],
                    "eps": [0.0, 0.001]}),
    ("om", om_rep_huge_atom, {"op": "recover", "r": 2.0, "window": [1.5, 2.5]}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": "13"}),
    ("om", om_rep, {"op": "recover", "r": 2.0, "window": [-20.0, 30.0], "eps": "12"}),
    ("om", om_rep, {"op": "om_to_soc", "x0": True}),
    ("soc", soc_rep, {"op": "extend", "b": "1"}),
    ("om", om_rep, {"op": "recover", "r": True, "window": [0.5, 1.5]}),
    ("om", om_rep, ""),
    ("om", om_rep, []),
    ("om", om_rep, {"op": ["om_to_soc"], "x0": 0.5}),
    ("om", om_rep, {"op": {}}),
], ids=["om_to_soc-on-soc", "extend-on-om", "square-on-om", "om_to_soc-no-x0",
        "om_to_soc-bad-x0", "extend-no-b", "recover-no-window", "recover-no-r",
        "transform-string", "recover-window-misses-r", "recover-side", "recover-eps",
        "square-x0-off-zero", "recover-window-short", "recover-eps-equal",
        "recover-eps-zero", "recover-non-finite", "recover-window-string",
        "recover-eps-string", "om_to_soc-x0-bool", "extend-b-string", "recover-r-bool",
        "transform-empty-string", "transform-empty-list", "op-list", "op-object"])
def test_malformed_measure_transform_is_eval_error(tmp_path, capsys, kind, rep,
                                                   transform):
    spec = write_spec(tmp_path, {"kind": kind, "measure": rep_to_json(rep()),
                                 "transform": transform})
    out = tmp_path / "o"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("loewner: ")
    assert not (out / "measure.json").exists()


def test_classify_with_nan_anchor_is_eval_error(tmp_path):
    rep = {"a": 1.0, "b": 0.0, "x0": float("nan"), "atoms_plus": [[2.0, 1.0]],
           "interval": {"lo": 0.0, "hi": 1.0}}
    # json.dumps writes the NaN literal, which json.loads reads back
    spec = write_spec(tmp_path, {"function": {"kind": "measure_om", **rep},
                                 "config": FAST})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def test_measure_with_nan_weight_is_eval_error(tmp_path):
    rep = {"a": 0.5, "atoms_plus": [[2.0, float("nan")]],
           "interval": {"lo": 0.0, "hi": 1.0}}
    spec = write_spec(tmp_path, {"kind": "soc", "measure": rep})
    out = tmp_path / "o"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 3
    assert not (out / "values.csv").exists()


# --- report ------------------------------------------------------------------------

def test_report_replays_witnesses(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQUARE), "config": FAST})
    step1 = tmp_path / "classify"
    assert main(["classify", "--spec", spec, "--out", str(step1)]) == 0

    result = read_json(step1, "certificates.json")["result"]
    rspec = write_spec(tmp_path, {"function": to_json(SQUARE),
                                  "result": result}, name="report_spec.json")
    step2 = tmp_path / "report"
    assert main(["report", "--spec", rspec, "--out", str(step2),
                 "--replay"]) == 0

    report = read_json(step2, "report.json")
    mono = report["verdicts"]["monotone"]
    assert mono["verdict"] == "fail"
    assert mono["replay"]["match"] is True
    for entry in report["verdicts"].values():
        if "replay" in entry:
            assert entry["replay"]["match"] is True


def test_report_replays_a_pick_witness_of_the_square_on_the_half_line(tmp_path):
    fn = Power(2.0, Interval(0.0, float("inf"), lo_closed=True))
    spec = write_spec(tmp_path, {"function": to_json(fn), "config": FAST})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "c")]) == 0
    result = read_json(tmp_path / "c", "certificates.json")["result"]
    assert result["certificates"]["halfplane"]["witness"]["check"] == "pick"
    rspec = write_spec(tmp_path, {"function": to_json(fn), "result": result},
                       name="report_spec.json")
    assert main(["report", "--spec", rspec, "--out", str(tmp_path / "r"), "--replay"]) == 0
    half = read_json(tmp_path / "r", "report.json")["verdicts"]["halfplane"]
    assert half["verdict"] == "fail"
    assert half["replay"]["match"] is True


@pytest.mark.parametrize("command", ["measure", "report"])
@pytest.mark.parametrize("flag", [("--seed", "1"), ("--trials", "5"), ("--dims", "2..3")],
                         ids=lambda f: f[0])
def test_certify_knobs_are_rejected_where_nothing_certifies(tmp_path, command, flag):
    # a spec both subcommands run on, so only the flag can fail
    spec = write_spec(tmp_path, {"kind": "om", "measure": rep_to_json(om_rep()),
                                 "function": to_json(SQUARE),
                                 "result": {"certificates": {}}})
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", spec, "--out", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_report_requires_classify_result(tmp_path):
    spec = write_spec(tmp_path, {"function": to_json(SQUARE)})
    assert main(["report", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
MONO = {"property": "operator_monotone", "verdict": "fail", "trials": 1,
        "tolerance": 1e-9, "seed": 0}


@pytest.mark.parametrize("result", [{"certificates": c} for c in (
    {"monotone": {k: v for k, v in MONO.items() if k != "trials"}},
    {"monotone": {**MONO, "witness": {"check": "bogus", "min_eig": -1.0}}},
    {"halfplane": {**MONO, "property": "halfplane",
                   "witness": {"check": "pick", "nodes": [[-1.0, 1.0]]}}},
    [MONO],
    {"monotone": {**MONO, "witness": {"check": "loewner", "nodes": [0.5, 2.0],
                                      "min_eig": "-1"}}},
    {"monotone": {**MONO, "witness": {"check": "loewner", "nodes": ["0.5", "2"],
                                      "min_eig": -1.0}}},
    {"halfplane": {**MONO, "property": "halfplane",
                   "witness": {"check": "pick", "nodes": [[True, True]], "min_eig": -1.0}}},
    {"halfplane": {**MONO, "property": "halfplane",
                   "witness": {"check": "pick", "nodes": [[-1.0, 0.0]], "min_eig": -1.0}}},
    {"halfplane": {**MONO, "property": "halfplane",
                   "witness": {"check": "pick", "nodes": [[-1.0, 1.0, 0.0]], "min_eig": -1.0}}},
    {"halfplane": {**MONO, "property": "halfplane",
                   "witness": {"check": "halfplane", "z": [-1.0, 1.0], "min_eig": -2.0}}},
    {"convex": {**MONO, "property": "operator_convex",
                "witness": {"check": "jensen", "t": True, "h1": EYE2, "h2": EYE2,
                            "min_eig": -1.0}}},
    {"monotone": {**MONO, "witness": {"check": "monotone", "h1": [[[True, 0.0], [0.0, 0.0]],
                                                                 [[0.0, 0.0], [1.0, 0.0]]],
                                      "h2": EYE2, "min_eig": -1.0}}},
    {"monotone": {**MONO, "trials": "many"}},
    {"monotone": {**MONO, "seed": "0"}},
    {"monotone": {**MONO, "tolerance": True}},
    {"monotone": {**MONO, "property": 5, "verdict": ["x"]}},
    {"monotone": {**MONO, "verdict": "passed"}},
)] + [
    {"certificates": {"monotone": MONO}, "flags": "not a list"},
    {"certificates": {"monotone": MONO}, "flags": ["convex-pass-but-monotone-fail", 1]},
], ids=["no-trials", "bogus-check", "no-min-eig", "certificates-list", "min-eig-string",
        "nodes-strings", "z-bools", "pick-node-on-the-axis", "pick-node-of-three",
        "old-halfplane-witness", "t-bool", "matrix-entry-bool", "trials-string",
        "seed-string", "tolerance-bool", "property-number-verdict-list", "verdict-unknown",
        "flags-string", "flags-number"])
def test_malformed_report_certificate_is_eval_error(tmp_path, capsys, result):
    spec = write_spec(tmp_path, {"function": to_json(SQUARE), "result": result})
    out = tmp_path / "o"
    assert main(["report", "--spec", spec, "--out", str(out), "--replay"]) == 3
    assert capsys.readouterr().err.startswith("loewner: ")
    assert not (out / "report.json").exists()


def test_report_of_a_pick_node_with_a_nan_imaginary_part_exits_3(tmp_path, capsys):
    # NaN passes the half-plane test im > 0 as it fails every comparison; the
    # replay would be nan, and report.json would hold "replayed": NaN
    witness = {"check": "pick", "nodes": [[-1.0, float("nan")]], "min_eig": -1.0}
    result = {"certificates": {"halfplane": {**MONO, "property": "halfplane",
                                             "witness": witness}}}
    spec = write_spec(tmp_path, {"function": to_json(SQUARE), "result": result})
    out = tmp_path / "o"
    assert main(["report", "--spec", spec, "--out", str(out), "--replay"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "loewner: NonFiniteValue: witness 'nodes' has a non-finite entry"]
    assert not (out / "report.json").exists()


def test_classify_and_a_certified_pipeline_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.ma import numpy.ma, about 10 ms and 1 MB of each CLI run
    spec = write_spec(tmp_path, {"function": to_json(SQRT), "config": FAST,
                                 "process": "main", "points": [1.0, 0.0]})
    runs = [[command, "--spec", spec, "--out", str(tmp_path / command), *flags]
            for command, flags in (("classify", []), ("pipeline", ["--certify"]))]
    src = str(pathlib.Path(loewner.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom loewner.cli import main\n"
         f"print([main(argv) for argv in {runs!r}], 'numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (run.stdout, run.stderr) == ("[0, 0] False\n", "")
