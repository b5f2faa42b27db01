"""No NaN or inf into or out of the CLI: a spec number beyond float range, or an
output that would hold one, exits 3 with one line on stderr and writes no file."""

import json

import pytest

from loewner import DiscreteMeasure, Interval, SOCRep, rep_to_json
from loewner.cli import main

# two atoms of weight 1e308 push the extension's identity residual to inf
HUGE_ATOMS = SOCRep(a=0.0, mu_plus=DiscreteMeasure(((1.0, 1e308), (3.0, 1e308))),
                    mu_minus=DiscreteMeasure(()), interval=Interval(0.0, 1.0, lo_closed=True))

# (command, spec text, what stderr says); Python's json reads 1e999 as inf
CASES = {
    "alpha-beyond-float-range": (
        "classify", '{"function": {"kind": "power", "alpha": 1' + "0" * 400 + "}}",
        "is not a JSON number"),
    "affine-offset-1e999": (
        "pipeline", '{"function": {"kind": "affine", "a": 1.0, "b": 1e999}, '
                    '"process": "star", "points": [0.5]}',
        "inf is not a JSON number"),
    "constant-1e999": (
        "pipeline", '{"function": {"kind": "constant", "c": 1e999}, "points": [0.5]}',
        "inf is not a JSON number"),
    "extension-residual-overflows": (
        "measure", json.dumps({"kind": "soc", "measure": rep_to_json(HUGE_ATOMS),
                               "transform": {"op": "extend", "b": 1.0}}),
        "measure.json would hold a non-finite number"),
}


@pytest.mark.parametrize("command, text, says", CASES.values(), ids=CASES)
def test_non_finite_numbers_exit_3_and_write_nothing(tmp_path, capsys, command, text, says):
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(text)
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("loewner: ") and says in err and err.count("\n") == 1
    assert not out.exists()
