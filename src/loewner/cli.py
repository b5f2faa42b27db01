"""Command-line front end.

Four subcommands, all spec-file driven and deterministic:

* ``classify``   run every membership check on a function
* ``pipeline``   run one of the construction processes
* ``measure``    evaluate or transform a discrete-measure representation
* ``report``     summarize a classify output, optionally replaying witnesses

Each writes JSON (sorted keys) plus a CSV of sampled values into --out.
Outputs are pure functions of the spec and flags: a rerun produces
byte-identical files.  Exit codes: 0 for any valid run (a "fail" verdict is
a valid answer), 2 for an unreadable spec (JSON errors report the byte
offset) or an unusable --out, 3 for evaluation or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import classify as _classify
from . import funexpr, measures, processes
from .errors import LoewnerError
from .interval import json_fields, json_flag, json_number, json_numbers, json_object
from .matcalc import inset_window

__all__ = ["main"]

GRID_POINTS = 201
PARSE_ERROR, EVAL_ERROR = 2, 3


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- I/O helpers -----------------------------------------------------------------

def _load_spec(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise _CliFailure(PARSE_ERROR, f"cannot read spec: {err}") from err
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise _CliFailure(
            PARSE_ERROR,
            f"spec is not valid JSON at byte offset {err.pos}: {err.msg}") from err
    except ValueError as err:   # bytes that are not UTF-8, an over-long integer literal
        raise _CliFailure(PARSE_ERROR, f"spec is not valid JSON: {err}") from err


def _atomic_write(path: str, data: str):
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as err:
        raise _CliFailure(PARSE_ERROR, f"cannot write {path}: {err}") from err


def _write_json(out_dir: str, name: str, obj: dict):
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:   # NaN or inf, which JSON cannot hold
        raise _CliFailure(EVAL_ERROR, f"{name} would hold a non-finite number: {err}") from err
    _atomic_write(os.path.join(out_dir, name), text + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(out_dir: str, name: str, header, rows):
    lines = [",".join(r) for r in (header, *rows)]
    _atomic_write(os.path.join(out_dir, name), "\n".join(lines) + "\n")


def _value_rows(fn, *tail) -> list:
    """CSV rows (x, f(x), *tail) over the sample grid of fn's domain."""
    xs = np.linspace(*inset_window(fn.domain), GRID_POINTS)
    vals = np.asarray(fn.eval_real(xs), dtype=float)
    return [(_fmt(x), _fmt(v), *tail) for x, v in zip(xs, vals)]


# --- spec parsing ------------------------------------------------------------------

def _function_from(spec: dict, key: str = "function"):
    if key not in spec:
        raise _CliFailure(EVAL_ERROR, f"spec is missing the {key!r} entry")
    try:
        return funexpr.from_json(spec[key])
    except LoewnerError as err:
        raise _CliFailure(EVAL_ERROR, f"bad function: {err}") from err
    except (KeyError, TypeError, ValueError) as err:
        raise _CliFailure(EVAL_ERROR, f"bad function JSON: {err}") from err


def _value(d: dict, key: str, parse, required: bool = False):
    """d[key] read through ``parse``, or None when absent; a value that does
    not parse, or a required one that is absent, is a validation error."""
    if d.get(key) is None:
        if required:
            raise _CliFailure(EVAL_ERROR, f"spec is missing {key!r}")
        return None
    try:
        return parse(d[key])
    except (KeyError, TypeError, ValueError) as err:
        raise _CliFailure(EVAL_ERROR, f"bad {key!r} value {d[key]!r}: {err}") from err


def _count(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError("a count must be an integer >= 0")
    return v


def _parse_dims(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        dims = tuple(range(int(lo), int(hi) + 1))
    else:
        dims = tuple(int(t) for t in text.split(","))
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"bad dims {text!r}")
    return dims


def _config_from(spec: dict, args) -> _classify.CertifyConfig:
    cfg = _value(spec, "config", json_object) or {}
    # counts go to CertifyConfig as they are, so that 2.5 or true is rejected, not cut
    kwargs = {"seed": cfg.get("seed"), "trials": cfg.get("trials"),
              "dims": _value(cfg, "dims", tuple), "tol": _value(cfg, "tol", json_number)}
    env = os.environ.get("LOEWNER_SEED")
    if env is not None:
        try:
            kwargs["seed"] = int(env)
        except ValueError as err:
            raise _CliFailure(PARSE_ERROR,
                              f"LOEWNER_SEED is not an integer: {env!r}") from err
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.dims is not None:
        try:
            kwargs["dims"] = _parse_dims(args.dims)
        except ValueError as err:
            raise _CliFailure(PARSE_ERROR, str(err)) from err
    try:
        return _classify.CertifyConfig(
            **{k: v for k, v in kwargs.items() if v is not None})
    except ValueError as err:
        raise _CliFailure(EVAL_ERROR, f"bad config: {err}") from err


# --- subcommands ----------------------------------------------------------------------

def _cmd_classify(spec: dict, args) -> int:
    fn = _function_from(spec)
    config = _config_from(spec, args)
    result = _classify.classify_all(fn, config)
    _write_json(args.out, "certificates.json", {
        "config": json_fields(config),
        "function": funexpr.to_json(fn),
        "result": result.to_json(),
    })
    _write_csv(args.out, "values.csv", ("x", "value"), _value_rows(fn))
    return 0


def _cmd_pipeline(spec: dict, args) -> int:
    fn = _function_from(spec)
    config = _config_from(spec, args)
    process = spec.get("process", "main")
    points = _value(spec, "points", json_numbers)
    if not points:
        raise _CliFailure(EVAL_ERROR, "spec is missing 'points'")
    cycles = _value(spec, "cycles", _count)
    steps = _value(spec, "steps", _count)
    shifts = _value(spec, "shifts", lambda cs: json_numbers(cs, nulls=True))
    certify = _value(spec, "certify", json_flag) or args.certify
    if process == "main":
        run = processes.main_cycle(fn, points, cycles=cycles,
                                   certify=certify, config=config)
    elif process == "star":
        run = processes.star_process(fn, points, steps=steps,
                                     certify=certify, config=config)
    elif process == "backward":
        run = processes.backward_process(fn, points, shifts=shifts, cycles=cycles,
                                         certify=certify, config=config)
    else:
        raise _CliFailure(EVAL_ERROR, f"unknown process {process!r}")
    _write_json(args.out, "pipeline.json", {
        "config": {"seed": config.seed, "trials": config.trials},
        "run": run.to_json(),
    })
    rows = [r for stage in run.stages for r in _value_rows(stage.expr, str(stage.index))]
    _write_csv(args.out, "stages.csv", ("x", "value", "stage"), rows)
    return 0


# the representation kind each measure op takes ("recover" takes any)
_OP_KINDS = {"om_to_soc": "om", "extend": "soc", "substitute_square": "oc"}


def _cmd_measure(spec: dict, args) -> int:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in measures.REP_KINDS:
        raise _CliFailure(EVAL_ERROR, f"measure kind must be "
                                      f"{'/'.join(measures.REP_KINDS)}, got {kind!r}")
    rep = _value(spec, "measure", lambda m: measures.rep_from_json(m, kind), True)

    transform = _value(spec, "transform", json_object)
    out = {"kind_in": kind, "input": measures.rep_to_json(rep)}
    out_rep = rep
    if transform:
        op = transform.get("op")
        if not isinstance(op, str):
            raise _CliFailure(EVAL_ERROR, f"measure op must be a string, got {op!r}")
        takes = _OP_KINDS.get(op, kind)
        if takes != kind:
            raise _CliFailure(EVAL_ERROR, f"measure op {op!r} takes a {takes!r} "
                                          f"representation, got {kind!r}")
        if op == "om_to_soc":
            out_rep = measures.om_to_soc(rep, _value(transform, "x0", json_number, True))
        elif op == "extend":
            ext, delta = measures.extend_at_endpoint(
                rep, _value(transform, "b", json_number, True))
            xs = np.linspace(*inset_window(rep.interval), GRID_POINTS)
            out["extension"] = {
                "b": ext.b, "delta": delta, "value_at_b": ext.value_at_b,
                "identity_residual_max": ext.identity_residual(xs),
            }
            out_rep = ext.quotient_rep
        elif op == "substitute_square":
            out_rep = measures.substitute_square(rep)
        elif op == "recover":
            r = _value(transform, "r", json_number, True)
            window = _value(transform, "window", json_numbers, True)
            opts = {"eps_list": _value(transform, "eps", json_numbers),
                    "side": _value(transform, "side", str)}
            w = measures.recover_atom_weight(
                funexpr.MeasureForm(rep), r, window,
                **{k: v for k, v in opts.items() if v is not None})
            out["recovered"] = {"r": r, "weight": w}
        else:
            raise _CliFailure(EVAL_ERROR, f"unknown measure op {op!r}")
    out["kind_out"] = out_rep.kind
    out["output"] = measures.rep_to_json(out_rep)
    out["transform"] = transform
    _write_json(args.out, "measure.json", out)

    _write_csv(args.out, "values.csv", ("x", "value"), _value_rows(funexpr.MeasureForm(out_rep)))
    return 0


def _report_entry(fn, cert_json, replay: bool) -> dict:
    cert = _classify.Certificate.from_json(cert_json)
    entry = {"property": cert.property, "verdict": cert.verdict,
             "trials": cert.trials}
    if replay and cert.witness is not None:
        stored = json_number(cert.witness["min_eig"])
        replayed = _classify.replay_witness(fn, cert)
        entry["replay"] = {
            "stored": stored, "replayed": replayed,
            "match": bool(abs(replayed - stored) <= 1e-8 * (1 + abs(stored))),
        }
    return entry


def _cmd_report(spec: dict, args) -> int:
    fn = _function_from(spec)
    result = spec.get("result")
    if not isinstance(result, dict) or not isinstance(result.get("certificates"), dict):
        raise _CliFailure(EVAL_ERROR, "spec carries no 'result.certificates' "
                                      "(point --spec at a classify output)")
    flags = result.get("flags", [])
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise _CliFailure(EVAL_ERROR, f"'result.flags' is not a list of strings: {flags!r}")
    report = {"verdicts": {}, "flags": flags}
    for name, cert_json in sorted(result["certificates"].items()):
        try:
            report["verdicts"][name] = _report_entry(fn, cert_json, args.replay)
        except (LookupError, TypeError, ValueError) as err:
            raise _CliFailure(EVAL_ERROR, f"bad certificate {name!r}: "
                                          f"{type(err).__name__}: {err}") from err
    _write_json(args.out, "report.json", report)
    return 0


# --- entry point -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Construct and certify matrix-monotone/convex functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, certifies, extra in (
            ("classify", _cmd_classify, True, ()),
            ("pipeline", _cmd_pipeline, True, ("certify",)),
            ("measure", _cmd_measure, False, ()),
            ("report", _cmd_report, False, ("replay",))):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="input spec JSON")
        p.add_argument("--out", required=True, help="output directory")
        if certifies:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--dims", default=None,
                           help="matrix sizes, e.g. '2..8' or '2,4,6'")
        for flag in extra:
            p.add_argument(f"--{flag}", action="store_true")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # non-finite values raise by value, never by warning
            return args.handler(_load_spec(args.spec), args)
    except _CliFailure as err:
        print(f"loewner: {err}", file=sys.stderr)
        return err.code
    except LoewnerError as err:
        print(f"loewner: {type(err).__name__}: {err}", file=sys.stderr)
        return EVAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
