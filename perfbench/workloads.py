"""The four benchmark workloads: seeded inputs, one request each, ground truth.

Every workload draws all of its inputs from one seeded family with continuous
parameters, so every request has the same shape and no latency percentile can
fall between two clusters of costs.  The class of every input is known by
construction, which gives each request a ground-truth check:

* ``classify-pass``  operator monotone and strongly operator convex pole forms:
                     all five checks must pass, so every trial runs;
* ``classify-fail``  sweeps of x^alpha with alpha > 2: all five checks must
                     fail, and every witness must replay after a JSON round trip;
* ``pipeline-cli``   ``loewner pipeline --certify`` as a child process: every
                     stage certificate must pass and reruns must be byte-equal;
* ``recover-atoms``  Poisson recovery of one atom of a discrete measure: the
                     weight must come back within 1%.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import loewner as lw
from loewner import cli as lw_cli

SAMPLED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sampled.py")
CHECKS = ("convex", "halfplane", "loewner", "monotone", "strong")
REPLAY_REL_TOL = 1e-8     # the rule of ``loewner report --replay``
RECOVERY_REL_TOL = 0.01   # the bound of the acceptance test on atom recovery
PIPELINE_FILES = ("pipeline.json", "stages.csv")
# A third of the default trials keeps a CLI request near 1 s, so a run holds
# enough samples for its tail percentile; classify-pass runs the default.
PIPELINE_TRIALS = 100
# Functions per classify-fail request.  One function takes about 6 ms, so a
# 25 s run of single functions holds thousands of samples, and the percentile
# with ten samples beyond it (p99.7) measures the slowest few seconds of the
# machine rather than the program.  A sweep of 64 puts it near p80.
SWEEP = 64


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _atoms_right_of(rng, edge, count, gap=(0.3, 3.0), spacing=0.5):
    """``count`` atoms right of ``edge`` with distinct, spaced locations."""
    locs = []
    r = edge
    for _ in range(count):
        r = r + (spacing if locs else 0.0) + _uniform(rng, *gap)
        locs.append(r)
    return tuple((r, _uniform(rng, 0.2, 2.0)) for r in locs)


# --- classify-pass --------------------------------------------------------------

def build_classify_pass(rng, count):
    """Alternate MeasureSOC nodes a + sum w/(r - x) (1-4 atoms) and Quotient
    nodes for the single-pole form, all on a random closed interval left of
    every pole.  Both are operator monotone and strongly operator convex."""
    inputs = []
    for i in range(count):
        lo = _uniform(rng, -3.0, 3.0)
        dom = lw.Interval(lo, lo + _uniform(rng, 0.5, 4.0), True, True)
        a = _uniform(rng, 0.0, 1.0)
        if i % 2 == 0:
            atoms = _atoms_right_of(rng, dom.hi, int(rng.integers(1, 5)))
            rep = lw.SOCRep(a=a, mu_plus=lw.DiscreteMeasure(atoms),
                            mu_minus=lw.DiscreteMeasure(()), interval=dom)
            fn = lw.MeasureSOC(rep)
        else:
            ((r, w),) = _atoms_right_of(rng, dom.hi, 1)
            fn = lw.Quotient((a * r + w, -a), (r, -1.0), dom)
        inputs.append(fn)
    return inputs


def _classify_fingerprint(result):
    return [[name, result.certificates[name].verdict,
             result.certificates[name].trials,
             _witness_key(result.certificates[name].witness)]
            for name in CHECKS]


def _witness_key(witness):
    if witness is None:
        return None
    return [witness.get("check"), witness.get("trial"), witness.get("dim")]


def request_classify_pass(fn, ctx):
    result = lw.classify_all(fn)
    ok = (all(result.certificates[c].verdict == "pass" for c in CHECKS)
          and not result.flags)
    return ok, _classify_fingerprint(result), {}


# --- classify-fail --------------------------------------------------------------

def build_classify_fail(rng, count):
    """Sweeps of x^alpha on [0, b], b in (1, 20), over SWEEP exponents in
    (2.2, 6): in none of the classes, so every check fails within its first
    trials."""
    sweeps = []
    for _ in range(count):
        dom = lw.Interval(0.0, _uniform(rng, 1.0, 20.0), True, True)
        alphas = sorted(_uniform(rng, 2.2, 6.0) for _ in range(SWEEP))
        sweeps.append(tuple(lw.Power(alpha, dom) for alpha in alphas))
    return sweeps


def request_classify_fail(sweep, ctx):
    """Classify every function of the sweep and send each witness through
    to_json, json, Certificate.from_json and replay_witness."""
    ok, fps, witness_bytes = True, [], 0
    for fn in sweep:
        result = lw.classify_all(fn)
        ok = ok and all(result.certificates[c].verdict == "fail" for c in CHECKS)
        for name in CHECKS:
            text = json.dumps(result.certificates[name].to_json())
            witness_bytes += len(text)
            cert = lw.Certificate.from_json(json.loads(text))
            if cert.witness is None:
                ok = False
                continue
            stored = cert.witness["min_eig"]
            replayed = lw.replay_witness(fn, cert)
            ok = ok and abs(replayed - stored) <= REPLAY_REL_TOL * (1 + abs(stored))
        fps.append(_classify_fingerprint(result))
    return ok, fps, {"witness_bytes": witness_bytes}


# --- pipeline-cli ----------------------------------------------------------------

def build_pipeline_cli(rng, count):
    """Spec dicts for one certified main cycle (four stages).  Seeds alternate
    MeasureOM nodes with 2-3 atoms right of a random interval, anchored near
    30% and 70% of it, and Power(alpha), alpha in (0.2, 0.8), anchored at
    (1, 0).

    The anchors are drawn from (25%, 35%) and (65%, 75%), not put at exactly
    30% and 70%: those fractions are points of the 1001-point scan grid, and
    when rounding puts the grid point one ulp away from the anchor, the
    difference quotient there evaluates to 0 and ``neg_reciprocal`` raises
    NotPositive (see NOTES.md, "Known defect")."""
    specs = []
    for i in range(count):
        if i % 2 == 0:
            lo = _uniform(rng, -3.0, 3.0)
            dom = lw.Interval(lo, lo + _uniform(rng, 0.5, 4.0), True, True)
            atoms = _atoms_right_of(rng, dom.hi, int(rng.integers(2, 4)))
            x0 = dom.lo + _uniform(rng, 0.2, 0.8) * (dom.hi - dom.lo)
            rep = lw.OMRep(a=_uniform(rng, 0.0, 1.0), b=_uniform(rng, -1.0, 1.0),
                           x0=x0, mu=lw.DiscreteMeasure(atoms), interval=dom)
            seed = lw.MeasureOM(rep)
            points = [dom.lo + _uniform(rng, 0.25, 0.35) * (dom.hi - dom.lo),
                      dom.lo + _uniform(rng, 0.65, 0.75) * (dom.hi - dom.lo)]
        else:
            seed = lw.Power(_uniform(rng, 0.2, 0.8))
            points = [1.0, 0.0]
        specs.append({"function": lw.to_json(seed), "process": "main",
                      "points": points, "config": {"trials": PIPELINE_TRIALS}})
    return specs


def write_pipeline_specs(specs, work_dir):
    """Spec files for the CLI; part of set-up, since a user hands them over."""
    paths = []
    for i, spec in enumerate(specs):
        path = os.path.join(work_dir, f"spec-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        paths.append(path)
    return paths


def run_cli_child(argv, env, log_path, samples_path):
    """Run the CLI as a child process, under ``sampled.py`` so that it samples
    its CPU's speed into ``samples_path``; return (exit code, peak RSS in MB,
    speed samples)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, SAMPLED, samples_path,
                                 "loewner.cli", *argv],
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    # reaped here, so that wait4 gives the child's own peak RSS; tell Popen
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(samples_path, encoding="utf-8") as fh:
        samples = [tuple(s) for s in json.load(fh)]
    os.remove(samples_path)
    return proc.returncode, usage.ru_maxrss / 1024.0, samples


def request_pipeline_cli(item, ctx):
    index, spec_path = item
    out_dir = os.path.join(ctx.work_dir, "out")
    argv = ["pipeline", "--spec", spec_path, "--out", out_dir, "--certify"]
    if ctx.in_process:
        code = lw_cli.main(argv)
    else:
        code, rss, samples = run_cli_child(argv, ctx.child_env,
                                           os.path.join(ctx.work_dir, "child.log"),
                                           os.path.join(ctx.work_dir, "speed.json"))
        ctx.child_rss_mb = max(ctx.child_rss_mb, rss)
        ctx.child_samples.extend(samples)
    blobs = []
    for name in PIPELINE_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                blobs.append(fh.read())
            os.remove(path)
    ok = code == 0 and len(blobs) == len(PIPELINE_FILES)
    if ok:
        run = json.loads(blobs[0])["run"]
        ok = (run["status"] == "completed"
              and len(run["stages"]) == 4
              and all(s["certificate"]["verdict"] == "pass"
                      for s in run["stages"]))
    digest = hashlib.sha256(b"".join(blobs)).hexdigest()
    first = ctx.first_bytes.setdefault(index, digest)
    ok = ok and digest == first
    return ok, [code, digest], {"bytes_out": sum(len(b) for b in blobs)}


# --- recover-atoms ----------------------------------------------------------------

def build_recover_atoms(rng, count):
    """(node, atom location, window, true weight) for an OMRep on (0, 1) with
    two atoms right of it, 0.7 apart, and the target atom one of them.  The
    window runs midway to the neighbouring atoms, so it is 0.7 wide whichever
    atom is the target.  The atom count is fixed because each complex
    evaluation costs more per atom, which would split the latencies into one
    cluster per count.  All atoms lie in [2, 4): the adaptive quadrature's
    evaluation count jumps where the float spacing of the abscissae changes."""
    dom = lw.Interval(0.0, 1.0)
    inputs = []
    for _ in range(count):
        first = _uniform(rng, 2.05, 3.2)
        atoms = tuple((first + 0.7 * j, _uniform(rng, 0.8, 1.2)) for j in range(2))
        rep = lw.OMRep(a=_uniform(rng, 0.0, 1.0), b=_uniform(rng, -1.0, 1.0),
                       x0=_uniform(rng, 0.2, 0.8),
                       mu=lw.DiscreteMeasure(atoms), interval=dom)
        r, w = atoms[int(rng.integers(0, 2))]
        inputs.append((lw.MeasureOM(rep), r, (r - 0.35, r + 0.35), w))
    return inputs


def request_recover_atoms(item, ctx):
    node, r, window, weight = item
    got = lw.recover_atom_weight(node, r, window)
    ok = abs(got - weight) <= RECOVERY_REL_TOL * weight
    return ok, [format(got, ".6g")], {}


# --- registry ------------------------------------------------------------------------

# name -> (input function, request, inputs per pass)
WORKLOADS = {
    "classify-pass": (build_classify_pass, request_classify_pass, 2),
    "classify-fail": (build_classify_fail, request_classify_fail, 4),
    "pipeline-cli": (build_pipeline_cli, request_pipeline_cli, 4),
    "recover-atoms": (build_recover_atoms, request_recover_atoms, 8),
}


def build_inputs(name, seed):
    """The workload's fixed input list, a pure function of the seed."""
    build, _, count = WORKLOADS[name]
    return build(np.random.default_rng(seed), count)
