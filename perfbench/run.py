"""Benchmark of the loewner certifier: one workload per run.

    python3 perfbench/run.py --workload classify-pass --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy.  Each run is a closed loop with
one client and no think time.  It sets up, runs one warm-up request that no
metric counts, then makes whole passes over the workload's fixed input list
and stops at the pass boundary nearest to ``--seconds``.  Every request is
checked against ground truth known by construction, and runs on the CPU
that a short reference probe finds fastest.  Timings are reported in
reference seconds: the process doing the work samples its CPU's speed with
that probe while it works, and the time is rescaled to a fixed reference
speed (``speed.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports per-request
layer metrics from the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with machine facts and the behaviour fingerprint, goes to
``.bench_work/results/`` in the checkout.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import numpy as np

from speed import Sampler, pin, reference_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(WORK, "results")
DEFAULT_SEED = 1
SETUP_PROBES = 9          # set-ups per run; setup_s is their median
IMPORT_PROBES = 5         # interpreter starts per kind for cli.import_s
MIN_SAMPLES = 11          # so that a percentile with ten samples beyond exists
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "matcalc.apply_fn.calls": "count",
    "matcalc.apply_fn.self_s": "s",
    "matcalc.eigensolves": "count",
    "matcalc.eig.self_s": "s",
    "matcalc.sample.self_s": "s",
    "classify.check_monotone.self_s": "s",
    "classify.check_convex.self_s": "s",
    "classify.check_strong.self_s": "s",
    "classify.check_loewner.self_s": "s",
    "classify.check_halfplane.self_s": "s",
    "classify.trials": "count",
    "classify.apply_per_trial": "ratio",
    "classify.replay.self_s": "s",
    "classify.witness_bytes": "bytes",
    "funexpr.eval_real.calls": "count",
    "funexpr.eval_real.points": "count",
    "funexpr.eval_real.self_s": "s",
    "funexpr.eval_complex.calls": "count",
    "funexpr.eval_complex.self_s": "s",
    "funexpr.eval_deriv.calls": "count",
    "measures.recover.self_s": "s",
    "measures.integrand_evals": "count",
    "scanning.scans": "count",
    "scanning.self_s": "s",
    "transforms.self_s": "s",
    "ratpoly.as_rational.calls": "count",
    "ratpoly.as_rational.self_s": "s",
    "processes.stages": "count",
    "processes.certify_s": "s",
    "processes.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}

# the self-check: counts that must be nonzero on the workload each layer dominates
DOMINANT = {
    "classify-pass": ("matcalc.apply_fn.calls", "matcalc.eigensolves",
                      "matcalc.sample.calls", "classify.check_monotone.calls",
                      "classify.check_convex.calls", "classify.check_strong.calls",
                      "classify.check_loewner.calls", "classify.check_halfplane.calls",
                      "classify.trials", "funexpr.eval_real.calls",
                      "funexpr.eval_deriv.calls", "scanning.scans"),
    "classify-fail": ("classify.replay.calls", "classify.witness_bytes",
                      "classify.trials", "matcalc.apply_fn.calls"),
    "pipeline-cli": ("transforms.calls", "ratpoly.as_rational.calls",
                     "processes.stages", "processes.certify.calls",
                     "cli.main.calls", "cli.bytes_out", "scanning.scans",
                     "funexpr.eval_real.calls", "matcalc.apply_fn.calls"),
    "recover-atoms": ("measures.recover.calls", "measures.integrand_evals",
                      "funexpr.eval_complex.calls"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="set up only, in DIR, print 'ready' and exit")
    return p.parse_args(argv)


# --- set-up ---------------------------------------------------------------------

def set_up(workloads, name, seed, work_dir):
    """The workload's inputs, built through the package's constructors."""
    inputs = workloads.build_inputs(name, seed)
    if name == "pipeline-cli":
        inputs = list(enumerate(workloads.write_pipeline_specs(inputs, work_dir)))
    return inputs


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _time_child(argv, ready=None):
    """Run a fresh interpreter: (start, end, output after the ``ready`` line),
    where end is when it printed ``ready`` when given, else when it exited."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    with proc:
        if ready is not None:
            line = proc.stdout.readline()
            end = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
        if ready is None:
            end = time.perf_counter()
    if code != 0 or (ready is not None and line.strip() != ready):
        raise RuntimeError(f"child {argv} failed with exit code {code}")
    return start, end, rest


def measure_setup(name, seed, work_dir, cpus):
    """Median over fresh interpreters of start-up to first-request readiness:
    (reference seconds, seconds as measured).  Each interpreter samples its
    CPU's speed while it sets up and prints the samples after ``ready``."""
    ref, raw = [], []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe-{i}")
        os.makedirs(probe_dir)
        pin(cpus)
        start, end, rest = _time_child([os.path.abspath(__file__), "--workload", name,
                                        "--seed", str(seed), "--setup-probe", probe_dir],
                                       ready=b"ready")
        raw.append(end - start)
        ref.append(reference_seconds(start, end, json.loads(rest)))
    return statistics.median(ref), statistics.median(raw)


def measure_cli_import(cpus):
    """Median cost of importing loewner.cli in a fresh interpreter, over a
    bare interpreter start; the two kinds alternate."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        pin(cpus)
        start, end, _ = _time_child(["-c", "pass"])
        bare.append(end - start)
        pin(cpus)
        start, end, _ = _time_child(["-c", "import loewner.cli"])
        full.append(end - start)
    return statistics.median(full) - statistics.median(bare)


# --- the loop ------------------------------------------------------------------

def run_request(request, item, ctx, failures, tracer=None):
    """One request on the fastest CPU: (ok, fingerprint part, extras,
    seconds, reference seconds).  The speed samples come from this process
    when ``ctx.sample_here``, and from the CLI child (``ctx.child_samples``)
    otherwise.  A request without samples (a traced one, or a CLI child that
    died before it sampled) keeps its seconds as measured."""
    pin(ctx.cpus)
    sampler = Sampler()
    ctx.child_samples = sampler.samples
    start = time.perf_counter()
    try:
        with sampler.running() if ctx.sample_here else contextlib.nullcontext():
            if tracer is None:
                ok, fp, extra = request(item, ctx)
            else:
                ok, fp, extra = tracer.span("request", request, (item, ctx), {})
    except Exception:  # a failed request is counted, and the run goes on
        failures.append(traceback.format_exc(limit=3))
        ok, fp, extra = False, ["error"], {}
    end = time.perf_counter()
    seconds = end - start
    if sampler.samples:
        return ok, fp, extra, seconds, reference_seconds(start, end, sampler.samples)
    return ok, fp, extra, seconds, seconds


def run_pass(request, inputs, ctx, failures, tracer=None):
    """One pass over the inputs: lists of (ok, fingerprint part, extras,
    seconds, reference seconds), one list per field."""
    rows = []
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.request = i
        rows.append(run_request(request, item, ctx, failures, tracer))
    return [list(col) for col in zip(*rows)]


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def fingerprint(fps):
    return hashlib.sha256(json.dumps(fps, sort_keys=True).encode()).hexdigest()


def timed_run(request, inputs, ctx, seconds):
    """Whole passes until the pass boundary nearest to ``seconds`` of wall
    time: (oks, first pass's fingerprint parts, seconds, reference seconds,
    failures), the last two per request."""
    failures, oks, raw, ref = [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        o, fps, _, r, s = run_pass(request, inputs, ctx, failures)
        oks += o
        raw += r
        ref += s
        first = first or fps
        now = time.perf_counter()
        if now - start + 0.5 * (now - p0) > seconds and len(oks) >= MIN_SAMPLES:
            break
    return oks, first, raw, ref, failures


def traced_run(request, inputs, ctx, seconds, tracer):
    """Alternate an untraced and a traced pass, stopping at the pair boundary
    nearest to the deadline.  Both kinds are timed alike, as the sum of their
    requests' measured seconds."""
    failures, oks, first = [], [], None
    untraced_s = traced_s = 0.0
    traced_extras, pass_counts = [], []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        o, fps, _, r, _ = run_pass(request, inputs, ctx, failures)
        untraced_s += sum(r)
        before = tracer.snapshot()
        tracer.install()
        ctx.in_process = True     # the CLI runs in-process, so its layers are seen
        try:
            o2, _, extras, r2, _ = run_pass(request, inputs, ctx, failures, tracer)
        finally:
            ctx.in_process = False
            tracer.uninstall()
        traced_s += sum(r2)
        oks += o + o2
        first = first or fps
        traced_extras += extras
        after = tracer.snapshot()
        pass_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
        now = time.perf_counter()
        if now - start + 0.5 * (now - p0) > seconds:
            break
    return oks, first, untraced_s, traced_s, traced_extras, pass_counts, failures


# --- reporting -----------------------------------------------------------------------

def machine_facts():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def layer_metrics(tracer, n_requests, extras, untraced_s, traced_s, import_s):
    self_s, total_s = tracer.layer_totals()
    counts = tracer.snapshot()
    counts["matcalc.eigensolves"] = counts.get("matcalc.eig.calls", 0)
    counts["scanning.scans"] = counts.get("scanning.calls", 0)
    counts["classify.witness_bytes"] = sum(e.get("witness_bytes", 0) for e in extras)
    counts["cli.bytes_out"] = sum(e.get("bytes_out", 0) for e in extras)
    per = {k: v / n_requests for k, v in counts.items()}
    trials = counts.get("classify.trials", 0)
    values = {
        "classify.apply_per_trial": (counts.get("classify.trial_applies", 0) / trials
                                     if trials else 0.0),
        "processes.certify_s": total_s["processes.certify"] / n_requests,
        "processes.self_s": (self_s["processes"] + self_s["processes.certify"]) / n_requests,
        "cli.import_s": import_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        if metric.endswith(".self_s"):
            values[metric] = self_s[metric[:-len(".self_s")]] / n_requests
        else:
            values[metric] = per.get(metric, 0)
    return values, counts


def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        sampler = Sampler()   # from the start, to rescale the whole set-up
        sampler.start()
    if not os.path.isdir(os.path.join(SRC, "loewner")):
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(workloads, args.workload, args.seed, args.setup_probe)
        sampler.stop()
        print("ready", flush=True)
        print(json.dumps(sampler.samples))
        return 0

    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    os.makedirs(RESULTS, exist_ok=True)
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = run(workloads, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()
    result["machine"] = facts
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    for note in result["notes"]:
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(workloads, args, work_dir):
    _, request, _ = workloads.WORKLOADS[args.workload]
    cpus = sorted(os.sched_getaffinity(0))
    setup_s, setup_raw_s = measure_setup(args.workload, args.seed, work_dir, cpus)
    inputs = set_up(workloads, args.workload, args.seed, work_dir)
    # the CLI child samples its own CPU; any other request is sampled here,
    # except in a traced run, whose spans must not hold the probes
    ctx = types.SimpleNamespace(work_dir=work_dir, in_process=False, cpus=cpus,
                                sample_here=not args.trace and args.workload != "pipeline-cli",
                                child_samples=[], child_env=_child_env(),
                                child_rss_mb=0.0, first_bytes={})
    warm_failures = []
    warm_ok = run_request(request, inputs[0], ctx, warm_failures)[0]
    notes = [f"workload {args.workload}, seed {args.seed}, "
             f"{len(inputs)} inputs per pass"]

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        (oks, fps, untraced_s, traced_s, extras, pass_counts,
         failures) = traced_run(request, inputs, ctx, args.seconds, tracer)
        n_traced = len(extras)
        values, counts = layer_metrics(tracer, n_traced, extras, untraced_s,
                                       traced_s, measure_cli_import(cpus))
        missing = [k for k in DOMINANT[args.workload] if not counts.get(k)]
        repeatable = all(c == pass_counts[0] for c in pass_counts)
        self_check = not missing and repeatable
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"))
        notes.append(f"traced {n_traced} requests in {len(pass_counts)} passes; "
                     f"tracing overhead {traced_s / untraced_s:.3f}x "
                     f"({traced_s:.2f} s traced vs {untraced_s:.2f} s untraced)")
        notes.append("tracer self-check " + ("passed" if self_check else
                     f"FAILED: zero counts {missing}, counts repeat {repeatable}"))
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}
        extra = {"self_check": self_check, "zero_counts": missing,
                 "counts_per_pass": pass_counts[0]}
    else:
        oks, fps, raw, ref, failures = timed_run(request, inputs, ctx, args.seconds)
        timed_s = sum(ref)
        # a failed request misses every latency bound
        lat = [dt if ok else float("inf") for dt, ok in zip(ref, oks)]
        tail_s, tail_pct = tail(lat)
        rss = (ctx.child_rss_mb if args.workload == "pipeline-cli"
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {
            "throughput_rps": {"value": oks.count(True) / timed_s, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        notes.append(f"latency_tail_s is the p{tail_pct:.1f} of {len(lat)} samples "
                     f"({len(lat) // len(inputs)} passes in {timed_s:.2f} reference s)")
        notes.append(f"as measured: {oks.count(True) / sum(raw):.4g} requests/s, "
                     f"latency p50 {statistics.median(raw):.4g} s, "
                     f"setup {setup_raw_s:.4g} s ({sum(raw):.2f} s of requests)")
        self_check = True
        extra = {"latencies_s": lat, "tail_percentile": tail_pct,
                 "samples": len(lat), "timed_s": timed_s, "measured_latencies_s": raw,
                 "measured_setup_s": setup_raw_s}

    failures = warm_failures + failures
    failed = oks.count(False)
    behaviour = fingerprint(fps)
    notes.append(f"behaviour fingerprint {behaviour}")
    for f in failures[:3]:
        notes.append("request error: " + f.strip().splitlines()[-1])
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "inputs_per_pass": len(inputs),
            "correct": warm_ok and failed == 0 and self_check,
            "attempted": len(oks), "failed": failed, "metrics": metrics,
            "fingerprint": behaviour, "fingerprint_parts": fps,
            "notes": notes, **extra}


if __name__ == "__main__":
    sys.exit(main())
