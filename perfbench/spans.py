"""Span tracing of the package's layers from outside the package.

``Tracer.install`` wraps each public function of a layer wherever the program
looks it up: in its home module, in every module that imported it by name, in
module-level tables such as ``processes._CHECKS``, and in the package
namespace.  The evaluation channels are methods of ``FunctionExpr`` and are
wrapped on the class; eigensolves are counted by wrapping ``numpy.linalg``.
``Tracer.uninstall`` puts every original back.

Spans are kept in memory as ``(name, start, end, parent, request)`` and
written out when the run ends.  A span's self time is its duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from loewner import classify, cli, funexpr, matcalc, measures, processes, ratpoly
from loewner import scanning, transforms

# span name -> functions it wraps; the span name is the layer metric prefix
LAYER_FUNCTIONS = {
    "matcalc.apply_fn": [matcalc.apply_fn],
    "matcalc.sample": [matcalc.rand_hermitian, matcalc.rand_ordered_pair,
                       matcalc.haar_unitary],
    "classify.check_monotone": [classify.check_monotone],
    "classify.check_convex": [classify.check_convex],
    "classify.check_strong": [classify.check_strong],
    "classify.check_loewner": [classify.check_loewner],
    "classify.check_halfplane": [classify.check_halfplane],
    "classify.replay": [classify.replay_witness],
    "measures.recover": [measures.recover_atom_weight],
    "scanning": [scanning.check_positive, scanning.check_negative,
                 scanning.is_zero_on_grid, scanning.check_bounded],
    "transforms": [transforms.diff_quotient, transforms.neg_reciprocal,
                   transforms.mul_linear, transforms.choose_shift,
                   transforms.compose_checked],
    "ratpoly.as_rational": [ratpoly.as_rational],
    "processes": [processes.main_cycle, processes.star_process,
                  processes.backward_process],
    "processes.certify": [processes._certify],
    "cli.main": [cli.main],
}
METHODS = {"funexpr.eval_real": "eval_real",
           "funexpr.eval_complex": "eval_complex",
           "funexpr.eval_deriv": "eval_deriv"}
EIG_FUNCTIONS = ("eigh", "eigvalsh")
# checks whose trials call apply_fn; classify.trials sums their cert.trials
TRIAL_CHECKS = ("classify.check_monotone", "classify.check_convex",
                "classify.check_strong")


class Tracer:
    def __init__(self):
        self.names = []           # span name per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.requests = []
        self.stack = []
        self.open = Counter()     # span name -> how many are open now
        self.counts = Counter()
        self.calls = Counter()    # span name -> spans recorded
        self.request = None
        self._patched = []        # (container, key, original, is_dict)

    # --- spans ----------------------------------------------------------------

    def span(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.calls[name] += 1
        self.open[name] += 1
        self.starts[idx] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.open[name] -= 1
            self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(name, args)
            out = tracer.span(name, fn, args, kwargs)
            if name in TRIAL_CHECKS:
                tracer.counts["classify.trials"] += out.trials
            elif name == "processes":
                tracer.counts["processes.stages"] += len(out.stages)
            return out

        return traced

    def _count(self, name, args):
        if name == "funexpr.eval_real":
            self.counts["funexpr.eval_real.points"] += int(np.size(args[1]))
        elif name == "funexpr.eval_complex" and self.open["measures.recover"]:
            self.counts["measures.integrand_evals"] += 1
        elif name == "matcalc.apply_fn" and any(self.open[c] for c in TRIAL_CHECKS):
            self.counts["classify.trial_applies"] += 1

    # --- installing -------------------------------------------------------------

    def install(self):
        targets = {}
        for name, fns in LAYER_FUNCTIONS.items():
            for fn in fns:
                targets[id(fn)] = self._wrap(name, fn)
        for name in EIG_FUNCTIONS:
            self._set(np.linalg, name, self._wrap("matcalc.eig", getattr(np.linalg, name)))
        for name, attr in METHODS.items():
            self._set(funexpr.FunctionExpr, attr,
                      self._wrap(name, getattr(funexpr.FunctionExpr, attr)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "loewner" and not mod_name.startswith("loewner."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in targets:
                    self._set(module, key, targets[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in targets:
                            self._patched.append((value, k, v, True))
                            value[k] = targets[id(v)]

    def _set(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patched):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # --- reading ----------------------------------------------------------------

    def snapshot(self):
        """Every count so far, and ``<span name>.calls`` for every span name."""
        snap = dict(self.counts)
        snap.update((f"{name}.calls", c) for name, c in self.calls.items())
        return snap

    def layer_totals(self):
        """(self seconds, total seconds) per span name."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_s, total_s = defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            self_s[name] += dur - child[i]
            total_s[name] += dur
        return self_s, total_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "request"],\n'
                     ' "spans": [\n')
            rows = zip(self.names, self.starts, self.ends, self.parents, self.requests)
            fh.write(",\n".join(json.dumps(list(row)) for row in rows))
            fh.write("\n]}\n")

