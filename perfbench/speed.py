"""CPU speed: a reference probe, CPU choice, and timings in reference seconds.

Each virtual CPU of the shared host this benchmark was built on switches,
every few seconds, between full speed and about half of it, and for minutes
at a time both can be slow; a timing taken as it is then says more about the
host than about the program.  So every timed stretch of work runs under a
``Sampler``, which times a fixed reference probe at its start and every
INTERVAL_S seconds of wall time during it, in the process doing the work.
``reference_seconds`` then leaves the probes' own time out and rescales the
rest by the speed the probes saw, to the speed at which one probe takes
REF_PROBE_S: the time the work would have taken on a full-speed CPU.

The probe is the benchmark's own code and uses nothing of the package, so a
change to the package cannot change it.  It mixes interpreter work (sorting,
JSON, object calls) with small complex Hermitian eigensolves, the two kinds
of work the package's requests are made of: a pure-Python loop alone slows
down less than the requests do when the CPU slows down.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# One probe on a full-speed vCPU of the machine the bounds were set on (the
# 5th percentile of its probe times).
REF_PROBE_S = 1.05e-3

_DOC = {f"k{i}": [i * 0.5, str(i), {"x": i}] for i in range(60)}
_FLOATS = [((i * 7919) % 1000) / 1000.0 for i in range(300)]
# bound before a traced run wraps numpy.linalg, so that the probe's
# eigensolves are never counted as the program's
_EIGH, _EIGVALSH = np.linalg.eigh, np.linalg.eigvalsh


class _Affine:
    def __init__(self, v):
        self.v = v

    def at(self, x):
        return self.v * x + 1.0


def probe():
    """Seconds taken by one round of the reference work."""
    start = time.perf_counter()
    sorted(_FLOATS)
    json.loads(json.dumps(_DOC))
    table = {}
    for obj in [_Affine(i) for i in range(200)]:
        table[obj.v] = obj.at(2.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, v = _EIGH((a + a.conj().T) / 2)
        m = (v * np.power(np.abs(w) + 1.0, 1.5)) @ v.conj().T
        _EIGVALSH((m + m.conj().T) / 2)
    return time.perf_counter() - start


def pin(cpus):
    """Move this process, and the children it starts next, to whichever of
    ``cpus`` runs the probe fastest now."""
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


class Sampler:
    """Times the probe when started and then every INTERVAL_S seconds of wall
    time (on SIGALRM) until stopped.  ``samples`` holds (start, seconds,
    counted) of each probe, on the ``time.perf_counter`` clock, which on
    Linux is CLOCK_MONOTONIC and so is shared with child processes.  The
    first probe of a process runs numpy's lazy initialisation and takes
    about ten times as long, so the first probe of a sampler is a warm-up:
    its time is left out like the others', but it is not counted as a
    measure of speed."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum=None, frame=None):
        self.samples.append((time.perf_counter(), probe(), bool(self.samples)))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def running(self):
        self.start()
        try:
            yield
        finally:
            self.stop()


def reference_seconds(start, end, samples):
    """Seconds from ``start`` to ``end`` less the probes in between, rescaled
    by the mean speed the counted probes measured to the reference speed."""
    inside = [(s, counted) for t, s, counted in samples if start <= t < end]
    speeds = [1.0 / s for s, counted in inside if counted]
    if not speeds:
        raise ValueError("no speed sample between start and end")
    return ((end - start - sum(s for s, _ in inside))
            * REF_PROBE_S * statistics.fmean(speeds))
