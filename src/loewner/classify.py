"""Numerical certification of the operator-order function classes.

Each check runs seeded randomized trials of the defining matrix inequality
and returns a Certificate: verdict "pass" (no violation found), "fail" (a
witness violating the inequality beyond tolerance, stored in JSON form and
replayable), or "inconclusive" (the dual routes disagreed).  A "pass" is
evidence, not proof; a "fail" witness is checkable independently.

Checks:

* monotone            h1 <= h2  implies  f(h1) <= f(h2)
* convex              Jensen midpoints plus the compression inequality
                      f(V*hV) <= V*f(h)V  (corner form)
* strong convexity    V f(V*hV) V*  <=  f(h)  (full-space comparison),
                      cross-checked by the paper's iff: g is strongly convex
                      iff (x - x0) g(x) is operator monotone (loewner below)
* loewner             divided-difference matrices at random nodes are PSD
* halfplane           Pick matrices at random nodes of the upper half-plane
                      are PSD

A matrix that must be PSD counts as PSD when its smallest eigenvalue is not
below -tol * scale, where scale is the size of the operands it was computed
from, so multiplying f by a positive constant moves no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .errors import DuplicateNodes, LoewnerError, NonFiniteValue
from .funexpr import MulLinear
from .interval import json_fields, json_number, json_numbers
from .matcalc import (
    apply_fn,
    apply_spectrum,
    compress,
    embed,
    hermitian_draw,
    inset_window,
    isometry_draw,
    matrix_from_json,
    matrix_to_json,
    min_eig_floor,
    pair_draw,
    projection_basis,
    psd_min_eig,
    rand_hermitian,
    rand_ordered_pair,
    sample_window,
    spectrum,
)
from .scanning import is_zero_on_grid

__all__ = [
    "Certificate", "CertifyConfig",
    "check_monotone", "check_convex", "check_strong",
    "check_loewner", "loewner_matrix", "check_halfplane",
    "classify_all", "ClassifyResult", "replay_witness",
]

T_DRAWS = 8                      # random Jensen weights per convexity trial
LOEWNER_SETS = 64                # node sets per divided-difference check
LOEWNER_SIZES = (2, 3, 4, 5, 6, 7, 8)
CHUNK = 128                      # most trials drawn and evaluated together
VERDICTS = ("pass", "fail", "inconclusive")
# (a, b): a pass of check a implies a pass of check b; by Loewner's theorem,
# monotone, loewner and halfplane imply one another
IMPLICATIONS = (("strong", "convex"), ("monotone", "loewner"), ("monotone", "halfplane"),
                ("halfplane", "monotone"), ("halfplane", "loewner"))


@dataclass(frozen=True)
class CertifyConfig:
    trials: int = 300
    dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        # trials < 0 or a NaN/inf tol passes anything; tol < 0 fails PSD matrices
        counts = (self.trials, self.seed, *self.dims)
        if (any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in counts)
                or not self.dims or min(self.dims) < 2 or min(self.trials, self.seed) < 0
                or not 0.0 <= self.tol < np.inf):
            raise ValueError(f"need integer trials, dims and seed, dims of sizes >= 2, "
                             f"seed >= 0, trials >= 0 and a finite tol >= 0, got {self}")


@dataclass(frozen=True)
class Certificate:
    property: str
    verdict: str            # one of VERDICTS
    trials: int
    tolerance: float
    seed: int
    witness: dict = None
    detail: str = ""

    to_json = json_fields

    @staticmethod
    def from_json(d: dict) -> "Certificate":
        # trials, tolerance and seed are read as the run config they came from
        run = CertifyConfig(trials=d["trials"], tol=json_number(d["tolerance"]), seed=d["seed"])
        if not isinstance(d["property"], str) or d["verdict"] not in VERDICTS:
            raise TypeError(f"bad property {d['property']!r} or verdict {d['verdict']!r}")
        return Certificate(d["property"], d["verdict"], run.trials, run.tol, run.seed,
                           d.get("witness"), d.get("detail", ""))


class _DrawCache(dict):
    """Domain-free draws as read-only arrays, by (seed, size, *trials, draws): what
    the last of draws draws on fresh streams default_rng([seed, t]) after the
    others.  The least recently used go once the arrays pass ``budget`` bytes."""
    budget, nbytes = 4 << 20, 0

    def drawn(self, seed: int, size: int, trials: list, *draws) -> tuple:
        key = (seed, size, *trials, draws)
        out = self.pop(key, None)    # and back in last, as the most recently used
        if out is None:
            rngs = [np.random.default_rng([seed, t]) for t in trials]
            out = [draw(rngs, size) for draw in draws][-1]
            for a in out:
                a.flags.writeable = False
                self.nbytes += a.nbytes
        self[key] = out
        while self.nbytes > self.budget:
            self.nbytes -= sum(a.nbytes for a in self.pop(next(iter(self))))
        return out


_DRAWS = _DrawCache()


def _scan(prop: str, config: CertifyConfig, sizes: tuple, probe, memo, trials):
    """Evaluate the trials, those of one size as stacks: the fail certificate of
    the lowest bad gap, or None; NonFiniteValue if that gap is not finite."""
    groups = {}
    for trial in trials:
        groups.setdefault(sizes[trial % len(sizes)], []).append(trial)
    hits = []     # (trial, part, fields, index, min eig or None)
    for size, members in groups.items():
        # a single trial, so every rerun of a raising chunk, runs as the check alone
        first = (memo.setdefault((size, *members), [])
                 if memo is not None and len(members) > 1 else [])
        drawn = partial(_DRAWS.drawn, config.seed, size, members)
        for part, (owner, gap, scale, fields) in enumerate(probe(drawn, size, first)):
            finite = np.isfinite(gap).all(axis=(-2, -1))
            mn, floor = min_eig_floor(gap if finite.all() else
                                      np.where(finite[:, None, None], gap, 0.0), scale, config.tol)
            for i in np.flatnonzero(~finite | (mn < floor))[:1]:
                hits.append((members[owner[i]], part, fields, i,
                             float(mn[i]) if finite[i] else None))
    return _fail(prop, config, *min(hits, key=lambda f: f[:2])) if hits else None


def _fail(prop: str, config: CertifyConfig, trial, _, fields, i, mn) -> Certificate:
    fields = fields(i)
    if mn is None:
        raise NonFiniteValue(f"{prop} trial {trial}: the {fields['check']} "
                             f"matrix has a non-finite entry")
    witness = {"check": fields.pop("check"), "trial": trial}
    witness.update((k, matrix_to_json(v) if isinstance(v, np.ndarray) else v)
                   for k, v in fields.items())
    witness["min_eig"] = mn
    return Certificate(prop, "fail", trial + 1, config.tol, config.seed, witness)


def _search(prop: str, config: CertifyConfig, count: int, sizes: tuple,
            probe, memo=None) -> Certificate:
    """Trials 0..count-1 in chunks [0], [1], then CHUNK at a time; trial k has
    size sizes[k % len(sizes)], stream default_rng([seed, k]).

    ``probe(drawn, size, first)`` takes from ``drawn(*draws)`` what the last of
    draws, functions of (streams, size), draws on the streams of the trials of
    one size after the others, and yields parts (owner, gap, scale, fields): a
    stack of matrices that must be PSD, the scale of each one's floor, each
    one's trial by position, and fields(i), the witness of gap i.  ``first``
    is [h, f(h)] of the group's first draw h = rand_hermitian (monotone's h2,
    convex's h1, strong's h) from ``memo``, or [] for monotone to fill.  The
    first gap in (trial, probe) order that is not finite or is below its floor
    decides; a chunk that raises runs again one trial at a time, and the lowest
    trial's error propagates.
    """
    scan = partial(_scan, prop, config, sizes, probe, memo)
    for start in (*range(min(count, 2)), *range(2, count, CHUNK)):
        chunk = range(start, min(count, start + (CHUNK if start > 1 else 1)))
        try:
            found = scan(chunk)
        except LoewnerError:
            found = next(filter(None, (scan([t]) for t in chunk)), None)
        if found:
            return found
    return Certificate(prop, "pass", count, config.tol, config.seed)


# --- the inequalities: each returns the matrix (or stack) that must be PSD and
# the scale of its floor --------------------------------------------------------

def _scale(*operands) -> np.ndarray:
    """The largest infinity-norm (absolute row sum) of the operands, per matrix
    of a stack: for a Hermitian n x n matrix, between its spectral norm and
    sqrt(n) times that."""
    return reduce(np.maximum, (np.abs(m).sum(-1).max(-1) for m in operands))


def _monotone_gap(f1, f2) -> tuple:
    """f(h2) - f(h1) for h1 <= h2, given f1 = f(h1), f2 = f(h2)."""
    return f2 - f1, _scale(f1, f2)


def _mix(h1, h2, t, dom) -> tuple:
    """The spectrum of t h1 + (1-t) h2."""
    return spectrum(t * h1 + (1.0 - t) * h2, dom)


def _jensen_gap(fn, f1, f2, t, mix) -> tuple:
    """t f(h1) + (1-t) f(h2) - f(t h1 + (1-t) h2) from f(h1), f(h2), _mix(h1, h2, t)."""
    fm = apply_spectrum(fn, mix)
    return t * f1 + (1.0 - t) * f2 - fm, _scale(f1, f2, fm)


def _davis_gap(fn, fh, v, corner) -> tuple:
    """V*f(h)V - f(V*hV) for an isometry V, given fh = f(h), corner = eig(V*hV)."""
    fc = apply_spectrum(fn, corner)
    return compress(fh, v) - fc, _scale(fh, fc)


def _strong_gap(fn, fh, v, corner) -> tuple:
    """f(h) - V f(V*hV) V* for an isometry V, given fh = f(h), corner = eig(V*hV)."""
    fc = apply_spectrum(fn, corner)
    return fh - embed(fc, v), _scale(fh, fc)


# --- monotonicity -----------------------------------------------------------------

def check_monotone(fn, config: CertifyConfig = CertifyConfig(), *, memo=None) -> Certificate:
    """Random ordered pairs h1 <= h2: f(h2) - f(h1) must stay PSD."""
    def probe(drawn, n, first):
        h2 = rand_hermitian(drawn(hermitian_draw), n, fn.domain)
        h1, h2 = rand_ordered_pair(drawn(hermitian_draw, pair_draw), n, fn.domain, h2)
        f1, f2 = apply_fn(fn, np.stack([h1, h2]))
        first[:] = h2, f2.copy()
        yield (np.arange(len(h1)), *_monotone_gap(f1, f2),
               lambda i: {"check": "monotone", "dim": n, "h1": h1[i], "h2": h2[i]})

    return _search("operator_monotone", config, config.trials, config.dims, probe, memo)


# --- convexity -------------------------------------------------------------------

def _convex_draws(rngs, n: int) -> tuple:
    """Convex's draws after h1: h2, the Jensen weights, h, and h's isometries."""
    h2 = hermitian_draw(rngs, n)
    ts = np.array([[0.5, *g.uniform(0.0, 1.0, T_DRAWS)] for g in rngs])
    return (*h2, ts, *hermitian_draw(rngs, n), *isometry_draw(rngs, n))


def _corner_parts(fn, check, gap, ranks, u, n, h, fh):
    """One part per rank drawn, for the isometries V = u[:, :rank]: gap(f,
    f(h), V, spectrum of V*hV) for the trials of that rank, given fh = f(h),
    with witness fields h1 = h and the projection p = VV*."""
    for r in np.flatnonzero(np.bincount(ranks)):
        owner = np.flatnonzero(ranks == r)
        v = u[owner, :, :r]
        corner = spectrum(compress(h[owner], v), fn.domain)
        yield (owner, *gap(fn, fh[owner], v, corner),
               lambda i, h=h[owner], v=v: {"check": check, "dim": n, "h1": h[i],
                                           "p": v[i] @ v[i].conj().T})


def check_convex(fn, config: CertifyConfig = CertifyConfig(), *, memo=None) -> Certificate:
    """Jensen combinations (t = 1/2 plus random t) and corner compressions."""
    def probe(drawn, n, first):
        x2, u2, ts, x, u, ranks, us = drawn(hermitian_draw, _convex_draws)
        h1 = first[0] if first else rand_hermitian(drawn(hermitian_draw), n, fn.domain)
        h2, h = rand_hermitian((x2, u2), n, fn.domain), rand_hermitian((x, u), n, fn.domain)
        fs = apply_spectrum(fn, spectrum(np.stack([h2, h] if first else [h1, h2, h]), fn.domain))
        f1, f2, fh = (first[1], *fs) if first else fs
        gap, scale = _jensen_gap(fn, f1[:, None], f2[:, None], ts[..., None, None],
                                 _mix(h1[:, None], h2[:, None], ts[..., None, None], fn.domain))
        per = T_DRAWS + 1
        yield (np.arange(len(h)).repeat(per), gap.reshape(-1, n, n), scale.reshape(-1),
               lambda i: {"check": "jensen", "dim": n, "t": float(ts.flat[i]),
                          "h1": h1[i // per], "h2": h2[i // per]})
        yield from _corner_parts(fn, "davis", _davis_gap, ranks, us, n, h, fh)

    return _search("operator_convex", config, config.trials, config.dims, probe, memo)


# --- strong convexity --------------------------------------------------------------

def check_strong(fn, config: CertifyConfig = CertifyConfig(), *, memo=None) -> Certificate:
    """Compression-domination trials, cross-checked by the paper's iff.

    f exactly 0.0 at every scan point passes outright with 0 trials, and a
    non-finite grid value raises NonFiniteValue.  A fail of the direct
    inequality stands.  A pass must agree with check_loewner of (x - x0) f(x),
    x0 the middle of the sampled window, which is operator monotone iff f is
    strongly operator convex; disagreement is reported as "inconclusive", with
    the Loewner witness and its x0, rather than picking a side.
    """
    prop = "strongly_operator_convex"
    if is_zero_on_grid(fn.eval_real, fn.domain):
        return Certificate(prop, "pass", 0, config.tol, config.seed,
                           detail="identically zero on the scan grid")

    def probe(drawn, n, first):
        h = first[0] if first else rand_hermitian(drawn(hermitian_draw), n, fn.domain)
        ranks, u = drawn(hermitian_draw, isometry_draw)
        yield from _corner_parts(fn, "strong", _strong_gap, ranks, u, n, h,
                                 first[1] if first else apply_fn(fn, h))

    direct = _search(prop, config, config.trials, config.dims, probe, memo)
    if direct.verdict == "fail":
        return direct
    win = sample_window(fn.domain)
    x0 = 0.5 * (win.lo + win.hi)
    iff = check_loewner(MulLinear(fn, x0), config)
    if iff.verdict == "pass":
        return replace(direct, detail="confirmed via (x - x0) f route")
    return replace(direct, verdict="inconclusive", witness={**iff.witness, "x0": x0},
                   detail="routes disagree: direct pass, (x - x0) f fail")


# --- divided-difference matrices ----------------------------------------------------

def _loewner_gap(fn, nodes) -> tuple:
    """loewner_matrix(fn, nodes) and the scale of its floor: max |f(xi)| over
    the smallest node gap, what rounding in f moves a divided difference by."""
    xs = np.asarray(nodes, dtype=float)
    srt = np.sort(xs, axis=-1)
    gaps = srt[..., 1:] - srt[..., :-1]
    if (gaps == 0).any():
        raise DuplicateNodes(f"nodes contain repeats: {srt.tolist()}")
    vals = np.asarray(fn.eval_real(xs), dtype=float)
    der = np.asarray(fn.eval_deriv(xs), dtype=float)
    dx = xs[..., :, None] - xs[..., None, :]
    df = vals[..., :, None] - vals[..., None, :]
    eye = np.eye(xs.shape[-1], dtype=bool)
    out = np.where(eye, 0.0, df / np.where(eye, 1.0, dx))
    out[..., eye] = der
    return out, np.abs(vals).max(-1) / gaps.min(-1)


def loewner_matrix(fn, nodes) -> np.ndarray:
    """Matrix of divided differences (f(xi)-f(xj))/(xi-xj), derivative on
    the diagonal; over a (..., size) stack of node sets, a stack of them.
    Nodes must be distinct points of the domain."""
    return _loewner_gap(fn, nodes)[0]


def _unit_nodes(rngs, size: int) -> tuple:
    """2 size unit uniforms per stream: Loewner's nodes from half, Pick's from all."""
    return np.array([g.random(2 * size) for g in rngs]),


def check_loewner(fn, config: CertifyConfig = CertifyConfig()) -> Certificate:
    """Random node sets: every divided-difference matrix must be PSD."""
    lo, hi = inset_window(fn.domain)

    def probe(drawn, size, _):
        nodes = lo + (hi - lo) * drawn(_unit_nodes)[0][:, :size]    # bitwise g.uniform(lo, hi)
        yield (np.arange(len(nodes)), *_loewner_gap(fn, nodes),
               lambda i: {"check": "loewner", "nodes": sorted(nodes[i].tolist())})

    return _search("loewner_order", config, LOEWNER_SETS, LOEWNER_SIZES, probe)


# --- Pick matrices in the upper half-plane ---------------------------------------------

def _pick_gap(fn, zs) -> tuple:
    """The Pick matrix (f(zi) - conj f(zj)) / (zi - conj zj) of a (..., size)
    stack of upper half-plane nodes, and the scale of its floor: max |f(zi)|
    over the smallest |zi - conj zj|, what rounding in f moves an entry by."""
    vals = fn.eval_complex(zs)
    dz = zs[..., :, None] - zs.conj()[..., None, :]
    return ((vals[..., :, None] - vals.conj()[..., None, :]) / dz,
            np.abs(vals).max(-1) / np.abs(dz).min((-2, -1)))


def check_halfplane(fn, config: CertifyConfig = CertifyConfig()) -> Certificate:
    """Random node sets z = mid + half r e^(i theta) around the sampled window,
    r log-uniform in [1e-3, 10], theta in (0, pi]: every Pick matrix must be
    PSD, as it is for a Pick function, the holomorphic extension of a monotone
    one (Loewner; Pick)."""
    win = sample_window(fn.domain)
    mid, half = 0.5 * (win.lo + win.hi), 0.5 * (win.hi - win.lo)

    def probe(drawn, size, _):
        (u,) = drawn(_unit_nodes)   # log r bitwise g.uniform(log 1e-3, log 10), then theta
        zs = mid + half * np.exp(np.log(1e-3) + (np.log(10.0) - np.log(1e-3)) * u[:, :size]
                                 + 1j * np.pi * (1.0 - u[:, size:]))
        yield (np.arange(len(zs)), *_pick_gap(fn, zs),
               lambda i: {"check": "pick", "nodes": [[z.real, z.imag] for z in zs[i].tolist()]})

    return _search("halfplane", config, LOEWNER_SETS, LOEWNER_SIZES, probe)


# --- everything at once ---------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyResult:
    certificates: dict
    flags: tuple = ()

    to_json = json_fields


def classify_all(fn, config: CertifyConfig = CertifyConfig()) -> ClassifyResult:
    """Run all five checks and cross-check the implications between them."""
    memo = {}     # (size, *trials) -> [h, f(h)] of the group's first draw
    certs = {
        "monotone": check_monotone(fn, config, memo=memo),
        "convex": check_convex(fn, config, memo=memo),
        "strong": check_strong(fn, config, memo=memo),
        "loewner": check_loewner(fn, config),
        "halfplane": check_halfplane(fn, config),
    }
    flags = tuple(f"{a}-pass-but-{b}-fail" for a, b in IMPLICATIONS
                  if certs[a].verdict == "pass" and certs[b].verdict == "fail")
    return ClassifyResult(certs, flags)


# --- witness replay ---------------------------------------------------------------------

def replay_witness(fn, cert: Certificate) -> float:
    """Recompute the violated margin in a failure certificate from scratch.

    Returns the recomputed minimum eigenvalue; callers compare it against
    witness["min_eig"].  A witness with "x0" is one of (x - x0) f(x), the
    second route of strong convexity.  A NaN or inf in the witness raises NonFiniteValue.
    """
    w = cert.witness
    if not w:
        raise ValueError("certificate carries no witness")
    kind = w.get("check")
    num, nums = partial(json_number, nan=True), partial(json_numbers, nan=True)
    nodes = nums if kind == "loewner" else lambda zs: np.array([complex(*nums(z)) for z in zs])
    read = {"x0": num, "t": num, "min_eig": num, "nodes": nodes,
            "h1": matrix_from_json, "h2": matrix_from_json, "p": matrix_from_json}
    x = {k: read[k](w[k]) for k in read if k in w}
    bad = [k for k in x if not np.isfinite(x[k]).all()]
    if bad:
        raise NonFiniteValue(f"witness {bad[0]!r} has a non-finite entry")
    fn = MulLinear(fn, x["x0"]) if "x0" in x else fn
    if kind in ("pick", "loewner"):
        gap = _pick_gap(fn, x["nodes"])[0] if kind == "pick" else loewner_matrix(fn, x["nodes"])
    elif kind in ("monotone", "jensen"):
        f1, f2 = apply_fn(fn, np.stack([x["h1"], x["h2"]]))
        gap, _ = (_monotone_gap(f1, f2) if kind == "monotone"
                  else _jensen_gap(fn, f1, f2, x["t"], _mix(x["h1"], x["h2"], x["t"], fn.domain)))
    elif kind in ("davis", "strong"):
        h, v = x["h1"], projection_basis(x["p"])
        gap, _ = (_davis_gap if kind == "davis" else _strong_gap)(
            fn, apply_fn(fn, h), v, spectrum(compress(h, v), fn.domain))
    else:
        raise ValueError(f"unknown witness check {kind!r}")
    return psd_min_eig(gap)
