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
                      cross-checked against convexity of -1/f when f > 0
* loewner             divided-difference matrices at random nodes are PSD
* halfplane           Im f(z) >= 0 on a grid in the upper half-plane
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateNodes, NotPositive, UnsupportedNode, ZeroFunction
from .funexpr import NegRecip
from .matcalc import (
    apply_fn,
    compress,
    embed,
    haar_unitary,
    matrix_from_json,
    matrix_to_json,
    min_eig_floor,
    psd_min_eig,
    rand_hermitian,
    rand_ordered_pair,
    sym,
)
from .scanning import check_positive, is_zero_on_grid

__all__ = [
    "Certificate", "CertifyConfig", "GridConfig",
    "check_monotone", "check_convex", "check_strong",
    "check_loewner", "loewner_matrix", "check_halfplane",
    "classify_all", "ClassifyResult", "replay_witness",
]

HALFPLANE_TOL = 1e-10
T_DRAWS = 8                      # random Jensen weights per convexity trial
CLIP_LEN = 20.0                  # length of the window sampled on long domains
LOEWNER_SETS = 64                # node sets per divided-difference check
LOEWNER_SIZES = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class CertifyConfig:
    trials: int = 300
    dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    tol: float = 1e-9
    seed: int = 0


@dataclass(frozen=True)
class GridConfig:
    re_points: int = 50
    im_points: int = 50
    re_window: tuple = None    # default: clipped domain window
    im_range: tuple = (1e-3, 10.0)
    extra_points: tuple = ()   # extra complex probes


@dataclass(frozen=True)
class Certificate:
    property: str
    verdict: str            # "pass" | "fail" | "inconclusive"
    trials: int
    tolerance: float
    seed: int
    witness: dict = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"property": self.property, "verdict": self.verdict,
               "trials": self.trials, "tolerance": self.tolerance,
               "seed": self.seed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out

    @staticmethod
    def from_json(d: dict) -> "Certificate":
        return Certificate(property=d["property"], verdict=d["verdict"],
                           trials=d["trials"], tolerance=d["tolerance"],
                           seed=d["seed"], witness=d.get("witness"),
                           detail=d.get("detail", ""))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _dim(config: CertifyConfig, trial: int) -> int:
    return config.dims[trial % len(config.dims)]


# --- monotonicity -----------------------------------------------------------------

def check_monotone(fn, config: CertifyConfig = CertifyConfig()) -> Certificate:
    """Random ordered pairs h1 <= h2: f(h2) - f(h1) must stay PSD."""
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        n = _dim(config, trial)
        h1, h2 = rand_ordered_pair(rng, n, fn.domain, CLIP_LEN)
        mn, floor = min_eig_floor(apply_fn(fn, h2) - apply_fn(fn, h1), config.tol)
        if mn < floor:
            witness = {"check": "monotone", "trial": trial, "dim": n,
                       "h1": matrix_to_json(h1), "h2": matrix_to_json(h2),
                       "min_eig": mn}
            return Certificate("operator_monotone", "fail", trial + 1,
                               config.tol, config.seed, witness)
    return Certificate("operator_monotone", "pass", config.trials,
                       config.tol, config.seed)


# --- convexity -------------------------------------------------------------------

def _rand_isometry(rng: np.random.Generator, n: int) -> np.ndarray:
    rank = int(rng.integers(1, n))
    return haar_unitary(rng, n)[:, :rank]


def check_convex(fn, config: CertifyConfig = CertifyConfig()) -> Certificate:
    """Jensen combinations (t = 1/2 plus random t) and corner compressions."""
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        n = _dim(config, trial)
        h1 = rand_hermitian(rng, n, fn.domain, CLIP_LEN)
        h2 = rand_hermitian(rng, n, fn.domain, CLIP_LEN)
        f1, f2 = apply_fn(fn, h1), apply_fn(fn, h2)
        ts = [0.5] + [float(t) for t in rng.uniform(0.0, 1.0, T_DRAWS)]
        for t in ts:
            mix = apply_fn(fn, sym(t * h1 + (1.0 - t) * h2))
            mn, floor = min_eig_floor(t * f1 + (1.0 - t) * f2 - mix, config.tol)
            if mn < floor:
                witness = {"check": "jensen", "trial": trial, "dim": n, "t": t,
                           "h1": matrix_to_json(h1), "h2": matrix_to_json(h2),
                           "min_eig": mn}
                return Certificate("operator_convex", "fail", trial + 1,
                                   config.tol, config.seed, witness)
        h = rand_hermitian(rng, n, fn.domain, CLIP_LEN)
        v = _rand_isometry(rng, n)
        corner = apply_fn(fn, compress(h, v))
        mn, floor = min_eig_floor(compress(apply_fn(fn, h), v) - corner, config.tol)
        if mn < floor:
            witness = {"check": "davis", "trial": trial, "dim": n,
                       "h1": matrix_to_json(h),
                       "p": matrix_to_json(v @ v.conj().T), "min_eig": mn}
            return Certificate("operator_convex", "fail", trial + 1,
                               config.tol, config.seed, witness)
    return Certificate("operator_convex", "pass", config.trials,
                       config.tol, config.seed)


# --- strong convexity --------------------------------------------------------------

def check_strong(fn, config: CertifyConfig = CertifyConfig()) -> Certificate:
    """Compression-domination trials, cross-checked through -1/f.

    f identically zero passes outright.  When the positivity scan clears f,
    the verdict of the direct inequality must agree with convexity of -1/f;
    disagreement is reported as "inconclusive" rather than picking a side.
    """
    prop = "strongly_operator_convex"
    if is_zero_on_grid(fn.eval_real, fn.domain):
        return Certificate(prop, "pass", 0, config.tol, config.seed,
                           detail="identically zero on the scan grid")

    direct_witness = None
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        n = _dim(config, trial)
        h = rand_hermitian(rng, n, fn.domain, CLIP_LEN)
        v = _rand_isometry(rng, n)
        corner = apply_fn(fn, compress(h, v))
        mn, floor = min_eig_floor(apply_fn(fn, h) - embed(corner, v), config.tol)
        if mn < floor:
            direct_witness = {"check": "strong", "trial": trial, "dim": n,
                              "h1": matrix_to_json(h),
                              "p": matrix_to_json(v @ v.conj().T), "min_eig": mn}
            break
    direct_fail = direct_witness is not None
    trials_run = (direct_witness["trial"] + 1) if direct_fail else config.trials

    try:
        check_positive(fn.eval_real, fn.domain)
        positive = True
    except (NotPositive, ZeroFunction):
        positive = False

    if not positive:
        if direct_fail:
            return Certificate(prop, "fail", trials_run, config.tol,
                               config.seed, direct_witness)
        return Certificate(prop, "inconclusive", trials_run, config.tol,
                           config.seed,
                           detail="not strictly positive on the scan grid, "
                                  "yet no inequality violation was found")

    recip_cert = check_convex(NegRecip(fn), config)
    recip_fail = recip_cert.verdict == "fail"
    if direct_fail and recip_fail:
        return Certificate(prop, "fail", trials_run, config.tol, config.seed,
                           direct_witness, detail="confirmed via -1/f route")
    if not direct_fail and not recip_fail:
        return Certificate(prop, "pass", config.trials, config.tol, config.seed,
                           detail="confirmed via -1/f route")
    routes = ("direct fail" if direct_fail else "direct pass",
              "-1/f fail" if recip_fail else "-1/f pass")
    return Certificate(prop, "inconclusive", trials_run, config.tol, config.seed,
                       witness=direct_witness if direct_fail else recip_cert.witness,
                       detail=f"routes disagree: {routes[0]}, {routes[1]}")


# --- divided-difference matrices ----------------------------------------------------

def loewner_matrix(fn, nodes) -> np.ndarray:
    """Matrix of divided differences (f(xi)-f(xj))/(xi-xj), derivative on
    the diagonal.  Nodes must be distinct points of the domain."""
    xs = np.asarray(nodes, dtype=float)
    if len(np.unique(xs)) != len(xs):
        raise DuplicateNodes(f"nodes contain repeats: {sorted(xs.tolist())}")
    vals = np.asarray(fn.eval_real(xs), dtype=float)
    der = np.asarray(fn.eval_deriv(xs), dtype=float)
    dx = xs[:, None] - xs[None, :]
    df = vals[:, None] - vals[None, :]
    eye = np.eye(len(xs), dtype=bool)
    out = np.where(eye, 0.0, df / np.where(eye, 1.0, dx))
    out[eye] = der
    return out


def _node_window(fn) -> tuple:
    win = fn.domain.clip(CLIP_LEN)
    width = win.hi - win.lo
    return win.lo + 0.01 * width, win.hi - 0.01 * width


def check_loewner(fn, config: CertifyConfig = CertifyConfig()) -> Certificate:
    """Random node sets: every divided-difference matrix must be PSD."""
    lo, hi = _node_window(fn)
    for i in range(LOEWNER_SETS):
        rng = _trial_rng(config.seed, i)
        size = LOEWNER_SIZES[i % len(LOEWNER_SIZES)]
        nodes = rng.uniform(lo, hi, size=size)
        for _ in range(100):
            if len(np.unique(nodes)) == size:
                break
            nodes = rng.uniform(lo, hi, size=size)
        mn, floor = min_eig_floor(loewner_matrix(fn, nodes), config.tol)
        if mn < floor:
            witness = {"check": "loewner", "trial": i,
                       "nodes": [float(x) for x in sorted(nodes)], "min_eig": mn}
            return Certificate("loewner_order", "fail", i + 1,
                               config.tol, config.seed, witness)
    return Certificate("loewner_order", "pass", LOEWNER_SETS,
                       config.tol, config.seed)


# --- upper half-plane ----------------------------------------------------------------

def check_halfplane(fn, config: CertifyConfig = CertifyConfig(),
                    grid: GridConfig = None) -> Certificate:
    """Im f(z) on a log-spaced grid above the domain window must stay
    above -1e-10; the holomorphic extension of a monotone function maps the
    upper half-plane into itself."""
    grid = grid or GridConfig()
    if grid.re_window is not None:
        rlo, rhi = grid.re_window
    else:
        win = fn.domain.clip(CLIP_LEN)
        rlo, rhi = win.lo, win.hi
    res = np.linspace(rlo, rhi, grid.re_points)
    ims = np.geomspace(grid.im_range[0], grid.im_range[1], grid.im_points)
    zs = res[None, :] + 1j * ims[:, None]
    vals = fn.eval_complex(zs)
    imv = np.asarray(vals).imag
    total = imv.size + len(grid.extra_points)

    worst = None  # (im_value, z)
    flat = np.argmin(imv)
    worst = (float(imv.ravel()[flat]), complex(zs.ravel()[flat]))
    for z in grid.extra_points:
        v = fn.eval_complex(complex(z)).imag
        if v < worst[0]:
            worst = (float(v), complex(z))

    if worst[0] < -HALFPLANE_TOL:
        witness = {"check": "halfplane",
                   "z": [worst[1].real, worst[1].imag], "min_eig": worst[0]}
        return Certificate("halfplane", "fail", total, HALFPLANE_TOL,
                           config.seed, witness)
    return Certificate("halfplane", "pass", total, HALFPLANE_TOL, config.seed)


# --- everything at once ---------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyResult:
    certificates: dict
    flags: tuple = ()

    def to_json(self) -> dict:
        return {"certificates": {k: c.to_json()
                                 for k, c in sorted(self.certificates.items())},
                "flags": list(self.flags)}


def classify_all(fn, config: CertifyConfig = CertifyConfig()) -> ClassifyResult:
    """Run all five checks and cross-check the implications between them."""
    certs = {
        "monotone": check_monotone(fn, config),
        "convex": check_convex(fn, config),
        "strong": check_strong(fn, config),
        "loewner": check_loewner(fn, config),
    }
    try:
        certs["halfplane"] = check_halfplane(fn, config)
    except UnsupportedNode as err:
        certs["halfplane"] = Certificate("halfplane", "inconclusive", 0,
                                         HALFPLANE_TOL, config.seed,
                                         detail=str(err))
    flags = []
    if certs["strong"].verdict == "pass" and certs["convex"].verdict == "fail":
        flags.append("strong-pass-but-convex-fail")
    if certs["monotone"].verdict == "pass" and certs["loewner"].verdict == "fail":
        flags.append("monotone-pass-but-loewner-fail")
    if (certs["monotone"].verdict == "pass"
            and certs["halfplane"].verdict == "fail"):
        flags.append("monotone-pass-but-halfplane-fail")
    return ClassifyResult(certs, tuple(flags))


# --- witness replay ---------------------------------------------------------------------

def replay_witness(fn, cert: Certificate) -> float:
    """Recompute the violated margin in a failure certificate from scratch.

    Returns the recomputed minimum eigenvalue (or Im value for the
    half-plane check); callers compare it against witness["min_eig"].
    """
    w = cert.witness
    if not w:
        raise ValueError("certificate carries no witness")
    kind = w.get("check")
    if kind == "monotone":
        h1, h2 = matrix_from_json(w["h1"]), matrix_from_json(w["h2"])
        return psd_min_eig(apply_fn(fn, h2) - apply_fn(fn, h1))
    if kind == "jensen":
        h1, h2 = matrix_from_json(w["h1"]), matrix_from_json(w["h2"])
        t = w["t"]
        mix = apply_fn(fn, sym(t * h1 + (1.0 - t) * h2))
        diff = t * apply_fn(fn, h1) + (1.0 - t) * apply_fn(fn, h2) - mix
        return psd_min_eig(diff)
    if kind == "davis":
        from .matcalc import projection_basis

        h, p = matrix_from_json(w["h1"]), matrix_from_json(w["p"])
        v = projection_basis(p)
        diff = compress(apply_fn(fn, h), v) - apply_fn(fn, compress(h, v))
        return psd_min_eig(diff)
    if kind == "strong":
        from .matcalc import projection_basis

        h, p = matrix_from_json(w["h1"]), matrix_from_json(w["p"])
        v = projection_basis(p)
        diff = apply_fn(fn, h) - embed(apply_fn(fn, compress(h, v)), v)
        return psd_min_eig(diff)
    if kind == "loewner":
        return psd_min_eig(loewner_matrix(fn, w["nodes"]))
    if kind == "halfplane":
        z = complex(w["z"][0], w["z"][1])
        return fn.eval_complex(z).imag
    raise ValueError(f"unknown witness check {kind!r}")
