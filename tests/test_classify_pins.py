"""Bit-for-bit pins of classify_all and witness replay.

Each digest is the sha256 of ``json.dumps(classify_all(fn, QUICK).to_json(),
sort_keys=True)``; each hex float is ``replay_witness`` on a failure
certificate read back from its JSON.  The values were recorded from the
per-check trial loops that the shared search (``classify._search``) and the
shared inequality functions replaced, so a changed random stream, trial
order, witness field, tolerance test or replayed matrix shows up here as a
changed digest or bit.  Since the strong check's second route became the
(x - x0) f Loewner check, the digests of recip, id_pos, dq_sqrt_1 and the
default-config pins hold a new strong ``detail``.  Since the halfplane check
became a search of Pick matrices, every digest holds its 64-set certificate
(a pick witness where it fails), and bent_pole fails it; every other
verdict, trial count, witness and replayed bit is the one recorded before.
They hold for numpy 2.4 with its bundled OpenBLAS on
x86-64; another LAPACK build may round eigenvalues differently.
"""

import gc
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from catalog import CUBE, ID_POS, RECIP, SQRT, SQUARE, random_om_rep

from loewner import (
    Certificate,
    CertifyConfig,
    Constant,
    DiffQuot,
    DiscreteMeasure,
    Interval,
    MeasureForm,
    MeasureSOC,
    Power,
    Quotient,
    SOCRep,
    check_convex,
    check_halfplane,
    check_loewner,
    check_monotone,
    check_strong,
    classify_all,
    replay_witness,
)
from loewner import classify
from loewner.errors import DomainError

QUICK = CertifyConfig(trials=60, dims=(2, 3, 4), seed=0)

FUNCTIONS = {
    "sqrt": SQRT,
    "recip": RECIP,
    "square": SQUARE,
    "cube": CUBE,
    "id_pos": ID_POS,
    "dq_sqrt_1": DiffQuot(SQRT, 1.0),
    "measure_om": MeasureForm(random_om_rep(np.random.default_rng(7))),
    "pow_3_5": Power(3.5, Interval(0.0, 7.3, lo_closed=True, hi_closed=True)),
}

# name -> (digest of the classify_all JSON, replayed min_eig per failed check)
PINNED = {
    "sqrt": (
        "4a434546a72162ae36c4704b982d62963d708fa9b73103af2a28ef5fef7a9d9d",
        {"convex": "-0x1.25e2c54c3a870p-1",
         "strong": "-0x1.ee26b3320aba0p-5"}),
    "recip": (
        "ec0bc8314f72ab278d4f111be3ad91110a05b6eeca3f904f5bbbe37d2495e1a4",
        {"halfplane": "-0x1.0b89d13bddb1ap-3",
         "loewner": "-0x1.3482d1c355a4ap-3",
         "monotone": "-0x1.ada8f0d6388a4p-3"}),
    "square": (
        "acb9dc1cba4e7641620ccadde9cdf31441e97a2e16cbd6d2a3bb826950c541d4",
        {"halfplane": "-0x1.1311c533a954ap+3",
         "loewner": "-0x1.28172d30e7a6dp+3",
         "monotone": "-0x1.60f47f65c320ep+4",
         "strong": "-0x1.75459ad8b6ff8p+1"}),
    "cube": (
        "6b129ef465c53d42da1c7b9bec7e746829ee354227ab0627338ef088c610fcd8",
        {"convex": "-0x1.7cb400e9f9d57p+8",
         "halfplane": "-0x1.033aae8549cf4p+2",
         "loewner": "-0x1.4fb8194d1a02bp+4",
         "monotone": "-0x1.6edfd3fa16a71p+4",
         "strong": "-0x1.6863e7eb650a9p+5"}),
    "id_pos": (
        "0611b5c8ca9f43aeb184473fb326406a73e04b493a8707bf14849604289c896e",
        {"strong": "-0x1.a73965531b458p-5"}),
    "dq_sqrt_1": (
        "13709e7f14767efd4a6a390e6c7d6ad36d9272f80387ee06f2d5a71a0d2dd0c2",
        {"halfplane": "-0x1.955325b746128p-6",
         "loewner": "-0x1.a403af2778266p-6",
         "monotone": "-0x1.f5fa947efee19p-5"}),
    "measure_om": (
        "4884ea5d324d1756c56c17c033f936548f7f8b0f4e58494fa68fd788143203fa",
        {"convex": "-0x1.cc9a619d8c2eap+2",
         "strong": "-0x1.a7da1b8ac85edp-2"}),
    "pow_3_5": (
        "c26872e48277b2e38ef2811db23e329da17a61cf801db99d1f3e08973f36f131",
        {"convex": "-0x1.923f1fc85b8a6p+0",
         "halfplane": "-0x1.f081c691c1d08p+1",
         "loewner": "-0x1.bd0d50b9eb3e0p+3",
         "monotone": "-0x1.eefe45e361c4cp+2",
         "strong": "-0x1.ed496b3e3c5d0p+1"}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classify_all_and_replay_are_bitwise_pinned(name):
    fn = FUNCTIONS[name]
    digest, replays = PINNED[name]
    doc = classify_all(fn, QUICK).to_json()
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    got = {}
    for check, cert_json in doc["certificates"].items():
        if "witness" in cert_json:
            cert = Certificate.from_json(json.loads(json.dumps(cert_json)))
            got[check] = replay_witness(fn, cert).hex()
    assert got == replays


# --- the chunk schedule moves no result: the lowest failing trial decides, and
# a chunk that raises runs again one trial at a time.  With CHUNK = 1 every
# trial is a chunk of its own, as in the search loop the pins were recorded from.

@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_certificates_do_not_depend_on_the_chunk_schedule(name, monkeypatch):
    fn = FUNCTIONS[name]
    chunked = classify_all(fn, QUICK)
    monkeypatch.setattr(classify, "CHUNK", 1)
    assert classify_all(fn, QUICK) == chunked


def test_a_later_trial_raises_the_same_error_on_any_chunk_schedule(monkeypatch):
    # sqrt raises above 19: first at monotone trial 9, inside the chunk of trials 2..59
    val = Power._val

    def raising(self, xs):
        if np.max(xs) > 19.0:
            raise DomainError(f"synthetic at {float(np.max(xs))!r}")
        return val(self, xs)

    monkeypatch.setattr(Power, "_val", raising)
    errors = []
    for chunk in (classify.CHUNK, 1):
        monkeypatch.setattr(classify, "CHUNK", chunk)
        with pytest.raises(DomainError) as err:
            classify_all(SQRT, QUICK)
        errors.append(str(err.value))
    assert errors == ["synthetic at 19.701334726290177"] * 2


# classify_all's memo holds each trial group's first draw, shared by monotone,
# convex and strong.  A chunk that raises after the memo was filled must still
# raise what the check alone raises.  Monotone: sqrt above 19.6 raises first at
# trial 9, in the size-2 stack of trials 2..59, after the size-4 stack of that
# chunk (its largest eigenvalue 19.56, that of a first draw h2 >= h1) filled
# the memo.  Convex: x on (0, 3) above 2.95 while check_convex runs raises
# first in the chunk of trials 2..59, all of whose groups monotone, which x
# passes, put in the memo.

@pytest.mark.parametrize("fn, check, above", [
    (SQRT, "monotone", 19.6),
    (Power(1.0, Interval(0.0, 3.0)), "convex", 2.95),
], ids=["monotone", "convex"])
def test_a_chunk_raising_after_the_memo_was_filled_raises_what_the_check_alone_raises(
        fn, check, above, monkeypatch):
    val, alone = Power._val, getattr(classify, f"check_{check}")
    running, memos = [], []

    def raising(self, xs):
        if running and np.max(xs) > above:
            raise DomainError(f"synthetic at {float(np.max(xs))!r}")
        return val(self, xs)

    def traced(fn, config, **kw):
        memos.append(kw.get("memo"))
        running.append(check)
        try:
            return alone(fn, config, **kw)
        finally:
            running.pop()

    monkeypatch.setattr(Power, "_val", raising)
    monkeypatch.setattr(classify, f"check_{check}", traced)
    with pytest.raises(DomainError) as shared:
        classify_all(fn, QUICK)
    # the first draw of a stack of trials is in the memo
    assert any(len(group) > 2 and first for group, first in memos[0].items())
    with pytest.raises(DomainError) as single:
        traced(fn, QUICK)
    assert str(shared.value) == str(single.value)


# --- the draw cache: each trial group's domain-free draws are drawn once per
# process and kept in classify._DRAWS.  No result may depend on what it holds.

@pytest.fixture
def cold(monkeypatch):
    """An empty draw cache for the test, and a function that empties it again."""
    def empty():
        monkeypatch.setattr(classify, "_DRAWS", classify._DrawCache())
    empty()
    return empty


def _document(fn, config=QUICK) -> tuple:
    """classify_all's JSON, and the replay of each witness read back from it."""
    doc = classify_all(fn, config).to_json()
    replays = {check: replay_witness(fn, Certificate.from_json(c)).hex()
               for check, c in doc["certificates"].items() if "witness" in c}
    return json.dumps(doc, sort_keys=True), replays


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classify_all_is_the_same_on_a_cold_a_warm_and_no_draw_cache(name, cold, monkeypatch):
    fn = FUNCTIONS[name]
    digest, replays = PINNED[name]
    runs = [_document(fn)]
    seeded, rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seeded.append(a) or rng(*a))
    runs.append(_document(fn))
    assert seeded == []             # the warm run seeds no stream
    cold()
    classify._DRAWS.budget = 0
    runs.append(_document(fn))      # every fill is dropped at once
    assert len(classify._DRAWS) == 0 and seeded
    assert runs == [runs[0]] * 3
    assert (hashlib.sha256(runs[0][0].encode()).hexdigest(), runs[0][1]) == (digest, replays)


@pytest.mark.parametrize("name", ["measure_om", "pow_3_5"])
@pytest.mark.parametrize("check", [check_monotone, check_convex, check_strong, check_loewner,
                                   check_halfplane], ids=lambda c: c.__name__)
def test_a_check_after_classify_all_of_other_inputs_equals_the_check_on_a_cold_cache(
        check, name, cold):
    fn = FUNCTIONS[name]
    alone = check(fn, QUICK)
    cold()
    # sqrt on [0, inf): other seeds, other trial groups, then the same ones
    for config in (replace(QUICK, seed=1), replace(QUICK, trials=30, dims=(3, 2)), QUICK):
        classify_all(SQRT, config)
    assert check(fn, QUICK) == alone


def test_cached_draws_are_read_only(cold):
    classify_all(SQRT, QUICK)
    arrays = [a for draws in classify._DRAWS.values() for a in draws]
    assert arrays and not any(a.flags.writeable for a in arrays)
    for a in arrays[:5]:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0


def test_a_large_dims_config_leaves_the_draw_cache_within_its_budget(cold, monkeypatch):
    drawn, fill = {}, classify._DrawCache.drawn

    def record(self, seed, size, trials, *draws):
        out = fill(self, seed, size, trials, *draws)
        drawn[(seed, size, *trials, draws)] = sum(a.nbytes for a in out)
        return out

    monkeypatch.setattr(classify._DrawCache, "drawn", record)
    certs = classify_all(ID_POS, CertifyConfig(trials=130, dims=(20, 28))).certificates
    assert certs["convex"].verdict == "pass"        # every convexity draw was made
    held = [a.nbytes for draws in classify._DRAWS.values() for a in draws]
    assert classify._DRAWS.nbytes == sum(held) <= classify._DRAWS.budget < sum(drawn.values())


# Each function passes its check, but raises where it is evaluated on a matrix
# spectrum (not on the scan grid) above 19.8: first at trial 28 (monotone and
# strong) or 7 (convex), inside the chunk of trials 2..59.
RAISING = {
    "monotone": (SQRT, "synthetic at 19.849938492302822"),
    "convex": (Power(1.0, Interval(0.0, 20.0)), "synthetic at 19.811934812143797"),
    "strong": (Power(-1.0, Interval(0.5, 20.0)), "synthetic at 19.853689520186865"),
}


@pytest.mark.parametrize("check", sorted(RAISING))
def test_a_raising_chunk_raises_the_same_on_a_warm_draw_cache(check, cold, monkeypatch):
    (fn, message), val = RAISING[check], Power._val

    def raising(self, xs):
        if np.ndim(xs) > 1 and np.max(xs) > 19.8:
            raise DomainError(f"synthetic at {float(np.max(xs))!r}")
        return val(self, xs)

    errors = []
    for warm in (False, True):
        if warm:    # unpatched, each passes its check, so every group is drawn
            monkeypatch.setattr(Power, "_val", val)
            for f, _ in RAISING.values():
                classify_all(f, QUICK)
        monkeypatch.setattr(Power, "_val", raising)
        with pytest.raises(DomainError) as err:
            getattr(classify, f"check_{check}")(fn, QUICK)
        errors.append(str(err.value))
    assert errors == [message] * 2


# --- the default config: 300 trials, so every chunk boundary of the search is
# crossed.  Recorded from the one-trial-at-a-time search loop.

UNIT = Interval(0.0, 1.0, lo_closed=True, hi_closed=True)


@pytest.mark.parametrize("c, trial, dim, min_eig", [
    # inside the chunk of trials 2..129; at trial 73 under the floor -1e-9 (1 + ||gap||)
    (-2.6e-4, 57, 3, "-0x1.20e56ce48eef8p-30"),
    (-3e-4, 4, 6, "-0x1.51113d0ce84aap-30"),      # first trial of the old chunk 4..7
])
def test_slightly_decreasing_quotient_fails_at_its_pinned_trial(c, trial, dim, min_eig):
    cert = check_monotone(Quotient((0.0, 1.0, c), (1.0,), UNIT))
    w = cert.witness
    assert (cert.verdict, cert.trials, w["trial"], w["dim"]) == ("fail", trial + 1, trial, dim)
    assert w["min_eig"].hex() == min_eig


# Inputs shaped like perfbench's classify-pass requests (operator monotone,
# strongly operator convex pole forms left of their poles), and a pole form
# bent by -1e-5 (x^3 (2 - x)) whose convexity check first fails at trial 104
# (a compression probe inside the chunk of trials 2..129); it is not a Pick
# function, and its Pick matrices fail at trial 1.
DEFAULT_FUNCTIONS = {
    "soc_pass": MeasureSOC(SOCRep(a=0.25, mu_plus=DiscreteMeasure(((2.5, 0.5), (4.0, 1.25))),
                                  mu_minus=DiscreteMeasure(()),
                                  interval=Interval(-1.0, 1.5, True, True))),
    "quotient_pass": Quotient((0.5 * 3.0 + 0.8, -0.5), (3.0, -1.0),
                              Interval(0.5, 2.0, True, True)),
    "bent_pole": Quotient((1.0, 0.0, 0.0, -2e-5, 1e-5), (2.0, -1.0), UNIT),
}

# A pass certificate holds no per-trial data, so every all-pass document has
# the same digest: the two pass pins assert verdicts and trial counts.
ALL_PASS = "5c734a223cda8a24cbe828940cc572fe2ec8d96c3577c0e41ea74d0e091e1d18"
DEFAULT_PINNED = {
    "soc_pass": (ALL_PASS, {}),
    "quotient_pass": (ALL_PASS, {}),
    "bent_pole": (
        "3060503332f94584c85fd9475774e05505ee1622ea837bf0bf194ed6f8555eb8",
        {"convex": "-0x1.6bb0f85907ac3p-30",
         "halfplane": "-0x1.60e76e5f08447p-15",
         "loewner": "-0x1.fd9781bfa1925p-24",
         "monotone": "-0x1.9ea01f4727cadp-29",
         "strong": "-0x1.e16f6c6c00000p-25"}),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PINNED))
def test_default_config_classify_all_is_bitwise_pinned(name):
    fn = DEFAULT_FUNCTIONS[name]
    digest, replays = DEFAULT_PINNED[name]
    doc = classify_all(fn).to_json()
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest
    got = {check: replay_witness(fn, Certificate.from_json(cert_json)).hex()
           for check, cert_json in doc["certificates"].items() if "witness" in cert_json}
    assert got == replays


# --- classify_all must give what check_convex and check_strong give alone.  The
# extra ids name what these functions once tested: the two strong routes
# disagreeing (1 - 1e-8 x^2, operator concave), f not positive, f zero, and
# x^-200, which the old absolute floor passed as convex.

SHARED_QUICK = {
    **FUNCTIONS,
    "routes_disagree": Quotient((1.0, 0.0, -1e-8), (1.0,), Interval(0.0, 1.0)),
    "not_positive": Constant(-1e-12, Interval(0.0, 1.0)),
    "zero": Constant(0.0, Interval(0.0, 1.0)),
    "recip_fails_first": Power(-200.0, Interval(0.5, 20.0)),
}


@pytest.mark.parametrize("fn, config", [
    *((fn, QUICK) for fn in SHARED_QUICK.values()),
    (DEFAULT_FUNCTIONS["soc_pass"], CertifyConfig()),
], ids=[*SHARED_QUICK, "soc_pass_default"])
def test_shared_certificates_equal_standalone_ones(fn, config):
    certs = classify_all(fn, config).certificates
    assert certs["monotone"] == check_monotone(fn, config)
    assert certs["convex"] == check_convex(fn, config)
    assert certs["strong"] == check_strong(fn, config)


# Eigendecompositions (eigh and eigvalsh calls) of one default-config
# classify_all on a passing input, in chunks [0], [1], then up to 128 trials,
# with strong convexity's second route the (x - x0) f Loewner check and the
# halfplane check a search of 64 Pick matrices (1,046 in chunks that doubled
# up to 64 trials; 1,017 when the halfplane check was a grid with no
# eigensolve; 1,185 when the second route was convexity of -1/f on the draws
# of f's convexity search, 2,003 when that ran its own search in chunks of 32;
# 502 when monotone applied f to a trial group's h2 and its h1 in two calls).
CLASSIFY_MAX_EIGENSOLVES = 481
# Matrices those calls decompose (the sum of their stack sizes): 9,192 before
# monotone, convex and strong shared each trial group's first draw, when convex
# decomposed its h1 and strong its h again.
CLASSIFY_MAX_DECOMPOSED = 8596


def _classify_all_stacks(monkeypatch) -> list:
    """The stack size of each eigh and eigvalsh call of one default-config
    classify_all on a passing input."""
    stacks = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, solve=solve, **kw: stacks.append(
            int(np.prod(np.shape(a)[:-2]))) or solve(a, *r, **kw))
    assert classify_all(DEFAULT_FUNCTIONS["soc_pass"]).flags == ()
    return stacks


def test_classify_all_eigensolves_stay_within_budget(monkeypatch):
    assert len(_classify_all_stacks(monkeypatch)) <= CLASSIFY_MAX_EIGENSOLVES


def test_classify_all_decomposes_each_shared_first_draw_once(monkeypatch):
    assert sum(_classify_all_stacks(monkeypatch)) <= CLASSIFY_MAX_DECOMPOSED


def test_classify_all_leaves_no_reference_cycle():
    fn = DEFAULT_FUNCTIONS["soc_pass"]
    gc.collect()
    gc.disable()
    try:
        classify_all(fn)
        assert gc.collect() == 0
    finally:
        gc.enable()
