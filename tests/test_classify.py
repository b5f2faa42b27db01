import json
import math
from dataclasses import replace

import numpy as np
import pytest

from catalog import CUBE, ID_POS, RECIP, SQRT, SQUARE, random_om_rep

from loewner import (
    Affine,
    Catalog,
    Certificate,
    CertifyConfig,
    Compose,
    Constant,
    DiffQuot,
    Interval,
    MeasureForm,
    MulLinear,
    Power,
    Quotient,
    check_convex,
    check_halfplane,
    check_loewner,
    check_monotone,
    check_strong,
    classify_all,
    loewner_matrix,
    replay_witness,
    to_json,
)
from loewner import classify
from loewner.classify import _search
from loewner.cli import main
from loewner.errors import DomainError, DuplicateNodes, NonFiniteValue
from loewner.matcalc import matrix_from_json

QUICK = CertifyConfig(trials=60, dims=(2, 3, 4), seed=0)
REPLAY_TOL = 1e-10


# --- monotonicity -----------------------------------------------------------------

def test_identity_is_monotone():
    cert = check_monotone(ID_POS, QUICK)
    assert cert.verdict == "pass"
    assert cert.trials == QUICK.trials
    assert cert.witness is None


def test_square_fails_monotone_with_replayable_witness():
    cert = check_monotone(SQUARE, QUICK)
    assert cert.verdict == "fail"
    w = cert.witness
    assert w["check"] == "monotone"
    assert w["min_eig"] < -QUICK.tol
    assert abs(replay_witness(SQUARE, cert) - w["min_eig"]) < REPLAY_TOL
    # the witness pair really is ordered
    h1, h2 = matrix_from_json(w["h1"]), matrix_from_json(w["h2"])
    assert np.linalg.eigvalsh(h2 - h1).min() >= -1e-10


def test_monotone_verdicts_are_deterministic():
    a = check_monotone(SQUARE, QUICK)
    b = check_monotone(SQUARE, QUICK)
    assert a.to_json() == b.to_json()


def test_seed_changes_the_witness():
    other = CertifyConfig(trials=60, dims=(2, 3, 4), seed=1)
    a = check_monotone(SQUARE, QUICK)
    b = check_monotone(SQUARE, other)
    assert a.verdict == b.verdict == "fail"
    assert a.witness != b.witness


# --- convexity ---------------------------------------------------------------------

def test_square_is_convex():
    assert check_convex(SQUARE, QUICK).verdict == "pass"


def test_cube_fails_convex():
    cert = check_convex(CUBE, QUICK)
    assert cert.verdict == "fail"
    assert cert.witness["check"] in ("jensen", "davis")
    assert abs(replay_witness(CUBE, cert) - cert.witness["min_eig"]) < REPLAY_TOL


# --- strong convexity ----------------------------------------------------------------

def test_reciprocal_is_strongly_convex_via_both_routes():
    cert = check_strong(RECIP, QUICK)
    assert cert.verdict == "pass"
    assert "confirmed via (x - x0) f route" in cert.detail


def test_zero_function_is_strongly_convex():
    dom = Interval(0.0, 1.0)
    cert = check_strong(Constant(0.0, dom), QUICK)
    assert cert.verdict == "pass"


def test_zero_function_passes_strong_without_trials():
    cert = check_strong(Constant(0.0, Interval(0.0, 1.0)), QUICK)
    assert (cert.verdict, cert.trials, cert.witness) == ("pass", 0, None)
    assert cert.detail == "identically zero on the scan grid"


def test_strong_fails_a_tiny_negative_constant():
    # the strong gap of c is c (I - P): for c = -1e-12 it is far below a floor
    # relative to the operands, though not below -1e-9
    fn = Constant(-1e-12, Interval(0.0, 1.0))
    cert = check_strong(fn, QUICK)
    assert (cert.verdict, cert.trials, cert.witness["check"]) == ("fail", 1, "strong")
    assert cert.detail == ""
    assert abs(replay_witness(fn, cert) - cert.witness["min_eig"]) < REPLAY_TOL


@pytest.mark.parametrize("c", [0.3, 1.0, 1000.0])
def test_strong_fails_a_slightly_concave_quotient(c):
    # c (1 - 1e-8 x^2) is operator concave on [0, 1], so not strongly convex;
    # both the direct floor and the (x - x0) f route once let it through
    fn = Quotient((c, 0.0, -1e-8 * c), (1.0,), Interval(0.0, 1.0))
    cert = check_strong(fn, QUICK)
    assert (cert.verdict, cert.witness["check"]) == ("fail", "strong")
    # the gap's entries are rounded at the operands' size, c
    assert abs(replay_witness(fn, cert) - cert.witness["min_eig"]) < REPLAY_TOL * c


def test_strong_is_inconclusive_when_the_iff_route_fails(monkeypatch, tmp_path):
    loewner, floor = classify.check_loewner, classify.min_eig_floor

    def failing(fn, config):
        # every divided-difference matrix counts as below its floor
        with monkeypatch.context() as m:
            m.setattr(classify, "min_eig_floor",
                      lambda gap, scale, tol: (floor(gap, scale, tol)[0], np.inf))
            return loewner(fn, config)

    monkeypatch.setattr(classify, "check_loewner", failing)
    cert = check_strong(RECIP, QUICK)
    monkeypatch.undo()
    assert (cert.verdict, cert.trials) == ("inconclusive", 60)
    assert cert.detail == "routes disagree: direct pass, (x - x0) f fail"
    w = cert.witness
    # the Loewner witness of (x - x0) / x, x0 the middle of (0.1, 10)
    assert (w["check"], w["trial"], w["x0"]) == ("loewner", 0, 5.05)
    assert w["min_eig"] > 0   # (x - x0)/x is operator monotone: the matrix is PSD
    assert abs(replay_witness(RECIP, cert) - w["min_eig"]) < REPLAY_TOL
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"function": to_json(RECIP),
                                "result": {"certificates": {"strong": cert.to_json()}}}))
    assert main(["report", "--spec", str(spec), "--out", str(tmp_path), "--replay"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["strong"]["verdict"] == "inconclusive"
    assert report["verdicts"]["strong"]["replay"]["match"] is True


@pytest.mark.parametrize("dims", [(), (1,), (2, 1), (0, 3)])
def test_config_rejects_matrix_sizes_below_two(dims):
    with pytest.raises(ValueError, match="dims"):
        CertifyConfig(dims=dims)


@pytest.mark.parametrize("kwargs", [{"trials": -5}, {"tol": float("nan")},
                                    {"tol": float("inf")}, {"tol": -1e-9}])
def test_config_rejects_counts_and_tolerances_that_decide_nothing(kwargs):
    # with the first three x^2 (not monotone) passed; with the last the
    # identity (monotone) failed
    with pytest.raises(ValueError, match="trials >= 0 and a finite tol"):
        CertifyConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"trials": 2.5}, {"trials": True}, {"dims": (2.5,)},
                                    {"dims": (2, 3.0)}, {"seed": 1.5}, {"seed": False},
                                    {"seed": -1}])
def test_config_rejects_non_integer_counts_and_a_negative_seed(kwargs):
    # trials=True ran one trial; the others failed later inside numpy
    with pytest.raises(ValueError, match="need integer trials, dims and seed"):
        CertifyConfig(**kwargs)


def test_config_takes_numpy_integers():
    config = CertifyConfig(trials=np.int64(3), dims=(np.int32(2),), seed=np.uint8(1))
    assert check_monotone(SQRT, config).trials == 3


def test_identity_fails_strong():
    cert = check_strong(ID_POS, QUICK)
    assert cert.verdict == "fail"
    assert cert.witness["check"] == "strong"
    assert abs(replay_witness(ID_POS, cert) - cert.witness["min_eig"]) < REPLAY_TOL


# --- divided differences ---------------------------------------------------------------

def test_loewner_matrix_entries():
    m = loewner_matrix(SQUARE, [1.0, 3.0])
    assert m[0, 0] == pytest.approx(2.0)   # f'(1)
    assert m[1, 1] == pytest.approx(6.0)   # f'(3)
    assert m[0, 1] == pytest.approx(4.0)   # (9-1)/(3-1)


def test_loewner_matrix_rejects_duplicates():
    with pytest.raises(DuplicateNodes):
        loewner_matrix(SQUARE, [1.0, 1.0, 2.0])


def test_sqrt_passes_loewner_everywhere():
    assert check_loewner(SQRT, QUICK).verdict == "pass"


def test_square_fails_loewner_with_node_witness():
    cert = check_loewner(SQUARE, QUICK)
    assert cert.verdict == "fail"
    nodes = cert.witness["nodes"]
    assert nodes == sorted(nodes)
    assert abs(replay_witness(SQUARE, cert) - cert.witness["min_eig"]) < REPLAY_TOL


# --- half-plane -------------------------------------------------------------------------

def test_sqrt_passes_halfplane():
    cert = check_halfplane(SQRT, QUICK)
    assert cert.verdict == "pass"
    assert cert.trials == 64  # node sets, as in check_loewner


def test_square_halfplane_witness_is_a_replayable_pick_matrix():
    cert = check_halfplane(SQUARE, QUICK)
    assert cert.verdict == "fail"
    w = cert.witness
    assert w["check"] == "pick"
    assert all(len(z) == 2 and z[1] > 0 for z in w["nodes"])
    back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert replay_witness(SQUARE, back) == w["min_eig"] < 0


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9, 2.0])
def test_powers_above_one_fail_halfplane_on_the_half_line(alpha):
    # Im z^alpha < 0 for arg z > pi / alpha, left of the domain
    fn = Power(alpha, Interval(0.0, math.inf, lo_closed=True))
    cert = check_halfplane(fn, QUICK)
    assert cert.verdict == "fail"
    back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert replay_witness(fn, back) == cert.witness["min_eig"]


def test_a_tiny_decreasing_function_fails_halfplane():
    # every Pick matrix of a x has each entry equal to a
    assert check_halfplane(Affine(-1e-12, 0.0), QUICK).verdict == "fail"


@pytest.mark.parametrize("seed", range(8))
def test_monotone_measure_forms_pass_halfplane(seed):
    # Pick functions with poles on both sides of the domain, near and far
    fn = MeasureForm(random_om_rep(np.random.default_rng(seed)))
    assert check_halfplane(fn, QUICK).verdict == "pass"


# --- non-finite values ------------------------------------------------------------------

NAN = Constant(float("nan"), Interval(0.0, 1.0))


def test_overflowing_jensen_gap_raises_instead_of_passing():
    # x^-400 is inf below x ~ 0.17, so the Jensen gap holds inf - inf = NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteValue) as err:
        check_convex(Power(-400.0), CertifyConfig(trials=5))
    assert str(err.value) == ("operator_convex trial 0: the jensen matrix has a "
                              "non-finite entry")


@pytest.mark.parametrize("check", [check_monotone, check_convex, check_strong,
                                   check_loewner, check_halfplane])
def test_nan_function_raises_in_every_check(check):
    with pytest.raises(NonFiniteValue):
        check(NAN, QUICK)


# --- the PSD floor is relative to the operands ------------------------------------------

def test_a_large_linear_function_is_convex():
    # the Jensen gap of 1e5 x is rounding of operands near 1e6, far above 1e-9
    assert check_convex(Affine(1e5, 0.0), QUICK).verdict == "pass"


def test_a_tiny_decreasing_function_is_not_monotone():
    # the monotone gaps of x^-400 on spectra in (1.3, 20) are near -1e-220
    with np.errstate(under="ignore"):
        cert = check_monotone(Power(-400.0), CertifyConfig(trials=5))
    assert cert.verdict == "fail"


def test_a_tiny_decreasing_product_fails_loewner():
    # (x - 2) (-1e-12) is decreasing, so no divided-difference matrix is PSD
    fn = MulLinear(Constant(-1e-12, Interval(0.0, 4.0, True, True)), 2.0)
    cert = check_loewner(fn, QUICK)
    assert cert.verdict == "fail"
    assert abs(replay_witness(fn, cert) - cert.witness["min_eig"]) < REPLAY_TOL


SCALED = {"sqrt": SQRT, "x^0.3": Power(0.3), "square": SQUARE, "x^1.5": Power(1.5),
          "cube": CUBE, "recip": RECIP, "x^-1": Power(-1.0), "x^-0.5": Power(-0.5)}


@pytest.mark.parametrize("name", SCALED)
def test_verdicts_do_not_change_when_f_is_scaled(name):
    fn = SCALED[name]
    for check in (check_monotone, check_convex, check_strong, check_loewner, check_halfplane):
        verdicts = {c: check(Compose(Affine(c, 0.0), fn), QUICK).verdict
                    for c in (1e-12, 1e12)}
        assert verdicts == dict.fromkeys(verdicts, check(fn, QUICK).verdict), check.__name__


UNIT = Interval(0.0, 1.0, True, True)
STRONG_FAMILIES = {
    "c(x-0.5)^2": lambda c: Quotient((0.25 * c, -c, c), (1.0,), UNIT),
    "cx^2": lambda c: Quotient((0.0, 0.0, c), (1.0,), UNIT),
    "c": lambda c: Constant(c, UNIT),
    "-c": lambda c: Constant(-c, UNIT),
    "c/x": lambda c: Quotient((c,), (0.0, 1.0), Interval(0.1, 1.0, True, True)),
}


@pytest.mark.parametrize("name", STRONG_FAMILIES)
def test_strong_verdict_and_trials_do_not_change_when_f_is_scaled(name):
    # the zero test is exact, so no scale takes a nonzero f to the 0-trial pass
    family = STRONG_FAMILIES[name]
    want = check_strong(family(1.0), QUICK)
    for c in (1e-14, 1e-12, 1e-6, 1e6, 1e12):
        cert = check_strong(family(c), QUICK)
        assert (cert.verdict, cert.trials) == (want.verdict, want.trials), c
    assert want.trials > 0


# --- aggregate --------------------------------------------------------------------------

def test_classify_all_on_a_decreasing_strongly_convex_function():
    fn = DiffQuot(SQRT, 1.0)  # (sqrt(x)-1)/(x-1): strongly convex, decreasing
    result = classify_all(fn, QUICK)
    verdicts = {k: c.verdict for k, c in result.certificates.items()}
    assert verdicts == {
        "monotone": "fail",
        "convex": "pass",
        "strong": "pass",
        "loewner": "fail",
        "halfplane": "fail",
    }
    assert result.flags == ()  # no implication among the five is violated


def test_classify_all_flags_nothing_for_sqrt():
    result = classify_all(SQRT, QUICK)
    verdicts = {k: c.verdict for k, c in result.certificates.items()}
    assert verdicts["monotone"] == "pass"
    assert verdicts["loewner"] == "pass"
    assert verdicts["halfplane"] == "pass"
    assert result.flags == ()


@pytest.mark.parametrize("fn", [Catalog("log"), Catalog("power_diff_mirror", {"alpha": 0.5})],
                         ids=["log", "power_diff_mirror"])
def test_classify_all_on_catalog_functions(fn):
    # monotone but not convex: the halfplane check reads the catalog's complex channel
    result = classify_all(fn)
    verdicts = {k: c.verdict for k, c in result.certificates.items()}
    assert verdicts == {"monotone": "pass", "convex": "fail", "strong": "fail",
                        "loewner": "pass", "halfplane": "pass"}
    assert result.flags == ()


@pytest.mark.parametrize("verdicts, flag", [
    ({"strong": "pass", "convex": "fail"}, "strong-pass-but-convex-fail"),
    ({"monotone": "pass", "loewner": "fail"}, "monotone-pass-but-loewner-fail"),
    ({"monotone": "pass", "halfplane": "fail"}, "monotone-pass-but-halfplane-fail"),
    ({"halfplane": "pass", "monotone": "fail"}, "halfplane-pass-but-monotone-fail"),
    ({"halfplane": "pass", "loewner": "fail"}, "halfplane-pass-but-loewner-fail"),
], ids=["strong-convex", "monotone-loewner", "monotone-halfplane", "halfplane-monotone",
        "halfplane-loewner"])
def test_classify_all_flags_a_broken_implication(monkeypatch, verdicts, flag):
    for name in ("monotone", "convex", "strong", "loewner", "halfplane"):
        cert = Certificate(name, verdicts.get(name, "inconclusive"), 0, 1e-9, 0)
        monkeypatch.setattr(classify, f"check_{name}", lambda fn, config, c=cert, **_: c)
    assert classify_all(SQRT, QUICK).flags == (flag,)


def test_classify_all_fails_the_square_on_the_half_line_without_flags():
    # x^2 is not a Pick function
    result = classify_all(Power(2.0, Interval(0.0, math.inf, lo_closed=True)), QUICK)
    verdicts = {k: c.verdict for k, c in result.certificates.items()}
    assert (verdicts["monotone"], verdicts["loewner"], verdicts["halfplane"]) == ("fail",) * 3
    assert result.flags == ()


# --- certificates ------------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = check_monotone(SQUARE, QUICK)
    back = Certificate.from_json(cert.to_json())
    assert back == cert
    clean = check_monotone(ID_POS, QUICK)
    assert "witness" not in clean.to_json()
    assert Certificate.from_json(clean.to_json()) == clean


def test_replay_requires_a_witness():
    cert = check_monotone(ID_POS, QUICK)
    with pytest.raises(ValueError):
        replay_witness(ID_POS, cert)


def test_replay_rejects_unknown_check():
    cert = Certificate("monotone", "fail", 1, 1e-9, 0,
                       {"check": "telepathy", "min_eig": -1.0})
    with pytest.raises(ValueError):
        replay_witness(ID_POS, cert)


EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
P1 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def _with(m, entry):
    """The JSON matrix m with its [0][1] entry replaced."""
    return [[entry if (i, j) == (0, 1) else e for j, e in enumerate(row)]
            for i, row in enumerate(m)]


# one witness per kind, each with a NaN or inf where a number belongs.  Unless
# the replay rejects them before it decomposes anything, the Pick ones replay
# to nan and the others raise errors that misname the fault ("eigenvalue nan
# outside domain", or numpy's LinAlgError, which is not a LoewnerError)
@pytest.mark.parametrize("witness", [
    {"check": "monotone", "h1": _with(EYE2, [math.nan, 0.0]), "h2": EYE2},
    {"check": "jensen", "h1": _with(EYE2, [math.nan, 0.0]), "h2": EYE2, "t": 0.5},
    {"check": "jensen", "h1": EYE2, "h2": EYE2, "t": math.inf},
    {"check": "davis", "h1": EYE2, "p": _with(P1, [0.0, math.nan])},
    {"check": "strong", "h1": _with(EYE2, [math.inf, 0.0]), "p": P1},
    {"check": "loewner", "nodes": [0.5, math.nan]},
    {"check": "loewner", "nodes": [0.5, 2.0], "x0": math.nan},
    {"check": "loewner", "nodes": [0.5, 2.0], "min_eig": math.inf},
    {"check": "pick", "nodes": [[0.5, 1.0], [0.0, math.nan]]},
    {"check": "pick", "nodes": [[math.inf, 1.0]]},
], ids=["monotone", "jensen", "jensen-t", "davis", "strong", "loewner", "x0", "min-eig",
        "pick-nan-imag", "pick-inf"])
def test_replay_rejects_a_non_finite_witness_number(witness):
    cert = Certificate("p", "fail", 1, 1e-9, 0, {"min_eig": -1.0, **witness})
    with pytest.raises(NonFiniteValue, match="non-finite"):
        replay_witness(SQUARE, cert)


# Eigendecompositions per replay of each witness kind: one for f of the stored
# matrices (h1 and h2 as one stack), one for the Jensen mix or the compression
# corner, one for the projection's basis, which also tests that p is one, and
# one for the floor test (6 for a compression witness and 4 for a Jensen one
# when the projection test took two more and f(h1), f(h2) one each).
REPLAY_EIGENSOLVES = {"monotone": 2, "jensen": 3, "davis": 4, "strong": 4, "loewner": 1,
                      "pick": 1}


def test_replay_eigensolves_per_witness_kind_stay_within_budget(monkeypatch):
    certs = {c.witness["check"]: c for c in classify_all(CUBE, QUICK).certificates.values()}
    strong = certs["strong"]    # a davis witness has the same fields
    certs["davis"] = replace(strong, witness={**strong.witness, "check": "davis"})
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, solve=solve, **kw: calls.append(1) or solve(*a, **kw))
    got = {}
    for kind, cert in certs.items():
        calls.clear()
        replay_witness(CUBE, cert)
        got[kind] = len(calls)
    assert got == REPLAY_EIGENSOLVES


# --- the chunked search reports what a one-trial-at-a-time loop reports ---------------

def _first_uniforms(rngs, size):
    """The search draw of the synthetic probes: each stream's first uniform."""
    return np.array([g.uniform() for g in rngs]),


def test_chunks_are_two_single_trials_then_the_cap():
    sizes = []

    def probe(drawn, size, first):
        sizes.append(len(drawn(_first_uniforms)[0]))
        yield np.arange(sizes[-1]), np.stack([np.eye(size)] * sizes[-1]), 1.0, None

    assert _search("synthetic", CertifyConfig(), 300, (2,), probe).verdict == "pass"
    assert sizes == [1, 1, 128, 128, 42]


def _synthetic_probe(outcomes):
    """A probe of 2x2 gaps of scale 1 that are PSD, except where ``outcomes``
    maps a trial to "fail" (an eigenvalue -1), "nan" (a NaN entry) or "raise"
    (evaluating its stack raises).  A trial is known by the first draw of its
    stream (the synthetic searches run trials 0..7)."""
    def probe(drawn, size, first):
        draws = drawn(_first_uniforms)[0].tolist()
        trials = {np.random.default_rng([0, t]).uniform(): t for t in range(8)}
        kinds = [outcomes.get(trials[d]) for d in draws]
        if "raise" in kinds:
            raise DomainError("synthetic")
        gaps = np.stack([np.diag([1.0, {"fail": -1.0, "nan": np.nan}.get(k, 1.0)])
                         for k in kinds])
        yield (np.arange(len(draws)), gaps, np.ones(len(draws)),
               lambda i: {"check": "synthetic", "drawn": trials[draws[i]]})
    return probe


# Trials 5 and 6 share the chunk 2..7: with sizes (2,) they share the stacks
# too, with sizes (2, 3) they are in different stacks of the chunk.

@pytest.mark.parametrize("sizes", [(2,), (2, 3)])
@pytest.mark.parametrize("outcomes, trial", [
    ({5: "fail", 6: "raise"}, 5),
    ({5: "fail", 6: "nan"}, 5),
    ({5: "fail", 6: "fail"}, 5),
    ({}, None),
])
def test_search_returns_the_lowest_failing_trial_of_a_chunk(outcomes, trial, sizes):
    cert = _search("synthetic", CertifyConfig(seed=0), 8, sizes, _synthetic_probe(outcomes))
    if trial is None:
        assert (cert.verdict, cert.trials) == ("pass", 8)
    else:
        assert (cert.verdict, cert.trials, cert.witness["trial"]) == ("fail", trial + 1, trial)
        assert cert.witness["drawn"] == trial


@pytest.mark.parametrize("outcomes, error, message", [
    ({5: "nan", 6: "fail"}, NonFiniteValue, "synthetic trial 5: the synthetic matrix"),
    ({5: "raise", 6: "fail"}, DomainError, "synthetic"),
])
@pytest.mark.parametrize("sizes", [(2,), (2, 3)])
def test_search_raises_for_the_lowest_trial_of_a_chunk(outcomes, error, message, sizes):
    with pytest.raises(error, match=message):
        _search("synthetic", CertifyConfig(seed=0), 8, sizes, _synthetic_probe(outcomes))

