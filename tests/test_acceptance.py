"""Acceptance suite: one test per top-level guarantee of the package.

Every tolerance is pinned as a module constant; every random draw is seeded
through np.random.default_rng([fixed, trial]).  Run with -v to get one
pass/fail line per guarantee.
"""

import json
import math

import numpy as np
import pytest

from loewner import (
    Catalog,
    Certificate,
    CertifyConfig,
    Compose,
    DiscreteMeasure,
    FunctionExpr,
    Interval,
    MeasureOM,
    OCRep,
    OMRep,
    Power,
    Quotient,
    Reciprocal,
    SOCRep,
    as_rational,
    backward_process,
    check_convex,
    check_halfplane,
    check_monotone,
    check_strong,
    compose_checked,
    extend_at_endpoint,
    identity,
    main_cycle,
    om_to_soc,
    recover_atom_weight,
    replay_witness,
    rep_to_json,
    star_process,
    substitute_square,
    to_json,
)
from loewner.cli import main as cli_main
from loewner.errors import HypothesisViolated
from loewner.matcalc import (
    apply_fn,
    compress,
    embed,
    haar_unitary,
    matrix_to_json,
    psd_min_eig,
    rand_hermitian,
    schur_complement,
)

from catalog import away_from, interior_grid, random_om_rep, rel_residual

# pinned tolerances and trial counts
DOMINATION_TRIALS = 500
DOMINATION_SCALE = 1e-8          # margin allowance: scale * (1 + |f(h)|)
DETERMINISTIC_TOL = 1e-10

SCHUR_TRIALS = 500
SCHUR_REL_TOL = 1e-9
BOUNDARY_SKIP = 1e-7             # |min eig| below this: too close to call

ROUNDTRIP_REPS = 50
ROUNDTRIP_CENTERS = 5
ROUNDTRIP_POINTS = 200
ROUNDTRIP_TOL = 1e-10

CLOSED_FORM_TOL = 1e-12
RECOVERY_REL_TOL = 1e-2
RECOVERY_MAX_EVALS = 3
EXTENSION_TOL = 1e-12
WITNESS_TOL = 1e-10

MONO_CONFIG = CertifyConfig(trials=300, dims=(2, 3, 4, 5, 6), seed=0)
COMPOSE_CONFIG = CertifyConfig(trials=120, dims=(2, 3, 4), seed=0)
FAST_CLI = {"trials": 40, "dims": [2, 3], "seed": 0}


def test_01_compression_of_reciprocal_stays_dominated():
    # embed(f(corner of h)) <= f(h) for f = 1/x, 500 seeded (h, p) pairs
    recip = Reciprocal(Interval(0.1, 10.0, lo_closed=True, hi_closed=True))
    for trial in range(DOMINATION_TRIALS):
        rng = np.random.default_rng([424242, trial])
        n = 2 + trial % 7
        h = rand_hermitian(rng, n, recip.domain)
        rank = int(rng.integers(1, n))
        v = haar_unitary(rng, n)[:, :rank]
        fh = apply_fn(recip, h)
        diff = fh - embed(apply_fn(recip, compress(h, v)), v)
        assert psd_min_eig(diff) >= -DOMINATION_SCALE * (1.0 + np.linalg.norm(fh, 2))

    # the corner case that meets the bound exactly
    h = np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)
    v = np.array([[1.0], [0.0]], dtype=complex)
    diff = apply_fn(recip, h) - embed(apply_fn(recip, compress(h, v)), v)
    assert abs(psd_min_eig(diff)) <= DETERMINISTIC_TOL


def test_02_schur_complement_psd_equivalence_and_inverse_corner():
    checked = skipped = 0
    for trial in range(SCHUR_TRIALS):
        rng = np.random.default_rng([555, trial])
        n = 2 + trial % 7
        n1 = int(rng.integers(1, n))
        a = rand_hermitian(rng, n1, Interval(-3.0, 3.0, True, True))
        c = rand_hermitian(rng, n - n1, Interval(0.5, 4.0, True, True))  # c > 0
        b = rng.standard_normal((n - n1, n1)) + 1j * rng.standard_normal((n - n1, n1))
        k = np.block([[a, b.conj().T], [b, c]])
        if trial % 2:  # alternate family: shifted to be positive definite
            k = k + (abs(float(np.linalg.eigvalsh(k).min())) + 0.5) * np.eye(n)
        v = np.eye(n, dtype=complex)[:, :n1]

        s = schur_complement(k, v)
        tol = SCHUR_REL_TOL * (1.0 + np.linalg.norm(k, 2))
        mk, ms = psd_min_eig(k), psd_min_eig(s)
        if abs(mk) < BOUNDARY_SKIP or abs(ms) < BOUNDARY_SKIP:
            skipped += 1
            continue
        checked += 1
        assert (mk >= -tol) == (ms >= -tol)

        if np.abs(np.linalg.eigvalsh(k)).min() > 1e-6:
            corner = compress(np.linalg.inv(k), v)
            resid = np.linalg.norm(corner - np.linalg.inv(s), 2)
            assert resid < SCHUR_REL_TOL * (1.0 + np.linalg.norm(corner, 2))
    assert checked + skipped == SCHUR_TRIALS
    assert checked >= 450  # the skip rule must stay the exception


def test_03_difference_quotient_measure_round_trip():
    failures = 0
    for i in range(ROUNDTRIP_REPS):
        rng = np.random.default_rng([777, i])
        rep = random_om_rep(rng)
        width = rep.interval.width
        for j in range(ROUNDTRIP_CENTERS):
            c = rep.interval.lo + (0.2 + 0.6 * j / (ROUNDTRIP_CENTERS - 1)) * width
            soc = om_to_soc(rep, c)
            xs = away_from(interior_grid(rep.interval, ROUNDTRIP_POINTS + 20), c)
            xs = xs[:ROUNDTRIP_POINTS]
            lhs = (rep(xs) - rep(c)) / (xs - c)
            if rel_residual(lhs, soc(xs)) > ROUNDTRIP_TOL:
                failures += 1
    assert failures == 0


def test_04_main_cycle_recovers_inverse_sqrt_ratio():
    run = main_cycle(Power(0.5), (1.0, 0.0))
    f3 = run.stage(3).expr
    xs = np.geomspace(0.01, 100.0, 200)
    want = (xs ** -0.5 - 1.0) / (xs ** 0.5 - 1.0)
    got = np.asarray(f3.eval_real(xs), dtype=float)
    assert np.max(np.abs(got - want) / np.abs(want)) <= CLOSED_FORM_TOL
    assert check_monotone(f3, MONO_CONFIG).verdict == "pass"
    half = check_halfplane(f3)
    assert half.verdict == "pass" and half.trials == 64  # Pick node sets


def test_05_star_process_second_stage_matches_closed_form():
    run = star_process(Power(0.5), (1.0, 0.0))
    f2 = run.stage(2).expr
    xs = np.geomspace(0.01, 100.0, 200)
    want = (xs ** -0.5 - 1.0) / (xs - 1.0)
    got = np.asarray(f2.eval_real(xs), dtype=float)
    assert np.max(np.abs(got - want) / np.abs(want)) <= CLOSED_FORM_TOL
    assert check_monotone(f2, MONO_CONFIG).verdict == "pass"


def test_06_backward_process_matches_closed_forms():
    ys = np.linspace(0.01, 1.99, 200)

    f0 = Power(0.5, Interval(0.0, 2.0, True, True))
    run = backward_process(f0, (1.0, 0.0), shifts=(-3.0, 0.0))
    want = ys / (3.0 - np.sqrt(ys) * (ys - 1.0))
    got = np.asarray(run.final.eval_real(ys), dtype=float)
    assert np.max(np.abs(got - want) / np.abs(want)) <= CLOSED_FORM_TOL
    assert check_monotone(run.final, MONO_CONFIG).verdict == "pass"

    g0 = Catalog("power_diff_mirror", (("alpha", 0.5),))
    run2 = backward_process(g0, (1.0, 0.0), shifts=(-3.0, 0.0))
    want2 = ys / (3.0 - (ys - 1.0) * (np.sqrt(ys) - np.sqrt(2.0 - ys)))
    got2 = np.asarray(run2.final.eval_real(ys), dtype=float)
    assert np.max(np.abs(got2 - want2) / np.abs(want2)) <= CLOSED_FORM_TOL
    assert check_monotone(run2.final, MONO_CONFIG).verdict == "pass"


def test_07_pipelines_terminate_on_zero_and_on_degree_drop():
    run = main_cycle(identity(), (1.0, 0.0), cycles=5)
    assert run.status == "terminated_zero"
    f3 = run.stage(3).expr
    assert all(f3.eval_real(x) == 0.0 for x in np.linspace(-5.0, 5.0, 101))

    mob = Quotient((1.0, 2.0), (1.0, 1.0), Interval(-1.0, math.inf))
    assert as_rational(mob).degree == 1
    run2 = main_cycle(mob, (1.0, 0.0), cycles=5)
    assert run2.status == "terminated_rational"
    assert len(run2.stages) == 4           # one full cycle: degree 1 -> 0
    assert as_rational(run2.final).degree == 0


def test_08_negative_controls_fail_with_replayable_witnesses():
    square, cube = Power(2.0), Power(3.0)
    id02 = identity(Interval(0.0, 2.0))
    config = CertifyConfig(trials=300, dims=(2, 3, 4), seed=0)

    assert check_monotone(square, config).verdict == "fail"
    assert check_convex(cube, config).verdict == "fail"
    assert check_strong(id02, config).verdict == "fail"
    assert check_halfplane(square).verdict == "fail"

    def replay(fn, check, **payload):
        wit = {"check": check}
        for key, val in payload.items():
            is_matrix = isinstance(val, list) and isinstance(val[0], list)
            wit[key] = (matrix_to_json(np.asarray(val, dtype=complex))
                        if is_matrix else val)
        return replay_witness(fn, Certificate(check, "fail", 1, 1e-9, 0, wit))

    # order violation of x^2: min eig(f(h2) - f(h1)) = (3 - sqrt(13))/2
    got = replay(square, "monotone",
                 h1=[[1.0, 1.0], [1.0, 1.0]], h2=[[2.0, 1.0], [1.0, 1.0]])
    assert got <= -0.2
    assert abs(got - (3.0 - math.sqrt(13.0)) / 2.0) <= WITNESS_TOL

    # compression violation of x^3: gap of 0.125 at the stated (h, p)
    got = replay(cube, "davis",
                 h1=[[-0.5, 0.5], [0.5, 0.5]], p=[[1.0, 0.0], [0.0, 0.0]])
    assert abs(got + 0.125) <= WITNESS_TOL

    # the identity is not strongly convex: min eig (1 - sqrt(4.24))/2
    got = replay(id02, "strong",
                 h1=[[1.0, 0.9], [0.9, 1.0]], p=[[1.0, 0.0], [0.0, 0.0]])
    assert got <= -0.5
    assert abs(got - (1.0 - math.sqrt(4.24)) / 2.0) <= WITNESS_TOL

    # x^2 pushes -1+i below the real axis: the 1x1 Pick matrix there is
    # Im((-1+i)^2) / Im(-1+i) = -2
    got = replay_witness(square, Certificate("halfplane", "fail", 1, 1e-9, 0,
                                             {"check": "pick", "nodes": [[-1.0, 1.0]]}))
    assert abs(got + 2.0) <= WITNESS_TOL


def test_09_checked_composition_builds_reciprocal_shift():
    outer = Quotient((0.0, 1.0), (1.0, 1.0), Interval(0.0, np.inf, lo_closed=True))
    inner = Reciprocal(Interval(0.1, 10.0, lo_closed=True, hi_closed=True))
    res = compose_checked(outer, inner, "strong", COMPOSE_CONFIG)
    assert res.claim == "strongly_operator_convex"
    assert res.certificate.verdict == "pass"

    xs = np.linspace(0.2, 9.8, 200)
    want = 1.0 / (1.0 + xs)
    got = np.asarray(res.expr.eval_real(xs), dtype=float)
    assert np.max(np.abs(got - want) / np.abs(want)) <= CLOSED_FORM_TOL

    with pytest.raises(HypothesisViolated) as exc:
        compose_checked(Power(2.0), inner, "strong", COMPOSE_CONFIG)
    assert exc.value.clause == "outer-not-monotone"


def test_10_square_of_square_loses_operator_convexity():
    comp = Compose(Power(2.0), Power(2.0, Interval(-1.0, 1.0)))
    xs = np.linspace(-0.99, 0.99, 200)
    got = np.asarray(comp.eval_real(xs), dtype=float)
    assert np.max(np.abs(got - xs ** 4)) <= CLOSED_FORM_TOL

    cert = check_convex(comp, CertifyConfig(trials=1000, dims=(2, 3), seed=0))
    assert cert.verdict == "fail" and cert.witness is not None
    replayed = replay_witness(comp, cert)
    assert abs(replayed - cert.witness["min_eig"]) <= WITNESS_TOL


def test_11_poisson_recovery_within_one_percent(monkeypatch):
    calls = []
    eval_complex = FunctionExpr.eval_complex

    def counted(self, z):
        calls.append(z)
        return eval_complex(self, z)

    monkeypatch.setattr(FunctionExpr, "eval_complex", counted)

    def recover(rep, r, window):
        calls.clear()
        w = recover_atom_weight(MeasureOM(rep), r, window)
        # one array evaluation per round, not per abscissa, and 3 rounds from
        # starting panels graded toward r
        assert len(calls) <= RECOVERY_MAX_EVALS
        return w

    one = OMRep(a=0.0, b=0.5, x0=0.5, mu=DiscreteMeasure(((2.0, 1.0),)),
                interval=Interval(0.0, 1.0))
    w = recover(one, 2.0, (1.2, 3.5))
    assert abs(w - 1.0) <= RECOVERY_REL_TOL

    two = OMRep(a=0.3, b=-0.2, x0=0.5,
                mu=DiscreteMeasure(((2.0, 1.0), (5.0, 3.0))),
                interval=Interval(0.0, 1.0))
    w1 = recover(two, 2.0, (1.3, 3.4))
    w2 = recover(two, 5.0, (3.6, 8.0))
    assert abs(w1 - 1.0) <= RECOVERY_REL_TOL
    assert abs(w2 - 3.0) / 3.0 <= RECOVERY_REL_TOL


def test_12_endpoint_extension_identity_residual():
    rep = SOCRep(a=0.1, mu_plus=DiscreteMeasure(((1.0, 0.7),)),
                 mu_minus=DiscreteMeasure(()), interval=Interval(0.0, 1.0))
    ext, delta = extend_at_endpoint(rep, 1.0)
    assert delta == 0.7
    xs = np.linspace(0.01, 0.99, 100)
    assert ext.identity_residual(xs) < EXTENSION_TOL


def test_13_square_substitution_splits_atoms_pointwise():
    rep = OCRep(a=0.0, b=1.0, c=0.3, x0=0.0,
                mu_plus=DiscreteMeasure(((4.0, 2.0),)),
                mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))
    out = substitute_square(rep)
    assert out.mu_plus.atoms == ((2.0, 0.5),)
    assert out.mu_minus.atoms == ((-2.0, 0.5),)
    xs = np.linspace(-1.4, 1.4, 200)
    assert np.max(np.abs(out(xs) - rep(xs ** 2))) <= CLOSED_FORM_TOL


def test_14_cli_reruns_are_byte_identical(tmp_path):
    sqrt_json = to_json(Power(0.5))
    om = OMRep(a=1.0, b=0.0, x0=0.0,
               mu=DiscreteMeasure(((2.0, 3.0), (-4.0, 1.0))),
               interval=Interval(-1.0, 1.0))
    specs = {
        "classify": {"function": sqrt_json, "config": FAST_CLI},
        "pipeline": {"function": sqrt_json, "process": "main",
                     "points": [1.0, 0.0]},
        "measure": {"kind": "om", "measure": rep_to_json(om),
                    "transform": {"op": "om_to_soc", "x0": 0.5}},
    }
    for command, spec in specs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(spec))
        outs = []
        for rerun in ("r1", "r2"):
            out = tmp_path / command / rerun
            assert cli_main([command, "--spec", str(path),
                             "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # report, fed from the classify artifacts above
    result = json.loads(
        (tmp_path / "classify" / "r1" / "certificates.json").read_text())["result"]
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps({"function": sqrt_json, "result": result}))
    outs = []
    for rerun in ("r1", "r2"):
        out = tmp_path / "report" / rerun
        assert cli_main(["report", "--spec", str(rpath), "--out", str(out),
                         "--replay"]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == \
           (outs[1] / "report.json").read_bytes()
