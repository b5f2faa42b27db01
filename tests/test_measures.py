import numpy as np
import pytest

from catalog import away_from, interior_grid, random_om_rep, rel_residual

from loewner import (
    DiscreteMeasure,
    Interval,
    MeasureForm,
    MeasureOM,
    MulLinear,
    OCRep,
    OMRep,
    SOCRep,
    extend_at_endpoint,
    om_to_soc,
    recover_atom_weight,
    rep_from_json,
    rep_to_json,
    substitute_square,
)
from loewner.errors import (
    AtomAtX0,
    BadMeasureInput,
    DomainError,
    NonFiniteValue,
    NonzeroMuMinus,
    NotEndpoint,
    QuadratureFailure,
    WindowContainsPole,
)
from loewner.measures import (
    GK_GAUSS,
    GK_KRONROD,
    GK_NODES,
    QUAD_MAX_PANELS,
    QUAD_MAX_ROUNDS,
)

IDENTITY_TOL = 1e-12


# --- DiscreteMeasure --------------------------------------------------------------

def test_atoms_sorted_and_validated():
    m = DiscreteMeasure(((5.0, 1.0), (2.0, 3.0)))
    assert m.atoms == ((2.0, 3.0), (5.0, 1.0))
    with pytest.raises(ValueError):
        DiscreteMeasure(((2.0, -1.0),))
    with pytest.raises(ValueError):
        DiscreteMeasure(((2.0, 1.0), (2.0, 1.0)))  # duplicate locations


def test_weight_at():
    m = DiscreteMeasure(((2.0, 3.0),))
    assert m.weight_at(2.0) == 3.0
    assert m.weight_at(2.1) == 0.0
    assert m.weight_at(2.0 + 1e-12, tol=1e-9) == 3.0


# --- representations ---------------------------------------------------------------

def test_om_rep_evaluates_cauchy_sum():
    rep = OMRep(a=1.0, b=0.5, x0=0.0,
                mu=DiscreteMeasure(((2.0, 3.0),)), interval=Interval(-1.0, 1.0))
    # a x + b + w (1/(r-x) - 1/(r-x0))
    x = 0.5
    assert rep(x) == pytest.approx(0.5 + 0.5 + 3.0 * (1 / 1.5 - 1 / 2.0))


def test_om_rep_rejects_atom_inside_interval():
    with pytest.raises(ValueError):
        OMRep(a=0.0, b=0.0, x0=0.0,
              mu=DiscreteMeasure(((0.5, 1.0),)), interval=Interval(-1.0, 1.0))


def test_om_rep_rejects_negative_slope():
    with pytest.raises(ValueError):
        OMRep(a=-1.0, b=0.0, x0=0.0,
              mu=DiscreteMeasure(()), interval=Interval(-1.0, 1.0))


def test_oc_rep_two_sided_atoms():
    rep = OCRep(a=0.5, b=0.0, c=1.0, x0=0.0,
                mu_plus=DiscreteMeasure(((3.0, 1.0),)),
                mu_minus=DiscreteMeasure(((-2.0, 2.0),)),
                interval=Interval(-1.0, 1.0))
    # quadratic + right-pole term + left-pole term, all finite inside
    xs = interior_grid(rep.interval, 50)
    vals = rep(xs)
    assert np.all(np.isfinite(vals))
    # convexity on the grid (vectorized second difference)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second >= -1e-12)


def test_soc_rep_positive_and_decreasing_parts():
    rep = SOCRep(a=0.2,
                 mu_plus=DiscreteMeasure(((2.0, 1.0),)),
                 mu_minus=DiscreteMeasure(()),
                 interval=Interval(0.0, 1.0))
    assert rep(0.5) == pytest.approx(0.2 + 1.0 / 1.5)


def test_rep_derivatives_match_finite_differences():
    rng = np.random.default_rng(99)
    rep = random_om_rep(rng)
    xs = interior_grid(rep.interval, 20, margin=0.1)
    h = 1e-6
    num = (rep(xs + h) - rep(xs - h)) / (2 * h)
    assert np.allclose(MeasureForm(rep).eval_deriv(xs), num, rtol=1e-4, atol=1e-6)


def test_rep_complex_eval_upper_half_plane():
    rep = OMRep(a=0.0, b=0.0, x0=0.5,
                mu=DiscreteMeasure(((2.0, 1.0),)), interval=Interval(0.0, 1.0))
    z = complex(0.5, 0.3)
    v = MeasureForm(rep).eval_complex(z)
    assert v.imag > 0  # monotone representations map UHP to UHP


# --- difference quotient on representations ----------------------------------------

def test_om_to_soc_weights_scale_by_pole_distance():
    rep = OMRep(a=1.0, b=0.0, x0=0.0,
                mu=DiscreteMeasure(((2.0, 3.0), (-4.0, 1.0))),
                interval=Interval(-1.0, 1.0))
    soc = om_to_soc(rep, 0.5)
    assert soc.mu_plus.weight_at(2.0) == pytest.approx(3.0 / 1.5)
    assert soc.mu_minus.weight_at(-4.0) == pytest.approx(1.0 / 4.5)
    assert soc.a == 1.0  # slope becomes the constant term


def test_om_to_soc_identity_spot_check():
    rng = np.random.default_rng(4)
    rep = random_om_rep(rng)
    c = rep.x0 + 0.1 * rep.interval.width
    soc = om_to_soc(rep, c)
    xs = away_from(interior_grid(rep.interval, 200), c)
    lhs = (rep(xs) - rep(c)) / (xs - c)
    assert rel_residual(lhs, soc(xs)) < 1e-10


def test_om_to_soc_rejects_center_on_atom():
    # atom sits on the open right endpoint; centering there must fail loudly
    rep = OMRep(a=0.0, b=0.0, x0=0.5,
                mu=DiscreteMeasure(((2.0, 1.0),)),
                interval=Interval(0.0, 2.0))
    with pytest.raises(AtomAtX0):
        om_to_soc(rep, 2.0)
    with pytest.raises(DomainError):
        om_to_soc(rep, 5.0)  # center outside the closure


# --- endpoint extension -------------------------------------------------------------

def test_extension_carries_boundary_atom_into_the_value():
    rep = SOCRep(a=0.1,
                 mu_plus=DiscreteMeasure(((1.0, 0.7),)),
                 mu_minus=DiscreteMeasure(()),
                 interval=Interval(0.0, 1.0))
    ext, delta = extend_at_endpoint(rep, 1.0)
    assert delta == 0.7
    assert ext.value_at_b == -0.7  # right endpoint: f(b) = -delta
    # b stays excluded from the expression's domain; the value is the limit
    f = MulLinear(MeasureForm(rep), 1.0)
    assert f.eval_real(1.0 - 1e-9) == pytest.approx(-0.7, abs=1e-6)


def test_extension_left_endpoint_flips_sign():
    rep = SOCRep(a=0.1,
                 mu_plus=DiscreteMeasure(()),
                 mu_minus=DiscreteMeasure(((0.0, 0.4),)),
                 interval=Interval(0.0, 1.0))
    ext, delta = extend_at_endpoint(rep, 0.0)
    assert delta == 0.4
    assert ext.value_at_b == 0.4


def test_extension_requires_an_endpoint():
    rep = SOCRep(a=0.1, mu_plus=DiscreteMeasure(((2.0, 1.0),)),
                 mu_minus=DiscreteMeasure(()), interval=Interval(0.0, 1.0))
    with pytest.raises(NotEndpoint):
        extend_at_endpoint(rep, 0.5)


def test_extension_identity_residual_small():
    rep = SOCRep(a=0.3,
                 mu_plus=DiscreteMeasure(((1.0, 0.7), (2.5, 1.0))),
                 mu_minus=DiscreteMeasure(()),
                 interval=Interval(0.0, 1.0))
    ext, _ = extend_at_endpoint(rep, 1.0)
    xs = np.linspace(0.01, 0.99, 100)
    assert ext.identity_residual(xs) < IDENTITY_TOL


# --- square substitution ------------------------------------------------------------

def test_substitute_square_splits_atoms():
    rep = OCRep(a=0.0, b=1.0, c=0.3, x0=0.0,
                mu_plus=DiscreteMeasure(((4.0, 2.0),)),
                mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))
    out = substitute_square(rep)
    assert out.mu_plus.atoms == ((2.0, 0.5),)
    assert out.mu_minus.atoms == ((-2.0, 0.5),)
    assert out.a == pytest.approx(1.0 - 2.0 / 16.0)
    assert out.interval.hi == pytest.approx(np.sqrt(2.0))


def test_substitute_square_guards():
    minus = OCRep(a=0.0, b=0.0, c=0.0, x0=0.0,
                  mu_plus=DiscreteMeasure(()),
                  mu_minus=DiscreteMeasure(((-3.0, 1.0),)),
                  interval=Interval(-2.0, 2.0))
    with pytest.raises(NonzeroMuMinus):
        substitute_square(minus)
    shifted = OCRep(a=0.0, b=0.0, c=0.0, x0=0.5,
                    mu_plus=DiscreteMeasure(((4.0, 1.0),)),
                    mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))
    with pytest.raises(ValueError):
        substitute_square(shifted)
    quadratic = OCRep(a=1.0, b=0.0, c=0.0, x0=0.0,
                      mu_plus=DiscreteMeasure(((4.0, 1.0),)),
                      mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))
    with pytest.raises(ValueError):
        substitute_square(quadratic)


def test_square_substitution_with_a_negative_x2_term_is_bad_input():
    # the x^2 coefficient b - w/r^2 = 0.01 - 1/16 is negative: no convex form
    rep = OCRep(a=0.0, b=0.01, c=0.0, x0=0.0,
                mu_plus=DiscreteMeasure(((4.0, 1.0),)),
                mu_minus=DiscreteMeasure(()), interval=Interval(-2.0, 2.0))
    with pytest.raises(BadMeasureInput):
        substitute_square(rep)


# --- serialization -------------------------------------------------------------------

def test_rep_json_round_trips():
    rng = np.random.default_rng(12)
    om = random_om_rep(rng)
    assert rep_from_json(rep_to_json(om), "om") == om
    oc = OCRep(a=0.5, b=-1.0, c=2.0, x0=0.25,
               mu_plus=DiscreteMeasure(((3.0, 1.0),)),
               mu_minus=DiscreteMeasure(((-2.0, 0.5),)),
               interval=Interval(-1.0, 1.0))
    assert rep_from_json(rep_to_json(oc), "oc") == oc
    soc = SOCRep(a=0.0, mu_plus=DiscreteMeasure(((2.0, 1.0),)),
                 mu_minus=DiscreteMeasure(()), interval=Interval(0.0, 1.0))
    assert rep_from_json(rep_to_json(soc), "soc") == soc


# --- boundary-value recovery ----------------------------------------------------------

def test_recover_rejects_window_touching_the_atom_grid_edge():
    rep = OMRep(a=0.0, b=0.0, x0=0.5,
                mu=DiscreteMeasure(((2.0, 1.0),)), interval=Interval(0.0, 1.0))
    with pytest.raises(WindowContainsPole):
        recover_atom_weight(MeasureOM(rep), 2.0, (1.999, 3.0))


@pytest.mark.parametrize("window, kwargs", [
    ((2.5, 3.5), {}),
    ((1.2, 3.5), {"side": "x"}),
    ((1.2, 3.5), {"eps_list": (1e-3,)}),
    ((1.2, 3.5), {"eps_list": (1e-3, 1e-3)}),
    ((1.2, 3.5), {"eps_list": (0.0, 1e-3)}),
    ((1.2, 3.5), {"eps_list": (-1e-3, 1e-3)}),
    ((1.2, 3.5), {"eps_list": (float("nan"), 1e-3)}),
], ids=["window-misses-r", "side", "one-eps", "eps-equal", "eps-zero", "eps-negative",
        "eps-nan"])
def test_recover_argument_errors_are_bad_measure_input(window, kwargs):
    rep = OMRep(a=0.0, b=0.0, x0=0.5,
                mu=DiscreteMeasure(((2.0, 1.0),)), interval=Interval(0.0, 1.0))
    with pytest.raises(BadMeasureInput):
        recover_atom_weight(MeasureOM(rep), 2.0, window, **kwargs)


def test_gauss_kronrod_constants():
    assert np.all(np.diff(GK_NODES) > 0)
    assert abs(GK_KRONROD.sum() - 2.0) <= 1e-15
    assert abs(GK_GAUSS.sum() - 2.0) <= 1e-15
    assert np.all(GK_GAUSS[0::2] == 0.0) and np.all(GK_GAUSS[1::2] > 0.0)
    # K15 is exact through degree 22 and G7 through degree 13
    assert abs(GK_KRONROD @ GK_NODES**22 - 2.0 / 23.0) <= 1e-15
    assert abs(GK_GAUSS @ GK_NODES**12 - 2.0 / 13.0) <= 1e-15


def _soc(plus=(), minus=()):
    return SOCRep(a=0.2, mu_plus=DiscreteMeasure(plus), mu_minus=DiscreteMeasure(minus),
                  interval=Interval(-1.0, 1.0))


def _oc_left():
    return OCRep(a=0.5, b=-1.0, c=2.0, x0=0.25, mu_plus=DiscreteMeasure(((3.0, 1.0),)),
                 mu_minus=DiscreteMeasure(((-2.0, 0.8),)), interval=Interval(-1.0, 1.0))


def _om(*atoms):
    return OMRep(a=0.3, b=-0.2, x0=0.5, mu=DiscreteMeasure(atoms),
                 interval=Interval(0.0, 1.0))


@pytest.mark.parametrize("rep, r, window, kwargs, weight", [
    (_om((2.0, 1.0), (3.5, 0.4)), 3.5, (2.9, 4.4), {}, 0.4),
    (_om((-2.0, 0.7), (2.0, 1.0)), -2.0, (-2.9, -1.2), {}, 0.7),
    (_oc_left(), -2.0, (-2.8, -1.3), {"side": "-"}, 0.8),
    (_soc(plus=((1.5, 0.6),)), 1.5, (1.1, 2.2), {}, 0.6),
    (_soc(minus=((-1.5, 0.9),)), -1.5, (-2.2, -1.1), {"side": "-"}, 0.9),
    (_om((5.0, 3.0)), 5.0, (3.6, 6.3), {}, 3.0),
    (_om((7.5, 2.0)), 7.5, (6.2, 8.8), {}, 2.0),
    (_om((2.0, 1.0)), 2.0, (1.4, 2.6), {"eps_list": (2e-4, 5e-3, 5e-5)}, 1.0),
], ids=["om-right", "om-left-atom", "oc-left", "soc-right", "soc-left", "atom-5",
        "atom-7.5", "custom-eps"])
def test_recover_returns_the_built_weight(rep, r, window, kwargs, weight):
    got = recover_atom_weight(MeasureForm(rep), r, window, **kwargs)
    assert type(got) is float
    assert abs(got - weight) <= 1e-9 * weight


class _CountingNode:
    """Wraps a node's holomorphic extension and records each call's size."""

    def __init__(self, cval):
        self.cval, self.sizes = cval, []

    def eval_complex(self, z):
        self.sizes.append(np.size(z))
        return self.cval(z)


def test_recover_non_finite_integrand_raises():
    # w * Im 1/(r - z) overflows to inf within eps of the atom
    node = _CountingNode(MeasureForm(_om((2.0, 1e306))).eval_complex)
    with pytest.raises(NonFiniteValue), np.errstate(over="ignore"):
        recover_atom_weight(node, 2.0, (1.5, 2.5))
    assert len(node.sizes) <= QUAD_MAX_ROUNDS


def test_recover_noisy_integrand_hits_the_panel_cap():
    rng = np.random.default_rng(0)
    node = _CountingNode(lambda z: z.real + 1j * rng.standard_normal(np.shape(z)))
    with pytest.raises(QuadratureFailure):
        recover_atom_weight(node, 2.0, (1.5, 2.5))
    assert max(node.sizes) <= QUAD_MAX_PANELS * GK_NODES.size


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_atoms_reject_non_finite_weights(weight):
    with pytest.raises(ValueError):
        DiscreteMeasure(((2.0, weight),))


def test_om_rep_rejects_nan_anchor():
    assert not Interval(0.0, 1.0, True, True).contains(float("nan"))
    with pytest.raises(ValueError):
        OMRep(a=1.0, b=0.0, x0=float("nan"), mu=DiscreteMeasure(((2.0, 1.0),)),
              interval=Interval(0.0, 1.0, True, True))
