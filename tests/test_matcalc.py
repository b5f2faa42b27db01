import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import RECIP, SQUARE

from loewner import (
    Interval,
    Power,
    apply_fn,
    compress,
    embed,
    psd_min_eig,
    rand_hermitian,
    rand_ordered_pair,
    schur_complement,
)
from loewner.errors import EmptyDomain, NonFiniteValue, SingularBlock, SpectrumOutsideDomain
from loewner.matcalc import (
    clears_floor,
    complement_basis,
    haar_unitary,
    hermitian_draw,
    isometry_draw,
    matrix_from_json,
    matrix_to_json,
    min_eig_floor,
    pair_draw,
    projection_basis,
    spectrum,
    sym,
)

RNG = np.random.default_rng(20240811)
ATOL = 1e-12


def test_apply_fn_on_diagonal_matrix():
    h = np.diag([1.0, 4.0, 9.0]).astype(complex)
    out = apply_fn(Power(0.5), h)
    assert np.allclose(out, np.diag([1.0, 2.0, 3.0]), atol=ATOL)


def test_apply_fn_commutes_with_conjugation():
    u = haar_unitary(np.random.default_rng(3), 5)
    h = sym(u @ np.diag([0.2, 0.5, 1.0, 2.0, 5.0]).astype(complex) @ u.conj().T)
    out = apply_fn(RECIP, h)
    assert np.allclose(out, u @ np.diag(1.0 / np.array([0.2, 0.5, 1.0, 2.0, 5.0])) @ u.conj().T,
                       atol=1e-10)


def test_apply_fn_rejects_spectrum_outside_domain():
    h = np.diag([0.5, 20.0]).astype(complex)  # 20 > hi of (0.1, 10)
    with pytest.raises(SpectrumOutsideDomain) as exc:
        apply_fn(RECIP, h)
    assert exc.value.eigenvalue == pytest.approx(20.0)


def test_apply_fn_snaps_roundoff_at_closed_endpoints():
    # eigenvalue a hair below a closed endpoint must evaluate, not raise
    dom = Interval(0.0, 5.0, lo_closed=True, hi_closed=True)
    h = np.diag([-1e-13, 2.0]).astype(complex)
    out = apply_fn(Power(0.5, dom), h)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-6)


# --- a NaN or inf never decomposes quietly: NonFiniteValue, inside the taxonomy ------

NAN, INF = np.nan, np.inf
UNIT = Interval(0.0, 1.0, True, True)


def test_psd_min_eig_rejects_a_nan_entry():
    # unchecked, eigvalsh reads -0.0 here
    with pytest.raises(NonFiniteValue):
        psd_min_eig(np.array([[NAN, 0.0], [0.0, 1.0]]))


# unchecked, the first three decompose to a NaN eigenvalue and the last two raise
# numpy's LinAlgError (no convergence), which is not a LoewnerError
@pytest.mark.parametrize("m", [
    np.diag([NAN, 0.5]),
    np.diag([INF, 0.5]),
    np.array([[0.5, NAN], [NAN, 0.5]]),
    np.full((3, 3), NAN),
    np.where(np.eye(4, dtype=bool), 0.5, NAN),
], ids=["nan-diagonal", "inf-diagonal", "nan-off-diagonal", "all-nan-3x3", "nan-off-4x4"])
def test_apply_fn_rejects_a_non_finite_entry_before_decomposing(m):
    with pytest.raises(NonFiniteValue):
        apply_fn(Power(2.0, UNIT), m)


def test_spectrum_reports_a_non_finite_eigenvalue_as_such():
    # finite entries whose eigensolve overflows: no eigenvalue lies in the domain
    m = np.full((2, 2), 1e308)
    assert not np.isfinite(np.linalg.eigvalsh(m)).all()
    with pytest.raises(NonFiniteValue):
        spectrum(m, Interval(-INF, INF))


# numpy's eigensolvers raise LinAlgError (no convergence) on an all-NaN 3x3
# matrix; each direct caller maps it to NonFiniteValue
ALL_NAN = np.full((3, 3), NAN)


def test_spectrum_of_an_all_nan_matrix_is_non_finite():
    with pytest.raises(NonFiniteValue):
        spectrum(ALL_NAN, UNIT)


def test_min_eig_floor_of_an_all_nan_matrix_is_non_finite():
    with pytest.raises(NonFiniteValue):
        min_eig_floor(ALL_NAN, 1.0)


def test_projection_basis_of_an_all_nan_matrix_is_non_finite():
    with pytest.raises(NonFiniteValue):
        projection_basis(ALL_NAN)


def test_sym_of_entries_near_the_float_limit_is_finite():
    # halving before the sum keeps m + m* from overflowing
    m = np.full((2, 2), 1e308, dtype=complex)
    assert np.all(np.isfinite(sym(m)))
    assert np.array_equal(sym(m), m)


def test_psd_predicates():
    assert psd_min_eig(np.diag([3.0, -2.0])) == pytest.approx(-2.0)


def test_projection_basis_spans_range():
    cols = haar_unitary(np.random.default_rng(5), 6)[:, :2]
    p = sym(cols @ cols.conj().T)
    v = projection_basis(p)
    assert v.shape == (6, 2)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)
    assert np.allclose(v @ v.conj().T, p, atol=1e-10)


def test_projection_basis_rejects_non_projection():
    with pytest.raises(ValueError):
        projection_basis(np.diag([0.5, 1.0]).astype(complex))


def _two_norm_projection_basis(p):
    """The reference: p tested by the spectral norms of p^2 - p and p, then its basis."""
    p = sym(p)
    if np.linalg.norm(p @ p - p, 2) > 1e-8 * (1.0 + np.linalg.norm(p, 2)):
        raise ValueError("matrix is not an orthogonal projection")
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


@pytest.mark.parametrize("n", range(2, 9))
def test_projection_basis_returns_the_basis_bits_of_the_two_norm_test(n):
    for rank in range(1, n):
        cols = haar_unitary(np.random.default_rng([n, rank]), n)[:, :rank]
        p = cols @ cols.conj().T    # as a compression witness stores it, not symmetrized
        assert projection_basis(p).tobytes() == _two_norm_projection_basis(p).tobytes()


@pytest.mark.parametrize("p", [
    (1.0 + 1e-6) * np.outer([0.6, 0.8j], [0.6, -0.8j]),   # rank 1, scaled off 1
    np.array([[0.5, 0.5], [0.5, 0.0]], dtype=complex),    # Hermitian, not idempotent
    np.zeros((3, 3), dtype=complex),                      # a projection with no range
], ids=["scaled-rank-1", "not-idempotent", "zero"])
def test_projection_basis_rejects_what_has_no_basis(p):
    with pytest.raises(ValueError, match="projection"):
        projection_basis(p)


def test_complement_basis_completes_the_frame():
    v = haar_unitary(np.random.default_rng(6), 5)[:, :2]
    w = complement_basis(v)
    assert w.shape == (5, 3)
    assert np.allclose(w.conj().T @ w, np.eye(3), atol=1e-10)
    assert np.allclose(v.conj().T @ w, 0.0, atol=1e-10)


def test_compress_embed_adjoint_pair():
    rng = np.random.default_rng(7)
    m = rand_hermitian(rng, 5, Interval(-2.0, 2.0, True, True))
    v = haar_unitary(rng, 5)[:, :2]
    small = compress(m, v)
    assert small.shape == (2, 2)
    # embedding then compressing recovers the small block
    assert np.allclose(compress(embed(small, v), v), small, atol=ATOL)
    # embed(compress(m)) is the two-sided projection of m
    p = v @ v.conj().T
    assert np.allclose(embed(small, v), p @ m @ p, atol=1e-10)


def test_schur_complement_matches_block_formula():
    rng = np.random.default_rng(8)
    a = sym(rand_hermitian(rng, 2, Interval(-3.0, 3.0, True, True)))
    c = sym(rand_hermitian(rng, 3, Interval(1.0, 4.0, True, True)))  # positive
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    k = np.block([[a, b], [b.conj().T, c]])
    v = np.eye(5, dtype=complex)[:, :2]
    s = schur_complement(k, v)
    assert np.allclose(s, a - b @ np.linalg.inv(c) @ b.conj().T, atol=1e-10)


def test_schur_complement_singular_block_rejected():
    k = np.diag([1.0, 1.0, 0.0]).astype(complex)  # complement block singular
    v = np.eye(3, dtype=complex)[:, :1]
    with pytest.raises(SingularBlock):
        schur_complement(k, v)


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(np.random.default_rng(11), 6)
    u2 = haar_unitary(np.random.default_rng(11), 6)
    assert np.allclose(u1 @ u1.conj().T, np.eye(6), atol=1e-10)
    assert np.array_equal(u1, u2)


def test_rand_hermitian_spectrum_stays_inside():
    dom = Interval(0.1, 10.0)
    for trial in range(50):
        h = rand_hermitian(np.random.default_rng(trial), 2 + trial % 6, dom)
        assert np.allclose(h, h.conj().T)
        eig = np.linalg.eigvalsh(h)
        assert eig.min() > 0.1 and eig.max() < 10.0


def test_rand_ordered_pair_orders():
    dom = Interval(0.1, 10.0)
    for trial in range(50):
        h1, h2 = rand_ordered_pair(np.random.default_rng(trial), 4, dom)
        assert psd_min_eig(h2 - h1) >= -1e-12
        assert np.linalg.eigvalsh(h1).min() > 0.1 - 1e-9


def test_matrix_json_round_trip():
    rng = np.random.default_rng(17)
    m = rand_hermitian(rng, 4, Interval(-1.0, 1.0, True, True))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_to_json_equals_the_entrywise_lists():
    m = rand_hermitian(np.random.default_rng(18), 5, Interval(-1.0, 1.0, True, True))
    m[0, 1], m[1, 0] = complex(-0.0, 1e-300), complex(5e-324, -0.0)
    old = [[[float(e.real), float(e.imag)] for e in row] for row in m]
    got = matrix_to_json(m)
    assert got == old and np.array(got).tobytes() == np.array(old).tobytes()


@settings(derandomize=True, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_compression_contracts_spectrum(seed, n):
    # eigenvalues of a compression interlace: min can only move up, max down
    rng = np.random.default_rng(seed)
    h = rand_hermitian(rng, n, Interval(-5.0, 5.0, True, True))
    rank = int(rng.integers(1, n))
    v = haar_unitary(rng, n)[:, :rank]
    inner = np.linalg.eigvalsh(compress(h, v))
    outer = np.linalg.eigvalsh(h)
    assert inner.min() >= outer.min() - 1e-10
    assert inner.max() <= outer.max() + 1e-10


@settings(derandomize=True, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_square_respects_compression_only_one_way(seed):
    # p h^2 p >= (php)^2 always (Kadison); used as a sanity anchor for apply_fn
    rng = np.random.default_rng(seed)
    h = rand_hermitian(rng, 4, Interval(-3.0, 3.0, True, True))
    v = haar_unitary(rng, 4)[:, :2]
    gap = compress(apply_fn(SQUARE, h), v) - apply_fn(SQUARE, compress(h, v))
    assert psd_min_eig(gap) >= -1e-10 * (1 + np.linalg.norm(h, 2) ** 2)


# --- stacks: one call over a (k, n, n) stack equals k calls, bit for bit ----------

STACK_DOMAIN = Interval(0.1, 10.0)
SIZES = range(2, 9)


def _streams(n, k=5):
    return [np.random.default_rng([n, i]) for i in range(k)]


@pytest.mark.parametrize("n", SIZES)
def test_stacked_apply_sym_and_floor_equal_per_matrix_calls(n):
    # 64 matrices: more than the 43 trials of one size in a default chunk of 298
    hs = np.stack([rand_hermitian(g, n, STACK_DOMAIN) for g in _streams(n, 64)])
    ms = hs + 0.1j * hs.real  # not Hermitian, so sym has work to do
    assert np.array_equal(apply_fn(RECIP, hs), np.stack([apply_fn(RECIP, h) for h in hs]))
    assert np.array_equal(sym(ms), np.stack([sym(m) for m in ms]))
    # the floor test takes Hermitian gaps, as the checks make them
    gaps, scales = sym(ms) - 5.0 * np.eye(n), np.abs(ms).sum(-1).max(-1)
    mn, floor = min_eig_floor(gaps, scales, 1e-9)
    singles = [min_eig_floor(m, s, 1e-9) for m, s in zip(gaps, scales)]
    assert mn.tolist() == [s[0] for s in singles]
    assert floor.tolist() == [s[1] for s in singles]


# --- the Cholesky screen of the floor test --------------------------------------

@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8),
       scale=st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e),
       tol=st.sampled_from([0.0, 1e-15, 1e-9]),
       cs=st.lists(st.tuples(st.sampled_from([0.5, 1.0]), st.floats(-0.05, 0.05)),
                   min_size=1, max_size=6))
def test_cholesky_screen_agrees_with_eigvalsh(seed, n, scale, tol, cs):
    # smallest eigenvalue -c tol scale, c near 1/2 (the screen's shift) or
    # near 1 (the floor); the rest in [scale / 1000, scale)
    rng = np.random.default_rng(seed)
    ms = []
    for base, dc in cs:
        w = np.append(-(base + dc) * tol * scale, scale * rng.uniform(1e-3, 1.0, n - 1))
        u = haar_unitary(rng, n)
        ms.append(sym((u * w) @ u.conj().T))
    ms, scales = np.stack(ms), np.full(len(cs), scale)
    mn, floor = min_eig_floor(ms, scales, tol)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", lambda a, c=np.linalg.cholesky: calls.append(a) or c(a))
        cleared = clears_floor(ms, scales, tol)
    # the screened below-floor mask (none where cleared, else eigvalsh's) is eigvalsh's
    assert not (cleared and (mn < floor).any())
    s = tol * scales / 2
    if not np.all(s > 4 * (n + 1) ** 2 * 2.0 ** -53 * (np.abs(ms).sum(-1).max(-1) + s)):
        assert not calls     # where its bound fails, the screen stands down
    elif all(base + dc < 0.49 for base, dc in cs):
        assert cleared


SAMPLERS = {
    "haar_unitary": lambda rng, n: haar_unitary(rng, n),
    # a Haar unitary with a rank drawn first (isometry_draw); each rank scales
    # its unitary, so that both must match
    "haar_unitary_ranked": lambda rng, n: (lambda r, u: u * np.asarray(r)[..., None, None])(
        *isometry_draw(rng, n)),
    "rand_hermitian": lambda rng, n: rand_hermitian(rng, n, STACK_DOMAIN),
    "rand_ordered_pair": lambda rng, n: np.stack(rand_ordered_pair(rng, n, STACK_DOMAIN),
                                                 axis=-3),
    # the domain-free draws, each part scaling the other, and the samplers on them
    "hermitian_draw": lambda rng, n: (lambda x, u: u * x[..., None, :])(*hermitian_draw(rng, n)),
    "pair_draw": lambda rng, n: (lambda v, w: v * w[..., None])(*pair_draw(rng, n)),
    "rand_hermitian_drawn": lambda rng, n: rand_hermitian(hermitian_draw(rng, n), n, STACK_DOMAIN),
    "rand_ordered_pair_drawn": lambda rng, n: np.stack(_pair_from_draws(rng, n, STACK_DOMAIN),
                                                       axis=-3),
}


def _pair_from_draws(rng, n, dom):
    """rand_ordered_pair as a check runs it: its h2 mapped from hermitian_draw,
    then its step down mapped from pair_draw."""
    h2 = rand_hermitian(hermitian_draw(rng, n), n, dom)
    return rand_ordered_pair(pair_draw(rng, n), n, dom, h2)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("n", SIZES)
def test_samplers_over_generators_stack_the_single_draws(name, n):
    sample = SAMPLERS[name]
    singles, stacked = _streams(n), _streams(n)
    expected = np.stack([sample(g, n) for g in singles])
    assert np.array_equal(sample(stacked, n), expected)
    # each stream is left where drawing alone leaves it
    assert [g.uniform() for g in stacked] == [g.uniform() for g in singles]


# --- drawn parts: a sampler maps what its *_draw drew exactly as it maps a generator

DRAW_DOMAINS = {
    "open": Interval(0.1, 10.0),
    "half-open": Interval(-2.0, 3.0, lo_closed=True),
    "long": Interval(-40.0, 25.0, True, True),         # sampled on a window of length 20
    "half-line": Interval(0.0, np.inf),
    "thin": Interval(1.0, 1.0 + 1e-7),                # nothing left once open ends shrink
}


@pytest.mark.parametrize("name", sorted(DRAW_DOMAINS))
@pytest.mark.parametrize("n", (2, 5, 8))
@pytest.mark.parametrize("streams", [lambda n: np.random.default_rng(n), _streams],
                         ids=["generator", "stack"])
def test_samplers_on_drawn_parts_equal_samplers_on_generators(name, n, streams):
    dom = DRAW_DOMAINS[name]
    if name == "thin":
        for sample in (lambda g: rand_hermitian(g, n, dom), lambda g: rand_ordered_pair(g, n, dom),
                       lambda g: rand_hermitian(hermitian_draw(g, n), n, dom),
                       lambda g: _pair_from_draws(g, n, dom)):
            with pytest.raises(EmptyDomain):
                sample(streams(n))
        return
    h = rand_hermitian(streams(n), n, dom)
    assert np.array_equal(rand_hermitian(hermitian_draw(streams(n), n), n, dom), h)
    pair = rand_ordered_pair(streams(n), n, dom)
    assert all(map(np.array_equal, _pair_from_draws(streams(n), n, dom), pair))
    eig = np.linalg.eigvalsh(np.stack(pair))
    window = dom.clip(20.0)
    assert window.lo <= eig.min() and eig.max() <= window.hi
