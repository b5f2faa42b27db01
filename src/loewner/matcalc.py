"""Hermitian matrix utilities for the operator-order tests.

Everything works on complex ndarrays.  A matrix is symmetrized (Hermitian
part) once, where arithmetic that is not exactly Hermitian makes it: samplers,
``apply_spectrum``, inputs of ``apply_fn``, ``psd_min_eig`` and ``projection_basis``,
the checks' V*mV and VmV*.  ``spectrum``, ``min_eig_floor`` and ``clears_floor``
take it as it is.  Random objects draw from an explicit
``numpy.random.Generator`` — nothing here touches global state.  Samplers also
map what their ``*_draw`` drew from generators (domain-free arrays) onto a domain.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyDomain, NonFiniteValue, SingularBlock, SpectrumOutsideDomain
from .interval import Interval

__all__ = [
    "sym", "spectrum", "apply_spectrum", "apply_fn", "psd_min_eig", "min_eig_floor",
    "clears_floor", "sample_window", "inset_window", "projection_basis", "complement_basis",
    "compress", "embed",
    "schur_complement", "isometry_draw", "haar_unitary", "hermitian_draw", "rand_hermitian",
    "pair_draw", "rand_ordered_pair", "matrix_to_json", "matrix_from_json",
]

ENDPOINT_SNAP = 1e-12
EDGE_SHRINK = 1e-6
CLIP_LEN = 20.0  # length of the window sampled on long domains


def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def sym(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*)/2 of a matrix or of each in a (..., n, n) stack."""
    half = 0.5 * np.asarray(m, dtype=complex)  # halve first: m + m* overflows near 1e308
    half += _adj(half)
    return half


def _finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """m, checked for a NaN or inf entry (NonFiniteValue) before anything decomposes it."""
    if not np.isfinite(m).all():
        raise NonFiniteValue(f"{what} has a non-finite entry")
    return m


def _eig(solve, m: np.ndarray):
    """solve(m) for eigh or eigvalsh of a Hermitian m, as complex; NonFiniteValue,
    not LinAlgError, on a NaN or inf m."""
    try:
        return solve(np.asarray(m, dtype=complex))
    except np.linalg.LinAlgError:
        _finite(m)
        raise


def psd_min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.min(np.linalg.eigvalsh(sym(_finite(m)))))


def min_eig_floor(m: np.ndarray, scale, tol: float = 1e-9) -> tuple:
    """(smallest eigenvalue of the Hermitian matrix m, -tol * scale): the matrix
    counts as PSD when the first is not below the second.  ``scale`` is the
    size of the operands m was computed from, since rounding in a difference
    grows with its operands, not with the difference (Weyl's inequality).
    Over a (..., n, n) stack, both are arrays with one entry per matrix."""
    return _eig(np.linalg.eigvalsh, m).min(-1), -tol * scale


def clears_floor(m: np.ndarray, scale, tol: float) -> bool:
    """True when np.linalg.cholesky(m + sI), s = tol * scale / 2, shows that no
    matrix of the finite Hermitian (k, n, n) stack m has min_eig_floor below its
    floor; False when it fails, and without trying it unless every matrix has
    s > 4 (n+1)^2 u (||m||_inf + s), u = 2^-53 (so never at tol = 0).

    A Cholesky factorization that runs to completion on a = m + sI is exact for
    some a + e with ||e||_2 <= n gamma_(n+1) ||a + e||_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, Thm 10.3), about (n+1)^2 u ||a||_2,
    so lambda_min(m) >= -s - (n+1)^2 u (||m||_inf + s); backward stable eigvalsh
    errs by a like bound.  Twice each, for complex arithmetic, is below s where
    the screen runs, so eigvalsh's smallest eigenvalue is at least -2s = -tol * scale."""
    s = np.asarray(tol * scale / 2, dtype=float)
    n = m.shape[-1]
    if not np.all(s > 4 * (n + 1) ** 2 * 2.0 ** -53 * (np.abs(m).sum(-1).max(-1) + s)):
        return False
    try:
        np.linalg.cholesky(m + s[..., None, None] * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def spectrum(h: np.ndarray, dom: Interval) -> tuple:
    """(w, v) with h = v diag(w) v*, of a Hermitian matrix or each of a (..., n, n) stack.
    Eigenvalues that overshoot a closed endpoint of dom by at most 1e-12
    (relative) snap onto it; any other outside dom raises SpectrumOutsideDomain,
    and a NaN or inf one NonFiniteValue."""
    w, v = _eig(np.linalg.eigh, h)
    ok = dom.mask(w, snap=ENDPOINT_SNAP)
    if not np.all(ok):
        _finite(w, "spectrum")
        raise SpectrumOutsideDomain(float(w[~ok][0]), dom)
    return w.clip(dom.lo, dom.hi), v


def apply_spectrum(fn, eig: tuple) -> np.ndarray:
    """f(h) from eig = spectrum(h, dom) on a dom that f shares."""
    w, v = eig
    vals = np.asarray(fn._val(w), dtype=float)  # spectrum has checked and clipped w
    return sym((v * vals[..., None, :]) @ _adj(v))


def apply_fn(fn, h: np.ndarray) -> np.ndarray:
    """f(h) by spectral calculus, of a matrix or each of a (..., n, n) stack."""
    return apply_spectrum(fn, spectrum(sym(_finite(h)), fn.domain))


# --- projections and blocks -----------------------------------------------------

def projection_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning range(p) for an orthogonal projection p.  For
    Hermitian p, ||p^2 - p|| = max |w^2 - w| and ||p|| = max |w| over its eigenvalues w."""
    w, v = _eig(np.linalg.eigh, sym(p))
    if not np.max(np.abs(w * w - w)) <= 1e-8 * (1.0 + np.max(np.abs(w))):
        raise ValueError("matrix is not an orthogonal projection")
    cols = v[:, w > 0.5]
    if cols.shape[1] == 0:
        raise ValueError("zero projection has no range basis")
    return cols


def complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span.  Kept for
    test_acceptance.py::test_02_schur_complement_psd_equivalence_and_inverse_corner."""
    n, k = basis.shape
    if k >= n:
        raise ValueError("no complement: basis already spans")
    q, _ = np.linalg.qr(np.asarray(basis, dtype=complex), mode="complete")
    # project out the span to be safe against qr column-order surprises
    proj = basis @ basis.conj().T
    resid = q[:, k:] - proj @ q[:, k:]
    q2, _ = np.linalg.qr(resid)
    return q2


def compress(m: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Corner block V* m V of m (or of each of a stack) in the basis V."""
    return _adj(basis) @ np.asarray(m, dtype=complex) @ basis


def embed(small: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """V small V*: place a corner block back into the big space."""
    return basis @ np.asarray(small, dtype=complex) @ _adj(basis)


def schur_complement(k: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """a - b c^{-1} b* for the blocks of k split along basis/complement.

    Raises SingularBlock when the complement block c is numerically singular
    (an eigenvalue below 1e-12 * (1 + ||c||) in size).  Kept for the paper's
    block-matrix lemma: nothing in the package calls it, but the lemma's test
    test_acceptance.py::test_02_schur_complement_psd_equivalence_and_inverse_corner does."""
    k = sym(k)
    comp = complement_basis(basis)
    a = compress(k, basis)
    b = basis.conj().T @ k @ comp
    c = compress(k, comp)
    ce = np.linalg.eigvalsh(sym(c))
    if np.min(np.abs(ce)) < 1e-12 * (1.0 + np.max(np.abs(ce))):
        raise SingularBlock("complement block is numerically singular")
    return sym(a - b @ np.linalg.solve(c, b.conj().T))


# --- random objects ---------------------------------------------------------------

def _each(rng, draw):
    """draw(rng), or the stack of draw(g) over a sequence of generators, each
    drawing what it would draw alone, so every sampler takes either."""
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.array([draw(g) for g in rng])


def _haar(rng, n: int, head) -> tuple:
    """(head's draws, u) per stream: head(g), then a Haar unitary u by QR, phase fixed."""
    d = _each(rng, lambda g: np.concatenate([head(g), g.standard_normal(2 * n * n)]))
    z = d[..., -2 * n * n:].reshape(d.shape[:-1] + (2, n, n))
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return d[..., :-2 * n * n].copy(), q * (ph / np.abs(ph))[..., None, :]


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed unitary u."""
    return _haar(rng, n, lambda g: [])[1]


def isometry_draw(rng, n: int) -> tuple:
    """(r, u) per stream, a rank r in 1..n-1, then a Haar unitary u: u[:, :r] is an isometry."""
    r, u = _haar(rng, n, lambda g: [g.integers(1, n)])
    return r[..., 0].astype(int), u


def sample_window(domain: Interval) -> Interval:
    """The bounded window of the domain that every check and sample grid draws from."""
    return domain.clip(CLIP_LEN)


def inset_window(domain: Interval) -> tuple:
    """(lo, hi) of the sample window moved 1% of its width inward: Loewner nodes, CLI grids."""
    win = sample_window(domain)
    return win.lo + 0.01 * (win.hi - win.lo), win.hi - 0.01 * (win.hi - win.lo)


def _spectrum_window(domain: Interval) -> tuple:
    win = sample_window(domain)
    lo, hi = win.lo, win.hi
    if not win.lo_closed:
        lo = lo + EDGE_SHRINK * (1.0 + abs(lo))
    if not win.hi_closed:
        hi = hi - EDGE_SHRINK * (1.0 + abs(hi))
    if not lo < hi:
        raise EmptyDomain(f"domain {domain} too thin to sample a spectrum")
    return lo, hi


def hermitian_draw(rng, n: int) -> tuple:
    """rand_hermitian's draw (x, u) per stream: n unit uniforms, then a Haar unitary."""
    return _haar(rng, n, lambda g: g.random(n))


def rand_hermitian(rng, n: int, domain: Interval) -> np.ndarray:
    """Random Hermitian matrix with spectrum drawn uniformly from a bounded
    window of the domain (open endpoints shrunk by 1e-6 relative)."""
    lo, hi = _spectrum_window(domain)
    x, u = rng if isinstance(rng, tuple) else hermitian_draw(rng, n)
    # lo + (hi - lo) x is bitwise g.uniform(lo, hi) of the same stream
    return sym((u * (lo + (hi - lo) * x)[..., None, :]) @ _adj(u))


def pair_draw(rng, n: int) -> tuple:
    """rand_ordered_pair's draw (v, w) after h2 per stream: a unit vector, a unit uniform."""
    def draw(g):
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        return np.append(v / np.linalg.norm(v), g.uniform(0.0, 1.0))

    d = _each(rng, draw)
    return d[..., :n].copy(), d[..., n].real.copy()


def rand_ordered_pair(rng, n: int, domain: Interval, h2: np.ndarray = None) -> tuple:
    """(h1, h2) with h1 <= h2 and both spectra inside the domain.

    h2 is rand_hermitian's draw, or the one given (pair_draw's parts need it);
    h1 = h2 - w * vv*, the weight w capped at lambda_min(h2) minus the window
    floor, which keeps h1's spectrum inside (no rejection loop needed).
    """
    lo, hi = _spectrum_window(domain)
    h2 = rand_hermitian(rng, n, domain) if h2 is None else h2
    head = np.maximum(np.linalg.eigvalsh(h2).min(-1) - lo, 0.0)  # roundoff can put it below 0
    v, w = rng if isinstance(rng, tuple) else pair_draw(rng, n)
    return sym(h2 - (w * head)[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])), h2


# --- JSON ------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(rows: list) -> np.ndarray:
    """The inverse of matrix_to_json: n rows of n JSON [re, im] pairs of numbers."""
    m = np.array(rows, dtype=object)
    if m.ndim != 3 or m.shape[1:] != (len(m), 2) or not {type(c) for c in m.flat} <= {int, float}:
        raise TypeError(f"{rows!r} is not a square matrix of JSON [re, im] pairs")
    return m.astype(float).view(complex)[..., 0]
