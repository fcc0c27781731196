"""Low-rank linear algebra helpers used by the filters.

Everything here works on plain float64 ndarrays and avoids forming any
P x P matrix. :func:`woodbury_mean` is the one mean solve of every
low-rank update but the spherical SVD one, whose mean is read off its
:func:`thin_svd`, and of inflation, and :func:`sym_pinv` the one
pseudo-inverse of the gain-form filters. The deterministic sign and tie
conventions make filter trajectories reproducible run to run.

Every runtime decomposition is :func:`eigh`, :func:`inv`, :func:`cholesky`
or :func:`solve`: the gufunc of the private ``numpy.linalg._umath_linalg``
that ``np.linalg`` calls, under its ``np.errstate``, so the same bits
without ``np.linalg``'s per-call plumbing, which costs more than LAPACK at
K x K. Checked on numpy 2.4.6 (the 1.24 floor could not be installed
offline); the guard is each entry's bit-for-bit test in test_linalg.py.

P x K factors are kept column-contiguous (Fortran order): :func:`thin_svd`
returns U that way, and the row scalings and products of the callers
then stream whole columns. Inputs may have any layout.
"""

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import NumericalDegeneracyError

# Singular values below RANK_EPS * sigma_max are treated as exact zeros and
# their singular vectors are replaced by zero columns.
RANK_EPS = 1e-12

# woodbury_mean takes its whitened form, which allocates no P x L array, from
# this many factor entries (1 MiB of float64) on. On one core, at L = 11 and
# 30, it took 1.2-1.6x the time of the M = d^-1 W form for P from 151 to
# 4,000 (except 0.9x at L = 30, P = 4,000), and 0.97-1.02x at P = 12,010.
WHITENED_MIN_SIZE = 1 << 17
# Rows of R = d^-1/2 W formed at a time by the whitened form (240 KB at L = 30).
WHITENED_BLOCK = 1024


def fix_column_signs(u):
    """Flip column signs so the first nonzero entry of each column is > 0."""
    u = np.array(u, copy=True)
    if u.size == 0:
        return u
    first = np.argmax(u != 0, axis=0)  # row 0 for an all-zero column
    lead = u[first, np.arange(u.shape[1])]
    u[:, lead < 0] *= -1.0
    return u


def _lapack(gufunc, signature, reason, what, *args):
    """``gufunc(*args)`` under the error state of numpy's own wrappers; a
    LAPACK failure raises NumericalDegeneracyError ``<what> failed: <reason>``."""

    def fail(err, flag):
        raise NumericalDegeneracyError(f"{what} failed: {reason}")

    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gufunc(*args, signature=signature)


def eigh(a, what):
    """``np.linalg.eigh(a)``: LAPACK ``dsyevd`` on the lower triangle."""
    return _lapack(_umath_linalg.eigh_lo, "d->dd", "Eigenvalues did not converge", what, a)


def inv(a, what):
    """``np.linalg.inv(a)``."""
    return _lapack(_umath_linalg.inv, "d->d", "Singular matrix", what, a)


def cholesky(a, what):
    """``np.linalg.cholesky(a)``, the lower factor."""
    return _lapack(_umath_linalg.cholesky_lo, "d->d", "Matrix is not positive definite", what, a)


def solve(a, b, what):
    """``np.linalg.solve(a, b)``: one right-hand side when ``b`` is 1-D."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return _lapack(gufunc, "dd->d", "Singular matrix", what, a, b)


def sym_pinv(a):
    """Pseudo-inverse of a symmetric matrix, ``V diag(1/lam) V^T`` over the
    eigenvalues with ``|lam| > 1e-15 * max|lam|`` (numpy's ``pinv`` cutoff).

    It covers the singular moment-matched innovation covariance of a
    categorical likelihood. The eigenpairs come from :func:`eigh`, whose
    ``dsyevd`` resolves the null direction of a singular ``a`` to
    below the cutoff. A finite 1 x 1 ``a``, the S of every C = 1 update,
    skips ``eigh``: its result is ``[[1 / a]]`` (``[[0.0]]`` for a zero),
    bit for bit what the eigenpairs and ``np.linalg.pinv(a, hermitian=True)``
    give. A non-finite ``a`` or a failed call raises NumericalDegeneracyError.
    """
    if a.shape == (1, 1) and abs(v := float(a[0, 0])) < np.inf:
        return np.array([[1.0 / v if v else 0.0]])
    if not np.isfinite(a).all():
        raise NumericalDegeneracyError("sym_pinv: non-finite matrix")
    vals, vecs = eigh(a, "sym_pinv: eigh of the matrix")
    mag = np.abs(vals)
    inv = np.zeros_like(vals)
    live = mag > 1e-15 * mag.max()
    inv[live] = 1.0 / vals[live]
    return (vecs * inv) @ vecs.T


def thin_svd(w):
    """Left singular vectors and singular values of a tall matrix.

    Parameters
    ----------
    w : ndarray, shape (P, K)

    Returns
    -------
    s : ndarray, shape (K,)
        Singular values, sorted non-increasing. Values below
        ``RANK_EPS * s.max()`` are zeroed.
    u : ndarray, shape (P, K), Fortran order
        Matching left singular vectors; columns paired with zeroed
        singular values are zero columns. Nonzero columns carry a
        deterministic sign (first nonzero entry positive). Ties in the
        singular values keep a stable order.

    Notes
    -----
    When P > K the decomposition goes through the K x K Gram matrix
    ``w.T w`` so the cost is O(P K^2 + K^3) rather than O(P^2 K). Its
    eigendecomposition is one :func:`eigh` call (LAPACK ``dsyevd``); its
    ascending values, clamped at 0, are put in stable descending order by
    reversal when they are distinct and by an argsort when some tie. With
    ``w.T w = V diag(s^2) V^T``, U is formed by one matrix product ``w @ F``, ``F = V[:, live] / s[live]`` (no division
    by a dead value), written column-contiguous whatever the layout of
    ``w``. The sign rule is folded into the K x K factor F: a column of F
    is negated when the matching entry of row 0 of U, ``w[0] @ F``, is
    negative. Only when some live column still has ``u[0, j] <= 0`` afterwards (a zero leading entry, or a
    rounding disagreement between the row and the full product) does U go
    through :func:`fix_column_signs`.

    A NaN or inf in ``w`` raises NumericalDegeneracyError on either route.
    """
    w = np.asarray(w, dtype=float)
    p, k = w.shape
    if k == 0:
        return np.zeros(0), np.zeros((p, 0))
    if p > k:
        gram = w.T @ w
        if not np.isfinite(gram).all():
            raise NumericalDegeneracyError("thin_svd: non-finite Gram matrix")
        vals, vecs = eigh(gram, "thin_svd: eigh of the Gram matrix")
        vals = np.maximum(vals, 0.0)
        distinct = (vals[1:] > vals[:-1]).all()  # then the stable sort is the reversal
        order = slice(None, None, -1) if distinct else np.argsort(-vals, kind="stable")
        s, vecs = np.sqrt(vals[order]), vecs[:, order]
        live = np.count_nonzero(s > RANK_EPS * s[0])  # s is sorted: a prefix
        if live == k:
            factor = vecs / s
        else:
            s[live:] = 0.0
            factor = np.zeros((k, k))
            factor[:, :live] = vecs[:, :live] / s[:live]
        flip = w[0] @ factor < 0
        if flip.any():
            factor[:, flip] *= -1.0
        u = np.matmul(w, factor, out=np.empty((p, k), order="F"))
        if (u[0, :live] > 0).all():
            return s, u
    else:
        if not np.isfinite(w).all():
            raise NumericalDegeneracyError("thin_svd: non-finite input")
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        order = np.argsort(-s, kind="stable")
        s = s[order]
        u = u[:, order]
        smax = s[0] if s.size else 0.0
        dead = s <= RANK_EPS * smax
        s[dead] = 0.0
        u[:, dead] = 0.0
        if p < k:
            # pad so callers always see K columns
            s = np.concatenate([s, np.zeros(k - p)])
            u = np.hstack([u, np.zeros((p, k - p))])
    return s, fix_column_signs(np.asfortranarray(u))


def woodbury_mean(mean, diag, w, rhs):
    """``mean + (diag(d) + W W^T)^-1 rhs`` in O(P L^2), no P x P matrix.

    ``diag`` is a P-vector or the spherical scalar ``eta``, and every
    entry must be > 0; W is P x L, L >= 0. Two forms give the same result
    up to rounding, and the size of W picks one:

    * below :data:`WHITENED_MIN_SIZE` entries, with ``M = d^-1 W``:
      ``mean + d^-1 rhs - M (I + W^T M)^-1 M^T rhs``;
    * from there on the whitened form, with ``R = d^-1/2 W`` and
      ``b = d^-1 rhs``: ``mean + b - d^-1 W (I + R^T R)^-1 W^T b``. The
      core is the Gram of R, summed over blocks of :data:`WHITENED_BLOCK`
      rows (one ``syrk`` each), so R is never formed whole: the solve
      reads W three times and allocates no P x L array. The other two
      products by W act on vectors.

    A negative or NaN ``d`` (which would give the whitened form a NaN
    core rather than a singular one) and a failed core solve raise
    NumericalDegeneracyError. A non-finite W or ``rhs`` is left to the
    caller's checks.
    """
    d_inv = 1.0 / np.asarray(diag, dtype=float)
    if not (d_inv > 0.0).all():  # False on NaN as well
        raise NumericalDegeneracyError("Woodbury core solve failed: d^-1 has an entry <= 0 or NaN")
    if w.size < WHITENED_MIN_SIZE:
        m = d_inv[..., None] * w
        core = w.T @ m
        core.flat[:: w.shape[1] + 1] += 1.0  # I + W^T M, with no identity temporary
        coef = solve(core, m.T @ rhs, "Woodbury core solve")
        return mean + d_inv * rhs - m @ coef
    scale = np.sqrt(d_inv)
    core = np.eye(w.shape[1])
    for start in range(0, w.shape[0], WHITENED_BLOCK):
        rows = slice(start, start + WHITENED_BLOCK)
        r = (scale[rows, None] if scale.ndim else scale) * w[rows]
        core += r.T @ r
    b = d_inv * rhs
    coef = solve(core, w.T @ b, "Woodbury core solve")
    return mean + b - d_inv * (w @ coef)


def symmetrize(a):
    return 0.5 * (a + a.T)
