"""Low-rank linear algebra helpers used by the filters.

Everything here works on plain float64 ndarrays and avoids forming any
P x P matrix. :func:`woodbury_mean` is the one mean solve of every
low-rank update and of inflation, and :func:`sym_pinv` the one
pseudo-inverse of the gain-form filters. The deterministic sign and tie
conventions make filter trajectories reproducible run to run.

P x K factors are kept column-contiguous (Fortran order): :func:`thin_svd`
returns U that way, and the row scalings, stacks and products of the
callers then stream whole columns. Inputs may have any layout.
"""

from functools import cache

import numpy as np
from scipy.linalg.lapack import dsyevd, dsyevr, dsyevr_lwork

from .exceptions import NumericalDegeneracyError

# Singular values below RANK_EPS * sigma_max are treated as exact zeros and
# their singular vectors are replaced by zero columns.
RANK_EPS = 1e-12


def fix_column_signs(u):
    """Flip column signs so the first nonzero entry of each column is > 0."""
    u = np.array(u, copy=True)
    if u.size == 0:
        return u
    first = np.argmax(u != 0, axis=0)  # row 0 for an all-zero column
    lead = u[first, np.arange(u.shape[1])]
    u[:, lead < 0] *= -1.0
    return u


@cache
def _syevr_work(k):
    """dsyevr workspace sizes (lwork, liwork) for order k, as
    scipy.linalg.eigh computes them."""
    lwork, liwork, _ = dsyevr_lwork(k, lower=1)
    return int(lwork), int(liwork)


def _gram_eigh(gram):
    """Ascending eigenvalues and eigenvectors of a symmetric Gram matrix.

    One direct LAPACK ``dsyevr`` call with the arguments and workspace
    that ``scipy.linalg.eigh`` passes, so the result is bit-identical to
    ``eigh(gram)`` without its per-call checks and workspace query. A
    non-finite input or a failed call raises NumericalDegeneracyError.
    """
    if not np.isfinite(gram).all():
        raise NumericalDegeneracyError("thin_svd: non-finite Gram matrix")
    lwork, liwork = _syevr_work(gram.shape[0])
    vals, vecs, _, _, info = dsyevr(
        gram, compute_v=1, range="A", lower=1, lwork=lwork, liwork=liwork
    )
    if info:
        raise NumericalDegeneracyError(f"thin_svd: dsyevr failed with info={info}")
    return vals, vecs


def sym_pinv(a):
    """Pseudo-inverse of a symmetric matrix, ``V diag(1/lam) V^T`` over the
    eigenvalues with ``|lam| > 1e-15 * max|lam|`` (numpy's ``pinv`` cutoff).

    It covers the singular moment-matched innovation covariance of a
    categorical likelihood. Only the lower triangle of ``a`` is read, by
    one direct LAPACK ``dsyevd`` call: the driver of ``np.linalg.eigh``,
    whose eigenvalues it matches bit for bit. (``dsyevr``, the driver of
    :func:`_gram_eigh`, resolves the null direction of a singular ``a``
    only to about ``2e-15 * max|lam|``, above the cutoff, and would invert
    that noise.) For a 1 x 1 ``a`` the result is exactly ``1 / a``, as
    from ``np.linalg.pinv(a, hermitian=True)``, at about a quarter of its
    cost.
    A non-finite ``a`` or a failed call raises NumericalDegeneracyError.
    """
    if not np.isfinite(a).all():
        raise NumericalDegeneracyError("sym_pinv: non-finite matrix")
    vals, vecs, info = dsyevd(a, compute_v=1, lower=1)
    if info:
        raise NumericalDegeneracyError(f"sym_pinv: dsyevd failed with info={info}")
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
    eigendecomposition is one direct LAPACK ``dsyevr`` call, bit-identical
    to ``scipy.linalg.eigh`` at a fraction of the call overhead. With
    ``w.T w = V diag(s^2) V^T``, U is formed by one matrix product
    ``w @ F``, ``F = V[:, live] / s[live]``, written column-contiguous
    whatever the layout of ``w``. The sign rule is folded into
    the K x K factor F: a column of F is negated when the matching entry
    of row 0 of U, ``w[0] @ F``, is negative. Only when some live column
    still has ``u[0, j] <= 0`` afterwards (a zero leading entry, or a
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
        vals, vecs = _gram_eigh(gram)
        vals = np.maximum(vals, 0.0)
        order = np.argsort(-vals, kind="stable")
        s = np.sqrt(vals[order])
        live = np.count_nonzero(s > RANK_EPS * s[0])  # s is sorted: a prefix
        s[live:] = 0.0
        factor = np.zeros((k, k))
        factor[:, :live] = vecs[:, order[:live]] / s[:live]
        factor[:, w[0] @ factor < 0] *= -1.0
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

    ``diag`` is a P-vector or the spherical scalar ``eta``; W is P x L, L >= 0.
    With ``M = d^-1 W`` this is ``mean + d^-1 rhs - M (I + W^T M)^-1 M^T rhs``.
    A failed L x L core solve raises NumericalDegeneracyError.
    """
    d_inv = 1.0 / np.asarray(diag, dtype=float)
    m = d_inv[..., None] * w
    core = np.eye(w.shape[1]) + w.T @ m
    try:
        coef = np.linalg.solve(core, m.T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"Woodbury core solve failed: {exc}") from exc
    return mean + d_inv * rhs - m @ coef


def chol_or_raise(a, what="matrix"):
    """Cholesky factor (lower) of ``a``, raising NumericalDegeneracyError."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"Cholesky of {what} failed: {exc}") from exc


def symmetrize(a):
    return 0.5 * (a + a.T)
