"""Gaussian belief representations over model parameters.

Three parameterizations of ``N(mean, precision^-1)``:

* :class:`DlrBelief` stores the precision as ``diag(d) + W W^T`` with a
  P-vector ``d`` and a P x L factor ``W``. Memory is O(P L).
* :class:`SphericalBelief` restricts the diagonal part to ``eta * I`` and
  keeps the factor in factored form ``U diag(lam)`` with orthonormal ``U``.
* :class:`DenseBelief` stores the full P x P precision. It exists as a
  small-P reference for tests and for the full-covariance baseline.

Beliefs are immutable snapshots: every filter operation returns a new
instance, so they are safe to share between threads.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalDegeneracyError
from .linalg import chol_or_raise

# Largest P for which dense P x P reconstructions are allowed: the dense
# conversions and the dense sampling oracle. No production path uses them.
DENSE_ORACLE_LIMIT = 200


@dataclass(frozen=True)
class DlrBelief:
    """Gaussian with diagonal-plus-low-rank precision.

    Attributes
    ----------
    mean : ndarray, shape (P,)
    diag_precision : ndarray, shape (P,)
        Strictly positive diagonal part of the precision.
    low_rank : ndarray, shape (P, L)
        Low-rank factor; the implied precision is
        ``diag(diag_precision) + low_rank @ low_rank.T``. L may be 0.
    """

    mean: np.ndarray
    diag_precision: np.ndarray
    low_rank: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        diag = np.asarray(self.diag_precision, dtype=float)
        low = np.asarray(self.low_rank, dtype=float)
        if low.ndim != 2:
            raise ValueError("low_rank must be a P x L matrix")
        if mean.shape != diag.shape or mean.ndim != 1:
            raise ValueError("mean and diag_precision must be equal-length vectors")
        if low.shape[0] != mean.shape[0]:
            raise ValueError(
                f"low_rank has {low.shape[0]} rows but the mean has length {mean.shape[0]}"
            )
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise ValueError("diag_precision entries must be finite and > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "diag_precision", diag)
        object.__setattr__(self, "low_rank", low)

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def rank(self):
        return self.low_rank.shape[1]


@dataclass(frozen=True)
class SphericalBelief:
    """Gaussian with precision ``eta * I + U diag(lam)^2 U^T``.

    ``basis`` has orthonormal columns and ``singular_values`` is sorted
    non-increasing with all entries >= 0.
    """

    mean: np.ndarray
    eta: float
    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        lam = np.asarray(self.singular_values, dtype=float)
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and > 0")
        if basis.ndim != 2 or basis.shape[0] != mean.shape[0]:
            raise ValueError("basis must be P x L")
        if lam.shape != (basis.shape[1],):
            raise ValueError("singular_values length must match basis columns")
        if np.any(lam < 0) or np.any(lam[:-1] < lam[1:]):
            raise ValueError("singular_values must be >= 0 and non-increasing")
        if basis.shape[1]:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-8:
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "singular_values", lam)

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]


@dataclass(frozen=True)
class DenseBelief:
    """Gaussian with an explicit symmetric positive-definite precision."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        prec = np.asarray(self.precision, dtype=float)
        if prec.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError("precision must be P x P")
        if np.max(np.abs(prec - prec.T)) > 1e-10:
            raise ValueError("precision is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)

    @property
    def dim(self):
        return self.mean.shape[0]


def _dlr_parts(belief):
    """(mean, diag, factor) view of a DLR or spherical belief."""
    if isinstance(belief, SphericalBelief):
        diag = np.full(belief.dim, belief.eta)
        return belief.mean, diag, belief.basis * belief.singular_values
    return belief.mean, belief.diag_precision, belief.low_rank


def dlr_to_dense(belief, limit=DENSE_ORACLE_LIMIT):
    """Materialize the P x P precision ``diag(d) + W W^T`` of a DLR belief,
    or ``eta I + U diag(lam)^2 U^T`` of a spherical one."""
    mean, diag, w = _dlr_parts(belief)
    if mean.shape[0] > limit:
        raise ValueError(f"P={mean.shape[0]} exceeds the dense oracle limit {limit}")
    prec = np.diag(diag) + w @ w.T
    return DenseBelief(mean, 0.5 * (prec + prec.T))


spherical_to_dense = dlr_to_dense


def sample_parameters(belief, n, rng_seed, method="lowrank"):
    """Draw ``n`` i.i.d. parameter vectors from the belief, shape (n, P).

    The sampler perturbs and solves (Papandreou & Yuille, 2010). With
    ``M = D^-1/2 W`` the precision is ``D^1/2 (I + M M^T) D^1/2``. For
    ``z ~ N(0, I_P)`` and ``z' ~ N(0, I_L)``, ``u = z + M z'`` has covariance
    ``I + M M^T``, so ``v = (I + M M^T)^-1 u = z + M (I + M^T M)^-1 (z' - M^T z)``
    has its inverse and ``mean + D^-1/2 v`` is a draw. Only the L x L core
    is solved: O(n P L + P L^2) for every P, with no SVD and no P x P
    matrix. ``method="dense"`` factors the P x P precision instead; it is
    the test oracle, limited to P <= ``DENSE_ORACLE_LIMIT``.
    """
    mean, diag, w = _dlr_parts(belief)
    p, rank = w.shape
    rng = np.random.default_rng(rng_seed)
    v = rng.standard_normal((n, p))
    if method == "dense":
        chol = chol_or_raise(dlr_to_dense(belief).precision, "belief precision")
        return mean + np.linalg.solve(chol.T, v.T).T  # covariance (L L^T)^-1
    if method != "lowrank":
        raise ValueError(f"unknown sampling method {method!r}")
    if not diag.min() > 0:
        raise NumericalDegeneracyError("non-positive diagonal precision")
    d_isqrt = 1.0 / np.sqrt(diag)
    if rank:
        m = w * d_isqrt[:, None]
        core = m.T @ m
        core.flat[:: rank + 1] += 1.0
        try:
            coef = np.linalg.solve(core, (rng.standard_normal((n, rank)) - v @ m).T)
            if not np.isfinite(coef).all():
                raise np.linalg.LinAlgError("non-finite solution")
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(f"sampler core I + M^T M: {exc}") from exc
        v += coef.T @ m.T
    v *= d_isqrt
    v += mean
    return v


# ---------------------------------------------------------------------------
# Checkpointing
#
# A belief is stored as a single flat float64 record:
#   [kind, P, L, mean (P), diag (P), factor (P*L, row-major)]
# kind 0 = DLR (diag = diag_precision, factor = low_rank)
# kind 1 = spherical (diag[0] = eta, factor columns = basis * lam; the
#          basis and singular values are recovered by thin SVD)
# ---------------------------------------------------------------------------

def save_belief(path, belief):
    """Write a DLR or spherical belief as a flat float64 binary record."""
    mean, diag, w = _dlr_parts(belief)
    kind = 1.0 if isinstance(belief, SphericalBelief) else 0.0
    header = np.array([kind, float(mean.shape[0]), float(w.shape[1])])
    rec = np.concatenate([header, mean, diag, w.ravel(order="C")])
    rec.astype(np.float64).tofile(path)


def load_belief(path):
    """Read a belief written by :func:`save_belief`."""
    rec = np.fromfile(path, dtype=np.float64)
    kind, p, rank = int(rec[0]), int(rec[1]), int(rec[2])
    mean = rec[3 : 3 + p]
    diag = rec[3 + p : 3 + 2 * p]
    w = rec[3 + 2 * p :].reshape(p, rank)
    if kind == 0:
        return DlrBelief(mean, diag, w)
    from .spherical import truncate  # deferred: avoids import cycle

    return truncate(mean, diag[0], w, np.zeros((p, 0)), rank, "load_belief")
