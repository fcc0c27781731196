"""Gaussian belief representations over model parameters.

Three parameterizations of ``N(mean, precision^-1)``, and one of ``N(mean, cov)``:

* :class:`DlrBelief` stores the precision as ``diag(d) + W W^T`` with a
  P-vector ``d`` and a P x L factor ``W``. Memory is O(P L).
* :class:`SphericalBelief` restricts the diagonal part to ``eta * I`` and
  keeps the factor in factored form ``U diag(lam)``, the columns of ``U``
  with ``lam > 0`` orthonormal.
* :class:`DenseBelief` stores the full P x P precision, as the small-P
  oracle :func:`dlr_to_dense` returns it. :class:`DenseCovBelief` stores
  the full P x P covariance: the state of the full-covariance EKF baselines.

Beliefs are immutable snapshots: every filter operation returns a new
instance, so they are safe to share between threads.

Construction validates. A DLR belief checks its shapes and a finite,
positive diagonal (one min, one max). A spherical belief checks ``eta``,
finite singular values >= 0 sorted non-increasing, and orthonormal live
columns (those with a singular value > 0, a prefix) by their Gram; a dead
column adds nothing to the precision and is not checked. Only
:meth:`SphericalBelief.on_same_basis`, used by the spherical drift and
inflation, skips that Gram; the updates, :func:`lrkf.spherical.truncate`,
:func:`load_belief` and a caller's belief run it. Both then check that the
mean is finite, by one sum, so a non-finite mean fails the step that made
it.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalDegeneracyError
from .linalg import cholesky, solve, thin_svd

# Largest P for which dense P x P reconstructions are allowed: the dense
# conversions and the dense sampling oracle. No production path uses them.
DENSE_ORACLE_LIMIT = 200

_min, _max, _all, _sum = np.minimum.reduce, np.maximum.reduce, np.logical_and.reduce, np.add.reduce


def _check_mean(mean):
    """One sum: every NaN and infinity makes it non-finite (so does a sum
    past the float range, which no usable mean reaches)."""
    if not math.isfinite(_sum(mean)):
        raise ValueError("mean entries must be finite")


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

    Any layout of ``low_rank`` is accepted. The filters of
    :mod:`lrkf.diagonal` keep it column-contiguous (Fortran order), so the
    per-row scalings and P x L products of a step stream whole columns.
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
        if diag.size and not (_min(diag) > 0.0 and _max(diag) < math.inf):  # a NaN min fails
            raise ValueError("diag_precision entries must be finite and > 0")
        _check_mean(mean)
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

    ``singular_values`` is sorted non-increasing with all entries finite
    and >= 0, so the live columns of ``basis`` (``lam > 0``) are a prefix,
    and those are orthonormal. A dead column (``lam = 0``) adds nothing to
    the precision and may hold anything; the initial belief and the SVD
    truncation leave it zero.
    """

    mean: np.ndarray
    eta: float
    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self, check_basis=True):
        mean = np.asarray(self.mean, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        lam = np.asarray(self.singular_values, dtype=float)
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and > 0")
        if basis.ndim != 2 or basis.shape[0] != mean.shape[0]:
            raise ValueError("basis must be P x L")
        if lam.shape != (basis.shape[1],):
            raise ValueError("singular_values length must match basis columns")
        # one comparison each: every NaN and every infinity fails one of them
        if lam.size and not (lam[-1] >= 0.0 and lam[0] < math.inf and _all(lam[:-1] >= lam[1:])):
            raise ValueError("singular_values must be finite, >= 0 and non-increasing")
        if check_basis and (live := np.count_nonzero(lam)):  # a prefix: lam is sorted, >= 0
            u = basis[:, :live]
            gram = u.T @ u
            gram.flat[:: live + 1] -= 1.0
            if np.abs(gram).max() > 1e-8:
                raise ValueError("basis columns are not orthonormal")
        _check_mean(mean)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "singular_values", lam)

    def on_same_basis(self, mean, eta, singular_values):
        """A belief around this belief's very basis array with a new mean,
        ``eta`` and singular values. Every check but the basis Gram runs:
        the basis passed it when this belief was built."""
        new = object.__new__(SphericalBelief)
        for name, value in (("mean", mean), ("eta", eta), ("basis", self.basis),
                            ("singular_values", singular_values)):
            object.__setattr__(new, name, value)
        new.__post_init__(check_basis=False)
        return new

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]


def validated(what, build, *args):
    """``build(*args)`` inside a filter step: a belief that fails its
    validation raises NumericalDegeneracyError naming the step ``what``,
    so the run records a failed seed instead of ending."""
    try:
        return build(*args)
    except ValueError as exc:
        raise NumericalDegeneracyError(f"{what}: {exc}") from exc


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
        if np.abs(prec - prec.T).max() > 1e-10:
            raise ValueError("precision is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)


@dataclass(frozen=True)
class DenseCovBelief:
    """Gaussian with an explicit symmetric positive-definite covariance ``cov``."""

    mean: np.ndarray
    cov: np.ndarray


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
        chol = cholesky(dlr_to_dense(belief).precision, "Cholesky of belief precision")
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
        coef = solve(core, (rng.standard_normal((n, rank)) - v @ m).T, "sampler core solve")
        if not np.isfinite(coef).all():
            raise NumericalDegeneracyError("sampler core solve failed: non-finite solution")
        v += coef.T @ m.T
    v *= d_isqrt
    v += mean
    return v


# ---------------------------------------------------------------------------
# Checkpointing
#
# A belief is stored as a single flat float64 record:
#   [kind, P, L, mean (P), diag (P), factor (P*L, row-major, whatever the
#    layout in memory)]
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
    """Read a belief written by :func:`save_belief`; a DLR factor comes
    back column-contiguous. A record that is not one whole belief (wrong
    length, unknown kind, non-integral sizes) raises a ValueError naming
    ``path``."""
    rec = np.fromfile(path, dtype=np.float64)
    if rec.size < 3:
        raise ValueError(f"{path}: not a belief record (no [kind, P, L] header)")
    if rec[0] not in (0.0, 1.0):
        raise ValueError(f"{path}: belief kind {rec[0]:g} is neither 0 (DLR) nor 1 (spherical)")
    sizes = rec[1:3]
    if not (np.isfinite(sizes).all() and (sizes >= 0).all() and (sizes == np.floor(sizes)).all()):
        raise ValueError(f"{path}: sizes P={sizes[0]:g}, L={sizes[1]:g} are not whole numbers")
    kind, p, rank = int(rec[0]), int(sizes[0]), int(sizes[1])
    nbytes = os.path.getsize(path)
    if rec.size != 3 + 2 * p + p * rank or nbytes % rec.itemsize:
        raise ValueError(
            f"{path}: {nbytes} bytes do not hold the "
            f"3 + 2P + P*L = {3 + 2 * p + p * rank} float64 values of P={p}, L={rank}"
        )
    mean = rec[3 : 3 + p]
    diag = rec[3 + p : 3 + 2 * p]
    w = rec[3 + 2 * p :].reshape(p, rank)
    if kind == 0:
        return DlrBelief(mean, diag, np.asfortranarray(w))
    from .spherical import truncate  # deferred: avoids import cycle

    return truncate(mean, diag[0], *thin_svd(w), rank, "load_belief")
