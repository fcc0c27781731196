"""Reference filters and optimizers the low-rank filter is compared against.

* :func:`fcekf_step` is the full-covariance extended Kalman filter, exact
  up to linearization, O(P^3) per step. It doubles as the dense oracle in
  tests.
* :func:`fdekf_step` and :func:`vdekf_step` keep only a diagonal: VDEKF
  matches the diagonal of the posterior precision, FDEKF moment-matches
  the diagonal of the posterior covariance via the rank-C correction.
* :func:`sgd_replay_step` is stochastic gradient descent over a FIFO
  replay buffer (online gradient descent when the buffer holds one item),
  with plain SGD or Adam.
* :func:`iterated_ekf_update` and :func:`iterated_lowrank_update`
  relinearize the observation several times within one update, each mean
  move scaled by a grid line search on the quadratic energy
  ``0.5 * ||whitened residual||^2``.

Every update checks its innovation with ``Linearization.innovation``; the
iterated low-rank update steps by :func:`~lrkf.linalg.woodbury_mean` and
ends in :func:`~lrkf.spherical.truncate`. The FCEKF Cholesky solve and the
diagonal EKFs' pinv gain form stay separate as references for that core.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .belief import DenseBelief
from .exceptions import NumericalDegeneracyError
from .linalg import chol_or_raise, symmetrize, woodbury_mean
from .models import linearize, softmax
from .spherical import truncate


@dataclass(frozen=True)
class DiagonalBelief:
    """Gaussian with purely diagonal precision."""

    mean: np.ndarray
    diag_precision: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        diag = np.asarray(self.diag_precision, dtype=float)
        if mean.shape != diag.shape or mean.ndim != 1:
            raise ValueError("mean and diag_precision must be equal-length vectors")
        if (diag <= 0).any() or not np.isfinite(diag).all():
            raise ValueError("diag_precision entries must be finite and > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "diag_precision", diag)


# ---------------------------------------------------------------------------
# Full-covariance EKF
# ---------------------------------------------------------------------------

def dense_predict(belief, dyn):
    """Sigma' = gamma^2 Sigma + q I, carried on the stored precision."""
    g, q = dyn.gamma, dyn.process_noise
    mean = g * belief.mean
    if q == 0.0:
        return DenseBelief(mean, belief.precision / (g * g))
    cov = np.linalg.inv(belief.precision)
    prec = np.linalg.inv(symmetrize(g * g * cov + q * np.eye(belief.dim)))
    return DenseBelief(mean, symmetrize(prec))


def dense_update(belief_pred, lin, y):
    """Precision += H^T R^-1 H; mean += Sigma* H^T R^-1 e."""
    innov = lin.innovation(y)
    wh = lin.whitened_jacobian_t
    prec = symmetrize(belief_pred.precision + wh @ wh.T)
    chol = chol_or_raise(prec, "posterior precision")
    gain_rhs = lin.jacobian.T @ lin.apply_r_inv(innov)
    mean = belief_pred.mean + scipy.linalg.cho_solve((chol, True), gain_rhs)
    return DenseBelief(mean, prec)


def fcekf_step(belief, model, x, y, dyn):
    """One predict+update of the full-covariance EKF.

    Returns the posterior and the pre-update prediction ``y_hat``.
    """
    pred = dense_predict(belief, dyn)
    lin = linearize(model, x, pred.mean)
    return dense_update(pred, lin, y), lin.y_hat


# ---------------------------------------------------------------------------
# Diagonal EKFs
# ---------------------------------------------------------------------------

def diagonal_predict(belief, dyn):
    g, q = dyn.gamma, dyn.process_noise
    return DiagonalBelief(
        g * belief.mean, 1.0 / (g * g / belief.diag_precision + q)
    )


def _diagonal_mean_update(belief_pred, lin, y):
    """Gain form K = Ups^-1 H^T (H Ups^-1 H^T + R)^+ shared by both filters.

    Returns the posterior mean, ``cross = Ups^-1 H^T`` (P, C) and the
    pseudo-inverse ``S^+`` of ``S = H Ups^-1 H^T + R``.
    """
    innov = lin.innovation(y)
    var = 1.0 / belief_pred.diag_precision
    cross = var[:, None] * lin.jacobian.T  # Ups^-1 H^T, (P, C)
    s = lin.jacobian @ cross + lin.obs_cov
    # pinv covers the singular moment-matched covariance of classification
    s_pinv = np.linalg.pinv(symmetrize(s), hermitian=True)
    return belief_pred.mean + cross @ (s_pinv @ innov), cross, s_pinv


def vdekf_step(belief, model, x, y, dyn):
    """Variational diagonal EKF: keep the diagonal of the posterior precision."""
    pred = diagonal_predict(belief, dyn)
    lin = linearize(model, x, pred.mean)
    mean, _, _ = _diagonal_mean_update(pred, lin, y)
    wh = lin.whitened_jacobian_t
    diag = pred.diag_precision + np.einsum("ij,ij->i", wh, wh)
    return DiagonalBelief(mean, diag), lin.y_hat


def fdekf_step(belief, model, x, y, dyn):
    """Fully decoupled EKF: moment-match the posterior covariance diagonal."""
    pred = diagonal_predict(belief, dyn)
    lin = linearize(model, x, pred.mean)
    mean, cross, s_pinv = _diagonal_mean_update(pred, lin, y)
    # diag(Sigma*) = Ups^-1 - diag(cross S^+ cross^T), then invert
    correction = np.einsum("ij,ij->i", cross @ s_pinv, cross)
    cov_diag = 1.0 / pred.diag_precision - correction
    if np.any(cov_diag <= 0):
        raise NumericalDegeneracyError("moment-matched variance went non-positive")
    return DiagonalBelief(mean, 1.0 / cov_diag), lin.y_hat


# ---------------------------------------------------------------------------
# SGD with replay
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """FIFO buffer of (x, y) pairs with fixed capacity."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items = deque(maxlen=capacity)

    def append(self, x, y):
        self._items.append((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


class Sgd:
    """Plain gradient descent with a constant step size."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad):
        return params - self.lr * grad


class Adam:
    """Adam with bias correction; moments persist across stream steps."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, params, grad):
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad**2
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def nll_gradient(model, x, y, theta):
    """Gradient of the per-example negative log likelihood."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if model.family.kind == "categorical":
        logits, jac = model.logit_jacobian(x, theta)
        return jac.T @ (softmax(logits) - y)
    mean, jac = model.jacobian(x, theta)
    resid = y - mean
    lin_cov = model.family.obs_cov(resid.shape[0])
    return -jac.T @ np.linalg.solve(lin_cov, resid)


def gradient_step(params, grads, optimizer):
    """One optimizer step on the mean of the per-example ``grads``; raises
    NumericalDegeneracyError when that mean is not finite."""
    grad = np.mean(grads, axis=0)
    if not np.isfinite(grad).all():
        finite = grad[np.isfinite(grad)]
        raise NumericalDegeneracyError(
            f"non-finite gradient (|buffer|={len(grads)}, max |g|="
            f"{np.max(np.abs(finite)) if finite.size else 'nan'})"
        )
    return optimizer.step(params, grad)


def sgd_replay_step(params, buffer, x, y, optimizer, inner_iters=1, model=None):
    """Append (x, y), then run gradient steps on the mean NLL over the buffer."""
    buffer.append(x, y)
    for _ in range(inner_iters):
        params = gradient_step(
            params, [nll_gradient(model, bx, by, params) for bx, by in buffer], optimizer
        )
    return params


# ---------------------------------------------------------------------------
# Iterated updates with line search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IteratedConfig:
    """Relinearization count and line-search grid size."""

    num_iters: int = 3
    linesearch_grid: int = 10

    def __post_init__(self):
        if self.num_iters < 1:
            raise ValueError("num_iters must be >= 1")
        if self.linesearch_grid < 1:
            raise ValueError("linesearch_grid must be >= 1")


def _linesearch(cost, base_cost, delta, mu, grid):
    """Step scale in (0, 1]: full step if it does not increase the cost,
    otherwise the grid argmin. Deterministic on flat costs (alpha = 1)."""
    if cost(mu + delta) <= base_cost:
        return 1.0
    alphas = np.linspace(0.0, 1.0, grid + 1)[1:]
    costs = [cost(mu + a * delta) for a in alphas]
    return float(alphas[int(np.argmin(costs))])


def iterated_ekf_update(belief_pred, model, x, y, icfg):
    """Iterated EKF update: relinearize, step, line-search, repeat.

    The energy being decreased is the whitened residual norm
    ``0.5 (||A (y - h(mu))||^2 + ||S^{-T/2} (mu_pred - mu)||^2)`` where the
    second factor is the upper Cholesky factor of the prior precision.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    mu_pred = belief_pred.mean
    prec_chol = chol_or_raise(belief_pred.precision, "prior precision").T
    cov = np.linalg.inv(belief_pred.precision)
    lin0 = linearize(model, x, mu_pred)
    whitener = lin0.whitener

    def cost(mu):
        r_obs = whitener @ (y - model.forward(x, mu))
        r_prior = prec_chol @ (mu_pred - mu)
        return 0.5 * (r_obs @ r_obs + r_prior @ r_prior)

    mu = mu_pred
    lin = lin0
    for i in range(icfg.num_iters):
        lin = linearize(model, x, mu) if i else lin0
        jac = lin.jacobian
        # innovation of the model linearized at mu, read at mu_pred
        innov = lin.innovation(y) - jac @ (mu_pred - mu)
        s = jac @ cov @ jac.T + lin.obs_cov
        gain = cov @ jac.T @ np.linalg.pinv(symmetrize(s), hermitian=True)
        delta = mu_pred - mu + gain @ innov
        alpha = _linesearch(cost, cost(mu), delta, mu, icfg.linesearch_grid)
        mu = mu + alpha * delta
    wh = lin.whitened_jacobian_t
    prec = symmetrize(belief_pred.precision + wh @ wh.T)
    return DenseBelief(mu, prec)


def iterated_lowrank_update(belief_pred, model, x, y, icfg, rank=None):
    """Iterated update for the spherical low-rank filter.

    Each pass rebuilds the extended factor from the predicted basis,
    moves the mean by the Woodbury solve of the diagonal filter and
    line-searches that step. After the last pass the extended factor is
    truncated once to the top-L pairs (:func:`lrkf.spherical.truncate`);
    ``eta`` is untouched.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if rank is None:
        rank = belief_pred.rank
    mu_pred = belief_pred.mean
    eta = belief_pred.eta
    w_prior = belief_pred.basis * belief_pred.singular_values
    lin0 = linearize(model, x, mu_pred)
    whitener = lin0.whitener

    def cost(mu):
        r_obs = whitener @ (y - model.forward(x, mu))
        d = mu_pred - mu
        # ||Sigma^-1/2 d||^2 with precision eta I + W W^T
        r_prior = eta * (d @ d) + np.sum((w_prior.T @ d) ** 2)
        return 0.5 * (r_obs @ r_obs + r_prior)

    mu = mu_pred
    for i in range(icfg.num_iters):
        lin = linearize(model, x, mu) if i else lin0
        jac = lin.jacobian
        innov = lin.innovation(y) - jac @ (mu_pred - mu)
        w_ext = np.hstack([w_prior, lin.whitened_jacobian_t])
        delta = woodbury_mean(mu_pred - mu, eta, w_ext, jac.T @ lin.apply_r_inv(innov))
        alpha = _linesearch(cost, cost(mu), delta, mu, icfg.linesearch_grid)
        mu = mu + alpha * delta
    return truncate(mu, eta, w_ext, belief_pred.basis, rank, "iterated_lowrank_update")
