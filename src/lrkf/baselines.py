"""Reference filters and optimizers the low-rank filter is compared against.

* :func:`dense_predict` and :func:`dense_update` are the full-covariance
  extended Kalman filter on a :class:`~lrkf.belief.DenseCovBelief`, exact
  up to linearization, with no matrix inverse; the ``fcekf`` learner
  steps through them.
* :func:`fdekf_step` and :func:`vdekf_step` keep only a diagonal: each
  conditions a rank-0 belief, drifted by :func:`lrkf.diagonal.predict`,
  on one linearization. VDEKF matches the diagonal of the posterior
  precision, FDEKF moment-matches the diagonal of the posterior
  covariance via the rank-C correction. :class:`DiagonalBelief` is the
  rank-0 :class:`~lrkf.belief.DlrBelief`.
* :func:`sgd_replay_step` is stochastic gradient descent over a FIFO
  replay buffer (online gradient descent when the buffer holds one item),
  with plain SGD or Adam, on a given per-example gradient.
* :func:`iterated_ekf_update` and :func:`iterated_lowrank_update` start
  from the learner's linearization at the predicted mean and relinearize
  the observation at each later pass within one update, each mean move
  scaled by a grid line search on the quadratic energy
  ``0.5 * ||whitened residual||^2``; one loop serves both.

Every update checks its innovation with ``Linearization.innovation``; the
iterated low-rank update steps by :func:`~lrkf.linalg.woodbury_mean` and
ends in :func:`~lrkf.spherical.truncate`. The dense EKFs share one gain
``K = Sigma H^T S^+`` and posterior; they and the diagonal EKFs, all in
gain form with the pseudo-inverse :func:`~lrkf.linalg.sym_pinv`, stay
separate as references for that core.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .belief import DenseCovBelief, DlrBelief, validated
from .exceptions import NumericalDegeneracyError
from .linalg import cholesky, solve, sym_pinv, symmetrize, thin_svd, woodbury_mean
from .models import linearize, softmax
from .spherical import extended_factor, truncate


@dataclass(frozen=True)
class DiagonalBelief(DlrBelief):
    """Gaussian with purely diagonal precision: a DLR belief with no factor
    columns, built as ``DiagonalBelief(mean, diag_precision)``."""

    low_rank: np.ndarray = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "low_rank", np.zeros((np.size(self.mean), 0)))
        super().__post_init__()


# ---------------------------------------------------------------------------
# Full-covariance EKF
# ---------------------------------------------------------------------------

def dense_predict(belief, dyn):
    """Sigma' = gamma^2 Sigma + q I."""
    cov = dyn.gamma**2 * belief.cov
    cov.flat[:: cov.shape[0] + 1] += dyn.process_noise
    return DenseCovBelief(dyn.gamma * belief.mean, cov)


def _dense_gain(cov, lin):
    """``H Sigma`` and the gain ``K^T = S^+ H Sigma``, ``S = H Sigma H^T + R``."""
    h_cov = lin.jacobian @ cov
    return h_cov, sym_pinv(symmetrize(h_cov @ lin.jacobian.T + lin.obs_cov)) @ h_cov


def _dense_posterior(mean, cov, h_cov, gain_t):
    """Sigma* = Sigma - (H Sigma)^T K^T, symmetrized and checked positive definite."""
    cov = symmetrize(cov - h_cov.T @ gain_t)
    cholesky(cov, "Cholesky of posterior covariance")
    return DenseCovBelief(mean, cov)


def dense_update(belief_pred, lin, y):
    """mean += K e; Sigma* = Sigma - K H Sigma."""
    innov = lin.innovation(y)
    h_cov, gain_t = _dense_gain(belief_pred.cov, lin)
    return _dense_posterior(belief_pred.mean + innov @ gain_t, belief_pred.cov, h_cov, gain_t)


# ---------------------------------------------------------------------------
# Diagonal EKFs
# ---------------------------------------------------------------------------

def _diagonal_mean_update(belief_pred, lin, y):
    """Gain form K = Ups^-1 H^T (H Ups^-1 H^T + R)^+ shared by both filters.

    Returns the posterior mean, ``cross = Ups^-1 H^T`` (P, C) and the
    pseudo-inverse ``S^+`` of ``S = H Ups^-1 H^T + R``.
    """
    innov = lin.innovation(y)
    var = 1.0 / belief_pred.diag_precision
    cross = var[:, None] * lin.jacobian.T  # Ups^-1 H^T, (P, C)
    s = lin.jacobian @ cross + lin.obs_cov
    s_pinv = sym_pinv(symmetrize(s))
    return belief_pred.mean + cross @ (s_pinv @ innov), cross, s_pinv


def vdekf_step(belief_pred, lin, y):
    """Variational diagonal EKF update: keep the diagonal of the posterior precision."""
    mean, _, _ = _diagonal_mean_update(belief_pred, lin, y)
    wh = lin.whitened_jacobian_t
    return validated("vdekf_step", DiagonalBelief,
                     mean, belief_pred.diag_precision + np.einsum("ij,ij->i", wh, wh))


def fdekf_step(belief_pred, lin, y):
    """Fully decoupled EKF update: moment-match the posterior covariance diagonal."""
    mean, cross, s_pinv = _diagonal_mean_update(belief_pred, lin, y)
    # diag(Sigma*) = Ups^-1 - diag(cross S^+ cross^T), then invert
    correction = np.einsum("ij,ij->i", cross @ s_pinv, cross)
    cov_diag = 1.0 / belief_pred.diag_precision - correction
    if np.any(cov_diag <= 0):
        raise NumericalDegeneracyError("moment-matched variance went non-positive")
    return validated("fdekf_step", DiagonalBelief, mean, 1.0 / cov_diag)


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
    return -jac.T @ solve(lin_cov, resid, "observation covariance solve")


def sgd_replay_step(params, buffer, x, y, optimizer, grad, inner_iters=1):
    """Append (x, y), then take ``inner_iters`` optimizer steps, each on the
    mean over the buffer of the per-example gradient ``grad(x, y, params)``;
    raises NumericalDegeneracyError when that mean is not finite."""
    buffer.append(x, y)
    for _ in range(inner_iters):
        mean_grad = np.mean([grad(bx, by, params) for bx, by in buffer], axis=0)
        if not np.isfinite(mean_grad).all():
            finite = mean_grad[np.isfinite(mean_grad)]
            raise NumericalDegeneracyError(
                f"non-finite gradient (|buffer|={len(buffer)}, max |g|="
                f"{np.max(np.abs(finite)) if finite.size else 'nan'})"
            )
        params = optimizer.step(params, mean_grad)
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


def _iterate(lin, model, x, y, mu_pred, prior_energy, step, icfg):
    """Each pass steps by ``step(lin, innov, mu_pred - mu)`` (the step and
    what it built), line-searched on the energy; the first uses ``lin``,
    the linearization at ``mu_pred``, and each later one relinearizes at
    the moved mean. Returns the mean and what the last step built."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    whitener = lin.whitener

    def cost(mu):
        r_obs = whitener @ (y - model.forward(x, mu))
        return 0.5 * (r_obs @ r_obs + prior_energy(mu_pred - mu))

    mu, energy = mu_pred, cost(mu_pred)
    for i in range(icfg.num_iters):
        if i:
            lin = linearize(model, x, mu)
        d = mu_pred - mu
        # innovation of the model linearized at mu, read at mu_pred
        innov = lin.innovation(y) - lin.jacobian @ d
        delta, made = step(lin, innov, d)
        # the full step unless it raises the energy (so 1 on a flat one),
        # else the grid argmin in (0, 1]; ``energy`` is always that of mu
        alpha, moved = 1.0, cost(mu + delta)
        if not moved <= energy:
            alphas = np.linspace(0.0, 1.0, icfg.linesearch_grid + 1)[1:]
            costs = [cost(mu + a * delta) for a in alphas]
            best = int(np.argmin(costs))
            alpha, moved = alphas[best], costs[best]
        mu, energy = mu + alpha * delta, moved
    return mu, made


def iterated_ekf_update(belief_pred, lin, model, x, y, icfg):
    """Iterated EKF update: step, line-search, relinearize, repeat, from
    ``lin``, the linearization at ``belief_pred.mean``.

    The energy being decreased is ``0.5 (||A (y - h(mu))||^2 +
    ||L^-1 (mu_pred - mu)||^2)``, with ``L L^T`` the prior covariance. The
    posterior covariance is :func:`dense_update`'s at the last linearization.
    """
    chol = cholesky(belief_pred.cov, "Cholesky of prior covariance")

    def prior_energy(d):
        r_prior = solve(chol, d, "prior whitening")
        return r_prior @ r_prior

    def step(lin, innov, d):
        gain = _dense_gain(belief_pred.cov, lin)
        return d + innov @ gain[1], gain

    mu, gain = _iterate(lin, model, x, y, belief_pred.mean, prior_energy, step, icfg)
    return _dense_posterior(mu, belief_pred.cov, *gain)


def iterated_lowrank_update(belief_pred, lin, model, x, y, icfg, rank):
    """Iterated update for the spherical low-rank filter, from ``lin``,
    the linearization at ``belief_pred.mean``.

    Each pass rebuilds the extended factor from the predicted basis,
    moves the mean by the Woodbury solve of the diagonal filter and
    line-searches that step. After the last pass the extended factor is
    truncated once to the top-L pairs (:func:`lrkf.spherical.truncate`);
    ``eta`` is untouched.
    """
    eta = belief_pred.eta
    w_prior = belief_pred.basis * belief_pred.singular_values

    def prior_energy(d):
        # ||Sigma^-1/2 d||^2 with precision eta I + W W^T
        return eta * (d @ d) + np.sum((w_prior.T @ d) ** 2)

    def step(lin, innov, d):
        w_ext = extended_factor(belief_pred, lin)
        return woodbury_mean(d, eta, w_ext, lin.jacobian.T @ lin.apply_r_inv(innov)), w_ext

    mu, w_ext = _iterate(lin, model, x, y, belief_pred.mean, prior_energy, step, icfg)
    return truncate(mu, eta, *thin_svd(w_ext), rank, "iterated_lowrank_update")
