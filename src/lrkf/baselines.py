"""Reference filters and optimizers the low-rank filter is compared against.

* :func:`fcekf_step` is the full-covariance extended Kalman filter, exact
  up to linearization, O(P^3) per step. It doubles as the dense oracle in
  tests.
* :func:`fdekf_step` and :func:`vdekf_step` keep only a diagonal: each
  conditions the belief of :func:`diagonal_predict` on one linearization.
  VDEKF matches the diagonal of the posterior precision, FDEKF
  moment-matches the diagonal of the posterior covariance via the rank-C
  correction. :class:`DiagonalBelief` is the rank-0
  :class:`~lrkf.belief.DlrBelief`.
* :func:`sgd_replay_step` is stochastic gradient descent over a FIFO
  replay buffer (online gradient descent when the buffer holds one item),
  with plain SGD or Adam, on a given per-example gradient.
* :func:`iterated_ekf_update` and :func:`iterated_lowrank_update`
  relinearize the observation several times within one update, each mean
  move scaled by a grid line search on the quadratic energy
  ``0.5 * ||whitened residual||^2``; one loop serves both.

Every update checks its innovation with ``Linearization.innovation``; the
iterated low-rank update steps by :func:`~lrkf.linalg.woodbury_mean` and
ends in :func:`~lrkf.spherical.truncate`. The FCEKF Cholesky solve and the
gain form of the diagonal EKFs and the iterated EKF, whose pseudo-inverse
is :func:`~lrkf.linalg.sym_pinv`, stay separate as references for that
core.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .belief import DenseBelief, DlrBelief
from .exceptions import NumericalDegeneracyError
from .linalg import chol_or_raise, sym_pinv, symmetrize, woodbury_mean
from .models import linearize, softmax
from .spherical import truncate


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
    # fcekf is the one method that loads scipy, here on first use, to keep
    # the bits of its Cholesky solve; the covariance form (ROADMAP item 2)
    # drops this import.
    import scipy.linalg

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
    s_pinv = sym_pinv(symmetrize(s))
    return belief_pred.mean + cross @ (s_pinv @ innov), cross, s_pinv


def vdekf_step(belief_pred, lin, y):
    """Variational diagonal EKF update: keep the diagonal of the posterior precision."""
    mean, _, _ = _diagonal_mean_update(belief_pred, lin, y)
    wh = lin.whitened_jacobian_t
    return DiagonalBelief(mean, belief_pred.diag_precision + np.einsum("ij,ij->i", wh, wh))


def fdekf_step(belief_pred, lin, y):
    """Fully decoupled EKF update: moment-match the posterior covariance diagonal."""
    mean, cross, s_pinv = _diagonal_mean_update(belief_pred, lin, y)
    # diag(Sigma*) = Ups^-1 - diag(cross S^+ cross^T), then invert
    correction = np.einsum("ij,ij->i", cross @ s_pinv, cross)
    cov_diag = 1.0 / belief_pred.diag_precision - correction
    if np.any(cov_diag <= 0):
        raise NumericalDegeneracyError("moment-matched variance went non-positive")
    return DiagonalBelief(mean, 1.0 / cov_diag)


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


def _iterate(model, x, y, mu_pred, prior_energy, step, icfg):
    """Each pass steps by ``step(lin, innov, mu_pred - mu)``, line-searched
    on the energy; returns the mean and the last linearization."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lin = linearize(model, x, mu_pred)
    whitener = lin.whitener

    def cost(mu):
        r_obs = whitener @ (y - model.forward(x, mu))
        return 0.5 * (r_obs @ r_obs + prior_energy(mu_pred - mu))

    mu = mu_pred
    for i in range(icfg.num_iters):
        if i:
            lin = linearize(model, x, mu)
        d = mu_pred - mu
        # innovation of the model linearized at mu, read at mu_pred
        innov = lin.innovation(y) - lin.jacobian @ d
        delta = step(lin, innov, d)
        # the full step unless it raises the energy (so 1 on a flat one),
        # else the grid argmin in (0, 1]
        alpha = 1.0
        if not cost(mu + delta) <= cost(mu):
            alphas = np.linspace(0.0, 1.0, icfg.linesearch_grid + 1)[1:]
            alpha = alphas[int(np.argmin([cost(mu + a * delta) for a in alphas]))]
        mu = mu + alpha * delta
    return mu, lin


def iterated_ekf_update(belief_pred, model, x, y, icfg):
    """Iterated EKF update: relinearize, step, line-search, repeat.

    The energy being decreased is the whitened residual norm
    ``0.5 (||A (y - h(mu))||^2 + ||S^{-T/2} (mu_pred - mu)||^2)`` where the
    second factor is the upper Cholesky factor of the prior precision.
    """
    prec_chol = chol_or_raise(belief_pred.precision, "prior precision").T
    cov = np.linalg.inv(belief_pred.precision)

    def prior_energy(d):
        r_prior = prec_chol @ d
        return r_prior @ r_prior

    def step(lin, innov, d):
        jac = lin.jacobian
        s = jac @ cov @ jac.T + lin.obs_cov
        gain = cov @ jac.T @ sym_pinv(symmetrize(s))
        return d + gain @ innov

    mu, lin = _iterate(model, x, y, belief_pred.mean, prior_energy, step, icfg)
    wh = lin.whitened_jacobian_t
    prec = symmetrize(belief_pred.precision + wh @ wh.T)
    return DenseBelief(mu, prec)


def iterated_lowrank_update(belief_pred, model, x, y, icfg, rank):
    """Iterated update for the spherical low-rank filter.

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
        w_ext = np.hstack([w_prior, lin.whitened_jacobian_t])
        return woodbury_mean(d, eta, w_ext, lin.jacobian.T @ lin.apply_r_inv(innov))

    mu, lin = _iterate(model, x, y, belief_pred.mean, prior_energy, step, icfg)
    w_ext = np.hstack([w_prior, lin.whitened_jacobian_t])
    return truncate(mu, eta, w_ext, belief_pred.basis, rank, "iterated_lowrank_update")
