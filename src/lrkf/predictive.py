"""One-step-ahead predictive distributions for the observations.

Given a parameter belief and an observation model, these functions
approximate ``p(y | x, data so far)`` at increasing fidelity:

* :func:`plugin_predict` plugs in the posterior mean (no parameter
  uncertainty). Its negative log score is the NLL.
* :func:`mc_predict` marginalizes the parameters by Monte Carlo; its
  negative log score is the NLPD. The perturb-and-solve sampler draws
  S parameter vectors in O(S P L + P L^2), and one batched forward call
  (``theta`` of shape (S, P)) scores them in O(S P) memory.
* :func:`gaussian_predict` is the closed form for linearized regression,
  ``V = H Sigma H^T + R`` computed by the Woodbury identity in O(P L^2).
* :func:`probit_predict` is a deterministic classification approximation
  that divides each logit by ``sqrt(1 + pi/8 * var)``, pulling the
  probabilities toward uniform when the parameters are uncertain.

Gaussian log densities whiten a stack of residuals row by row, each row
with its own one-right-hand-side solve in one stacked call, so a stack
of events (or of draws) gives each row the bits of a single-row call.
"""

from dataclasses import dataclass

import numpy as np

from .belief import _dlr_parts, sample_parameters
from .linalg import cholesky, solve
from .models import softmax


def gaussian_log_density(resid, chol):
    """log N(resid; 0, L L^T) for residuals of shape (C,) or (S, C).

    Every row is whitened against the one lower Cholesky factor L by its
    own one-right-hand-side solve, all rows in one stacked call, so each
    row's value is bit-identical to a call on that row alone. (One solve
    with S right-hand sides is not: LAPACK takes another rounding path.)
    """
    if resid.shape[-1] == 1:  # the 1 x 1 solve's bits; a product with 1 / L has others
        quad = np.square(resid[..., 0] / chol[0, 0])
    else:
        white = solve(chol, resid[..., None], "residual whitening")  # (..., C, 1)
        quad = (white.swapaxes(-1, -2) @ white)[..., 0, 0]
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (resid.shape[-1] * np.log(2 * np.pi) + logdet + quad)


def categorical_log_prob(probs, y):
    """log p(y) under probabilities of shape (C,) or (S, C).

    ``y`` is a class index, one label vector (C,) for every row, or one
    label vector per row (S, C). Only its nonzero entries are weighted,
    so a class whose probability underflowed to 0 adds nothing instead
    of 0 * log 0 = NaN.
    """
    y = np.asarray(y)
    if y.ndim == 0:
        return np.log(probs[..., int(y)])
    if y.ndim == 2:
        rows, cols = np.nonzero(y)
        return np.bincount(rows, np.log(probs[rows, cols]) * y[rows, cols], y.shape[0])
    nz = np.flatnonzero(y)
    return np.log(probs[..., nz]) @ y[nz]


@dataclass(frozen=True)
class GaussianPrediction:
    """Gaussian predictive for one event, ``mean`` (C,), or for a stack of
    events sharing one covariance, ``mean`` (S, C); ``nll`` then takes
    targets (S, C) and returns one value per row."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = None  # lower Cholesky factor of cov, if already known

    def nll(self, y):
        resid = np.atleast_1d(np.asarray(y, dtype=float)) - self.mean
        chol = self.chol
        if chol is None:
            chol = cholesky(self.cov, "Cholesky of predictive covariance")
        return -gaussian_log_density(resid, chol)


@dataclass(frozen=True)
class CategoricalPrediction:
    """Categorical predictive, ``probs`` (C,) or a stack of events (S, C)."""

    probs: np.ndarray

    def nll(self, y):
        """y may be a class index or a one-hot vector, or one label vector
        per row of a stack."""
        return -categorical_log_prob(self.probs, y)


def plugin_predict(belief, model, x):
    """Predictive distribution at the belief mean alone."""
    out = model.forward(x, belief.mean)
    family = model.family
    if family.kind == "categorical":
        return CategoricalPrediction(out)
    return GaussianPrediction(out, family.obs_cov(out.shape[0]), family.obs_chol(out.shape[0]))


def mc_predict(belief, model, x, y, n_samples, rng_seed):
    """Monte Carlo NLPD: ``-log mean_s p(y | x, theta_s)``.

    The S draws (perturb-and-solve, O(S P L + P L^2) for every P) go
    through one batched ``model.forward`` call and their log-likelihoods
    are computed as one array; for a Gaussian family each residual row is
    whitened against the family's fixed factor in one stacked solve.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    draws = sample_parameters(belief, n_samples, rng_seed)
    out = model.forward(x, draws)
    family = model.family
    if family.kind == "categorical":
        logs = categorical_log_prob(out, y)
    else:
        resid = np.atleast_1d(np.asarray(y, dtype=float)) - out
        logs = gaussian_log_density(resid, family.obs_chol(out.shape[-1]))
    top = logs.max()  # shift by the largest; -inf, +inf or NaN decides alone
    if not np.isfinite(top):
        return -float(top)
    return -float(top + np.log(np.exp(logs - top).sum() / n_samples))


def _projected_cov(belief, rows):
    """``rows @ Sigma @ rows.T`` for Sigma the belief covariance, computed
    through the Woodbury identity in O(P L^2) without any P x P matrix."""
    _, diag, w = _dlr_parts(belief)
    d_inv = 1.0 / diag
    base = rows * d_inv[None, :]
    cov = base @ rows.T
    if w.shape[1]:
        m = base @ w
        core = np.eye(w.shape[1]) + (w.T * d_inv) @ w
        cov = cov - m @ solve(core, m.T, "projected covariance core solve")
    return cov


def gaussian_predict(belief, lin):
    """Closed-form predictive moments for linearized regression."""
    cov = _projected_cov(belief, lin.jacobian)
    return GaussianPrediction(lin.y_hat, 0.5 * (cov + cov.T) + lin.obs_cov)


def probit_predict(belief, model, x):
    """Moderated softmax probabilities under parameter uncertainty.

    Uses the logit Jacobian; per-class marginal variances are the
    diagonal of the C x C projected covariance that
    :func:`gaussian_predict` also uses, so no P x P matrix is formed.
    """
    logits, jac = model.logit_jacobian(x, belief.mean)
    var = np.maximum(np.diag(_projected_cov(belief, jac)), 0.0)
    return softmax(logits / np.sqrt(1.0 + (np.pi / 8.0) * var))
