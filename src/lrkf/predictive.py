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
"""

from dataclasses import dataclass

import numpy as np

from .belief import _dlr_parts, sample_parameters
from .models import softmax


def gaussian_log_density(resid, chol):
    """log N(resid; 0, L L^T) for residuals of shape (C,) or (S, C),
    whitening every row against the one lower Cholesky factor L."""
    white = np.linalg.solve(chol, resid.T)
    quad = white @ white if white.ndim == 1 else np.einsum("cs,cs->s", white, white)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (resid.shape[-1] * np.log(2 * np.pi) + logdet + quad)


def categorical_log_prob(probs, y):
    """log p(y) under probabilities of shape (C,) or (S, C).

    ``y`` is a class index or a label vector. Only its nonzero entries
    are weighted, so a class whose probability underflowed to 0 adds
    nothing instead of 0 * log 0 = NaN.
    """
    y = np.asarray(y)
    if y.ndim == 0:
        return np.log(probs[..., int(y)])
    nz = np.flatnonzero(y)
    return np.log(probs[..., nz]) @ y[nz]


@dataclass(frozen=True)
class GaussianPrediction:
    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = None  # lower Cholesky factor of cov, if already known

    def nll(self, y):
        resid = np.atleast_1d(np.asarray(y, dtype=float)) - self.mean
        chol = np.linalg.cholesky(self.cov) if self.chol is None else self.chol
        return -gaussian_log_density(resid, chol)


@dataclass(frozen=True)
class CategoricalPrediction:
    probs: np.ndarray

    def nll(self, y):
        """y may be a class index or a one-hot vector."""
        return -float(categorical_log_prob(self.probs, y))


def plugin_predict(belief, model, x):
    """Predictive distribution at the belief mean alone."""
    out = model.forward(x, belief.mean)
    family = model.family
    if family.kind == "categorical":
        return CategoricalPrediction(out)
    return GaussianPrediction(out, family.obs_cov(out.shape[0]), family.obs_chol(out.shape[0]))


def mc_predict(belief, model, x, y, n_samples, rng_seed, temperature=1.0):
    """Monte Carlo NLPD: ``-log mean_s p(y | x, theta_s)``.

    The S draws (perturb-and-solve, O(S P L + P L^2) for every P) go
    through one batched ``model.forward`` call and their log-likelihoods
    are computed as one array; for a Gaussian family the residuals are
    whitened together against the family's fixed factor. ``temperature``
    scales the parameter covariance before sampling; 0 short-circuits to
    the plugin NLL.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if temperature == 0.0:
        return plugin_predict(belief, model, x).nll(y)
    draws = sample_parameters(belief, n_samples, rng_seed)
    if temperature != 1.0:
        draws = belief.mean + np.sqrt(temperature) * (draws - belief.mean)
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


def _marginal_quadratic(belief, rows):
    """diag(rows @ Sigma @ rows.T) for Sigma the belief covariance,
    computed through the Woodbury identity without any P x P matrix."""
    _, diag, w = _dlr_parts(belief)
    d_inv = 1.0 / diag
    base = rows * d_inv[None, :]
    first = np.einsum("ij,ij->i", base, rows)
    if w.shape[1] == 0:
        return first
    m = base @ w  # (C, L)
    core = np.eye(w.shape[1]) + (w.T * d_inv) @ w
    chol = np.linalg.cholesky(0.5 * (core + core.T))
    half = np.linalg.solve(chol, m.T)
    return first - np.einsum("ij,ij->j", half, half)


def gaussian_predict(belief, lin):
    """Closed-form predictive moments for linearized regression."""
    _, diag, w = _dlr_parts(belief)
    jac = lin.jacobian
    d_inv = 1.0 / diag
    base = jac * d_inv[None, :]
    cov = base @ jac.T
    if w.shape[1]:
        m = base @ w
        core = np.eye(w.shape[1]) + (w.T * d_inv) @ w
        cov = cov - m @ np.linalg.solve(core, m.T)
    cov = 0.5 * (cov + cov.T) + lin.obs_cov
    return GaussianPrediction(lin.y_hat, cov)


def probit_predict(belief, model, x):
    """Moderated softmax probabilities under parameter uncertainty.

    Uses the logit Jacobian; per-class marginal variances come from the
    same Woodbury factorization as :func:`gaussian_predict`, never
    forming the full logit covariance.
    """
    logits, jac = model.logit_jacobian(x, belief.mean)
    var = np.maximum(_marginal_quadratic(belief, jac), 0.0)
    return softmax(logits / np.sqrt(1.0 + (np.pi / 8.0) * var))
