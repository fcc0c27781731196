"""Online extended Kalman filtering with diagonal-plus-low-rank precision.

The filter alternates two closed-form moves on a :class:`~lrkf.belief.DlrBelief`:

* :func:`predict` pushes the belief through the linear-Gaussian drift
  ``theta_t = gamma * theta_{t-1} + noise`` while keeping the precision in
  diagonal-plus-low-rank form, in O(P L^2 + L^3).
* :func:`update` conditions on one observation through a linearized
  likelihood. The whitened Jacobian is appended to the low-rank factor,
  acting as a generalized memory buffer of gradient embeddings, the mean
  moves by the Woodbury form of the Kalman correction
  (:func:`~lrkf.linalg.woodbury_mean`, after the finite check of
  ``Linearization.innovation``), and a truncated SVD projects the factor
  back to rank L. Whatever the truncation discards is folded into the
  diagonal so the diagonal of the precision stays exact.
  Cost O(P (L + C)^2).

With rank L = 0 the recursion collapses to a variational diagonal EKF;
with L = P it reproduces the full-covariance EKF.
"""

from dataclasses import dataclass, field

import numpy as np

from .belief import DlrBelief
from .exceptions import NumericalDegeneracyError
from .linalg import chol_or_raise, symmetrize, thin_svd, woodbury_mean
from .models import initialize_mean, linearize


@dataclass(frozen=True)
class DynamicsConfig:
    """Per-step drift: mean scale gamma, process noise q, prior precision.

    With ``steady_state`` set, construction enforces
    ``gamma^2 + q * initial_precision == 1`` (to 1e-12), which keeps the
    unconditional parameter variance constant over time.
    """

    gamma: float = 1.0
    process_noise: float = 0.0
    initial_precision: float = 1.0
    steady_state: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.process_noise < 0.0:
            raise ValueError("process_noise must be >= 0")
        if self.initial_precision <= 0.0:
            raise ValueError("initial_precision must be > 0")
        if self.steady_state:
            drift = abs(self.gamma**2 + self.process_noise * self.initial_precision - 1.0)
            if drift > 1e-12:
                raise ValueError(
                    "steady_state requires gamma^2 + q * eta0 == 1 "
                    f"(off by {drift:.3e})"
                )


@dataclass(frozen=True)
class LowRankConfig:
    """Rank bound plus dynamics and inflation settings for the filter."""

    rank: int
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    inflation: object = None  # InflationConfig; None means no inflation

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")


def initial_belief(model, cfg, rng_seed):
    """Fresh belief: LeCun-normal mean, precision eta0 * I, zero factor."""
    mean = initialize_mean(model.spec, rng_seed)
    p = mean.shape[0]
    diag = np.full(p, cfg.dynamics.initial_precision)
    return DlrBelief(mean, diag, np.zeros((p, cfg.rank)))


def predict(belief, cfg):
    """One-step-ahead belief under the drift model.

    The covariance recursion ``Sigma' = gamma^2 Sigma + q I`` is carried
    out on the precision factors directly: the diagonal updates
    elementwise and the factor is rescaled through the Cholesky factor of
    an L x L core, so no P x P matrix is ever formed.
    """
    dyn = cfg.dynamics
    g, q = dyn.gamma, dyn.process_noise
    mean = g * belief.mean
    ups = belief.diag_precision
    ups_pred = 1.0 / (g * g / ups + q)
    w = belief.low_rank
    if w.shape[1] == 0 or g == 0.0:
        return DlrBelief(mean, ups_pred, np.zeros((belief.dim, w.shape[1])))
    ratio = ups_pred / ups
    scaled = ratio[:, None] * w
    core = np.eye(w.shape[1]) + q * (w.T @ scaled)
    try:
        core_inv = np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"predict core inversion failed: {exc}") from exc
    chol = chol_or_raise(symmetrize(core_inv), "predict core")
    return DlrBelief(mean, ups_pred, g * scaled @ chol)


def update(belief_pred, lin, y, cfg):
    """Condition the predicted belief on one observation.

    ``lin`` must be the linearization at ``belief_pred.mean``. The exact
    posterior precision is ``diag(ups) + Wt Wt^T`` where Wt appends the
    whitened Jacobian columns; the returned belief truncates Wt to rank
    ``cfg.rank`` and adds the discarded rows' squares to the diagonal,
    keeping ``diag`` of the precision exact.
    """
    innov = lin.innovation(y)
    ups = belief_pred.diag_precision
    w_ext = np.hstack([belief_pred.low_rank, lin.jacobian.T @ lin.whitener.T])
    mean = woodbury_mean(belief_pred.mean, ups, w_ext, lin.jacobian.T @ lin.apply_r_inv(innov))

    s, u = thin_svd(w_ext)
    rank = cfg.rank
    w_new = u[:, :rank] * s[:rank]
    dropped = u[:, rank:] * s[rank:]
    ups_new = ups + np.einsum("ij,ij->i", dropped, dropped)
    return DlrBelief(mean, ups_new, w_new)


def step(belief, x, y, model, cfg):
    """predict, linearize at the predicted mean, update.

    Returns the posterior belief and the prediction ``y_hat`` that was
    made before ``y`` was seen.
    """
    pred = predict(belief, cfg)
    lin = linearize(model, x, pred.mean)
    post = update(pred, lin, y, cfg)
    return post, lin.y_hat
