"""Covariance inflation: multiplicative discounting of past information.

Applied between update and predict (the harness applies it exactly once
per step, at the start of predict). Three variants, each scaling the
low-rank factor by ``1/sqrt(1+alpha)``:

* ``simple``   discounts the whole log posterior, so the dense covariance
  is multiplied by exactly ``1 + alpha`` and the mean is untouched.
* ``bayesian`` discounts only the data contribution, adding back
  ``alpha * eta / (1+alpha)`` of the latent prior precision to the
  diagonal and pulling the mean toward the decayed prior mean
  ``Gamma * mu0``.
* ``hybrid``   uses the bayesian covariance but, like simple, leaves the
  mean alone.

``eta`` here is the precision of the latent unconditional prior, which
evolves as ``eta_t^-1 = gamma^2 eta_{t-1}^-1 + q`` alongside the running
product ``Gamma_t = prod gamma_i``; :class:`LatentPrior` tracks both.
A filter learner passes its own :class:`LatentPrior`, advanced once per
update, and its initial mean as ``mu0``; :class:`InflationConfig` holds
only the strength and the variant.
"""

from dataclasses import dataclass

import numpy as np

from .belief import DlrBelief, validated
from .linalg import woodbury_mean

VARIANTS = ("none", "bayesian", "simple", "hybrid")


@dataclass(frozen=True)
class InflationConfig:
    """Inflation strength and variant; the default is no inflation."""

    alpha: float = 0.0
    variant: str = "none"

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class LatentPrior:
    """State of the data-free prior: precision eta and Gamma product."""

    eta: float
    gamma_product: float = 1.0

    def advance(self, gamma, q):
        self.eta = 1.0 / (gamma * gamma / self.eta + q)
        self.gamma_product *= gamma


def inflate_dlr(belief, cfg, latent, prior_mean):
    """Apply one inflation step to a DLR belief.

    ``latent.eta`` enters the bayesian and hybrid diagonals, and the
    bayesian mean pull targets ``latent.gamma_product * prior_mean``.
    """
    if cfg.variant == "none" or cfg.alpha == 0.0:
        return belief
    a, what = cfg.alpha, f"{cfg.variant} inflation"
    shrink = 1.0 / (1.0 + a)
    w = belief.low_rank * np.sqrt(shrink)
    if cfg.variant == "simple":
        return validated(what, DlrBelief, belief.mean, belief.diag_precision * shrink, w)
    diag = belief.diag_precision * shrink + a * latent.eta * shrink
    if cfg.variant == "hybrid":
        return validated(what, DlrBelief, belief.mean, diag, w)
    # bayesian: also pull the mean toward the decayed prior mean
    target = latent.gamma_product * np.asarray(prior_mean, dtype=float)
    rhs = (a * latent.eta * shrink) * (target - belief.mean)
    mean = woodbury_mean(belief.mean, diag, w, rhs)
    return validated(what, DlrBelief, mean, diag, w)


def inflate_spherical(belief, cfg, latent, prior_mean):
    """Spherical counterpart of :func:`inflate_dlr`.

    The latent prior precision coincides with the spherical part here, so
    bayesian and hybrid leave ``eta`` untouched and only the singular
    values shrink; simple also deflates ``eta``. ``latent.eta`` is unused.
    """
    if cfg.variant == "none" or cfg.alpha == 0.0:
        return belief
    a, what = cfg.alpha, f"{cfg.variant} inflation"
    lam = belief.singular_values / np.sqrt(1.0 + a)
    if cfg.variant == "simple":
        return validated(what, belief.on_same_basis, belief.mean, belief.eta / (1.0 + a), lam)
    if cfg.variant == "hybrid":
        return validated(what, belief.on_same_basis, belief.mean, belief.eta, lam)
    # bayesian: the pull solves against eta I + U diag(lam)^2 U^T
    eta = belief.eta
    target = latent.gamma_product * np.asarray(prior_mean, dtype=float)
    rhs = (a * eta / (1.0 + a)) * (target - belief.mean)
    mean = woodbury_mean(belief.mean, eta, belief.basis * lam, rhs)
    return validated(what, belief.on_same_basis, mean, eta, lam)
