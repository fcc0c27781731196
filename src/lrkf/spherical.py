"""Spherical variant of the low-rank filter.

Restricting the diagonal part of the precision to ``eta * I`` buys an O(P)
predict step: the basis is untouched and only ``eta`` and the singular
values move, elementwise. The update step offers two flavors:

* :func:`update_svd` mirrors the diagonal filter, with one thin SVD of the
  extended factor, O(P (L + C)^2): the posterior precision is diagonal in
  its left singular basis, so the SVD gives the mean and, truncated, the basis.
* :func:`update_orth` replaces the SVD by orthogonal projection of each
  whitened gradient column onto the complement of the current basis,
  swapping out the weakest retained direction when the newcomer carries
  more information. O(P L C), less accurate. Its mean is
  :func:`~lrkf.linalg.woodbury_mean` with the scalar ``eta`` as diagonal.

:func:`truncate` also ends the iterated update and loads a checkpoint.

A direction whose singular value is 0 is dead: it adds nothing to the
precision, and its basis column is not checked (see
:class:`~lrkf.belief.SphericalBelief`). The initial belief and the SVD
truncation leave dead columns at zero, as the DLR filter's dead factor
columns are, and no step fills them with placeholders.

Because any data-driven change to the diagonal would break sphericity,
``eta`` evolves only through the drift dynamics.
"""

import numpy as np

from .belief import SphericalBelief, validated
from .linalg import thin_svd, woodbury_mean
from .models import initialize_mean


def initial_belief(model, cfg, rng_seed):
    """LeCun-normal mean, eta0 from the config, and L dead directions: a
    zero basis with zero singular values, as :func:`lrkf.diagonal.initial_belief`
    starts from a zero factor."""
    mean = initialize_mean(model.spec, rng_seed)
    basis = np.zeros((mean.shape[0], cfg.rank))
    return SphericalBelief(mean, cfg.dynamics.initial_precision, basis, np.zeros(cfg.rank))


def predict(belief, cfg):
    """Drift the belief; all formulas are elementwise, O(P).

    Under the steady-state constraint ``gamma^2 + q * eta == 1`` the
    spherical precision is exactly constant and only the singular values
    shrink. The drifted belief holds ``belief``'s very basis array, which
    was checked when ``belief`` was built, so its P x L Gram is not
    recomputed (:meth:`~lrkf.belief.SphericalBelief.on_same_basis`).
    """
    dyn = cfg.dynamics
    g, q = dyn.gamma, dyn.process_noise
    mean = g * belief.mean
    lam2 = belief.singular_values**2
    if dyn.steady_state:
        eta = belief.eta
        lam2_new = g * g * lam2 / (1.0 + q * lam2)
    else:
        denom = g * g + q * belief.eta
        eta = belief.eta / denom
        lam2_new = g * g * lam2 / (denom * (denom + q * lam2))
    return validated("spherical predict", belief.on_same_basis, mean, eta, np.sqrt(lam2_new))


def extended_factor(belief_pred, lin):
    """The scaled basis with the whitened Jacobian columns appended."""
    (p, rank), jac_t = belief_pred.basis.shape, lin.whitened_jacobian_t
    w_ext = np.empty((p, rank + jac_t.shape[1]))  # C order, as np.hstack built it
    np.multiply(belief_pred.basis, belief_pred.singular_values, out=w_ext[:, :rank])
    w_ext[:, rank:] = jac_t
    return w_ext


def truncate(mean, eta, s, u, rank, what):
    """Spherical belief from the top-``rank`` pairs ``(s, u)`` of a
    :func:`~lrkf.linalg.thin_svd`, the basis a C-ordered copy of U's first
    ``rank`` columns. A dead pair (s = 0) stays dead: its column is zero,
    as :func:`~lrkf.linalg.thin_svd` returns it."""
    basis = np.array(u[:, :rank], order="C")
    return validated(f"spherical {what}", SphericalBelief, mean, eta, basis, s[:rank])


def update_svd(belief_pred, lin, y, cfg):
    """Full-SVD update. With ``W_ext = U S V^T`` the mean moves by
    ``(eta I + U S^2 U^T)^-1 rhs = (rhs - U (s^2 / (eta + s^2) * U^T rhs)) / eta``
    (a dead column, s = 0, adds nothing), ``rhs = J^T R^-1 (y - y_hat)``; the
    basis is the top-L singular pairs. ``eta`` is left untouched by the data."""
    rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
    s, u = thin_svd(extended_factor(belief_pred, lin))
    eta, s2 = belief_pred.eta, s * s
    mean = belief_pred.mean + (rhs - u @ (s2 / (eta + s2) * (u.T @ rhs))) / eta
    return truncate(mean, eta, s, u, cfg.rank, "update_svd")


ORTH_RESIDUAL_RTOL = 1e-6


def svd_orth(lam, basis, grads, rng_seed):
    """Projection-based replacement for the truncated SVD.

    Visits the columns of ``grads``, the whitened transposed Jacobian
    (``Linearization.whitened_jacobian_t``, P x C), in a seeded random
    order; each is projected (two passes) onto the complement of the
    active basis (columns whose singular value is > 0) and replaces the
    weakest slot when its residual norm is strictly larger than the
    current minimum singular value and than ``ORTH_RESIDUAL_RTOL * ||g||``.
    Two projections onto live columns whose Gram is off the identity by
    ``e <= 1e-8`` (as :class:`~lrkf.belief.SphericalBelief` admits) leave
    about ``e^2 ||g||`` of their span in the residual, so a gradient inside
    that span leaves round-off, which a dead slot would take and normalize
    into a column far from orthogonal to the rest; above the bound, the new
    column is orthogonal to them to ``e^2 / 1e-6 <= 1e-10``. Returns (lam,
    basis) sorted non-increasing. The live columns stay orthonormal; a dead
    slot (lam = 0) keeps the column it had until a newcomer takes it.
    """
    lam = np.array(lam, dtype=float, copy=True)
    basis = np.array(basis, dtype=float, copy=True)
    rng = np.random.default_rng(rng_seed)
    for j in rng.permutation(grads.shape[1]):
        g, ua = grads[:, j], basis[:, lam > 0]
        v = g - ua @ (ua.T @ g)  # g itself, bit for bit, with no active column
        v -= ua @ (ua.T @ v)
        norm = np.linalg.norm(v)
        slot = int(np.argmin(lam))
        if norm > lam[slot] and norm > ORTH_RESIDUAL_RTOL * np.linalg.norm(g):
            basis[:, slot] = v / norm
            lam[slot] = norm
    order = np.argsort(-lam, kind="stable")
    return lam[order], basis[:, order]


def update_orth(belief_pred, lin, y, cfg, rng_seed):
    """Mean by the Woodbury solve on the extended factor; basis via :func:`svd_orth`."""
    rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
    mean = woodbury_mean(belief_pred.mean, belief_pred.eta, extended_factor(belief_pred, lin), rhs)
    lam, basis = svd_orth(belief_pred.singular_values, belief_pred.basis,
                          lin.whitened_jacobian_t, rng_seed)
    return validated("spherical update_orth", SphericalBelief, mean, belief_pred.eta, basis, lam)
