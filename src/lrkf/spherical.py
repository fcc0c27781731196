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

Because any data-driven change to the diagonal would break sphericity,
``eta`` evolves only through the drift dynamics.
"""

from itertools import chain

import numpy as np

from .belief import SphericalBelief, validated
from .exceptions import NumericalDegeneracyError
from .linalg import thin_svd, woodbury_mean
from .models import initialize_mean


def complete_basis(u_part, preferred, rank):
    """Extend orthonormal columns ``u_part`` to exactly ``rank`` columns.

    Filler directions are drawn first from ``preferred`` (e.g. the
    previous basis), then from identity columns made one at a time (no
    P x P array), each orthogonalized against the kept block ``K`` by two
    passes of ``v -= K (K^T v)``. Deterministic. Returns a new C-ordered
    array: a copy of ``u_part`` when it already has ``rank`` columns.
    """
    p, n = u_part.shape
    out = np.zeros((p, max(n, rank)))
    out[:, :n] = u_part
    candidates = chain(preferred.T, (np.eye(1, p, j)[0] for j in range(p)))
    while n < rank:
        v = next(candidates, None)
        if v is None:
            raise NumericalDegeneracyError("cannot complete orthonormal basis")
        kept = out[:, :n]
        v = v - kept @ (kept.T @ v)
        v -= kept @ (kept.T @ v)  # second pass keeps orthogonality tight after heavy cancellation
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out[:, n] = v / norm
            n += 1
    return out


def initial_belief(model, cfg, rng_seed):
    """LeCun-normal mean, eta0 from the config, zero singular values.

    The basis starts as the first L identity columns; it carries no
    information while the singular values are zero but keeps the
    orthonormality invariant satisfied.
    """
    mean = initialize_mean(model.spec, rng_seed)
    basis = np.eye(mean.shape[0], cfg.rank)
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


def truncate(mean, eta, s, u, preferred, rank, what):
    """Spherical belief from the top-``rank`` pairs ``(s, u)`` of a
    :func:`~lrkf.linalg.thin_svd`; zero directions (a suffix, as its dead
    columns are) are refilled from ``preferred``."""
    lam = s[:rank]
    basis = complete_basis(u[:, : np.count_nonzero(lam)], preferred, rank)
    return validated(f"spherical {what}", SphericalBelief, mean, eta, basis, lam)


def update_svd(belief_pred, lin, y, cfg):
    """Full-SVD update. With ``W_ext = U S V^T`` the mean moves by
    ``(eta I + U S^2 U^T)^-1 rhs = (rhs - U (s^2 / (eta + s^2) * U^T rhs)) / eta``
    (a dead column, s = 0, adds nothing), ``rhs = J^T R^-1 (y - y_hat)``; the
    basis is the top-L singular pairs. ``eta`` is left untouched by the data."""
    rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
    s, u = thin_svd(extended_factor(belief_pred, lin))
    eta, s2 = belief_pred.eta, s * s
    mean = belief_pred.mean + (rhs - u @ (s2 / (eta + s2) * (u.T @ rhs))) / eta
    return truncate(mean, eta, s, u, belief_pred.basis, cfg.rank, "update_svd")


def svd_orth(lam, basis, grads, rng_seed):
    """Projection-based replacement for the truncated SVD.

    Visits the columns of ``grads``, the whitened transposed Jacobian
    (``Linearization.whitened_jacobian_t``, P x C), in a seeded random
    order; each is projected (two passes) onto the complement of the
    active basis (columns whose singular value is > 0) and replaces the
    weakest slot when its residual norm is strictly larger than the
    current minimum singular value. Returns (lam, basis) sorted
    non-increasing; the basis stays orthonormal.
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
        if norm > lam[slot]:
            basis[:, slot] = v / norm
            lam[slot] = norm
    order = np.argsort(-lam, kind="stable")
    lam, basis = lam[order], basis[:, order]
    if np.any(lam == 0):
        # idle slots (zero singular value) are placeholders; rebuild them
        # orthonormal to the active directions
        basis = complete_basis(basis[:, lam > 0], basis[:, lam == 0], lam.size)
    return lam, basis


def update_orth(belief_pred, lin, y, cfg, rng_seed):
    """Mean by the Woodbury solve on the extended factor; basis via :func:`svd_orth`."""
    rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
    mean = woodbury_mean(belief_pred.mean, belief_pred.eta, extended_factor(belief_pred, lin), rhs)
    lam, basis = svd_orth(belief_pred.singular_values, belief_pred.basis,
                          lin.whitened_jacobian_t, rng_seed)
    return validated("spherical update_orth", SphericalBelief, mean, belief_pred.eta, basis, lam)
