"""Spherical variant of the low-rank filter.

Restricting the diagonal part of the precision to ``eta * I`` buys an O(P)
predict step: the basis is untouched and only ``eta`` and the singular
values move, elementwise. The update step offers two flavors:

* :func:`update_svd` mirrors the diagonal filter, with a thin SVD of the
  extended factor, O(P (L + C)^2).
* :func:`update_orth` replaces the SVD by orthogonal projection of each
  whitened gradient column onto the complement of the current basis,
  swapping out the weakest retained direction when the newcomer carries
  more information. O(P L C), less accurate.

Both move the mean by :func:`~lrkf.linalg.woodbury_mean` with the scalar
``eta`` as its diagonal. :func:`truncate` also ends the iterated update.

Because any data-driven change to the diagonal would break sphericity,
``eta`` evolves only through the drift dynamics.
"""

import numpy as np

from .belief import SphericalBelief
from .exceptions import NumericalDegeneracyError
from .linalg import thin_svd, woodbury_mean
from .models import initialize_mean


def complete_basis(u_part, preferred, rank):
    """Extend orthonormal columns ``u_part`` to exactly ``rank`` columns.

    Filler directions are drawn first from ``preferred`` (e.g. the
    previous basis), then from identity columns, each orthogonalized
    against what is already kept. Deterministic. Returns a new C-ordered
    array: a copy of ``u_part`` when it already has ``rank`` columns.
    """
    if u_part.shape[1] >= rank:
        return np.array(u_part, order="C")
    p = u_part.shape[0]
    kept = [u_part[:, j] for j in range(u_part.shape[1])]
    candidates = [preferred[:, j] for j in range(preferred.shape[1])]
    idx = 0
    while len(kept) < rank:
        if candidates:
            v = candidates.pop(0)
        else:
            if idx >= p:
                raise NumericalDegeneracyError("cannot complete orthonormal basis")
            v = np.zeros(p)
            v[idx] = 1.0
            idx += 1
        for k in kept:
            v = v - k * (k @ v)
        # second pass keeps orthogonality tight after heavy cancellation
        for k in kept:
            v = v - k * (k @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            kept.append(v / norm)
    return np.column_stack(kept)


def initial_belief(model, cfg, rng_seed):
    """LeCun-normal mean, eta0 from the config, zero singular values.

    The basis starts as the first L identity columns; it carries no
    information while the singular values are zero but keeps the
    orthonormality invariant satisfied.
    """
    mean = initialize_mean(model.spec, rng_seed)
    p = mean.shape[0]
    basis = np.eye(p)[:, : cfg.rank]
    return SphericalBelief(mean, cfg.dynamics.initial_precision, basis, np.zeros(cfg.rank))


def predict(belief, cfg):
    """Drift the belief; all formulas are elementwise, O(P).

    Under the steady-state constraint ``gamma^2 + q * eta == 1`` the
    spherical precision is exactly constant and only the singular values
    shrink.
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
    return SphericalBelief(mean, eta, belief.basis, np.sqrt(lam2_new))


def _posterior_mean(belief_pred, lin, y):
    """Posterior mean, and the extended factor (scaled basis with the
    whitened Jacobian columns appended) it was solved against."""
    (p, rank), jac_t = belief_pred.basis.shape, lin.whitened_jacobian_t
    w_ext = np.empty((p, rank + jac_t.shape[1]))  # C order, as np.hstack built it
    np.multiply(belief_pred.basis, belief_pred.singular_values, out=w_ext[:, :rank])
    w_ext[:, rank:] = jac_t
    rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
    return woodbury_mean(belief_pred.mean, belief_pred.eta, w_ext, rhs), w_ext


def truncate(mean, eta, w_ext, preferred, rank, what):
    """Spherical belief from the top-``rank`` singular pairs of ``w_ext``;
    zero directions are refilled from ``preferred``. A basis that fails the
    orthonormality check raises NumericalDegeneracyError naming ``what``."""
    s, u = thin_svd(w_ext)
    lam = s[:rank]
    basis = complete_basis(u[:, :rank][:, lam > 0], preferred, rank)
    try:
        return SphericalBelief(mean, eta, basis, lam)
    except ValueError as exc:
        raise NumericalDegeneracyError(f"spherical {what}: {exc}") from exc


def update_svd(belief_pred, lin, y, cfg):
    """Full-SVD update: new basis from the top-L singular pairs of the
    extended factor. ``eta`` is left untouched by the data."""
    mean, w_ext = _posterior_mean(belief_pred, lin, y)
    return truncate(mean, belief_pred.eta, w_ext, belief_pred.basis, cfg.rank, "update_svd")


def svd_orth(lam, basis, grads, rng_seed):
    """Projection-based replacement for the truncated SVD.

    Visits the columns of ``grads``, the whitened transposed Jacobian
    (``Linearization.whitened_jacobian_t``, P x C), in a seeded
    random order; each is projected onto the complement of the active
    basis (columns whose singular value is > 0) and replaces the
    weakest slot when its residual norm is strictly larger than the
    current minimum singular value. Returns (lam, basis) sorted
    non-increasing; the basis stays orthonormal.
    """
    lam = np.array(lam, dtype=float, copy=True)
    basis = np.array(basis, dtype=float, copy=True)
    rng = np.random.default_rng(rng_seed)
    for j in rng.permutation(grads.shape[1]):
        g = grads[:, j]
        active = lam > 0
        if np.any(active):
            ua = basis[:, active]
            v = g - ua @ (ua.T @ g)
        else:
            v = g
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
    """Same mean update as :func:`update_svd`; basis via :func:`svd_orth`."""
    mean, _ = _posterior_mean(belief_pred, lin, y)
    lam, basis = svd_orth(
        belief_pred.singular_values, belief_pred.basis, lin.whitened_jacobian_t, rng_seed
    )
    return SphericalBelief(mean, belief_pred.eta, basis, lam)
