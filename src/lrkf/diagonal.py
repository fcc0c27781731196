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

Layout: every P x K factor the filter builds (the belief's ``low_rank``,
the extended factor, the singular vectors) is column-contiguous (Fortran
order). The step's memory passes, the row scalings ``ratio[:, None] * W``
and ``U * s`` and the P x K products, then stream whole columns. Over
row-major factors each pass runs P short inner loops of L + C entries,
over a quarter of the step at P = 12,010. The extended factor is built
in place: :func:`predict` writes the predicted factor into the first L
columns of a P x (L + C) array, and :func:`update` writes the whitened
Jacobian into the other C, so the step never copies W next to the
Jacobian. A belief with a row-major factor is accepted and gives the
same result up to rounding; the beliefs returned are column-contiguous.
"""

from dataclasses import dataclass, field

import numpy as np

from .belief import DlrBelief, validated
from .inflation import InflationConfig
from .linalg import cholesky, inv, symmetrize, thin_svd, woodbury_mean
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
    inflation: InflationConfig = InflationConfig()  # the default inflates nothing

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")


def initial_belief(model, cfg, rng_seed):
    """Fresh belief: LeCun-normal mean, precision eta0 * I, zero factor."""
    mean = initialize_mean(model.spec, rng_seed)
    p = mean.shape[0]
    diag = np.full(p, cfg.dynamics.initial_precision)
    return DlrBelief(mean, diag, np.zeros((p, cfg.rank), order="F"))


def predict(belief, cfg, out_dim=0):
    """One-step-ahead belief under the drift model.

    The covariance recursion ``Sigma' = gamma^2 Sigma + q I`` is carried
    out on the precision factors directly: the diagonal updates
    elementwise and the factor is rescaled through the Cholesky factor of
    an L x L core, so no P x P matrix is ever formed.

    The predicted factor is written into the first L columns of one
    column-contiguous P x (L + ``out_dim``) array; :func:`update` fills
    the ``out_dim`` spare columns with the whitened Jacobian, so passing
    the model's output count C saves the update a P x (L + C) copy.
    """
    dyn = cfg.dynamics
    g, q = dyn.gamma, dyn.process_noise
    mean = g * belief.mean
    ups = belief.diag_precision
    ups_pred = 1.0 / (g * g / ups + q)
    w = belief.low_rank
    p, rank = w.shape
    if rank == 0 or g == 0.0:
        ext = np.zeros((p, rank + out_dim), order="F")
        return validated("diagonal predict", DlrBelief, mean, ups_pred, ext[:, :rank])
    ratio = ups_pred / ups
    scaled = ratio[:, None] * w
    core = q * (w.T @ scaled)
    core.flat[:: rank + 1] += 1.0  # I + q W^T scaled, with no identity temporary
    chol = cholesky(symmetrize(inv(core, "predict core inversion")), "Cholesky of predict core")
    ext = np.empty((p, rank + out_dim), order="F")
    w_pred = np.matmul(scaled, g * chol, out=ext[:, :rank])
    return validated("diagonal predict", DlrBelief, mean, ups_pred, w_pred)


def _extended_factor(w, lin):
    """``[W, whitened Jacobian]``, P x (L + C) and column-contiguous.

    When W is the first L columns of a column-contiguous array with at
    least C more columns, as :func:`predict` builds it, ``whitener @
    jacobian`` is written straight into the next C columns and that prefix
    is returned: no copy of W is made. Otherwise (a belief that
    :func:`predict` did not build, or one built with fewer spare columns)
    the two blocks are stacked into a new array.
    """
    p, rank = w.shape
    c = lin.jacobian.shape[0]
    ext = w.base
    if (
        ext is None
        or ext.strides != w.strides
        or ext.shape[0] != p
        or ext.shape[1] < rank + c
        or not ext.flags.f_contiguous
        or not ext.flags.writeable
        or ext.ctypes.data != w.ctypes.data
    ):
        return np.hstack([w, lin.whitened_jacobian_t])
    ext = ext[:, : rank + c]
    np.matmul(lin.whitener, lin.jacobian, out=ext[:, rank:].T)
    return ext


def update(belief_pred, lin, y, cfg):
    """Condition the predicted belief on one observation.

    ``lin`` must be the linearization at ``belief_pred.mean``. The exact
    posterior precision is ``diag(ups) + Wt Wt^T`` where Wt appends the
    whitened Jacobian columns; the returned belief truncates Wt to rank
    ``cfg.rank`` and adds the discarded rows' squares to the diagonal,
    keeping ``diag`` of the precision exact. Wt is the column-contiguous
    array :func:`predict` wrote the predicted factor into, with the
    Jacobian columns written into its spare columns
    (:func:`_extended_factor`). Those columns are scratch that no belief
    views: the predicted belief is left as it was, but two updates of one
    predicted belief must not run at the same time. Which factor has
    spare columns is read from memory, not from who made it: whenever
    ``belief_pred.low_rank`` is the first L columns of a writable
    column-contiguous array with at least C more, columns L to L + C of
    that array are overwritten. That also holds for a caller's
    ``big[:, :L]`` and for a posterior's factor (its dropped singular
    vectors). The singular vectors are scaled in place, and the returned
    factor is a view of their first ``cfg.rank`` columns: no further
    P x K array is allocated.
    """
    innov = lin.innovation(y)
    ups = belief_pred.diag_precision
    w_ext = _extended_factor(belief_pred.low_rank, lin)
    s, u = thin_svd(w_ext)
    mean = woodbury_mean(belief_pred.mean, ups, w_ext, lin.jacobian.T @ lin.apply_r_inv(innov))
    u *= s  # in place: the kept factor and the dropped columns are views
    rank = cfg.rank
    dropped = u[:, rank:]
    ups_new = ups + np.einsum("ij,ij->i", dropped, dropped)
    return validated("diagonal update", DlrBelief, mean, ups_new, u[:, :rank])


def step(belief, x, y, model, cfg):
    """predict, linearize at the predicted mean, update.

    Returns the posterior belief and the prediction ``y_hat`` that was
    made before ``y`` was seen.
    """
    pred = predict(belief, cfg, getattr(model, "out_dim", 0))
    lin = linearize(model, x, pred.mean)
    post = update(pred, lin, y, cfg)
    return post, lin.y_hat
