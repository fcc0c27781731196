"""Dense references the tests compare the filters against."""

from lrkf.baselines import dense_predict, dense_update
from lrkf.models import linearize


def fcekf_step(belief, model, x, y, dyn):
    """One predict+update of the full-covariance EKF.

    Returns the posterior and the pre-update prediction ``y_hat``.
    """
    pred = dense_predict(belief, dyn)
    lin = linearize(model, x, pred.mean)
    return dense_update(pred, lin, y), lin.y_hat
