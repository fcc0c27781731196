"""Online observation-noise estimation and random-search tuning."""

from dataclasses import dataclass

import numpy as np

from .exceptions import TuningError


def error_rate(t, alpha_min=0.01):
    """The usual decaying learning rate max(alpha_min, 1/t)."""
    return max(alpha_min, 1.0 / max(t, 1))


def update_r_estimate(r_hat, innovation, alpha):
    """Exponential running average of squared prediction errors.

    ``r_hat`` may be a C x C matrix (full covariance estimate, updated
    with the outer product ``e e^T``) or a scalar (updated with
    ``e^T e``). Returns the same shape. A convex combination of PSD
    quantities, so the estimate stays symmetric PSD.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    e = np.atleast_1d(np.asarray(innovation, dtype=float))
    r_hat = np.asarray(r_hat, dtype=float)
    if r_hat.ndim == 0:
        return float((1.0 - alpha) * r_hat + alpha * (e @ e))
    return (1.0 - alpha) * r_hat + alpha * np.outer(e, e)


@dataclass(frozen=True)
class HyperRange:
    """Log-uniform range with an optional point mass.

    With probability ``atom_prob`` the sample is ``atom``; otherwise it
    is drawn log-uniformly from [low, high] (plain uniform when
    ``log=False``). A degenerate range (low == high) is a point.
    """

    low: float
    high: float
    log: bool = True
    atom: float = None
    atom_prob: float = 0.0

    def sample(self, rng):
        if self.atom is not None and rng.random() < self.atom_prob:
            return self.atom
        if self.low == self.high:
            return self.low
        if self.log:
            return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))
        return float(rng.uniform(self.low, self.high))


# Defaults mirroring how the filters are usually tuned: wide log-uniform
# ranges, with point masses at the stationary settings q=0 and gamma=1.
DEFAULT_SPACE = {
    "initial_precision": HyperRange(1e-2, 1e3),
    "process_noise": HyperRange(1e-6, 1e-1, atom=0.0, atom_prob=0.2),
    "gamma": HyperRange(0.95, 1.0, log=False, atom=1.0, atom_prob=0.2),
    "obs_variance": HyperRange(1e-3, 10.0),
}


def random_search_tune(space, budget, objective, seed):
    """Minimize ``objective(params)`` by seeded random search.

    Each trial draws one value per named range with a child seed derived
    from ``(seed, trial index)``, so trials are reproducible and safe to
    evaluate in parallel. Returns ``(best_params, trials)`` where
    ``trials`` is a list of ``{**params, "trial": i, "objective": v}``
    rows; failed trials carry ``inf`` and the error text. Raises
    TuningError if every trial fails.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    trials = []
    best = None
    for i in range(budget):
        rng = np.random.default_rng([seed, i])
        params = {name: rng_range.sample(rng) for name, rng_range in space.items()}
        row = dict(params)
        row["trial"] = i
        try:
            value = float(objective(params))
        except Exception as exc:  # noqa: BLE001 - trial isolation by design
            row["objective"] = float("inf")
            row["error"] = f"{type(exc).__name__}: {exc}"
            trials.append(row)
            continue
        row["objective"] = value
        trials.append(row)
        if np.isfinite(value) and (best is None or value < best["objective"]):
            best = row
    if best is None:
        details = "; ".join(t.get("error", "non-finite objective") for t in trials)
        raise TuningError(f"all {budget} tuning trials failed: {details}")
    return {k: v for k, v in best.items() if k not in ("trial", "objective", "error")}, trials
