"""Stateful learner adapters shared by the run harness and the bandit loop.

A learner owns its belief (or parameter vector) and exposes two calls:

* ``predict(x)`` is read only. It applies the same inflation and drift the
  next observe() will apply, then returns a :class:`PredictOutput` with the
  one-step-ahead prediction and, for Bayesian learners, the predicted
  belief.
* ``observe(x, y)`` consumes one labeled example and advances the state.

Every filter, the diagonal EKFs included, is a Bayesian learner: it
supplies ``_predict_belief`` and ``_update`` and computes its predicted
belief once per state. The belief returned by ``predicted_belief()`` is
cached and shared by ``predict()``, ``observe()`` and the bandit agent's
``act()`` and ``learn()`` until the state changes, and so is the network
pass ``predict()`` makes, which ``observe()`` linearizes from. Every state
change goes through ``_commit``, which drops both.

The module-level ``REGISTRY`` maps each method tag to its factory and
capabilities; the config keys each method reads are in :mod:`lrkf.schema`.
"""

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import baselines, diagonal, spherical
from .inflation import InflationConfig, LatentPrior, inflate_dlr, inflate_spherical
from .models import initialize_mean, linearize
from .schema import defaults


@dataclass(frozen=True)
class PredictOutput:
    """One-step-ahead prediction handed to the metric code."""

    y_hat: np.ndarray
    belief: object = None  # predicted belief when the learner has one


class _BayesianLearner:
    """Shared predict/observe plumbing over predicted beliefs."""

    def __init__(self, model, cfg):
        self.model = model
        self.cfg = cfg
        self.latent = LatentPrior(cfg.dynamics.initial_precision)
        self.t = 0
        self._pred = None
        self._kept = {}  # the network pass of predict(), for observe() to linearize from

    # subclasses: _predict_belief, _update, and _inflate if they inflate

    def _inflate(self, belief):
        return belief

    def predicted_belief(self):
        """Inflated and drifted belief, computed once per learner state."""
        if self._pred is None:
            self._pred = self._predict_belief(self._inflate(self.belief))
        return self._pred

    def predict(self, x):
        pred = self.predicted_belief()
        return PredictOutput(self.model.forward(x, pred.mean, keep=self._kept), pred)

    def apply_update(self, pred, lin, y):
        """Condition on one (possibly masked) linearized observation and
        advance the learner's clock. ``pred`` must come from
        :meth:`predicted_belief` this step."""
        self._commit(self._update(pred, lin, y))

    def observe(self, x, y):
        pred = self.predicted_belief()
        lin = linearize(self.model, x, pred.mean, self._kept)
        self.apply_update(pred, lin, y)

    def _commit(self, belief):
        """Take the posterior, advance the clock, drop the cached prediction and pass."""
        self.belief = belief
        self._pred = None
        self._kept.clear()
        dyn = self.cfg.dynamics
        self.latent.advance(dyn.gamma, dyn.process_noise)
        self.t += 1

    def _inflation_cfg(self):
        """The inflation settings with this step's Gamma product, pulling
        toward the initial mean unless they name a prior mean."""
        cfg = self.cfg.inflation
        if cfg is None:
            return None
        ref = self._init_mean if cfg.prior_mean_ref is None else cfg.prior_mean_ref
        return replace(cfg, prior_mean_ref=ref, gamma_product=self.latent.gamma_product)


class LowRankFilterLearner(_BayesianLearner):
    """Diagonal-plus-low-rank filter."""

    def __init__(self, model, cfg, seed):
        super().__init__(model, cfg)
        self.belief = diagonal.initial_belief(model, cfg, seed)
        self._init_mean = self.belief.mean

    def _inflate(self, belief):
        icfg = self._inflation_cfg()
        return belief if icfg is None else inflate_dlr(belief, icfg, self.latent.eta)

    def _predict_belief(self, belief):
        return diagonal.predict(belief, self.cfg, getattr(self.model, "out_dim", 0))

    def _update(self, pred, lin, y):
        return diagonal.update(pred, lin, y, self.cfg)


class SphericalFilterLearner(_BayesianLearner):
    """Spherical low-rank filter; ``mode`` picks the SVD or projection update."""

    def __init__(self, model, cfg, seed, mode="svd"):
        super().__init__(model, cfg)
        self.mode = mode
        self.belief = spherical.initial_belief(model, cfg, seed)
        self._init_mean = self.belief.mean

    def _inflate(self, belief):
        icfg = self._inflation_cfg()
        return belief if icfg is None else inflate_spherical(belief, icfg)

    def _predict_belief(self, belief):
        return spherical.predict(belief, self.cfg)

    def _update(self, pred, lin, y):
        if self.mode == "orth":
            return spherical.update_orth(pred, lin, y, self.cfg, rng_seed=self.t)
        return spherical.update_svd(pred, lin, y, self.cfg)


class DenseFilterLearner(_BayesianLearner):
    """Full-covariance EKF, optionally with iterated relinearization."""

    def __init__(self, model, cfg, seed, iterated=None):
        super().__init__(model, cfg)
        self.iterated = iterated
        mean = initialize_mean(model.spec, seed)
        cov = np.eye(mean.size) / cfg.dynamics.initial_precision
        self.belief = baselines.DenseCovBelief(mean, cov)

    def _predict_belief(self, belief):
        return baselines.dense_predict(belief, self.cfg.dynamics)

    def _update(self, pred, lin, y):
        return baselines.dense_update(pred, lin, y)

    def observe(self, x, y):
        if self.iterated is None:
            super().observe(x, y)
            return
        pred = self.predicted_belief()
        self._commit(baselines.iterated_ekf_update(pred, self.model, x, y, self.iterated))


class IteratedSphericalLearner(SphericalFilterLearner):
    """Spherical low-rank filter with iterated line-searched updates."""

    def __init__(self, model, cfg, seed, iterated):
        super().__init__(model, cfg, seed)
        self.iterated = iterated

    def observe(self, x, y):
        pred = self.predicted_belief()
        self._commit(baselines.iterated_lowrank_update(
            pred, self.model, x, y, self.iterated, rank=self.cfg.rank
        ))


class DiagonalEkfLearner(_BayesianLearner):
    """VDEKF or FDEKF baseline: the rank-0 belief with a diagonal update."""

    def __init__(self, model, dyn, seed, flavor="vdekf"):
        super().__init__(model, diagonal.LowRankConfig(0, dyn))
        self.flavor = flavor
        self.belief = diagonal.initial_belief(model, self.cfg, seed)

    def _predict_belief(self, belief):
        return baselines.diagonal_predict(belief, self.cfg.dynamics)

    def _update(self, pred, lin, y):
        # read off the module at call time, so a wrapper installed there runs
        step = baselines.vdekf_step if self.flavor == "vdekf" else baselines.fdekf_step
        return step(pred, lin, y)

    # perfbench/tracing.py traces the predict and observe that each listed
    # class defines itself; aliases keep them here as one span per call,
    # where a super() call would nest a second span.
    predict = _BayesianLearner.predict
    observe = _BayesianLearner.observe


class SgdReplayLearner:
    """SGD or Adam over a FIFO replay buffer. Point estimate only."""

    def __init__(self, model, seed, buffer_size=10, optimizer="sgd", lr=0.01, inner_iters=1):
        self.model = model
        self.params = initialize_mean(model.spec, seed)
        self.buffer = baselines.ReplayBuffer(buffer_size)
        if optimizer == "sgd":
            self.optimizer = baselines.Sgd(lr)
        elif optimizer == "adam":
            self.optimizer = baselines.Adam(lr)
        else:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        self.inner_iters = inner_iters

    def predict(self, x):
        return PredictOutput(self.model.forward(x, self.params))

    def observe(self, x, y):
        self.params = baselines.sgd_replay_step(
            self.params, self.buffer, x, y, self.optimizer,
            partial(baselines.nll_gradient, self.model), self.inner_iters,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _dyn(p):
    return diagonal.DynamicsConfig(
        p["gamma"], p["process_noise"], p["initial_precision"], p["steady_state"]
    )


def _lowrank_cfg(p):
    inflation = None if p["inflation"] == "none" else InflationConfig(
        p["inflation_alpha"], p["inflation"]
    )
    return diagonal.LowRankConfig(p["rank"], _dyn(p), inflation)


def _iterated(p):
    return baselines.IteratedConfig(p["iterations"], p["linesearch_grid"])


# A registry entry: ``factory(model, params, seed)`` builds the learner from
# params that hold every [method] key; ``masked``: it conditions on one
# chosen output head, so lrkf bandit can drive it; ``sampler``: it has a
# posterior to draw from (nlpd, thompson).
Method = namedtuple("Method", "factory masked sampler")

REGISTRY = {  # tag: Method(factory, masked, sampler)
    "lrekf": Method(lambda m, p, s: LowRankFilterLearner(m, _lowrank_cfg(p), s), True, True),
    "lrekf_spherical": Method(
        lambda m, p, s: SphericalFilterLearner(m, _lowrank_cfg(p), s, p["update"]), True, True),
    "fcekf": Method(lambda m, p, s: DenseFilterLearner(m, _lowrank_cfg(p), s), True, False),
    "iekf": Method(
        lambda m, p, s: DenseFilterLearner(m, _lowrank_cfg(p), s, _iterated(p)), False, False),
    "ilrekf": Method(
        lambda m, p, s: IteratedSphericalLearner(m, _lowrank_cfg(p), s, _iterated(p)), False, True),
    "vdekf": Method(lambda m, p, s: DiagonalEkfLearner(m, _dyn(p), s, "vdekf"), False, True),
    "fdekf": Method(lambda m, p, s: DiagonalEkfLearner(m, _dyn(p), s, "fdekf"), False, True),
    "sgd_rb": Method(lambda m, p, s: SgdReplayLearner(
        m, s, p["buffer_size"], p["optimizer"], p["lr"], p["inner_iters"]), True, False),
    "ogd": Method(lambda m, p, s: SgdReplayLearner(
        m, s, 1, p["optimizer"], p["lr"], p["inner_iters"]), True, False),
}


def build_learner(tag, model, params, seed):
    """The ``tag`` learner; keys ``params`` leaves out take their schema default."""
    if tag not in REGISTRY:
        raise ValueError(f"unknown method {tag!r}; valid: {sorted(REGISTRY)}")
    return REGISTRY[tag].factory(model, {**defaults("method"), **params}, seed)
