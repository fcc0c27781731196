"""Stateful learner adapters shared by the run harness and the bandit loop.

A learner owns its belief (or parameter vector) and exposes two calls:

* ``predict(x)`` is read only. It applies the same inflation and drift the
  next observe() will apply, then returns a :class:`PredictOutput` with the
  one-step-ahead prediction and, for Bayesian learners, the predicted
  belief.
* ``observe(x, y)`` consumes one labeled example and advances the state.

Every filter is a Bayesian learner. It hands its initial belief to
``_BayesianLearner.__init__``, which keeps its mean as the prior mean
and starts the latent prior that inflation reads, supplies
``_predict_belief`` and ``_update(pred, lin, y, x)``, and computes its
predicted belief once per state. The diagonal EKFs (vdekf, fdekf) are
rank-0 ``LowRankFilterLearner`` s with their own gain-form update. The
belief returned by ``predicted_belief()`` is cached and shared by
``predict()``, ``observe()`` and the bandit agent's ``act()`` and
``learn()`` until the state changes, and so is the network pass
``predict()`` makes. The one ``observe`` linearizes from that pass, and
the iterated filters relinearize at ``x`` from there. Every state change
goes through ``_commit``, which drops both. Three classes bind
``observe`` (one also ``predict``) again only because perfbench's tracer
pins the names each class defines itself, until ROADMAP item 8 Part B.

The module-level ``REGISTRY`` maps each method tag to its factory and
capabilities; the config keys each method reads are in :mod:`lrkf.schema`.
"""

from collections import namedtuple
from dataclasses import dataclass
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

    def __init__(self, model, cfg, belief):
        self.model = model
        self.cfg = cfg
        self.belief = belief
        self._init_mean = belief.mean  # mu0, the bayesian inflation's target
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

    def apply_update(self, pred, lin, y, x):
        """Condition on one (possibly masked) linearization at ``pred.mean``
        and context ``x``, and advance the learner's clock. ``pred`` must
        come from :meth:`predicted_belief` this step."""
        self._commit(self._update(pred, lin, y, x))

    def observe(self, x, y):
        pred = self.predicted_belief()
        self.apply_update(pred, linearize(self.model, x, pred.mean, self._kept), y, x)

    def _commit(self, belief):
        """Take the posterior, advance the clock, drop the cached prediction and pass."""
        self.belief = belief
        self._pred = None
        self._kept.clear()
        dyn = self.cfg.dynamics
        self.latent.advance(dyn.gamma, dyn.process_noise)
        self.t += 1


class LowRankFilterLearner(_BayesianLearner):
    """Diagonal-plus-low-rank filter."""

    def __init__(self, model, cfg, seed):
        super().__init__(model, cfg, diagonal.initial_belief(model, cfg, seed))

    def _inflate(self, belief):
        return inflate_dlr(belief, self.cfg.inflation, self.latent, self._init_mean)

    def _predict_belief(self, belief):
        return diagonal.predict(belief, self.cfg, getattr(self.model, "out_dim", 0))

    def _update(self, pred, lin, y, x):
        return diagonal.update(pred, lin, y, self.cfg)


class SphericalFilterLearner(_BayesianLearner):
    """Spherical low-rank filter; ``mode`` picks the SVD or projection update."""

    def __init__(self, model, cfg, seed, mode="svd"):
        super().__init__(model, cfg, spherical.initial_belief(model, cfg, seed))
        self.mode = mode

    def _inflate(self, belief):
        return inflate_spherical(belief, self.cfg.inflation, self.latent, self._init_mean)

    def _predict_belief(self, belief):
        return spherical.predict(belief, self.cfg)

    def _update(self, pred, lin, y, x):
        if self.mode == "orth":
            return spherical.update_orth(pred, lin, y, self.cfg, rng_seed=self.t)
        return spherical.update_svd(pred, lin, y, self.cfg)


class DenseFilterLearner(_BayesianLearner):
    """Full-covariance EKF, optionally with iterated relinearization."""

    def __init__(self, model, cfg, seed, iterated=None):
        mean = initialize_mean(model.spec, seed)
        cov = np.eye(mean.size) / cfg.dynamics.initial_precision
        super().__init__(model, cfg, baselines.DenseCovBelief(mean, cov))
        self.iterated = iterated

    def _predict_belief(self, belief):
        return baselines.dense_predict(belief, self.cfg.dynamics)

    def _update(self, pred, lin, y, x):
        if self.iterated is None:
            return baselines.dense_update(pred, lin, y)
        return baselines.iterated_ekf_update(pred, lin, self.model, x, y, self.iterated)

    observe = _BayesianLearner.observe  # a traced name; see the module docstring


class IteratedSphericalLearner(SphericalFilterLearner):
    """Spherical low-rank filter with iterated line-searched updates."""

    def __init__(self, model, cfg, seed, iterated):
        super().__init__(model, cfg, seed)
        self.iterated = iterated

    def _update(self, pred, lin, y, x):
        return baselines.iterated_lowrank_update(
            pred, lin, self.model, x, y, self.iterated, self.cfg.rank)

    observe = _BayesianLearner.observe  # a traced name; see the module docstring


class DiagonalEkfLearner(LowRankFilterLearner):
    """VDEKF or FDEKF baseline: the rank-0 DLR filter with a gain-form update."""

    def __init__(self, model, dyn, seed, flavor="vdekf"):
        super().__init__(model, diagonal.LowRankConfig(0, dyn), seed)
        self.flavor = flavor

    def _update(self, pred, lin, y, x):
        # read off the module at call time, so a wrapper installed there runs
        step = baselines.vdekf_step if self.flavor == "vdekf" else baselines.fdekf_step
        return step(pred, lin, y)

    # traced names; see the module docstring
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
    inflation = InflationConfig(p["inflation_alpha"], p["inflation"])
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
