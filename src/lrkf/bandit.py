"""Contextual bandit harness over a classification stream.

The environment presents a context; the agent picks one of A actions and
receives reward 1 when the action equals the hidden label, else 0. The
reward is modeled as nonlinear Gaussian regression with one output head
per action; after acting, the learner sees only the chosen head's reward,
so the update masks the Jacobian down to that single row.

Policies: Thompson sampling (act greedily under one posterior draw) and
epsilon-greedy (uniform exploration with probability epsilon, otherwise
greedy under the point estimate).
"""

from dataclasses import dataclass

import numpy as np

from .baselines import sgd_replay_step
from .belief import sample_parameters
from .models import Linearization
from .schema import defaults


@dataclass(frozen=True)
class BanditEnv:
    """Contexts with hidden labels and 0/1 reward on a correct guess."""

    contexts: np.ndarray  # (T, D)
    true_labels: np.ndarray  # (T,) ints, never shown to the agent
    num_actions: int

    def __post_init__(self):
        labels = np.asarray(self.true_labels)
        if labels.min() < 0 or labels.max() >= self.num_actions:
            raise ValueError("labels out of range")

    def __len__(self):
        return self.contexts.shape[0]

    def reward(self, t, action):
        return 1.0 if int(action) == int(self.true_labels[t]) else 0.0


def env_from_stream(events, num_actions):
    contexts = np.stack([ev.x for ev in events])
    labels = np.array([int(np.argmax(ev.y)) for ev in events])
    return BanditEnv(contexts, labels, num_actions)


def thompson_act(belief, model, x, seed):
    """Greedy action under a single posterior parameter draw."""
    theta = sample_parameters(belief, 1, seed)[0]
    values = model.forward(x, theta)
    return int(np.argmax(values))  # argmax takes the lowest index on ties


def epsilon_greedy_act(point_estimate, model, x, epsilon, seed):
    """Uniform exploration with probability epsilon, else greedy."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    values = model.forward(x, point_estimate)
    rng = np.random.default_rng(seed)
    if rng.random() < epsilon:
        return int(rng.integers(values.shape[0]))
    return int(np.argmax(values))


def masked_reward_linearization(model, x, mean, action, reward_variance):
    """Linearization of the chosen head as a scalar Gaussian observation."""
    values, jac = model.jacobian(x, mean)
    cov = np.array([[reward_variance]])
    whitener = np.array([[1.0 / np.sqrt(reward_variance)]])
    return Linearization(values[action : action + 1], jac[action : action + 1, :], cov, whitener)


class _Agent:
    """A learner over the reward network and the reward noise it assumes."""

    def __init__(self, learner, reward_variance=defaults("bandit")["reward_variance"]):
        self.learner = learner
        self.reward_variance = reward_variance

    @property
    def model(self):
        return self.learner.model


class FilterBanditAgent(_Agent):
    """Bayesian filter over the reward network; supports both policies."""

    def act(self, x, policy, epsilon, seed):
        pred = self.learner.predicted_belief()
        if policy == "thompson":
            return thompson_act(pred, self.model, x, seed)
        return epsilon_greedy_act(pred.mean, self.model, x, epsilon, seed)

    def learn(self, x, action, reward):
        pred = self.learner.predicted_belief()
        lin = masked_reward_linearization(
            self.model, x, pred.mean, action, self.reward_variance
        )
        self.learner.apply_update(pred, lin, np.array([reward]))


class SgdBanditAgent(_Agent):
    """Point-estimate agent: replay buffer SGD on the chosen head only."""

    def act(self, x, policy, epsilon, seed):
        if policy == "thompson":
            raise ValueError("Thompson sampling needs a posterior; use epsilon_greedy")
        return epsilon_greedy_act(self.learner.params, self.model, x, epsilon, seed)

    def learn(self, x, action, reward):
        learner = self.learner
        learner.params = sgd_replay_step(
            learner.params, learner.buffer, x, np.array([action, reward]), learner.optimizer,
            self._reward_gradient, learner.inner_iters,
        )

    def _reward_gradient(self, x, action_reward, params):
        """Reward NLL gradient of the chosen head; the target is (a, r)."""
        a, r = int(action_reward[0]), action_reward[1]
        values, jac = self.model.jacobian(x, params)
        return jac[a] * (values[a] - r) / self.reward_variance


def run_bandit(env, agent, policy, steps, seed, epsilon=0.1):
    """Play the environment; returns the per-step reward trace.

    The agent never sees the hidden label, only the reward of its own
    action. Per-step policy randomness comes from child seeds of
    ``seed`` so runs are reproducible.
    """
    steps = min(steps, len(env))
    rewards = np.zeros(steps)
    for t in range(steps):
        x = env.contexts[t]
        action = agent.act(x, policy, epsilon, seed=[seed, t])
        r = env.reward(t, action)
        agent.learn(x, action, r)
        rewards[t] = r
    return rewards
