import numpy as np
import pytest

from lrkf.bandit import (
    BanditEnv,
    FilterBanditAgent,
    SgdBanditAgent,
    env_from_stream,
    epsilon_greedy_act,
    run_bandit,
    thompson_act,
)
from lrkf.belief import DlrBelief
from lrkf.diagonal import DynamicsConfig, LowRankConfig
from lrkf.learners import LowRankFilterLearner, SgdReplayLearner
from lrkf.models import FunctionModel, GaussianFamily, MlpModel, MlpSpec
from lrkf.streams import gen_synthetic_classification


def linear_reward_model(d, a):
    # expected reward per action: theta reshaped (a, d) @ x
    return FunctionModel(
        lambda x, th: th.reshape(a, d) @ x,
        lambda x, th: np.kron(np.eye(a), x),
        GaussianFamily(0.25),
        parameter_count=a * d,
    )


class TestPolicies:
    def test_point_mass_thompson_equals_greedy(self):
        model = linear_reward_model(2, 3)
        theta = np.array([1.0, 0.0, 0.0, 1.0, -1.0, -1.0])
        # essentially a point mass
        b = DlrBelief(theta, np.full(6, 1e18), np.zeros((6, 0)))
        x = np.array([1.0, 0.5])
        greedy = int(np.argmax(model.forward(x, theta)))
        for seed in range(20):
            assert thompson_act(b, model, x, seed) == greedy

    def test_single_action(self):
        model = linear_reward_model(2, 1)
        b = DlrBelief(np.zeros(2), np.ones(2), np.zeros((2, 0)))
        assert thompson_act(b, model, np.ones(2), 0) == 0

    def test_thompson_matches_hand_computed_draw(self):
        model = linear_reward_model(1, 2)
        b = DlrBelief(np.zeros(2), np.array([4.0, 1.0]), np.zeros((2, 0)))
        x = np.array([1.0])
        seed = 3
        theta = b.mean + np.random.default_rng(seed).standard_normal((1, 2))[0] / np.array([2.0, 1.0])
        expected = int(np.argmax(theta))
        assert thompson_act(b, model, x, seed) == expected

    def test_epsilon_zero_is_pure_greedy(self):
        model = linear_reward_model(2, 3)
        theta = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        x = np.array([1.0, 1.0])
        for seed in range(20):
            assert epsilon_greedy_act(theta, model, x, 0.0, seed) == 1

    def test_epsilon_one_is_uniform(self):
        model = linear_reward_model(2, 4)
        theta = np.zeros(8)
        x = np.ones(2)
        n = 10_000
        counts = np.bincount(
            [epsilon_greedy_act(theta, model, x, 1.0, s) for s in range(n)], minlength=4
        )
        # 3 sigma band around n/4 for a multinomial count
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 3 * sigma)

    def test_epsilon_validation(self):
        model = linear_reward_model(1, 2)
        with pytest.raises(ValueError):
            epsilon_greedy_act(np.zeros(2), model, np.ones(1), 1.5, 0)


class _OraclePolicyAgent:
    """Cheats by reading the environment's labels. For bounds tests only."""

    def __init__(self, env):
        self.env = env
        self.t = 0

    def act(self, x, policy, epsilon, seed):
        return int(self.env.true_labels[self.t])

    def learn(self, x, action, reward):
        self.t += 1


class _RandomAgent:
    def __init__(self, num_actions):
        self.num_actions = num_actions

    def act(self, x, policy, epsilon, seed):
        return int(np.random.default_rng(seed).integers(self.num_actions))

    def learn(self, x, action, reward):
        pass


class TestRunBandit:
    def _env(self, steps=400, actions=4, seed=0):
        events = gen_synthetic_classification(steps, in_dim=3, num_classes=actions, seed=seed)
        return env_from_stream(events, actions)

    def test_oracle_policy_gets_full_reward(self):
        env = self._env()
        rewards = run_bandit(env, _OraclePolicyAgent(env), "greedy", 400, seed=0)
        assert rewards.sum() == 400

    def test_random_policy_near_one_over_a(self):
        env = self._env(steps=2000)
        rewards = run_bandit(env, _RandomAgent(4), "greedy", 2000, seed=1)
        expected = 2000 / 4
        sigma = np.sqrt(2000 * 0.25 * 0.75)
        assert abs(rewards.sum() - expected) < 3 * sigma

    def test_filter_agent_learns_and_is_reproducible(self):
        env = self._env(steps=300, actions=3, seed=5)
        model = MlpModel(MlpSpec((3, 16, 3), activation="tanh"), GaussianFamily(0.25))
        cfg = LowRankConfig(rank=5, dynamics=DynamicsConfig(1.0, 1e-4, 1.0))

        def total(seed):
            agent = FilterBanditAgent(LowRankFilterLearner(model, cfg, seed=seed))
            return run_bandit(env, agent, "thompson", 300, seed=seed).sum()

        a, b = total(0), total(0)
        assert a == b
        # learning beats uniform random by a margin
        assert a > 300 / 3 + 3 * np.sqrt(300 * (1 / 3) * (2 / 3))

    def test_sgd_agent_rejects_thompson(self):
        env = self._env(steps=10)
        model = MlpModel(MlpSpec((3, 8, 4), activation="tanh"), GaussianFamily(0.25))
        agent = SgdBanditAgent(SgdReplayLearner(model, seed=0, buffer_size=5, lr=0.05))
        with pytest.raises(ValueError):
            run_bandit(env, agent, "thompson", 10, seed=0)

    def test_sgd_agent_raises_on_a_non_finite_gradient(self):
        from lrkf.exceptions import NumericalDegeneracyError

        env = self._env(steps=10)
        model = MlpModel(MlpSpec((3, 8, 4), activation="tanh"), GaussianFamily(0.25))
        learner = SgdReplayLearner(model, seed=0, buffer_size=5, lr=0.05)
        learner.params = np.full_like(learner.params, np.nan)
        with pytest.raises(NumericalDegeneracyError, match="non-finite gradient"):
            SgdBanditAgent(learner).learn(env.contexts[0], 1, 1.0)

    @pytest.mark.parametrize("optimizer, inner_iters", [("sgd", 1), ("adam", 2)])
    def test_sgd_agent_learn_equals_the_inline_replay_loop(self, optimizer, inner_iters):
        # the agent's own buffer-and-step loop, as written before it shared
        # baselines.sgd_replay_step
        env = self._env(steps=30, actions=4, seed=2)
        model = MlpModel(MlpSpec((3, 8, 4), activation="tanh"), GaussianFamily(0.3))

        def learner():
            return SgdReplayLearner(model, seed=0, buffer_size=5, optimizer=optimizer,
                                    lr=0.05, inner_iters=inner_iters)

        agent, ref = SgdBanditAgent(learner()), learner()
        for t in range(30):
            x, action, reward = env.contexts[t], t % 4, env.reward(t, t % 4)
            agent.learn(x, action, reward)
            ref.buffer.append(x, np.array([action, reward]))
            for _ in range(inner_iters):
                grads = []
                for bx, ar in ref.buffer:
                    a, r = int(ar[0]), ar[1]
                    values, jac = model.jacobian(bx, ref.params)
                    grads.append(jac[a] * (values[a] - r) / 0.3)
                ref.params = ref.optimizer.step(ref.params, np.mean(grads, axis=0))
        assert len(agent.learner.buffer) == 5
        np.testing.assert_array_equal(agent.learner.params, ref.params)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            BanditEnv(np.zeros((3, 2)), np.array([0, 5, 1]), num_actions=3)

    def test_default_epsilon_is_a_tenth(self):
        import inspect

        from lrkf.schema import defaults

        assert inspect.signature(run_bandit).parameters["epsilon"].default == 0.1
        # and the config-driven path defaults to the same value
        assert defaults("bandit")["epsilon"] == 0.1
