import numpy as np
import pytest

from lrkf import diagonal
from lrkf.bandit import FilterBanditAgent, env_from_stream, run_bandit
from lrkf.learners import build_learner
from lrkf.models import GaussianFamily, MlpModel, MlpSpec
from lrkf.streams import (
    PiecewiseSineSpec,
    gen_piecewise_sine,
    gen_synthetic_classification,
    prequential_eval,
)

PARAMS = {"rank": 3, "process_noise": 1e-4, "inflation": "hybrid", "inflation_alpha": 0.05}


@pytest.fixture
def count_diagonal_predict(monkeypatch):
    calls = []
    real = diagonal.predict

    def counting(belief, cfg):
        calls.append(1)
        return real(belief, cfg)

    monkeypatch.setattr(diagonal, "predict", counting)
    return calls


def sine_setup():
    model = MlpModel(MlpSpec((1, 6, 1)), GaussianFamily(0.04))
    events = gen_piecewise_sine(PiecewiseSineSpec(num_tasks=2, steps_per_task=15), seed=0)
    return model, events


def test_prequential_eval_predicts_once_per_event(count_diagonal_predict):
    model, events = sine_setup()
    learner = build_learner("lrekf", model, PARAMS, seed=0)
    xs = np.linspace(-2.0, 2.0, 5)[:, None]
    test_sets = {0: (xs, xs[:, 0]), 1: (xs, xs[:, 0])}
    # test-set scoring every 7 steps reuses the belief the next event predicts with
    prequential_eval(learner, events, ("rmse", "nll", "nlpd"), nlpd_samples=5,
                     test_sets=test_sets, test_every=7)
    assert len(count_diagonal_predict) == len(events) == 30


def test_bandit_predicts_once_per_step(count_diagonal_predict):
    events = gen_synthetic_classification(40, in_dim=3, num_classes=3, seed=0)
    env = env_from_stream(events, 3)
    model = MlpModel(MlpSpec((3, 6, 3)), GaussianFamily(0.25))
    agent = FilterBanditAgent(build_learner("lrekf", model, PARAMS, seed=0))
    run_bandit(env, agent, "thompson", 40, seed=0)
    assert len(count_diagonal_predict) == 40


@pytest.mark.parametrize("tag", ["lrekf", "iekf", "ilrekf"])
def test_observe_drops_the_cached_prediction(tag):
    model, events = sine_setup()
    params = PARAMS if tag == "lrekf" else {"rank": 3, "process_noise": 1e-4}
    learner = build_learner(tag, model, params, seed=0)
    for ev in events[:3]:
        before = learner.predict(ev.x).belief
        assert learner.predicted_belief() is before
        learner.observe(ev.x, ev.y)
        cached = learner.predicted_belief()
        fresh = learner._predict_belief(learner._inflate(learner.belief))
        assert cached is not before
        assert vars(cached).keys() == vars(fresh).keys()
        for key, value in vars(cached).items():
            np.testing.assert_array_equal(value, vars(fresh)[key])
