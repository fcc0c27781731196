import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lrkf import baselines, belief, diagonal, linalg, spherical
from lrkf.bandit import (
    FilterBanditAgent,
    env_from_stream,
    masked_reward_linearization,
    run_bandit,
)
from lrkf.exceptions import NumericalDegeneracyError
from lrkf.inflation import InflationConfig, LatentPrior, inflate_dlr, inflate_spherical
from lrkf.learners import REGISTRY, build_learner
from lrkf.models import CategoricalFamily, GaussianFamily, MlpModel, MlpSpec, linearize
from lrkf.predictive import gaussian_predict, mc_predict, probit_predict
from lrkf.streams import (
    PiecewiseSineSpec,
    gen_piecewise_sine,
    gen_synthetic_classification,
    prequential_eval,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PARAMS = {"rank": 3, "process_noise": 1e-4, "inflation": "hybrid", "inflation_alpha": 0.05}


@pytest.fixture
def count_diagonal_predict(monkeypatch):
    calls = []
    real = diagonal.predict

    def counting(belief, cfg, out_dim=0):
        calls.append(1)
        return real(belief, cfg, out_dim)

    monkeypatch.setattr(diagonal, "predict", counting)
    return calls


@pytest.fixture
def count_mlp_passes(monkeypatch):
    """Network passes by kind: ``forward`` calls, and every pass of the
    layer loop (forward, batched Monte Carlo forward or Jacobian)."""
    calls = {"forward": 0, "passes": 0}
    real_forward, real_pass = MlpModel.forward, MlpModel._pass

    def forward(self, x, theta, **kwargs):
        calls["forward"] += 1
        return real_forward(self, x, theta, **kwargs)

    def layer_pass(self, x, layers):
        calls["passes"] += 1
        return real_pass(self, x, layers)

    monkeypatch.setattr(MlpModel, "forward", forward)
    monkeypatch.setattr(MlpModel, "_pass", layer_pass)
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


@pytest.mark.parametrize("tag", ["lrekf", "iekf", "ilrekf", "vdekf", "fdekf"])
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


def assert_same_belief(got, want):
    assert type(got) is type(want)
    assert vars(got).keys() == vars(want).keys()
    for key, value in vars(got).items():
        np.testing.assert_array_equal(value, vars(want)[key])


@pytest.mark.parametrize("variant", ["bayesian", "hybrid", "simple"])
@pytest.mark.parametrize("tag", ["lrekf", "lrekf_spherical"])
def test_inflating_learner_matches_hand_composed_steps(tag, variant):
    # inflation reads the learner's latent prior, advanced once per update,
    # and its initial mean; gamma < 1 makes the Gamma product move
    model, events = sine_setup()
    params = {"rank": 3, "gamma": 0.99, "process_noise": 1e-4,
              "inflation": variant, "inflation_alpha": 0.05}
    learner = build_learner(tag, model, params, seed=0)
    dyn = diagonal.DynamicsConfig(0.99, 1e-4)
    cfg = diagonal.LowRankConfig(3, dyn, InflationConfig(0.05, variant))
    b = (diagonal if tag == "lrekf" else spherical).initial_belief(model, cfg, 0)
    mu0, latent = b.mean, LatentPrior(dyn.initial_precision)
    for ev in events[:20]:
        y_hat = learner.predict(ev.x).y_hat
        learner.observe(ev.x, ev.y)
        if tag == "lrekf":
            pred = diagonal.predict(inflate_dlr(b, cfg.inflation, latent, mu0), cfg, model.out_dim)
            lin = linearize(model, ev.x, pred.mean)
            b = diagonal.update(pred, lin, ev.y, cfg)
        else:
            pred = spherical.predict(inflate_spherical(b, cfg.inflation, latent, mu0), cfg)
            lin = linearize(model, ev.x, pred.mean)
            b = spherical.update_svd(pred, lin, ev.y, cfg)
        latent.advance(dyn.gamma, dyn.process_noise)
        np.testing.assert_array_equal(y_hat, lin.y_hat)
        assert_same_belief(learner.belief, b)
    assert latent.gamma_product < 1.0


@pytest.mark.parametrize("tag", ["vdekf", "fdekf"])
def test_diagonal_ekf_is_rank_zero_predict_then_its_gain_form_step(tag):
    model, events = sine_setup()
    learner = build_learner(tag, model, {"gamma": 0.99, "process_noise": 1e-4}, seed=0)
    cfg = diagonal.LowRankConfig(0, diagonal.DynamicsConfig(0.99, 1e-4))
    step = baselines.vdekf_step if tag == "vdekf" else baselines.fdekf_step
    b = diagonal.initial_belief(model, cfg, 0)
    for ev in events[:20]:
        y_hat = learner.predict(ev.x).y_hat
        learner.observe(ev.x, ev.y)
        pred = diagonal.predict(b, cfg)
        lin = linearize(model, ev.x, pred.mean)
        b = step(pred, lin, ev.y)
        np.testing.assert_array_equal(y_hat, lin.y_hat)
        assert_same_belief(learner.belief, b)


@pytest.mark.parametrize("kind", ["categorical", "bandit"])
def test_held_predicted_belief_keeps_its_bits(kind):
    # the update writes the whitened Jacobian into the spare columns of the
    # array that holds the predicted factor; a held predicted belief (nlpd's
    # PredictOutput.belief, the Thompson draw's predicted_belief()) keeps its
    # bits through that update and the next one
    events = gen_synthetic_classification(2, in_dim=3, num_classes=4, seed=0)
    family = CategoricalFamily() if kind == "categorical" else GaussianFamily(0.25)
    model = MlpModel(MlpSpec((3, 5, 4)), family)
    learner = build_learner("lrekf", model, PARAMS, seed=0)
    agent = FilterBanditAgent(learner)
    held = learner.predict(events[0].x).belief
    spare = held.low_rank.base[:, 3:]
    assert spare.shape == (model.parameter_count, 4)
    bits = [a.copy() for a in (held.mean, held.diag_precision, held.low_rank)]
    for t, ev in enumerate(events):
        if kind == "categorical":
            learner.observe(ev.x, ev.y)
            lin = linearize(model, ev.x, held.mean)
        else:
            agent.learn(ev.x, 2, 1.0)
            lin = masked_reward_linearization(model, ev.x, held.mean, 2)
        if t == 0:  # the update wrote the spare columns, and kept none of them
            c = lin.jacobian.shape[0]
            np.testing.assert_array_equal(spare[:, :c], lin.whitened_jacobian_t)
            assert not np.shares_memory(learner.belief.low_rank, held.low_rank.base)
        for now, before in zip((held.mean, held.diag_precision, held.low_rank), bits):
            np.testing.assert_array_equal(now, before)


@pytest.mark.parametrize("tag", ["lrekf", "lrekf_spherical", "vdekf", "fdekf", "fcekf"])
def test_prequential_eval_runs_one_mlp_pass_per_event(count_mlp_passes, tag):
    # one forward for the prediction; the linearization's Jacobian reuses
    # that pass
    model, events = sine_setup()
    params = {"lrekf": PARAMS, "lrekf_spherical": {"rank": 3, "process_noise": 1e-4}}.get(
        tag, {"process_noise": 1e-4})
    prequential_eval(build_learner(tag, model, params, seed=0), events, ("rmse", "nll"))
    assert count_mlp_passes == {"forward": len(events), "passes": len(events)}


@pytest.mark.parametrize("tag, forward, passes", [("iekf", 260, 320), ("ilrekf", 230, 290)])
def test_iterated_filters_linearize_first_from_the_predict_pass(count_mlp_passes, tag,
                                                               forward, passes):
    # per event: the prediction's forward, whose kept pass is the first
    # linearization, a pass per later relinearization, a forward for the
    # predicted mean's energy and one per line-search energy of a moved
    # mean; a fresh first linearization would add 30 passes
    model, events = sine_setup()
    learner = build_learner(tag, model, {"rank": 3, "process_noise": 1e-4}, seed=0)
    prequential_eval(learner, events, ("rmse", "nll"))
    assert count_mlp_passes == {"forward": forward, "passes": passes}


def test_vdekf_builds_two_beliefs_per_event(monkeypatch):
    # the predicted belief, shared by predict and observe, and the
    # posterior; observe used to build its own prediction too
    from lrkf.baselines import DiagonalBelief

    built = []
    for cls in (belief.DlrBelief, DiagonalBelief):
        real = cls.__dict__["__post_init__"]
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, real=real: built.append(self) or real(self))
    model, events = sine_setup()
    learner = build_learner("vdekf", model, {"process_noise": 1e-4}, seed=0)
    built.clear()
    prequential_eval(learner, events, ("rmse", "nll", "nlpd"), nlpd_samples=4)
    assert len({id(b) for b in built}) == 2 * len(events)


def test_nlpd_adds_one_batched_pass_per_event(count_mlp_passes):
    model, events = sine_setup()
    learner = build_learner("lrekf", model, PARAMS, seed=0)
    prequential_eval(learner, events, ("rmse", "nll", "nlpd"), nlpd_samples=8)
    assert count_mlp_passes == {"forward": 2 * len(events), "passes": 2 * len(events)}


def test_categorical_linearization_is_one_pass(count_mlp_passes):
    events = gen_synthetic_classification(20, in_dim=3, num_classes=3, seed=0)
    count_mlp_passes.update(forward=0, passes=0)  # the stream's teacher network ran
    model = MlpModel(MlpSpec((3, 6, 3)), CategoricalFamily())
    prequential_eval(build_learner("lrekf", model, PARAMS, seed=0), events, ("nll", "misclass"))
    assert count_mlp_passes == {"forward": 20, "passes": 20}


@pytest.mark.parametrize("tag", ["lrekf", "lrekf_spherical", "vdekf"])
def test_observe_after_x_changed_in_place_linearizes_afresh(count_mlp_passes, tag):
    # the pass predict() kept is at the old bytes of x; observe() must not
    # reuse it, and ends where a learner that predicted at the new x ends
    model, events = sine_setup()
    params = {"lrekf": PARAMS, "lrekf_spherical": {"rank": 3, "process_noise": 1e-4},
              "vdekf": {"process_noise": 1e-4}}[tag]
    changed, reference = (build_learner(tag, model, params, seed=0) for _ in range(2))
    for ev in events[:5]:
        x = ev.x.copy()
        changed.predict(x)
        x += 0.5
        reference.predict(x.copy())
        changed.observe(x, ev.y)
        reference.observe(x.copy(), ev.y)
        for key, value in vars(changed.belief).items():
            np.testing.assert_array_equal(value, vars(reference.belief)[key])
    # a forward per learner and event, and a fresh pass per changed observe()
    assert count_mlp_passes == {"forward": 10, "passes": 15}


def test_bandit_runs_two_mlp_passes_per_step(count_mlp_passes):
    # one forward under the Thompson draw, one pass for the masked linearization
    events = gen_synthetic_classification(40, in_dim=3, num_classes=3, seed=0)
    count_mlp_passes.update(forward=0, passes=0)  # the stream's teacher network ran
    env = env_from_stream(events, 3)
    model = MlpModel(MlpSpec((3, 6, 3)), GaussianFamily(0.25))
    agent = FilterBanditAgent(build_learner("lrekf", model, PARAMS, seed=0))
    run_bandit(env, agent, "thompson", 40, seed=0)
    assert count_mlp_passes == {"forward": 40, "passes": 80}


def test_bandit_runs_one_thin_svd_per_step(monkeypatch):
    # bandit.ini's size, P = 229: the Thompson draw takes no SVD, so the
    # masked update's truncation is the only one
    calls = []

    def counting(w):
        calls.append(w.shape)
        return linalg.thin_svd(w)

    for module in (belief, diagonal, spherical):  # belief imports none today
        monkeypatch.setattr(module, "thin_svd", counting, raising=False)
    events = gen_synthetic_classification(25, in_dim=8, num_classes=5, seed=0)
    model = MlpModel(MlpSpec((8, 16, 5)), GaussianFamily(0.25))
    assert model.parameter_count == 229
    agent = FilterBanditAgent(build_learner("lrekf", model, PARAMS, seed=0))
    run_bandit(env_from_stream(events, 5), agent, "thompson", 25, seed=0)
    assert len(calls) == 25


def test_runtime_decompositions_bypass_numpy_linalg(monkeypatch):
    # every eigh, inv, cholesky and solve of a runtime path is one of
    # linalg's entries, which call numpy's gufuncs without np.linalg
    def refuse(*args, **kwargs):
        raise AssertionError("a runtime path called np.linalg")

    for name in ("eigh", "inv", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for tag in REGISTRY:
        model, events = sine_setup()
        prequential_eval(build_learner(tag, model, {}, seed=0), events[:2], ("rmse", "nll"))
    events = gen_synthetic_classification(2, in_dim=3, num_classes=3, seed=0)
    model = MlpModel(MlpSpec((3, 6, 3)), CategoricalFamily())
    learner = build_learner("lrekf", model, PARAMS, seed=0)
    prequential_eval(learner, events, ("nll", "misclass"))
    probit_predict(learner.belief, model, events[0].x)
    bandit_model = MlpModel(MlpSpec((3, 6, 3)), GaussianFamily(0.25))
    agent = FilterBanditAgent(build_learner("lrekf", bandit_model, PARAMS, seed=0))
    run_bandit(env_from_stream(events, 3), agent, "thompson", 1, seed=0)
    # C = 2, so the residual whitening is a stacked solve
    model = MlpModel(MlpSpec((1, 6, 2)), GaussianFamily(0.04))
    learner = build_learner("lrekf", model, PARAMS, seed=0)
    x, y = np.array([0.3]), np.array([0.1, -0.2])
    learner.observe(x, y)
    mc_predict(learner.belief, model, x, y, n_samples=4, rng_seed=0)
    gaussian_predict(learner.belief, linearize(model, x, learner.belief.mean)).nll(y)


@pytest.mark.parametrize("tag, update", [
    ("lrekf", None), ("lrekf_spherical", "svd"), ("lrekf_spherical", "orth"), ("fcekf", None),
    ("iekf", None), ("ilrekf", None), ("vdekf", None), ("fdekf", None),
])
def test_nan_target_fails_the_update(tag, update):
    # every update checks its innovation, so a NaN target fails the step
    # that met it instead of leaking into the mean or a later step
    model, events = sine_setup()
    params = {"rank": 3, "process_noise": 1e-4}
    if update is not None:
        params["update"] = update
    learner = build_learner(tag, model, params, seed=0)
    learner.observe(events[0].x, events[0].y)
    with pytest.raises(NumericalDegeneracyError, match="non-finite innovation"):
        learner.observe(events[1].x, np.array([np.nan]))


def test_traced_vdekf_reaches_each_layer_once_per_event():
    # perfbench's --trace 1 wraps vdekf_step on its module and each class's
    # own predict and observe; the diagonal EKF must reach each once per event
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    model, events = sine_setup()
    learner = build_learner("vdekf", model, {"process_noise": 1e-4}, seed=0)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        prequential_eval(learner, events, ("rmse", "nll"))
    finally:
        tracing.uninstall(undo)
    calls = Counter(span[0] for span in tracer.spans)
    for name in ("baselines.vdekf_step", "learners.predict", "learners.observe"):
        assert calls[name] == len(events), name
