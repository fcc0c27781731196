"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all). Tolerances are fixed here, not configurable. The slowest
tests are the two statistical comparisons (~2 minutes together).

The dataset check (criterion 11) only runs when LRKF_ENERGY_CSV points
at an energy-consumption style CSV (8 numeric features, one target
column named by LRKF_ENERGY_TARGET, default "Y1"); it is skipped
otherwise since the file is not bundled.
"""

import os
import time

import numpy as np
import pytest
from scipy import stats

from lrkf import baselines, diagonal, spherical
from lrkf.belief import DenseCovBelief, DlrBelief, dlr_to_dense
from lrkf.diagonal import DynamicsConfig, LowRankConfig
from lrkf.inflation import InflationConfig, LatentPrior, inflate_dlr, inflate_spherical
from lrkf.learners import (
    DenseFilterLearner,
    DiagonalEkfLearner,
    LowRankFilterLearner,
    SgdReplayLearner,
)
from lrkf.models import (
    FunctionModel,
    GaussianFamily,
    MlpModel,
    MlpSpec,
    initialize_mean,
    linearize,
    softmax,
)
from lrkf.predictive import probit_predict
from lrkf.streams import PiecewiseSineSpec, gen_piecewise_sine, load_csv_regression

from conftest import dense_precision, fd_jacobian, random_dlr, random_spherical, relu_safe_theta


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_01_full_rank_matches_fcekf():
    start = time.time()
    rng = np.random.default_rng(101)
    model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.25))
    p = model.parameter_count
    assert p <= 20
    theta0 = initialize_mean(model.spec, 0)
    dyn = DynamicsConfig(gamma=0.999, process_noise=1e-4, initial_precision=1.0)
    cfg = LowRankConfig(rank=p, dynamics=dyn)
    b_lr = DlrBelief(theta0, np.ones(p), np.zeros((p, p)))
    b_fc = DenseCovBelief(theta0, np.eye(p))
    worst_mean = worst_prec = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        y = np.array([np.sin(x.sum()) + 0.1 * rng.standard_normal()])
        b_lr, _ = diagonal.step(b_lr, x, y, model, cfg)
        b_fc, _ = baselines.fcekf_step(b_fc, model, x, y, dyn)
        worst_mean = max(
            worst_mean,
            np.max(np.abs(b_lr.mean - b_fc.mean)) / max(1.0, np.max(np.abs(b_fc.mean))),
        )
        worst_prec = max(
            worst_prec,
            np.linalg.norm(dense_precision(b_lr) - np.linalg.inv(b_fc.cov))
            / np.linalg.norm(np.linalg.inv(b_fc.cov)),
        )
    elapsed = time.time() - start
    ok = worst_mean < 1e-8 and worst_prec < 1e-8 and elapsed < 10
    report(1, ok, f"mean rel {worst_mean:.2e}, precision rel {worst_prec:.2e}, {elapsed:.1f}s")


def test_02_zero_rank_reduces_to_vdekf():
    start = time.time()
    rng = np.random.default_rng(202)
    model = MlpModel(MlpSpec((2, 4, 1), activation="tanh"), GaussianFamily(0.3))
    p = model.parameter_count
    theta0 = initialize_mean(model.spec, 1)
    dyn = DynamicsConfig(gamma=0.995, process_noise=1e-3, initial_precision=1.0)
    cfg = LowRankConfig(rank=0, dynamics=dyn)
    b_lr = DlrBelief(theta0, np.ones(p), np.zeros((p, 0)))
    b_vd = baselines.DiagonalBelief(theta0, np.ones(p))
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        y = rng.standard_normal(1)
        b_lr, _ = diagonal.step(b_lr, x, y, model, cfg)
        pred = diagonal.predict(b_vd, cfg)
        b_vd = baselines.vdekf_step(pred, linearize(model, x, pred.mean), y)
        worst = max(
            worst,
            np.max(np.abs(b_lr.mean - b_vd.mean)),
            np.max(np.abs(b_lr.diag_precision - b_vd.diag_precision)),
        )
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5
    report(2, ok, f"worst trajectory diff {worst:.2e}, {elapsed:.1f}s")


def test_03_exact_diagonal_over_500_steps():
    start = time.time()
    rng = np.random.default_rng(303)
    model = MlpModel(MlpSpec((2, 6, 2), activation="tanh"), GaussianFamily(0.2))
    p = model.parameter_count
    cfg = LowRankConfig(
        rank=4, dynamics=DynamicsConfig(gamma=0.999, process_noise=1e-3, initial_precision=1.0)
    )
    b = diagonal.initial_belief(model, cfg, rng_seed=3)
    worst = 0.0
    for _ in range(500):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        pred = diagonal.predict(b, cfg)
        lin = linearize(model, x, pred.mean)
        w_ext = np.hstack([pred.low_rank, lin.jacobian.T @ lin.whitener.T])
        diag_untruncated = pred.diag_precision + np.einsum("ij,ij->i", w_ext, w_ext)
        b = diagonal.update(pred, lin, y, cfg)
        diag_truncated = b.diag_precision + np.einsum("ij,ij->i", b.low_rank, b.low_rank)
        worst = max(worst, np.max(np.abs(diag_truncated - diag_untruncated)))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10
    report(3, ok, f"worst diagonal gap {worst:.2e} over 500 steps, {elapsed:.1f}s")


def test_04_conjugate_exactness():
    start = time.time()
    rng = np.random.default_rng(404)
    d, r, eta0 = 3, 0.5, 2.0
    model = FunctionModel(
        lambda x, th: np.array([th @ x]),
        lambda x, th: np.asarray(x, dtype=float).reshape(1, -1),
        GaussianFamily(r),
        parameter_count=d,
    )
    dyn = DynamicsConfig(1.0, 0.0, eta0)
    cfg = LowRankConfig(rank=d, dynamics=dyn)
    b_fc = DenseCovBelief(np.zeros(d), np.eye(d) / eta0)
    b_lr = DlrBelief(np.zeros(d), np.full(d, eta0), np.zeros((d, d)))
    b_ie1 = DenseCovBelief(np.zeros(d), np.eye(d) / eta0)
    b_ie5 = DenseCovBelief(np.zeros(d), np.eye(d) / eta0)
    prec_star = eta0 * np.eye(d)
    info = np.zeros(d)
    for _ in range(30):
        x = rng.standard_normal(d)
        y = np.array([x @ [1.0, -2.0, 0.5] + rng.normal(0, 0.2)])
        b_fc, _ = baselines.fcekf_step(b_fc, model, x, y, dyn)
        b_lr, _ = diagonal.step(b_lr, x, y, model, cfg)
        b_ie1 = baselines.iterated_ekf_update(
            b_ie1, linearize(model, x, b_ie1.mean), model, x, y, baselines.IteratedConfig(1))
        b_ie5 = baselines.iterated_ekf_update(
            b_ie5, linearize(model, x, b_ie5.mean), model, x, y, baselines.IteratedConfig(5))
        prec_star += np.outer(x, x) / r
        info += x * y[0] / r
    mean_star = np.linalg.solve(prec_star, info)
    worst = max(
        np.max(np.abs(b_fc.mean - mean_star)),
        np.max(np.abs(b_lr.mean - mean_star)),
        np.max(np.abs(b_ie1.mean - mean_star)),
        np.max(np.abs(b_ie5.mean - mean_star)),
        np.max(np.abs(np.linalg.inv(b_fc.cov) - prec_star)) / np.max(np.abs(prec_star)),
        np.linalg.norm(dense_precision(b_lr) - prec_star) / np.linalg.norm(prec_star),
        np.max(np.abs(np.linalg.inv(b_ie1.cov) - prec_star)) / np.max(np.abs(prec_star)),
        np.max(np.abs(np.linalg.inv(b_ie5.cov) - prec_star)) / np.max(np.abs(prec_star)),
    )
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 5
    report(4, ok, f"worst deviation from conjugate posterior {worst:.2e}, {elapsed:.1f}s")


def test_05_jacobian_correctness(model_zoo):
    start = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for model in model_zoo:
        for trial in range(3):
            x = rng.standard_normal(model.spec.in_dim)
            theta = relu_safe_theta(model, x, seed=100 + trial)
            _, jac = model.jacobian(x, theta)
            ref = fd_jacobian(model, x, theta)
            scale = np.maximum(np.abs(ref), 1e-6)
            worst = max(worst, np.max(np.abs(jac - ref) / scale))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 5
    report(5, ok, f"worst finite-difference relative error {worst:.2e}, {elapsed:.1f}s")


def test_06_predict_matches_dense_oracle():
    start = time.time()
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        p = int(rng.integers(2, 11))
        rank = int(rng.integers(0, p + 1))
        gamma = float(rng.uniform(0.9, 1.0))
        q = float(rng.uniform(0.0, 0.1))
        cfg = LowRankConfig(rank=rank, dynamics=DynamicsConfig(gamma, q))
        b = random_dlr(p, rank, seed=trial)
        oracle = np.linalg.inv(
            gamma**2 * np.linalg.inv(dense_precision(b)) + q * np.eye(p)
        )
        got = dense_precision(diagonal.predict(b, cfg))
        worst = max(worst, np.linalg.norm(got - oracle) / np.linalg.norm(oracle))
        rank_s = max(rank, 1)
        bs = random_spherical(p, min(rank_s, p), seed=trial)
        oracle_s = np.linalg.inv(
            gamma**2 * np.linalg.inv(dlr_to_dense(bs).precision) + q * np.eye(p)
        )
        got_s = dlr_to_dense(spherical.predict(bs, cfg)).precision
        worst = max(worst, np.linalg.norm(got_s - oracle_s) / np.linalg.norm(oracle_s))
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 5
    report(6, ok, f"worst predict reconstruction error {worst:.2e} over 100 instances, {elapsed:.1f}s")


def test_07_steady_state_eta_drift():
    start = time.time()
    eta0, q = 2.0, 0.01
    gamma = np.sqrt(1.0 - q * eta0)
    dyn = DynamicsConfig(gamma, q, eta0, steady_state=True)
    cfg = LowRankConfig(rank=2, dynamics=dyn)
    b = random_spherical(4, 2, seed=7, eta=eta0)
    for _ in range(10_000):
        b = spherical.predict(b, cfg)
    drift = abs(b.eta - eta0)
    elapsed = time.time() - start
    ok = drift <= 1e-12 and elapsed < 2
    report(7, ok, f"eta drift {drift:.2e} over 10^4 predicts, {elapsed:.1f}s")


def test_08_linesearch_cost_non_increasing():
    start = time.time()
    rng = np.random.default_rng(808)
    model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.4))
    p = model.parameter_count
    violations = 0
    for trial in range(100):
        mean = initialize_mean(model.spec, trial)
        b = DenseCovBelief(mean, np.eye(p) / float(rng.uniform(0.5, 2.0)))
        x = rng.uniform(-2, 2, 2)
        y = rng.standard_normal(1)
        prec_chol = np.linalg.cholesky(np.linalg.inv(b.cov)).T
        lin = linearize(model, x, mean)

        def cost(mu):
            r_obs = lin.whitener @ (y - model.forward(x, mu))
            r_prior = prec_chol @ (b.mean - mu)
            return float(r_obs @ r_obs + r_prior @ r_prior)

        costs = [
            cost(baselines.iterated_ekf_update(b, lin, model, x, y, baselines.IteratedConfig(n)).mean)
            for n in (1, 2, 3, 4)
        ]
        if any(costs[i + 1] > costs[i] + 1e-12 for i in range(3)):
            violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 10
    report(8, ok, f"{violations}/100 instances with increasing cost, {elapsed:.1f}s")


# Frozen configuration for the piecewise-sine comparison: all filters share
# the same drift (gamma=1, q=1e-4, eta0=1) and observation variance; the
# runner-up methods are not individually tuned. OGD uses a fixed standard
# step (5e-2 on the squared error, i.e. lr = 5e-2 * sigma^2 on the NLL).
SINE_SIGMA = 0.05
SINE_SPEC = PiecewiseSineSpec(num_tasks=5, steps_per_task=250, noise_sd=SINE_SIGMA)
SINE_WINDOW = 150


def _sine_squared_errors(builder, seed):
    events = gen_piecewise_sine(SINE_SPEC, seed)
    learner = builder(seed)
    errs = np.zeros(len(events))
    for i, ev in enumerate(events):
        out = learner.predict(ev.x)
        errs[i] = (out.y_hat[0] - ev.y[0]) ** 2
        learner.observe(ev.x, ev.y)
    return errs


def _post_change_rmse(errs):
    steps = SINE_SPEC.steps_per_task
    return float(
        np.mean(
            [
                np.sqrt(errs[k * steps : k * steps + SINE_WINDOW].mean())
                for k in range(1, SINE_SPEC.num_tasks)
            ]
        )
    )


def test_09_sample_efficiency_ordering():
    start = time.time()
    model = MlpModel(MlpSpec((1, 50, 1), activation="tanh"), GaussianFamily(SINE_SIGMA**2))
    dyn = DynamicsConfig(gamma=1.0, process_noise=1e-4, initial_precision=1.0)
    builders = {
        "fcekf": lambda s: DenseFilterLearner(model, LowRankConfig(rank=0, dynamics=dyn), s),
        "lowrank10": lambda s: LowRankFilterLearner(model, LowRankConfig(rank=10, dynamics=dyn), s),
        "vdekf": lambda s: DiagonalEkfLearner(model, dyn, s, "vdekf"),
        "ogd": lambda s: SgdReplayLearner(model, s, buffer_size=1, optimizer="sgd",
                                          lr=5e-2 * SINE_SIGMA**2),
    }
    scores = {
        name: np.array([_post_change_rmse(_sine_squared_errors(b, seed)) for seed in range(10)])
        for name, b in builders.items()
    }
    chain = ["fcekf", "lowrank10", "vdekf", "ogd"]
    pvals = [
        stats.ttest_rel(scores[a], scores[b], alternative="less").pvalue
        for a, b in zip(chain[:-1], chain[1:])
    ]
    elapsed = time.time() - start
    means = ", ".join(f"{m}={scores[m].mean():.3f}" for m in chain)
    ok = all(p < 0.05 for p in pvals) and elapsed < 180
    report(9, ok, f"{means}; p={['%.1e' % p for p in pvals]}, {elapsed:.0f}s")


def test_10_bandit_ordering():
    from lrkf.bandit import FilterBanditAgent, SgdBanditAgent, env_from_stream, run_bandit
    from lrkf.streams import gen_synthetic_classification

    start = time.time()
    actions, steps, in_dim, reward_var = 5, 2000, 8, 0.005
    model = MlpModel(MlpSpec((in_dim, 16, actions), activation="tanh"), GaussianFamily(reward_var))
    cfg = LowRankConfig(rank=10, dynamics=DynamicsConfig(1.0, 1e-4, 50.0))

    def env(seed):
        events = gen_synthetic_classification(steps, in_dim, actions, seed, teacher_widths=())
        return env_from_stream(events, actions)

    totals = {}
    for name, policy, bayes in (
        ("thompson", "thompson", True),
        ("eps_greedy", "epsilon_greedy", True),
        ("sgd_eps", "epsilon_greedy", False),
    ):
        runs = []
        for seed in range(5):
            if bayes:
                agent = FilterBanditAgent(LowRankFilterLearner(model, cfg, seed=seed))
            else:
                agent = SgdBanditAgent(
                    SgdReplayLearner(model, seed=seed, buffer_size=10, optimizer="adam", lr=0.01)
                )
            runs.append(run_bandit(env(seed), agent, policy, steps, seed, epsilon=0.1).sum())
        totals[name] = float(np.mean(runs))
    elapsed = time.time() - start
    ok = (
        totals["thompson"] > totals["eps_greedy"] > totals["sgd_eps"]
        and elapsed < 180
    )
    report(10, ok, f"mean rewards {totals}, {elapsed:.0f}s")


@pytest.mark.skipif(
    "LRKF_ENERGY_CSV" not in os.environ,
    reason="energy-shaped CSV not supplied (set LRKF_ENERGY_CSV)",
)
def test_11_energy_dataset_rmse():
    start = time.time()
    path = os.environ["LRKF_ENERGY_CSV"]
    target = os.environ.get("LRKF_ENERGY_TARGET", "Y1")
    train, (x_test, y_test) = load_csv_regression(path, target, split_seed=0)
    # the reference interval is in raw units; recover the train-split scale
    raw_train, _ = load_csv_regression(path, target, standardize=False, split_seed=0)
    y_sd = np.std([ev.y[0] for ev in raw_train])
    model = MlpModel(
        MlpSpec((train[0].x.shape[0], 50, 1), activation="relu"), GaussianFamily(0.05)
    )
    dyn = DynamicsConfig(1.0, 0.0, 1.0)
    learner = DenseFilterLearner(model, LowRankConfig(rank=0, dynamics=dyn), seed=0)
    for ev in train:
        learner.observe(ev.x, ev.y)
    preds = np.array([model.forward(x, learner.belief.mean)[0] for x in x_test])
    rmse = float(np.sqrt(np.mean((preds - y_test) ** 2))) * y_sd
    elapsed = time.time() - start
    ok = abs(rmse - 1.58) <= 0.75 and elapsed < 60
    report(11, ok, f"single-pass full-covariance RMSE {rmse:.3f} vs 1.58 +/- 0.75, {elapsed:.0f}s")


def test_12_probit_invariants():
    start = time.time()
    logits = np.array([2.0, 0.5, -1.0, 0.0])
    model = FunctionModel(
        lambda x, th: th, lambda x, th: np.eye(4),
        family=__import__("lrkf.models", fromlist=["CategoricalFamily"]).CategoricalFamily(),
        parameter_count=4,
    )

    def entropy(p):
        return float(-np.sum(p * np.log(p)))

    worst_norm = 0.0
    last_entropy = None
    monotone = True
    for v in (1e-9, 1e-3, 0.1, 1.0, 10.0, 1e3):
        b = DlrBelief(logits, np.full(4, 1.0 / v), np.zeros((4, 0)))
        probs = probit_predict(b, model, np.zeros(1))
        worst_norm = max(worst_norm, abs(probs.sum() - 1.0))
        h = entropy(probs)
        if last_entropy is not None and h < last_entropy - 1e-12:
            monotone = False
        last_entropy = h
    tight = DlrBelief(logits, np.full(4, 1e18), np.zeros((4, 0)))
    plugin_gap = np.max(np.abs(probit_predict(tight, model, np.zeros(1)) - softmax(logits)))
    elapsed = time.time() - start
    ok = worst_norm <= 1e-12 and monotone and plugin_gap < 1e-9 and elapsed < 1
    report(
        12, ok,
        f"normalization {worst_norm:.1e}, entropy monotone {monotone}, "
        f"v=0 plugin gap {plugin_gap:.1e}, {elapsed:.2f}s",
    )


def test_13_inflation_formula_equivalence():
    start = time.time()
    worst = 0.0
    mu0 = np.random.default_rng(13).standard_normal(4)
    for alpha in (0.0, 0.01, 0.5):
        for variant in ("bayesian", "simple", "hybrid"):
            cfg = InflationConfig(alpha=alpha, variant=variant)
            b = random_dlr(4, 2, seed=int(alpha * 100) + 7)
            eta = 0.9
            out = inflate_dlr(b, cfg, LatentPrior(eta, 0.97), mu0)
            prec = dense_precision(b)
            if variant == "simple":
                exp_prec = prec / (1 + alpha)
                exp_mean = b.mean
            else:
                exp_prec = prec / (1 + alpha) + (alpha * eta / (1 + alpha)) * np.eye(4)
                exp_mean = b.mean
                if variant == "bayesian":
                    exp_mean = b.mean + (alpha * eta / (1 + alpha)) * np.linalg.solve(
                        exp_prec, 0.97 * mu0 - b.mean
                    )
            worst = max(
                worst,
                np.max(np.abs(dense_precision(out) - exp_prec)),
                np.max(np.abs(out.mean - exp_mean)),
            )
            bs = random_spherical(4, 2, seed=int(alpha * 100) + 11)
            outs = inflate_spherical(bs, cfg, LatentPrior(eta, 0.97), mu0)
            prec_s = dlr_to_dense(bs).precision
            if variant == "simple":
                exp_prec_s = prec_s / (1 + alpha)
                exp_mean_s = bs.mean
            else:
                exp_prec_s = prec_s / (1 + alpha) + (alpha * bs.eta / (1 + alpha)) * np.eye(4)
                exp_mean_s = bs.mean
                if variant == "bayesian":
                    exp_mean_s = bs.mean + (alpha * bs.eta / (1 + alpha)) * np.linalg.solve(
                        exp_prec_s, 0.97 * mu0 - bs.mean
                    )
            worst = max(
                worst,
                np.max(np.abs(dlr_to_dense(outs).precision - exp_prec_s)),
                np.max(np.abs(outs.mean - exp_mean_s)),
            )
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 2
    report(13, ok, f"worst dense-formula gap {worst:.2e}, {elapsed:.1f}s")
