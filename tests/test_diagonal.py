import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkf.belief import DlrBelief
from lrkf.diagonal import DynamicsConfig, LowRankConfig, initial_belief, predict, step, update
from lrkf.exceptions import NumericalDegeneracyError
from lrkf.models import (
    CategoricalFamily,
    FunctionModel,
    GaussianFamily,
    Linearization,
    MlpModel,
    MlpSpec,
    initialize_mean,
    linearize,
)

from conftest import dense_precision, random_dlr


def dense_predict_oracle(belief, gamma, q):
    """((gamma^2 (Ups + W W^T)^-1 + q I))^-1 computed densely."""
    prec = dense_precision(belief)
    cov_pred = gamma**2 * np.linalg.inv(prec) + q * np.eye(belief.dim)
    return np.linalg.inv(cov_pred)


class TestPredict:
    def test_stationary_case_is_identity(self):
        b = random_dlr(5, 2, seed=1)
        cfg = LowRankConfig(rank=2, dynamics=DynamicsConfig(gamma=1.0, process_noise=0.0))
        out = predict(b, cfg)
        assert np.max(np.abs(out.mean - b.mean)) <= 1e-14
        assert np.max(np.abs(out.diag_precision - b.diag_precision)) <= 1e-14
        assert np.max(np.abs(out.low_rank - b.low_rank)) <= 1e-14

    def test_unit_noise_halves_identity_precision(self):
        b = DlrBelief(np.zeros(3), np.ones(3), np.zeros((3, 2)))
        cfg = LowRankConfig(rank=2, dynamics=DynamicsConfig(gamma=1.0, process_noise=1.0))
        out = predict(b, cfg)
        assert out.diag_precision == pytest.approx(np.full(3, 0.5))
        assert out.low_rank == pytest.approx(np.zeros((3, 2)))

    def test_matches_dense_woodbury_oracle(self):
        b = random_dlr(6, 2, seed=5)
        cfg = LowRankConfig(rank=2, dynamics=DynamicsConfig(gamma=0.99, process_noise=0.01))
        out = predict(b, cfg)
        oracle = dense_predict_oracle(b, 0.99, 0.01)
        got = dense_precision(out)
        assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) < 1e-9

    def test_mean_is_scaled(self):
        b = random_dlr(4, 1, seed=3)
        cfg = LowRankConfig(rank=1, dynamics=DynamicsConfig(gamma=0.9, process_noise=0.0))
        assert predict(b, cfg).mean == pytest.approx(0.9 * b.mean)


def scalar_kalman_update(mu, var, x, y, r):
    """Textbook scalar Kalman update for h(theta) = theta * x."""
    k = var * x / (var * x**2 + r)
    return mu + k * (y - mu * x), 1.0 / (1.0 / var + x**2 / r)


class TestUpdate:
    def test_zero_jacobian_changes_nothing(self):
        b = random_dlr(5, 2, seed=7)
        lin = Linearization(
            y_hat=np.zeros(1),
            jacobian=np.zeros((1, 5)),
            obs_cov=np.eye(1),
            whitener=np.eye(1),
        )
        out = update(b, lin, np.array([3.0]), LowRankConfig(rank=2))
        assert out.mean == pytest.approx(b.mean)
        got = dense_precision(out)
        assert got == pytest.approx(dense_precision(b), abs=1e-12)

    def test_scalar_linear_matches_textbook_kalman(self):
        x_val, r, mu0, var0 = 1.7, 0.3, 0.4, 2.0
        b = DlrBelief(np.array([mu0]), np.array([1.0 / var0]), np.zeros((1, 1)))
        lin = Linearization(
            y_hat=np.array([mu0 * x_val]),
            jacobian=np.array([[x_val]]),
            obs_cov=np.array([[r]]),
            whitener=np.array([[1.0 / np.sqrt(r)]]),
        )
        y = np.array([1.1])
        out = update(b, lin, y, LowRankConfig(rank=1))
        mu_star, var_star = scalar_kalman_update(mu0, var0, x_val, y[0], r)
        assert out.mean[0] == pytest.approx(mu_star, abs=1e-12)
        prec = dense_precision(out)[0, 0]
        assert prec == pytest.approx(1.0 / var_star, abs=1e-10)

    def test_matches_dense_ekf_before_and_after_truncation(self):
        rng = np.random.default_rng(21)
        p, rank, c = 8, 3, 2
        b = random_dlr(p, rank, seed=21)
        jac = rng.standard_normal((c, p))
        r = 0.5 * np.eye(c)
        lin = Linearization(
            y_hat=rng.standard_normal(c),
            jacobian=jac,
            obs_cov=r,
            whitener=np.sqrt(2.0) * np.eye(c),
        )
        y = rng.standard_normal(c)
        out = update(b, lin, y, LowRankConfig(rank=rank))
        # dense EKF oracle
        prec_prior = dense_precision(b)
        prec_star = prec_prior + jac.T @ np.linalg.inv(r) @ jac
        mean_star = b.mean + np.linalg.solve(
            prec_star, jac.T @ np.linalg.inv(r) @ (y - lin.y_hat)
        )
        assert np.max(np.abs(out.mean - mean_star)) < 1e-9
        # untruncated precision is exact
        w_ext = np.hstack([b.low_rank, jac.T * np.sqrt(2.0)])
        untruncated = np.diag(b.diag_precision) + w_ext @ w_ext.T
        assert np.linalg.norm(untruncated - prec_star) / np.linalg.norm(prec_star) < 1e-9
        # diagonal exactness after truncation
        got = dense_precision(out)
        assert np.max(np.abs(np.diag(got) - np.diag(prec_star))) < 1e-10

    def test_truncation_is_best_rank_l_psd_approximation(self):
        rng = np.random.default_rng(30)
        p, rank, c = 12, 3, 2
        b = random_dlr(p, rank, seed=30)
        jac = rng.standard_normal((c, p))
        lin = Linearization(
            y_hat=np.zeros(c), jacobian=jac, obs_cov=np.eye(c), whitener=np.eye(c)
        )
        out = update(b, lin, np.zeros(c), LowRankConfig(rank=rank))
        w_ext = np.hstack([b.low_rank, jac.T])
        target = w_ext @ w_ext.T
        # eigendecomposition oracle for the best rank-L PSD approximation
        vals, vecs = np.linalg.eigh(target)
        top = vals.argsort()[::-1][:rank]
        best = (vecs[:, top] * vals[top]) @ vecs[:, top].T
        got = out.low_rank @ out.low_rank.T
        assert np.linalg.norm(got - best) < 1e-8 * max(1.0, np.linalg.norm(best))

    def test_nonfinite_innovation_raises(self):
        b = random_dlr(3, 1, seed=2)
        lin = Linearization(
            y_hat=np.array([np.inf]),
            jacobian=np.ones((1, 3)),
            obs_cov=np.eye(1),
            whitener=np.eye(1),
        )
        with pytest.raises(NumericalDegeneracyError):
            update(b, lin, np.array([0.0]), LowRankConfig(rank=1))


def conjugate_linear_regression(x_rows, y_vals, prior_prec, r):
    """Closed-form Bayesian linear regression posterior (zero prior mean)."""
    prec = prior_prec.copy()
    info = np.zeros(prior_prec.shape[0])
    for x, y in zip(x_rows, y_vals):
        prec = prec + np.outer(x, x) / r
        info = info + x * y / r
    mean = np.linalg.solve(prec, info)
    return mean, prec


class TestStep:
    def test_full_rank_on_linear_stream_matches_conjugate_posterior(self):
        rng = np.random.default_rng(8)
        d, r = 3, 0.4
        model = FunctionModel(
            lambda x, th: np.array([th @ x]),
            lambda x, th: x.reshape(1, -1),
            GaussianFamily(r),
            parameter_count=d,
        )
        eta0 = 2.0
        cfg = LowRankConfig(rank=d, dynamics=DynamicsConfig(1.0, 0.0, eta0))
        b = DlrBelief(np.zeros(d), np.full(d, eta0), np.zeros((d, d)))
        xs, ys = [], []
        for _ in range(30):
            x = rng.standard_normal(d)
            y = np.array([x @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, np.sqrt(r))])
            b, _ = step(b, x, y, model, cfg)
            xs.append(x)
            ys.append(y[0])
        mean_star, prec_star = conjugate_linear_regression(xs, ys, eta0 * np.eye(d), r)
        assert np.max(np.abs(b.mean - mean_star)) < 1e-8
        assert np.linalg.norm(dense_precision(b) - prec_star) < 1e-8 * np.linalg.norm(prec_star)

    def test_repeated_observation_grows_precision_monotonically(self):
        model = FunctionModel(
            lambda x, th: np.array([th @ x]),
            lambda x, th: x.reshape(1, -1),
            GaussianFamily(1.0),
            parameter_count=2,
        )
        cfg = LowRankConfig(rank=1, dynamics=DynamicsConfig(1.0, 0.0, 1.0))
        b = DlrBelief(np.zeros(2), np.ones(2), np.zeros((2, 1)))
        x = np.array([1.0, 0.5])
        y = np.array([0.7])
        prev = dense_precision(b).diagonal().copy()
        for _ in range(10):
            b, _ = step(b, x, y, model, cfg)
            cur = dense_precision(b).diagonal()
            assert np.all(cur >= prev - 1e-12)
            prev = cur.copy()

    def test_step_returns_prediction_made_before_update(self):
        model = FunctionModel(
            lambda x, th: np.array([th @ x]),
            lambda x, th: x.reshape(1, -1),
            GaussianFamily(1.0),
            parameter_count=2,
        )
        cfg = LowRankConfig(rank=1, dynamics=DynamicsConfig(0.9, 0.1, 1.0))
        b = DlrBelief(np.array([2.0, 0.0]), np.ones(2), np.zeros((2, 1)))
        x = np.array([1.0, 0.0])
        _, y_hat = step(b, x, np.array([5.0]), model, cfg)
        assert y_hat == pytest.approx([0.9 * 2.0])


class TestDiagonalExactnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rank=st.integers(0, 4),
        c=st.integers(1, 3),
    )
    def test_diagonal_exact_and_pd_preserved(self, seed, rank, c):
        rng = np.random.default_rng(seed)
        p = 7
        b = random_dlr(p, rank, seed=seed)
        cfg = LowRankConfig(
            rank=rank, dynamics=DynamicsConfig(gamma=0.98, process_noise=0.02)
        )
        pred = predict(b, cfg)
        jac = rng.standard_normal((c, p))
        lin = Linearization(
            y_hat=rng.standard_normal(c),
            jacobian=jac,
            obs_cov=np.eye(c),
            whitener=np.eye(c),
        )
        y = rng.standard_normal(c)
        post = update(pred, lin, y, cfg)
        w_ext = np.hstack([pred.low_rank, jac.T])
        untrunc_diag = pred.diag_precision + np.einsum("ij,ij->i", w_ext, w_ext)
        got = dense_precision(post)
        assert np.max(np.abs(np.diag(got) - untrunc_diag)) <= 1e-10
        np.linalg.cholesky(got)  # PD preserved


def test_full_rank_trajectory_matches_dense_ekf_on_mlp_stream():
    from lrkf.baselines import DenseBelief, dense_predict, dense_update

    rng = np.random.default_rng(77)
    model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.25))
    p = model.parameter_count
    theta0 = initialize_mean(model.spec, 4)
    dyn = DynamicsConfig(gamma=0.999, process_noise=1e-4, initial_precision=1.0)
    cfg = LowRankConfig(rank=p, dynamics=dyn)
    b_lr = DlrBelief(theta0, np.ones(p), np.zeros((p, p)))
    b_dense = DenseBelief(theta0, np.eye(p))
    for t in range(100):
        x = rng.uniform(-2, 2, 2)
        y = np.array([np.sin(x.sum()) + 0.1 * rng.standard_normal()])
        b_lr, _ = step(b_lr, x, y, model, cfg)
        pred = dense_predict(b_dense, dyn)
        lin = linearize(model, x, pred.mean)
        b_dense = dense_update(pred, lin, y)
    rel_mean = np.max(np.abs(b_lr.mean - b_dense.mean)) / max(1.0, np.max(np.abs(b_dense.mean)))
    rel_prec = np.linalg.norm(dense_precision(b_lr) - b_dense.precision) / np.linalg.norm(
        b_dense.precision
    )
    assert rel_mean < 1e-8
    assert rel_prec < 1e-8


def test_initial_belief_layout():
    model = MlpModel(MlpSpec((2, 3, 1)), GaussianFamily(1.0))
    cfg = LowRankConfig(rank=4, dynamics=DynamicsConfig(1.0, 0.0, 2.5))
    b = initial_belief(model, cfg, rng_seed=0)
    assert b.diag_precision == pytest.approx(np.full(model.parameter_count, 2.5))
    assert b.low_rank.shape == (model.parameter_count, 4)
    assert not b.low_rank.any()


def test_predict_cost_scales_with_rank_squared():
    # coarse wall-clock check, not a hard bound: doubling L at fixed P
    # should make predict markedly slower. The two ranks are timed in
    # turn and each keeps its fastest repeat, so a burst of load from
    # another process slows both or is discarded.
    import time

    p = 60_000
    rng = np.random.default_rng(0)
    cases = {
        rank: (DlrBelief(np.zeros(p), np.ones(p), rng.standard_normal((p, rank))),
               LowRankConfig(rank=rank, dynamics=DynamicsConfig(0.99, 0.01)))
        for rank in (16, 32)
    }
    best = dict.fromkeys(cases, np.inf)
    for _ in range(5):
        for rank, (b, cfg) in cases.items():
            start = time.perf_counter()
            for _ in range(5):
                predict(b, cfg)
            best[rank] = min(best[rank], time.perf_counter() - start)

    t1, t2 = best[16], best[32]
    print(f"predict time L=16: {t1:.4f}s, L=32: {t2:.4f}s, ratio {t2 / t1:.2f}")
    assert t2 > t1  # directional only; the ~4x factor is printed above


class TestFactorLayout:
    """The filter keeps every P x L factor column-contiguous, and a
    row-major input factor gives the same result up to rounding."""

    @staticmethod
    def categorical_step_inputs(rank):
        model = MlpModel(MlpSpec((3, 5, 4)), CategoricalFamily())
        cfg = LowRankConfig(rank=rank, dynamics=DynamicsConfig(0.99, 1e-3, 1.0))
        rng = np.random.default_rng(31)
        lin = linearize(model, rng.standard_normal(3), initialize_mean(model.spec, 2))
        return model, cfg, lin, np.eye(4)[1]

    @staticmethod
    def assert_close(got, ref):
        for a, b in zip((got.mean, got.diag_precision, got.low_rank),
                        (ref.mean, ref.diag_precision, ref.low_rank)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_initial_belief_is_f_contiguous(self):
        model, cfg, _, _ = self.categorical_step_inputs(rank=4)
        assert initial_belief(model, cfg, rng_seed=0).low_rank.flags.f_contiguous

    @pytest.mark.parametrize("gamma", [0.99, 1.0, 0.0])
    def test_predict_and_update_return_f_contiguous_factors(self, gamma):
        model, _, lin, y = self.categorical_step_inputs(rank=4)
        cfg = LowRankConfig(rank=4, dynamics=DynamicsConfig(gamma, 1e-3, 1.0))
        b = random_dlr(model.parameter_count, 4, seed=3)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            pred = predict(DlrBelief(b.mean, b.diag_precision, layout(b.low_rank)), cfg)
            assert pred.low_rank.flags.f_contiguous
            assert update(pred, lin, y, cfg).low_rank.flags.f_contiguous

    def test_whitened_jacobian_is_f_contiguous(self):
        _, _, lin, _ = self.categorical_step_inputs(rank=4)
        assert lin.whitened_jacobian_t.flags.f_contiguous

    def test_learner_keeps_the_layout_through_observe(self):
        from lrkf.learners import build_learner
        from lrkf.streams import gen_synthetic_classification

        model = MlpModel(MlpSpec((3, 5, 4)), CategoricalFamily())
        params = {"rank": 3, "process_noise": 1e-4, "inflation": "hybrid", "inflation_alpha": 0.05}
        learner = build_learner("lrekf", model, params, seed=0)
        for ev in gen_synthetic_classification(5, in_dim=3, num_classes=4, seed=0):
            learner.predict(ev.x)
            learner.observe(ev.x, ev.y)
            assert learner.belief.low_rank.flags.f_contiguous

    @pytest.mark.parametrize("kind", ["categorical", "bandit"])
    def test_extended_factor_is_built_in_place(self, kind, monkeypatch):
        # the update's truncation SVD reads the array predict wrote the
        # predicted factor into, C = 4 columns wider (one used by a masked
        # bandit update): the predicted factor is never copied
        from lrkf import diagonal
        from lrkf.bandit import FilterBanditAgent
        from lrkf.learners import build_learner

        seen = []
        real = diagonal.thin_svd
        monkeypatch.setattr(diagonal, "thin_svd", lambda w: seen.append(w) or real(w))
        family = CategoricalFamily() if kind == "categorical" else GaussianFamily(0.25)
        model = MlpModel(MlpSpec((3, 5, 4)), family)
        learner = build_learner("lrekf", model, {"rank": 3, "process_noise": 1e-4}, seed=0)
        x, pred = np.array([0.3, -0.2, 0.5]), learner.predicted_belief()
        if kind == "categorical":
            learner.observe(x, np.eye(4)[1])
        else:
            FilterBanditAgent(learner).learn(x, 2, 1.0)
        (w_ext,) = seen
        assert w_ext.shape == (model.parameter_count, 3 + (4 if kind == "categorical" else 1))
        assert w_ext.flags.f_contiguous
        assert np.shares_memory(w_ext, pred.low_rank)

    @pytest.mark.parametrize("masked", [False, True])
    def test_stacked_fallback_matches_in_place(self, masked):
        from lrkf.bandit import masked_reward_linearization

        model, cfg, lin, y = self.categorical_step_inputs(rank=4)
        if masked:
            rewards = MlpModel(model.spec, GaussianFamily(0.25))
            lin = masked_reward_linearization(rewards, np.array([0.1, 0.7, -0.4]),
                                              initialize_mean(model.spec, 2), 2)
            y = np.array([1.0])
        b = random_dlr(model.parameter_count, 4, seed=7)
        pred = predict(b, cfg, out_dim=4)
        stacked = DlrBelief(pred.mean, pred.diag_precision, pred.low_rank.copy(order="F"))
        assert pred.low_rank.base.shape[1] == 8 and stacked.low_rank.base is None
        in_place, fallback = update(pred, lin, y, cfg), update(stacked, lin, y, cfg)
        for a, b in zip((in_place.mean, in_place.diag_precision, in_place.low_rank),
                        (fallback.mean, fallback.diag_precision, fallback.low_rank)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("gamma, rank", [(0.99, 4), (0.0, 4), (0.99, 0)])
    def test_every_predicted_factor_has_spare_columns(self, gamma, rank, monkeypatch):
        # gamma = 0 and rank 0 build their zero factor with the spare
        # columns too, so every factor predict returns takes the in-place path
        from lrkf import diagonal

        model, _, lin, y = self.categorical_step_inputs(rank)
        cfg = LowRankConfig(rank=rank, dynamics=DynamicsConfig(gamma, 1e-3, 1.0))
        pred = predict(random_dlr(model.parameter_count, rank, seed=5), cfg, out_dim=4)
        assert pred.low_rank.shape == (model.parameter_count, rank)
        assert pred.low_rank.base.shape == (model.parameter_count, rank + 4)
        seen = []
        real = diagonal.thin_svd
        monkeypatch.setattr(diagonal, "thin_svd", lambda w: seen.append(w) or real(w))
        update(pred, lin, y, cfg)
        assert seen[0].base is pred.low_rank.base

    @pytest.mark.parametrize("rank", [2, 4, 6])
    def test_c_ordered_input_matches_its_f_ordered_copy(self, rank):
        model, cfg, lin, y = self.categorical_step_inputs(rank)
        b = random_dlr(model.parameter_count, rank, seed=rank)
        c_b = DlrBelief(b.mean, b.diag_precision, np.ascontiguousarray(b.low_rank))
        f_b = DlrBelief(b.mean, b.diag_precision, np.asfortranarray(b.low_rank))
        assert c_b.low_rank.flags.c_contiguous and not c_b.low_rank.flags.f_contiguous
        self.assert_close(predict(c_b, cfg), predict(f_b, cfg))
        self.assert_close(update(c_b, lin, y, cfg), update(f_b, lin, y, cfg))
