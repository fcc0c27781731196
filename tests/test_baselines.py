from functools import partial

import numpy as np
import pytest

from lrkf import baselines
from lrkf.baselines import (
    Adam,
    DiagonalBelief,
    IteratedConfig,
    ReplayBuffer,
    Sgd,
    dense_predict,
    dense_update,
    diagonal_predict,
    fcekf_step,
    fdekf_step,
    iterated_ekf_update,
    iterated_lowrank_update,
    nll_gradient,
    sgd_replay_step,
    vdekf_step,
)
from lrkf.belief import DenseCovBelief
from lrkf.diagonal import DynamicsConfig, LowRankConfig
from lrkf.linalg import sym_pinv, symmetrize
from lrkf.models import (
    FunctionModel,
    GaussianFamily,
    MlpModel,
    MlpSpec,
    initialize_mean,
    linearize,
)
from lrkf.spherical import update_svd

from conftest import random_spherical


def linear_model(d, r):
    return FunctionModel(
        lambda x, th: np.array([th @ x]),
        lambda x, th: np.asarray(x, dtype=float).reshape(1, -1),
        GaussianFamily(r),
        parameter_count=d,
    )


def diagonal_ekf(stepper, b, model, x, y, dyn):
    """One predict, linearize and ``stepper`` update of a diagonal EKF."""
    pred = diagonal_predict(b, dyn)
    return stepper(pred, linearize(model, x, pred.mean), y)


def conjugate_posterior(xs, ys, eta0, r):
    d = xs[0].shape[0]
    prec = eta0 * np.eye(d)
    info = np.zeros(d)
    for x, y in zip(xs, ys):
        prec += np.outer(x, x) / r
        info += x * y / r
    return np.linalg.solve(prec, info), prec


class TestFcekf:
    def test_matches_conjugate_regression(self):
        rng = np.random.default_rng(0)
        d, r, eta0 = 3, 0.5, 2.0
        model = linear_model(d, r)
        dyn = DynamicsConfig(1.0, 0.0, eta0)
        b = DenseCovBelief(np.zeros(d), np.eye(d) / eta0)
        xs, ys = [], []
        for _ in range(25):
            x = rng.standard_normal(d)
            y = float(x @ [0.5, -1.0, 2.0] + rng.normal(0, 0.1))
            b, _ = fcekf_step(b, model, x, np.array([y]), dyn)
            xs.append(x)
            ys.append(y)
        mean_star, prec_star = conjugate_posterior(xs, ys, eta0, r)
        assert np.max(np.abs(b.mean - mean_star)) < 1e-10
        prec = np.linalg.inv(b.cov)
        assert np.max(np.abs(prec - prec_star)) < 1e-10 * np.max(np.abs(prec_star))

    def test_zero_jacobian_no_update(self):
        model = FunctionModel(
            lambda x, th: np.array([1.0]),
            lambda x, th: np.zeros((1, 2)),
            GaussianFamily(1.0),
            parameter_count=2,
        )
        b = DenseCovBelief(np.array([0.3, -0.2]), 0.5 * np.eye(2))
        out, _ = fcekf_step(b, model, np.zeros(1), np.array([5.0]), DynamicsConfig(1.0, 0.0))
        assert out.mean == pytest.approx(b.mean)
        assert out.cov == pytest.approx(b.cov)

    def test_two_identical_scalar_observations_add_information(self):
        r = 0.5
        model = linear_model(1, r)
        dyn = DynamicsConfig(1.0, 0.0, 1.0)
        b = DenseCovBelief(np.zeros(1), np.eye(1))
        x = np.array([2.0])
        b1, _ = fcekf_step(b, model, x, np.array([1.0]), dyn)
        b2, _ = fcekf_step(b1, model, x, np.array([1.0]), dyn)
        assert 1.0 / b1.cov[0, 0] == pytest.approx(1.0 + 4.0 / r)
        assert 1.0 / b2.cov[0, 0] == pytest.approx(1.0 + 8.0 / r)


class TestDiagonalEkfs:
    def test_scalar_linear_reduces_to_kalman(self):
        r, eta0 = 0.4, 1.5
        model = linear_model(1, r)
        dyn = DynamicsConfig(1.0, 0.0, eta0)
        for stepper in (vdekf_step, fdekf_step):
            b = DiagonalBelief(np.array([0.2]), np.array([eta0]))
            x, y = np.array([1.1]), np.array([0.9])
            out = diagonal_ekf(stepper, b, model, x, y, dyn)
            var0 = 1.0 / eta0
            k = var0 * x[0] / (var0 * x[0] ** 2 + r)
            assert out.mean[0] == pytest.approx(0.2 + k * (y[0] - 0.2 * x[0]), abs=1e-12)
            assert out.diag_precision[0] == pytest.approx(eta0 + x[0] ** 2 / r, abs=1e-10)

    def test_zero_jacobian_no_change(self):
        model = FunctionModel(
            lambda x, th: np.array([0.0]),
            lambda x, th: np.zeros((1, 3)),
            GaussianFamily(1.0),
            parameter_count=3,
        )
        dyn = DynamicsConfig(1.0, 0.0, 1.0)
        for stepper in (vdekf_step, fdekf_step):
            b = DiagonalBelief(np.zeros(3), np.ones(3))
            out = diagonal_ekf(stepper, b, model, np.zeros(1), np.array([1.0]), dyn)
            assert out.mean == pytest.approx(b.mean)
            assert out.diag_precision == pytest.approx(b.diag_precision)

    def test_vdekf_keeps_precision_diagonal_fdekf_keeps_covariance_diagonal(self):
        rng = np.random.default_rng(10)
        p, c = 5, 2
        model = FunctionModel(
            lambda x, th: x @ th.reshape(c, p).T,
            lambda x, th: np.kron(np.eye(c), x),
            GaussianFamily(0.7),
            parameter_count=p * c,
        )
        dyn = DynamicsConfig(1.0, 0.0, 1.0)
        x = rng.standard_normal(p)
        y = rng.standard_normal(c)
        b = DiagonalBelief(np.zeros(p * c), np.ones(p * c))
        lin = linearize(model, x, b.mean)
        prec_star = np.eye(p * c) + lin.jacobian.T @ np.linalg.inv(lin.obs_cov) @ lin.jacobian
        vd = diagonal_ekf(vdekf_step, b, model, x, y, dyn)
        assert vd.diag_precision == pytest.approx(np.diag(prec_star), abs=1e-10)
        fd = diagonal_ekf(fdekf_step, b, model, x, y, dyn)
        assert fd.diag_precision == pytest.approx(1.0 / np.diag(np.linalg.inv(prec_star)), abs=1e-10)

    def test_fdekf_takes_one_pinv_per_step(self, monkeypatch):
        rng = np.random.default_rng(11)
        model = MlpModel(MlpSpec((2, 4, 2)), GaussianFamily(0.3))
        p = model.parameter_count
        dyn = DynamicsConfig(1.0, 1e-3, 1.0)
        b = DiagonalBelief(initialize_mean(model.spec, 0), np.full(p, 2.0))
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        # the gain form with S^+ taken afresh, as the correction once did
        pred = diagonal_predict(b, dyn)
        lin = linearize(model, x, pred.mean)
        cross = (1.0 / pred.diag_precision)[:, None] * lin.jacobian.T
        s_pinv = sym_pinv(symmetrize(lin.jacobian @ cross + lin.obs_cov))
        mean = pred.mean + cross @ (s_pinv @ lin.innovation(y))
        cov_diag = 1.0 / pred.diag_precision - np.einsum("ij,ij->i", cross @ s_pinv, cross)
        calls = []
        monkeypatch.setattr(baselines, "sym_pinv", lambda a: calls.append(1) or sym_pinv(a))
        out = fdekf_step(pred, lin, y)
        assert len(calls) == 1
        np.testing.assert_array_equal(out.mean, mean)
        np.testing.assert_array_equal(out.diag_precision, 1.0 / cov_diag)

    @pytest.mark.parametrize("mean, diag, match", [
        (np.zeros(3), np.array([1.0, 0.0, 1.0]), "finite and > 0"),
        (np.zeros(3), np.array([1.0, np.nan, 1.0]), "finite and > 0"),
        (np.zeros(3), np.ones(4), "equal-length vectors"),
        (np.zeros((3, 1)), np.ones((3, 1)), "equal-length vectors"),
    ])
    def test_diagonal_belief_raises_the_dlr_errors(self, mean, diag, match):
        from lrkf.belief import DlrBelief

        with pytest.raises(ValueError, match=match) as diag_info:
            DiagonalBelief(mean, diag)
        with pytest.raises(ValueError, match=match) as dlr_info:
            DlrBelief(mean, diag, np.zeros((np.size(mean), 0)))
        assert str(diag_info.value) == str(dlr_info.value)

    def test_diagonal_belief_is_a_dlr_belief_without_factor_columns(self):
        from lrkf.belief import DlrBelief

        b = DiagonalBelief([0.5, -1.0], [2.0, 3.0])
        assert isinstance(b, DlrBelief)
        assert b.low_rank.shape == (2, 0) and b.rank == 0 and b.dim == 2
        np.testing.assert_array_equal(b.diag_precision, [2.0, 3.0])
        with pytest.raises(TypeError):
            DiagonalBelief(np.zeros(2), np.ones(2), np.ones((2, 1)))
        with pytest.raises(TypeError):
            DiagonalBelief(np.zeros(2), np.ones(2), low_rank=np.zeros((2, 0)))

    def test_lowrank_rank0_equals_vdekf_over_50_steps(self):
        from lrkf.belief import DlrBelief
        from lrkf.diagonal import step as lr_step

        rng = np.random.default_rng(4)
        model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.3))
        theta0 = initialize_mean(model.spec, 2)
        p = model.parameter_count
        dyn = DynamicsConfig(0.995, 1e-3, 1.0)
        cfg = LowRankConfig(rank=0, dynamics=dyn)
        b_lr = DlrBelief(theta0, np.ones(p), np.zeros((p, 0)))
        b_vd = DiagonalBelief(theta0, np.ones(p))
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            y = rng.standard_normal(1)
            b_lr, _ = lr_step(b_lr, x, y, model, cfg)
            b_vd = diagonal_ekf(vdekf_step, b_vd, model, x, y, dyn)
            assert np.max(np.abs(b_lr.mean - b_vd.mean)) < 1e-10
            assert np.max(np.abs(b_lr.diag_precision - b_vd.diag_precision)) < 1e-10


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.append(np.array([i]), np.array([i]))
        xs = [int(x[0]) for x, _ in buf]
        assert xs == [2, 3, 4]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


class TestSgdReplay:
    def test_zero_learning_rate_is_identity(self):
        model = linear_model(2, 1.0)
        params = np.array([0.5, -0.5])
        buf = ReplayBuffer(3)
        out = sgd_replay_step(params, buf, np.array([1.0, 2.0]), np.array([1.0]),
                              Sgd(0.0), inner_iters=3, grad=partial(nll_gradient, model))
        assert out == pytest.approx(params)

    def test_single_datum_sgd_step_matches_hand_formula(self):
        r = 2.0
        model = linear_model(2, r)
        params = np.zeros(2)
        buf = ReplayBuffer(1)
        x, y = np.array([1.0, -1.0]), np.array([3.0])
        lr = 0.1
        out = sgd_replay_step(params, buf, x, y, Sgd(lr), inner_iters=1,
                              grad=partial(nll_gradient, model))
        # grad of 0.5 (y - th@x)^2 / r at th=0 is -x y / r
        assert out == pytest.approx(lr * x * y[0] / r)

    def test_adam_first_step_closed_form(self):
        model = linear_model(1, 1.0)
        params = np.zeros(1)
        buf = ReplayBuffer(1)
        x, y = np.array([1.0]), np.array([2.0])
        lr, eps = 0.05, 1e-8
        opt = Adam(lr, eps=eps)
        out = sgd_replay_step(params, buf, x, y, opt, inner_iters=1,
                              grad=partial(nll_gradient, model))
        g = -x[0] * y[0]  # gradient at zero
        expected = -lr * np.sign(g) * abs(g) / (abs(g) + eps)
        assert out[0] == pytest.approx(expected, rel=1e-9)

    def test_nonfinite_gradient_aborts_with_diagnostics(self):
        from lrkf.exceptions import NumericalDegeneracyError

        model = linear_model(1, 1.0)
        buf = ReplayBuffer(1)
        with pytest.raises(NumericalDegeneracyError):
            sgd_replay_step(np.array([np.inf]), buf, np.array([1.0]), np.array([0.0]),
                            Sgd(0.1), inner_iters=1, grad=partial(nll_gradient, model))


def cubic_model(r=1.0):
    return FunctionModel(
        lambda x, th: np.array([th[0] ** 3]),
        lambda x, th: np.array([[3.0 * th[0] ** 2]]),
        GaussianFamily(r),
        parameter_count=1,
    )


class TestIteratedEkf:
    def test_linear_model_iterations_are_no_ops(self):
        rng = np.random.default_rng(6)
        d, r = 3, 0.6
        model = linear_model(d, r)
        b = DenseCovBelief(rng.standard_normal(d), np.eye(d) / 1.5)
        x = rng.standard_normal(d)
        y = np.array([1.0])
        one = iterated_ekf_update(b, model, x, y, IteratedConfig(num_iters=1))
        five = iterated_ekf_update(b, model, x, y, IteratedConfig(num_iters=5))
        lin = linearize(model, x, b.mean)
        exact = dense_update(b, lin, y)
        assert np.max(np.abs(one.mean - five.mean)) < 1e-12
        assert np.max(np.abs(one.mean - exact.mean)) < 1e-10
        assert np.max(np.abs(one.cov - exact.cov)) < 1e-10

    def test_zero_step_accepts_alpha_one(self):
        # y exactly at the prediction makes delta zero and the cost flat
        model = linear_model(2, 1.0)
        b = DenseCovBelief(np.array([1.0, 0.0]), np.eye(2))
        x = np.array([1.0, 1.0])
        y = np.array([1.0])  # equals th @ x at the mean
        out = iterated_ekf_update(b, model, x, y, IteratedConfig(num_iters=3))
        assert out.mean == pytest.approx(b.mean, abs=1e-12)

    def test_cubic_toy_cost_non_increasing(self):
        model = cubic_model(r=0.5)
        b = DenseCovBelief(np.array([0.8]), np.array([[0.25]]))
        y = np.array([0.9])
        x = np.zeros(1)
        prec_chol = np.linalg.cholesky(np.linalg.inv(b.cov)).T
        whitener = np.array([[1.0 / np.sqrt(0.5)]])

        def cost(mu):
            r_obs = whitener @ (y - model.forward(x, mu))
            r_prior = prec_chol @ (b.mean - mu)
            return 0.5 * float(r_obs @ r_obs + r_prior @ r_prior)

        # instrument the iteration by running it manually with increasing N
        costs = [cost(iterated_ekf_update(b, model, x, y, IteratedConfig(num_iters=n)).mean)
                 for n in range(1, 6)]
        assert all(costs[i + 1] <= costs[i] + 1e-12 for i in range(len(costs) - 1))

    def test_random_nonlinear_instances_cost_non_increasing(self):
        rng = np.random.default_rng(11)
        model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.4))
        p = model.parameter_count
        for trial in range(20):
            mean = initialize_mean(model.spec, trial)
            b = DenseCovBelief(mean, np.eye(p) / (0.5 + rng.random()))
            x = rng.uniform(-2, 2, 2)
            y = rng.standard_normal(1)
            prec_chol = np.linalg.cholesky(np.linalg.inv(b.cov)).T
            lin = linearize(model, x, mean)

            def cost(mu):
                r_obs = lin.whitener @ (y - model.forward(x, mu))
                r_prior = prec_chol @ (b.mean - mu)
                return 0.5 * float(r_obs @ r_obs + r_prior @ r_prior)

            costs = [cost(iterated_ekf_update(b, model, x, y, IteratedConfig(num_iters=n)).mean)
                     for n in (1, 2, 4)]
            assert costs[1] <= costs[0] + 1e-12
            assert costs[2] <= costs[1] + 1e-12


# Posterior means of 3 relinearized passes on an MLP 2-3-1 (P = 13) whose
# line search takes steps of 1, 0.2 and 0.4 (iekf) and 1, 0.2 and 0.2
# (ilrekf), recorded to 17 significant digits from the two updates as they
# stood before they shared one relinearize/line-search loop.
PINNED_IEKF_MEAN = np.array([
    1.4407780078898542, -1.8039684171570562, 0.40263649279738589, -0.544135022739758,
    -0.60740412257729881, 0.230660102143594, -0.0026330474387764712, 0.11888440341256974,
    -0.31925859847412458, -0.13779215446942339, 0.50317177771291643, -1.0052370678603944,
    1.030478427092981,
])
PINNED_ILREKF_MEAN = np.array([
    0.88274481270762162, -1.3809687343728525, 0.017693183730069409, -0.076635721036479823,
    -0.62493541566475064, 0.23227266388777182, -0.28263097287945049, 0.1571236279363511,
    -0.33188723077732052, -0.044751182806327082, 0.23481859921113651, -1.3167307472675276,
    0.8609782083105415,
])


def pinned_problem():
    model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.05))
    mean = initialize_mean(model.spec, 3)
    return model, mean, np.array([0.9, -1.2]), np.array([2.5])


def test_iterated_ekf_mean_is_pinned():
    model, mean, x, y = pinned_problem()
    b = DenseCovBelief(mean, np.eye(model.parameter_count) / 0.3)
    out = iterated_ekf_update(b, model, x, y, IteratedConfig(num_iters=3))
    np.testing.assert_array_equal(out.mean, PINNED_IEKF_MEAN)


def test_iterated_lowrank_mean_is_pinned():
    model, mean, x, y = pinned_problem()
    b = random_spherical(model.parameter_count, 3, seed=5)
    b = type(b)(mean, 0.3, b.basis, b.singular_values)
    out = iterated_lowrank_update(b, model, x, y, IteratedConfig(num_iters=3), rank=3)
    np.testing.assert_array_equal(out.mean, PINNED_ILREKF_MEAN)


class TestIteratedLowRank:
    def test_single_iteration_matches_svd_update_mean(self):
        rng = np.random.default_rng(7)
        model = MlpModel(MlpSpec((2, 3, 2), activation="tanh"), GaussianFamily(0.5))
        p = model.parameter_count
        b = random_spherical(p, 3, seed=15)
        b = type(b)(initialize_mean(model.spec, 1), b.eta, b.basis, b.singular_values)
        x = rng.uniform(-1, 1, 2)
        y = rng.standard_normal(2)
        lin = linearize(model, x, b.mean)
        cfg = LowRankConfig(rank=3)
        direct = update_svd(b, lin, y, cfg)
        iterated = iterated_lowrank_update(b, model, x, y, IteratedConfig(num_iters=1), rank=3)
        assert np.max(np.abs(direct.mean - iterated.mean)) < 1e-9

    def test_zero_jacobian_mean_fixed(self):
        model = FunctionModel(
            lambda x, th: np.array([2.0]),
            lambda x, th: np.zeros((1, 4)),
            GaussianFamily(1.0),
            parameter_count=4,
        )
        b = random_spherical(4, 2, seed=16)
        out = iterated_lowrank_update(b, model, np.zeros(1), np.array([2.5]),
                                      IteratedConfig(num_iters=4), rank=2)
        assert out.mean == pytest.approx(b.mean, abs=1e-12)

    def test_one_truncation_svd_after_the_passes(self, monkeypatch):
        calls = []
        real = baselines.thin_svd
        monkeypatch.setattr(baselines, "thin_svd", lambda w: calls.append(w.shape) or real(w))
        model = linear_model(4, 0.8)
        b = random_spherical(4, 2, seed=18)
        iterated_lowrank_update(b, model, np.ones(4), np.array([0.7]), IteratedConfig(3), rank=2)
        assert calls == [(4, 3)]

    def test_linear_model_iteration_count_irrelevant(self):
        rng = np.random.default_rng(8)
        d = 4
        model = linear_model(d, 0.8)
        b = random_spherical(d, 2, seed=18)
        x = rng.standard_normal(d)
        y = np.array([0.7])
        one = iterated_lowrank_update(b, model, x, y, IteratedConfig(num_iters=1), rank=2)
        three = iterated_lowrank_update(b, model, x, y, IteratedConfig(num_iters=3), rank=2)
        assert np.max(np.abs(one.mean - three.mean)) < 1e-12
        assert one.singular_values == pytest.approx(three.singular_values)
        assert one.eta == three.eta == b.eta
