from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkf import harness, spherical
from lrkf.belief import SphericalBelief, dlr_to_dense
from lrkf.diagonal import DynamicsConfig, LowRankConfig
from lrkf.diagonal import predict as dlr_predict
from lrkf.belief import DlrBelief, dlr_to_dense
from lrkf.exceptions import NumericalDegeneracyError
from lrkf.linalg import thin_svd, woodbury_mean
from lrkf.models import Linearization
from lrkf.spherical import (
    initial_belief,
    predict,
    svd_orth,
    update_orth,
    update_svd,
)

from conftest import random_spherical

REPO = Path(__file__).resolve().parents[1]


def orthonormality_error(basis):
    if basis.shape[1] == 0:
        return 0.0
    return np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])))


def live_columns(lam, basis):
    """The columns whose singular value is > 0 (a prefix), and the rest."""
    live = np.count_nonzero(lam)
    return basis[:, :live], basis[:, live:]


class TestPredict:
    def test_stationary_identity(self):
        b = random_spherical(5, 2, seed=1)
        cfg = LowRankConfig(rank=2, dynamics=DynamicsConfig(1.0, 0.0))
        out = predict(b, cfg)
        assert out.eta == b.eta
        assert out.singular_values == pytest.approx(b.singular_values)
        assert out.basis is b.basis

    def test_drifted_belief_holds_the_input_basis_without_its_gram(self):
        # the basis passed its orthonormality check when b was built; the
        # drift keeps that very array and does not recompute the Gram, so a
        # skew written into it afterwards goes unseen here
        b = random_spherical(6, 3, seed=7)
        b.basis[:, 1] += 1e-6 * b.basis[:, 0]
        out = predict(b, LowRankConfig(rank=3, dynamics=DynamicsConfig(0.97, 0.05)))
        assert out.basis is b.basis
        assert out.singular_values.tolist() != b.singular_values.tolist()

    def test_non_finite_drift_is_a_numerical_degeneracy(self):
        b = random_spherical(6, 2, seed=8)
        b = SphericalBelief(b.mean, b.eta, b.basis, np.array([1e200, 1.0]))  # lam^2 overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalDegeneracyError, match="spherical predict: singular_values"
        ):
            predict(b, LowRankConfig(rank=2, dynamics=DynamicsConfig(0.97, 0.05)))

    def test_steady_state_eta_constant_over_1000_iterations(self):
        eta0 = 2.0
        q = 0.01
        gamma = np.sqrt(1.0 - q * eta0)
        dyn = DynamicsConfig(gamma, q, eta0, steady_state=True)
        cfg = LowRankConfig(rank=2, dynamics=dyn)
        b = random_spherical(4, 2, seed=2, eta=eta0)
        for _ in range(1000):
            b = predict(b, cfg)
        assert abs(b.eta - eta0) <= 1e-14

    def test_general_dynamics_matches_dense_oracle(self):
        b = random_spherical(6, 2, seed=13)
        gamma, q = 0.97, 0.05
        cfg = LowRankConfig(rank=2, dynamics=DynamicsConfig(gamma, q))
        out = predict(b, cfg)
        prec = dlr_to_dense(b).precision
        oracle = np.linalg.inv(gamma**2 * np.linalg.inv(prec) + q * np.eye(6))
        got = dlr_to_dense(out).precision
        assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) < 1e-9

    def test_matches_diagonal_predict_on_shared_representation(self):
        # Ups = eta I and W = U diag(lam) describe the same Gaussian
        b = random_spherical(6, 3, seed=4)
        gamma, q = 0.95, 0.03
        cfg = LowRankConfig(rank=3, dynamics=DynamicsConfig(gamma, q))
        sph = predict(b, cfg)
        dlr = dlr_predict(
            DlrBelief(b.mean, np.full(6, b.eta), b.basis * b.singular_values), cfg
        )
        a = dlr_to_dense(sph).precision
        c = dlr_to_dense(dlr).precision
        assert np.max(np.abs(a - c)) < 1e-10

    def test_steady_state_drift_over_10k_steps(self):
        eta0 = 1.0
        q = 0.005
        gamma = np.sqrt(1.0 - q * eta0)
        dyn = DynamicsConfig(gamma, q, eta0, steady_state=True)
        cfg = LowRankConfig(rank=1, dynamics=dyn)
        b = random_spherical(3, 1, seed=5, eta=eta0)
        for _ in range(10_000):
            b = predict(b, cfg)
        assert abs(b.eta - eta0) <= 1e-12


def spherical_ekf_mean_oracle(b, jac, r, y, y_hat):
    prec = dlr_to_dense(b).precision
    prec_star = prec + jac.T @ np.linalg.inv(r) @ jac
    return b.mean + np.linalg.solve(prec_star, jac.T @ np.linalg.inv(r) @ (y - y_hat))


class TestUpdateSvd:
    def test_zero_jacobian_keeps_subspace(self):
        b = random_spherical(5, 2, seed=6)
        lin = Linearization(np.zeros(1), np.zeros((1, 5)), np.eye(1), np.eye(1))
        out = update_svd(b, lin, np.array([1.0]), LowRankConfig(rank=2))
        assert out.mean == pytest.approx(b.mean)
        assert out.singular_values == pytest.approx(b.singular_values)
        # basis agrees up to column sign
        dots = np.abs(np.sum(out.basis * b.basis, axis=0))
        assert dots == pytest.approx(np.ones(2), abs=1e-10)

    def test_rank0_scalar_matches_kalman(self):
        eta, r = 2.0, 0.3
        b = SphericalBelief(np.array([0.5]), eta, np.zeros((1, 0)), np.zeros(0))
        x_val = 1.3
        lin = Linearization(
            np.array([0.5 * x_val]),
            np.array([[x_val]]),
            np.array([[r]]),
            np.array([[1.0 / np.sqrt(r)]]),
        )
        y = np.array([1.0])
        out = update_svd(b, lin, y, LowRankConfig(rank=0))
        var0 = 1.0 / eta
        k = var0 * x_val / (var0 * x_val**2 + r)
        assert out.mean[0] == pytest.approx(0.5 + k * (y[0] - 0.5 * x_val), abs=1e-12)

    def test_mean_matches_dense_ekf(self):
        rng = np.random.default_rng(33)
        b = random_spherical(8, 3, seed=33)
        jac = rng.standard_normal((2, 8))
        r = 0.5 * np.eye(2)
        lin = Linearization(
            rng.standard_normal(2), jac, r, np.sqrt(2.0) * np.eye(2)
        )
        y = rng.standard_normal(2)
        out = update_svd(b, lin, y, LowRankConfig(rank=3))
        oracle = spherical_ekf_mean_oracle(b, jac, r, y, lin.y_hat)
        assert np.max(np.abs(out.mean - oracle)) < 1e-9

    def test_eta_untouched_by_data(self):
        b = random_spherical(6, 2, seed=9)
        rng = np.random.default_rng(0)
        lin = Linearization(
            rng.standard_normal(1), rng.standard_normal((1, 6)), np.eye(1), np.eye(1)
        )
        out = update_svd(b, lin, np.array([2.0]), LowRankConfig(rank=2))
        assert out.eta == b.eta

    def test_ordering_restored_and_orthonormal(self):
        b = random_spherical(7, 3, seed=10)
        rng = np.random.default_rng(1)
        lin = Linearization(
            rng.standard_normal(2), rng.standard_normal((2, 7)), np.eye(2), np.eye(2)
        )
        out = update_svd(b, lin, rng.standard_normal(2), LowRankConfig(rank=3))
        lam = out.singular_values
        assert np.all(lam[:-1] >= lam[1:])
        assert orthonormality_error(out.basis) <= 1e-8


    def test_eigen_form_mean_matches_woodbury_along_sine_trajectory(self, monkeypatch):
        # sine.ini seed 0, all 1,250 events: at every step the mean step read
        # off the SVD agrees with the Woodbury solve on the same extended factor
        # (worst 6e-11 relative), and the live columns of U are orthonormal over
        # all K, not only the L kept, since the mean reads them all (worst
        # 1.2e-11; dead columns, s = 0, are zero)
        cfg = harness.parse_config(str(REPO / "demos/configs/sine.ini"))
        events, in_dim, out_dim = harness.build_stream(cfg, 0)
        model = harness.build_model(cfg, in_dim, out_dim)
        learner = harness.build_learner("lrekf_spherical", model, cfg.method_params, 0)
        steps = []
        real = spherical.update_svd
        monkeypatch.setattr(
            spherical, "update_svd", lambda *args: steps.append((*args, real(*args))) or steps[-1][-1]
        )
        mean_err = orth_err = 0.0
        for ev in events:
            learner.predict(ev.x)
            learner.observe(ev.x, ev.y)
            pred, lin, y, _, out = steps[-1]
            w_ext = np.hstack([pred.basis * pred.singular_values, lin.whitened_jacobian_t])
            rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
            step = woodbury_mean(pred.mean, pred.eta, w_ext, rhs) - pred.mean
            err = np.linalg.norm(out.mean - pred.mean - step) / np.linalg.norm(step)
            mean_err = max(mean_err, err)
            s, u = thin_svd(w_ext)
            orth_err = max(orth_err, np.abs(u.T @ u - np.diag(s > 0)).max())
        assert len(steps) == len(events)
        assert mean_err <= 1e-9
        assert orth_err <= 1e-10


class TestSvdOrth:
    def test_gradient_in_span_changes_nothing(self):
        b = random_spherical(5, 2, seed=7)
        g = b.basis @ np.array([0.3, -0.7])  # in span(U)
        lam, basis = svd_orth(
            b.singular_values, b.basis, g.reshape(-1, 1), rng_seed=0
        )
        assert lam == pytest.approx(b.singular_values)
        assert basis == pytest.approx(b.basis)

    def test_empty_memory_takes_normalized_gradient(self):
        basis = np.eye(4)[:, :2]
        lam = np.zeros(2)
        g = np.array([1.0, 2.0, 2.0, 0.0])
        out_lam, out_basis = svd_orth(lam, basis, g.reshape(-1, 1), rng_seed=0)
        assert out_lam[0] == pytest.approx(3.0)
        assert out_basis[:, 0] == pytest.approx(g / 3.0)
        assert orthonormality_error(live_columns(out_lam, out_basis)[0]) <= 1e-8

    def test_hand_traced_replacement_decisions(self):
        # deterministic trace: follow the algorithm by hand for seed 7
        p, rank, c = 5, 2, 2
        rng = np.random.default_rng(40)
        basis, _ = np.linalg.qr(rng.standard_normal((p, rank)))
        lam = np.array([1.2, 0.4])
        jac = rng.standard_normal((c, p))
        whitener = np.eye(c)
        order = np.random.default_rng(7).permutation(c)
        exp_lam, exp_basis = lam.copy(), basis.copy()
        for j in order:
            g = jac.T[:, j]
            active = exp_lam > 0
            ua = exp_basis[:, active]
            v = g - ua @ (ua.T @ g)
            nv = np.linalg.norm(v)
            k = int(np.argmin(exp_lam))
            if nv > exp_lam[k]:
                exp_basis[:, k] = v / nv
                exp_lam[k] = nv
        srt = np.argsort(-exp_lam, kind="stable")
        exp_lam, exp_basis = exp_lam[srt], exp_basis[:, srt]
        got_lam, got_basis = svd_orth(lam, basis, jac.T @ whitener.T, rng_seed=7)
        assert got_lam == pytest.approx(exp_lam)
        assert got_basis == pytest.approx(exp_basis)
        assert orthonormality_error(got_basis) <= 1e-8

    def test_in_span_gradient_takes_no_dead_slot(self):
        # the live columns span all of R^4: the gradient's residual is
        # round-off (7.8e-32), which the dead slot took and normalized into
        # a column 0.66 off orthonormal to the live ones
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.array([2.0, 1.5, 1.0, 0.5, 0.0])
        g = q @ rng.standard_normal(4)
        out_lam, out_basis = svd_orth(lam, np.hstack([q, np.zeros((4, 1))]), g[:, None], 0)
        np.testing.assert_array_equal(out_lam, lam)
        assert orthonormality_error(live_columns(out_lam, out_basis)[0]) <= 1e-8

    def test_rank_above_the_parameter_count_completes_every_seed(self, tmp_path):
        # sine.ini with hidden = 1 (P = 4) and rank 5 failed every seed with
        # "basis columns are not orthonormal" once four directions were live
        text = (REPO / "demos/configs/sine.ini").read_text()
        for old, new in (("hidden = 50", "hidden = 1"), ("rank = 10", "rank = 5"),
                         ("name = lrekf", "name = lrekf_spherical\nupdate = orth"),
                         ("output = out/sine", f"output = {tmp_path / 'o'}")):
            text = text.replace(old, new)
        (tmp_path / "c.ini").write_text(text)
        cfg = harness.parse_config(str(tmp_path / "c.ini"))
        assert harness.build_model(cfg, 1, 1).parameter_count == 4
        assert harness.run_experiment(cfg) == {"completed": [0, 1, 2], "failed": {}}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_random_instances_stay_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        b = random_spherical(6, 3, seed=seed)
        jac = rng.standard_normal((2, 6))
        lam, basis = svd_orth(b.singular_values, b.basis, jac.T, rng_seed=seed)
        assert orthonormality_error(basis) <= 1e-8
        assert np.all(lam[:-1] >= lam[1:])


class TestUpdateOrth:
    def test_zero_jacobian_changes_nothing(self):
        b = random_spherical(5, 2, seed=11)
        lin = Linearization(np.zeros(1), np.zeros((1, 5)), np.eye(1), np.eye(1))
        out = update_orth(b, lin, np.array([0.3]), LowRankConfig(rank=2), rng_seed=0)
        assert out.mean == pytest.approx(b.mean)
        assert out.singular_values == pytest.approx(b.singular_values)

    def test_orthogonal_gradient_matches_full_svd(self):
        # C=1 and the whitened gradient orthogonal to the basis: the full
        # SVD keeps {lam, ||g||} sorted, dropping the weakest, exactly as
        # the projection update does
        rng = np.random.default_rng(3)
        b = random_spherical(6, 2, seed=12)
        g = rng.standard_normal(6)
        g -= b.basis @ (b.basis.T @ g)  # force orthogonality
        g *= 2.0 / np.linalg.norm(g)  # norm above min(lam)
        lin = Linearization(np.zeros(1), g.reshape(1, -1), np.eye(1), np.eye(1))
        cfg = LowRankConfig(rank=2)
        a = update_svd(b, lin, np.array([1.0]), cfg)
        o = update_orth(b, lin, np.array([1.0]), cfg, rng_seed=0)
        assert a.singular_values == pytest.approx(o.singular_values, abs=1e-9)
        # same retained subspace: projectors agree
        pa = a.basis @ a.basis.T
        po = o.basis @ o.basis.T
        assert np.max(np.abs(pa - po)) < 1e-8
        assert np.max(np.abs(a.mean - o.mean)) < 1e-12

    def test_lost_orthonormality_is_a_numerical_degeneracy(self, monkeypatch):
        # a basis that fails SphericalBelief's check fails the step, so the
        # harness records the seed as failed instead of crashing
        b = random_spherical(5, 2, seed=11)
        lin = Linearization(np.zeros(1), np.ones((1, 5)), np.eye(1), np.eye(1))
        monkeypatch.setattr(spherical, "svd_orth", lambda lam, basis, *_: (lam, basis + 1e-6))
        with pytest.raises(NumericalDegeneracyError, match="spherical update_orth: basis"):
            update_orth(b, lin, np.array([0.3]), LowRankConfig(rank=2), rng_seed=0)

    def test_long_run_orthonormality(self):
        rng = np.random.default_rng(5)
        b = random_spherical(10, 3, seed=14)
        cfg = LowRankConfig(rank=3, dynamics=DynamicsConfig(0.999, 1e-4))
        for t in range(1000):
            b = predict(b, cfg)
            jac = rng.standard_normal((1, 10))
            lin = Linearization(np.zeros(1), jac, np.eye(1), np.eye(1))
            b = update_orth(b, lin, rng.standard_normal(1), cfg, rng_seed=t)
        assert orthonormality_error(b.basis) <= 1e-8

    def test_shipped_sine_stream_keeps_the_basis_orthonormal(self):
        # sine.ini seed 0 with update = orth, all 1,250 events (worst 1.3e-15);
        # one projection pass per column lost orthonormality after 1,245 events
        cfg = harness.parse_config(str(REPO / "demos/configs/sine.ini"))
        events, in_dim, out_dim = harness.build_stream(cfg, 0)
        model = harness.build_model(cfg, in_dim, out_dim)
        params = {**cfg.method_params, "update": "orth"}
        learner = harness.build_learner("lrekf_spherical", model, params, 0)
        worst = 0.0
        for ev in events:
            learner.predict(ev.x)
            learner.observe(ev.x, ev.y)
            live, dead = live_columns(learner.belief.singular_values, learner.belief.basis)
            worst = max(worst, orthonormality_error(live))
            assert not dead.any()
        assert len(events) == 1250
        assert worst <= 1e-8


def test_truncate_takes_a_c_ordered_copy_of_the_leading_columns():
    w = np.zeros((9, 6))
    w[:, [1, 4]] = np.random.default_rng(3).standard_normal((9, 2))
    s, u = thin_svd(w)  # column-contiguous, its four dead columns zero
    b = spherical.truncate(np.zeros(9), 1.0, s, u, 4, "test")
    assert np.array_equal(b.basis, u[:, :4]) and np.array_equal(b.singular_values, s[:4])
    assert b.basis.flags.c_contiguous and not np.shares_memory(b.basis, u)
    assert np.count_nonzero(b.singular_values) == 2 and not b.basis[:, 2:].any()


def test_initial_belief_shape():
    from lrkf.models import GaussianFamily, MlpModel, MlpSpec

    model = MlpModel(MlpSpec((2, 3, 1)), GaussianFamily(1.0))
    cfg = LowRankConfig(rank=3, dynamics=DynamicsConfig(1.0, 0.0, 4.0))
    b = initial_belief(model, cfg, rng_seed=1)
    assert b.eta == 4.0
    assert b.singular_values == pytest.approx(np.zeros(3))
    assert b.basis.shape == (b.dim, 3) and not b.basis.any()
