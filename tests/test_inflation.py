import numpy as np
import pytest

from lrkf.belief import dlr_to_dense
from lrkf.exceptions import NumericalDegeneracyError
from lrkf.inflation import InflationConfig, LatentPrior, inflate_dlr, inflate_spherical

from conftest import random_dlr, random_spherical


def dense_inflation_oracle(mean, prec, variant, alpha, eta, gamma_product, mu0):
    """Apply the variant's formula directly to the dense precision."""
    p = prec.shape[0]
    if variant == "simple":
        return mean, prec / (1.0 + alpha)
    new_prec = prec / (1.0 + alpha) + (alpha * eta / (1.0 + alpha)) * np.eye(p)
    if variant == "hybrid":
        return mean, new_prec
    shift = (alpha * eta / (1.0 + alpha)) * np.linalg.solve(
        new_prec, gamma_product * mu0 - mean
    )
    return mean + shift, new_prec


@pytest.mark.parametrize("variant", ["bayesian", "simple", "hybrid"])
@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5])
def test_dlr_matches_dense_formula(variant, alpha):
    b = random_dlr(4, 1, seed=17)
    mu0 = np.random.default_rng(99).standard_normal(4)
    eta = 0.8
    gamma_product = 0.95
    cfg = InflationConfig(alpha=alpha, variant=variant)
    out = inflate_dlr(b, cfg, LatentPrior(eta, gamma_product), mu0)
    exp_mean, exp_prec = dense_inflation_oracle(
        b.mean, dlr_to_dense(b).precision, variant, alpha, eta, gamma_product, mu0
    )
    assert np.max(np.abs(out.mean - exp_mean)) <= 1e-10
    assert np.max(np.abs(dlr_to_dense(out).precision - exp_prec)) <= 1e-10


def test_alpha_zero_is_identity_for_all_variants():
    b = random_dlr(5, 2, seed=3)
    for variant in ("none", "bayesian", "simple", "hybrid"):
        cfg = InflationConfig(alpha=0.0, variant=variant)
        out = inflate_dlr(b, cfg, LatentPrior(1.0), np.zeros(5))
        assert out is b


def test_simple_scalar_example():
    from lrkf.belief import DlrBelief

    b = DlrBelief(np.zeros(2), np.array([2.0, 4.0]), np.zeros((2, 0)))
    cfg = InflationConfig(alpha=1.0, variant="simple")
    out = inflate_dlr(b, cfg, LatentPrior(1.0), np.zeros(2))
    assert out.diag_precision == pytest.approx([1.0, 2.0])


def test_simple_inflates_dense_covariance_exactly():
    b = random_dlr(6, 2, seed=23)
    alpha = 0.37
    cfg = InflationConfig(alpha=alpha, variant="simple")
    out = inflate_dlr(b, cfg, LatentPrior(1.0), np.zeros(6))
    cov_before = np.linalg.inv(dlr_to_dense(b).precision)
    cov_after = np.linalg.inv(dlr_to_dense(out).precision)
    assert np.max(np.abs(cov_after - (1.0 + alpha) * cov_before)) < 1e-10


def test_bayesian_mean_shift_matches_dense_solve():
    b = random_dlr(4, 1, seed=17)
    mu0 = np.random.default_rng(1).standard_normal(4)
    cfg = InflationConfig(alpha=0.2, variant="bayesian")
    eta = 1.3
    out = inflate_dlr(b, cfg, LatentPrior(eta, 0.9), mu0)
    _, exp_prec = dense_inflation_oracle(
        b.mean, dlr_to_dense(b).precision, "bayesian", 0.2, eta, 0.9, mu0
    )
    shift = (0.2 * eta / 1.2) * np.linalg.solve(exp_prec, 0.9 * mu0 - b.mean)
    assert out.mean == pytest.approx(b.mean + shift, abs=1e-12)


class TestSpherical:
    def test_hybrid_scales_singular_values(self):
        b = random_spherical(3, 1, seed=5)
        b = type(b)(b.mean, b.eta, b.basis, np.array([2.0]))
        cfg = InflationConfig(alpha=3.0, variant="hybrid")
        out = inflate_spherical(b, cfg, LatentPrior(1.0), np.zeros(3))
        assert out.singular_values == pytest.approx([1.0])
        assert out.eta == b.eta

    def test_simple_deflates_eta(self):
        b = random_spherical(3, 1, seed=6, eta=2.0)
        cfg = InflationConfig(alpha=1.0, variant="simple")
        out = inflate_spherical(b, cfg, LatentPrior(1.0), np.zeros(3))
        assert out.eta == pytest.approx(1.0)

    def test_eta_bit_identical_for_bayesian_and_hybrid(self):
        b = random_spherical(4, 2, seed=7, eta=1.7)
        for variant in ("bayesian", "hybrid"):
            cfg = InflationConfig(alpha=0.4, variant=variant)
            out = inflate_spherical(b, cfg, LatentPrior(1.0), np.zeros(4))
            assert out.eta == b.eta

    @pytest.mark.parametrize("variant", ["bayesian", "simple", "hybrid"])
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5])
    def test_matches_dense_formula(self, variant, alpha):
        b = random_spherical(3, 2, seed=2)
        mu0 = np.random.default_rng(2).standard_normal(3)
        cfg = InflationConfig(alpha=alpha, variant=variant)
        out = inflate_spherical(b, cfg, LatentPrior(1.0, 0.98), mu0)
        # for spherical beliefs the latent prior precision is eta itself
        exp_mean, exp_prec = dense_inflation_oracle(
            b.mean, dlr_to_dense(b).precision, variant, alpha, b.eta, 0.98, mu0
        )
        if variant == "simple":
            # simple deflates eta too, so the dense formula applies directly
            assert np.max(np.abs(dlr_to_dense(out).precision - exp_prec)) <= 1e-10
        else:
            assert np.max(np.abs(dlr_to_dense(out).precision - exp_prec)) <= 1e-10
        assert np.max(np.abs(out.mean - exp_mean)) <= 1e-10


@pytest.mark.parametrize("spherical", [False, True])
def test_non_finite_pulled_mean_is_a_numerical_degeneracy(spherical):
    # an infinite prior mean pulls the mean off the float range; the
    # inflated belief's check fails the inflation step, not the run
    b = random_spherical(4, 1, seed=3) if spherical else random_dlr(4, 1, seed=3)
    cfg = InflationConfig(alpha=0.5, variant="bayesian")
    inflate = inflate_spherical if spherical else inflate_dlr
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalDegeneracyError, match="bayesian inflation: mean entries must be finite"):
        inflate(b, cfg, LatentPrior(0.8), np.array([0, np.inf, 0, 0]))


def test_latent_prior_recursion():
    lp = LatentPrior(eta=2.0)
    lp.advance(0.9, 0.1)
    # eta' = 1 / (gamma^2 / eta + q)
    assert lp.eta == pytest.approx(1.0 / (0.81 / 2.0 + 0.1))
    assert lp.gamma_product == pytest.approx(0.9)
    lp.advance(0.5, 0.0)
    assert lp.gamma_product == pytest.approx(0.45)


def test_steady_state_latent_prior_is_constant():
    eta0 = 2.0
    q = 0.05
    gamma = np.sqrt(1 - q * eta0)
    lp = LatentPrior(eta=eta0)
    for _ in range(100):
        lp.advance(gamma, q)
    assert lp.eta == pytest.approx(eta0, abs=1e-12)
