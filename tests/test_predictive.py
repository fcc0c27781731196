import numpy as np
import pytest

from scipy.special import logsumexp

from lrkf.belief import DlrBelief, dlr_to_dense, sample_parameters
from lrkf.models import (
    CategoricalFamily,
    FunctionModel,
    GaussianFamily,
    Linearization,
    MlpModel,
    MlpSpec,
    initialize_mean,
    linearize,
    softmax,
)
from lrkf.predictive import (
    CategoricalPrediction,
    GaussianPrediction,
    categorical_log_prob,
    gaussian_log_density,
    gaussian_predict,
    mc_predict,
    plugin_predict,
    probit_predict,
)

from conftest import random_dlr, random_spherical


class TestPlugin:
    def test_regression_nll_at_perfect_prediction(self):
        r, c = 0.7, 2
        model = FunctionModel(
            lambda x, th: th[:c],
            lambda x, th: np.eye(c),
            GaussianFamily(r),
            parameter_count=c,
        )
        mean = np.array([0.4, -0.1])
        b = DlrBelief(mean, np.ones(c), np.zeros((c, 0)))
        pred = plugin_predict(b, model, np.zeros(1))
        nll = pred.nll(mean)
        assert nll == pytest.approx(0.5 * c * np.log(2 * np.pi * r))

    def test_uniform_classifier_nll_is_log_c(self):
        c = 4
        model = MlpModel(MlpSpec((2, c)), CategoricalFamily())
        b = DlrBelief(np.zeros(model.parameter_count), np.ones(model.parameter_count),
                      np.zeros((model.parameter_count, 0)))
        pred = plugin_predict(b, model, np.array([1.0, -1.0]))
        assert pred.nll(2) == pytest.approx(np.log(c))

    def test_nll_matches_independent_density(self):
        model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.5))
        theta = initialize_mean(model.spec, 4)
        p = model.parameter_count
        b = DlrBelief(theta, np.ones(p), np.zeros((p, 0)))
        x = np.array([0.3, 0.9])
        y = np.array([0.2])
        pred = plugin_predict(b, model, x)
        # independent Gaussian density oracle
        from scipy.stats import norm

        mu = model.forward(x, theta)[0]
        expected = -norm.logpdf(y[0], loc=mu, scale=np.sqrt(0.5))
        assert pred.nll(y) == pytest.approx(expected, rel=1e-12)


class TestMonteCarlo:
    def _tight_belief(self, model, theta):
        p = theta.shape[0]
        return DlrBelief(theta, np.full(p, 1e12), np.zeros((p, 0)))

    def test_concentrated_belief_approaches_plugin(self):
        model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(0.4))
        theta = initialize_mean(model.spec, 1)
        b = self._tight_belief(model, theta)
        x = np.array([0.5, -0.5])
        y = np.array([0.3])
        nlpd = mc_predict(b, model, x, y, n_samples=64, rng_seed=0)
        nll = plugin_predict(b, model, x).nll(y)
        assert abs(nlpd - nll) < 1e-6

    def test_single_sample_reproducible(self):
        model = MlpModel(MlpSpec((2, 3, 1)), GaussianFamily(1.0))
        b = random_dlr(model.parameter_count, 2, seed=3)
        x = np.array([0.1, 0.2])
        y = np.array([0.0])
        a = mc_predict(b, model, x, y, n_samples=1, rng_seed=9)
        c = mc_predict(b, model, x, y, n_samples=1, rng_seed=9)
        assert a == c

    def test_linear_gaussian_nlpd_matches_closed_form(self):
        d, r = 2, 0.5
        model = FunctionModel(
            lambda x, th: np.array([th @ x]),
            lambda x, th: np.asarray(x).reshape(1, -1),
            GaussianFamily(r),
            parameter_count=d,
        )
        b = random_dlr(d, 1, seed=8)
        x = np.array([0.7, -0.4])
        y = np.array([0.25])
        lin = linearize(model, x, b.mean)
        closed = gaussian_predict(b, lin).nll(y)
        mc = mc_predict(b, model, x, y, n_samples=100_000, rng_seed=2)
        assert abs(mc - closed) / abs(closed) < 0.01


class TestBatchedMonteCarlo:
    """mc_predict scores all draws in one call; a per-draw loop is the oracle."""

    @staticmethod
    def _per_draw_nlpd(belief, model, x, y, n, seed):
        logs = []
        for theta in sample_parameters(belief, n, seed):
            out = model.forward(x, theta)
            if model.family.kind == "categorical":
                logs.append(np.log(out[int(np.argmax(y))]))
                continue
            resid = np.atleast_1d(y) - out
            chol = np.linalg.cholesky(model.family.obs_cov(out.shape[0]))
            white = np.linalg.solve(chol, resid)
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            logs.append(-0.5 * (resid.size * np.log(2 * np.pi) + logdet + white @ white))
        return -(logsumexp(logs) - np.log(n))

    def _check(self, belief, model, x, y, n=40):
        for seed in range(3):
            got = mc_predict(belief, model, x, y, n, [seed, 7])
            ref = self._per_draw_nlpd(belief, model, x, y, n, [seed, 7])
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("family", [GaussianFamily(0.3), CategoricalFamily()])
    def test_dlr_belief(self, family):
        model = MlpModel(MlpSpec((2, 6, 3), activation="tanh"), family)
        belief = random_dlr(model.parameter_count, 3, seed=11, factor_scale=0.5)
        self._check(belief, model, np.array([0.4, -1.1]), np.array([0.0, 1.0, 0.0]))

    def test_spherical_belief(self):
        model = MlpModel(MlpSpec((3, 5, 4, 2), activation="relu"),
                         GaussianFamily(np.array([[0.4, 0.1], [0.1, 0.2]])))
        belief = random_spherical(model.parameter_count, 4, seed=12)
        self._check(belief, model, np.array([0.5, -0.2, 1.0]), np.array([0.3, -0.6]))

    def test_function_model(self):
        model = FunctionModel(
            lambda x, th: np.array([np.tanh(th @ x), th[0] * th[1]]),
            lambda x, th: np.zeros((2, 3)),
            GaussianFamily(0.5),
            parameter_count=3,
        )
        belief = random_dlr(3, 1, seed=13)
        self._check(belief, model, np.array([0.2, 0.9, -0.4]), np.array([0.1, 0.5]))

    def test_underflowed_class_gives_finite_nlpd(self):
        # one weight at 1000 drives class 1 and 2 probabilities to exactly 0
        model = MlpModel(MlpSpec((2, 3)), CategoricalFamily())
        theta = np.zeros(model.parameter_count)
        theta[0] = 1000.0
        belief = DlrBelief(theta, np.full(theta.shape[0], 1e6), np.zeros((theta.shape[0], 0)))
        x = np.array([1.0, 0.0])
        assert model.forward(x, theta)[1] == 0.0
        nlpd = mc_predict(belief, model, x, np.array([1.0, 0.0, 0.0]), 16, 0)
        assert np.isfinite(nlpd) and abs(nlpd) < 1e-12
        assert mc_predict(belief, model, x, 0, 16, 0) == nlpd


class TestLogMeanExp:
    """mc_predict's max-shifted log-mean-exp; scipy's logsumexp is the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 100])
    @pytest.mark.parametrize("obs_variance", [1e-4, 1.0, 1e3])
    def test_matches_scipy(self, n, obs_variance):
        # at the smallest variance the log-likelihoods sit thousands of nats
        # below zero, where an unshifted sum of exponentials underflows to 0
        model = FunctionModel(
            lambda x, th: np.array([th @ x]),
            lambda x, th: np.asarray(x).reshape(1, -1),
            GaussianFamily(obs_variance),
            parameter_count=2,
        )
        belief = random_dlr(2, 1, seed=n)
        x, y = np.array([0.7, -0.4]), np.array([2.5])
        for seed in range(3):
            got = mc_predict(belief, model, x, y, n, seed)
            ref = TestBatchedMonteCarlo._per_draw_nlpd(belief, model, x, y, n, seed)
            assert np.isfinite(got) and abs(got - ref) <= 1e-12 * abs(ref)

    def test_zero_likelihood_under_every_draw_gives_inf(self):
        # class 1 has probability exactly 0 under every draw
        model = MlpModel(MlpSpec((2, 3)), CategoricalFamily())
        theta = np.zeros(model.parameter_count)
        theta[0] = 1000.0
        belief = DlrBelief(theta, np.full(theta.shape[0], 1e6), np.zeros((theta.shape[0], 0)))
        with np.errstate(divide="ignore"):
            assert mc_predict(belief, model, np.array([1.0, 0.0]), 1, 16, 0) == np.inf
            assert logsumexp(np.full(16, -np.inf)) == -np.inf  # the same answer


class TestGaussianPredict:
    def test_zero_jacobian_returns_observation_noise(self):
        b = random_dlr(4, 2, seed=1)
        lin = Linearization(np.zeros(2), np.zeros((2, 4)), 0.3 * np.eye(2), np.eye(2))
        pred = gaussian_predict(b, lin)
        assert pred.cov == pytest.approx(0.3 * np.eye(2))

    def test_diagonal_only_case_elementwise(self):
        diag = np.array([2.0, 4.0])
        b = DlrBelief(np.zeros(2), diag, np.zeros((2, 0)))
        jac = np.array([[1.0, 2.0]])
        lin = Linearization(np.zeros(1), jac, 0.1 * np.eye(1), np.eye(1))
        pred = gaussian_predict(b, lin)
        expected = jac @ np.diag(1.0 / diag) @ jac.T + 0.1
        assert pred.cov == pytest.approx(expected)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        b = random_dlr(6, 2, seed=8)
        jac = rng.standard_normal((2, 6))
        r = np.array([[0.5, 0.1], [0.1, 0.4]])
        lin = Linearization(np.zeros(2), jac, r, np.eye(2))
        pred = gaussian_predict(b, lin)
        cov_dense = np.linalg.inv(dlr_to_dense(b).precision)
        oracle = jac @ cov_dense @ jac.T + r
        assert np.max(np.abs(pred.cov - oracle)) < 1e-10

    def test_covariance_stays_psd(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            b = random_dlr(5, 3, seed=seed)
            jac = rng.standard_normal((3, 5))
            lin = Linearization(np.zeros(3), jac, np.eye(3), np.eye(3))
            vals = np.linalg.eigvalsh(gaussian_predict(b, lin).cov)
            assert vals.min() >= -1e-10


class TestProbit:
    def _classifier(self, c=3):
        return MlpModel(MlpSpec((2, c)), CategoricalFamily())

    def test_zero_variance_equals_plugin(self):
        model = self._classifier()
        p = model.parameter_count
        # essentially infinite precision: variances ~ 0
        b = DlrBelief(initialize_mean(model.spec, 2), np.full(p, 1e16), np.zeros((p, 0)))
        x = np.array([0.4, -1.1])
        probs = probit_predict(b, model, x)
        plugin = model.forward(x, b.mean)
        assert probs == pytest.approx(plugin, abs=1e-6)

    def test_direct_formula_on_fixed_logits(self):
        logits = np.array([1.0, 0.0, -1.0])
        v = 8.0 / np.pi
        expected = softmax(logits / np.sqrt(1.0 + (np.pi / 8.0) * v))
        assert expected == pytest.approx(softmax(np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)))
        # realize those marginal variances with an identity-output model
        model = FunctionModel(
            lambda x, th: th,
            lambda x, th: np.eye(3),
            CategoricalFamily(),
            parameter_count=3,
        )
        b = DlrBelief(logits, np.full(3, 1.0 / v), np.zeros((3, 0)))
        probs = probit_predict(b, model, np.zeros(1))
        assert probs == pytest.approx(expected, abs=1e-12)

    def test_normalization_and_entropy_monotonicity(self):
        logits = np.array([2.0, 0.5, -1.0, 0.0])
        model = FunctionModel(
            lambda x, th: th,
            lambda x, th: np.eye(4),
            CategoricalFamily(),
            parameter_count=4,
        )

        def entropy(p):
            return -np.sum(p * np.log(p))

        last = None
        for v in (1e-8, 0.1, 1.0, 10.0, 1e4):
            b = DlrBelief(logits, np.full(4, 1.0 / v), np.zeros((4, 0)))
            probs = probit_predict(b, model, np.zeros(1))
            assert abs(probs.sum() - 1.0) <= 1e-12
            h = entropy(probs)
            if last is not None:
                assert h >= last - 1e-12
            last = h
        # enormous shared variance pushes the distribution toward uniform
        assert last == pytest.approx(np.log(4), abs=1e-2)

    def test_plugin_entropy_lower_bound(self):
        model = self._classifier()
        b = random_dlr(model.parameter_count, 2, seed=10)
        x = np.array([0.6, 0.2])
        probs = probit_predict(b, model, x)
        plugin = model.forward(x, b.mean)

        def entropy(p):
            return -np.sum(p * np.log(p))

        # probit moderation cannot sharpen the plugin distribution when the
        # variances are equal; with per-class variances it still held on
        # every instance checked here
        assert entropy(probs) >= entropy(plugin) - 1e-9


def test_prediction_container_nll_shapes():
    g = GaussianPrediction(np.array([1.0]), np.array([[4.0]]))
    from scipy.stats import norm

    assert g.nll(np.array([2.0])) == pytest.approx(-norm.logpdf(2.0, loc=1.0, scale=2.0))
    c = CategoricalPrediction(np.array([0.2, 0.8]))
    assert c.nll(1) == pytest.approx(-np.log(0.8))
    assert c.nll(np.array([0.0, 1.0])) == pytest.approx(-np.log(0.8))


def test_categorical_nll_ignores_underflowed_classes():
    probs = softmax(np.array([0.0, -800.0, -1.0]))
    assert probs[1] == 0.0
    pred = CategoricalPrediction(probs)
    assert pred.nll(np.array([1, 0, 0])) == -np.log(probs[0])
    assert pred.nll(np.array([1.0, 0.0, 0.0])) == pred.nll(0)


def test_one_hot_nll_unchanged_bitwise():
    probs = softmax(np.random.default_rng(3).standard_normal(5))
    y = np.eye(5)[2]
    assert CategoricalPrediction(probs).nll(y) == -float(y @ np.log(probs))


def test_gaussian_nll_with_known_factor_matches_fresh_factorization():
    family = GaussianFamily(np.array([[0.5, 0.2], [0.2, 0.4]]))
    mean, y = np.array([0.1, -0.3]), np.array([0.6, 0.2])
    fresh = GaussianPrediction(mean, family.obs_cov(2)).nll(y)
    assert GaussianPrediction(mean, family.obs_cov(2), family.obs_chol(2)).nll(y) == fresh


@pytest.mark.parametrize("c", [1, 3, 10])
def test_gaussian_log_density_stack_equals_single_rows(c):
    rng = np.random.default_rng(c)
    a = rng.standard_normal((c, c))
    chol = np.linalg.cholesky(a @ a.T + 0.1 * np.eye(c))
    resid = rng.standard_normal((200, c)) * 10.0 ** rng.uniform(-6, 2, (200, 1))
    stack = gaussian_log_density(resid, chol)
    assert stack.shape == (200,)
    np.testing.assert_array_equal(stack, [gaussian_log_density(row, chol) for row in resid])


def test_scalar_gaussian_log_density_equals_the_one_by_one_solve():
    # C = 1 whitens by division; it is the stacked 1 x 1 solve bit for bit
    rng = np.random.default_rng(15)
    divisors = [*np.sqrt(rng.lognormal(0.0, 4.0, 18)), 0.05, 1.0, np.sqrt(0.0025)]
    resid = rng.standard_normal((5000, 1)) * 10.0 ** rng.uniform(-8, 4, (5000, 1))
    for c in divisors:
        chol = np.array([[c]])
        white = np.linalg.solve(chol, resid[..., None])
        quad = (white.swapaxes(-1, -2) @ white)[..., 0, 0]
        ref = -0.5 * (np.log(2 * np.pi) + 2.0 * np.sum(np.log(np.diag(chol))) + quad)
        got = gaussian_log_density(resid, chol)
        assert got.shape == (5000,) and got.tobytes() == ref.tobytes(), c
        assert gaussian_log_density(resid[0], chol) == ref[0]


def test_categorical_log_prob_per_row_labels_equal_single_rows():
    rng = np.random.default_rng(8)
    probs = softmax(30.0 * rng.standard_normal((100, 5)))
    probs[0] = softmax(np.array([0.0, -800.0, -1.0, 0.5, 0.2]))
    labels = np.eye(5)[rng.integers(0, 5, 100)]
    labels[0] = np.eye(5)[0]
    stack = CategoricalPrediction(probs).nll(labels)
    single = [CategoricalPrediction(p).nll(y) for p, y in zip(probs, labels)]
    np.testing.assert_array_equal(stack, single)
    np.testing.assert_array_equal(-stack, categorical_log_prob(probs, labels))
