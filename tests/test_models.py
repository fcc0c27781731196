import numpy as np
import pytest

from lrkf.exceptions import NumericalDegeneracyError
from lrkf.models import (
    CategoricalFamily,
    FunctionModel,
    GaussianFamily,
    MlpModel,
    MlpSpec,
    initialize_mean,
    linearize,
    softmax,
)

from conftest import fd_jacobian, relu_safe_theta


def test_parameter_count_formula():
    spec = MlpSpec((8, 50, 1))
    assert spec.parameter_count == (8 + 1) * 50 + 50 + 1


def test_forward_zero_parameters_is_zero():
    model = MlpModel(MlpSpec((2, 3, 2)), GaussianFamily(1.0))
    out = model.forward(np.array([1.0, -2.0]), np.zeros(model.parameter_count))
    assert out == pytest.approx(np.zeros(2))


def test_forward_linear_layer_by_hand():
    # single linear layer: h = W x + b
    model = MlpModel(MlpSpec((2, 2)), GaussianFamily(1.0))
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.5, -0.5])
    theta = np.concatenate([w.ravel(), b])
    out = model.forward(np.array([1.0, 2.0]), theta)
    assert out == pytest.approx(np.array([1.5, 1.5]))


def test_forward_matches_independent_reevaluation():
    model = MlpModel(MlpSpec((2, 4, 1), activation="tanh"), GaussianFamily(1.0))
    theta = initialize_mean(model.spec, 3)
    x = np.array([0.5, -1.0])
    # independent oracle: unpack and evaluate by hand
    w1 = theta[:8].reshape(4, 2)
    b1 = theta[8:12]
    w2 = theta[12:16].reshape(1, 4)
    b2 = theta[16:]
    expected = w2 @ np.tanh(w1 @ x + b1) + b2
    assert model.forward(x, theta) == pytest.approx(expected, rel=1e-12)


def test_forward_classification_normalizes():
    model = MlpModel(MlpSpec((2, 3)), CategoricalFamily())
    theta = initialize_mean(model.spec, 0)
    out = model.forward(np.array([0.3, 0.7]), theta)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out > 0)


def test_forward_rejects_bad_shapes():
    model = MlpModel(MlpSpec((2, 1)), GaussianFamily(1.0))
    with pytest.raises(ValueError):
        model.forward(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    with pytest.raises(ValueError):
        model.forward(np.array([1.0, 2.0]), np.zeros(7))


def test_jacobian_linear_model_is_input():
    model = MlpModel(MlpSpec((3, 1)), GaussianFamily(1.0))
    x = np.array([0.3, -1.2, 2.0])
    _, jac = model.jacobian(x, np.zeros(4))
    assert jac[0, :3] == pytest.approx(x)  # weight block
    assert jac[0, 3] == pytest.approx(1.0)  # bias block


def test_jacobian_constant_model_is_zero():
    # zero weights into the output make the network constant in the inputs;
    # perturbing first-layer weights then changes nothing
    model = MlpModel(MlpSpec((2, 3, 1), activation="tanh"), GaussianFamily(1.0))
    theta = np.zeros(model.parameter_count)
    _, jac = model.jacobian(np.array([1.0, 1.0]), theta)
    assert jac[0, :9] == pytest.approx(np.zeros(9), abs=1e-14)


def test_jacobian_finite_difference_2_3_2():
    model = MlpModel(MlpSpec((2, 3, 2), activation="tanh"), GaussianFamily(1.0))
    theta = initialize_mean(model.spec, 9)
    x = np.array([0.4, -0.9])
    _, jac = model.jacobian(x, theta)
    ref = fd_jacobian(model, x, theta)
    scale = np.maximum(np.abs(ref), 1e-6)
    assert np.max(np.abs(jac - ref) / scale) < 1e-4


def test_jacobian_finite_difference_model_zoo(model_zoo):
    rng = np.random.default_rng(0)
    for model in model_zoo:
        x = rng.standard_normal(model.spec.in_dim)
        theta = relu_safe_theta(model, x, seed=17)
        _, jac = model.jacobian(x, theta)
        ref = fd_jacobian(model, x, theta)
        scale = np.maximum(np.abs(ref), 1e-6)
        assert np.max(np.abs(jac - ref) / scale) < 1e-4, model.spec


def test_classification_jacobian_finite_difference():
    model = MlpModel(MlpSpec((2, 4, 3), activation="tanh"), CategoricalFamily())
    theta = initialize_mean(model.spec, 21)
    x = np.array([0.2, 0.8])
    _, jac = model.jacobian(x, theta)
    ref = fd_jacobian(model, x, theta)
    assert np.max(np.abs(jac - ref)) < 1e-6


def test_softmax_translation_invariance():
    z = np.array([0.1, -0.4, 2.2])
    assert softmax(z + 7.3) == pytest.approx(softmax(z), abs=1e-12)


class TestLinearize:
    def test_classification_two_class_covariance(self):
        model = MlpModel(MlpSpec((1, 2)), CategoricalFamily())
        theta = np.zeros(model.parameter_count)  # uniform output
        lin = linearize(model, np.array([0.0]), theta)
        assert lin.y_hat == pytest.approx([0.5, 0.5])
        assert lin.obs_cov == pytest.approx(np.array([[0.25, -0.25], [-0.25, 0.25]]))

    def test_regression_scalar_whitener(self):
        model = MlpModel(MlpSpec((1, 1)), GaussianFamily(2.0))
        lin = linearize(model, np.array([1.0]), np.zeros(2))
        assert lin.whitener == pytest.approx(np.array([[1.0 / np.sqrt(2.0)]]))
        assert lin.whitener.T @ lin.whitener == pytest.approx(np.array([[0.5]]))

    def test_classification_pseudo_inverse_identity(self):
        probs = np.array([0.2, 0.3, 0.5])
        cov = np.diag(probs) - np.outer(probs, probs)
        # elementwise oracle
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = probs[i] * (1 - probs[i]) if i == j else -probs[i] * probs[j]
        assert cov == pytest.approx(expected)
        model = MlpModel(MlpSpec((1, 3)), CategoricalFamily())
        # choose parameters producing exactly these probabilities: logits log p
        theta = np.concatenate([np.zeros(3), np.log(probs)])
        lin = linearize(model, np.array([0.0]), theta)
        assert lin.obs_cov == pytest.approx(cov, abs=1e-9)
        # whitener satisfies the pseudo-inverse identity  R+ R R+ = R+
        r_pinv = lin.whitener.T @ lin.whitener
        assert r_pinv @ lin.obs_cov @ r_pinv == pytest.approx(r_pinv, abs=1e-9)

    def test_classification_covariance_invariants(self):
        model = MlpModel(MlpSpec((2, 4, 4), activation="tanh"), CategoricalFamily())
        rng = np.random.default_rng(3)
        for seed in range(5):
            theta = 2.0 * initialize_mean(model.spec, seed)
            lin = linearize(model, rng.standard_normal(2), theta)
            vals = np.linalg.eigvalsh(lin.obs_cov)
            assert vals.min() >= -1e-12
            assert np.max(np.abs(lin.obs_cov.sum(axis=1))) <= 1e-12
            assert np.sum(vals > 1e-10) <= 3  # rank <= C - 1

    def test_extreme_probabilities_are_clamped(self):
        model = MlpModel(MlpSpec((1, 2)), CategoricalFamily())
        # huge logits saturate the softmax
        theta = np.array([0.0, 0.0, 50.0, -50.0])
        lin = linearize(model, np.array([0.0]), theta)
        assert lin.y_hat.min() >= 1e-7 * 0.5
        assert np.all(np.isfinite(lin.whitener))


class TestInitializeMean:
    def test_biases_exactly_zero(self):
        spec = MlpSpec((4, 3, 2))
        theta = initialize_mean(spec, 0)
        assert theta[12:15] == pytest.approx(np.zeros(3))  # first-layer biases
        assert theta[21:23] == pytest.approx(np.zeros(2))  # output biases

    def test_fan_in_variance(self):
        # Monte Carlo oracle: empirical weight variance ~ 1/fan_in
        spec = MlpSpec((4, 1))
        samples = np.array([initialize_mean(spec, seed)[:4] for seed in range(10_000)])
        var = samples.var()
        assert abs(var - 0.25) < 0.05 * 0.25

    def test_seed_reproducibility(self):
        spec = MlpSpec((5, 7, 2))
        a = initialize_mean(spec, 42)
        b = initialize_mean(spec, 42)
        assert np.array_equal(a, b)


class TestBatchedForward:
    """``theta`` of shape (S, P) runs S draws in one pass."""

    CASES = [
        (MlpSpec((2, 6, 1), activation="tanh"), GaussianFamily(0.5)),
        (MlpSpec((3, 5, 4, 2), activation="relu"), GaussianFamily(1.0)),
        (MlpSpec((2, 4, 3), activation="tanh"), CategoricalFamily()),
        (MlpSpec((3, 5, 4, 3), activation="relu"), CategoricalFamily()),
    ]

    @staticmethod
    def _reference_logits(spec, x, theta):
        """Single-draw pass written as ``weight @ a + bias``."""
        act = np.tanh if spec.activation == "tanh" else (lambda z: np.maximum(z, 0.0))
        a = x
        layers = spec.unpack(theta)
        for i, (weight, bias) in enumerate(layers):
            z = weight @ a + bias
            a = z if i == len(layers) - 1 else act(z)
        return a

    @pytest.mark.parametrize("spec, family", CASES)
    def test_rows_equal_single_draw_calls_bitwise(self, spec, family):
        model = MlpModel(spec, family)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(spec.in_dim)
        thetas = rng.standard_normal((7, model.parameter_count))
        logits, out = model.logits(x, thetas), model.forward(x, thetas)
        assert logits.shape == out.shape == (7, spec.out_dim)
        for s, theta in enumerate(thetas):
            assert np.array_equal(logits[s], model.logits(x, theta))
            assert np.array_equal(logits[s], self._reference_logits(spec, x, theta))
            assert np.array_equal(out[s], model.forward(x, theta))

    def test_single_draw_stack_matches_vector(self):
        model = MlpModel(MlpSpec((2, 4, 3)), CategoricalFamily())
        theta = initialize_mean(model.spec, 2)
        x = np.array([0.3, -0.8])
        assert np.array_equal(model.forward(x, theta[None, :])[0], model.forward(x, theta))

    def test_wrong_length_rejected_on_stacks(self):
        model = MlpModel(MlpSpec((2, 3, 1)), GaussianFamily(1.0))
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="theta has length"):
            model.forward(x, np.zeros((4, model.parameter_count + 1)))
        with pytest.raises(ValueError, match="theta has length"):
            model.forward(x, np.zeros((2, 2, model.parameter_count)))

    def test_jacobian_takes_one_parameter_vector(self):
        model = MlpModel(MlpSpec((2, 3, 1)), GaussianFamily(1.0))
        with pytest.raises(ValueError):
            model.logit_jacobian(np.array([1.0, 2.0]), np.zeros((2, model.parameter_count)))

    def test_softmax_rows(self):
        z = np.random.default_rng(1).standard_normal((5, 4)) * 30.0
        probs = softmax(z)
        for s in range(5):
            assert np.array_equal(probs[s], softmax(z[s]))

    def test_function_model_applies_callables_row_by_row(self):
        model = FunctionModel(
            lambda x, th: np.array([np.tanh(th @ x), th[0] * th[1]]),
            lambda x, th: np.zeros((2, 3)),
            CategoricalFamily(),
            parameter_count=3,
        )
        x = np.array([0.5, -1.0, 2.0])
        thetas = np.random.default_rng(2).standard_normal((6, 3))
        out = model.forward(x, thetas)
        assert out.shape == (6, 2)
        for s, theta in enumerate(thetas):
            assert np.array_equal(out[s], model.forward(x, theta))


class TestOnePassLinearization:
    @pytest.mark.parametrize("family", [GaussianFamily(0.3), CategoricalFamily()])
    def test_outputs_of_the_jacobian_pass_match_forward(self, family):
        model = MlpModel(MlpSpec((2, 5, 3), activation="tanh"), family)
        theta = initialize_mean(model.spec, 6)
        x = np.array([0.4, -0.7])
        logits, logit_jac = model.logit_jacobian(x, theta)
        assert np.array_equal(logits, model.logits(x, theta))
        mean, jac = model.jacobian(x, theta)
        assert np.array_equal(mean, model.forward(x, theta))
        if family.kind == "categorical":
            logit_jac = (np.diag(mean) - np.outer(mean, mean)) @ logit_jac
        assert np.array_equal(jac, logit_jac)

    def test_linearize_mean_is_the_forward_output(self):
        model = MlpModel(MlpSpec((2, 5, 2), activation="tanh"), GaussianFamily(0.3))
        theta = initialize_mean(model.spec, 6)
        x = np.array([0.4, -0.7])
        lin = linearize(model, x, theta)
        assert np.array_equal(lin.y_hat, model.forward(x, theta))
        assert np.array_equal(lin.jacobian, model.jacobian(x, theta)[1])

    @pytest.mark.parametrize("family", [GaussianFamily(0.3), CategoricalFamily()])
    def test_whitened_jacobian_is_built_once(self, family):
        model = MlpModel(MlpSpec((2, 5, 3), activation="tanh"), family)
        lin = linearize(model, np.array([0.4, -0.7]), initialize_mean(model.spec, 6))
        wjt = lin.whitened_jacobian_t
        assert np.array_equal(wjt, lin.jacobian.T @ lin.whitener.T)
        assert lin.whitened_jacobian_t is wjt

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_jacobian_written_in_place_matches_block_and_copy(self, activation):
        # each weight block is written through a reshaped view of the
        # Jacobian; if the reshape copied, the block would be lost
        from lrkf.models import _act_grad

        model = MlpModel(MlpSpec((3, 7, 5, 10), activation=activation), CategoricalFamily())
        theta = initialize_mean(model.spec, 4)
        x = np.array([0.3, -1.2, 0.8])
        layers = model.spec.unpack(theta)
        pre, acts = model._pass(model._input(x), layers)
        c, p = 10, model.parameter_count
        ref = np.zeros((c, p))
        g, pos = np.eye(c), p
        for i in range(len(layers) - 1, -1, -1):
            weight, _ = layers[i]
            n_out, n_in = weight.shape
            pos -= n_out
            ref[:, pos : pos + n_out] = g
            pos -= n_in * n_out
            block = g[:, :, None] * acts[i][None, None, :]
            ref[:, pos : pos + n_in * n_out] = block.reshape(c, n_in * n_out)
            if i > 0:
                g = (g @ weight) * _act_grad(model.spec, pre[i - 1], acts[i])[None, :]
        logits, jac = model.logit_jacobian(x, theta)
        assert np.array_equal(logits, pre[-1])
        assert jac.tobytes() == ref.tobytes()
        assert np.any(ref[:, : 3 * 7])  # the first layer's weights reach the output

    def test_linearize_rejects_bad_input_shape(self):
        model = MlpModel(MlpSpec((2, 3, 1)), GaussianFamily(1.0))
        with pytest.raises(ValueError, match="x has shape"):
            linearize(model, np.zeros(3), np.zeros(model.parameter_count))


def assert_same_linearization(got, want):
    for name in ("y_hat", "jacobian", "obs_cov", "whitener"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestKeptPass:
    """A linearization that reuses the pass a forward call kept equals a
    fresh one bit for bit, and a pass kept at another x or theta is not
    reused."""

    CASES = [
        (MlpSpec((2, 5, 1)), GaussianFamily(0.3)),
        (MlpSpec((2, 5, 3)), GaussianFamily(0.3)),
        (MlpSpec((4, 7, 6, 10)), CategoricalFamily()),
        (MlpSpec((3, 6, 5, 10), activation="relu"), CategoricalFamily()),
    ]

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        real = MlpModel._pass
        monkeypatch.setattr(MlpModel, "_pass", lambda self, *a: calls.append(1) or real(self, *a))
        return calls

    @pytest.mark.parametrize("spec, family", CASES)
    def test_linearization_from_a_kept_pass_is_the_fresh_one(self, monkeypatch, spec, family):
        model = MlpModel(spec, family)
        rng = np.random.default_rng(8)
        passes = self.count_passes(monkeypatch)
        for seed in range(20):
            x = rng.standard_normal(spec.in_dim)
            theta = initialize_mean(spec, seed) + 0.1 * rng.standard_normal(spec.parameter_count)
            keep = {}
            y = model.forward(x, theta, keep=keep)
            assert y.tobytes() == model.forward(x, theta).tobytes()
            passes.clear()
            got = linearize(model, x, theta, keep)
            assert passes == []
            assert_same_linearization(got, linearize(model, x, theta))

    def test_function_model_keeps_nothing(self):
        model = FunctionModel(lambda x, th: np.array([th @ x]), lambda x, th: x[None, :],
                              GaussianFamily(0.5), parameter_count=2)
        x, theta = np.array([0.5, -1.5]), np.array([2.0, 0.25])
        keep = {}
        assert model.forward(x, theta, keep=keep) == model.forward(x, theta)
        assert keep == {}
        assert_same_linearization(linearize(model, x, theta, keep), linearize(model, x, theta))

    @pytest.mark.parametrize("spec, family", CASES)
    def test_pass_at_another_x_or_theta_is_not_reused(self, monkeypatch, spec, family):
        model = MlpModel(spec, family)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(spec.in_dim)
        theta = initialize_mean(spec, 3)
        passes = self.count_passes(monkeypatch)
        keep = {}
        model.forward(x, theta, keep=keep)

        def assert_fresh(at_x, at_theta):
            passes.clear()
            got = linearize(model, at_x, at_theta, keep)
            assert passes == [1]
            assert_same_linearization(got, linearize(model, at_x, at_theta))

        assert_fresh(x, theta + 0.25)  # another theta
        assert_fresh(x, theta.copy())  # an equal theta, but another array
        x[0] += 0.5  # the very array the pass was kept at, changed in place
        assert_fresh(x, theta)

    @pytest.mark.parametrize("spec, family", CASES)
    def test_reuse_reads_the_x_it_is_given(self, spec, family):
        # the kept input array itself changed after the pass, while the x
        # handed to the linearization holds the bytes the pass was made at
        model = MlpModel(spec, family)
        x = np.random.default_rng(10).standard_normal(spec.in_dim)
        theta = initialize_mean(spec, 4)
        at_x = x.copy()
        keep = {}
        model.forward(x, theta, keep=keep)
        x[0] += 0.5
        assert_same_linearization(linearize(model, at_x, theta, keep),
                                  linearize(model, at_x, theta))


class TestFixedGaussianTerms:
    @pytest.mark.parametrize("variance", [0.25, np.array([[0.5, 0.1], [0.1, 0.3]])])
    def test_terms_match_fresh_factorization_and_are_shared(self, variance):
        import scipy.linalg

        family = GaussianFamily(variance)
        cov = family.obs_cov(2)
        expected = float(variance) * np.eye(2) if np.ndim(variance) == 0 else variance
        chol = np.linalg.cholesky(expected)
        assert np.array_equal(cov, expected)
        assert np.array_equal(family.obs_chol(2), chol)
        assert np.array_equal(
            family.obs_whitener(2),
            scipy.linalg.solve_triangular(chol, np.eye(2), lower=True),
        )
        assert family.obs_cov(2) is cov and family.obs_chol(2) is family.obs_chol(2)
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0  # shared terms are read only

    def test_scalar_variance_keeps_one_entry_per_size(self):
        family = GaussianFamily(2.0)
        assert family.obs_cov(1).shape == (1, 1)
        assert family.obs_cov(3).shape == (3, 3)
        assert family == GaussianFamily(2.0)

    def test_caller_array_is_not_frozen(self):
        r = np.array([[0.5, 0.0], [0.0, 0.5]])
        GaussianFamily(r).obs_chol(2)
        r[0, 0] = 0.6  # the family holds its own read-only copy


@pytest.mark.parametrize("y, y_hat", [
    ([np.nan, 0.0], [0.0, 0.0]), ([np.inf, 0.0], [0.0, 0.0]), ([1.0, 0.0], [np.nan, 0.0]),
])
def test_innovation_rejects_non_finite_entries(y, y_hat):
    model = MlpModel(MlpSpec((2, 2)), GaussianFamily(1.0))
    lin = linearize(model, np.ones(2), np.zeros(model.parameter_count))
    np.testing.assert_array_equal(lin.innovation([1.0, -2.0]), [1.0, -2.0])
    lin = type(lin)(np.array(y_hat), lin.jacobian, lin.obs_cov, lin.whitener)
    with pytest.raises(NumericalDegeneracyError, match="non-finite innovation"):
        lin.innovation(y)
