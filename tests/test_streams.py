import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkf.streams import (
    PiecewiseSineSpec,
    StreamEvent,
    drifting_oscillator,
    gen_drifting_target,
    gen_permuted_tasks,
    gen_piecewise_sine,
    gen_synthetic_classification,
    load_csv_regression,
    multipass,
    prequential_eval,
)


class TestPiecewiseSine:
    def test_reproducible(self):
        spec = PiecewiseSineSpec(num_tasks=3, steps_per_task=10)
        a = gen_piecewise_sine(spec, seed=4)
        b = gen_piecewise_sine(spec, seed=4)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.x, eb.x)
            assert np.array_equal(ea.y, eb.y)

    def test_task_boundaries_every_250_steps(self):
        spec = PiecewiseSineSpec(num_tasks=4, steps_per_task=250)
        events = gen_piecewise_sine(spec, seed=0)
        assert len(events) == 1000
        for k in range(4):
            assert events[250 * k].task_id == k
            assert events[250 * k + 249].task_id == k

    def test_degenerate_sine_noise_free(self):
        # with zero noise the target is exactly x + 0.3 sin(w0 + w1 pi x)
        spec = PiecewiseSineSpec(num_tasks=1, steps_per_task=5, noise_sd=0.0)
        events = gen_piecewise_sine(spec, seed=7)
        rng = np.random.default_rng(7)
        w0 = rng.uniform(0, 2 * np.pi, 1)[0]
        w1 = rng.uniform(1.0, 3.0, 1)[0]
        for ev in events:
            x = ev.x[0]
            assert ev.y[0] == pytest.approx(x + 0.3 * np.sin(w0 + w1 * np.pi * x))

    def test_inputs_bounded(self):
        events = gen_piecewise_sine(PiecewiseSineSpec(2, 100), seed=1)
        xs = np.array([ev.x[0] for ev in events])
        assert xs.min() >= -2.0 and xs.max() <= 2.0


class TestDrifting:
    def test_midpoint_at_time_zero(self):
        events = gen_drifting_target(steps=10, seed=0, noise_sd=0.0,
                                     target_range=(0.0, 180.0))
        assert events[0].y[0] == pytest.approx(90.0)

    def test_oscillator_zero_crossings_at_multiples_of_pi(self):
        ts = np.linspace(0, 1, 20_001)
        vals = drifting_oscillator(ts)
        crossings = ts[np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]]
        expected = np.arange(1, int(35 / np.pi) + 1) * np.pi / 35.0
        assert len(crossings) == len(expected)
        assert crossings == pytest.approx(expected, abs=1e-3)

    def test_seed_reproducibility(self):
        a = gen_drifting_target(steps=50, seed=3)
        b = gen_drifting_target(steps=50, seed=3)
        assert all(np.array_equal(ea.y, eb.y) for ea, eb in zip(a, b))


class TestPermutedTasks:
    def _base(self, n=20, d=5):
        rng = np.random.default_rng(0)
        return [StreamEvent(rng.standard_normal(d), np.array([1.0]), 0, t)
                for t in range(n)]

    def test_long_period_keeps_identity(self):
        base = self._base()
        out = gen_permuted_tasks(base, steps_per_task=100, seed=1)
        for ea, eb in zip(base, out):
            assert np.array_equal(ea.x, eb.x)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_is_bijection(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        perm = rng.permutation(dim)
        assert sorted(perm.tolist()) == list(range(dim))

    def test_two_tasks_inverse_recovers_input(self):
        base = self._base(n=20, d=5)
        out = gen_permuted_tasks(base, steps_per_task=10, seed=1)
        # recover the second task's permutation by comparing one event
        rng = np.random.default_rng(1)
        perm = rng.permutation(5)
        ev = out[15]
        orig = base[15]
        assert np.array_equal(ev.x, orig.x[perm])
        inv = np.argsort(perm)
        assert np.array_equal(ev.x[inv], orig.x)
        assert ev.task_id == 1
        assert out[5].task_id == 0


class TestCsv:
    def _write_csv(self, path, rows, header):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def test_energy_shaped_split_counts(self, tmp_path):
        # 768 rows x 8 features at a 0.1 test fraction gives 691 / 77
        rng = np.random.default_rng(0)
        path = tmp_path / "energy.csv"
        rows = [[*rng.standard_normal(8), rng.standard_normal()] for _ in range(768)]
        self._write_csv(path, rows, [f"f{i}" for i in range(8)] + ["target"])
        train, (x_test, y_test) = load_csv_regression(path, "target", split_seed=0)
        assert len(train) == 691
        assert len(y_test) == 77
        assert train[0].x.shape == (8,)

    def test_standardization_uses_train_statistics(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "data.csv"
        rows = [[10 + 5 * rng.standard_normal(), rng.standard_normal()] for _ in range(200)]
        self._write_csv(path, rows, ["a", "y"])
        train, _ = load_csv_regression(path, "y", split_seed=3)
        xs = np.array([ev.x[0] for ev in train])
        assert abs(xs.mean()) <= 1e-10
        assert abs(xs.std() - 1.0) <= 1e-10

    def test_split_seed_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "data.csv"
        rows = [[rng.standard_normal(), rng.standard_normal()] for _ in range(50)]
        self._write_csv(path, rows, ["a", "y"])
        t1, (x1, _) = load_csv_regression(path, "y", split_seed=9)
        t2, (x2, _) = load_csv_regression(path, "y", split_seed=9)
        assert np.array_equal(x1, x2)
        assert all(np.array_equal(a.x, b.x) for a, b in zip(t1, t2))

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("a,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv_regression(path, "y")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="target"):
            load_csv_regression(path, "z")


def per_event_classification(steps, in_dim, num_classes, seed, teacher_widths=(20,),
                             margin_noise=0.0):
    """The stream with the teacher run on each event alone."""
    from lrkf.models import MlpModel, MlpSpec, initialize_mean

    rng = np.random.default_rng(seed)
    spec = MlpSpec((in_dim, *teacher_widths, num_classes))
    theta = 3.0 * initialize_mean(spec, rng.integers(2**31))
    events = []
    for t in range(steps):
        x = rng.standard_normal(in_dim)
        logits = MlpModel(spec).logits(x, theta)
        if margin_noise > 0:
            logits = logits + rng.normal(0.0, margin_noise, size=num_classes)
        events.append((x, np.eye(num_classes)[int(np.argmax(logits))]))
    return events


@pytest.mark.parametrize("margin_noise", [0.0, 0.3, 2.0])
@pytest.mark.parametrize("steps, in_dim, num_classes, widths", [
    (0, 3, 2, (20,)), (1, 1, 2, (20,)), (60, 8, 5, (20,)), (200, 4, 10, (6, 7)),
])
def test_synthetic_classification_matches_a_teacher_per_event(
    steps, in_dim, num_classes, widths, margin_noise
):
    for seed in (0, 5):
        got = gen_synthetic_classification(steps, in_dim, num_classes, seed, widths, margin_noise)
        want = per_event_classification(steps, in_dim, num_classes, seed, widths, margin_noise)
        assert len(got) == len(want) == steps
        for t, (ev, (x, y)) in enumerate(zip(got, want)):
            assert (ev.t, ev.task_id) == (t, 0)
            assert ev.x.tobytes() == x.tobytes() and ev.y.tobytes() == y.tobytes()


def test_multipass_reshuffles_with_epoch_seeds():
    events = [StreamEvent(np.array([float(i)]), np.array([0.0]), 0, i) for i in range(6)]
    out = multipass(events, passes=3, seed=5)
    assert len(out) == 18
    assert [ev.t for ev in out] == list(range(18))
    # first epoch in order, later epochs shuffled deterministically
    assert [ev.x[0] for ev in out[:6]] == [0, 1, 2, 3, 4, 5]
    again = multipass(events, passes=3, seed=5)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(out, again))
    epoch2 = [ev.x[0] for ev in out[6:12]]
    assert sorted(epoch2) == [0, 1, 2, 3, 4, 5]
    assert epoch2 != [0, 1, 2, 3, 4, 5]


class _PerfectLearner:
    """Echoes the stream's own targets; for metric plumbing tests."""

    def __init__(self, targets, model):
        self.targets = targets
        self.model = model
        self.i = 0
        self.seen = []

    def predict(self, x):
        from lrkf.learners import PredictOutput

        return PredictOutput(self.targets[min(self.i, len(self.targets) - 1)])

    def observe(self, x, y):
        self.seen.append((x, y))
        self.i += 1


def _gaussian_model(c=1, r=1.0):
    from lrkf.models import FunctionModel, GaussianFamily

    return FunctionModel(lambda x, th: np.zeros(c), lambda x, th: np.zeros((c, 1)),
                         GaussianFamily(r), parameter_count=1)


class TestPrequential:
    def test_perfect_predictor_zero_rmse(self):
        events = gen_piecewise_sine(PiecewiseSineSpec(1, 20), seed=0)
        learner = _PerfectLearner([ev.y for ev in events], _gaussian_model())
        rows = prequential_eval(learner, events, ("rmse",))
        assert all(r["value"] == 0.0 for r in rows)

    def test_uniform_classifier_nll_is_log_c(self):
        from lrkf.models import CategoricalFamily, FunctionModel

        c = 3
        events = gen_synthetic_classification(10, in_dim=2, num_classes=c, seed=0)
        model = FunctionModel(lambda x, th: np.zeros(c), lambda x, th: np.zeros((c, 1)),
                              CategoricalFamily(), parameter_count=1)
        learner = _PerfectLearner([np.full(c, 1.0 / c)] * len(events), model)
        rows = prequential_eval(learner, events, ("nll",))
        assert all(r["value"] == pytest.approx(np.log(c)) for r in rows)

    def test_window_one_equals_unwindowed(self):
        events = gen_piecewise_sine(PiecewiseSineSpec(1, 15), seed=2)
        preds = [ev.y + 0.5 for ev in events]
        r1 = prequential_eval(_PerfectLearner(preds, _gaussian_model()), events, ("rmse",), window=1)
        r2 = prequential_eval(_PerfectLearner(preds, _gaussian_model()), events, ("rmse",))
        assert [a["value"] for a in r1] == [b["value"] for b in r2]

    def test_windowed_rmse_averages_squared_errors(self):
        events = [StreamEvent(np.zeros(1), np.array([0.0]), 0, t) for t in range(3)]
        preds = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        rows = prequential_eval(_PerfectLearner(preds, _gaussian_model()), events,
                                ("rmse",), window=2)
        vals = [r["value"] for r in rows]
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(np.sqrt((1 + 4) / 2))
        assert vals[2] == pytest.approx(np.sqrt((4 + 9) / 2))

    def test_prediction_precedes_label_access(self):
        # spy stream: events record when y is first read; the learner
        # records when predictions were requested
        access_log = []

        class SpyEvent:
            def __init__(self, t):
                self.t = t
                self.task_id = 0
                self.x = np.array([float(t)])
                self._y = np.array([float(t)])

            @property
            def y(self):
                access_log.append(("y", self.t))
                return self._y

        class SpyLearner:
            model = _gaussian_model()

            def predict(self, x):
                from lrkf.learners import PredictOutput

                access_log.append(("predict", int(x[0])))
                return PredictOutput(np.zeros(1))

            def observe(self, x, y):
                pass

        events = [SpyEvent(t) for t in range(5)]
        prequential_eval(SpyLearner(), events, ("rmse",))
        for t in range(5):
            assert access_log.index(("predict", t)) < access_log.index(("y", t))

    def test_learner_never_sees_task_id(self):
        events = gen_piecewise_sine(PiecewiseSineSpec(2, 5), seed=0)
        seen = []

        class Recorder:
            model = _gaussian_model()

            def predict(self, x):
                from lrkf.learners import PredictOutput

                seen.append(x)
                return PredictOutput(np.zeros(1))

            def observe(self, x, y):
                seen.append(x)
                seen.append(y)

        prequential_eval(Recorder(), events, ("rmse",))
        for item in seen:
            assert isinstance(item, np.ndarray)
            assert not hasattr(item, "task_id")

    def test_unknown_metric_rejected(self):
        events = gen_piecewise_sine(PiecewiseSineSpec(1, 3), seed=0)
        with pytest.raises(ValueError, match="unknown metric"):
            prequential_eval(_PerfectLearner([ev.y for ev in events], _gaussian_model()),
                             events, ("accuracy",))

    def test_class_index_targets_rejected(self):
        from lrkf.models import CategoricalFamily, FunctionModel

        model = FunctionModel(lambda x, th: np.zeros(3), lambda x, th: np.zeros((3, 1)),
                              CategoricalFamily(), parameter_count=1)
        events = [StreamEvent(np.zeros(2), np.array(1.0), 0, t) for t in range(4)]
        learner = _PerfectLearner([np.full(3, 1.0 / 3)] * 4, model)
        with pytest.raises(ValueError, match="one-hot labels"):
            prequential_eval(learner, events, ("misclass",))

    def test_heldout_task_test_sets(self):
        from lrkf.streams import piecewise_sine_test_sets

        spec = PiecewiseSineSpec(2, 10, noise_sd=0.0)
        events = gen_piecewise_sine(spec, seed=3)
        sets = piecewise_sine_test_sets(spec, seed=3, n_per_task=20)
        learner = _PerfectLearner([ev.y for ev in events], _gaussian_model())
        rows = prequential_eval(learner, events, ("rmse",), test_sets=sets, test_every=5)
        test_rows = [r for r in rows if r["metric"] == "test_rmse"]
        assert len(test_rows) == 4  # every 5 steps over 20 events
        assert {r["task_id"] for r in test_rows} == {0, 1}
        # a learner echoing stream targets is not the task function, so
        # test_rmse is positive; the plumbing just has to produce rows
        assert all(np.isfinite(r["value"]) for r in test_rows)


class TestBatchedScoring:
    """prequential_eval's after-the-loop scoring against the per-event scorer
    it replaced, row for row and bit for bit."""

    @staticmethod
    def metric_value(metric, learner, x, out, y, nlpd_samples, seed, t):
        from lrkf.predictive import CategoricalPrediction, GaussianPrediction, mc_predict

        if metric == "rmse":
            resid = np.atleast_1d(y) - np.atleast_1d(out.y_hat)
            return float(np.mean(resid**2))
        if metric == "misclass":
            truth = int(np.argmax(y)) if np.ndim(y) else int(y)
            return float(int(np.argmax(out.y_hat)) != truth)
        family = learner.model.family
        if metric == "nll":
            if family.kind == "categorical":
                return float(CategoricalPrediction(out.y_hat).nll(y))
            y_hat = np.atleast_1d(out.y_hat)
            c = y_hat.shape[0]
            return float(GaussianPrediction(y_hat, family.obs_cov(c), family.obs_chol(c)).nll(y))
        return float(mc_predict(out.belief, learner.model, x, y, nlpd_samples, [seed, t]))

    def reference_rows(self, learner, stream, metrics, window, nlpd_samples=7, seed=0):
        from lrkf.streams import _rolling_mean

        raw = {m: [] for m in metrics}
        meta = []
        for ev in stream:
            out = learner.predict(ev.x)
            meta.append((ev.t, ev.task_id))
            for m in metrics:
                raw[m].append(self.metric_value(m, learner, ev.x, out, ev.y, nlpd_samples, seed, ev.t))
            learner.observe(ev.x, ev.y)
        rows = []
        for m in metrics:
            values = _rolling_mean(raw[m], window)
            if m == "rmse":
                values = np.sqrt(values)
            for (t, task_id), v in zip(meta, values):
                rows.append({"t": t, "task_id": task_id, "metric": m, "value": float(v)})
        return rows

    def assert_same_rows(self, make_learner, events, metrics):
        for window in (1, 4):
            rows = prequential_eval(make_learner(), events, metrics, window=window,
                                    nlpd_samples=7)
            ref = self.reference_rows(make_learner(), events, metrics, window)
            assert rows == ref

    def test_gaussian_one_output(self):
        from lrkf.learners import build_learner
        from lrkf.models import GaussianFamily, MlpModel, MlpSpec

        model = MlpModel(MlpSpec((1, 6, 1)), GaussianFamily(0.04))
        events = gen_piecewise_sine(PiecewiseSineSpec(num_tasks=2, steps_per_task=20), seed=1)
        self.assert_same_rows(
            lambda: build_learner("lrekf", model, {"rank": 3, "process_noise": 1e-4}, 0),
            events, ("rmse", "nll", "nlpd"),
        )

    def test_gaussian_three_outputs_full_covariance(self):
        from lrkf.learners import build_learner
        from lrkf.models import GaussianFamily, MlpModel, MlpSpec

        r = np.array([[0.5, 0.2, 0.0], [0.2, 0.4, -0.1], [0.0, -0.1, 0.3]])
        model = MlpModel(MlpSpec((2, 5, 3)), GaussianFamily(r))
        rng = np.random.default_rng(2)
        events = []
        for t in range(40):
            x = rng.standard_normal(2)
            y = np.array([np.sin(x[0]), x[0] * x[1], np.cos(x[1])]) + 0.3 * rng.standard_normal(3)
            events.append(StreamEvent(x, y, 0, t))
        self.assert_same_rows(
            lambda: build_learner("lrekf", model, {"rank": 4, "process_noise": 1e-4}, 0),
            events, ("rmse", "nll"),
        )

    def test_categorical_with_an_underflowed_class(self):
        from lrkf.models import CategoricalFamily, FunctionModel, softmax

        c = 4
        model = FunctionModel(lambda x, th: np.zeros(c), lambda x, th: np.zeros((c, 1)),
                              CategoricalFamily(), parameter_count=1)
        events = gen_synthetic_classification(30, in_dim=2, num_classes=c, seed=3)
        rng = np.random.default_rng(3)
        preds = [softmax(3.0 * rng.standard_normal(c)) for _ in events]
        preds[5] = softmax(np.array([0.0, -800.0, -1.0, 0.5]))
        assert preds[5][1] == 0.0
        label = int(np.argmax(events[5].y))
        events[5] = StreamEvent(events[5].x, np.eye(c)[label if label != 1 else 0], 0, 5)
        self.assert_same_rows(lambda: _PerfectLearner(preds, model), events, ("nll", "misclass"))
