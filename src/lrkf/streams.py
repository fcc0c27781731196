"""Synthetic data streams, CSV ingestion, and prequential evaluation.

A stream is a list of :class:`StreamEvent` records. The ``task_id`` field
is evaluation metadata only: the prequential loop hands learners the bare
``(x, y)`` pair, so no learner code can condition on task boundaries.

The prequential loop predicts, then reads the target, then trains. It
scores ``nlpd`` in the loop, because that needs the step's belief; the
point metrics (``rmse``, ``nll``, ``misclass``) are scored after the loop
over the stacked predictions and targets, one vectorized call each.

All generators are pure functions of their arguments and a seed.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .predictive import CategoricalPrediction, GaussianPrediction, mc_predict


@dataclass(frozen=True)
class StreamEvent:
    """One timestep of a stream: input, target, and hidden task metadata."""

    x: np.ndarray
    y: np.ndarray
    task_id: int
    t: int


@dataclass(frozen=True)
class PiecewiseSineSpec:
    """Piecewise stationary 1d regression: per-task random sine warps.

    Task k maps ``f_k(x) = x + 0.3 sin(w0_k + w1_k * pi * x)`` on
    ``x ~ U(-2, 2)`` with Gaussian observation noise; the task switches
    every ``steps_per_task`` steps.
    """

    num_tasks: int = 5
    steps_per_task: int = 250
    noise_sd: float = 0.2

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")


def _sine_coefficients(spec, rng):
    # one (phase, frequency) pair per task, drawn once per stream; the
    # frequency range keeps consecutive tasks visibly distinct
    w0 = rng.uniform(0.0, 2.0 * np.pi, size=spec.num_tasks)
    w1 = rng.uniform(1.0, 3.0, size=spec.num_tasks)
    return w0, w1


def piecewise_sine_fn(spec, seed, task):
    """The noiseless task function, for building held-out test sets."""
    rng = np.random.default_rng(seed)
    w0, w1 = _sine_coefficients(spec, rng)
    return lambda x: x + 0.3 * np.sin(w0[task] + w1[task] * np.pi * x)


def gen_piecewise_sine(spec, seed):
    rng = np.random.default_rng(seed)
    w0, w1 = _sine_coefficients(spec, rng)
    events = []
    total = spec.num_tasks * spec.steps_per_task
    for t in range(total):
        task = t // spec.steps_per_task
        x = rng.uniform(-2.0, 2.0)
        y = x + 0.3 * np.sin(w0[task] + w1[task] * np.pi * x)
        y += rng.normal(0.0, spec.noise_sd) if spec.noise_sd > 0 else 0.0
        events.append(StreamEvent(np.array([x]), np.array([y]), task, t))
    return events


def piecewise_sine_test_sets(spec, seed, n_per_task=200, test_seed=1):
    """Held-out (x, y) arrays per task, noiseless targets."""
    rng = np.random.default_rng(test_seed)
    sets = []
    for task in range(spec.num_tasks):
        fn = piecewise_sine_fn(spec, seed, task)
        xs = rng.uniform(-2.0, 2.0, size=n_per_task)
        sets.append((xs.reshape(-1, 1), fn(xs)))
    return sets


def drifting_oscillator(t_frac, amplitude_growth=1.0):
    """exp(c * t) * sin(35 t) on normalized time t in [0, 1)."""
    return np.exp(amplitude_growth * t_frac) * np.sin(35.0 * t_frac)


def gen_drifting_target(
    steps,
    seed,
    amplitude_growth=1.0,
    noise_sd=np.sqrt(2.0),  # target noise defaults to variance 2
    target_range=(0.0, 180.0),
    in_dim=4,
):
    """Slowly drifting scalar target with distractor features.

    The target follows an amplified oscillation mapped into
    ``target_range``: ``(osc + 1) * (hi - lo) / 2 + lo`` plus Gaussian
    noise, where ``osc = exp(c * t / steps) * sin(35 t / steps)``. Raw
    ``exp(t)`` on the step index would overflow within ~700 steps, so the
    exponent is normalized and its rate ``c`` made configurable. Inputs
    are i.i.d. standard normal vectors that carry no information about
    the target; the stream exercises pure drift tracking.
    """
    lo, hi = target_range
    rng = np.random.default_rng(seed)
    events = []
    for t in range(steps):
        osc = drifting_oscillator(t / steps, amplitude_growth)
        target = (osc + 1.0) * (hi - lo) / 2.0 + lo
        if noise_sd > 0:
            target += rng.normal(0.0, noise_sd)
        x = rng.standard_normal(in_dim)
        events.append(StreamEvent(x, np.array([target]), 0, t))
    return events


def gen_permuted_tasks(base, steps_per_task, seed):
    """Re-permute the input coordinates every ``steps_per_task`` steps.

    Task 0 keeps the identity permutation; later tasks draw a fresh
    random permutation of the feature axes.
    """
    base = list(base)
    if not base:
        return []
    dim = np.asarray(base[0].x).shape[0]
    rng = np.random.default_rng(seed)
    num_tasks = (len(base) + steps_per_task - 1) // steps_per_task
    perms = [np.arange(dim)]
    for _ in range(1, num_tasks):
        perms.append(rng.permutation(dim))
    events = []
    for ev in base:
        task = ev.t // steps_per_task
        events.append(StreamEvent(np.asarray(ev.x)[perms[task]], ev.y, task, ev.t))
    return events


def gen_synthetic_classification(
    steps, in_dim, num_classes, seed, teacher_widths=(20,), margin_noise=0.0
):
    """Labels from a random frozen MLP teacher on Gaussian inputs. Each
    event's input, then its margin noise, is drawn in stream order; the
    teacher then runs once over all inputs, each row as a pass over it alone."""
    from .models import MlpModel, MlpSpec, initialize_mean

    rng = np.random.default_rng(seed)
    spec = MlpSpec((in_dim, *teacher_widths, num_classes), activation="tanh")
    theta = 3.0 * initialize_mean(spec, rng.integers(2**31))
    xs, noise = [], []
    for _ in range(steps):
        xs.append(rng.standard_normal(in_dim))
        if margin_noise > 0:
            noise.append(rng.normal(0.0, margin_noise, size=num_classes))
    pre, _ = MlpModel(spec)._pass(np.reshape(xs, (steps, in_dim)), spec.unpack(theta))
    logits = pre[-1]
    if noise:
        logits = logits + np.array(noise)
    labels = np.eye(num_classes)[np.argmax(logits, axis=-1)]
    return [StreamEvent(x, y, 0, t) for t, (x, y) in enumerate(zip(xs, labels))]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_csv_regression(path, target_column, standardize=True, split_seed=0, test_fraction=0.1):
    """Read a numeric CSV with header into a regression stream.

    Returns ``(train_events, (x_test, y_test))``. Rows are shuffled with
    ``split_seed``; standardization statistics come from the train split
    only and are applied to both splits.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if target_column not in header:
            raise ValueError(f"missing target column {target_column!r} in {header}")
        t_idx = header.index(target_column)
        rows = []
        for i, row in enumerate(reader):
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"non-numeric cell in data row {i}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    y = data[:, t_idx]
    x = np.delete(data, t_idx, axis=1)

    rng = np.random.default_rng(split_seed)
    order = rng.permutation(len(y))
    n_test = int(round(test_fraction * len(y)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_test, y_test = x[test_idx], y[test_idx]

    if standardize:
        x_mean, x_sd = x_train.mean(axis=0), x_train.std(axis=0)
        x_sd[x_sd == 0] = 1.0
        y_mean, y_sd = y_train.mean(), y_train.std() or 1.0
        x_train = (x_train - x_mean) / x_sd
        x_test = (x_test - x_mean) / x_sd
        y_train = (y_train - y_mean) / y_sd
        y_test = (y_test - y_mean) / y_sd

    events = [
        StreamEvent(x_train[i], np.array([y_train[i]]), 0, i)
        for i in range(len(y_train))
    ]
    return events, (x_test, y_test)


def multipass(events, passes, seed):
    """Concatenate shuffled passes over a static stream.

    The order is reshuffled at the end of each epoch with an
    epoch-indexed seed; step indices are renumbered to stay global.
    """
    out = []
    t = 0
    for epoch in range(passes):
        order = np.arange(len(events)) if epoch == 0 else np.random.default_rng(
            [seed, epoch]
        ).permutation(len(events))
        for i in order:
            ev = events[i]
            out.append(StreamEvent(ev.x, ev.y, ev.task_id, t))
            t += 1
    return out


# ---------------------------------------------------------------------------
# Prequential evaluation
# ---------------------------------------------------------------------------

METRICS = ("rmse", "nll", "nlpd", "misclass")


def _rolling_mean(values, window):
    if window <= 1:
        return np.asarray(values, dtype=float)
    values = np.asarray(values, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(values)])
    out = np.empty_like(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def prequential_eval(learner, stream, metrics, window=1, nlpd_samples=100, seed=0,
                     test_sets=None, test_every=50):
    """Score one-step-ahead predictions, then train, one event at a time.

    Every prediction is obtained before the event's target is shown to
    the learner. Returns a list of row dicts with keys
    ``t, task_id, metric, value``; with ``window > 1`` each value is a
    trailing mean over that many steps (rmse averages squared errors
    before the root).

    ``nlpd`` needs the belief of its own step, so it is scored inside the
    loop. The loop only collects each event's prediction ``y_hat`` and
    target ``y`` for the point metrics (``rmse``, ``nll``, ``misclass``),
    which are scored after it over the whole stream in one vectorized
    call each; every value equals the one a single-event call gives.

    ``test_sets`` optionally holds one held-out ``(X, y)`` pair per task;
    every ``test_every`` steps the learner's point predictions are scored
    on the current task's set and emitted as ``test_rmse`` rows.
    """
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; pick from {METRICS}")
    score_nlpd = "nlpd" in metrics
    meta, y_hats, ys, nlpd = [], [], [], []
    rows = []
    for step, ev in enumerate(stream):
        out = learner.predict(ev.x)
        y = ev.y
        meta.append((ev.t, ev.task_id))
        y_hats.append(out.y_hat)
        ys.append(y)
        if score_nlpd:
            if out.belief is None:
                raise ValueError("nlpd needs a learner with a posterior belief")
            nlpd.append(
                float(mc_predict(out.belief, learner.model, ev.x, y, nlpd_samples, [seed, ev.t]))
            )
        learner.observe(ev.x, y)
        if test_sets is not None and (step + 1) % test_every == 0:
            xs, ys_test = test_sets[ev.task_id]
            preds = np.array([learner.predict(x).y_hat[0] for x in xs])
            rows.append({
                "t": ev.t, "task_id": ev.task_id, "metric": "test_rmse",
                "value": float(np.sqrt(np.mean((preds - ys_test) ** 2))),
            })
    if not meta:
        return rows
    y_hat = np.array(y_hats, dtype=float).reshape(len(meta), -1)
    y = np.array(ys, dtype=float).reshape(len(meta), -1)
    if y.shape != y_hat.shape:
        raise ValueError(f"targets of shape {y.shape[1:]} do not match predictions "
                         f"of shape {y_hat.shape[1:]}; classes need one-hot labels")
    for m in metrics:
        raw = nlpd if m == "nlpd" else _point_scores(m, learner, y_hat, y)
        values = _rolling_mean(raw, window)
        if m == "rmse":
            values = np.sqrt(values)
        for (t, task_id), v in zip(meta, values):
            rows.append({"t": t, "task_id": task_id, "metric": m, "value": float(v)})
    return rows


def _point_scores(metric, learner, y_hat, y):
    """Per-event values of a point metric from the stacked predictions and
    target vectors (label vectors for classification), both (N, C): the
    squared error (rooted after windowing), the 0/1 error of the argmax
    class, or the plug-in NLL."""
    if metric == "rmse":
        return np.mean((y - y_hat) ** 2, axis=-1)
    if metric == "misclass":
        return (np.argmax(y_hat, axis=-1) != np.argmax(y, axis=-1)).astype(float)
    family = learner.model.family
    if family.kind == "categorical":
        return CategoricalPrediction(y_hat).nll(y)
    c = y_hat.shape[-1]
    return GaussianPrediction(y_hat, family.obs_cov(c), family.obs_chol(c)).nll(y)
