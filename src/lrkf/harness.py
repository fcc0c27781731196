"""Experiment runner: config files, seeded execution, metric emission.

Config files are flat INI text, sections of ``key = value`` lines; every
key, its type, default, range and readers are declared in
:mod:`lrkf.schema`, and the README's config grammar describes them.

Metric files use the fixed schema ``t,task_id,seed,method,metric,value``
with floats printed at 17 significant digits, so identical runs produce
byte-identical files.
"""

import configparser
import csv
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import schema
from .adaptive import DEFAULT_SPACE, random_search_tune
from .exceptions import ConfigError, NumericalDegeneracyError
from .learners import REGISTRY, SgdReplayLearner, build_learner
from .models import CategoricalFamily, GaussianFamily, MlpModel, MlpSpec
from .schema import defaults
from .streams import (
    PiecewiseSineSpec,
    gen_drifting_target,
    gen_permuted_tasks,
    gen_piecewise_sine,
    gen_synthetic_classification,
    load_csv_regression,
    multipass,
    prequential_eval,
)

WORKERS_ENV = "LRKF_WORKERS"
# a failed seed: lost positive definiteness or a non-finite value, or an
# SVD that did not converge (thin_svd's P <= K branch calls np.linalg.svd)
SEED_FAILURES = (NumericalDegeneracyError, np.linalg.LinAlgError)
_EXPERIMENT = defaults("experiment")
METRIC_HEADER = "t,task_id,seed,method,metric,value\n"


@dataclass
class ExperimentConfig:
    method: str
    method_params: dict
    stream: dict
    model: dict
    seeds: list
    passes: int = _EXPERIMENT["passes"]
    metrics: tuple = _EXPERIMENT["metrics"]
    output: str = _EXPERIMENT["output"]
    nlpd_samples: int = _EXPERIMENT["nlpd_samples"]
    tune: dict = field(default_factory=dict)
    bandit: dict = field(default_factory=dict)


def parse_config(path):
    """Read an INI experiment file into an :class:`ExperimentConfig`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config file: {exc}"]) from exc
    if not read:
        raise ConfigError([f"config file not found: {path}"])
    values = schema.parse(parser)
    method = values["method"]
    return ExperimentConfig(
        method=method.pop("name", None), method_params=method, stream=values["stream"],
        model=values["model"], tune=values["tune"], bandit=values["bandit"],
        **{**_EXPERIMENT, **values["experiment"]},
    )


def validate_config(cfg, verb=None):
    """Collect every violation; empty list means the config is runnable.
    ``lrkf run`` and ``lrkf tune`` read no ``[bandit]`` key, so under either
    ``verb`` each one set is a problem."""
    problems = []
    if cfg.method not in REGISTRY:
        problems.append("method.name: required" if cfg.method is None else
                        f"method.name: unknown method {cfg.method!r}; "
                        f"valid tags: {', '.join(sorted(REGISTRY))}")
    kind = cfg.stream.get("kind")
    family = {**defaults("model"), **cfg.model}["family"]
    method = cfg.method if cfg.method in REGISTRY else None
    known_family = family if family in schema.FAMILIES else None
    for section, values, reader in (
        ("experiment", {name: getattr(cfg, name) for name in schema.SECTIONS["experiment"]}, None),
        ("model", cfg.model, known_family),
        ("method", cfg.method_params, method),
        ("stream", cfg.stream, kind if kind in schema.KINDS else None),
        ("tune", cfg.tune, known_family),
        ("bandit", cfg.bandit, None),
    ):
        problems.extend(schema.check(section, values, reader))
    problems.extend(f"bandit.{key}: not read by lrkf {verb}; use lrkf bandit"
                    for key in cfg.bandit if verb)
    # the schema checks each key alone; these rules tie keys together
    repeated = sorted({seed for seed in cfg.seeds if cfg.seeds.count(seed) > 1})
    if repeated:
        problems.append(f"experiment.seeds: repeats {' '.join(map(str, repeated))}; "
                        "list each seed once")
    if cfg.passes > 1 and kind != schema.CSV:
        problems.append(
            "experiment.passes: multiple passes are only valid for static streams (csv)"
        )
    if family == "categorical" and "rmse" in cfg.metrics:
        problems.append("experiment.metrics: rmse is a regression metric")
    if family == "gaussian" and "misclass" in cfg.metrics:
        problems.append("experiment.metrics: misclass is a classification metric")
    if "nlpd" in cfg.metrics and method and not REGISTRY[method].sampler:
        problems.append(
            "experiment.metrics: nlpd needs a low-rank or diagonal posterior to sample; "
            f"{cfg.method} has none"
        )
    p = {**defaults("method"), **cfg.method_params}
    gap = abs(p["gamma"] ** 2 + p["process_noise"] * p["initial_precision"] - 1.0)
    if p["steady_state"] and gap > 1e-12:  # as diagonal.DynamicsConfig demands
        problems.append("method.steady_state: needs gamma^2 + process_noise * "
                        f"initial_precision == 1 (off by {gap:.3e})")
    variant, alpha = p["inflation"], p["inflation_alpha"]
    if method and "inflation" in defaults("method", method) and variant in schema.VARIANTS:
        # inflation is off at variant none or alpha 0, so either alone would be ignored
        if variant == "none" and alpha > 0:
            problems.append("method.inflation_alpha: needs an inflation other than none")
        elif variant != "none" and alpha == 0:
            problems.append(f"method.inflation: {variant} needs inflation_alpha > 0")
    for key, rng in _tune_space(cfg).items():
        if not rng.low <= rng.high or (rng.log and not rng.low > 0):
            log = " and lo > 0 (log scale)" if rng.log else ""
            problems.append(f"tune.space_{key}: need lo <= hi{log}")
    return problems


def build_stream(cfg, seed):
    """Instantiate the stream and report the model's in/out dimensions.
    Each kind's keys but csv's are the arguments of its generator."""
    s = {**defaults("stream", cfg.stream["kind"]), **cfg.stream}
    kind = s.pop("kind")
    if kind == schema.SINE:
        return gen_piecewise_sine(PiecewiseSineSpec(**s), seed), 1, 1
    if kind == schema.DRIFT:
        return gen_drifting_target(seed=seed, **s), s["in_dim"], 1
    if kind == schema.CSV:
        split_seed = seed if s["split_seed"] is None else s["split_seed"]
        events, _ = load_csv_regression(
            s["path"], s["target"], s["standardize"], split_seed, s["test_fraction"]
        )
        return events, events[0].x.shape[0], 1
    steps_per_task = s.pop("steps_per_task", None)  # permuted only
    events = gen_synthetic_classification(seed=seed, **s)
    if kind == schema.PERMUTED:
        events = gen_permuted_tasks(events, steps_per_task, seed)
    return events, s["in_dim"], s["num_classes"]


def build_model(cfg, in_dim, out_dim):
    m = {**defaults("model"), **cfg.model}
    spec = MlpSpec((in_dim, *m["hidden"], out_dim), activation=m["activation"])
    family = CategoricalFamily() if m["family"] == "categorical" else GaussianFamily(m["obs_variance"])
    return MlpModel(spec, family)


def run_seed(cfg, seed):
    """One seed of the prequential loop. Returns (rows, error message)."""
    try:
        events, in_dim, out_dim = build_stream(cfg, seed)
        if cfg.passes > 1:
            events = multipass(events, cfg.passes, seed)
        model = build_model(cfg, in_dim, out_dim)
        learner = build_learner(cfg.method, model, cfg.method_params, seed)
        rows = prequential_eval(
            learner, events, cfg.metrics, nlpd_samples=cfg.nlpd_samples, seed=seed
        )
        return rows, None
    except SEED_FAILURES as exc:
        return [], f"{type(exc).__name__}: {exc}"


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_metric_csv(path, rows):
    """Write ``rows`` under :data:`METRIC_HEADER`; return the text after the
    header. No field holds a character ``csv.writer`` would quote (tested),
    so joining the fields gives its bytes."""
    body = "".join(f"{r['t']},{r['task_id']},{r['seed']},{r['method']},{r['metric']},"
                   f"{_fmt(r['value'])}\n" for r in rows)
    with open(path, "w", newline="") as fh:
        fh.writelines((METRIC_HEADER, body))
    return body


def write_summary_csv(path, rows_by_seed, method):
    """Mean and standard error across seeds of each per-seed mean metric."""
    per_metric = {}
    for seed, rows in rows_by_seed.items():
        for r in rows:
            per_metric.setdefault(r["metric"], {}).setdefault(seed, []).append(r["value"])
    out = []
    for metric in sorted(per_metric):
        seed_means = [np.mean(v) for _, v in sorted(per_metric[metric].items())]
        mean = float(np.mean(seed_means))
        sem = float(np.std(seed_means, ddof=1) / np.sqrt(len(seed_means))) if len(seed_means) > 1 else 0.0
        out.append([method, metric, _fmt(mean), _fmt(sem), len(seed_means)])
    _write_csv(path, ["method", "metric", "mean", "stderr", "n_seeds"], out)


def run_experiment(cfg):
    """Run every seed, write per-seed files, a merged file, and a summary.

    Returns a dict with per-seed status; the CLI exits nonzero unless all
    seeds completed. Worker count comes from the LRKF_WORKERS env var;
    results are merged in seed order either way. A file an earlier run into
    the same directory left and this run does not write is removed: a
    failed seed's ``metrics_seed<k>.csv``, ``summary.csv`` when no seed
    completed, ``failures.txt`` when none failed.
    """
    problems = validate_config(cfg, "run")
    if problems:
        raise ConfigError(problems)
    os.makedirs(cfg.output, exist_ok=True)
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers > 1:
        # imported here: the pool module and multiprocessing cost about
        # 16 ms of import, and a single-process run never needs them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, [cfg] * len(cfg.seeds), cfg.seeds))
    else:
        results = [run_seed(cfg, seed) for seed in cfg.seeds]

    bodies = []  # metrics.csv is the per-seed files' rows in seed order
    rows_by_seed = {}
    errors = {}
    for seed, (rows, err) in zip(cfg.seeds, results):
        if err is not None:
            errors[seed] = err
            Path(cfg.output, f"metrics_seed{seed}.csv").unlink(missing_ok=True)
            continue
        decorated = [dict(r, seed=seed, method=cfg.method) for r in rows]
        rows_by_seed[seed] = rows
        bodies.append(write_metric_csv(os.path.join(cfg.output, f"metrics_seed{seed}.csv"), decorated))
    with open(os.path.join(cfg.output, "metrics.csv"), "w", newline="") as fh:
        fh.writelines((METRIC_HEADER, *bodies))
    if rows_by_seed:
        write_summary_csv(os.path.join(cfg.output, "summary.csv"), rows_by_seed, cfg.method)
    else:
        Path(cfg.output, "summary.csv").unlink(missing_ok=True)
    _write_failures(cfg.output, errors)
    return {"completed": sorted(rows_by_seed), "failed": errors}


def _write_failures(output, errors):
    """``failures.txt``, one line per failed seed, when any seed failed;
    otherwise an earlier run's ``failures.txt`` is removed."""
    path = Path(output, "failures.txt")
    if errors:
        path.write_text("".join(f"seed {seed}: {err}\n" for seed, err in sorted(errors.items())))
    else:
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------

def _tune_space(cfg):
    """DEFAULT_SPACE with the ``space_<param> = lo hi`` bounds of the config,
    less ``obs_variance`` on a categorical model."""
    family = {**defaults("model"), **cfg.model}["family"]
    bounds = {**defaults("tune", family), **cfg.tune}
    return {
        key: replace(default, low=lo, high=hi)
        for key, default in DEFAULT_SPACE.items() if f"space_{key}" in bounds
        for lo, hi in [bounds[f"space_{key}"]]
    }


def tune_experiment(cfg):
    """Random-search the method hyperparameters on the tuning stream.

    The objective is the mean one-step-ahead NLL over the first
    ``tune.steps`` events (prequential), or over a held-back validation
    prefix when ``objective = validation_nll``. The final test stream is
    never touched here.
    """
    problems = validate_config(cfg, "tune")
    if problems:
        raise ConfigError(problems)
    t = {**defaults("tune"), **cfg.tune}
    seed = t["seed"]
    events, in_dim, out_dim = build_stream(cfg, seed)
    events = events[:t["steps"]]
    model = build_model(cfg, in_dim, out_dim)

    def objective(sampled):
        params = {**cfg.method_params, **sampled}
        r = params.pop("obs_variance", None)  # sampled for gaussian models only
        use_model = model if r is None else MlpModel(model.spec, GaussianFamily(r))
        learner = build_learner(cfg.method, use_model, params, seed)
        scored = events
        if t["objective"] == "validation_nll":
            scored = events[len(events) // 2:]
            for ev in events[:len(events) // 2]:
                learner.observe(ev.x, ev.y)
        rows = prequential_eval(learner, scored, ("nll",), seed=seed)
        return float(np.mean([r["value"] for r in rows]))

    best, trials = random_search_tune(_tune_space(cfg), t["budget"], objective, seed)
    return best, trials


def write_trials_csv(path, trials):
    keys = sorted({k for t in trials for k in t if k not in ("trial", "objective", "error")})
    _write_csv(path, ["trial", *keys, "objective", "error"], (
        [t["trial"], *[_fmt(t.get(k, "")) for k in keys], _fmt(t["objective"]), t.get("error", "")]
        for t in trials
    ))


# ---------------------------------------------------------------------------
# Bandit runs
# ---------------------------------------------------------------------------

def bandit_problems(cfg):
    """Every problem ``lrkf bandit`` (and ``lrkf validate`` on a config
    with ``[bandit]`` keys) reports: those of :func:`validate_config` with
    ``metrics = nll``, which passes every rule on it, and the bandit's own;
    it draws a synthetic_classification stream, reads only ``stream.in_dim``
    and scores no metric. :class:`ExperimentConfig` does not record which
    keys were set, so ``experiment.metrics`` and ``nlpd_samples`` are
    reported as not read when they differ from their defaults."""
    problems = validate_config(replace(cfg, metrics=("nll",)))
    method = REGISTRY.get(cfg.method)
    policy = {**defaults("bandit"), **cfg.bandit}["policy"]
    if method and not method.masked:
        supported = [tag for tag, m in REGISTRY.items() if m.masked]
        problems.append(f"method.name: lrkf bandit does not support {cfg.method!r}; "
                        f"supported: {', '.join(supported)}")
    elif method and policy == "thompson" and not method.sampler:
        problems.append(f"bandit.policy: thompson needs a posterior to sample; "
                        f"{cfg.method} has none, use epsilon_greedy")
    if cfg.model.get("family", "gaussian") != "gaussian":
        problems.append(f"model.family: lrkf bandit models rewards as gaussian, "
                        f"not {cfg.model['family']!r}")
    if cfg.stream.get("kind", schema.CLASSES) != schema.CLASSES:
        problems.append(f"stream.kind: lrkf bandit draws a {schema.CLASSES} stream, "
                        f"not {cfg.stream['kind']!r}")
    problems.extend(f"stream.{name}: not read by lrkf bandit; it reads kind and in_dim"
                    for name in cfg.stream if name not in ("kind", "in_dim"))
    problems.extend(f"experiment.{name}: not read by lrkf bandit; it writes reward and cum_reward"
                    for name in ("metrics", "nlpd_samples") if getattr(cfg, name) != _EXPERIMENT[name])
    return problems


def run_bandit_experiment(cfg):
    """Bandit loop per seed; reward traces written in the metric schema.

    Returns ``{"totals": {seed: total reward}, "failed": {seed: error}}``;
    a seed that fails numerically is left out of the CSV and recorded in
    ``failures.txt``, as in :func:`run_experiment`; when no seed fails, a
    ``failures.txt`` an earlier run left is removed."""
    from .bandit import FilterBanditAgent, SgdBanditAgent, env_from_stream, run_bandit

    problems = bandit_problems(cfg)
    if problems:
        raise ConfigError(problems)
    b = {**defaults("bandit"), **cfg.bandit}
    os.makedirs(cfg.output, exist_ok=True)
    in_dim = {**defaults("stream", schema.CLASSES), **cfg.stream}["in_dim"]
    steps, actions = b["steps"], b["actions"]

    merged = []
    totals, errors = {}, {}
    for seed in cfg.seeds:
        events = gen_synthetic_classification(steps, in_dim, actions, seed)
        model = build_model(cfg, in_dim, actions)
        learner = build_learner(cfg.method, model, cfg.method_params, seed)
        agent_type = SgdBanditAgent if isinstance(learner, SgdReplayLearner) else FilterBanditAgent
        agent = agent_type(learner)
        try:
            rewards = run_bandit(env_from_stream(events, actions), agent, b["policy"], steps,
                                 seed, epsilon=b["epsilon"])
        except SEED_FAILURES as exc:
            errors[seed] = f"{type(exc).__name__}: {exc}"
            continue
        cum = np.cumsum(rewards)
        for t in range(steps):
            merged.append({"t": t, "task_id": 0, "seed": seed, "method": cfg.method,
                           "metric": "reward", "value": float(rewards[t])})
            merged.append({"t": t, "task_id": 0, "seed": seed, "method": cfg.method,
                           "metric": "cum_reward", "value": float(cum[t])})
        totals[seed] = float(cum[-1])
    write_metric_csv(os.path.join(cfg.output, "bandit_metrics.csv"), merged)
    _write_failures(cfg.output, errors)
    return {"totals": totals, "failed": errors}
