"""Experiment runner: config files, seeded execution, metric emission.

Config files are flat INI text (sections of ``key = value`` lines):

    [experiment]
    seeds = 0 1 2
    passes = 1
    metrics = rmse nll
    output = out

    [model]
    hidden = 50            ; hidden widths, blank for a linear model
    activation = tanh
    family = gaussian      ; or categorical
    obs_variance = 0.04

    [method]
    name = lrekf
    rank = 10
    gamma = 1.0
    process_noise = 1e-4
    initial_precision = 1.0

    [stream]
    kind = piecewise_sine  ; piecewise_sine | drifting | synthetic_classification
                           ; | permuted_classification | csv
    ...generator fields...

Metric files use the fixed schema ``t,task_id,seed,method,metric,value``
with floats printed at 17 significant digits, so identical runs produce
byte-identical files.
"""

import configparser
import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adaptive import DEFAULT_SPACE, random_search_tune
from .exceptions import ConfigError, NumericalDegeneracyError
from .learners import INFLATED_METHODS, REGISTRY, build_learner
from .models import CategoricalFamily, GaussianFamily, MlpModel, MlpSpec
from .streams import (
    METRICS,
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

STREAM_KINDS = (
    "piecewise_sine",
    "drifting",
    "synthetic_classification",
    "permuted_classification",
    "csv",
)
STATIC_KINDS = ("csv",)

_FLOAT_KEYS = {
    "gamma", "process_noise", "initial_precision", "obs_variance", "lr",
    "inflation_alpha", "noise_sd", "epsilon", "reward_variance",
    "amplitude_growth", "test_fraction", "margin_noise",
}
_INT_KEYS = {
    "rank", "buffer_size", "inner_iters", "iterations", "linesearch_grid",
    "num_tasks", "steps_per_task", "steps", "in_dim", "num_classes",
    "split_seed", "seed", "budget", "actions", "nlpd_samples", "passes",
}
_BOOL_KEYS = {"steady_state", "standardize"}

# the keys each section accepts; [tune] also takes ``space_<param> = lo hi``
# for each tunable param
_SECTION_KEYS = {name: set(keys.split()) for name, keys in {
    "experiment": "seeds passes metrics output nlpd_samples",
    "model": "hidden activation family obs_variance",
    "method": "name rank gamma process_noise initial_precision steady_state inflation "
              "inflation_alpha update iterations linesearch_grid buffer_size optimizer lr "
              "inner_iters",
    "stream": "kind num_tasks steps_per_task noise_sd steps amplitude_growth in_dim "
              "num_classes margin_noise path target standardize split_seed test_fraction",
    "tune": "budget steps seed objective " + " ".join(f"space_{k}" for k in DEFAULT_SPACE),
    "bandit": "actions steps policy epsilon reward_variance",
}.items()}

# methods the bandit loop can drive: a masked filter update or a point estimate
BANDIT_METHODS = ("lrekf", "lrekf_spherical", "fcekf", "sgd_rb", "ogd")
# methods without a posterior the sampler can draw from (nlpd, thompson)
UNSAMPLED_METHODS = ("sgd_rb", "ogd", "fcekf", "iekf")
BANDIT_POLICIES = ("thompson", "epsilon_greedy")


def _coerce(key, value):
    """Typed value of one key; raises KeyError or ValueError if it does not parse."""
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        return int(value)
    if key in _BOOL_KEYS:
        return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
    if key.startswith("space_"):
        lo, hi = (float(tok) for tok in value.split())  # exactly two numbers
        return lo, hi
    return [int(tok) for tok in value.split()] if key == "seeds" else value


@dataclass
class ExperimentConfig:
    method: str
    method_params: dict
    stream: dict
    model: dict
    seeds: list
    passes: int = 1
    metrics: tuple = ("rmse",)
    output: str = "out"
    nlpd_samples: int = 100
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

    problems = [
        f"{name}: unknown section; valid: {', '.join(_SECTION_KEYS)}"
        for name in parser.sections() if name not in _SECTION_KEYS
    ]

    def section(name):
        values = {}
        known = _SECTION_KEYS[name]
        for key, text in parser[name].items() if parser.has_section(name) else ():
            if key not in known:
                problems.append(f"{name}.{key}: unknown key; valid: {', '.join(sorted(known))}")
                continue
            try:
                values[key] = _coerce(key, text)
            except (KeyError, ValueError):
                hint = " as two numbers 'lo hi'" if key.startswith("space_") else ""
                problems.append(f"{name}.{key}: cannot parse {text!r}{hint}")
        return values

    exp = section("experiment")
    method = section("method")
    cfg = ExperimentConfig(
        method=method.pop("name", None),
        method_params=method,
        stream=section("stream"),
        model=section("model"),
        seeds=exp.get("seeds", [0]),
        passes=exp.get("passes", 1),
        metrics=tuple(str(exp.get("metrics", "rmse")).split()),
        output=str(exp.get("output", "out")),
        nlpd_samples=exp.get("nlpd_samples", 100),
        tune=section("tune"),
        bandit=section("bandit"),
    )
    if problems:
        raise ConfigError(problems)
    return cfg


def validate_config(cfg):
    """Collect every violation; empty list means the config is runnable."""
    problems = []
    if cfg.method is None:
        problems.append("method.name: required")
    elif cfg.method not in REGISTRY:
        problems.append(
            f"method.name: unknown method {cfg.method!r}; valid tags: {', '.join(sorted(REGISTRY))}"
        )
    kind = cfg.stream.get("kind")
    if kind is None:
        problems.append("stream.kind: required")
    elif kind not in STREAM_KINDS:
        problems.append(f"stream.kind: unknown kind {kind!r}; valid: {', '.join(STREAM_KINDS)}")
    if kind == "csv":
        if "path" not in cfg.stream:
            problems.append("stream.path: required for csv streams")
        if "target" not in cfg.stream:
            problems.append("stream.target: required for csv streams")
    if cfg.passes < 1:
        problems.append("experiment.passes: must be >= 1")
    if cfg.passes > 1 and kind not in STATIC_KINDS:
        problems.append(
            "experiment.passes: multiple passes are only valid for static streams (csv)"
        )
    if not cfg.seeds:
        problems.append("experiment.seeds: at least one seed")
    for m in cfg.metrics:
        if m not in METRICS:
            problems.append(f"experiment.metrics: unknown metric {m!r}; valid: {', '.join(METRICS)}")
    family = cfg.model.get("family", "gaussian")
    if family not in ("gaussian", "categorical"):
        problems.append(f"model.family: unknown family {family!r}")
    if family == "categorical" and "rmse" in cfg.metrics:
        problems.append("experiment.metrics: rmse is a regression metric")
    if family == "gaussian" and "misclass" in cfg.metrics:
        problems.append("experiment.metrics: misclass is a classification metric")
    if cfg.nlpd_samples < 1:
        problems.append("experiment.nlpd_samples: must be >= 1")
    if "nlpd" in cfg.metrics and cfg.method in UNSAMPLED_METHODS:
        problems.append(
            "experiment.metrics: nlpd needs a low-rank or diagonal posterior to sample; "
            f"{cfg.method} has none"
        )
    if cfg.method in REGISTRY and cfg.method not in INFLATED_METHODS:
        for key in ("inflation", "inflation_alpha"):
            if key in cfg.method_params:
                problems.append(
                    f"method.{key}: {cfg.method} applies no inflation; "
                    f"only {', '.join(INFLATED_METHODS)} do"
                )
    grid = cfg.method_params.get("linesearch_grid")
    if grid is not None and grid < 1:
        problems.append("method.linesearch_grid: must be >= 1")
    rank = cfg.method_params.get("rank")
    if rank is not None and rank < 0:
        problems.append("method.rank: must be >= 0")
    for key, rng in _tune_space(cfg).items():
        if not rng.low <= rng.high or (rng.log and not rng.low > 0):
            log = " and lo > 0 (log scale)" if rng.log else ""
            problems.append(f"tune.space_{key}: need lo <= hi{log}")
    problems.extend(_policy_problems(cfg))
    return problems


def _policy_problems(cfg):
    policy = cfg.bandit.get("policy", "thompson")
    if policy in BANDIT_POLICIES:
        return []
    return [f"bandit.policy: unknown policy {policy!r}; valid: {', '.join(BANDIT_POLICIES)}"]


def build_stream(cfg, seed):
    """Instantiate the stream and report the model's in/out dimensions."""
    s = dict(cfg.stream)
    kind = s.pop("kind")
    if kind == "piecewise_sine":
        spec = PiecewiseSineSpec(
            num_tasks=s.get("num_tasks", 5),
            steps_per_task=s.get("steps_per_task", 250),
            noise_sd=s.get("noise_sd", 0.2),
        )
        return gen_piecewise_sine(spec, seed), 1, 1
    if kind == "drifting":
        events = gen_drifting_target(
            steps=s.get("steps", 1000),
            seed=seed,
            amplitude_growth=s.get("amplitude_growth", 1.0),
            noise_sd=s.get("noise_sd", 1.0),
            in_dim=s.get("in_dim", 4),
        )
        return events, s.get("in_dim", 4), 1
    if kind in ("synthetic_classification", "permuted_classification"):
        events = gen_synthetic_classification(
            steps=s.get("steps", 1000),
            in_dim=s.get("in_dim", 8),
            num_classes=s.get("num_classes", 3),
            seed=seed,
            margin_noise=s.get("margin_noise", 0.0),
        )
        if kind == "permuted_classification":
            events = gen_permuted_tasks(events, s.get("steps_per_task", 300), seed)
        return events, s.get("in_dim", 8), s.get("num_classes", 3)
    if kind == "csv":
        events, _ = load_csv_regression(
            s["path"],
            s["target"],
            standardize=s.get("standardize", True),
            split_seed=s.get("split_seed", seed),
            test_fraction=s.get("test_fraction", 0.1),
        )
        return events, events[0].x.shape[0], 1
    raise ConfigError([f"stream.kind: unknown kind {kind!r}"])


def build_model(cfg, in_dim, out_dim):
    hidden = str(cfg.model.get("hidden", "")).split()
    widths = (in_dim, *(int(h) for h in hidden), out_dim)
    spec = MlpSpec(widths, activation=cfg.model.get("activation", "tanh"))
    if cfg.model.get("family", "gaussian") == "categorical":
        family = CategoricalFamily()
    else:
        family = GaussianFamily(float(cfg.model.get("obs_variance", 1.0)))
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
    except (NumericalDegeneracyError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return [], f"{type(exc).__name__}: {exc}"


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_metric_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "task_id", "seed", "method", "metric", "value"])
        for r in rows:
            writer.writerow(
                [r["t"], r["task_id"], r["seed"], r["method"], r["metric"], _fmt(r["value"])]
            )


def write_summary_csv(path, rows_by_seed, method):
    """Mean and standard error across seeds of each per-seed mean metric."""
    per_metric = {}
    for seed, rows in rows_by_seed.items():
        for r in rows:
            per_metric.setdefault(r["metric"], {}).setdefault(seed, []).append(r["value"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "metric", "mean", "stderr", "n_seeds"])
        for metric in sorted(per_metric):
            seed_means = [np.mean(v) for _, v in sorted(per_metric[metric].items())]
            mean = float(np.mean(seed_means))
            sem = float(np.std(seed_means, ddof=1) / np.sqrt(len(seed_means))) if len(seed_means) > 1 else 0.0
            writer.writerow([method, metric, _fmt(mean), _fmt(sem), len(seed_means)])


def run_experiment(cfg):
    """Run every seed, write per-seed files, a merged file, and a summary.

    Returns a dict with per-seed status; the CLI exits nonzero unless all
    seeds completed. Worker count comes from the LRKF_WORKERS env var;
    results are merged in seed order either way.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    os.makedirs(cfg.output, exist_ok=True)
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    results = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {seed: pool.submit(run_seed, cfg, seed) for seed in cfg.seeds}
            for seed in cfg.seeds:
                results[seed] = futures[seed].result()
    else:
        for seed in cfg.seeds:
            results[seed] = run_seed(cfg, seed)

    merged = []
    rows_by_seed = {}
    errors = {}
    for seed in cfg.seeds:
        rows, err = results[seed]
        if err is not None:
            errors[seed] = err
            continue
        decorated = [dict(r, seed=seed, method=cfg.method) for r in rows]
        rows_by_seed[seed] = rows
        write_metric_csv(os.path.join(cfg.output, f"metrics_seed{seed}.csv"), decorated)
        merged.extend(decorated)
    write_metric_csv(os.path.join(cfg.output, "metrics.csv"), merged)
    if rows_by_seed:
        write_summary_csv(os.path.join(cfg.output, "summary.csv"), rows_by_seed, cfg.method)
    if errors:
        with open(os.path.join(cfg.output, "failures.txt"), "w") as fh:
            for seed, err in sorted(errors.items()):
                fh.write(f"seed {seed}: {err}\n")
    return {"completed": sorted(rows_by_seed), "failed": errors}


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------

def _tune_space(cfg):
    """DEFAULT_SPACE with the ``space_<param> = lo hi`` bounds of the config."""
    space = {
        key: replace(default, low=lo, high=hi)
        for key, default in DEFAULT_SPACE.items()
        for lo, hi in [cfg.tune.get(f"space_{key}", (default.low, default.high))]
    }
    if cfg.model.get("family", "gaussian") == "categorical":
        space.pop("obs_variance", None)
    return space


def tune_experiment(cfg):
    """Random-search the method hyperparameters on the tuning stream.

    The objective is the mean one-step-ahead NLL over the first
    ``tune.steps`` events (prequential), or over a held-back validation
    prefix when ``objective = validation_nll``. The final test stream is
    never touched here.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    budget = cfg.tune.get("budget", 20)
    steps = cfg.tune.get("steps", 500)
    seed = cfg.tune.get("seed", 0)
    objective_kind = cfg.tune.get("objective", "prequential_nll")
    if objective_kind not in ("prequential_nll", "validation_nll"):
        raise ConfigError([f"tune.objective: unknown objective {objective_kind!r}"])

    events, in_dim, out_dim = build_stream(cfg, seed)
    events = events[:steps]
    model = build_model(cfg, in_dim, out_dim)

    def objective(sampled):
        params = dict(cfg.method_params)
        params.update(sampled)
        r = params.pop("obs_variance", None)
        use_model = model
        if r is not None and model.family.kind == "gaussian":
            use_model = MlpModel(model.spec, GaussianFamily(r))
        learner = build_learner(cfg.method, use_model, params, seed)
        if objective_kind == "validation_nll":
            half = len(events) // 2
            for ev in events[:half]:
                learner.observe(ev.x, ev.y)
            rows = prequential_eval(learner, events[half:], ("nll",), seed=seed)
        else:
            rows = prequential_eval(learner, events, ("nll",), seed=seed)
        return float(np.mean([r["value"] for r in rows]))

    best, trials = random_search_tune(_tune_space(cfg), budget, objective, seed)
    return best, trials


def write_trials_csv(path, trials):
    keys = sorted({k for t in trials for k in t if k not in ("trial", "objective", "error")})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", *keys, "objective", "error"])
        for t in trials:
            writer.writerow(
                [t["trial"], *[_fmt(t.get(k, "")) for k in keys],
                 _fmt(t["objective"]), t.get("error", "")]
            )


# ---------------------------------------------------------------------------
# Bandit runs
# ---------------------------------------------------------------------------

def run_bandit_experiment(cfg):
    """Bandit loop per seed; reward traces written in the metric schema."""
    from .bandit import FilterBanditAgent, SgdBanditAgent, env_from_stream, run_bandit

    b = cfg.bandit
    actions = b.get("actions", 5)
    steps = b.get("steps", 2000)
    policy = b.get("policy", "thompson")
    epsilon = b.get("epsilon", 0.1)
    reward_variance = b.get("reward_variance", 0.25)
    problems = _policy_problems(cfg)
    if problems:
        raise ConfigError(problems)
    if cfg.method not in BANDIT_METHODS:
        raise ConfigError(
            [f"method.name: lrkf bandit does not support {cfg.method!r}; "
             f"supported: {', '.join(BANDIT_METHODS)}"]
        )
    if policy == "thompson" and cfg.method in UNSAMPLED_METHODS:
        raise ConfigError([f"bandit.policy: thompson needs a posterior to sample; "
                           f"{cfg.method} has none, use epsilon_greedy"])
    os.makedirs(cfg.output, exist_ok=True)

    merged = []
    totals = {}
    for seed in cfg.seeds:
        events = gen_synthetic_classification(
            steps=steps,
            in_dim=cfg.stream.get("in_dim", 8),
            num_classes=actions,
            seed=seed,
        )
        env = env_from_stream(events, actions)
        model = build_model(cfg, cfg.stream.get("in_dim", 8), actions)
        learner = build_learner(cfg.method, model, cfg.method_params, seed)
        if cfg.method in ("sgd_rb", "ogd"):
            agent = SgdBanditAgent(learner, reward_variance)
        else:
            agent = FilterBanditAgent(learner, reward_variance)
        rewards = run_bandit(env, agent, policy, steps, seed, epsilon=epsilon)
        cum = np.cumsum(rewards)
        for t in range(steps):
            merged.append({"t": t, "task_id": 0, "seed": seed, "method": cfg.method,
                           "metric": "reward", "value": float(rewards[t])})
            merged.append({"t": t, "task_id": 0, "seed": seed, "method": cfg.method,
                           "metric": "cum_reward", "value": float(cum[t])})
        totals[seed] = float(cum[-1])
    write_metric_csv(os.path.join(cfg.output, "bandit_metrics.csv"), merged)
    return totals
