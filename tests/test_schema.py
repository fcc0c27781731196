"""The config schema table: repros of once-silent config mistakes, the
benchmark's configs, the accepted key set and the README grammar."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lrkf import schema
from lrkf.cli import main
from lrkf.exceptions import ConfigError
from lrkf.harness import (
    bandit_problems, parse_config, run_bandit_experiment, run_experiment, validate_config,
)
from lrkf.learners import REGISTRY
from lrkf.schema import defaults

REPO = Path(__file__).resolve().parents[1]
SINE = (REPO / "demos/configs/sine.ini").read_text()

# one-line edits of sine.ini that passed `lrkf validate` with "ok" and then
# either crashed `lrkf run` with a raw ValueError or were silently ignored
REPROS = [
    ("gamma = 1.0", "gamma = 1.5", "method.gamma"),
    ("process_noise = 1e-4", "process_noise = -1", "method.process_noise"),
    ("activation = tanh", "activation = relu2", "model.activation"),
    ("hidden = 50", "hidden = 50 x", "model.hidden"),
    ("hidden = 50", "hidden = 0", "model.hidden"),
    ("rank = 10", "rank = 10\ninflation = bogus", "method.inflation"),
    ("num_tasks = 5", "num_tasks = 0", "stream.num_tasks"),
    ("rank = 10", "rank = 10\nsteady_state = true", "method.steady_state"),
    ("rank = 10", "rank = 10\noptimizer = adamw", "method.optimizer"),
    ("name = lrekf", "name = lrekf_spherical\nupdate = svdd", "method.update"),
    ("noise_sd = 0.05", "noise_sd = 0.05\nnum_classes = 3", "stream.num_classes"),
    ("family = gaussian", "family = categorical", "model.obs_variance"),
    ("objective = prequential_nll", "objective = prequential", "tune.objective"),
]


def sine_config(tmp_path, old=None, new=None):
    text = SINE.replace("output = out/sine", f"output = {tmp_path / 'out'}")
    if old is not None:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "c.ini"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("old, new, key", REPROS, ids=[r[1].split("\n")[-1] for r in REPROS])
def test_repro_is_a_config_error_naming_its_key(old, new, key, tmp_path, capsys):
    path = sine_config(tmp_path, old, new)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert f"{key}: " in captured.out + captured.err
    for verb in ("run", "tune"):
        assert main([verb, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"config error: {key}: " in err
    assert not (tmp_path / "out").exists()


def benchmark_configs():
    """The configs perfbench times: sine.ini under its three methods, with
    and without nlpd, then wide.ini and bandit.ini, each shortened as perfbench
    shortens it."""
    sine = parse_config(str(REPO / "demos/configs/sine.ini"))
    configs = {
        f"sine-{method}-{'-'.join(metrics)}": replace(
            sine, method=method, metrics=metrics, stream={**sine.stream, "steps_per_task": 10})
        for method in ("lrekf", "lrekf_spherical", "vdekf")
        for metrics in (("rmse", "nll"), ("rmse", "nll", "nlpd"))
    }
    wide = parse_config(str(REPO / "perfbench/configs/wide.ini"))
    configs["wide"] = replace(wide, stream={**wide.stream, "steps": 10})
    bandit = parse_config(str(REPO / "demos/configs/bandit.ini"))
    configs["bandit"] = replace(bandit, bandit={**bandit.bandit, "steps": 200})
    return configs


BENCHMARK_CONFIGS = benchmark_configs()


@pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
def test_benchmark_configs_validate(name):
    assert validate_config(BENCHMARK_CONFIGS[name]) == []


# the keys each section accepted before the schema table, less [bandit]
# reward_variance (the bandit's reward noise is [model] obs_variance); the
# table adds none
PARENT_KEYS = {name: set(keys.split()) for name, keys in {
    "experiment": "seeds passes metrics output nlpd_samples",
    "model": "hidden activation family obs_variance",
    "method": "name rank gamma process_noise initial_precision steady_state inflation "
              "inflation_alpha update iterations linesearch_grid buffer_size optimizer lr "
              "inner_iters",
    "stream": "kind num_tasks steps_per_task noise_sd steps amplitude_growth in_dim "
              "num_classes margin_noise path target standardize split_seed test_fraction",
    "tune": "budget steps seed objective space_initial_precision space_process_noise "
            "space_gamma space_obs_variance",
    "bandit": "actions steps policy epsilon",
}.items()}


def test_accepted_keys_are_unchanged():
    assert {section: set(keys) for section, keys in schema.SECTIONS.items()} == PARENT_KEYS


def test_records_of_one_key_share_a_type_and_name_readers_that_exist():
    kinds, families = set(schema.KINDS), set(schema.FAMILIES)
    for section, keys in schema.SECTIONS.items():
        for name, records in keys.items():
            assert len({k.type for k in records}) == 1, f"{section}.{name}"
            for key in records:
                valid = {"method": set(REGISTRY), "stream": kinds}.get(section, families)
                assert set(key.readers or ()) <= valid, f"{section}.{name}"


def test_stream_defaults_are_per_kind():
    assert defaults("stream", "piecewise_sine") == {
        "num_tasks": 5, "steps_per_task": 250, "noise_sd": 0.2}
    assert defaults("stream", "drifting") == {
        "noise_sd": 1.0, "steps": 1000, "amplitude_growth": 1.0, "in_dim": 4}
    classes = {"steps": 1000, "in_dim": 8, "num_classes": 3, "margin_noise": 0.0}
    assert defaults("stream", "synthetic_classification") == classes
    assert defaults("stream", "permuted_classification") == {**classes, "steps_per_task": 300}
    assert defaults("tune")["steps"] == 500
    assert defaults("bandit")["steps"] == 2000


def test_steady_state_identity_that_holds_runs(tmp_path):
    text = "gamma = 0.6\nprocess_noise = 0.64\nsteady_state = yes"
    path = sine_config(tmp_path, "gamma = 1.0\nprocess_noise = 1e-4", text)
    cfg = parse_config(path)
    assert validate_config(cfg) == []
    cfg = replace(cfg, seeds=[0], stream={**cfg.stream, "num_tasks": 1, "steps_per_task": 20})
    assert run_experiment(cfg)["completed"] == [0]


def test_readme_grammar_names_every_key():
    readme = (REPO / "README.md").read_text()
    grammar = readme.split("### Config grammar", 1)[1].split("\n### ", 1)[0]
    named = set(re.findall(r"`([a-z_]+)`", grammar))
    for section, keys in schema.SECTIONS.items():
        assert f"`[{section}]`" in grammar
        for name in keys:
            assert name in named, f"{section}.{name}"
    for kind in schema.KINDS:
        assert kind in named


@pytest.mark.parametrize("param, bounds, allowed", [
    ("gamma", "1.5 2.0", "[0, 1]"),
    ("gamma", "-0.5 0.9", "[0, 1]"),
    ("process_noise", "-1 1e-2", "[0, inf)"),
    ("initial_precision", "0 10", "(0, inf)"),
    ("obs_variance", "-1 1", "(0, inf)"),
])
def test_tune_space_bounds_lie_in_the_params_range(param, bounds, allowed, tmp_path, capsys):
    # space_gamma = 1.5 2.0 passed validate, then failed every gamma draw in tune
    path = sine_config(tmp_path, "budget = 10", f"budget = 1\nseed = 1\nspace_{param} = {bounds}")
    problem = f"tune.space_{param}: {float(bounds.split()[0])!r} is outside {allowed}"
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out.splitlines()[0] == problem
    assert main(["tune", path]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {problem}\n")
    assert not (tmp_path / "out").exists()


def test_tune_with_every_trial_failed_exits_1_in_one_line(tmp_path, capsys):
    # a prior variance of 1e300 overflows the first truncation of each trial
    path = sine_config(tmp_path, "budget = 10", "budget = 2\nspace_initial_precision = 1e-300 1e-300")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["tune", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tune error: all 2 tuning trials failed: NumericalDegeneracyError: ")
    assert err.count("\n") == 1


BANDIT_INI = (REPO / "demos/configs/bandit.ini").read_text()


@pytest.mark.parametrize("old, new, problem", [
    ("in_dim = 8", "in_dim = 8\nnum_classes = 7", "stream.num_classes: not read by lrkf bandit"),
    ("in_dim = 8", "in_dim = 8\nsteps = 50", "stream.steps: not read by lrkf bandit"),
    ("in_dim = 8", "in_dim = 8\nmargin_noise = 3.0", "stream.margin_noise: not read by lrkf bandit"),
    ("kind = synthetic_classification\nin_dim = 8", "kind = permuted_classification\nin_dim = 8",
     "stream.kind: lrkf bandit draws a synthetic_classification stream, not "
     "'permuted_classification'"),
])
def test_bandit_rejects_stream_settings_it_ignores(old, new, problem, tmp_path, capsys):
    # each key once left bandit_metrics.csv byte-identical to the run without it
    assert old in BANDIT_INI
    text = BANDIT_INI.replace(old, new).replace("output = out/bandit", f"output = {tmp_path / 'out'}")
    (tmp_path / "b.ini").write_text(text)
    assert main(["bandit", str(tmp_path / "b.ini")]) == 1
    assert f"config error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def bandit_config(tmp_path, name, text):
    """A 200-step, one-seed copy of bandit.ini edited to ``text``."""
    for old, new in (("seeds = 0 1 2", "seeds = 0"), ("steps = 2000", "steps = 200"),
                     ("output = out/bandit", f"output = {tmp_path / name}")):
        assert old in text
        text = text.replace(old, new)
    (tmp_path / f"{name}.ini").write_text(text)
    return str(tmp_path / f"{name}.ini")


def test_bandit_conditions_on_the_models_obs_variance(tmp_path):
    # the agents once read only [bandit] reward_variance, so these were byte-identical
    csvs = []
    for name, value in (("low", "0.005"), ("high", "5.0")):
        text = BANDIT_INI.replace("obs_variance = 0.005", f"obs_variance = {value}")
        assert main(["bandit", bandit_config(tmp_path, name, text)]) == 0
        csvs.append((tmp_path / name / "bandit_metrics.csv").read_bytes())
    assert csvs[0] != csvs[1]


def test_bandit_rejects_a_categorical_reward_model(tmp_path):
    # the reward noise is the Gaussian family's; a categorical one has none
    text = BANDIT_INI.replace("family = gaussian\nobs_variance = 0.005", "family = categorical")
    cfg = parse_config(bandit_config(tmp_path, "out", text))
    with pytest.raises(ConfigError) as info:
        run_bandit_experiment(cfg)
    problem = "model.family: lrkf bandit models rewards as gaussian, not 'categorical'"
    assert problem in info.value.problems
    assert not (tmp_path / "out").exists()


NOT_READ = "not read by lrkf bandit; it writes reward and cum_reward"


@pytest.mark.parametrize("old, new, problems", [
    ("seeds = 0 1 2", "seeds = 0 1 2\nmetrics = nll nlpd\nnlpd_samples = 7",
     [f"experiment.metrics: {NOT_READ}", f"experiment.nlpd_samples: {NOT_READ}"]),
    ("seeds = 0 1 2", "seeds = 0 1 2\nmetrics = misclass", [f"experiment.metrics: {NOT_READ}"]),
    ("family = gaussian\nobs_variance = 0.005", "family = categorical",
     ["model.family: lrkf bandit models rewards as gaussian, not 'categorical'"]),
], ids=["nlpd", "misclass", "categorical"])
def test_bandit_reports_only_the_experiment_keys_it_ignores(old, new, problems, tmp_path):
    # the first passed silently; the other two also drew the rule that
    # misclass or the default rmse does not fit the family, which the
    # bandit never applies
    assert old in BANDIT_INI
    cfg = parse_config(bandit_config(tmp_path, "out", BANDIT_INI.replace(old, new)))
    with pytest.raises(ConfigError) as info:
        run_bandit_experiment(cfg)
    assert info.value.problems == problems
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, problem", [
    ("in_dim = 8", "in_dim = 8\nnum_classes = 7",
     "stream.num_classes: not read by lrkf bandit; it reads kind and in_dim"),
    ("seeds = 0 1 2", "seeds = 0 1 2\nmetrics = misclass", f"experiment.metrics: {NOT_READ}"),
], ids=["num_classes", "misclass"])
def test_validate_checks_a_bandit_config_as_lrkf_bandit_does(old, new, problem, tmp_path, capsys):
    # validate once said ok to the first and called misclass a
    # classification metric, which the bandit never scores
    path = bandit_config(tmp_path, "out", BANDIT_INI.replace(old, new))
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out == f"{problem}\n"
    assert main(["bandit", path]) == 1
    assert capsys.readouterr().err == f"config error: {problem}\n"


@pytest.mark.parametrize("name", ["bandit.ini", "sine.ini"])
def test_validate_says_ok_to_the_shipped_demo_configs(name, capsys):
    assert main(["validate", str(REPO / "demos/configs" / name)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_bandit_reward_variance_is_an_unknown_key(tmp_path, capsys):
    path = bandit_config(tmp_path, "out", BANDIT_INI + "reward_variance = 0.005\n")
    assert main(["bandit", path]) == 1
    assert capsys.readouterr().err == (
        "config error: bandit.reward_variance: unknown key; valid: actions, epsilon, policy, steps\n")
    assert not (tmp_path / "out").exists()


SHIPPED_CONFIGS = sorted([*REPO.glob("demos/configs/*.ini"), *REPO.glob("perfbench/configs/*.ini")])


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.name for p in SHIPPED_CONFIGS])
def test_shipped_config_passes_the_verb_on_its_first_line(path):
    # "; lrkf <verb> <path>" on the first line names the verb; run otherwise
    words = path.read_text().splitlines()[0].lstrip(";# ").split()
    verb = words[1] if words[:1] == ["lrkf"] else "run"
    assert verb in ("run", "tune", "bandit")
    cfg = parse_config(str(path))
    problems = validate_config(cfg) + (bandit_problems(cfg) if verb == "bandit" else [])
    assert problems == []
