from pathlib import Path

import numpy as np
import pytest

from lrkf.cli import main
from lrkf.exceptions import ConfigError
from lrkf.harness import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    run_seed as harness_run_seed,
    tune_experiment,
    validate_config,
)


REPO = Path(__file__).resolve().parents[1]


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASIC = """
[experiment]
seeds = 0 1
metrics = rmse nll
output = {out}

[model]
hidden = 8
activation = tanh
family = gaussian
obs_variance = 0.04

[method]
name = lrekf
rank = 3
gamma = 1.0
process_noise = 1e-4
initial_precision = 1.0

[stream]
kind = piecewise_sine
num_tasks = 2
steps_per_task = 30
noise_sd = 0.2
"""

BANDIT = """
[experiment]
seeds = 0
output = {out}

[model]
hidden = 8
activation = tanh
family = gaussian
obs_variance = 0.25

[method]
name = lrekf
rank = 3
process_noise = 1e-4

[stream]
kind = synthetic_classification
in_dim = 3

[bandit]
actions = 3
steps = 60
policy = thompson
"""


class TestParsingAndValidation:
    def test_round_trip_basic_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.ini", BASIC.format(out=tmp_path / "o")))
        assert cfg.method == "lrekf"
        assert cfg.method_params["rank"] == 3
        assert cfg.seeds == [0, 1]
        assert validate_config(cfg) == []

    def test_empty_config_names_required_fields(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.ini", "[experiment]\n"))
        problems = validate_config(cfg)
        joined = "\n".join(problems)
        assert "method.name" in joined
        assert "stream.kind" in joined

    def test_unknown_method_lists_valid_tags(self, tmp_path):
        text = BASIC.format(out=tmp_path) .replace("name = lrekf", "name = mystery")
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        problems = validate_config(cfg)
        assert any("mystery" in p and "lrekf" in p for p in problems)

    def test_all_violations_reported_not_just_first(self, tmp_path):
        cfg = ExperimentConfig(
            method="mystery",
            method_params={"rank": -1},
            stream={"kind": "nope"},
            model={"family": "gaussian"},
            seeds=[],
            passes=0,
            metrics=("rmse", "bogus"),
        )
        problems = validate_config(cfg)
        assert len(problems) >= 5

    def test_multipass_requires_static_stream(self, tmp_path):
        text = BASIC.format(out=tmp_path).replace("seeds = 0 1", "seeds = 0\npasses = 2")
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        assert any("passes" in p for p in validate_config(cfg))

    @pytest.mark.parametrize("tag", ["fcekf", "iekf", "sgd_rb"])
    def test_nlpd_needs_a_sampleable_posterior(self, tag, tmp_path, capsys):
        text = BASIC.format(out=tmp_path / "o").replace("name = lrekf", f"name = {tag}")
        path = write_config(tmp_path / "c.ini", text.replace("rmse nll", "rmse nlpd"))
        problems = validate_config(parse_config(path))
        assert any("nlpd" in p and tag in p for p in problems)
        assert main(["validate", path]) == 1

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nlpd_samples_below_one_is_named(self, samples, tmp_path, capsys):
        text = BASIC.format(out=tmp_path / "o").replace("rmse nll", "rmse nlpd")
        text = text.replace("seeds = 0 1", f"seeds = 0 1\nnlpd_samples = {samples}")
        path = write_config(tmp_path / "c.ini", text)
        problems = validate_config(parse_config(path))
        assert any(p.startswith("experiment.nlpd_samples:") for p in problems)
        assert main(["validate", path]) == 1
        text = text.replace(f"nlpd_samples = {samples}", "nlpd_samples = 1")
        assert validate_config(parse_config(write_config(tmp_path / "c.ini", text))) == []

    @pytest.mark.parametrize("tag", ["fcekf", "iekf", "ilrekf", "vdekf"])
    def test_inflation_on_a_method_without_it_is_named(self, tag, tmp_path):
        text = BASIC.format(out=tmp_path / "o").replace("name = lrekf", f"name = {tag}")
        text = text.replace("rank = 3", "rank = 3\ninflation = simple\ninflation_alpha = 0.05")
        problems = validate_config(parse_config(write_config(tmp_path / "c.ini", text)))
        assert any(p.startswith("method.inflation:") and tag in p for p in problems)
        assert any(p.startswith("method.inflation_alpha:") and tag in p for p in problems)

    @pytest.mark.parametrize("section, line, bad", [
        ("method", "rank = 3", "rank = ten"),
        ("method", "process_noise = 1e-4", "process_noise = small"),
        ("method", "rank = 3", "rank = 3\nsteady_state = maybe"),
        ("stream", "num_tasks = 2", "num_tasks = 2.5"),
        ("experiment", "seeds = 0 1", "seeds = 0 one"),
        ("experiment", "seeds = 0 1", "seeds = 0 1\npasses = two"),
    ])
    def test_unparseable_value_is_named(self, section, line, bad, tmp_path, capsys):
        text = BASIC.format(out=tmp_path / "o").replace(line, bad)
        key = bad.split("\n")[-1].split(" = ")[0]
        path = write_config(tmp_path / "c.ini", text)
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert [p.split(":")[0] for p in info.value.problems] == [f"{section}.{key}"]
        for verb in ("validate", "run", "bandit", "tune"):
            assert main([verb, path]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {section}.{key}: ")

    def test_every_unparseable_value_is_reported(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o").replace("rank = 3", "rank = ten")
        text = text.replace("gamma = 1.0", "gamma = one")
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path / "c.ini", text))
        assert len(info.value.problems) == 2

    @pytest.mark.parametrize("word, value", [("yes", True), ("Off", False), ("1", True)])
    def test_boolean_words(self, word, value, tmp_path):
        text = BASIC.format(out=tmp_path / "o").replace("rank = 3", f"rank = 3\nsteady_state = {word}")
        assert parse_config(write_config(tmp_path / "c.ini", text)).method_params["steady_state"] is value

    def test_tune_seed_is_an_integer(self, tmp_path):
        # read as the string "3" before, which the random generator rejects
        text = BASIC.format(out=tmp_path / "o") + "\n[tune]\nseed = 3\n"
        assert parse_config(write_config(tmp_path / "c.ini", text)).tune["seed"] == 3

    @pytest.mark.parametrize("section, line, bad, name", [
        ("method", "rank = 3", "ranks = 3", "method.ranks"),
        ("stream", "noise_sd = 0.2", "noise_sd = 0.2\nlr = 1e-4", "stream.lr"),
        ("experiment", "seeds = 0 1", "seeds = 0 1\nseed = 4", "experiment.seed"),
    ])
    def test_unknown_key_is_named(self, section, line, bad, name, tmp_path, capsys):
        # a misspelt or misplaced key used to be dropped silently
        path = write_config(tmp_path / "c.ini", BASIC.format(out=tmp_path / "o").replace(line, bad))
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert [p.split(":")[0] for p in info.value.problems] == [name]
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {name}: unknown key")

    def test_unknown_section_is_named(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o") + "\n[methods]\nrank = 4\n"
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path / "c.ini", text))
        assert info.value.problems[0].startswith("methods: unknown section")

    @pytest.mark.parametrize("config", [
        "demos/configs/sine.ini", "demos/configs/bandit.ini", "perfbench/configs/wide.ini",
    ])
    def test_shipped_configs_validate(self, config):
        assert validate_config(parse_config(str(REPO / config))) == []

    @pytest.mark.parametrize("value, message", [
        ("0.9", "cannot parse '0.9' as two numbers 'lo hi'"),
        ("0.9 1.0 1.1", "cannot parse '0.9 1.0 1.1' as two numbers 'lo hi'"),
        ("low high", "cannot parse 'low high' as two numbers 'lo hi'"),
        ("1.0 0.9", "need lo <= hi"),
    ])
    def test_bad_tune_space_is_named(self, value, message, tmp_path, capsys):
        text = BASIC.format(out=tmp_path / "o") + f"\n[tune]\nbudget = 2\nspace_gamma = {value}\n"
        path = write_config(tmp_path / "c.ini", text)
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert f"tune.space_gamma: {message}" in captured.out + captured.err
        assert main(["tune", path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: tune.space_gamma: {message}")

    def test_log_scale_tune_space_needs_positive_low(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o") + "\n[tune]\nspace_process_noise = 0 1e-2\n"
        problems = validate_config(parse_config(write_config(tmp_path / "c.ini", text)))
        assert problems == ["tune.space_process_noise: need lo <= hi and lo > 0 (log scale)"]

    def test_tune_space_parses_into_two_floats(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o") + "\n[tune]\nbudget = 6\nsteps = 10\n"
        text += "space_gamma = 0.9 0.92\n"
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        assert cfg.tune["space_gamma"] == (0.9, 0.92)
        _, trials = tune_experiment(cfg)
        # gamma's point mass at 1 stays; every other draw is in the range
        assert all(t["gamma"] == 1.0 or 0.9 <= t["gamma"] <= 0.92 for t in trials)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.ini")

    def test_malformed_file_is_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("key_without_section = 1\n")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(str(path))


class TestRunExperiment:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        text = BASIC.format(out="{out}")
        cfg1 = parse_config(write_config(tmp_path / "c1.ini", text.format(out=out1)))
        cfg2 = parse_config(write_config(tmp_path / "c2.ini", text.format(out=out2)))
        run_experiment(cfg1)
        run_experiment(cfg2)
        b1 = (out1 / "metrics.csv").read_bytes()
        b2 = (out2 / "metrics.csv").read_bytes()
        assert b1 == b2
        assert (out1 / "metrics_seed0.csv").exists()
        assert (out1 / "summary.csv").exists()

    def test_rank0_matches_vdekf_per_step_nll(self, tmp_path):
        base = BASIC.format(out="{out}").replace("seeds = 0 1", "seeds = 0")
        t_lr = base.replace("rank = 3", "rank = 0").format(out=tmp_path / "lr")
        t_vd = base.replace("name = lrekf", "name = vdekf").format(out=tmp_path / "vd")
        run_experiment(parse_config(write_config(tmp_path / "lr.ini", t_lr)))
        run_experiment(parse_config(write_config(tmp_path / "vd.ini", t_vd)))

        def nll_column(out):
            rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
            return np.array([float(r.split(",")[-1]) for r in rows if ",nll," in r])

        a, b = nll_column(tmp_path / "lr"), nll_column(tmp_path / "vd")
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < 1e-10

    def test_seed_failure_does_not_kill_siblings(self, tmp_path, monkeypatch):
        from lrkf import harness
        from lrkf.exceptions import NumericalDegeneracyError

        real = harness.run_seed

        def flaky(cfg, seed):
            if seed == 1:
                return [], "NumericalDegeneracyError: injected"
            return real(cfg, seed)

        monkeypatch.setattr(harness, "run_seed", flaky)
        cfg = parse_config(
            write_config(tmp_path / "c.ini", BASIC.format(out=tmp_path / "o"))
        )
        status = harness.run_experiment(cfg)
        assert status["completed"] == [0]
        assert 1 in status["failed"]
        assert (tmp_path / "o" / "failures.txt").exists()

    def test_merged_file_is_the_header_and_the_per_seed_bodies(self, tmp_path, monkeypatch):
        from lrkf import harness

        real = harness.run_seed
        monkeypatch.setattr(harness, "run_seed", lambda cfg, seed: (
            ([], "NumericalDegeneracyError: injected") if seed == 1 else real(cfg, seed)))
        text = BASIC.format(out=tmp_path / "o").replace("seeds = 0 1", "seeds = 0 1 2")
        status = harness.run_experiment(parse_config(write_config(tmp_path / "c.ini", text)))
        assert status["completed"] == [0, 2]
        header = b"t,task_id,seed,method,metric,value\n"
        bodies = []
        for seed in (0, 2):
            data = (tmp_path / "o" / f"metrics_seed{seed}.csv").read_bytes()
            assert data.startswith(header) and len(data) > len(header)
            bodies.append(data[len(header):])
        assert (tmp_path / "o" / "metrics.csv").read_bytes() == header + b"".join(bodies)

    def test_metric_files_are_what_csv_writer_writes(self, tmp_path):
        # write_metric_csv joins fields without csv.writer: no value of the
        # schema may hold a character that csv.writer would quote
        import csv
        import io

        from lrkf.learners import REGISTRY
        from lrkf.streams import METRICS

        run_experiment(parse_config(write_config(tmp_path / "c.ini", BASIC.format(out=tmp_path / "r"))))
        assert main(["bandit", write_config(tmp_path / "b.ini", BANDIT.format(out=tmp_path / "b"))]) == 0
        metric_names = set()
        for path in (tmp_path / "r" / "metrics.csv", tmp_path / "b" / "bandit_metrics.csv"):
            data = path.read_text()
            rows = list(csv.reader(io.StringIO(data)))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            assert buf.getvalue() == data
            metric_names.update(row[4] for row in rows[1:])
        assert metric_names >= {"reward", "cum_reward"}
        for name in {*REGISTRY, *METRICS, "test_rmse", *metric_names}:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([name, name])
            assert buf.getvalue() == f"{name},{name}\n", name

    def test_lost_spherical_orthonormality_fails_only_that_seed(self, tmp_path, monkeypatch):
        # a thin_svd that skews the second basis column toward the first
        # pushes update_svd's basis past the 1e-8 orthonormality bound
        # whatever the eigensolver; the seed is recorded as failed, no
        # traceback
        from lrkf import spherical

        real = spherical.thin_svd

        def skewed(w):
            s, u = real(w)
            u[:, 1] += 1e-6 * u[:, 0]
            return s, u

        monkeypatch.setattr(spherical, "thin_svd", skewed)
        text = """
[experiment]
seeds = 1
metrics = nll misclass
output = {out}

[model]
hidden = 16
activation = tanh
family = categorical

[method]
name = lrekf_spherical
rank = 5
initial_precision = 5
process_noise = 1e-4

[stream]
kind = synthetic_classification
in_dim = 4
num_classes = 3
steps = 400
""".format(out=tmp_path / "o")
        status = run_experiment(parse_config(write_config(tmp_path / "c.ini", text)))
        assert status["completed"] == []
        assert status["failed"][1].startswith(
            "NumericalDegeneracyError: spherical update_svd: basis columns are not orthonormal"
        )
        assert "seed 1: NumericalDegeneracyError" in (tmp_path / "o" / "failures.txt").read_text()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_categorical_spherical_config_completes_every_seed(self, tmp_path):
        # the config of test_lost_spherical_orthonormality_fails_only_that_seed
        # over seeds 0-7 with the real thin_svd: its noise columns cost the
        # truncated basis its orthonormality, and every seed fails
        text = """
[experiment]
seeds = 0 1 2 3 4 5 6 7
metrics = nll misclass
output = {out}

[model]
hidden = 16
activation = tanh
family = categorical

[method]
name = lrekf_spherical
rank = 5
initial_precision = 5
process_noise = 1e-4

[stream]
kind = synthetic_classification
in_dim = 4
num_classes = 3
steps = 400
""".format(out=tmp_path / "o")
        status = run_experiment(parse_config(write_config(tmp_path / "c.ini", text)))
        assert status["failed"] == {}
        assert status["completed"] == list(range(8))

    def test_diagonal_belief_failing_validation_fails_only_that_seed(self, tmp_path):
        # obs_variance = 1e-320 whitens the Jacobian past the float range:
        # vdekf's posterior diagonal turns infinite, and the step reports a
        # numerical degeneracy instead of ending the run
        text = (REPO / "demos" / "configs" / "sine.ini").read_text()
        text = text.replace("name = lrekf", "name = vdekf").replace("seeds = 0 1 2", "seeds = 0")
        text = text.replace("obs_variance = 0.0025", "obs_variance = 1e-320")
        text = text.replace("steps_per_task = 250", "steps_per_task = 5")
        text = text.replace("output = out/sine", f"output = {tmp_path / 'o'}")
        status = run_experiment(parse_config(write_config(tmp_path / "c.ini", text)))
        assert status["completed"] == []
        assert status["failed"][0] == (
            "NumericalDegeneracyError: vdekf_step: diag_precision entries must be finite and > 0"
        )
        assert (tmp_path / "o" / "failures.txt").read_text().startswith(
            "seed 0: NumericalDegeneracyError: vdekf_step")

    @pytest.mark.parametrize("tag, precision, step", [
        ("lrekf", "1e-300", "diagonal update"),
        ("lrekf_spherical", "1e-200", "spherical update_svd"),
    ])
    def test_non_finite_mean_fails_the_step_that_made_it(self, tag, precision, step, tmp_path):
        # so weak a prior makes the first update's mean NaN; the belief it
        # builds rejects it, rather than the next step's innovation check
        text = (REPO / "demos" / "configs" / "sine.ini").read_text()
        text = text.replace("name = lrekf", f"name = {tag}").replace("seeds = 0 1 2", "seeds = 0")
        text = text.replace("initial_precision = 1.0", f"initial_precision = {precision}")
        text = text.replace("steps_per_task = 250", "steps_per_task = 5")
        text = text.replace("output = out/sine", f"output = {tmp_path / 'o'}")
        with np.errstate(all="ignore"):
            status = run_experiment(parse_config(write_config(tmp_path / "c.ini", text)))
        assert status == {"completed": [], "failed": {
            0: f"NumericalDegeneracyError: {step}: mean entries must be finite"}}

    @pytest.mark.parametrize("tag", ["lrekf", "fcekf", "iekf", "ilrekf"])
    def test_nan_target_fails_only_that_seed(self, tag, tmp_path):
        # one NaN target in the csv: the update that meets it raises, and
        # run_seed records the seed as failed instead of aborting the run
        rng = np.random.default_rng(0)
        rows = [f"{a},{a * 0.5 + 0.1 * rng.standard_normal()}" for a in rng.standard_normal(20)]
        rows[7] = "0.3,nan"
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,y\n" + "\n".join(rows) + "\n")
        text = f"""
[experiment]
seeds = 0
metrics = rmse nll
output = {tmp_path / "o"}

[model]
hidden = 4
obs_variance = 0.1

[method]
name = {tag}
rank = 2

[stream]
kind = csv
path = {csv_path}
target = y
standardize = false
test_fraction = 0
"""
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        rows, err = harness_run_seed(cfg, 0)
        assert rows == []
        assert err.startswith("NumericalDegeneracyError: non-finite innovation")
        status = run_experiment(cfg)
        assert status == {"completed": [], "failed": {0: err}}
        assert (tmp_path / "o" / "failures.txt").read_text() == f"seed 0: {err}\n"

    def test_non_finite_factor_fails_only_that_seed(self, tmp_path, monkeypatch):
        # a NaN in seed 0's predicted factor reaches the truncation SVD,
        # which raises NumericalDegeneracyError; seed 1 still completes
        from lrkf import diagonal
        from lrkf.belief import DlrBelief

        real = diagonal.predict
        calls = []

        def poisoned(belief, cfg, out_dim=0):
            pred = real(belief, cfg, out_dim)
            calls.append(1)
            if len(calls) != 5:
                return pred
            low = pred.low_rank.copy()
            low[0, 0] = np.nan
            return DlrBelief(pred.mean, pred.diag_precision, low)

        monkeypatch.setattr(diagonal, "predict", poisoned)
        cfg = parse_config(write_config(tmp_path / "c.ini", BASIC.format(out=tmp_path / "o")))
        status = run_experiment(cfg)
        assert status["completed"] == [1]
        assert status["failed"] == {
            0: "NumericalDegeneracyError: thin_svd: non-finite Gram matrix"
        }
        assert (tmp_path / "o" / "metrics_seed1.csv").exists()

    def test_invalid_config_raises_config_error(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o").replace("name = lrekf", "name = zzz")
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_two_passes_double_the_logged_steps(self, tmp_path):
        rng = np.random.default_rng(0)
        csv_path = tmp_path / "data.csv"
        lines = ["a,b,y"] + [
            f"{rng.standard_normal()},{rng.standard_normal()},{rng.standard_normal()}"
            for _ in range(40)
        ]
        csv_path.write_text("\n".join(lines) + "\n")
        text = """
[experiment]
seeds = 0
passes = {passes}
metrics = rmse
output = {out}

[model]
hidden = 4
family = gaussian
obs_variance = 1.0

[method]
name = lrekf
rank = 2

[stream]
kind = csv
path = {csv}
target = y
"""

        def rows(passes, out):
            cfg = parse_config(write_config(
                tmp_path / f"c{passes}.ini",
                text.format(passes=passes, out=out, csv=csv_path),
            ))
            run_experiment(cfg)
            return len((out / "metrics.csv").read_text().strip().splitlines()) - 1

        one = rows(1, tmp_path / "p1")
        two = rows(2, tmp_path / "p2")
        assert two == 2 * one


class TestTune:
    def test_tune_returns_best_and_trials(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o") + "\n[tune]\nbudget = 4\nsteps = 40\n"
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        best, trials = tune_experiment(cfg)
        assert len(trials) == 4
        assert set(best) >= {"process_noise", "initial_precision", "gamma"}
        finite = [t for t in trials if np.isfinite(t["objective"])]
        assert finite
        best_obj = min(t["objective"] for t in finite)
        assert any(t["objective"] == best_obj for t in finite)

    def test_tune_never_touches_events_beyond_prefix(self, tmp_path):
        # the tuning objective only consumes tune.steps events
        from lrkf import harness

        text = BASIC.format(out=tmp_path / "o") + "\n[tune]\nbudget = 2\nsteps = 10\n"
        cfg = parse_config(write_config(tmp_path / "c.ini", text))
        seen = []
        real_eval = harness.prequential_eval

        def spy(learner, events, *args, **kwargs):
            seen.append(len(list(events)))
            return real_eval(learner, events, *args, **kwargs)

        harness.prequential_eval, saved = spy, harness.prequential_eval
        try:
            tune_experiment(cfg)
        finally:
            harness.prequential_eval = saved
        assert all(n <= 10 for n in seen)


class TestCli:
    def test_list_methods(self, capsys):
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        for tag in ("lrekf", "fcekf", "vdekf", "sgd_rb", "ogd", "iekf"):
            assert tag in out

    def test_validate_ok_and_failing(self, tmp_path, capsys):
        good = write_config(tmp_path / "good.ini", BASIC.format(out=tmp_path / "o"))
        assert main(["validate", good]) == 0
        bad_text = BASIC.format(out=tmp_path / "o").replace("name = lrekf", "name = zzz")
        bad = write_config(tmp_path / "bad.ini", bad_text)
        assert main(["validate", bad]) == 1
        assert "zzz" in capsys.readouterr().out

    def test_run_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path / "good.ini", BASIC.format(out=tmp_path / "o"))
        assert main(["run", good]) == 0
        assert (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize("verb", ["run", "tune"])
    def test_run_and_tune_reject_a_bandit_section(self, verb, tmp_path, capsys):
        # each [bandit] key used to be ignored: sine.ini with steps = 10 ran
        # as shipped, and so did bandit.ini under lrkf run
        text = BASIC.format(out=tmp_path / "o") + "\n[bandit]\nsteps = 10\n"
        assert main([verb, write_config(tmp_path / "c.ini", text)]) == 1
        assert capsys.readouterr().err == (
            f"config error: bandit.steps: not read by lrkf {verb}; use lrkf bandit\n")
        bandit = (REPO / "demos/configs/bandit.ini").read_text().replace(
            "output = out/bandit", f"output = {tmp_path / 'o'}")
        assert main([verb, write_config(tmp_path / "b.ini", bandit)]) == 1
        err = capsys.readouterr().err
        for key in ("actions", "steps", "policy", "epsilon"):
            assert f"config error: bandit.{key}: not read by lrkf {verb}; use lrkf bandit\n" in err
        assert not (tmp_path / "o").exists()
        path = str(REPO / "demos/configs/bandit.ini")
        assert main(["validate", path]) == 0
        assert validate_config(parse_config(path)) == []

    def test_bandit_verb(self, tmp_path, capsys):
        text = BANDIT.format(out=tmp_path / "o")
        cfgfile = write_config(tmp_path / "b.ini", text)
        assert main(["bandit", cfgfile]) == 0
        assert (tmp_path / "o" / "bandit_metrics.csv").exists()

    @pytest.mark.parametrize("tag", ["vdekf", "fdekf", "iekf", "ilrekf"])
    def test_bandit_rejects_methods_without_a_masked_update(self, tag, tmp_path, capsys):
        text = BANDIT.format(out=tmp_path / "o").replace("name = lrekf", f"name = {tag}")
        assert main(["bandit", write_config(tmp_path / "b.ini", text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: method.name: lrkf bandit does not support '{tag}'")
        assert err.rstrip().endswith("supported: lrekf, lrekf_spherical, fcekf, sgd_rb, ogd")

    @pytest.mark.parametrize("tag", ["fcekf", "sgd_rb", "ogd"])
    def test_thompson_needs_a_posterior(self, tag, tmp_path, capsys):
        text = BANDIT.format(out=tmp_path / "o").replace("name = lrekf", f"name = {tag}")
        path = write_config(tmp_path / "b.ini", text)
        assert main(["bandit", path]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: bandit.policy: thompson needs a posterior to sample; {tag} has none"
        )
        path = write_config(tmp_path / "b.ini", text.replace("thompson", "epsilon_greedy"))
        assert main(["bandit", path]) == 0

    def test_unknown_policy_fails_validate_and_bandit(self, tmp_path, capsys):
        text = BANDIT.format(out=tmp_path / "o").replace("policy = thompson", "policy = thomson")
        path = write_config(tmp_path / "b.ini", text)
        problem = "bandit.policy: unknown policy 'thomson'; valid: thompson, epsilon_greedy"
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out == problem + "\n"
        assert main(["bandit", path]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "o").exists()

    def test_diverging_sgd_bandit_seed_is_reported_failed(self, tmp_path, capsys):
        # lr = 1e9 drives the replay-buffer SGD to a non-finite gradient; the
        # seed used to finish with NaN parameters and a reward total
        text = (REPO / "demos/configs/bandit.ini").read_text()
        for old, new in (("name = lrekf", "name = sgd_rb\nlr = 1e9"), ("steps = 2000", "steps = 200"),
                         ("policy = thompson", "policy = epsilon_greedy"),
                         ("output = out/bandit", f"output = {tmp_path / 'o'}")):
            text = text.replace(old, new)
        path = write_config(tmp_path / "b.ini", text)
        with np.errstate(all="ignore"):
            assert main(["bandit", path]) == 1
        err = capsys.readouterr().err
        assert "seed 0: FAILED (NumericalDegeneracyError: non-finite gradient" in err
        failures = (tmp_path / "o" / "failures.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in failures] == ["seed 0", "seed 1", "seed 2"]
        assert (tmp_path / "o" / "bandit_metrics.csv").read_text().count("\n") == 1

    def test_tune_verb(self, tmp_path):
        text = BASIC.format(out=tmp_path / "o") + "\n[tune]\nbudget = 2\nsteps = 20\n"
        cfgfile = write_config(tmp_path / "t.ini", text)
        assert main(["tune", cfgfile]) == 0
        assert (tmp_path / "o" / "trials.csv").exists()


@pytest.mark.parametrize("tag", sorted(__import__("lrkf.learners", fromlist=["REGISTRY"]).REGISTRY))
def test_every_registry_method_runs(tag, tmp_path):
    text = BASIC.format(out=tmp_path / "o").replace("name = lrekf", f"name = {tag}")
    text = text.replace("seeds = 0 1", "seeds = 0").replace("steps_per_task = 30", "steps_per_task = 12")
    if tag in ("sgd_rb", "ogd"):
        text = text.replace("rank = 3", "rank = 3\nlr = 1e-4")
    cfg = parse_config(write_config(tmp_path / "c.ini", text))
    status = run_experiment(cfg)
    assert status["completed"] == [0]
    assert not status["failed"]


def test_inflation_variants_run_in_learner(tmp_path):
    for variant in ("simple", "hybrid", "bayesian"):
        text = BASIC.format(out=tmp_path / variant).replace("seeds = 0 1", "seeds = 0")
        text = text.replace("rank = 3", f"rank = 3\ninflation = {variant}\ninflation_alpha = 0.05")
        cfg = parse_config(write_config(tmp_path / f"{variant}.ini", text))
        status = run_experiment(cfg)
        assert status["completed"] == [0], variant


def test_worker_fanout_matches_serial(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "s", tmp_path / "p"
    text = BASIC.format(out="{out}")
    cfg1 = parse_config(write_config(tmp_path / "c1.ini", text.format(out=out1)))
    cfg2 = parse_config(write_config(tmp_path / "c2.ini", text.format(out=out2)))
    run_experiment(cfg1)
    monkeypatch.setenv("LRKF_WORKERS", "2")
    run_experiment(cfg2)
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
