"""scipy stays off lrkf's import path and off every runtime path, and the
process pool stays off the import path.

Each check runs in a fresh interpreter, so a module that an earlier test
imported cannot hide or fake a load. Running a few events of each method
as well as importing shows that the scipy work is gone, not deferred to
the first call.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import lrkf, lrkf.cli
from lrkf.harness import ExperimentConfig, run_bandit_experiment, run_seed, validate_config

output, tags = sys.argv[1], sys.argv[2:]
sine = {"kind": "piecewise_sine", "num_tasks": 1, "steps_per_task": 6}
classes = {"kind": "synthetic_classification", "in_dim": 3, "num_classes": 3, "steps": 6}
gaussian = {"hidden": [8], "family": "gaussian", "obs_variance": 0.04}
categorical = {"hidden": [8], "family": "categorical"}
low_rank = {"rank": 3}
runs = {
    "lrekf": ("lrekf", low_rank, sine, gaussian, ("rmse", "nll")),
    "categorical": ("lrekf", low_rank, classes, categorical, ("nll", "misclass")),
    "spherical": ("lrekf_spherical", low_rank, sine, gaussian, ("rmse", "nll")),
    "vdekf": ("vdekf", {}, sine, gaussian, ("rmse", "nll")),
    "nlpd": ("lrekf", low_rank, sine, gaussian, ("rmse", "nll", "nlpd")),
    "fcekf": ("fcekf", {}, sine, gaussian, ("rmse", "nll")),
}
for tag in tags:
    if tag == "thompson":
        cfg = ExperimentConfig(
            "lrekf", low_rank, {"kind": "synthetic_classification", "in_dim": 3}, gaussian,
            [0], output=output, bandit={"actions": 3, "steps": 6, "policy": "thompson"},
        )
        assert run_bandit_experiment(cfg)["failed"] == {}
        continue
    method, params, stream, model, metrics = runs[tag]
    cfg = ExperimentConfig(method, params, stream, model, [0], metrics=metrics)
    assert validate_config(cfg) == [], (tag, validate_config(cfg))
    rows, err = run_seed(cfg, 0)
    assert err is None and rows, (tag, err)
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def fresh_python(script, *args):
    """Standard output of ``script`` run by a fresh interpreter on src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def scipy_modules_after(tmp_path, *tags):
    """The scipy modules loaded by a fresh interpreter that imports lrkf,
    lrkf.cli and lrkf.harness and runs the named cases of SCRIPT."""
    return fresh_python(SCRIPT, str(tmp_path), *tags).split()


def test_imports_and_runtime_paths_load_no_scipy(tmp_path):
    tags = ("lrekf", "categorical", "spherical", "vdekf", "nlpd", "fcekf", "thompson")
    assert scipy_modules_after(tmp_path, *tags) == []


def test_imports_load_no_process_pool():
    # harness imports the pool only when LRKF_WORKERS asks for workers
    pool = ("concurrent.futures.process", "multiprocessing")
    script = f"import sys, lrkf, lrkf.cli, lrkf.harness; print([m for m in {pool} if m in sys.modules])"
    assert fresh_python(script).strip() == "[]"
