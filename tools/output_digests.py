"""Print the sha256 of every file the shipped configs' runs write.

    python3 tools/output_digests.py [--against DIR] [--src SRC]

The runs:

* ``demos/configs/sine.ini`` as shipped (``lrekf``) and with ``name =
  lrekf_spherical``, ``vdekf`` and ``fdekf``; under ``lrekf`` with
  ``metrics = rmse nll nlpd``; under ``lrekf_spherical`` with ``update =
  orth``.
* sine.ini on a stream of 100 steps per task: under ``ilrekf``, ``iekf``
  and ``fcekf``; under ``lrekf_spherical`` with ``metrics = rmse nll
  nlpd`` (the sampler reads the spherical basis from the first event on,
  while its dead columns are being filled); with ``[model] activation =
  relu`` under ``lrekf`` and ``vdekf``; with each inflation variant
  (``bayesian``, ``hybrid``, ``simple``) at ``inflation_alpha = 0.05``
  under ``lrekf`` and ``lrekf_spherical``.
* ``demos/configs/bandit.ini`` and the benchmark's categorical
  ``perfbench/configs/wide.ini`` (read, not changed).
* ``cls-<method>``: the small categorical config of
  ``tests/test_harness.py``'s
  ``test_categorical_spherical_config_completes_every_seed`` (hidden 16,
  rank 5, 400 steps, seeds 0-7, ``metrics = nll misclass``), built here
  from wide.ini, under ``lrekf``, ``lrekf_spherical``, ``ilrekf``,
  ``vdekf`` and ``fdekf`` (the last two without ``rank``: they are rank
  0). Seeds that fail are recorded in ``failures.txt``, so a seed that
  starts or stops failing moves a line.

The other runs keep their shipped length. Each runs into its own
temporary directory, and the script prints one ``sha256 path`` line per
file written (each CSV, and ``failures.txt`` when a seed failed; ``path``
relative to that run's output directory, prefixed by the run's name).
BLAS is pinned to one thread before numpy loads, because some products
round differently with more threads.

The lrkf it imports is the ``src`` next to this script, so a copy of the
script in a checkout of another commit digests that commit; ``--src``
digests the lrkf in SRC instead (with this checkout's configs and runs).
Two commits that claim byte-identical outputs print identical lines.

``--against DIR`` takes the root of another checkout of this repository
and runs this script on its ``src`` in a second process, at the same time.
It prints, instead of the digests, each line whose digest differs
between the two (or that only one side wrote) and how many lines were
compared, and exits 1 when any line differs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LRKF_WORKERS", None)  # seeds in one process, as the benchmark runs them

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SINE_METHODS = ("lrekf", "lrekf_spherical", "vdekf", "fdekf")
CLS_METHODS = ("lrekf", "lrekf_spherical", "ilrekf", "vdekf", "fdekf")


def runs(harness):
    """(name, entry point, config) of every digested run."""
    sine = harness.parse_config(str(ROOT / "demos/configs/sine.ini"))
    for method in SINE_METHODS:
        yield f"sine-{method}", harness.run_experiment, replace(sine, method=method)
    yield "sine-lrekf-nlpd", harness.run_experiment, replace(sine, metrics=("rmse", "nll", "nlpd"))
    orth = {**sine.method_params, "update": "orth"}
    yield "sine-lrekf_spherical-orth", harness.run_experiment, replace(
        sine, method="lrekf_spherical", method_params=orth)
    short = replace(sine, stream={**sine.stream, "steps_per_task": 100})
    for method in ("ilrekf", "iekf", "fcekf"):
        yield f"sine-{method}", harness.run_experiment, replace(short, method=method)
    yield "sine-lrekf_spherical-nlpd", harness.run_experiment, replace(
        short, method="lrekf_spherical", metrics=("rmse", "nll", "nlpd"))
    relu = replace(short, model={**short.model, "activation": "relu"})
    for method in ("lrekf", "vdekf"):
        yield f"sine-relu-{method}", harness.run_experiment, replace(relu, method=method)
    for method in ("lrekf", "lrekf_spherical"):
        for variant in ("bayesian", "hybrid", "simple"):
            params = {**short.method_params, "inflation": variant, "inflation_alpha": 0.05}
            yield f"sine-{method}-inflation-{variant}", harness.run_experiment, replace(
                short, method=method, method_params=params)
    bandit = harness.parse_config(str(ROOT / "demos/configs/bandit.ini"))
    yield "bandit", harness.run_bandit_experiment, bandit
    wide = harness.parse_config(str(ROOT / "perfbench/configs/wide.ini"))
    yield "wide", harness.run_experiment, wide
    # the small categorical config of tests/test_harness.py's
    # test_categorical_spherical_config_completes_every_seed
    cls = replace(wide, seeds=list(range(8)), model={**wide.model, "hidden": [16]},
                  stream={**wide.stream, "in_dim": 4, "num_classes": 3, "steps": 400},
                  method_params={"initial_precision": 5.0, "process_noise": 1e-4})
    for method in CLS_METHODS:
        rank = {} if method in ("vdekf", "fdekf") else {"rank": 5}  # those two are rank 0
        yield f"cls-{method}", harness.run_experiment, replace(
            cls, method=method, method_params={**cls.method_params, **rank})


def digests(src, echo):
    """``{run/file: sha256}`` of every file the lrkf in ``src`` writes; each
    line is printed as it is made when ``echo`` is set."""
    sys.path.insert(0, str(src))
    from lrkf import harness

    lines = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run, cfg in runs(harness):
            out = Path(tmp) / name
            run(replace(cfg, output=str(out)))
            for path in sorted(out.iterdir()):
                key = f"{name}/{path.name}"
                lines[key] = hashlib.sha256(path.read_bytes()).hexdigest()
                if echo:
                    print(f"{lines[key]} {key}", flush=True)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="DIR", help="root of another checkout")
    parser.add_argument("--src", metavar="SRC", default=str(ROOT / "src"),
                        help="the lrkf to digest (default: the src next to this script)")
    args = parser.parse_args(argv)
    if not args.against:
        digests(args.src, echo=True)
        return 0
    src = str(Path(args.against).resolve() / "src")
    other = subprocess.Popen([sys.executable, __file__, "--src", src],
                             stdout=subprocess.PIPE, text=True)
    mine = digests(args.src, echo=False)
    out, _ = other.communicate()
    if other.returncode:
        print(f"the run on {args.against} failed", file=sys.stderr)
        return 1
    theirs = dict(reversed(line.split(" ", 1)) for line in out.splitlines())
    differ = [key for key in {**mine, **theirs} if mine.get(key) != theirs.get(key)]
    for key in differ:
        print(f"{key}: {mine.get(key, 'not written')} here, "
              f"{theirs.get(key, 'not written')} in {args.against}")
    print(f"{len(differ)} of {len({**mine, **theirs})} lines differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
