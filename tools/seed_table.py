"""Print per-seed quality of the shipped configs, and paired differences.

    python3 tools/seed_table.py [--against DIR] [--src SRC] [--json]

Runs seeds 0-9 of ``demos/configs/sine.ini`` under ``lrekf``,
``lrekf_spherical``, ``vdekf``, ``fdekf`` and ``fcekf`` and prints, per
method, the mean over seeds (and the standard deviation across seeds) of
each seed's mean per-event ``rmse`` and ``nll``, as ``summary.csv``
averages them; then the same for the mean per-step ``reward`` of ``demos/configs/bandit.ini``
over seeds 0-9. A failed seed reads ``nan``. BLAS is pinned to one thread
before numpy loads, as in ``tools/output_digests.py``.

``--against DIR`` takes the root of another checkout of this repository,
runs this script on its ``src`` (with this checkout's configs) in a second
process, and prints for every (config, method, metric) the paired per-seed
differences (this checkout minus DIR), their mean and standard error, and
how many seeds went up, down or stayed. Run against its own checkout it
prints only zeros. ``--src`` measures the ``lrkf`` in SRC rather than the
``src`` next to this script, and ``--json`` prints the per-seed values as
JSON instead of the table.

Digests (``tools/output_digests.py``) only say whether outputs changed; a
change that moves output bits on purpose shows this table. On sine.ini
``lrekf_spherical`` turns a rounding-level change into a visible one after a
few hundred events, so judge it by the paired differences, not per seed.
"""

import argparse
import json
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LRKF_WORKERS", None)

import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEEDS = list(range(10))
SINE_METHODS = ("lrekf", "lrekf_spherical", "vdekf", "fdekf", "fcekf")
SINE_METRICS = ("rmse", "nll")


def measure(src):
    """``{config: {method: {metric: [value per seed]}}}`` for the lrkf in ``src``."""
    sys.path.insert(0, str(src))
    from lrkf import harness

    sine = harness.parse_config(str(ROOT / "demos/configs/sine.ini"))
    table = {"sine.ini": {}, "bandit.ini": {}}
    for method in SINE_METHODS:
        per_metric = {metric: [] for metric in SINE_METRICS}
        for seed in SEEDS:
            rows, _ = harness.run_seed(replace(sine, method=method), seed)
            for metric, values in per_metric.items():
                seed_rows = [r["value"] for r in rows if r["metric"] == metric]
                values.append(float(np.mean(seed_rows)) if seed_rows else float("nan"))
        table["sine.ini"][method] = per_metric
    bandit = harness.parse_config(str(ROOT / "demos/configs/bandit.ini"))
    steps = {**harness.defaults("bandit"), **bandit.bandit}["steps"]
    with tempfile.TemporaryDirectory() as tmp:
        totals = harness.run_bandit_experiment(replace(bandit, seeds=SEEDS, output=tmp))["totals"]
    reward = [totals[seed] / steps if seed in totals else float("nan") for seed in SEEDS]
    table["bandit.ini"][bandit.method] = {"reward": reward}
    return table


def cells(table):
    """(config, method, metric, per-seed array) of every measured cell."""
    for config, methods in table.items():
        for method, metrics in methods.items():
            for metric, values in metrics.items():
                yield config, method, metric, np.array(values)


def print_table(table):
    print(f"mean over seeds {SEEDS[0]}-{SEEDS[-1]} of each seed's mean (sd across seeds)")
    for config, method, metric, v in cells(table):
        print(f"{config:11s} {method:16s} {metric:7s} {v.mean():10.4f} ({v.std(ddof=1):.4f})")


def print_paired(table, other, against):
    print(f"\npaired differences, this checkout minus {against}, seeds {SEEDS[0]}-{SEEDS[-1]}")
    print(f"{'config':11s} {'method':16s} {'metric':7s} {'mean':>10s} {'stderr':>9s}"
          "  up down same  per seed")
    for config, method, metric, v in cells(table):
        d = v - np.array(other[config][method][metric])
        sem = d.std(ddof=1) / np.sqrt(d.size)
        counts = (np.count_nonzero(d > 0), np.count_nonzero(d < 0), np.count_nonzero(d == 0))
        per_seed = " ".join(f"{x:+.4f}" for x in d)
        print(f"{config:11s} {method:16s} {metric:7s} {d.mean():+10.4f} {sem:9.4f}"
              f"  {counts[0]:2d} {counts[1]:4d} {counts[2]:4d}  {per_seed}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="DIR", help="root of another checkout")
    parser.add_argument("--src", metavar="SRC", default=str(ROOT / "src"),
                        help="the lrkf to measure (default: the src next to this script)")
    parser.add_argument("--json", action="store_true", help="print per-seed values as JSON")
    args = parser.parse_args(argv)
    table = measure(args.src)
    if args.json:
        print(json.dumps(table))
        return 0
    print_table(table)
    if args.against:
        src = str(Path(args.against).resolve() / "src")
        other = subprocess.run([sys.executable, __file__, "--src", src, "--json"],
                               stdout=subprocess.PIPE, text=True)
        if other.returncode:
            print(f"the run on {args.against} failed", file=sys.stderr)
            return 1
        print_paired(table, json.loads(other.stdout), args.against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
