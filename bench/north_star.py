"""Per-phase cost of the low-rank filter step at the north-star sizes.

    python3 bench/north_star.py [--against DIR] [--repeats N] [--out PATH]

Six cells: P of about 150, 12k and 80k parameters, each with C = 1
output (Gaussian regression, set up as ``demos/configs/sine.ini``) and
C = 10 (categorical, set up as ``perfbench/configs/wide.ini``). In each
cell the DLR filter step (``lrekf``) is composed from the library's own
functions, in the order the learner and the harness call them, and each
phase is timed per event:

* ``predict``: ``diagonal.predict``, its belief construction included;
* ``linearize``: ``model.forward`` keeping its pass, then
  ``models.linearize`` from that pass (the forward pass plus the Jacobian);
* ``nll``: the plug-in NLL of the event's prediction, as the harness
  scores it; ``nlpd``: ``predictive.mc_predict`` with 100 draws;
* ``woodbury_mean``: the innovation check and ``linalg.woodbury_mean``;
* ``truncation``: the extended factor, ``linalg.thin_svd`` and the fold
  of the dropped columns into the diagonal;
* ``belief_build``: the posterior ``DlrBelief``.

Before timing, the first events of each cell run through the composed
step and through ``learners.LowRankFilterLearner`` side by side; unless
the prediction and the posterior agree bit for bit, the script exits
with code 1. Those events are also the cell's warm-up.

Each repeat measures every cell in a fresh process. With ``--against
DIR`` (the root of another checkout) the repeats alternate between this
checkout and DIR's ``src``, which runs first flipping each repeat, as
``tools/seed_table.py`` measures another checkout. The report gives, per
cell, phase and checkout, the median and quartiles over repeats of the
mean microseconds per event, the median minor page faults
(``ru_minflt``) per event, and an environment record. ``--out`` writes
it as JSON; a table goes to standard output either way. BLAS is pinned
to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("predict", "linearize", "nll", "nlpd", "woodbury_mean", "truncation", "belief_build")
NLPD_SAMPLES = 100  # the harness's default
CHECKED_EVENTS = 3

# (layer widths, rank L, timed events per repeat). C = 1 cells are
# Gaussian with sine.ini's noise and drift, C = 10 cells categorical with
# wide.ini's drift.
CELLS = [
    ((1, 50, 1), 10, 200),  # P = 151, sine.ini's network
    ((4, 10, 10), 10, 200),  # P = 160
    ((8, 100, 100, 1), 20, 20),  # P = 11,101
    ((8, 100, 100, 10), 20, 20),  # P = 12,010, wide.ini's network
    ((8, 280, 280, 1), 50, 4),  # P = 81,481
    ((8, 270, 270, 10), 50, 4),  # P = 78,310
]


class PhaseClock:
    """Wall time and minor page faults summed per phase name."""

    def __init__(self):
        self.ns = defaultdict(int)
        self.minflt = defaultdict(int)

    def __call__(self, name, fn, *args):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter_ns()
        out = fn(*args)
        self.ns[name] += time.perf_counter_ns() - start
        self.minflt[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return out


def untimed(name, fn, *args):
    """A :class:`PhaseClock` stand-in that only calls."""
    return fn(*args)


def build_cell(widths, rank):
    """The cell's model and filter config."""
    from lrkf.diagonal import DynamicsConfig, LowRankConfig
    from lrkf.models import CategoricalFamily, GaussianFamily, MlpModel, MlpSpec

    if widths[-1] == 1:
        family, dyn = GaussianFamily(0.0025), DynamicsConfig(1.0, 1e-4, 1.0)
    else:
        family, dyn = CategoricalFamily(), DynamicsConfig(1.0, 1e-5, 30.0)
    return MlpModel(MlpSpec(widths), family), LowRankConfig(rank, dyn)


def events(model, n, seed=0):
    """``n`` (x, y) pairs: standard normal inputs; Gaussian targets, or
    one-hot labels."""
    rng = np.random.default_rng(seed)
    c = model.out_dim
    for _ in range(n):
        x = rng.standard_normal(model.spec.in_dim)
        y = rng.standard_normal(1) if c == 1 else np.eye(c)[rng.integers(c)]
        yield x, y


def composed_step(model, cfg, belief, x, y, t, phase):
    """One lrekf event from library calls, each run through ``phase``.
    Returns the prediction and the posterior."""
    from lrkf import diagonal, linalg, models, predictive
    from lrkf.belief import DlrBelief

    def linearize(mean):
        kept = {}
        y_hat = model.forward(x, mean, keep=kept)
        return y_hat, models.linearize(model, x, mean, kept)

    def nll(y_hat):
        if model.family.kind == "categorical":
            return predictive.CategoricalPrediction(y_hat).nll(y)
        c = y_hat.shape[0]
        fam = model.family
        return predictive.GaussianPrediction(y_hat, fam.obs_cov(c), fam.obs_chol(c)).nll(y)

    def woodbury(pred, lin, w_ext):
        rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
        return linalg.woodbury_mean(pred.mean, pred.diag_precision, w_ext, rhs)

    def fold(ups, s, u):
        u *= s  # in place, as diagonal.update scales its singular vectors
        dropped = u[:, cfg.rank:]
        return ups + np.einsum("ij,ij->i", dropped, dropped), u[:, : cfg.rank]

    pred = phase("predict", diagonal.predict, belief, cfg, model.out_dim)
    y_hat, lin = phase("linearize", linearize, pred.mean)
    phase("nll", nll, y_hat)
    phase("nlpd", predictive.mc_predict, pred, model, x, y, NLPD_SAMPLES, [0, t])
    w_ext = phase("truncation", diagonal._extended_factor, pred.low_rank, lin)
    s, u = phase("truncation", linalg.thin_svd, w_ext)
    mean = phase("woodbury_mean", woodbury, pred, lin, w_ext)
    diag, factor = phase("truncation", fold, pred.diag_precision, s, u)
    return y_hat, phase("belief_build", DlrBelief, mean, diag, factor)


def measure_cell(widths, rank, n_events):
    """Per-event means of one repeat: ``{phase: (us, minflt)}``."""
    from lrkf.diagonal import initial_belief
    from lrkf.learners import LowRankFilterLearner

    model, cfg = build_cell(widths, rank)
    learner = LowRankFilterLearner(model, cfg, 0)
    belief = initial_belief(model, cfg, 0)
    stream = events(model, CHECKED_EVENTS + n_events)
    for t in range(CHECKED_EVENTS):
        x, y = next(stream)
        y_hat, belief = composed_step(model, cfg, belief, x, y, t, untimed)
        want = learner.predict(x).y_hat
        learner.observe(x, y)
        got, ref = (y_hat, belief.mean, belief.diag_precision, belief.low_rank), learner.belief
        if any(a.tobytes() != b.tobytes() for a, b in zip(
                got, (want, ref.mean, ref.diag_precision, ref.low_rank))):
            sys.exit(f"widths {widths}: the composed step differs from the learner at event {t}")
    clock = PhaseClock()
    for t, (x, y) in enumerate(stream, CHECKED_EVENTS):
        _, belief = composed_step(model, cfg, belief, x, y, t, clock)
    return {name: (clock.ns[name] / 1e3 / n_events, clock.minflt[name] / n_events)
            for name in PHASES}


def worker(src):
    """One repeat of every cell with the lrkf in ``src``, printed as JSON."""
    sys.path.insert(0, str(src))
    print(json.dumps([measure_cell(*cell) for cell in CELLS]))


def commit(root):
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+uncommitted src changes" if dirty else "")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "cpu_model": cpu,
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def summary(us, minflt):
    """Median and quartiles of the per-repeat times, median page faults."""
    q1, med, q3 = np.percentile(us, [25, 50, 75])
    return {"us_median": round(float(med), 3), "us_q1": round(float(q1), 3),
            "us_q3": round(float(q3), 3), "minflt_median": float(np.median(minflt))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="DIR", help="root of another checkout")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", metavar="PATH", help="write the report as JSON")
    parser.add_argument("--src", metavar="SRC", help=argparse.SUPPRESS)  # worker mode
    args = parser.parse_args(argv)
    if args.src:
        worker(args.src)
        return 0
    sides = {"this": ROOT}
    if args.against:
        sides["against"] = Path(args.against).resolve()
    runs = {side: [] for side in sides}
    for r in range(args.repeats):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            proc = subprocess.run([sys.executable, __file__, "--src", str(sides[side] / "src")],
                                  stdout=subprocess.PIPE, text=True)
            if proc.returncode:
                print(f"repeat {r} on {side} failed", file=sys.stderr)
                return 1
            runs[side].append(json.loads(proc.stdout))
    cells = []
    for i, (widths, rank, n_events) in enumerate(CELLS):
        p = sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:]))
        phases = {name: {side: summary(*zip(*(rep[i][name] for rep in reps)))
                         for side, reps in runs.items()} for name in PHASES}
        cells.append({"P": p, "C": widths[-1], "L": rank, "widths": list(widths),
                      "family": "gaussian" if widths[-1] == 1 else "categorical",
                      "timed_events": n_events, "checked_events": CHECKED_EVENTS, "phases": phases})
    report = {
        "script": "bench/north_star.py",
        "method": "lrekf, composed from library calls and checked bit for bit against "
                  "learners.LowRankFilterLearner",
        "units": {"us": "microseconds per event: the mean over one repeat's timed events",
                  "minflt": "minor page faults per event (ru_minflt)"},
        "repeats": args.repeats,
        "checkouts": {side: commit(root) for side, root in sides.items()},
        "environment": environment(),
        "cells": cells,
    }
    print_table(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def print_table(report):
    sides = list(report["checkouts"])
    head = "".join(f"{side + ' us':>14s}" for side in sides)
    head += "".join(f"{side + ' minflt':>16s}" for side in sides)
    print(f"{'P':>7s} {'C':>3s} {'phase':14s}{head}")
    for cell in report["cells"]:
        for name, by_side in cell["phases"].items():
            row = "".join(f"{by_side[side]['us_median']:14.1f}" for side in sides)
            row += "".join(f"{by_side[side]['minflt_median']:16.1f}" for side in sides)
            print(f"{cell['P']:7d} {cell['C']:3d} {name:14s}{row}")


if __name__ == "__main__":
    sys.exit(main())
