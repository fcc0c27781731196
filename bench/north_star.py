"""Per-phase cost of the low-rank filter step at the north-star sizes.

    python3 bench/north_star.py [--against DIR] [--repeats N] [--out PATH]

Six cells: P of about 150, 12k and 80k parameters, each with C = 1
output (Gaussian regression, set up as ``demos/configs/sine.ini``) and
C = 10 (categorical, set up as ``perfbench/configs/wide.ini``). In each
cell the DLR filter step (``lrekf``) and the spherical one
(``lrekf_spherical`` with ``update = svd``) are composed from the
library's own functions, in the order the learner and the harness call
them, and each phase is timed per event. The ``lrekf`` phases:

* ``predict``: ``diagonal.predict``, its belief construction included;
* ``linearize``: ``model.forward`` keeping its pass, then
  ``models.linearize`` from that pass (the forward pass plus the Jacobian);
* ``nll``: the plug-in NLL of the event's prediction, as the harness
  scores it; ``nlpd``: ``predictive.mc_predict`` with 100 draws;
* ``woodbury_mean``: the innovation check and ``linalg.woodbury_mean``;
* ``truncation``: the extended factor, ``linalg.thin_svd`` and the fold
  of the dropped columns into the diagonal;
* ``belief_build``: the posterior ``DlrBelief``.

The ``lrekf_spherical`` phases:

* ``predict``: ``spherical.predict``; ``linearize`` as above;
* ``svd``: ``spherical.extended_factor`` and ``linalg.thin_svd``;
* ``eigen_mean``: the innovation check and the mean read off that SVD;
* ``truncation``: ``spherical.truncate``, the posterior
  ``SphericalBelief`` included.

Before timing, the first events of each cell run through the composed
step and through the learner (``learners.LowRankFilterLearner`` or
``learners.SphericalFilterLearner``) side by side; unless the prediction
and the posterior agree bit for bit, the script exits with code 1. Those
events are also the cell's warm-up. The timed events start at event 3,
while the rank is still filling in the C = 1 cells: the first L events
there leave dead directions in the posterior.

Each repeat measures every cell in a fresh process. With ``--against
DIR`` (the root of another checkout) the repeats alternate between this
checkout and DIR's ``src``, which runs first flipping each repeat, as
``tools/seed_table.py`` measures another checkout. The report gives, per
cell, method, phase and checkout, the median and quartiles over repeats
of the mean microseconds per event, the median minor page faults
(``ru_minflt``) per event, and an environment record; a method whose
step raises NumericalDegeneracyError in a cell is reported as failed
there, with the event and the message. ``--out`` writes it as JSON; a
table goes to standard output either way. BLAS is pinned to one thread
before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import inspect  # noqa: E402
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
PHASES = {  # method: its timed phases
    "lrekf": ("predict", "linearize", "nll", "nlpd", "woodbury_mean", "truncation",
              "belief_build"),
    "lrekf_spherical": ("predict", "linearize", "svd", "eigen_mean", "truncation"),
}
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


def linearize(model, x, mean):
    """The prediction, and the linearization from the same network pass."""
    from lrkf import models

    kept = {}
    y_hat = model.forward(x, mean, keep=kept)
    return y_hat, models.linearize(model, x, mean, kept)


def composed_step(model, cfg, belief, x, y, t, phase):
    """One lrekf event from library calls, each run through ``phase``.
    Returns the prediction and the posterior."""
    from lrkf import diagonal, linalg, predictive
    from lrkf.belief import DlrBelief

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
    y_hat, lin = phase("linearize", linearize, model, x, pred.mean)
    phase("nll", nll, y_hat)
    phase("nlpd", predictive.mc_predict, pred, model, x, y, NLPD_SAMPLES, [0, t])
    w_ext = phase("truncation", diagonal._extended_factor, pred.low_rank, lin)
    s, u = phase("truncation", linalg.thin_svd, w_ext)
    mean = phase("woodbury_mean", woodbury, pred, lin, w_ext)
    diag, factor = phase("truncation", fold, pred.diag_precision, s, u)
    return y_hat, phase("belief_build", DlrBelief, mean, diag, factor)


def composed_spherical_step(model, cfg, belief, x, y, t, phase):
    """One lrekf_spherical event (``update = svd``) from library calls,
    each run through ``phase``. Returns the prediction and the posterior."""
    from lrkf import linalg, spherical

    def svd(pred, lin):
        return linalg.thin_svd(spherical.extended_factor(pred, lin))

    def eigen_mean(pred, lin, s, u):
        rhs = lin.jacobian.T @ lin.apply_r_inv(lin.innovation(y))
        eta, s2 = pred.eta, s * s
        return pred.mean + (rhs - u @ (s2 / (eta + s2) * (u.T @ rhs))) / eta

    pred = phase("predict", spherical.predict, belief, cfg)
    y_hat, lin = phase("linearize", linearize, model, x, pred.mean)
    s, u = phase("svd", svd, pred, lin)
    mean = phase("eigen_mean", eigen_mean, pred, lin, s, u)
    # a checkout that fills dead columns takes the basis to fill them from
    fill = (pred.basis,) if "preferred" in inspect.signature(spherical.truncate).parameters else ()
    return y_hat, phase("truncation", spherical.truncate, mean, pred.eta, s, u, *fill, cfg.rank,
                        "update_svd")


def state(belief):
    """A belief's fields as arrays, for a bit-for-bit comparison."""
    return [np.asarray(getattr(belief, f.name)) for f in dataclasses.fields(belief)]


def measure_cell(widths, rank, n_events, method):
    """Per-event means of one repeat of ``method``: ``{phase: (us, minflt)}``,
    or ``{"failed": message}`` when a step raises NumericalDegeneracyError."""
    from lrkf import diagonal, spherical
    from lrkf.exceptions import NumericalDegeneracyError
    from lrkf.learners import LowRankFilterLearner, SphericalFilterLearner

    model, cfg = build_cell(widths, rank)
    learner_cls, init, step = {
        "lrekf": (LowRankFilterLearner, diagonal.initial_belief, composed_step),
        "lrekf_spherical": (SphericalFilterLearner, spherical.initial_belief,
                            composed_spherical_step),
    }[method]
    learner = learner_cls(model, cfg, 0)
    belief = init(model, cfg, 0)
    clock = PhaseClock()
    try:
        for t, (x, y) in enumerate(events(model, CHECKED_EVENTS + n_events)):
            if t >= CHECKED_EVENTS:
                _, belief = step(model, cfg, belief, x, y, t, clock)
                continue
            y_hat, belief = step(model, cfg, belief, x, y, t, untimed)
            want = learner.predict(x).y_hat
            learner.observe(x, y)
            if any(a.tobytes() != b.tobytes() for a, b in zip(
                    [y_hat, *state(belief)], [want, *state(learner.belief)])):
                sys.exit(f"widths {widths}, {method}: the composed step differs from the "
                         f"learner at event {t}")
    except NumericalDegeneracyError as exc:
        return {"failed": f"event {t}: {exc}"}
    return {name: (clock.ns[name] / 1e3 / n_events, clock.minflt[name] / n_events)
            for name in PHASES[method]}


def worker(src):
    """One repeat of every cell and method with the lrkf in ``src``, printed as JSON."""
    sys.path.insert(0, str(src))
    print(json.dumps([{method: measure_cell(*cell, method) for method in PHASES}
                      for cell in CELLS]))


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
        methods = {}
        for method, names in PHASES.items():
            got = {side: [rep[i][method] for rep in reps] for side, reps in runs.items()}
            failed = {side: r["failed"] for side, rs in got.items() for r in rs if "failed" in r}
            methods[method] = {"failed": failed} if failed else {
                name: {side: summary(*zip(*(r[name] for r in rs))) for side, rs in got.items()}
                for name in names}
        cells.append({"P": p, "C": widths[-1], "L": rank, "widths": list(widths),
                      "family": "gaussian" if widths[-1] == 1 else "categorical",
                      "timed_events": n_events, "checked_events": CHECKED_EVENTS,
                      "methods": methods})
    report = {
        "script": "bench/north_star.py",
        "method": "lrekf and lrekf_spherical (update = svd), composed from library calls "
                  "and checked bit for bit against learners.LowRankFilterLearner and "
                  "learners.SphericalFilterLearner",
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
    print(f"{'P':>7s} {'C':>3s} {'method':16s}{'phase':14s}{head}")
    for cell in report["cells"]:
        for method, phases in cell["methods"].items():
            if "failed" in phases:
                failed = [f"{side} failed at {msg}" for side, msg in phases["failed"].items()]
                print(f"{cell['P']:7d} {cell['C']:3d} {method:16s}{'; '.join(failed)}")
                continue
            for name, by_side in phases.items():
                row = "".join(f"{by_side[side]['us_median']:14.1f}" for side in sides)
                row += "".join(f"{by_side[side]['minflt_median']:16.1f}" for side in sides)
                print(f"{cell['P']:7d} {cell['C']:3d} {method:16s}{name:14s}{row}")


if __name__ == "__main__":
    sys.exit(main())
