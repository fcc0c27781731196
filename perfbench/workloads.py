"""The three benchmark workloads, the closed measurement loop and the checks.

Workloads, and why each is in the benchmark:

* ``sine``: ``demos/configs/sine.ini`` through ``lrekf``,
  ``lrekf_spherical`` and ``vdekf`` in turn on an MLP 1-50-1 (P = 151,
  L = 10, C = 1). At this size the event cost is Python overhead in
  ``learners``, ``diagonal``, ``linalg`` and ``models``; BLAS time is
  negligible. It is the shipped config.
* ``wide``: ``perfbench/configs/wide.ini``, ``lrekf`` on a categorical
  MLP 8-100-100-10 (P = 12,010, L = 20, C = 10). BLAS-bound: the update
  and its truncation SVD dominate, ``models`` is small, and C = 10 runs the
  categorical pseudo-whitener with K = L + C = 30 columns.
* ``sampling``: the two ways the posterior is read. ``bandit`` is
  ``demos/configs/bandit.ini``, Thompson sampling with ``lrekf``
  (P = 229): each event reads the belief through one low-rank draw in
  ``belief.sample_parameters`` and then writes a masked C = 1 update, so
  ``thin_svd`` runs twice per event on two matrices. ``scoring`` is
  ``sine.ini`` with ``metrics = rmse nll nlpd`` through ``lrekf``: the
  Monte Carlo NLPD (100 draws) dominates. P = 151 is below the P = 200
  dense-sampler switch and P = 229 above it, so both sampler paths run.

Timing. The machine is a few shared cores whose speed drifts with the
load of other tenants, in phases from under a second to minutes. So the
reference kernel of ``reference.py`` is timed right after every call, and
each call's duration is taken in units of that kernel's time: a phase
that slows both cancels out. A part's time per call is the median of
those ratios over the run times the kernel's nominal time, and
``events_per_s`` is the events of one call per part, summed, over those
times, summed: events per second at the machine's nominal speed. The
timed calls are short (``Part.timed`` shortens each stream; the per-event
work is the same as at full length, because every filter starts with its
full rank), so a run holds many of them and each sits close in time to
its kernel sample. The raw throughput over the median call durations and
the median slowdown of the kernel are printed too.

Correctness. Before the timed loop, each part runs once at the shipped
length (``full``) on its first stream seed, which also warms up the
process (``scoring`` runs at the timed length only: at full length one
call takes several seconds). Those outputs must beat a predictor that
ignores the inputs, and the ``sine`` ``lrekf`` CSV must be byte-identical to what ``lrkf run``
writes. Every timed call's CSV must have one finite row per event and
metric and be byte-identical to the first call with the same part and
stream seed. ``scoring`` must leave the ``rmse`` and ``nll`` rows of
``lrekf`` unchanged: Monte Carlo scoring may not change what the filter
learns.
"""

import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import lrkf
import reference
import tracing
from lrkf import cli, harness


@dataclass(frozen=True)
class Part:
    name: str
    config: str  # INI file, relative to the repository root
    method: str = ""  # empty keeps the config's method
    metrics: tuple = ()  # replaces experiment.metrics when set
    timed: tuple = ()  # (section, key, value): shortens the stream of a timed call
    bandit: bool = False
    full: bool = True  # also verify one call at the shipped length


SINE = "demos/configs/sine.ini"
WORKLOADS = {
    "sine": tuple(Part(m, SINE, m, timed=(("stream", "steps_per_task", 25),))
                  for m in ("lrekf", "lrekf_spherical", "vdekf")),
    "wide": (Part("lrekf", "perfbench/configs/wide.ini", timed=(("stream", "steps", 10),)),),
    "sampling": (
        Part("bandit", "demos/configs/bandit.ini", bandit=True, timed=(("bandit", "steps", 200),)),
        Part("scoring", SINE, "lrekf", metrics=("rmse", "nll", "nlpd"),
             timed=(("stream", "steps_per_task", 10),), full=False),
    ),
}

# Spans each (workload, part) must reach; zero calls means a wrapper
# missed its target.
_RUN_SPANS = (
    "harness.run_seed", "harness.write_metric_csv", "streams.prequential_eval",
    "learners.predict", "learners.observe", "models.forward", "models.logit_jacobian",
    "models.linearize", "predictive.nll", "belief.build",
)
EXPECTED_SPANS = {
    ("sine", "lrekf"): (*_RUN_SPANS, "streams.gen.sine", "diagonal.predict", "diagonal.update",
                        "linalg.thin_svd"),
    ("sine", "lrekf_spherical"): (*_RUN_SPANS, "streams.gen.sine", "spherical.predict",
                                  "spherical.update_svd", "linalg.thin_svd"),
    ("sine", "vdekf"): (*_RUN_SPANS, "streams.gen.sine", "baselines.vdekf_step"),
    ("wide", "lrekf"): (*_RUN_SPANS, "streams.gen.classification", "diagonal.predict",
                        "diagonal.update", "linalg.thin_svd"),
    ("sampling", "bandit"): ("harness.write_metric_csv", "streams.gen.classification", "bandit.act",
                             "bandit.learn", "belief.sample_parameters", "linalg.thin_svd",
                             "diagonal.predict", "diagonal.update", "models.forward",
                             "models.logit_jacobian", "belief.build"),
    ("sampling", "scoring"): (*_RUN_SPANS, "streams.gen.sine", "diagonal.predict",
                              "diagonal.update", "linalg.thin_svd", "predictive.mc_predict",
                              "belief.sample_parameters"),
}

# reference kernel (see reference.py) that gauges the machine for each workload
GAUGES = {"sine": "small", "wide": "blas", "sampling": "small"}

SETUP_PROBES = 8


def entry_point(part):
    return harness.run_bandit_experiment if part.bandit else harness.run_experiment


def csv_path(cfg, part, seed):
    name = "bandit_metrics.csv" if part.bandit else f"metrics_seed{seed}.csv"
    return Path(cfg.output) / name


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_metrics(path):
    """metric name -> list of values, in file order."""
    by_metric = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_metric.setdefault(row["metric"], []).append(float(row["value"]))
    return by_metric


def event_count(cfg, part, seeds):
    if part.bandit:
        return int(cfg.bandit.get("steps", 2000))
    sizes = {len(harness.build_stream(cfg, s)[0]) for s in seeds}
    if len(sizes) != 1:
        raise ValueError(f"stream seeds give different event counts: {sizes}")
    return sizes.pop()


@dataclass
class Call:
    part: str
    seed: int
    seconds: float  # nan when the call raised
    failed: int
    root: int  # span index of the call in a traced phase, else -1
    ref_s: float  # reference kernel time right after the call


class Bench:
    """One workload at one workload seed: configs, outputs and checks."""

    def __init__(self, name, seed, root, outdir):
        self.name = name
        self.parts = WORKLOADS[name]
        self.root = root
        self.outdir = outdir
        self.full = {}  # part name -> full-length config at the first stream seed
        self.timed = {}  # (part name, stream seed) -> timed config
        self.events = {}  # part name -> events of one timed call
        self.plan = []
        for part in self.parts:
            cfg = harness.parse_config(str(root / part.config))
            cfg = replace(cfg, method=part.method or cfg.method, metrics=part.metrics or cfg.metrics)
            base = list(cfg.seeds)
            seeds = [b + seed * len(base) for b in base]
            sections = {}
            for section, key, value in part.timed:
                sections.setdefault(section, dict(getattr(cfg, section)))[key] = value
            short = replace(cfg, **sections)
            self.full[part.name] = replace(cfg, seeds=seeds[:1],
                                           output=str(outdir / part.name / "full"))
            for s in seeds:
                self.timed[part.name, s] = replace(short, seeds=[s],
                                                   output=str(outdir / part.name / f"seed{s}"))
            self.events[part.name] = event_count(short, part, seeds)
        # parts interleaved, so a slow phase of the machine hits all of them
        n_seeds = max(len([k for k in self.timed if k[0] == p.name]) for p in self.parts)
        for i in range(n_seeds):
            for part in self.parts:
                seeds = [s for (p, s) in self.timed if p == part.name]
                self.plan.append((part, seeds[i % len(seeds)]))
        self.digests = {}  # (part name, stream seed) -> sha256 of the first call's CSV
        self.quality = {}  # part name -> metric -> mean over the full-length call
        self.problems = []
        self.gauge = reference.Gauge(GAUGES[name])

    # -- measurement -------------------------------------------------------

    def loop(self, seconds, tracer=None):
        """Closed loop over the plan until ``seconds`` have passed and every
        (part, stream seed) ran once. A traced loop ends only after a whole
        cycle, which keeps the mix of parts, and so every count per event,
        the same from run to run. Returns the list of calls."""
        calls = []
        start = time.perf_counter()
        i = 0
        n = len(self.plan)
        while i < n or (tracer is not None and i % n) or time.perf_counter() - start < seconds:
            part, seed = self.plan[i % n]
            i += 1
            cfg = self.timed[part.name, seed]
            root = len(tracer.spans) if tracer is not None else -1
            t0 = time.perf_counter()
            try:
                status = entry_point(part)(cfg)
            except Exception:  # a failed seed is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                calls.append(Call(part.name, seed, math.nan, 1, root, self.gauge.sample()))
                continue
            elapsed = time.perf_counter() - t0
            failed = 0 if part.bandit else len(status["failed"])
            calls.append(Call(part.name, seed, elapsed, failed, root, self.gauge.sample()))
            if not failed:
                self._check_timed(part, seed)
        return calls

    def events_per_s(self, calls):
        """Events of one call per part over the part's median call time in
        reference-kernel units, at the kernel's nominal time; summed
        across parts."""
        return self._throughput(calls, lambda c: c.seconds / c.ref_s * self.gauge.nominal_s)

    def raw_events_per_s(self, calls):
        """Events of one call per part over the part's median call time."""
        return self._throughput(calls, lambda c: c.seconds)

    def _throughput(self, calls, seconds_of):
        total = 0.0
        for part in self.parts:
            times = [seconds_of(c) for c in calls if c.part == part.name and not c.failed]
            if not times:
                return math.nan
            total += statistics.median(times)
        return sum(self.events.values()) / total

    def setup_s(self):
        """Median over SETUP_PROBES fresh processes, after one untimed
        warm-up probe, of the time from process start to the first
        entry-point call. Like the calls, each probe is taken in units of
        the ``small`` reference kernel timed just before it (import and
        start-up are interpreter work) and converted back at the kernel's
        nominal time."""
        part = self.parts[0]
        cmd = [sys.executable, str(self.root / "perfbench" / "setup_probe.py"),
               str(self.root / part.config), *part.metrics]
        gauge = reference.Gauge("small")
        samples = []
        for i in range(SETUP_PROBES + 1):
            ref_s = statistics.median(gauge.sample() for _ in range(3))
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
            if i:
                samples.append((float(proc.stdout.split()[-1]) - t0) / ref_s * gauge.nominal_s)
        return statistics.median(samples)

    # -- output checks -----------------------------------------------------

    def _check_rows(self, label, path, events, metrics):
        """One finite row per event and metric; returns the values."""
        if not path.exists():
            self.problems.append(f"{label}: no metric CSV")
            return {}
        values = read_metrics(path)
        for metric in metrics:
            got = values.get(metric, [])
            if len(got) != events:
                self.problems.append(f"{label}: {len(got)} {metric} rows for {events} events")
            if not all(math.isfinite(v) for v in got):
                self.problems.append(f"{label}: {metric} has a value that is not finite")
        return values

    def _metric_names(self, part, cfg):
        return ("reward", "cum_reward") if part.bandit else tuple(cfg.metrics)

    def _check_timed(self, part, seed):
        cfg = self.timed[part.name, seed]
        path = csv_path(cfg, part, seed)
        key = (part.name, seed)
        if key not in self.digests:
            self._check_rows(f"{part.name} seed {seed}", path, self.events[part.name],
                             self._metric_names(part, cfg))
            if not path.exists():
                return
            self.digests[key] = sha256(path)
        elif sha256(path) != self.digests[key]:
            self.problems.append(f"{part.name} seed {seed}: metric CSV changed between calls")

    def verify(self):
        """Untimed checks of the program's outputs; also the warm-up."""
        for part in self.parts:
            if "nlpd" in part.metrics:
                self._check_scoring(part)
            if not part.full:
                continue
            cfg = self.full[part.name]
            seed = cfg.seeds[0]
            try:
                status = entry_point(part)(cfg)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.problems.append(f"{part.name}: full-length run raised")
                continue
            if not part.bandit and status["failed"]:
                self.problems.append(f"{part.name}: full-length run failed: {status['failed']}")
                continue
            path = csv_path(cfg, part, seed)
            events = event_count(cfg, part, [seed])
            values = self._check_rows(f"{part.name} full", path, events, self._metric_names(part, cfg))
            names = {"reward": "mean_reward"}
            self.quality[part.name] = {
                names.get(k, f"preq_{k}"): float(np.mean(v)) for k, v in values.items()
                if k != "cum_reward"
            }
            self._trivial_gates(part, cfg, seed)
            self.digests[part.name, "full"] = sha256(path) if path.exists() else ""
            if self.name == "sine" and part.name == "lrekf":
                self._check_cli(part, cfg, path)

    def _trivial_gates(self, part, cfg, seed):
        """The full-length call must beat a predictor that ignores the inputs."""
        q = self.quality[part.name]
        if part.bandit:
            floor = 1.0 / int(cfg.bandit.get("actions", 5))
            reward = q.get("mean_reward", math.nan)
            if not reward > floor:
                self.problems.append(f"{part.name}: mean_reward {reward:.4g} not above uniform {floor:.4g}")
            return
        y = np.array([ev.y for ev in harness.build_stream(cfg, seed)[0]])
        if "preq_rmse" in q:
            const = float(np.mean(np.abs(y - y.mean(axis=0))))  # mean absolute deviation
            if not q["preq_rmse"] < const:
                self.problems.append(f"{part.name}: preq_rmse {q['preq_rmse']:.4g} >= constant {const:.4g}")
        if "preq_misclass" in q:
            majority = 1.0 - float(y.mean(axis=0).max())
            if not q["preq_misclass"] < majority:
                self.problems.append(
                    f"{part.name}: preq_misclass {q['preq_misclass']:.4g} >= majority class {majority:.4g}"
                )
            uniform = math.log(y.shape[1])
            if not q["preq_nll"] < uniform:
                self.problems.append(f"{part.name}: preq_nll {q['preq_nll']:.4g} >= uniform {uniform:.4g}")

    def _check_cli(self, part, cfg, path):
        """The CSV must be byte-identical to what ``lrkf run`` writes for the
        shipped config; only the seeds and output lines differ."""
        text = (self.root / part.config).read_text()
        out = self.outdir / "cli"
        seed = cfg.seeds[0]
        text = re.sub(r"(?m)^seeds\s*=.*$", f"seeds = {seed}", text)
        text = re.sub(r"(?m)^output\s*=.*$", f"output = {out}", text)
        out.mkdir(parents=True, exist_ok=True)
        ini = out / Path(part.config).name
        ini.write_text(text)
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(ini)])
        if code != 0:
            self.problems.append(f"lrkf run exited with {code}")
        elif path.exists() and (out / f"metrics_seed{seed}.csv").read_bytes() != path.read_bytes():
            self.problems.append(f"{part.name} seed {seed}: CSV differs from lrkf run")

    def _check_scoring(self, part):
        """Adding ``nlpd`` may not change the rmse and nll rows."""
        seed = next(s for (p, s) in self.timed if p == part.name)
        cfg = self.timed[part.name, seed]
        plain = replace(cfg, metrics=("rmse", "nll"), output=str(self.outdir / part.name / "plain"))
        entry_point(part)(cfg)
        entry_point(part)(plain)
        scored = read_metrics(csv_path(cfg, part, seed))
        reference = read_metrics(csv_path(plain, part, seed))
        for metric in ("rmse", "nll"):
            if scored.get(metric) != reference.get(metric):
                self.problems.append(f"{part.name}: nlpd scoring changed the {metric} rows")

    def workload_digest(self):
        lines = "".join(f"{p} {s} {d}\n" for (p, s), d in sorted(self.digests.items(), key=str))
        return hashlib.sha256(lines.encode()).hexdigest()

    def failures_txt(self):
        paths = [Path(c.output, "failures.txt") for c in (*self.full.values(), *self.timed.values())]
        return sum(len(p.read_text().splitlines()) for p in paths if p.exists())


def environment(workers):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "lrkf_workers_at_start": workers,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def load_baseline_digest(root, workload, seed):
    path = root / "perfbench" / "BASELINE.json"
    if not path.exists():
        return None
    digests = json.loads(path.read_text()).get("csv_sha256", {})
    return digests.get(workload, {}).get(str(seed))


def traced_phase(bench, seconds, untraced_eps, outdir):
    """Traced loop, self-check and per-layer metrics."""
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        missed = tracing.unwrapped_sites()
        calls = bench.loop(seconds, tracer)
    finally:
        tracing.uninstall(undo)
    for site in missed:
        bench.problems.append(f"trace: {site} is not wrapped")
    ok = [c for c in calls if not c.failed]
    table = tracing.LayerTable(tracer.spans, {c.root: bench.events[c.part] for c in ok})
    roots = tuple(
        "harness.run_bandit_experiment" if p.bandit else "harness.run_seed" for p in bench.parts
    )
    values = tracing.layer_metrics(table, untraced_eps / bench.events_per_s(calls) - 1.0, roots)
    for part in bench.parts:
        per_part = tracing.LayerTable(
            tracer.spans, {c.root: bench.events[c.part] for c in ok if c.part == part.name}
        )
        for span in EXPECTED_SPANS[bench.name, part.name]:
            if not per_part.calls.get(span):
                bench.problems.append(f"trace: {span} never called on {bench.name}/{part.name}")
        for wl_name, part_name, span, expected in tracing.SEED_STRUCTURE:
            if (wl_name, part_name) != (bench.name, part.name):
                continue
            calls_n, events = per_part.calls.get(span, 0), per_part.events.get(span, 0)
            if not events or calls_n % events:
                bench.problems.append(
                    f"trace: {span} ran {calls_n} times in {events} events, not a whole number per event"
                )
            observed = calls_n / events if events else 0.0
            verdict = "matches" if observed == expected else "differs from"
            print(f"selfcheck {wl_name}/{part_name} {span}.calls_per_event {observed:.2f} "
                  f"{verdict} the seed commit ({expected:.2f})")
    tracer.write(outdir / "spans.csv.gz")
    return calls, values


def main(args, root, workers):
    if not Path(lrkf.__file__).resolve().is_relative_to(root / "src"):
        print(f"perfbench: lrkf was imported from {lrkf.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    outdir = root / "perfbench" / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, root, outdir)
    env = environment(workers)
    print(f"perfbench {bench.name} seed={args.seed} trace={args.trace} "
          f"events_per_call={bench.events} stream_seeds={sorted({s for _, s in bench.plan})}")
    print("env " + json.dumps(env))

    bench.verify()
    seconds = args.seconds / 2 if args.trace else args.seconds
    calls = bench.loop(seconds)
    untraced = list(calls)
    eps = bench.events_per_s(calls)
    result = {"workload": bench.name, "seed": args.seed, "env": env}
    if args.trace:
        traced_calls, values = traced_phase(bench, seconds, eps, outdir)
        calls += traced_calls
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "events_per_s": eps,
            "setup_s": bench.setup_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"events_per_s": "events/s", "setup_s": "s", "peak_rss_mb": "MB"}

    attempted = len(calls)
    # run_experiment writes one failures.txt line per failed seed it returns
    failed = max(sum(c.failed for c in calls), bench.failures_txt())
    digest = bench.workload_digest()
    baseline = load_baseline_digest(root, bench.name, args.seed)
    same = "no baseline for this seed" if baseline is None else (
        "matches the baseline" if baseline == digest else "differs from the baseline")

    print(f"metric fail_frac {failed / attempted:.6g} ratio")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for part_name, q in bench.quality.items():
        for name, value in q.items():
            print(f"quality {part_name} {name} {value:.10g}")
    print(f"raw_events_per_s {bench.raw_events_per_s(untraced):.6g} events/s, median slowdown "
          f"{bench.gauge.slowdown([c.ref_s for c in untraced]):.4f} of reference kernel {bench.gauge.kind}")
    for part in bench.parts:
        durations = [c.seconds for c in calls if c.part == part.name and not c.failed]
        print(f"calls {part.name} n={len(durations)} events={bench.events[part.name]} "
              f"min_s={min(durations):.5f} median_s={statistics.median(durations):.5f}"
              if durations else f"calls {part.name} n=0")
    print(f"csv_sha256 {bench.name} {digest} ({same})")
    for problem in bench.problems:
        print(f"check FAILED: {problem}")
    correct = not bench.problems and failed == 0
    print(f"check {'ok' if correct else 'FAILED'}")

    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
    result.update(
        correct=correct, attempted=attempted, failed=failed, metrics=metrics, quality=bench.quality,
        csv_sha256=digest,
        csv_sha256_files={f"{p} {s}": d for (p, s), d in sorted(bench.digests.items(), key=str)},
        problems=bench.problems,
        calls=[[c.part, c.seed, c.seconds, c.failed, c.ref_s] for c in calls],
    )
    (outdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
