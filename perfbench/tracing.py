"""Span tracing of the lrkf layers from outside the package.

:func:`install` wraps the public functions and methods listed in
:data:`FUNCTIONS` and :data:`METHODS`. A function is replaced under every
name that refers to it in every loaded ``lrkf`` module, so a name imported
with ``from .linalg import thin_svd`` is wrapped in ``diagonal``,
``spherical``, ``belief`` and ``baselines`` alike; :func:`unwrapped_sites`
then proves that no reference to an original is left. Nothing inside
``src/`` is changed.

Each wrapped call appends one span ``(name, start_ns, end_ns, parent,
root)`` to an in-memory list. ``root`` is the span of the entry-point call
(``harness.run_experiment`` or ``harness.run_bandit_experiment``) the call
belongs to, which is the request identifier. Spans are written out only
when the run ends.

:func:`layer_metrics` turns the spans into the per-layer metrics of
:data:`PER_LAYER`. "Per event" divides by the events of the entry-point
calls in which the layer was reached, so a layer that only one method of
a workload uses is normalised by that method's events.
"""

import gzip
import importlib
import pkgutil
import time
from collections import defaultdict
from functools import wraps

import numpy as np

# span name -> (module, function). Every import site of the function is
# wrapped, wherever it was imported by name.
FUNCTIONS = {
    "harness.run_experiment": ("harness", "run_experiment"),
    "harness.run_bandit_experiment": ("harness", "run_bandit_experiment"),
    "harness.run_seed": ("harness", "run_seed"),
    "harness.write_metric_csv": ("harness", "write_metric_csv"),
    "streams.prequential_eval": ("streams", "prequential_eval"),
    "streams.gen.sine": ("streams", "gen_piecewise_sine"),
    "streams.gen.classification": ("streams", "gen_synthetic_classification"),
    "diagonal.predict": ("diagonal", "predict"),
    "diagonal.update": ("diagonal", "update"),
    "spherical.predict": ("spherical", "predict"),
    "spherical.update_svd": ("spherical", "update_svd"),
    "baselines.vdekf_step": ("baselines", "vdekf_step"),
    "linalg.thin_svd": ("linalg", "thin_svd"),
    "models.linearize": ("models", "linearize"),
    "predictive.mc_predict": ("predictive", "mc_predict"),
    "belief.sample_parameters": ("belief", "sample_parameters"),
}

# span name -> (module, class, method) triples. Only classes that define
# the method themselves are listed, so an inherited method is wrapped once.
METHODS = {
    "learners.predict": [
        ("learners", "_BayesianLearner", "predict"),
        ("learners", "DiagonalEkfLearner", "predict"),
        ("learners", "SgdReplayLearner", "predict"),
    ],
    "learners.observe": [
        ("learners", "_BayesianLearner", "observe"),
        ("learners", "DenseFilterLearner", "observe"),
        ("learners", "IteratedSphericalLearner", "observe"),
        ("learners", "DiagonalEkfLearner", "observe"),
        ("learners", "SgdReplayLearner", "observe"),
    ],
    "models.forward": [("models", "MlpModel", "forward"), ("models", "FunctionModel", "forward")],
    "models.logit_jacobian": [
        ("models", "MlpModel", "logit_jacobian"),
        ("models", "FunctionModel", "logit_jacobian"),
    ],
    "predictive.nll": [
        ("predictive", "GaussianPrediction", "nll"),
        ("predictive", "CategoricalPrediction", "nll"),
    ],
    # every validated belief construction runs its __post_init__
    "belief.build": [
        ("belief", "DlrBelief", "__post_init__"),
        ("belief", "SphericalBelief", "__post_init__"),
        ("belief", "DenseBelief", "__post_init__"),
        ("baselines", "DiagonalBelief", "__post_init__"),
    ],
    "bandit.act": [("bandit", "FilterBanditAgent", "act"), ("bandit", "SgdBanditAgent", "act")],
    "bandit.learn": [("bandit", "FilterBanditAgent", "learn"), ("bandit", "SgdBanditAgent", "learn")],
}


def thin_svd_flops(w):
    """Computed flop count of ``linalg.thin_svd`` on a P x K input, P > K:
    the Gram product and the back-projection (2 P K^2 each) plus a
    symmetric eigendecomposition with vectors (9 K^3)."""
    p, k = np.shape(w)
    return 4.0 * p * k * k + 9.0 * k**3


NOTES = {"linalg.thin_svd": thin_svd_flops}

# (name, unit, the end-to-end metric and workloads the layer should move)
PER_LAYER = [
    ("diagonal.predict.calls_per_event", "calls/event", "events_per_s on sine and wide"),
    ("diagonal.predict.us_per_event", "us/event", "events_per_s on sine and wide"),
    ("diagonal.update.us_per_event", "us/event", "events_per_s on wide and sampling, less on sine"),
    ("diagonal.update.self_us_per_event", "us/event", "events_per_s on wide and sampling, less on sine"),
    ("linalg.thin_svd.calls_per_event", "calls/event", "events_per_s on wide and sampling, less on sine"),
    ("linalg.thin_svd.us_per_event", "us/event", "events_per_s on wide and sampling, less on sine"),
    ("linalg.thin_svd.gflop_s_computed", "GFLOP/s", "events_per_s on wide and sampling, less on sine"),
    ("spherical.predict.us_per_event", "us/event", "events_per_s on sine"),
    ("spherical.update_svd.us_per_event", "us/event", "events_per_s on sine"),
    ("baselines.vdekf_step.us_per_event", "us/event", "events_per_s on sine"),
    ("learners.predict.self_us_per_event", "us/event", "events_per_s on sine"),
    ("learners.observe.self_us_per_event", "us/event", "events_per_s on sine"),
    ("learners.observe.us_p50", "us", "events_per_s on sine"),
    ("learners.observe.us_p99", "us", "events_per_s on sine"),
    ("streams.prequential_eval.self_us_per_event", "us/event", "events_per_s on sine"),
    ("streams.gen.ms", "ms", "events_per_s on sine"),
    ("models.linearize.us_per_event", "us/event", "events_per_s on sine"),
    ("models.forward.calls_per_event", "calls/event", "events_per_s on sine and sampling"),
    ("models.logit_jacobian.us_per_event", "us/event", "events_per_s on sine"),
    ("predictive.mc_predict.us_per_event", "us/event", "events_per_s on sampling"),
    ("predictive.nll.us_per_event", "us/event", "events_per_s on sine and sampling"),
    ("belief.sample_parameters.calls_per_event", "calls/event", "events_per_s on sampling"),
    ("belief.sample_parameters.us_per_event", "us/event", "events_per_s on sampling"),
    ("belief.built_per_event", "calls/event", "events_per_s on sampling"),
    ("bandit.act.us_p50", "us", "events_per_s on sampling"),
    ("bandit.act.us_p99", "us", "events_per_s on sampling"),
    ("bandit.learn.us_p50", "us", "events_per_s on sampling"),
    ("bandit.learn.us_p99", "us", "events_per_s on sampling"),
    ("harness.run_seed.ms", "ms", "events_per_s on sine, wide and sampling"),
    ("harness.write_metric_csv.ms", "ms", "events_per_s on sine and sampling"),
    ("trace.overhead_frac", "ratio", "none: traced over untraced time per event, minus 1"),
    ("trace.unattributed_share", "ratio", "none: share of the per-seed root span no named span covers"),
]

# (workload, part, span, calls per event at the seed commit)
SEED_STRUCTURE = [
    ("sine", "lrekf", "diagonal.predict", 2.0),
    ("sine", "lrekf", "linalg.thin_svd", 1.0),
    ("wide", "lrekf", "linalg.thin_svd", 1.0),
    ("sampling", "bandit", "linalg.thin_svd", 2.0),
]


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else idx
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extra = note(args[0]) if note is not None else 0.0
                spans[idx] = (name, start, end, parent, root, extra)

        return traced

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,root\n")
            for i, (name, start, end, parent, root, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{root}\n")


def lrkf_modules():
    """Import and return every module of the lrkf package."""
    import lrkf

    mods = [lrkf]
    for info in pkgutil.iter_modules(lrkf.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"lrkf.{info.name}"))
    return mods


def install(tracer):
    """Wrap every traced function and method; returns the undo list.

    Raises AttributeError when a listed target no longer exists, so a
    renamed layer fails the traced run instead of reading zero.
    """
    mods = lrkf_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    undo = []
    for span, (mod, attr) in FUNCTIONS.items():
        original = getattr(by_name[mod], attr)
        wrapper = tracer.wrap(span, original, NOTES.get(span))
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, key, original))
                    setattr(m, key, wrapper)
    for span, targets in METHODS.items():
        for mod, cls_name, meth in targets:
            cls = getattr(by_name[mod], cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(span, original))
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def unwrapped_sites():
    """Names in lrkf modules or traced classes still bound to an original."""
    mods = lrkf_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    originals = {}
    for span, (mod, attr) in FUNCTIONS.items():
        fn = getattr(by_name[mod], attr)
        originals[id(getattr(fn, "__wrapped__", fn))] = span
    missed = []
    for m in mods:
        for key, value in vars(m).items():
            if id(value) in originals:
                missed.append(f"{m.__name__}.{key}")
    for span, targets in METHODS.items():
        for mod, cls_name, meth in targets:
            if not hasattr(getattr(by_name[mod], cls_name).__dict__[meth], "__wrapped__"):
                missed.append(f"lrkf.{mod}.{cls_name}.{meth}")
    return missed


class LayerTable:
    """Per-span-name aggregates over the spans of the entry-point calls
    in ``events_of_root`` (root span index -> events of that call)."""

    def __init__(self, spans, events_of_root):
        child_ns = defaultdict(int)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.note = defaultdict(float)
        self.durations = defaultdict(list)
        roots = defaultdict(set)
        for i, (name, start, end, _parent, root, extra) in enumerate(spans):
            if root not in events_of_root:
                continue
            dur = end - start
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            self.note[name] += extra
            self.durations[name].append(dur)
            roots[name].add(root)
        self.events = {
            name: sum(events_of_root.get(r, 0) for r in rs) for name, rs in roots.items()
        }

    def per_event(self, name, what="calls"):
        events = self.events.get(name, 0)
        if not events:
            return 0.0
        if what == "calls":
            return self.calls[name] / events
        ns = self.total_ns[name] if what == "us" else self.self_ns[name]
        return ns / 1e3 / events

    def percentile_us(self, name, q):
        durs = self.durations.get(name)
        return float(np.percentile(durs, q)) / 1e3 if durs else 0.0

    def median_ms(self, *names):
        durs = [d for n in names for d in self.durations.get(n, ())]
        return float(np.median(durs)) / 1e6 if durs else 0.0


def layer_metrics(table, overhead_frac, unattributed_roots):
    """Values of every :data:`PER_LAYER` metric; unreached layers read 0.
    ``unattributed_roots`` names the per-seed root span of each part."""
    svd_s = table.total_ns.get("linalg.thin_svd", 0) / 1e9
    roots = set(unattributed_roots)
    root_total = sum(table.total_ns.get(r, 0) for r in roots)
    root_self = sum(table.self_ns.get(r, 0) for r in roots)
    values = {
        "diagonal.predict.calls_per_event": table.per_event("diagonal.predict"),
        "diagonal.predict.us_per_event": table.per_event("diagonal.predict", "us"),
        "diagonal.update.us_per_event": table.per_event("diagonal.update", "us"),
        "diagonal.update.self_us_per_event": table.per_event("diagonal.update", "self"),
        "linalg.thin_svd.calls_per_event": table.per_event("linalg.thin_svd"),
        "linalg.thin_svd.us_per_event": table.per_event("linalg.thin_svd", "us"),
        "linalg.thin_svd.gflop_s_computed": (
            table.note["linalg.thin_svd"] / svd_s / 1e9 if svd_s else 0.0
        ),
        "spherical.predict.us_per_event": table.per_event("spherical.predict", "us"),
        "spherical.update_svd.us_per_event": table.per_event("spherical.update_svd", "us"),
        "baselines.vdekf_step.us_per_event": table.per_event("baselines.vdekf_step", "us"),
        "learners.predict.self_us_per_event": table.per_event("learners.predict", "self"),
        "learners.observe.self_us_per_event": table.per_event("learners.observe", "self"),
        "learners.observe.us_p50": table.percentile_us("learners.observe", 50),
        "learners.observe.us_p99": table.percentile_us("learners.observe", 99),
        "streams.prequential_eval.self_us_per_event": table.per_event(
            "streams.prequential_eval", "self"
        ),
        "streams.gen.ms": table.median_ms("streams.gen.sine", "streams.gen.classification"),
        "models.linearize.us_per_event": table.per_event("models.linearize", "us"),
        "models.forward.calls_per_event": table.per_event("models.forward"),
        "models.logit_jacobian.us_per_event": table.per_event("models.logit_jacobian", "us"),
        "predictive.mc_predict.us_per_event": table.per_event("predictive.mc_predict", "us"),
        "predictive.nll.us_per_event": table.per_event("predictive.nll", "us"),
        "belief.sample_parameters.calls_per_event": table.per_event("belief.sample_parameters"),
        "belief.sample_parameters.us_per_event": table.per_event("belief.sample_parameters", "us"),
        "belief.built_per_event": table.per_event("belief.build"),
        "bandit.act.us_p50": table.percentile_us("bandit.act", 50),
        "bandit.act.us_p99": table.percentile_us("bandit.act", 99),
        "bandit.learn.us_p50": table.percentile_us("bandit.learn", 50),
        "bandit.learn.us_p99": table.percentile_us("bandit.learn", 99),
        "harness.run_seed.ms": table.median_ms("harness.run_seed"),
        "harness.write_metric_csv.ms": table.median_ms("harness.write_metric_csv"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_share": (
            root_self / root_total if root_total else 0.0
        ),
    }
    if list(values) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("layer_metrics is out of step with PER_LAYER")
    return values
