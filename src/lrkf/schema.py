"""The config schema: every key's type, default, range and readers, once.

Each :data:`KEYS` record names a key's section and type, its default, its
range (``"[lo, hi]"``, with ``(`` or ``)`` for an open end) or choices,
and its readers: the method tags (``[method]``), stream kinds (``[stream]``)
or model families (``[model]``, ``[tune]``) that use it; no readers means
all of them. A key whose default differs by reader, as stream keys do by
kind, has one record per reader set. Config sections hold only the keys a
file sets; :func:`defaults` fills in the rest where a value is used.
"""

import configparser
from collections import namedtuple

from .adaptive import DEFAULT_SPACE
from .exceptions import ConfigError
from .inflation import VARIANTS
from .streams import METRICS

REQUIRED = object()  # default of a key that must be set
KINDS = SINE, DRIFT, CLASSES, PERMUTED, CSV = (
    "piecewise_sine", "drifting", "synthetic_classification", "permuted_classification", "csv"
)
FAMILIES = ("gaussian", "categorical")
POSITIVE, NON_NEGATIVE, COUNT = "(0, inf)", "[0, inf)", "[1, inf)"
ITERATED, GRADIENT = ("iekf", "ilrekf"), ("sgd_rb", "ogd")

# type: int, float, bool, str, ints or words (lists), pair ("lo hi");
# nonempty: a list that needs at least one value
Key = namedtuple("Key", "section name type default allowed readers nonempty",
                 defaults=(None, None, None, False))

KEYS = (
    Key("experiment", "seeds", "ints", (0,), NON_NEGATIVE, nonempty=True),
    Key("experiment", "passes", "int", 1, COUNT),
    Key("experiment", "metrics", "words", ("rmse",), METRICS, nonempty=True),
    Key("experiment", "output", "str", "out"),
    Key("experiment", "nlpd_samples", "int", 100, COUNT),
    Key("model", "hidden", "ints", (), COUNT),
    Key("model", "activation", "str", "tanh", ("relu", "tanh")),
    Key("model", "family", "str", "gaussian", FAMILIES),
    Key("model", "obs_variance", "float", 1.0, POSITIVE, ("gaussian",)),
    Key("method", "name", "str"),  # checked against learners.REGISTRY
    Key("method", "rank", "int", 10, NON_NEGATIVE),
    Key("method", "gamma", "float", 1.0, "[0, 1]"),
    Key("method", "process_noise", "float", 0.0, NON_NEGATIVE),
    Key("method", "initial_precision", "float", 1.0, POSITIVE),
    Key("method", "steady_state", "bool", False),
    Key("method", "inflation", "str", "none", VARIANTS, ("lrekf", "lrekf_spherical")),
    Key("method", "inflation_alpha", "float", 0.0, NON_NEGATIVE, ("lrekf", "lrekf_spherical")),
    Key("method", "update", "str", "svd", ("svd", "orth"), ("lrekf_spherical",)),
    Key("method", "iterations", "int", 3, COUNT, ITERATED),
    Key("method", "linesearch_grid", "int", 10, COUNT, ITERATED),
    Key("method", "buffer_size", "int", 10, COUNT, ("sgd_rb",)),
    Key("method", "optimizer", "str", "sgd", ("sgd", "adam"), GRADIENT),
    Key("method", "lr", "float", 0.01, POSITIVE, GRADIENT),
    Key("method", "inner_iters", "int", 1, COUNT, GRADIENT),
    Key("stream", "kind", "str", REQUIRED, KINDS),
    Key("stream", "num_tasks", "int", 5, COUNT, (SINE,)),
    Key("stream", "steps_per_task", "int", 250, COUNT, (SINE,)),
    Key("stream", "steps_per_task", "int", 300, COUNT, (PERMUTED,)),
    Key("stream", "noise_sd", "float", 0.2, NON_NEGATIVE, (SINE,)),
    Key("stream", "noise_sd", "float", 1.0, NON_NEGATIVE, (DRIFT,)),
    Key("stream", "steps", "int", 1000, COUNT, (DRIFT, CLASSES, PERMUTED)),
    Key("stream", "amplitude_growth", "float", 1.0, "(-inf, inf)", (DRIFT,)),
    Key("stream", "in_dim", "int", 4, COUNT, (DRIFT,)),
    Key("stream", "in_dim", "int", 8, COUNT, (CLASSES, PERMUTED)),
    Key("stream", "num_classes", "int", 3, "[2, inf)", (CLASSES, PERMUTED)),
    Key("stream", "margin_noise", "float", 0.0, NON_NEGATIVE, (CLASSES, PERMUTED)),
    Key("stream", "path", "str", REQUIRED, None, (CSV,)),
    Key("stream", "target", "str", REQUIRED, None, (CSV,)),
    Key("stream", "standardize", "bool", True, None, (CSV,)),
    Key("stream", "split_seed", "int", None, NON_NEGATIVE, (CSV,)),  # None: the run's seed
    Key("stream", "test_fraction", "float", 0.1, "[0, 1)", (CSV,)),
    Key("tune", "budget", "int", 20, COUNT),
    Key("tune", "steps", "int", 500, COUNT),
    Key("tune", "seed", "int", 0, NON_NEGATIVE),
    Key("tune", "objective", "str", "prequential_nll", ("prequential_nll", "validation_nll")),
    Key("bandit", "actions", "int", 5, COUNT),
    Key("bandit", "steps", "int", 2000, COUNT),
    Key("bandit", "policy", "str", "thompson", ("thompson", "epsilon_greedy")),
    Key("bandit", "epsilon", "float", 0.1, "[0, 1]"),
)
# ``space_<param> = lo hi`` takes the param's own range and readers
KEYS += tuple(Key("tune", f"space_{name}", "pair", (rng.low, rng.high), key.allowed, key.readers)
              for name, rng in DEFAULT_SPACE.items() for key in KEYS if key.name == name)

# section -> key name -> its records, in table order
SECTIONS = {}
for _key in KEYS:
    SECTIONS.setdefault(_key.section, {}).setdefault(_key.name, []).append(_key)


def _pair(text):
    lo, hi = (float(tok) for tok in text.split())  # exactly two numbers
    return lo, hi


_PARSERS = {
    "int": int, "float": float, "str": str, "pair": _pair,
    "bool": lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()],
    "ints": lambda text: [int(tok) for tok in text.split()],
    "words": lambda text: tuple(text.split()),
}


def parse(parser):
    """Typed values of the keys each section of ``parser`` sets; raises
    ConfigError naming every unknown section or key and unparseable value."""
    problems = [f"{name}: unknown section; valid: {', '.join(SECTIONS)}"
                for name in parser.sections() if name not in SECTIONS]
    values = {section: {} for section in SECTIONS}
    for section, known in SECTIONS.items():
        for name, text in parser[section].items() if parser.has_section(section) else ():
            if name not in known:
                problems.append(f"{section}.{name}: unknown key; valid: {', '.join(sorted(known))}")
                continue
            kind = known[name][0].type
            try:
                values[section][name] = _PARSERS[kind](text)
            except (KeyError, ValueError):
                hint = " as two numbers 'lo hi'" if kind == "pair" else ""
                problems.append(f"{section}.{name}: cannot parse {text!r}{hint}")
    if problems:
        raise ConfigError(problems)
    return values


def _record(records, reader):
    """The record ``reader`` reads, if any; None reads only reader-free keys."""
    return next((k for k in records if k.readers is None or reader in k.readers), None)


def defaults(section, reader=None):
    """Default of each key of ``section`` that ``reader`` reads (of every
    key when ``reader`` is None); required keys have none."""
    out = {}
    for name, records in SECTIONS[section].items():
        key = records[0] if reader is None else _record(records, reader)
        if key is not None and key.default is not REQUIRED:
            out[name] = key.default
    return out


def _allows(allowed, item):
    """Whether ``item`` lies in the "[lo, hi]" range or the choices."""
    if isinstance(allowed, str):
        lo, hi = (float(tok) for tok in allowed[1:-1].split(","))
        return (lo <= item if allowed[0] == "[" else lo < item) and (
            item <= hi if allowed[-1] == "]" else item < hi)
    return allowed is None or item in allowed


def check(section, values, reader):
    """Problems of one section's set ``values``: keys ``reader`` does not
    read, values outside their range or choices, and required keys left
    unset. ``reader`` is the section's method tag, stream kind or model
    family, or None when that is unknown; then only keys without readers
    are checked."""
    problems = []
    for name, records in SECTIONS[section].items():
        key, where = _record(records, reader), f"{section}.{name}"
        if name not in values:
            if key is not None and key.default is REQUIRED:
                problems.append(f"{where}: required" + (f" for {reader}" if key.readers else ""))
        elif key is None:
            if reader is not None:
                readers = dict.fromkeys(r for k in records for r in k.readers)
                problems.append(f"{where}: not read by {reader}; read by {', '.join(readers)}")
        elif key.nonempty and not values[name]:
            problems.append(f"{where}: needs at least one value")
        else:
            items = values[name] if key.type in ("ints", "words", "pair") else [values[name]]
            bad = [item for item in items if not _allows(key.allowed, item)]
            if bad and isinstance(key.allowed, str):
                problems.append(f"{where}: {bad[0]!r} is outside {key.allowed}")
            elif bad:
                noun = name[:-1] if key.type == "words" else name
                problems.append(f"{where}: unknown {noun} {bad[0]!r}; "
                                f"valid: {', '.join(key.allowed)}")
    return problems
