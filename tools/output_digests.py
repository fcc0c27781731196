"""Print the sha256 of every metric CSV the shipped configs write.

    python3 tools/output_digests.py

Runs ``demos/configs/sine.ini`` as shipped (``lrekf``), with
``name = lrekf_spherical``, ``vdekf`` and ``fdekf``, and under ``lrekf``
with ``metrics = rmse nll nlpd``; ``demos/configs/bandit.ini``; and the
benchmark's categorical ``perfbench/configs/wide.ini`` (read, not
changed). Each runs at its shipped length and into its own temporary
directory, and the script prints one ``sha256 path`` line per CSV written
(``path`` relative to that run's output directory, prefixed by the run's
name). BLAS is pinned to one thread before numpy loads, because some
products round differently with more threads.

The lrkf it imports is the ``src`` next to this script, so a copy of the
script in a checkout of another commit digests that commit. Two commits
that claim byte-identical outputs print identical lines.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LRKF_WORKERS", None)  # seeds in one process, as the benchmark runs them

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lrkf import harness  # noqa: E402

SINE_METHODS = ("lrekf", "lrekf_spherical", "vdekf", "fdekf")


def runs():
    """(name, entry point, config) of every digested run."""
    sine = harness.parse_config(str(ROOT / "demos/configs/sine.ini"))
    for method in SINE_METHODS:
        yield f"sine-{method}", harness.run_experiment, replace(sine, method=method)
    yield "sine-lrekf-nlpd", harness.run_experiment, replace(sine, metrics=("rmse", "nll", "nlpd"))
    bandit = harness.parse_config(str(ROOT / "demos/configs/bandit.ini"))
    yield "bandit", harness.run_bandit_experiment, bandit
    wide = harness.parse_config(str(ROOT / "perfbench/configs/wide.ini"))
    yield "wide", harness.run_experiment, wide


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, run, cfg in runs():
            out = Path(tmp) / name
            run(replace(cfg, output=str(out)))
            for path in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest} {name}/{path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
