"""Benchmark of the lrkf filter stack.

    python3 perfbench/run.py --workload sine --seed 0 --seconds 24 --trace 0

Workloads (see ``workloads.py`` for why each was chosen and how calls are
timed): ``sine``, ``wide`` and ``sampling``; ``all`` runs the three in
turn, each in its own process. Every workload is a closed loop with one
client in one process: the next entry-point call (``harness.run_experiment`` as behind
``lrkf run``, ``harness.run_bandit_experiment`` as behind ``lrkf bandit``)
starts when the previous one has returned, until ``--seconds`` have passed
and every stream seed has run at least once. BLAS is pinned to one thread
and ``LRKF_WORKERS`` is unset before numpy is imported.

``--seed`` picks the stream seeds; seed 0 reproduces the seeds of the
shipped configs. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` an untraced then a traced half and the per-layer metrics.
Every run checks the program's outputs. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names are those of ``BENCHMARK.json``. Other
outputs go to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 before printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sine", "wide", "sampling")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run_all(args):
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lrkf" / "__init__.py").is_file():
        print(f"perfbench: no lrkf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # must precede the first numpy import in this process and its children
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    workers = os.environ.pop("LRKF_WORKERS", None)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.main(args, ROOT, workers)


if __name__ == "__main__":
    sys.exit(main())
