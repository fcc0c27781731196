"""Measure the benchmark baseline and write it to ``perfbench/BASELINE.json``.

    python3 perfbench/baseline.py [--seeds 0 1 ... 9] [--workloads sine ...] [--out PATH]

Runs ``run.py`` once per workload and seed with ``--trace 0`` and once per
workload with ``--trace 1`` at the first seed, each for the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric and
workload it records the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``. It also records the per-layer table of the traced
run, the quality metrics and metric-CSV digests per seed, the failure
fraction, the machine, and the map from each layer metric to the
end-to-end metric and workloads it should move.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    out = ROOT / "perfbench" / "out" / workload / f"seed{seed}-trace{trace}" / "result.json"
    result = json.loads(out.read_text())
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "BASELINE.json"))
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    baseline = {"run_seconds": seconds, "seeds": args.seeds, "end_to_end": {}, "fail_frac": {},
                "quality": {}, "csv_sha256": {}, "per_layer": {}, "correct": {}}
    for wl in args.workloads:
        results = [run(wl, seed, seconds, 0) for seed in args.seeds]
        baseline["env"] = results[0]["env"]
        baseline["end_to_end"][wl] = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
            for m in bench["end_to_end"]
        }
        baseline["fail_frac"][wl] = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        baseline["correct"][wl] = all(r["correct"] for r in results)
        baseline["quality"][wl] = {str(r["seed"]): r["quality"] for r in results}
        baseline["csv_sha256"][wl] = {str(r["seed"]): r["csv_sha256"] for r in results}
        traced = run(wl, args.seeds[0], seconds, 1)
        baseline["correct"][wl] = baseline["correct"][wl] and traced["correct"]
        baseline["per_layer"][wl] = {k: v["value"] for k, v in traced["metrics"].items()}
    baseline["layer_map"] = {name: {"unit": unit, "moves": moves} for name, unit, moves in tracing.PER_LAYER}
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(baseline["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
