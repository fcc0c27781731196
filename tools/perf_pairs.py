"""Paired benchmark runs of this checkout against another one.

    python3 tools/perf_pairs.py --against DIR --workload W [--pairs 10] [--seconds 36] [--seed 0]

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in DIR (the
parent) and in this checkout, one process at a time, ``--pairs`` times.
DIR runs first in odd pairs and second in even ones, so a drift of the
machine's speed does not favour one side. Each run's metrics are read
from its output: the end-to-end metrics of ``BENCHMARK.json`` from the
last line, and ``raw_events_per_s`` and each part's ``median_s`` from the
``raw_events_per_s`` and ``calls`` lines.

It prints the end-to-end metrics of every pair, then for each metric both
sides' median and quartiles, the ratio of the medians (change / parent),
the pairs the change won (ties count for neither) and whether the change's
median is worse than the parent's by more than the metric's bound in
``BENCHMARK.json``. A gain is marked as held when the change wins at least
nine tenths of the pairs and the medians differ by more than the
interquartile range of the parent's runs. It exits 1 when a run does not
print ``check ok``.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLS = re.compile(r"^calls (\S+) n=\d+ .*median_s=(\S+)$")


def run_once(root, args):
    """Metrics of one perfbench run in ``root``: {name: value}, and whether
    it printed ``check ok``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {}, False
    values = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if line.startswith("raw_events_per_s "):
            values["raw_events_per_s"] = float(line.split()[1])
        elif match := CALLS.match(line):
            values[f"calls {match[1]} median_s"] = float(match[2])
    return values, "check ok" in lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--workload", required=True, choices=("sine", "wide", "sampling"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bound = {m["name"]: m["bound"] for m in end_to_end}
    better["raw_events_per_s"] = "higher"

    sides = {"parent": args.against.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    all_ok = True
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            start = time.monotonic()
            values, ok = run_once(sides[side], args)
            all_ok = all_ok and ok
            runs[side].append(values)
            print(f"pair {pair} {side}: {values.get('events_per_s', float('nan')):.6g} events/s, "
                  f"{'check ok' if ok else 'CHECK FAILED'}, {time.monotonic() - start:.0f} s",
                  file=sys.stderr, flush=True)

    print(f"perf_pairs {args.workload} seed={args.seed} seconds={args.seconds} pairs={args.pairs}")
    print(f"parent {sides['parent']}\nchange {sides['change']}")
    names = [m["name"] for m in end_to_end]
    print("pair " + " ".join(f"{n}(parent/change)" for n in names))
    for pair, (p, c) in enumerate(zip(runs["parent"], runs["change"]), 1):
        print(f"{pair} " + " ".join(f"{p.get(n, float('nan')):.6g}/{c.get(n, float('nan')):.6g}"
                                    for n in names))
    common = [n for n in runs["parent"][0] if all(n in r for r in runs["parent"] + runs["change"])]
    for name in common:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        higher = better.get(name, "lower") == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        gain = (cm - pm) if higher else (pm - cm)
        held = wins >= 0.9 * args.pairs and gain > p3 - p1
        line = (f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}] change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
                f"ratio {cm / pm if pm else float('nan'):.4f} wins {wins}/{args.pairs} "
                f"gain {'held' if held else 'not held'}")
        if name in bound:
            worse = -gain / pm if pm else 0.0
            line += f", {'WORSE than' if worse > bound[name] else 'within'} bound {bound[name]}"
        print(line)
    if not all_ok:
        print("a run did not print check ok")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
