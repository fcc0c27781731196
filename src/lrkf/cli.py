"""Command line entry points.

    lrkf run <config>        run the prequential experiment in the config
    lrkf tune <config>       random-search hyperparameters, print the best
    lrkf bandit <config>     run the contextual bandit comparison
    lrkf validate <config>   report every config problem, exit 1 if any
                             (as lrkf bandit does if the config sets [bandit] keys)
    lrkf list-methods        show the method registry

Exit code 0 only when everything completed.
"""

import argparse
import os
import sys

from .exceptions import ConfigError, TuningError
from .harness import (
    bandit_problems,
    parse_config,
    run_bandit_experiment,
    run_experiment,
    tune_experiment,
    validate_config,
    write_trials_csv,
)
from .learners import REGISTRY


def _cmd_run(args):
    cfg = parse_config(args.config)
    status = run_experiment(cfg)
    for seed in status["completed"]:
        print(f"seed {seed}: ok")
    return _report(status["failed"], os.path.join(cfg.output, "metrics.csv"))


def _report(failed, path):
    """Print each failed seed and the file written; exit code 1 if any failed."""
    for seed, err in sorted(failed.items()):
        print(f"seed {seed}: FAILED ({err})", file=sys.stderr)
    print(f"wrote {path}")
    return 0 if not failed else 1


def _cmd_tune(args):
    cfg = parse_config(args.config)
    best, trials = tune_experiment(cfg)
    os.makedirs(cfg.output, exist_ok=True)
    out = os.path.join(cfg.output, "trials.csv")
    write_trials_csv(out, trials)
    print(f"wrote {out}")
    print("best:", " ".join(f"{k}={v:.6g}" for k, v in sorted(best.items())))
    return 0


def _cmd_bandit(args):
    cfg = parse_config(args.config)
    status = run_bandit_experiment(cfg)
    for seed, total in sorted(status["totals"].items()):
        print(f"seed {seed}: total reward {total:g}")
    return _report(status["failed"], os.path.join(cfg.output, "bandit_metrics.csv"))


def _cmd_validate(args):
    cfg = parse_config(args.config)
    problems = (bandit_problems if cfg.bandit else validate_config)(cfg)
    if problems:
        for p in problems:
            print(p)
        return 1
    print("ok")
    return 0


def _cmd_list_methods(_args):
    for tag in sorted(REGISTRY):
        print(tag)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lrkf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("run", _cmd_run, True),
        ("tune", _cmd_tune, True),
        ("bandit", _cmd_bandit, True),
        ("validate", _cmd_validate, True),
        ("list-methods", _cmd_list_methods, False),
    ):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1
    except TuningError as exc:
        print(f"tune error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
