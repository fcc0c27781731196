"""Set-up time probe: imports lrkf, parses and validates one config.

    python3 perfbench/setup_probe.py <config.ini> [metric ...]

Prints ``time.monotonic()`` at the moment the first entry-point call
could start. CLOCK_MONOTONIC is shared by all processes, so the parent
subtracts the time it took just before starting this process.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrkf import harness  # noqa: E402


def main(argv):
    cfg = harness.parse_config(argv[0])
    if len(argv) > 1:
        cfg = replace(cfg, metrics=tuple(argv[1:]))
    problems = harness.validate_config(cfg)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(time.monotonic())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
