"""Peak resident memory of one coexsim operation in a fresh process.

    python3 bench/rss_probe.py SCENARIO.yaml SEED [DURATION_US]

Runs what one benchmark operation runs (load, engine, run, render) and
prints the process's peak RSS in MB as the last word of stdout.
"""

import resource
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coexsim.cli import render_run_json  # noqa: E402
from coexsim.engine import Engine  # noqa: E402
from coexsim.scenario import load_scenario  # noqa: E402


def main(argv: list[str]) -> int:
    cfg = load_scenario(argv[0])
    if len(argv) > 2:
        cfg = replace(cfg, duration_us=int(argv[2]))
    render_run_json(Engine(cfg, seed=int(argv[1])).run())
    # ru_maxrss is in KiB on Linux
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
