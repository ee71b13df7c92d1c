"""Benchmark for tesstopo: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. One caller runs one item at a time
in whole rounds (see ``inputs.py``), cycling through a fixed set of rounds
in passes, until they have taken ``--seconds``. Every item is checked; the
last line of stdout is the result object, and the line before it a report
with sample counts, the tail percentile used and the input properties of
the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
rounds for half the time, then one pass with spans on, and reports
per-layer metrics from the spans (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from inputs import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_program() -> None:
    """Put this checkout's sources first on the path, or exit with an error
    when they are missing or another copy of tesstopo would be imported."""
    if not os.path.isfile(os.path.join(SRC, "tesstopo", "__init__.py")):
        sys.exit(f"perfbench: no tesstopo sources under {SRC}")
    sys.path.insert(0, SRC)
    import tesstopo
    if os.path.dirname(os.path.dirname(os.path.abspath(tesstopo.__file__))) != SRC:
        sys.exit(f"perfbench: imported tesstopo from {tesstopo.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import harness
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
