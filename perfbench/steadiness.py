"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/steadiness.py [--out FILE]

Runs ``run.py`` for seeds 1 to 10 on every workload of BENCHMARK.json, one
run after another at its ``run_seconds``, and prints for each metric its
median and its spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. The bounds in BENCHMARK.json are set from these spreads; the
recorded evidence lives in ``steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed: {proc.stdout.splitlines()[-2]}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals),
                          "bound": bounds.get(name), "values": vals}
            print(f"{workload:15s} {name:16s} median {rows[name]['median']:12.4f} "
                  f"spread {rows[name]['spread']:.4f} bound {bounds.get(name)}", flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
