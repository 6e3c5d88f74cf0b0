"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload grid-bench ...] [--out FILE]
    python3 perfbench/spread.py --trace [--workload ...] [--out FILE]

For every workload it makes one untraced run per seed (seeds 1..runs),
one after another, and prints each end-to-end metric's median, quartiles
and quartile spread, (Q3 - Q1) / median, beside the bound BENCHMARK.json
gives it. With --trace it instead makes one traced run per workload at the
reference seed and prints the per-module metrics. With --out it also writes
the figures, with the environment of the last run, as JSON.
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
REFERENCE_SEED = 7


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run.py run; returns its JSON line and its saved details."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    details = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(details, encoding="utf-8") as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    seeds = [REFERENCE_SEED] if args.trace else list(range(1, args.runs + 1))
    summary = {"run_seconds": seconds, "seeds": seeds, "trace": int(args.trace),
               "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds:
            result, details = run_once(workload, seed, seconds, args.trace)
            summary["environment"] = details["environment"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(f"{workload}: {len(seeds)} runs, {failed} failed operations")
        rows = {}
        if args.trace:
            for metric in spec["per_layer"]:
                value = values.get(metric["name"], [None])[0]
                rows[metric["name"]] = {"unit": metric["unit"], "value": value}
                print(f"  {metric['name']:24s} {value!s:>24s} {metric['unit']}")
        else:
            for metric in spec["end_to_end"]:
                vals = values[metric["name"]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                rows[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1,
                                        "q3": q3, "spread": spread, "bound": metric["bound"],
                                        "values": vals}
                print(f"  {metric['name']:12s} median {med:12.6g} {metric['unit']:4s} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                      f"(bound {metric['bound']}, {spread / metric['bound']:.2f} of it)")
        summary["workloads"][workload] = {"failed": failed, "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
