"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload ladder --runs 10 [--first-seed 1]

Runs are sequential, one seed each.  The spread is the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, the figure BENCHMARK.json's bounds are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"wall {perf_counter() - start:.1f} s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(json.dumps({"workload": args.workload, "values": values}))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
