#!/usr/bin/env python3
"""Collect perfbench result records into one BENCH_<pr>.json file.

Usage:
    python3 scripts/collect_bench.py --pr N parent=DIR change=DIR [--out BENCH_N.json]

Each DIR is a `.perfbench_runs/` directory holding `result-<workload>-
seed<N>-trace<T>.json` records written by `perfbench/run.py`, one DIR per
side (e.g. the parent commit and the change, run in separate checkouts).
For every side and workload the file records:

- the median of every end-to-end metric over the untraced runs, with the
  per-seed values, so alternating parent/change pairs can be read off;
- the median of every per-layer metric over the traced runs;
- the seeds, the attempted/failed op counts and the distinct environment
  records (machine, versions, BLAS threads, git sha, source hash).

The git sha of the checkout the script runs in is recorded at the top.
Directory paths are not recorded.  A side whose records come from more
than one source tree (different `src_sha256`) is refused, so stale runs
cannot mix into a side.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RESULT = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def collect_side(runs_dir: Path) -> dict:
    """Medians per workload of one side's result records."""
    runs = {}  # (workload, trace) -> {seed: record}
    for path in sorted(runs_dir.glob("result-*.json")):
        m = RESULT.fullmatch(path.name)
        if m:
            key = (m["workload"], int(m["trace"]))
            runs.setdefault(key, {})[int(m["seed"])] = json.loads(path.read_text())
    if not runs:
        raise SystemExit(f"collect_bench: no result records in {runs_dir}")
    sources = {r["env"].get("src_sha256") for by_seed in runs.values() for r in by_seed.values()}
    if len(sources) > 1:
        raise SystemExit(f"collect_bench: {runs_dir} mixes source trees {sorted(map(str, sources))}")
    envs = []
    workloads = {}
    for (workload, trace), by_seed in sorted(runs.items()):
        seeds = sorted(by_seed)
        entry = workloads.setdefault(workload, {})
        metrics = sorted({name for r in by_seed.values() for name in r["metrics"]})
        if trace == 0:
            entry["seeds"] = seeds
            entry["attempted"] = [by_seed[s]["attempted"] for s in seeds]
            entry["failed"] = [len(by_seed[s]["failed"]) for s in seeds]
            entry["end_to_end"] = {
                name: {
                    "median": statistics.median(by_seed[s]["metrics"][name] for s in seeds),
                    "runs": [by_seed[s]["metrics"][name] for s in seeds],
                }
                for name in metrics
            }
        else:
            entry["traced_seeds"] = seeds
            entry["per_layer"] = {
                name: statistics.median(by_seed[s]["metrics"][name] for s in seeds)
                for name in metrics
            }
        for r in by_seed.values():
            if r["env"] not in envs:
                envs.append(r["env"])
    return {"env": envs, "workloads": workloads}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output name")
    p.add_argument("--out", type=Path, help="output file (default BENCH_<pr>.json)")
    p.add_argument("sides", nargs="+", metavar="LABEL=DIR", help="a side's result directory")
    args = p.parse_args(argv)
    sides = {}
    for item in args.sides:
        label, sep, directory = item.partition("=")
        if not sep or not label or label in sides:
            p.error(f"expected distinct LABEL=DIR, got {item!r}")
        sides[label] = Path(directory)
    return args, sides


def main(argv=None) -> int:
    args, sides = parse_args(argv)
    record = {
        "pr": args.pr,
        "git_sha": git_sha(),
        "sides": {label: collect_side(d) for label, d in sides.items()},
    }
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
