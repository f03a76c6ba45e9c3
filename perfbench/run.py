"""trihalo benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; trihalo is imported from ``src/`` there.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Exits 1 when an output check fails and 2 when there is no trihalo source to
benchmark.  See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 9
# One BLAS/OpenMP thread (nproc is 2 on the reference machine): two threads
# widened the per-op spread of `reproduce` from 1.58-1.64 s to 1.71-1.89 s.
THREADS = "1"
THREAD_ENV = {
    name: THREADS
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
# The reference host's speed drifts by 25-50% over tens of seconds to
# minutes, and longer runs do not average it out: the median `reproduce` op
# of 16 s and of 80 s windows both spread by about 0.25.  A fixed
# calibration kernel, timed after every op, drifts with it: divided by it,
# the 16 s window medians of `reproduce` spread by 0.047 instead of 0.135.
# So time metrics are scaled by CALIBRATION_REF_S / median(kernel time):
# they read as seconds at the reference host's median speed.  Set-up time
# is scaled by the kernel timed in each set-up probe (correlation 0.80 with
# set-up time; per-sample spread 0.10 -> 0.066).  Raw times are printed and
# stored beside them.
CALIBRATION_REF_S = 0.0165


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ladder", "scan", "scatter", "reproduce"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, workdir: Path) -> list[tuple[float, float]]:
    """(set-up time, calibration_s() median) of fresh processes; set-up is
    import trihalo + the workload's setup()."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(workdir)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, calibration = proc.stdout.split()[-2:]
        samples.append((float(setup), float(calibration)))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next(
        (line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "trihalo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha():
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            # do not pick up a repository that merely encloses the checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def calibration_s() -> float:
    """Wall time of a fixed kernel: three real symmetric eigh of size 160 and
    one complex dense solve of size 300, the LAPACK calls of trihalo's hot
    paths.  It is benchmark code, so it is the same on every commit."""
    import numpy
    import scipy.linalg

    rng = numpy.random.default_rng(0)
    sym = rng.standard_normal((160, 160))
    sym += sym.T
    dense = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    t0 = perf_counter()
    for _ in range(3):
        scipy.linalg.eigh(sym)
    numpy.linalg.solve(dense, dense[:, 0])
    return perf_counter() - t0


def closed_loop(wl, state, draw, seconds, records, tracer=None, calibration=None):
    """Issue ops on inputs from `draw()` back to back, at least one, until
    `seconds` have passed.

    Appends (inputs, result, error) to `records` and, if `calibration` is a
    list, a calibration_s() sample after each op; returns the op walls.
    """
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        inputs = draw()
        op_id = len(records)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = wl.run(state, inputs)
            else:
                with tracer.op(op_id, wl.name):
                    result = wl.run(state, inputs)
            error = None
        except Exception:  # a failed op is counted, and the loop goes on
            result, error = None, traceback.format_exc()
        walls.append(perf_counter() - t0)
        records.append((inputs, result, error))
        if calibration is not None:
            calibration.append(calibration_s())
    return walls


def failed_ops(wl, state, records):
    """Indices of ops that raised or failed their check; problems go to stderr."""
    failed = set()
    for op_id, (inputs, result, error) in enumerate(records):
        try:
            problems = [error] if error else wl.check(state, inputs, result)
        except Exception:  # a check that cannot run on this output fails the op
            problems = [traceback.format_exc()]
        if problems:
            failed.add(op_id)
            print(f"op {op_id} {inputs} FAILED:", *problems, sep="\n  ", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trihalo" / "__init__.py").is_file():
        print(f"perfbench: no trihalo source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import trihalo

    if Path(trihalo.__file__).resolve().parent != SRC / "trihalo":
        print(f"perfbench: imported trihalo from {trihalo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS_DIR / f"{tag}-{os.getpid()}"
    print(f"perfbench {tag} seconds={args.seconds:g}")
    env = environment()
    print("env", json.dumps(env))
    try:
        setup_probes = [] if args.trace else measure_setup(args.workload, workdir)
        state = wl.setup(workdir)
        draw = partial(wl.draw, rng)
        records = []
        # one untimed warm-up op, on the workload's pinned inputs if it has them
        closed_loop(wl, state, partial(dict, wl.PINNED) if wl.PINNED else draw, 0, records)
        first_timed = len(records)
        if args.trace:
            untraced = closed_loop(wl, state, draw, args.seconds / 2, records)
            tracer = Tracer()
            tracer.install()
            try:
                walls = closed_loop(wl, state, draw, args.seconds / 2, records, tracer)
            finally:
                tracer.uninstall()
        else:
            calibration = []
            walls = closed_loop(wl, state, draw, args.seconds, records, calibration=calibration)
        failed = failed_ops(wl, state, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(records)
    RUNS_DIR.mkdir(exist_ok=True)
    record = {"env": env, "attempted": attempted, "failed": sorted(failed)}
    if args.trace:
        metrics = layer_metrics(tracer, untraced, walls)
        tracer.write(RUNS_DIR / f"spans-{tag}.jsonl")
    else:
        verified = len(walls) - len(failed - set(range(first_timed)))
        raw = {
            "ops_per_s": verified / sum(walls),
            "op_p50_s": statistics.median(walls),
            "setup_s": statistics.median(t for t, _ in setup_probes),
        }
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        setup_scale = CALIBRATION_REF_S / statistics.median(c for _, c in setup_probes)
        metrics = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_s": raw["op_p50_s"] * scale,
            "setup_s": raw["setup_s"] * setup_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - len(failed) / attempted,
        }
        print(f"ops timed={len(walls)} (op_p50_s is their median); (set-up s, calibration s) probes={setup_probes}")
        print(f"raw {raw}; time scale {scale} from calibration median "
              f"{statistics.median(calibration)} s of {len(calibration)} samples; "
              f"set-up scale {setup_scale}")
        record.update(raw=raw, calibration_s=calibration, setup_probes=setup_probes)
    print(f"fail_ratio {len(failed) / attempted} 1 (failed {len(failed)} of {attempted} attempted, warm-up included)")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    (RUNS_DIR / f"result-{tag}.json").write_text(json.dumps(dict(record, metrics=metrics), indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
