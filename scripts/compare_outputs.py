#!/usr/bin/env python3
"""Run every trihalo subcommand from two source trees and list what differs.

Usage:
    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `trihalo` package (e.g. the
`src/` of two checkouts).  Each side makes every run of RUNS, in order.  An
entry gives the run's arguments, the sections of the README example
configuration its cfg.json replaces, the curve a `fit` run reads, the exit
code the run ends with, and what it pins.  Together the runs cover every
subcommand, the presets (through this directory's demo scripts), grids of
several exchange row blocks, both A = 1 block layouts, and the error paths
of exit codes 2 and 3.  Every run is a fresh `python` process (`-m
trihalo.cli` or a script) with one BLAS thread (outputs move in their last
digits with the thread count), started in its own directory with relative
paths, so stdout is comparable.

Each run's output files and its stdout plus exit code (`stdout.txt`) are
compared byte for byte.  Every file that differs or exists on one side only
is printed, one relative path a line; the exit code is 1 if any does, else 0.
Next to each path stands the size of its difference: the largest relative
difference |a - b| / max(|a|, |b|) over the numbers of the two files when
the text outside the numbers matches, else `text differs` (or `only in
old`, `only in new`).  For a JSON object it is given per top-level key
that differs, e.g. `Gamma_keV 1.1e-12; covariance 0.0084`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

# the example configuration of README.md
README_CONFIG = {
    "system": {
        "core_mass_number": 18,
        "nc": {"pole": "bound", "epsilon2_keV": 250.0, "beta_inv_fm": 1.0},
        "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 1.0},
    },
    "grid": {"count": 96, "map_scale_inv_fm": 0.1},
    "scan": {"start_keV": 0.001, "stop_keV": 400.0, "points": 40},
    "scatter": {"start_keV": 0.05, "stop_keV": 245.0, "points": 80, "spacing": "log"},
    "fit": {"model": "fano", "window": "auto"},
}

# A = 1 with the example's channels, at an n-n beta of 2.0 fm^-1 against
# the n-core beta of 1.0 fm^-1 unless a run sets the two equal
A1_SYSTEM = {
    "core_mass_number": 1,
    "nc": {"pole": "bound", "epsilon2_keV": 250.0, "beta_inv_fm": 1.0},
    "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 2.0},
}

TRIHALO = ("-m", "trihalo.cli")
SCRIPTS_DIR = Path(__file__).resolve().parent

# the input a fit run reads: the side's scatter curve or a synthetic CSV
SCATTER_CURVE = "scatter/out/curve.csv"
OFF_CENTRE = "off-centre"
ZERO_BACKGROUND_BW = "zero-background-bw"
FIT_SOURCES = {  # run-name part -> (fit input, what it is)
    "curve": (SCATTER_CURVE, "the side's scatter curve"),
    OFF_CENTRE: (
        OFF_CENTRE,
        "an off-centre Fano curve (q -3, E_r 2.5 keV, Gamma 0.25 keV; 200 points on "
        "[0.5, 3.5] keV)",
    ),
    ZERO_BACKGROUND_BW: (
        ZERO_BACKGROUND_BW,
        "a zero-background Breit-Wigner curve (amplitude 5 fm^2, E_r 1.63 keV, Gamma "
        "0.25 keV; 200 points on [0.5, 3.5] keV), whose Fano fits run past 500 "
        "iterations into the amplitude continuation",
    ),
}


def cli(*args: str, out: str | None = "out", svg: bool = False) -> list[str]:
    """argv after `python` of `trihalo ARGS` on the run's cfg.json, writing
    into out (no --out if None), with --svg if svg."""
    return [*TRIHALO, *args, "--config", "cfg.json",
            *(["--out", out] if out else []), *(["--svg"] if svg else [])]


class Run(NamedTuple):
    name: str  # also the run's directory
    argv: list[str]  # after `python`
    exit_code: int  # the one its stdout.txt must end with
    pins: str  # what the run holds fixed
    edit: dict = {}  # the sections of README_CONFIG that the run's cfg.json replaces
    fit_input: str | None = None  # a fit's input.csv, from FIT_SOURCES


# every run, in order: `scatter` runs before every fit that reads its curve
RUNS = (
    Run("twobody", cli("twobody", out=None), 0, "the two-body channel table"),
    Run("spectrum", cli("spectrum"), 0, "the trimer levels"),
    Run("scan", cli("scan"), 0, "a 40-point eps2 scan and its crossings"),
    Run("scatter", cli("scatter", svg=True), 0, "an 80-point elastic curve and its SVG"),
    *(
        Run(f"fit-{source}-{model}-{window}",
            cli("fit", "input.csv", "--model", model, "--window", window, svg=True), 0,
            f"a {model} fit, window {window}, of {about}",
            fit_input=fit_input)
        for source, (fit_input, about) in FIT_SOURCES.items()
        for model in ("fano", "bw")
        for window in ("auto", "full")
    ),
    Run("reproduce", cli("reproduce", "fig1-fig2", svg=True), 0,
        "the fig1-fig2 preset: calibration, scan, two curves, their Fano fits and SVGs"),
    Run("reproduce-unknown-preset", cli("reproduce", "nope"), 2, "an unknown preset"),
    Run("reproduce-out-file", cli("reproduce", "fig1-fig2", out="cfg.json"), 2,
        "--out naming an existing file"),
    Run("scan-descending", cli("scan"), 2, "start_keV > stop_keV",
        edit={"scan": {"start_keV": 400.0, "stop_keV": 0.001, "points": 40}}),
    Run("scan-large-grid", cli("scan"), 0,
        "8 points on a 160-node grid: two exchange row blocks, through the inertia "
        "counts and one crossing's bisection",
        edit={"grid": {"count": 160, "map_scale_inv_fm": 0.1},
              "scan": {**README_CONFIG["scan"], "points": 8}}),
    Run("scatter-virtual-nc", cli("scatter"), 2,
        "a virtual n-core channel (a = -179 fm): no elastic n+dimer window",
        edit={"system": {
            **README_CONFIG["system"],
            "nc": {"pole": "virtual", "scattering_length_fm": -179.0, "beta_inv_fm": 1.0},
        }}),
    Run("scatter-unitary-nc", cli("scatter"), 2,
        "a bound n-core channel at eps2 = 0: an empty elastic window",
        edit={"system": {
            **README_CONFIG["system"],
            "nc": {"pole": "bound", "epsilon2_keV": 0.0, "beta_inv_fm": 1.0},
        }}),
    Run("scatter-one-point", cli("scatter", svg=True), 0, "a one-point curve and its SVG",
        edit={"scatter": {"start_keV": 10.0, "points": 1}}),
    Run("scatter-large-grid", cli("scatter"), 0,
        "8 log points on a 192-node grid: three exchange row blocks (one at 96 nodes)",
        edit={"grid": {"count": 192, "map_scale_inv_fm": 0.1},
              "scatter": {**README_CONFIG["scatter"], "points": 8}}),
    Run("scatter-identical-bosons", cli("scatter"), 0,
        "8 log points of A = 1 at equal betas: one exchange block serves as Z_nn and "
        "Z_nc, in the grid blocks and the q0 borders alike",
        edit={"system": {**A1_SYSTEM, "nn": {**A1_SYSTEM["nn"], "beta_inv_fm": 1.0}},
              "scatter": {**README_CONFIG["scatter"], "points": 8}}),
    Run("spectrum-unequal-betas", cli("spectrum"), 0,
        "A = 1 at unequal betas: two exchange blocks", edit={"system": A1_SYSTEM}),
    Run("scatter-grid-node", cli("scatter"), 3,
        "q0 = sqrt(2 M_n E_cm) on node 2 of build_grid(32, 0.1)",
        edit={"grid": {"count": 32, "map_scale_inv_fm": 0.1},
              "scatter": {"start_keV": 0.07015987146424983, "stop_keV": 0.07015987146424983,
                          "points": 1, "spacing": "log"}}),
    Run("scatter-exchange-overflow", cli("scatter"), 3,
        "exchange blocks that overflow at the fourth of 5 log points at eps2 = 1e100 keV, "
        "after their chunk of q0 borders failed and each energy built its own",
        edit={"system": {**README_CONFIG["system"],
                         "nc": {"pole": "bound", "epsilon2_keV": 1e100, "beta_inv_fm": 1.0}},
              "grid": {"count": 16, "map_scale_inv_fm": 0.1},
              "scatter": {"start_keV": 0.05, "stop_keV": 0.98e100, "points": 5,
                          "spacing": "log"}}),
    Run("scatter-residue-overflow", cli("scatter"), 3,
        "a dimer residue that leaves the float range at eps2 = 1e300 keV",
        edit={"system": {**README_CONFIG["system"],
                         "nc": {"pole": "bound", "epsilon2_keV": 1e300, "beta_inv_fm": 1.0}},
              "grid": {"count": 16, "map_scale_inv_fm": 0.1},
              "scatter": {**README_CONFIG["scatter"], "points": 3}}),
    Run("scatter-hidden-nn-pole", cli("scatter"), 3,
        "a_nn = -0.1 fm, |kappa_B| > 2 beta: tau_nn has a bound pole on the physical "
        "sheet and is positive below threshold",
        edit={"system": {
            **README_CONFIG["system"],
            "nn": {"pole": "virtual", "scattering_length_fm": -0.1, "beta_inv_fm": 1.0},
        }}),
    Run("scatter-k-underflow", cli("scatter"), 3,
        "start_keV 5e-324: q0 underflows to 0 and the amplitude is NaN",
        edit={"scatter": {**README_CONFIG["scatter"], "start_keV": 5e-324}}),
    # the demo scripts of this directory on the side's package: they read no
    # cfg.json and use their own grids
    Run("unitary-ladder", [str(SCRIPTS_DIR / "unitary_ladder.py")], 0,
        "the A = 1 unitary_boson_config preset"),
    Run("boron19-states", [str(SCRIPTS_DIR / "boron19_states.py")], 0,
        "the A = 17 boron19_config preset"),
)


def synthetic_csv(source: str) -> str:
    """The off-centre Fano or the zero-background Breit-Wigner curve as an
    E_keV,sigma_fm2 table (12 digits)."""
    E = np.linspace(0.5, 3.5, 200)
    if source == OFF_CENTRE:
        eps = (E - 2.5) / (0.25 / 2.0)
        sigma = (-3.0 + eps) ** 2 / (1.0 + eps**2)
    else:
        eps = (E - 1.63) / (0.25 / 2.0)
        sigma = 5.0 / (1.0 + eps**2)
    return "E_keV,sigma_fm2\n" + "".join(f"{e:.12g},{s:.12g}\n" for e, s in zip(E, sigma))


def run_side(src: Path, work: Path, grid_count: int) -> None:
    """Every run of RUNS from the trihalo package in src, into work/<run name>."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    found = subprocess.run(
        [sys.executable, "-c", "import trihalo; print(trihalo.__file__)"],
        env=env, cwd=work, capture_output=True, text=True,
    ).stdout.strip()
    if not found or Path(found).resolve().parent != (src / "trihalo").resolve():
        raise SystemExit(f"compare_outputs: {src} does not provide the trihalo package")
    config = json.loads(json.dumps(README_CONFIG))
    config["grid"]["count"] = grid_count
    for run in RUNS:
        run_dir = work / run.name
        run_dir.mkdir(parents=True)
        run_config = {**config, **run.edit}
        (run_dir / "cfg.json").write_text(json.dumps(run_config, indent=1) + "\n")
        if run.fit_input in (OFF_CENTRE, ZERO_BACKGROUND_BW):
            (run_dir / "input.csv").write_text(synthetic_csv(run.fit_input))
        elif run.fit_input is not None and (work / run.fit_input).is_file():
            (run_dir / "input.csv").write_bytes((work / run.fit_input).read_bytes())
        done = subprocess.run(
            [sys.executable, *run.argv],
            env=env, cwd=run_dir, capture_output=True, text=True,
        )
        (run_dir / "stdout.txt").write_text(f"{done.stdout}exit={done.returncode}\n")


def differing(old: Path, new: Path) -> list[str]:
    """Relative paths of the files that differ between two trees or exist in one."""
    files = {
        p.relative_to(root).as_posix()
        for root in (old, new)
        for p in root.rglob("*")
        if p.is_file()
    }
    return sorted(
        f for f in files
        if not ((old / f).is_file() and (new / f).is_file()
                and (old / f).read_bytes() == (new / f).read_bytes())
    )


# a decimal number as the outputs print it: 12, -0.5, 1.23e-07, .5
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def largest_relative_difference(a: bytes, b: bytes) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers of two texts, or
    None if the text outside the numbers differs."""
    # re.split with one group: text at even positions, numbers at odd ones
    a, b = NUMBER.split(a), NUMBER.split(b)
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    largest = 0.0
    for x, y in zip(map(float, a[1::2]), map(float, b[1::2])):
        if x != y:
            largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return largest


def json_key_differences(a: bytes, b: bytes) -> str | None:
    """For two JSON objects with the same keys, each differing key with the
    largest relative difference over its value, e.g. `Gamma_keV 1.1e-12;
    covariance 0.0084`, so a drift in one key does not read as a drift in
    all; else None."""
    try:
        a, b = json.loads(a), json.loads(b)
    except ValueError:
        return None
    if not (isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys()):
        return None
    sizes = []
    for key in a:
        size = largest_relative_difference(*(json.dumps(v[key]).encode() for v in (a, b)))
        if size is None:
            sizes.append(f"{key} text differs")
        elif size:
            sizes.append(f"{key} {size:.2g}")
    return "; ".join(sizes) or None


def size_of_difference(old: Path, new: Path) -> str:
    """How far two versions of one file differ: per top-level key of a JSON
    object, else the largest relative difference over their numbers if only
    numbers differ, else `text differs`."""
    if not (old.is_file() and new.is_file()):
        return "only in old" if old.is_file() else "only in new"
    a, b = old.read_bytes(), new.read_bytes()
    if old.suffix == ".json" and (per_key := json_key_differences(a, b)):
        return per_key
    largest = largest_relative_difference(a, b)
    return "text differs" if largest is None else f"max relative difference {largest:.2g}"


def compare(
    old_src: Path, new_src: Path, work: Path, grid_count=README_CONFIG["grid"]["count"]
) -> list[str]:
    """Run both sides into work/old and work/new, on grid_count grid nodes (a
    smaller grid runs faster); the files that differ."""
    sides = {"old": old_src, "new": new_src}
    for side in sides:
        (work / side).mkdir(parents=True)
    # the two sides share nothing, so they run side by side
    with ThreadPoolExecutor(max_workers=2) as pool:
        for done in [
            pool.submit(run_side, src, work / side, grid_count) for side, src in sides.items()
        ]:
            done.result()
    return differing(work / "old", work / "new")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        diff = compare(args.old_src, args.new_src, Path(work))
        for path in diff:
            size = size_of_difference(Path(work, "old", path), Path(work, "new", path))
            print(f"{path}  {size}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
