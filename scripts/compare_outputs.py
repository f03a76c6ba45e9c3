#!/usr/bin/env python3
"""Run every trihalo subcommand from two source trees and list what differs.

Usage:
    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `trihalo` package (e.g. the
`src/` of two checkouts).  Each side runs the README example configuration
through `twobody`, `spectrum`, `scan`, `scatter --svg`, `fit --svg` (Fano and
Breit-Wigner, `--window auto` and `full`, on the side's own scatter curve, on
an off-centre Fano curve: q -3, E_r 2.5 keV, Gamma 0.25 keV, and on a
zero-background Breit-Wigner curve: amplitude 5 fm^2, E_r 1.63 keV, Gamma
0.25 keV, each 200 points on [0.5, 3.5] keV; the Fano fits of the last run
past 500 iterations into the amplitude continuation), `reproduce fig1-fig2
--svg`, `scatter --svg` of a one-point curve (start_keV 10, points 1),
`scatter` of 8 log points on a 192-node grid (its exchange blocks are
evaluated in three row blocks; at the 96 nodes of the other CLI runs
they fit in one), `scan` of 8 points on a 160-node grid (two row blocks,
through the inertia counts and one crossing's bisection),
`scatter-identical-bosons`, 8 log points of an A = 1 system with a bound
n-core and a virtual n-n channel at equal beta (one exchange block
serves as Z_nn and Z_nc, in the grid blocks and the q0 borders alike),
`spectrum-unequal-betas`, an A = 1 system whose n-n beta differs from
its n-core beta (two exchange blocks), and five runs
that end in a configuration error: `reproduce` with an unknown preset
and with `--out` naming an existing file, `scan` with start_keV >
stop_keV, and `scatter` with a virtual n-core channel (a = -179 fm) and
with a bound one at eps2 = 0, neither of which has an elastic n+dimer
window.  Five `scatter` runs end in a numerical error,
each at its own energy's check: an on-shell momentum on a node of a
32-node grid, exchange blocks that overflow at the fourth of 5 log points
up to 0.98e100 keV at eps2 = 1e100 keV (their chunk of q0 borders fails,
so each energy builds its own), a dimer residue that leaves the float
range at eps2 = 1e300 keV, `scatter-hidden-nn-pole`, the README
configuration with an nn scattering length of -0.1 fm, whose nn
propagator has a bound pole on the physical sheet and is positive below
threshold, and `scatter-k-underflow`, the README configuration from
start_keV 5e-324, where the on-shell momentum underflows to 0 and the
amplitude is NaN.  It also runs this directory's `unitary_ladder.py`
(the A = 1 `unitary_boson_config` preset) and `boron19_states.py` (the
A = 17 `boron19_config` preset) against each side's package; they read no
configuration file and use their own grids.
Every run is a fresh `python` process (`-m trihalo.cli` or a script) with
one BLAS thread (outputs move in their last digits with the thread count),
started in its own directory with relative paths, so stdout is comparable.

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

# run name -> the sections of README_CONFIG that the run's cfg.json replaces
CONFIG_EDITS = {
    "scan-descending": {"scan": {"start_keV": 400.0, "stop_keV": 0.001, "points": 40}},
    "scatter-virtual-nc": {
        "system": {
            **README_CONFIG["system"],
            "nc": {"pole": "virtual", "scattering_length_fm": -179.0, "beta_inv_fm": 1.0},
        },
    },
    "scatter-unitary-nc": {
        "system": {
            **README_CONFIG["system"],
            "nc": {"pole": "bound", "epsilon2_keV": 0.0, "beta_inv_fm": 1.0},
        },
    },
    "scan-large-grid": {
        "grid": {"count": 160, "map_scale_inv_fm": 0.1},
        "scan": {**README_CONFIG["scan"], "points": 8},
    },
    "scatter-one-point": {"scatter": {"start_keV": 10.0, "points": 1}},
    # identical bosons: Z_nn and Z_nc share one closed form, so one block
    "scatter-identical-bosons": {
        "system": {**A1_SYSTEM, "nn": {**A1_SYSTEM["nn"], "beta_inv_fm": 1.0}},
        "scatter": {**README_CONFIG["scatter"], "points": 8},
    },
    # A = 1 at unequal betas: two blocks
    "spectrum-unequal-betas": {"system": A1_SYSTEM},
    "scatter-large-grid": {
        "grid": {"count": 192, "map_scale_inv_fm": 0.1},
        "scatter": {**README_CONFIG["scatter"], "points": 8},
    },
    # q0 = sqrt(2 M_n E_cm) equals node 2 of build_grid(32, 0.1) at this E_cm
    "scatter-grid-node": {
        "grid": {"count": 32, "map_scale_inv_fm": 0.1},
        "scatter": {
            "start_keV": 0.07015987146424983, "stop_keV": 0.07015987146424983,
            "points": 1, "spacing": "log",
        },
    },
    # the first chunk of q0 borders overflows, so each energy builds its
    # own, and the fourth fails
    "scatter-exchange-overflow": {
        "system": {
            **README_CONFIG["system"],
            "nc": {"pole": "bound", "epsilon2_keV": 1e100, "beta_inv_fm": 1.0},
        },
        "grid": {"count": 16, "map_scale_inv_fm": 0.1},
        "scatter": {"start_keV": 0.05, "stop_keV": 0.98e100, "points": 5, "spacing": "log"},
    },
    "scatter-residue-overflow": {
        "system": {
            **README_CONFIG["system"],
            "nc": {"pole": "bound", "epsilon2_keV": 1e300, "beta_inv_fm": 1.0},
        },
        "grid": {"count": 16, "map_scale_inv_fm": 0.1},
        "scatter": {**README_CONFIG["scatter"], "points": 3},
    },
    # |kappa_B| > 2 beta: tau_nn has a bound pole on the physical sheet and
    # is positive below threshold
    "scatter-hidden-nn-pole": {
        "system": {
            **README_CONFIG["system"],
            "nn": {"pole": "virtual", "scattering_length_fm": -0.1, "beta_inv_fm": 1.0},
        },
    },
    # q0 = sqrt(2 M_n E_cm) underflows to 0 at the first energy: a NaN amplitude
    "scatter-k-underflow": {"scatter": {**README_CONFIG["scatter"], "start_keV": 5e-324}},
}

# the input each fit run reads: the side's scatter curve or a synthetic CSV
SCATTER_CURVE = "scatter/out/curve.csv"
OFF_CENTRE = "off-centre"
ZERO_BACKGROUND_BW = "zero-background-bw"

TRIHALO = ("-m", "trihalo.cli")
SCRIPTS_DIR = Path(__file__).resolve().parent

# (run name, argv after `python`, fit input or None); `scatter` runs
# before every fit that reads its curve
RUNS = [
    ("twobody", [*TRIHALO, "twobody", "--config", "cfg.json"], None),
    ("spectrum", [*TRIHALO, "spectrum", "--config", "cfg.json", "--out", "out"], None),
    ("scan", [*TRIHALO, "scan", "--config", "cfg.json", "--out", "out"], None),
    ("scatter", [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out", "--svg"], None),
    *(
        (
            f"fit-{source}-{model}-{window}",
            [*TRIHALO, "fit", "input.csv", "--model", model, "--window", window,
             "--config", "cfg.json", "--out", "out", "--svg"],
            SCATTER_CURVE if source == "curve" else source,
        )
        for source in ("curve", OFF_CENTRE, ZERO_BACKGROUND_BW)
        for model in ("fano", "bw")
        for window in ("auto", "full")
    ),
    ("reproduce",
     [*TRIHALO, "reproduce", "fig1-fig2", "--config", "cfg.json", "--out", "out", "--svg"],
     None),
    ("reproduce-unknown-preset",
     [*TRIHALO, "reproduce", "nope", "--config", "cfg.json", "--out", "out"], None),
    ("reproduce-out-file",
     [*TRIHALO, "reproduce", "fig1-fig2", "--config", "cfg.json", "--out", "cfg.json"], None),
    *(
        (name, [*TRIHALO, "scan", "--config", "cfg.json", "--out", "out"], None)
        for name in ("scan-descending", "scan-large-grid")
    ),
    ("scatter-virtual-nc",
     [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out"], None),
    ("scatter-unitary-nc",
     [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out"], None),
    ("scatter-one-point",
     [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out", "--svg"], None),
    ("scatter-large-grid", [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out"], None),
    ("scatter-identical-bosons",
     [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out"], None),
    ("spectrum-unequal-betas",
     [*TRIHALO, "spectrum", "--config", "cfg.json", "--out", "out"], None),
    *(
        (name, [*TRIHALO, "scatter", "--config", "cfg.json", "--out", "out"], None)
        for name in (
            "scatter-grid-node", "scatter-exchange-overflow", "scatter-residue-overflow",
            "scatter-hidden-nn-pole", "scatter-k-underflow",
        )
    ),
    # the demo scripts of this directory on the side's package: the presets
    ("unitary-ladder", [str(SCRIPTS_DIR / "unitary_ladder.py")], None),
    ("boron19-states", [str(SCRIPTS_DIR / "boron19_states.py")], None),
]


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
    for name, argv, fit_input in RUNS:
        run_dir = work / name
        run_dir.mkdir(parents=True)
        run_config = {**config, **CONFIG_EDITS.get(name, {})}
        (run_dir / "cfg.json").write_text(json.dumps(run_config, indent=1) + "\n")
        if fit_input in (OFF_CENTRE, ZERO_BACKGROUND_BW):
            (run_dir / "input.csv").write_text(synthetic_csv(fit_input))
        elif fit_input is not None and (work / fit_input).is_file():
            (run_dir / "input.csv").write_bytes((work / fit_input).read_bytes())
        done = subprocess.run(
            [sys.executable, *argv],
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
