"""The benchmark's own tests: its checks catch corrupted results, it uses only
public trihalo names, and its tracer attributes work to the right layer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import cmath
import importlib
import json
import math
import random
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import trihalo  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def real_op(name, workdir, seed=1):
    wl = WORKLOADS[name]
    state = wl.setup(workdir)
    inputs = wl.draw(random.Random(seed))
    result = wl.run(state, inputs)
    assert wl.check(state, inputs, result) == []
    return wl, state, inputs, result


# -- checks reject corrupted results --------------------------------------


def test_ladder_check_rejects_shifted_levels(tmp_path):
    wl, state, inputs, spectrum = real_op("ladder", tmp_path)

    def shifted(index, factor):
        levels = tuple(
            replace(lv, epsilon3_keV=lv.epsilon3_keV * factor) if lv.index == index else lv
            for lv in spectrum.levels
        )
        return replace(spectrum, levels=levels)

    assert wl.check(state, inputs, shifted(3, 1 + 1e-6))  # off its eigenvalue crossing
    assert wl.check(state, inputs, shifted(1, 1.2))  # breaks the Efimov ratio too


def test_scan_check_rejects_moved_crossing_and_rising_counts(tmp_path):
    wl, state, inputs, (calibrated, scan) = real_op("scan", tmp_path)
    moved = tuple(
        replace(c, epsilon2_star_keV=c.epsilon2_star_keV + 0.2) if c.state_index == 1 else c
        for c in scan.crossings
    )
    assert wl.check(state, inputs, (calibrated, replace(scan, crossings=moved)))
    rising = tuple(reversed(scan.points))
    assert wl.check(state, inputs, (calibrated, replace(scan, points=rising)))


def test_scatter_check_rejects_perturbed_amplitude(tmp_path):
    wl, state, inputs, curve = real_op("scatter", tmp_path)
    perturbed = [replace(pt, amplitude_fm=pt.amplitude_fm * (1 + 1e-6)) for pt in curve.points]
    assert wl.check(state, inputs, types.SimpleNamespace(points=perturbed))
    over_bound = [replace(pt, sigma_fm2=pt.sigma_fm2 + 13.0 / pt.k_inv_fm**2) for pt in curve.points]
    assert wl.check(state, inputs, types.SimpleNamespace(points=over_bound))


def test_scatter_pinned_check_catches_a_wrong_but_unitary_curve(tmp_path):
    wl = WORKLOADS["scatter"]
    state = wl.setup(tmp_path)
    inputs = dict(wl.PINNED)
    curve = wl.run(state, inputs)
    assert wl.check(state, inputs, curve) == []

    def phase_shifted(pt, d_delta=1e-4):
        # f = exp(i delta) sin(delta) / k stays on the unitarity circle
        delta = cmath.phase(pt.amplitude_fm) + d_delta
        f = cmath.exp(1j * delta) * math.sin(delta) / pt.k_inv_fm
        return replace(pt, amplitude_fm=f, sigma_fm2=4.0 * math.pi * abs(f) ** 2)

    wrong = types.SimpleNamespace(points=[phase_shifted(pt) for pt in curve.points])
    unpinned = dict(inputs, beta_nc=inputs["beta_nc"] + 1e-9)
    assert wl.check(state, unpinned, wrong) == []  # unitarity alone cannot see it
    assert wl.check(state, inputs, wrong)


def test_reproduce_check_rejects_corrupted_outputs(tmp_path):
    wl, state, inputs, (code, stdout, out) = real_op("reproduce", tmp_path / "runs")
    assert wl.check(state, inputs, (3, "RESULT numerical_error x\n", out))

    def corrupted(name, edit):
        copy = tmp_path / f"bad-{name}"
        shutil.copytree(out, copy)
        (copy / name).write_text(edit((copy / name).read_text()))
        return wl.check(state, inputs, (code, stdout, copy))

    def scale_json(key, factor):
        def edit(text):
            record = json.loads(text)
            record[key] *= factor
            return json.dumps(record)

        return edit

    def scale_sigma(factor, rows):
        def edit(text):
            lines = text.splitlines()
            for i in rows:
                e, s = lines[i].split(",")
                lines[i] = f"{e},{float(s) * factor!r}"
            return "\n".join(lines) + "\n"

        return edit

    assert corrupted("curve_eps250.csv", scale_sigma(1 + 1e-5, range(1, 81)))
    assert corrupted("curve_eps150.csv", scale_sigma(1.1, [40]))
    assert corrupted("calibration.json", scale_json("calibrated_beta_nc_inv_fm", 1 + 1e-5))
    assert corrupted("fit_eps150.json", scale_json("residual_norm", 2.0))
    assert corrupted("scan.csv", lambda text: text.replace(",2\n", ",1\n", 1))


# -- public names only ----------------------------------------------------


def bench_sources():
    return sorted(BENCH.rglob("*.py"))


def test_benchmark_uses_only_public_trihalo_names():
    private = set()
    for layer in LAYERS + ("errors",):
        module = importlib.import_module(f"trihalo.{layer}")
        private |= {n for n in vars(module) if n.startswith("_") and not n.startswith("__")}
    assert private
    for path in bench_sources():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trihalo"):
                names = node.module.split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [p for a in node.names if a.name.startswith("trihalo") for p in a.name.split(".")]
            elif isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                names = chain if isinstance(node, ast.Name) and node.id == "trihalo" else []
            elif isinstance(node, (ast.Name, ast.Constant)):
                word = node.id if isinstance(node, ast.Name) else node.value
                names = [word] if word in private else []
                assert not names, f"{path.name}: uses trihalo's private name {word!r}"
                continue
            else:
                continue
            bad = [n for n in names if n.startswith("_") and not n.startswith("__")]
            assert not bad, f"{path.name}: private trihalo name(s) {bad}"


# -- tracer ---------------------------------------------------------------


def test_tracer_attributes_library_calls_and_restores_bindings():
    import scipy.linalg

    grid = trihalo.build_grid(24, 0.1)
    cfg = trihalo.default_c20_config()
    tracer = Tracer()
    tracer.install()
    try:
        walls = []
        with tracer.op(0, "probe"):
            # called through the package re-exports, not the defining modules
            trihalo.cross_section_curve(cfg, grid, [1.0, 10.0])
            spectrum = trihalo.find_trimers(cfg, grid, search_window=(1e-3, 2e4))
        walls.append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
    finally:
        tracer.uninstall()
    assert trihalo.spectrum.eigh is scipy.linalg.eigh
    assert trihalo.find_trimers.__module__ == "trihalo.spectrum"
    m = layer_metrics(tracer, walls, walls)
    assert m["scattering.solve.calls"] == 2
    assert m["scattering.calls"] >= 2
    assert m["spectrum.calls"] == 1
    # one eigen-evaluation per objective call, plus the two bracket ends
    assert m["spectrum.eigh.calls"] == m["spectrum.root.fevals"] + 2
    assert m["spectrum.root.calls"] == len(spectrum.levels)
    assert m["model.resolve_config.calls"] > 0
    assert 0.9 <= m["trace.accounted_ratio"] <= 1.0 + 1e-9


# -- the command ----------------------------------------------------------


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_declared_metrics(trace):
    proc = run_bench(ROOT, "--workload", "scatter", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_command_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "ladder", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
