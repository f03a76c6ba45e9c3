"""Each run loads only the trihalo and scipy modules it uses.

The package's fanofit, scattering and spectrum names resolve at each access
through a module __getattr__, and cli and pipeline import those layers in
the commands that call them.  So importing trihalo and trihalo.cli loads
none of the three layers and no scipy module; each subcommand adds the
layers it calls, and scipy.linalg and scipy.optimize come only with a
spectrum call and its root search.

Each subcommand runs in its own fresh interpreter: this test session has
long since imported every module, so an import missing from a command
would go unnoticed in-process.  The last tests pin the lazy exports.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trihalo
from trihalo.fanofit import FanoParameters, fano_profile
from trihalo.io import write_curve_csv

SRC = Path(trihalo.__file__).resolve().parent.parent

PROBE = r"""
import json, sys
import trihalo, trihalo.cli

code = trihalo.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps({
    "code": code,
    "trihalo": sorted(m for m in sys.modules if m.split(".")[0] == "trihalo"),
    "scipy": [m for m in ("scipy", "scipy.linalg", "scipy.optimize") if m in sys.modules],
}))
"""

# what `import trihalo, trihalo.cli` loads: the layers every command uses
BASE = ("cli", "errors", "io", "model", "pipeline", "quadrature")
SPECTRUM, SCATTERING, FANOFIT = ("_engine", "spectrum"), ("_engine", "scattering"), ("fanofit",)
SCIPY = ["scipy", "scipy.linalg", "scipy.optimize"]

# (subcommand, extra trihalo modules it loads, scipy modules it loads)
RUNS = (
    ("import", (), []),
    ("twobody", (), []),
    ("spectrum", SPECTRUM, SCIPY),
    ("scan", SPECTRUM, SCIPY),
    ("scatter", SCATTERING, []),
    ("fit", FANOFIT, []),
    ("reproduce", SPECTRUM + SCATTERING + FANOFIT, SCIPY),
)


@pytest.mark.parametrize("command, layers, scipy", RUNS, ids=[r[0] for r in RUNS])
def test_each_subcommand_loads_only_the_modules_it_uses(tmp_path, command, layers, scipy):
    system = {
        "core_mass_number": 18,
        "nc": {"pole": "bound", "epsilon2_keV": 250.0, "beta_inv_fm": 1.0},
        "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 1.0},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": system,
        "grid": {"count": 16, "map_scale_inv_fm": 0.1},
        "spectrum": {"window_keV": [1e-3, 1e5], "max_states": 1},
        "scan": {"start_keV": 1.0, "stop_keV": 400.0, "points": 4},
        "scatter": {"start_keV": 1.0, "stop_keV": 200.0, "points": 9},
        "output_dir": str(tmp_path / "out"),
    }))
    E = np.linspace(0.5, 3.5, 40)  # written here: writing it in the probe would load fanofit
    write_curve_csv(tmp_path / "data.csv", E, fano_profile(E, FanoParameters(2.0, 4.0, 1.63, 0.25)))
    argv = {
        "import": [],
        "fit": ["fit", str(tmp_path / "data.csv"), "--config", str(cfg)],
        "reproduce": ["reproduce", "fig1-fig2", "--config", str(cfg)],
    }.get(command, [command, "--config", str(cfg)])

    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["code"] == (None if command == "import" else 0), run.stdout
    assert report["trihalo"] == sorted({"trihalo", *(f"trihalo.{m}" for m in BASE + layers)})
    assert report["scipy"] == scipy


# every name the package exported when it imported its layer modules eagerly
EXPORTS = (
    "BreitWignerParameters", "ChannelLabel", "ConfigurationError", "CrossSectionCurve",
    "DomainError", "FanoParameters", "FitResult", "FlatDataError", "HBAR_C", "KernelMatrix",
    "MomentumGrid", "NUCLEON_MASS", "NumericalError", "PairChannel", "PoleKind",
    "PoleProximityError", "ResonantPairs", "ScaleFactor", "ScatteringPoint", "SystemConfig",
    "ThreeBodySpectrum", "ThresholdScan", "boron19_config", "breit_wigner_profile",
    "build_grid", "build_kernel", "calibrate_range_parameter", "cross_section_curve",
    "default_c20_config", "efimov_scale_factor", "fano_profile", "find_trimers", "fit",
    "parse_system_config", "q_consistency", "reduced_mass", "resolve_config",
    "resonance_window", "scattering_length_from_pole", "threshold_scan",
    "two_body_propagator", "unitary_boson_config", "__version__",
)


def test_every_export_resolves_as_an_attribute_and_by_from_import():
    for name in EXPORTS:
        namespace = {}
        exec(f"from trihalo import {name}", namespace)
        assert namespace[name] is getattr(trihalo, name), name


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(trihalo))


@pytest.mark.parametrize(
    "module, name",
    [("fanofit", "fit"), ("scattering", "cross_section_curve"), ("spectrum", "find_trimers")],
)
def test_a_layer_export_reads_the_module_binding_at_every_access(monkeypatch, module, name):
    layer = importlib.import_module(f"trihalo.{module}")
    original, sentinel = getattr(layer, name), object()
    with monkeypatch.context() as patch:
        patch.setattr(layer, name, sentinel)
        assert getattr(trihalo, name) is sentinel
    assert getattr(trihalo, name) is original
    assert name not in vars(trihalo)  # nothing cached in the package


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        trihalo.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from trihalo import no_such_name", {})
