"""scipy loads only where trihalo needs it: scipy.linalg at the first
spectrum call, scipy.optimize at the first root search.  Importing trihalo
and running twobody, scatter and fit load no scipy module at all.

The check runs in a fresh interpreter, since this test session has long
since imported scipy itself.  The package's spectrum names resolve at each
access through a module __getattr__, which the last tests pin.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trihalo

SRC = Path(trihalo.__file__).resolve().parent.parent

PROBE = r"""
import json, sys
from pathlib import Path

def loaded():
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return {"any": scipy[:1], "linalg": "scipy.linalg" in scipy,
            "optimize": "scipy.optimize" in scipy}

out = Path(sys.argv[1])
stages = {}
import trihalo, trihalo.cli
stages["import"] = loaded()

import numpy as np
from trihalo.cli import main
from trihalo.fanofit import FanoParameters, fano_profile
from trihalo.io import write_curve_csv

system = {
    "core_mass_number": 18,
    "nc": {"pole": "bound", "epsilon2_keV": 250.0, "beta_inv_fm": 1.0},
    "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 1.0},
}
cfg = out / "cfg.json"
cfg.write_text(json.dumps({
    "system": system,
    "grid": {"count": 16, "map_scale_inv_fm": 0.1},
    "scatter": {"start_keV": 1.0, "stop_keV": 200.0, "points": 9},
}))
E = np.linspace(0.5, 3.5, 40)
write_curve_csv(out / "data.csv", E, fano_profile(E, FanoParameters(2.0, 4.0, 1.63, 0.25)))
codes = {}
for name, argv in (
    ("twobody", ["twobody", "--config", str(cfg)]),
    ("scatter", ["scatter", "--config", str(cfg), "--out", str(out / "scatter")]),
    ("fit", ["fit", str(out / "data.csv"), "--out", str(out / "fit")]),
):
    codes[name] = main(argv)
    stages[name] = loaded()

from trihalo.quadrature import build_grid
from trihalo.model import unitary_boson_config
from trihalo.spectrum import find_trimers

spec = find_trimers(unitary_boson_config(), build_grid(32, 0.03), (1e-6, 1e9), max_states=1)
stages["find_trimers"] = loaded()
print(json.dumps({"stages": stages, "codes": codes, "levels": len(spec.levels)}))
"""


def test_scipy_loads_only_at_the_first_spectrum_call(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["codes"] == {"twobody": 0, "scatter": 0, "fit": 0}
    assert report["levels"] == 1
    none = {"any": [], "linalg": False, "optimize": False}
    stages = report["stages"]
    assert stages.pop("find_trimers") == {"any": ["scipy"], "linalg": True, "optimize": True}
    assert stages == {"import": none, "twobody": none, "scatter": none, "fit": none}


# every name the package exported when it still imported trihalo.spectrum eagerly
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


def test_a_spectrum_export_reads_the_module_binding_at_every_access(monkeypatch):
    import trihalo.spectrum

    original, sentinel = trihalo.spectrum.find_trimers, object()
    with monkeypatch.context() as patch:
        patch.setattr(trihalo.spectrum, "find_trimers", sentinel)
        assert trihalo.find_trimers is sentinel
    assert trihalo.find_trimers is original
    assert "find_trimers" not in vars(trihalo)  # nothing cached in the package


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        trihalo.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from trihalo import no_such_name", {})
