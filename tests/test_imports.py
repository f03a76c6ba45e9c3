"""scipy.optimize is loaded at the first root search, not at import.

The check runs in a fresh interpreter, since this test session has long
since imported scipy.optimize itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import trihalo

SRC = Path(trihalo.__file__).resolve().parent.parent

PROBE = r"""
import json, sys
from pathlib import Path

def loaded():
    return "scipy.optimize" in sys.modules

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


def test_scipy_optimize_loads_only_at_first_root_search(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["codes"] == {"twobody": 0, "scatter": 0, "fit": 0}
    assert report["levels"] == 1
    assert report["stages"] == {
        "import": False,
        "twobody": False,
        "scatter": False,
        "fit": False,
        "find_trimers": True,
    }
