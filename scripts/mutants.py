#!/usr/bin/env python3
"""Break the program in known ways and check that the tests notice.

Usage:
    python3 scripts/mutants.py

Each entry of MUTANTS replaces one piece of text in one source file (old
text, new text) and names the tests that must fail with that change.  The
entries run one at a time, each on a fresh copy of this repository (its
.git left out) in a temporary directory, with pytest at one BLAS thread and
PYTHONPATH pointing at the copy's src/.  A mutant is killed when every test
it names fails; otherwise it survived.

First the named tests run once on an unchanged copy: they must pass there,
or a failure under a mutant would prove nothing.  An entry whose old text
does not occur exactly once in its file means the list has fallen behind
the code.  Either is reported and the script exits 2.  It prints one line
per mutant, `killed` or `SURVIVED` with the tests that still passed, and
exits 1 if any mutant survived, else 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids; a parametrized test fails if any case does


ENGINE, SPECTRUM, SCATTERING, MODEL, FANOFIT, CLI, PIPELINE, IO, PACKAGE = (
    f"src/trihalo/{m}.py"
    for m in (
        "_engine", "spectrum", "scattering", "model", "fanofit", "cli", "pipeline", "io",
        "__init__",
    )
)
AGREE = "tests/test_spectrum.py::test_kernel_matrix_and_symmetric_solve_agree"
NEAR_NODE = "tests/test_scattering.py::test_amplitude_near_a_node_matches_the_refined_dense_system"
BOUND_NN = "tests/test_cli.py::test_bound_nn_dimer_below_nc_threshold_is_config_error"
LOADS = "tests/test_imports.py::test_each_subcommand_loads_only_the_modules_it_uses"
REFINEMENT = "    return -2.0 * math.pi**2 * Mn * R * (Y[n] + residual[n] - DY @ residual)\n"
ON_THE_BOUND = "tests/test_fanofit.py::test_the_class_and_the_fitter_refuse_a_value_on_the_bound"

MUTANTS = (
    Mutant("G G^T factor 2 scaled by 1 + 1e-6", ENGINE,
           "        P *= 2.0\n", "        P *= 2.0 * (1.0 + 1e-6)\n",
           (AGREE, "tests/test_spectrum.py::test_determinant_continuity")),
    Mutant("G G^T factor 2 dropped", ENGINE, "        P *= 2.0\n", "", (AGREE,)),
    Mutant("tau_c sign check dropped", ENGINE,
           "        if np.any(tau_c >= 0):\n"
           '            raise NumericalError("propagator changed sign below threshold")\n',
           "",
           ("tests/test_scattering.py::test_hidden_nn_pole_is_numerical_error_in_both_layers",
            "tests/test_cli.py::test_scatter_with_a_hidden_nn_pole_is_numerical_error")),
    Mutant("n-n dimer threshold check dropped", ENGINE,
           "    if eps2_nn > eps2_nc:\n", "    if False:\n",
           (f"{BOUND_NN}[spectrum]", f"{BOUND_NN}[scan]", f"{BOUND_NN}[scatter]",
            "tests/test_cli.py::test_scatter_and_curve_refuse_a_bound_nn_dimer_with_one_message"
            "[below]")),
    Mutant("refinement step dropped", SCATTERING,
           REFINEMENT, "    return -2.0 * math.pi**2 * Mn * R * Y[n]\n", (NEAR_NODE,)),
    Mutant("refinement's (D Y).r sign flipped", SCATTERING,
           REFINEMENT, REFINEMENT.replace("- DY @", "+ DY @"), (NEAR_NODE,)),
    Mutant("border rows swapped", ENGINE,
           "                Znn[:, n], Znn[n, :n], G[n] = border\n",
           "                Znn[:, n], G[n], Znn[n, :n] = border\n",
           ("tests/test_scattering.py::test_amplitude_matches_dense_complex_system",
            "tests/test_exchange.py::test_curve_borders_equal_per_energy_whole_array")),
    Mutant("non-finite amplitude check dropped", SCATTERING,
           "            if not math.isfinite(gamma):\n", "            if False:\n",
           ("tests/test_scattering.py::test_a_non_finite_amplitude_fails_at_its_own_energy",
            "tests/test_cli.py::test_scatter_inputs_that_ended_in_a_traceback_are_numerical_errors"
            "[start-5e-324]")),
    Mutant("diagonal of 1 + P D added to a copy", SCATTERING,
           "    P.ravel()[:: n + 2] += 1.0", "    P.flatten()[:: n + 2] += 1.0",
           ("tests/test_scattering.py::test_amplitude_matches_dense_complex_system",)),
    Mutant("energy mesh shape check dropped", SCATTERING,
           "    if E_values.ndim != 1:\n", "    if False:\n",
           ("tests/test_scattering.py::test_curve_rejects_a_mesh_that_is_not_1d",)),
    Mutant("fit-array shape check dropped", FANOFIT,
           "    if E.ndim != 1 or E.shape != sigma.shape:\n", "    if False:\n",
           ("tests/test_fanofit.py::test_fit_rejects_arrays_that_are_not_one_1d_shape",
            "tests/test_fanofit.py::test_auto_seed_rejects_arrays_that_are_not_one_1d_shape")),
    Mutant("resonance_window shape check dropped", FANOFIT,
           '    E, s = _curve_arrays(E, sigma, "resonance_window")\n',
           "    E, s = np.asarray(E, dtype=float), np.asarray(sigma, dtype=float)\n",
           ("tests/test_fanofit.py::test_resonance_window_rejects_arrays_that_are_not_one_1d_shape",)),
    Mutant("Fano Jacobian factor re-associated as 2 (s0 (q + eps))", FANOFIT,
           "    t = np.multiply(2.0 * s0, qe, out=J[:, 1])\n",
           "    t = np.multiply(2.0, s0 * qe, out=J[:, 1])\n",
           ("tests/test_fanofit.py::test_jacobians_equal_the_column_stacks_bit_for_bit",)),
    Mutant("Fano Gamma bound loosened to Gamma >= 0", FANOFIT,
           "            0.0 < sigma0_fm2 < math.inf and 0.0 < Gamma_keV < math.inf\n",
           "            0.0 < sigma0_fm2 < math.inf and 0.0 <= Gamma_keV < math.inf\n",
           (f"{ON_THE_BOUND}[fano-3-0.0]",)),
    Mutant("Breit-Wigner background bound dropped", FANOFIT,
           "            0.0 <= sigma_bg_fm2 < math.inf", "            -math.inf < sigma_bg_fm2 < math.inf",
           (f"{ON_THE_BOUND}[breit_wigner-0--5e-324]",)),
    Mutant("fit covariance over len(E) degrees of freedom", FANOFIT,
           "    dof = max(len(E) - 4, 1)\n", "    dof = len(E)\n",
           ("tests/test_fanofit.py::test_reported_variances_match_the_scatter_of_noisy_fits",)),
    Mutant("continuation stopping rule dropped (shrink 1.0)", FANOFIT,
           "CONTINUATION_SHRINK = 0.5", "CONTINUATION_SHRINK = 1.0",
           ("tests/test_fanofit.py::"
            "test_the_continuation_keeps_a_fit_with_no_breit_wigner_limit_at_the_cap",)),
    Mutant("power-of-two rescale of far-scaled data dropped", FANOFIT,
           "        e = math.frexp(smax)[1]\n", "        e = 0\n",
           ("tests/test_fanofit.py::test_fit_scale_invariance",)),
    Mutant("scan shape check dropped", SPECTRUM,
           "    if eps2.ndim != 1:\n", "    if False:\n",
           ("tests/test_spectrum.py::test_threshold_scan_rejects_values_that_are_not_1d",)),
    Mutant("channel label check dropped", MODEL,
           "        if not isinstance(self.label, ChannelLabel):\n", "        if False:\n",
           ("tests/test_model.py::test_pair_channel_rejects_a_string_label",)),
    Mutant("pole kind check dropped", MODEL,
           "        if not isinstance(self.pole_kind, PoleKind):\n", "        if False:\n",
           ("tests/test_model.py::test_pair_channel_rejects_a_string_pole_kind",)),
    Mutant("resonant pairs check dropped", SPECTRUM,
           "    if not isinstance(resonant_pairs, ResonantPairs):\n", "    if False:\n",
           ("tests/test_spectrum.py::test_scale_factor_rejects_a_string_mode",)),
    Mutant("cli imports the spectrum module at import", CLI,
           "from .quadrature import build_grid\n",
           "from .quadrature import build_grid\nfrom .spectrum import find_trimers\n",
           (f"{LOADS}[import]", f"{LOADS}[scatter]")),
    Mutant("cli imports cross_section_curve at import", CLI,
           "from .quadrature import build_grid\n",
           "from .quadrature import build_grid\nfrom .scattering import cross_section_curve\n",
           (f"{LOADS}[import]", f"{LOADS}[fit]")),
    Mutant("pipeline imports the spectrum module at import", PIPELINE,
           "from . import io\n", "from . import io\nfrom .spectrum import threshold_scan\n",
           (f"{LOADS}[import]", f"{LOADS}[scatter]")),
    Mutant("package imports fanofit at import", PACKAGE,
           "from .quadrature import MomentumGrid, build_grid\n",
           "from . import fanofit  # noqa: F401\nfrom .quadrature import MomentumGrid, build_grid\n",
           (f"{LOADS}[import]", f"{LOADS}[scatter]")),
    Mutant("io imports FitResult at import", IO,
           "from .errors import ConfigurationError\n",
           "from .errors import ConfigurationError\nfrom .fanofit import FitResult\n",
           (f"{LOADS}[import]", f"{LOADS}[scatter]")),
    Mutant("layer export cached in the package", PACKAGE,
           '        return getattr(importlib.import_module(f"{__name__}.{module}"), name)\n',
           '        globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)\n'
           "        return globals()[name]\n",
           ("tests/test_imports.py::test_a_layer_export_reads_the_module_binding_at_every_access",)),
)


def stale_entries() -> list[str]:
    """Entries whose old text does not occur exactly once in their file."""
    return [m.name for m in MUTANTS if (ROOT / m.file).read_text().count(m.old) != 1]


def failing_tests(copy: Path, tests) -> set[str]:
    """The pytest ids among tests that fail (or error) in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):  # not a test failure: usage, collection or internal error
        raise SystemExit(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
    return {t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)}


def fresh_copy(work: Path, name: str) -> Path:
    copy = work / name
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_runs"
    )
    shutil.copytree(ROOT, copy, ignore=ignore)
    return copy


def main() -> int:
    stale = stale_entries()
    if stale:
        print(f"old text not found exactly once: {stale}")
        return 2
    survived = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        failing = failing_tests(fresh_copy(work, "unchanged"), tests)
        if failing:
            print(f"failing without any mutant: {sorted(failing)}")
            return 2
        for i, m in enumerate(MUTANTS):
            copy = fresh_copy(work, f"mutant{i}")
            path = copy / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            passed = [t for t in m.tests if t not in failing_tests(copy, m.tests)]
            survived |= bool(passed)
            print(f"SURVIVED: {m.name}, passing {passed}" if passed else f"killed: {m.name}")
            shutil.rmtree(copy)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
