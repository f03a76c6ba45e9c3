"""End-to-end reproduction pipeline: calibrate, scan, curves, fits, report.

The "fig1-fig2" preset: calibrate beta_nc so the first excited trimer
dissolves at eps2* = 220 keV, scan eps2 for threshold crossings, compute
elastic curves at eps2 = 250 and 150 keV, Fano-fit both, and report the
cross-curve q spread.
"""

from __future__ import annotations

import math

import numpy as np

import trihalo

from . import io
from .errors import ConfigurationError
from .model import default_c20_config
from .quadrature import MomentumGrid

DEFAULT_GRID_COUNT = 96
DEFAULT_MAP_SCALE = 0.1  # fm^-1
SCAN_START_KEV = 1e-3
SCAN_STOP_KEV = 400.0
SCAN_POINTS = 40
CURVE_POINTS = 80
CURVE_START_KEV = 0.05
CURVE_STOP_FRACTION = 0.98  # of eps2: the mesh stays below the breakup threshold
PRESETS = ("fig1-fig2",)


def scan_values(
    start_keV: float = SCAN_START_KEV, stop_keV: float = SCAN_STOP_KEV,
    points: int = SCAN_POINTS,
) -> np.ndarray:
    """Logarithmic eps2 values (keV) of a threshold scan; one value if the
    range is a point or points is 1."""
    if stop_keV < start_keV:
        raise ConfigurationError(
            f"scan range descending: start_keV={start_keV} > stop_keV={stop_keV}"
        )
    if stop_keV == start_keV or points == 1:
        return np.array([start_keV])
    return np.geomspace(start_keV, stop_keV, points)


def curve_mesh(
    eps2_keV: float, points: int = CURVE_POINTS, start_keV: float = CURVE_START_KEV,
    stop_keV: float | None = None, spacing: str = "log",
) -> np.ndarray:
    """Energy mesh (keV) of an elastic curve, "log" or "linear" from start_keV
    to stop_keV; stop_keV None ends it at CURVE_STOP_FRACTION * eps2_keV."""
    stop = CURVE_STOP_FRACTION * eps2_keV if stop_keV is None else stop_keV
    if spacing == "linear":
        return np.linspace(start_keV, stop, points)
    if min(start_keV, stop) <= 0:
        raise ConfigurationError(f"scatter: log spacing needs {start_keV}, {stop} > 0 keV")
    return np.geomspace(start_keV, stop, points)


def run_fig1_fig2(out_dir, grid: MomentumGrid, svg: bool = False) -> dict:
    """Run the full preset into out_dir, created if missing; returns a summary dict."""
    out = io.out_dir(out_dir)

    target = 220.0
    calibrated = trihalo.calibrate_range_parameter(
        default_c20_config(), grid, target_epsilon2_star_keV=target
    )
    beta_nc = calibrated.nc_channel.beta_inv_fm
    io.write_json(
        out / "calibration.json",
        {
            "target_epsilon2_star_keV": target,
            "calibrated_beta_nc_inv_fm": beta_nc,
            "beta_nn_inv_fm": calibrated.nn_channel.beta_inv_fm,
        },
    )

    scan = trihalo.threshold_scan(calibrated, scan_values(), grid)
    io.write_scan(out, scan)

    fits = {}
    for eps2 in (250.0, 150.0):
        cfg = default_c20_config(epsilon2_keV=eps2, beta_nc=beta_nc)
        curve = trihalo.cross_section_curve(cfg, grid, curve_mesh(eps2))
        tag = f"eps{int(eps2)}"
        E, sigma = curve.energies_keV, curve.sigmas_fm2
        result = fits[eps2] = trihalo.fit(E, sigma, model="fano", window="auto")
        io.write_curve(out, f"curve_{tag}", curve, svg, fit=result)
        io.write_fit_json(out / f"fit_{tag}.json", result)

    if all(f.converged for f in fits.values()):
        spread = trihalo.q_consistency(fits.values())
    else:
        spread = math.inf

    lines = [
        "preset=fig1-fig2",
        f"calibrated_beta_nc_inv_fm={io.fmt(beta_nc)}",
        "crossings="
        + ";".join(
            f"n{c.state_index}:{io.fmt(c.epsilon2_star_keV)}keV" for c in scan.crossings
        ),
    ]
    for eps2, f in fits.items():
        lines.append(
            f"fit_eps{int(eps2)}: q={io.fmt(f.params.q)} "
            f"E_r_keV={io.fmt(f.params.E_r_keV)} "
            f"Gamma_keV={io.fmt(f.params.Gamma_keV)} "
            f"window={f.window_mode} converged={f.converged}"
        )
        if f.window is None:
            lines.append(
                f"note_eps{int(eps2)}=no resonance window (monotone curve); "
                "fit used the full elastic window"
            )
    lines.append(f"q_spread={io.fmt(spread)}")
    lines.append(f"same_q_spread_lt_0.3={'PASS' if spread < 0.3 else 'FAIL'}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")

    return {
        "fits": fits,
        "q_spread": spread,
        "report_path": out / "report.txt",
    }
