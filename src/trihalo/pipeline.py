"""End-to-end reproduction pipeline: calibrate, scan, curves, fits, report.

The "fig1-fig2" preset: calibrate beta_nc so the first excited trimer
dissolves at eps2* = 220 keV, scan eps2 for threshold crossings, compute
elastic curves at eps2 = 250 and 150 keV, Fano-fit both, and report the
cross-curve q spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .errors import ConfigurationError
from .fanofit import FitResult, _curve_arrays, auto_seed, fit, q_consistency
from .model import default_c20_config
from .quadrature import MomentumGrid, build_grid
from .scattering import cross_section_curve, resonance_window
from .spectrum import calibrate_range_parameter, threshold_scan

DEFAULT_GRID_COUNT = 96
DEFAULT_MAP_SCALE = 0.1  # fm^-1
SCAN_START_KEV = 1e-3
SCAN_STOP_KEV = 400.0
SCAN_POINTS = 40
CURVE_POINTS = 80
PRESETS = ("fig1-fig2",)


def default_grid() -> MomentumGrid:
    return build_grid(DEFAULT_GRID_COUNT, DEFAULT_MAP_SCALE)


def curve_mesh(eps2_keV: float, points: int = CURVE_POINTS) -> np.ndarray:
    """Logarithmic energy mesh covering the elastic window below eps2."""
    return np.geomspace(0.05, 0.98 * eps2_keV, points)


@dataclass(frozen=True)
class WindowedFit:
    result: FitResult
    window: object  # ResonanceWindow or None
    window_mode: str  # "auto" or "full"
    mask: np.ndarray  # the curve points the fit used


def fit_curve(
    curve_or_E, sigma=None, model: str = "fano", window_mode: str = "auto"
) -> WindowedFit:
    """Fit a curve, restricted to its resonance window when one exists.

    Accepts a CrossSectionCurve or two arrays.  window_mode "auto": use
    resonance_window when found and it holds at least 8 points, otherwise
    fall back to the full curve.  "full": always the full curve.
    """
    if window_mode not in ("auto", "full"):
        raise ConfigurationError(f"window must be 'auto' or 'full', got {window_mode!r}")
    E, s = _curve_arrays(curve_or_E, sigma)
    if len(E) < 8:  # checked here as well as in fit: auto_seed indexes E
        raise ConfigurationError("fit requires at least 8 points")
    win = resonance_window(E, s) if window_mode == "auto" else None
    mask = np.ones(len(E), dtype=bool)
    used_mode = "full"
    if win is not None:
        inside = (E >= win.lo_keV) & (E <= win.hi_keV)
        if int(inside.sum()) >= 8:
            mask, used_mode = inside, "auto"
    seed = auto_seed(model, E[mask], s[mask], window=win)
    result = fit(E[mask], s[mask], model=model, seed=seed)
    return WindowedFit(result=result, window=win, window_mode=used_mode, mask=mask)


def run_fig1_fig2(out_dir, grid: MomentumGrid | None = None, svg: bool = False) -> dict:
    """Run the full preset into out_dir; returns a summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = grid or default_grid()

    template = default_c20_config()
    calibrated = calibrate_range_parameter(
        template, grid, target_epsilon2_star_keV=220.0
    )
    beta_nc = calibrated.nc_channel.beta_inv_fm
    io.write_json(
        out / "calibration.json",
        {
            "target_epsilon2_star_keV": 220.0,
            "calibrated_beta_nc_inv_fm": beta_nc,
            "beta_nn_inv_fm": calibrated.nn_channel.beta_inv_fm,
        },
    )

    scan_values = np.geomspace(SCAN_START_KEV, SCAN_STOP_KEV, SCAN_POINTS)
    scan = threshold_scan(calibrated, scan_values, grid)
    io.write_scan(out, scan)

    fits = {}
    windows = {}
    for eps2 in (250.0, 150.0):
        cfg = default_c20_config(epsilon2_keV=eps2, beta_nc=beta_nc)
        curve = cross_section_curve(cfg, grid, curve_mesh(eps2))
        tag = f"eps{int(eps2)}"
        io.write_curve_csv(
            out / f"curve_{tag}.csv", curve.energies_keV, curve.sigmas_fm2
        )
        wfit = fit_curve(curve, model="fano", window_mode="auto")
        fits[eps2] = wfit
        windows[eps2] = wfit.window
        io.write_fit_json(out / f"fit_{tag}.json", wfit.result, wfit.window_mode)
        if svg:
            from .fanofit import fano_profile

            overlay = (
                curve.energies_keV,
                fano_profile(curve.energies_keV, wfit.result.params),
            )
            io.write_curve_svg(
                out / f"curve_{tag}.svg",
                curve.energies_keV,
                curve.sigmas_fm2,
                overlay=overlay,
                title=f"elastic n+dimer, eps2 = {eps2:g} keV",
            )

    both_converged = all(f.result.converged for f in fits.values())
    if both_converged:
        qc = q_consistency([f.result for f in fits.values()])
        spread = qc.max_relative_spread
        q_values = dict(zip(fits, qc.q_values))
    else:
        spread = math.inf
        q_values = {e: f.result.params.q for e, f in fits.items()}

    lines = [
        "preset=fig1-fig2",
        f"calibrated_beta_nc_inv_fm={io.fmt(beta_nc)}",
        "crossings="
        + ";".join(
            f"n{c.state_index}:{io.fmt(c.epsilon2_star_keV)}keV" for c in scan.crossings
        ),
    ]
    for eps2, wfit in fits.items():
        lines.append(
            f"fit_eps{int(eps2)}: q={io.fmt(wfit.result.params.q)} "
            f"E_r_keV={io.fmt(wfit.result.params.E_r_keV)} "
            f"Gamma_keV={io.fmt(wfit.result.params.Gamma_keV)} "
            f"window={wfit.window_mode} converged={wfit.result.converged}"
        )
        if wfit.window is None:
            lines.append(
                f"note_eps{int(eps2)}=no resonance window (monotone curve); "
                "fit used the full elastic window"
            )
    lines.append(f"q_spread={io.fmt(spread)}")
    lines.append(f"same_q_spread_lt_0.3={'PASS' if spread < 0.3 else 'FAIL'}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")

    return {
        "beta_nc": beta_nc,
        "scan": scan,
        "fits": fits,
        "q_spread": spread,
        "report_path": out / "report.txt",
    }
