"""Deterministic file emission: CSV tables, JSON records, simple SVG plots.

All floating-point output goes through fmt() (12 significant digits) so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .fanofit import FitResult
    from .scattering import CrossSectionCurve
    from .spectrum import ThreeBodySpectrum, ThresholdScan

CURVE_HEADER = "E_keV,sigma_fm2"


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON emission."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def out_dir(path) -> Path:
    """path as a directory, created with its parents if missing; a path that
    cannot be one is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: embedded NUL
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from None
    return out


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(_round12(obj), indent=2) + "\n")


def _write_csv(path, header, rows) -> None:
    """header, then one line per row: integers as they are, other cells through fmt()."""
    lines = [header]
    for row in rows:
        cells = (str(c) if isinstance(c, (int, np.integer)) else fmt(c) for c in row)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_curve_csv(path, energies_keV, sigmas_fm2) -> None:
    _write_csv(path, CURVE_HEADER, zip(energies_keV, sigmas_fm2))


def write_curve(out_dir, name, curve: CrossSectionCurve, svg, fit=None) -> Path:
    """<name>.csv of the curve and, with svg, <name>.svg titled by the curve's
    eps2, with fit (if given) drawn over the points it fitted; returns the
    CSV path."""
    E, s = curve.energies_keV, curve.sigmas_fm2
    path = Path(out_dir, f"{name}.csv")
    write_curve_csv(path, E, s)
    if svg:
        eps2 = curve.config_snapshot.nc_channel.epsilon2_keV
        title = f"elastic n+dimer, eps2 = {eps2:g} keV"
        write_curve_svg(Path(out_dir, f"{name}.svg"), E, s, title, fit=fit)
    return path


def read_text(path) -> str:
    """A text file's contents; an unreadable or non-UTF-8 file is a config error."""
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, embedded NUL
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def read_curve_csv(path):
    """Read an E_keV,sigma_fm2 table of finite numbers as two arrays."""
    text = read_text(path).strip().splitlines()
    if not text or text[0].strip() != CURVE_HEADER:
        raise ConfigurationError(
            f"{path}: expected header '{CURVE_HEADER}', got {text[0]!r}"
            if text
            else f"{path}: empty file"
        )
    E, s = [], []
    for i, line in enumerate(text[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"{path}:{i}: expected two columns")
        try:
            e, sigma = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigurationError(f"{path}:{i}: non-numeric value") from None
        if not (math.isfinite(e) and math.isfinite(sigma)):
            raise ConfigurationError(f"{path}:{i}: non-finite value")
        E.append(e)
        s.append(sigma)
    return np.array(E), np.array(s)


def write_spectrum_csv(path, spectrum: ThreeBodySpectrum) -> None:
    _write_csv(
        path, "n,epsilon3_keV", ((lv.index, lv.epsilon3_keV) for lv in spectrum.levels)
    )


def write_scan(out_dir, scan: ThresholdScan) -> None:
    """scan.csv (bound excited count per eps2) and crossings.json in out_dir."""
    _write_csv(
        Path(out_dir, "scan.csv"),
        "epsilon2_keV,bound_excited_count",
        ((pt.epsilon2_keV, pt.bound_excited_count) for pt in scan.points),
    )
    crossings = [dataclasses.asdict(c) for c in scan.crossings]
    write_json(Path(out_dir, "crossings.json"), crossings)


def write_fit_json(path, result: FitResult) -> None:
    """The fit's parameters, residual, convergence and covariance, and the
    window mode ("auto" or "full") it used."""
    rec = {"model": result.model, **dataclasses.asdict(result.params)}
    rec.update(
        residual_norm=result.residual_norm,
        converged=result.converged,
        iterations=result.iterations,
        covariance=[list(row) for row in result.covariance],
        window_mode=result.window_mode,
    )
    write_json(path, rec)


# --- minimal self-contained SVG -------------------------------------------


def _svg_path(xs, ys, color, width, dash=""):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )


def write_curve_svg(path, energies_keV, sigmas_fm2, title, fit=None) -> None:
    """Plot sigma(E) (log y) and, dashed, the profile of fit (a FitResult of
    these data) over the points it fitted (fit.mask)."""
    W, H, pad = 640, 420, 56
    E = np.asarray(energies_keV, dtype=float)
    s = np.clip(np.asarray(sigmas_fm2, dtype=float), 1e-300, None)
    all_s = s
    if fit is not None:
        fit_E = E[fit.mask]
        fit_s = np.clip(fit.profile(fit_E), 1e-300, None)
        all_s = np.concatenate([s, fit_s])
    x0, x1 = float(E[0]), float(E[-1])
    y0 = math.log10(float(np.min(all_s)))
    y1 = math.log10(float(np.max(all_s)))
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0
    if x1 - x0 < 1e-300:
        x1 = x0 + 1.0

    def X(e):
        return pad + (e - x0) / (x1 - x0) * (W - 2 * pad)

    def Y(v):
        return H - pad - (math.log10(max(v, 1e-300)) - y0) / (y1 - y0) * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>',
        _svg_path([X(e) for e in E], [Y(v) for v in s], "#1f4e9c", 1.5),
    ]
    if fit is not None:
        parts.append(
            _svg_path([X(e) for e in fit_E], [Y(v) for v in fit_s], "#c03020", 1.5, "6,4")
        )
    parts += [
        f'<text x="{W/2:.0f}" y="{H-14}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">E_cm [keV]  '
        f"({fmt(E[0])} to {fmt(E[-1])})</text>",
        f'<text x="18" y="{H/2:.0f}" text-anchor="middle" font-family="monospace" '
        f'font-size="13" transform="rotate(-90 18 {H/2:.0f})">'
        f"log10 sigma [fm^2]</text>",
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")
