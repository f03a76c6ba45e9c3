"""Command-line driver: twobody | spectrum | scan | scatter | fit | reproduce.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
last stdout line is machine-parsable: "RESULT ok ..." on success,
"RESULT config_error ..." / "RESULT numerical_error ..." otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io, pipeline
from .errors import ConfigurationError, NumericalError
from .fanofit import fano_profile
from .model import (
    UNITARY_LIMIT,
    ChannelLabel,
    SystemConfig,
    config_number,
    parse_system_config,
    reduced_mass,
    scattering_length_from_pole,
)
from .quadrature import MomentumGrid, build_grid
from .scattering import cross_section_curve
from .spectrum import find_trimers, threshold_scan

_TOP_KEYS = {"system", "grid", "spectrum", "scan", "scatter", "fit", "output_dir"}
_GRID_KEYS = {"count", "map_scale_inv_fm"}
_SPECTRUM_KEYS = {"window_keV", "max_states"}
_SCAN_KEYS = {"start_keV", "stop_keV", "points"}
_SCATTER_KEYS = {"start_keV", "stop_keV", "points", "spacing"}
_FIT_KEYS = {"model", "window"}


def _check_keys(frag: dict, allowed: set, where: str) -> None:
    if not isinstance(frag, dict):
        raise ConfigurationError(f"{where}: must be an object")
    unknown = set(frag) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")


def _number(frag: dict, where: str, key: str, default, integer: bool = False):
    """frag[key] checked by config_number, or default when the key is absent."""
    if key not in frag:
        return default
    return config_number(frag[key], f"{where}.{key}", integer)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; all computations downstream are seed-free."""

    system: SystemConfig | None
    grid: MomentumGrid
    spectrum_window: tuple[float, float]
    max_states: int
    scan_start: float
    scan_stop: float
    scan_points: int
    scatter_start: float | None
    scatter_stop: float | None
    scatter_points: int
    scatter_spacing: str
    fit_model: str
    fit_window: str
    output_dir: Path


def load_run_config(path: str | None, require_system: bool) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    _check_keys(raw, _TOP_KEYS, "config")

    system = None
    if "system" in raw:
        system = parse_system_config(raw["system"])
    elif require_system:
        raise ConfigurationError("config: missing 'system' block")

    gfrag = raw.get("grid", {})
    _check_keys(gfrag, _GRID_KEYS, "grid")
    grid = build_grid(
        _number(gfrag, "grid", "count", pipeline.DEFAULT_GRID_COUNT, integer=True),
        _number(gfrag, "grid", "map_scale_inv_fm", pipeline.DEFAULT_MAP_SCALE),
    )

    sfrag = raw.get("spectrum", {})
    _check_keys(sfrag, _SPECTRUM_KEYS, "spectrum")
    window = sfrag.get("window_keV", (1e-9, 1e9))
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigurationError("spectrum.window_keV must have two entries")
    window = tuple(config_number(v, "spectrum.window_keV") for v in window)
    max_states = _number(sfrag, "spectrum", "max_states", 8, integer=True)

    cfrag = raw.get("scan", {})
    _check_keys(cfrag, _SCAN_KEYS, "scan")
    scan_start = _number(cfrag, "scan", "start_keV", pipeline.SCAN_START_KEV)
    scan_stop = _number(cfrag, "scan", "stop_keV", pipeline.SCAN_STOP_KEV)
    scan_points = _number(cfrag, "scan", "points", pipeline.SCAN_POINTS, integer=True)
    if scan_points < 1:
        raise ConfigurationError(f"scan.points must be >= 1, got {scan_points}")

    tfrag = raw.get("scatter", {})
    _check_keys(tfrag, _SCATTER_KEYS, "scatter")
    scatter_start = _number(tfrag, "scatter", "start_keV", None)
    scatter_stop = _number(tfrag, "scatter", "stop_keV", None)
    scatter_points = _number(tfrag, "scatter", "points", pipeline.CURVE_POINTS, integer=True)
    if scatter_points < 1:
        raise ConfigurationError(f"scatter.points must be >= 1, got {scatter_points}")
    scatter_spacing = str(tfrag.get("spacing", "log"))
    if scatter_spacing not in ("log", "linear"):
        raise ConfigurationError("scatter.spacing must be 'log' or 'linear'")

    ffrag = raw.get("fit", {})
    _check_keys(ffrag, _FIT_KEYS, "fit")
    fit_model = str(ffrag.get("model", "fano"))
    fit_window = str(ffrag.get("window", "auto"))

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigurationError(f"output_dir must be a string, got {output_dir!r}")

    return RunConfig(
        system=system,
        grid=grid,
        spectrum_window=window,
        max_states=max_states,
        scan_start=scan_start,
        scan_stop=scan_stop,
        scan_points=scan_points,
        scatter_start=scatter_start,
        scatter_stop=scatter_stop,
        scatter_points=scatter_points,
        scatter_spacing=scatter_spacing,
        fit_model=fit_model,
        fit_window=fit_window,
        output_dir=Path(output_dir),
    )


def _out_dir(args, rc: RunConfig) -> Path:
    out = Path(args.out) if args.out else rc.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_twobody(args) -> str:
    rc = load_run_config(args.config, require_system=True)
    cfg = rc.system
    print(f"{'channel':<16}{'pole':<10}{'mu_MeV':>12}{'eps2_keV':>14}{'a_fm':>12}")
    for label in (ChannelLabel.neutron_core, ChannelLabel.neutron_neutron):
        ch = cfg.channel(label)
        mu = reduced_mass(cfg, label)
        a = scattering_length_from_pole(ch, mu, cfg.constants)
        a_txt = "unitary limit" if a is UNITARY_LIMIT else io.fmt(a)
        eps_txt = io.fmt(ch.epsilon2_keV)
        print(
            f"{label.value:<16}{ch.pole_kind.value:<10}{io.fmt(mu):>12}"
            f"{eps_txt:>14}{a_txt:>14}"
        )
    return "twobody"


def cmd_spectrum(args) -> str:
    rc = load_run_config(args.config, require_system=True)
    out = _out_dir(args, rc)
    spec = find_trimers(
        rc.system, rc.grid, search_window=rc.spectrum_window, max_states=rc.max_states
    )
    path = out / "spectrum.csv"
    io.write_spectrum_csv(path, spec)
    return f"spectrum levels={len(spec.levels)} file={path}"


def cmd_scan(args) -> str:
    rc = load_run_config(args.config, require_system=True)
    out = _out_dir(args, rc)
    if rc.scan_start <= 0:
        raise ConfigurationError(f"scan.start_keV must be > 0, got {rc.scan_start}")
    if rc.scan_stop < rc.scan_start:
        raise ConfigurationError(
            f"scan range descending: start_keV={rc.scan_start} > stop_keV={rc.scan_stop}"
        )
    if rc.scan_stop == rc.scan_start or rc.scan_points == 1:
        values = np.array([rc.scan_start])
    else:
        values = np.geomspace(rc.scan_start, rc.scan_stop, rc.scan_points)
    scan = threshold_scan(rc.system, values, rc.grid)
    io.write_scan_csv(out / "scan.csv", scan)
    io.write_json(out / "crossings.json", io.crossings_record(scan))
    return f"scan points={len(scan.points)} crossings={len(scan.crossings)} dir={out}"


def cmd_scatter(args) -> str:
    rc = load_run_config(args.config, require_system=True)
    out = _out_dir(args, rc)
    eps2 = rc.system.nc_channel.epsilon2_keV
    start = rc.scatter_start if rc.scatter_start is not None else 0.05
    stop = rc.scatter_stop if rc.scatter_stop is not None else 0.98 * eps2
    if rc.scatter_spacing == "log":
        if min(start, stop) <= 0:
            raise ConfigurationError(f"scatter: log spacing needs {start}, {stop} > 0 keV")
        mesh = np.geomspace(start, stop, rc.scatter_points)
    else:
        mesh = np.linspace(start, stop, rc.scatter_points)
    curve = cross_section_curve(rc.system, rc.grid, mesh)
    path = out / "curve.csv"
    io.write_curve_csv(path, curve.energies_keV, curve.sigmas_fm2)
    if args.svg:
        io.write_curve_svg(
            out / "curve.svg", curve.energies_keV, curve.sigmas_fm2,
            title=f"elastic n+dimer, eps2 = {eps2:g} keV",
        )
    return f"scatter points={len(curve.points)} file={path}"


def cmd_fit(args) -> str:
    rc = load_run_config(args.config, require_system=False)
    out = _out_dir(args, rc)
    model = args.model or rc.fit_model
    if model == "bw":
        model = "breit_wigner"
    E, s = io.read_curve_csv(args.input)
    wfit = pipeline.fit_curve(E, s, model=model, window_mode=args.window or rc.fit_window)
    result = wfit.result
    rec = io.fit_record(result)
    rec["window_mode"] = wfit.window_mode
    path = out / "fit.json"
    io.write_json(path, rec)
    if args.svg and model == "fano":
        io.write_curve_svg(
            out / "fit.svg", E, s,
            overlay=(E[wfit.mask], fano_profile(E[wfit.mask], result.params)),
            title="data + Fano fit",
        )
    return (
        f"fit model={model} converged={result.converged} "
        f"residual_norm={io.fmt(result.residual_norm)} file={path}"
    )


def cmd_reproduce(args) -> str:
    if args.preset not in pipeline.PRESETS:
        raise ConfigurationError(
            f"unknown preset {args.preset!r}; available: {', '.join(pipeline.PRESETS)}"
        )
    rc = load_run_config(args.config, require_system=False)
    out = Path(args.out) if args.out else rc.output_dir / "fig1-fig2"
    summary = pipeline.run_fig1_fig2(out, grid=rc.grid, svg=args.svg)
    return (
        f"reproduce preset={args.preset} q_spread={io.fmt(summary['q_spread'])} "
        f"report={summary['report_path']}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihalo",
        description="Efimov trimer spectra, elastic n+dimer cross sections, "
        "and Fano lineshape fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, svg=False):
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        if svg:
            p.add_argument("--svg", action="store_true", help="also emit an SVG plot")

    common(sub.add_parser("twobody", help="print two-body channel table"))
    common(sub.add_parser("spectrum", help="trimer spectrum CSV"))
    common(sub.add_parser("scan", help="epsilon2 threshold scan CSV + crossings JSON"))
    common(sub.add_parser("scatter", help="elastic cross-section curve CSV"), svg=True)
    p_fit = sub.add_parser("fit", help="fit a lineshape to a curve CSV")
    p_fit.add_argument("input", help="input CSV (E_keV,sigma_fm2)")
    p_fit.add_argument("--model", choices=["fano", "bw"], default=None)
    p_fit.add_argument("--window", choices=["auto", "full"], default=None)
    common(p_fit, svg=True)
    p_rep = sub.add_parser("reproduce", help="run a named preset pipeline")
    p_rep.add_argument("preset", help="preset name (fig1-fig2)")
    common(p_rep, svg=True)
    return parser


_COMMANDS = {
    "twobody": cmd_twobody,
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "scatter": cmd_scatter,
    "fit": cmd_fit,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"RESULT config_error {exc}")
        return 2
    except NumericalError as exc:
        print(f"RESULT numerical_error {exc}")
        return 3
    print(f"RESULT ok {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
