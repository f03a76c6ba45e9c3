"""Command-line driver: twobody | spectrum | scan | scatter | fit | reproduce.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
last stdout line is machine-parsable: "RESULT ok ..." on success,
"RESULT config_error ..." / "RESULT numerical_error ..." otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import trihalo

from . import io, pipeline
from .errors import ConfigurationError, NumericalError
from .model import (
    choice,
    number,
    parse_system_config,
    read_fragment,
    reduced_mass,
)
from .quadrature import build_grid


def _window(value, name):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigurationError(f"{name}: must be a list of two numbers, got {value!r}")
    return tuple(number()(v, name) for v in value)


def _path(value, name):
    if not isinstance(value, str):
        raise ConfigurationError(f"{name}: must be a string, got {value!r}")
    return Path(value)


# Every key of the JSON run configuration: (reader, default), or a nested
# section.  The grid count and point caps bound memory and run time;
# physical ranges are checked by the model layer.
_RUN_SCHEMA = {
    "system": (parse_system_config, None),
    "grid": {
        "count": (number(hi=2048, integer=True), pipeline.DEFAULT_GRID_COUNT),
        "map_scale_inv_fm": (number(), pipeline.DEFAULT_MAP_SCALE),
    },
    "spectrum": {
        "window_keV": (_window, (1e-9, 1e9)),
        "max_states": (number(lo=1, integer=True), 8),
    },
    "scan": {
        "start_keV": (number(lo=math.ulp(0.0)), pipeline.SCAN_START_KEV),  # > 0
        "stop_keV": (number(), pipeline.SCAN_STOP_KEV),
        "points": (number(1, 10**5, integer=True), pipeline.SCAN_POINTS),
    },
    "scatter": {
        "start_keV": (number(), pipeline.CURVE_START_KEV),
        "stop_keV": (number(), None),  # None: CURVE_STOP_FRACTION * eps2 of the nc channel
        "points": (number(1, 10**5, integer=True), pipeline.CURVE_POINTS),
        "spacing": (choice("log", "linear"), "log"),
    },
    "fit": {
        "model": (choice("fano", "bw", "breit_wigner"), "fano"),
        "window": (choice("auto", "full"), "auto"),
    },
    "output_dir": (_path, Path(".")),
}


def load_run_config(path: str | None, require_system: bool) -> dict:
    """The run configuration read by _RUN_SCHEMA, one dict per section.

    rc["grid"] is built into a MomentumGrid; downstream is seed-free.
    """
    raw = {}
    if path is not None:
        text = io.read_text(path)
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long integers
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    rc = read_fragment(raw, _RUN_SCHEMA, "config")
    if require_system and rc["system"] is None:
        raise ConfigurationError("config: missing 'system' block")
    rc["grid"] = build_grid(rc["grid"]["count"], rc["grid"]["map_scale_inv_fm"])
    return rc


def cmd_twobody(args, rc) -> str:
    cfg = rc["system"]
    print(f"{'channel':<16}{'pole':<10}{'mu_MeV':>12}{'eps2_keV':>14}{'a_fm':>12}")
    for ch in (cfg.nc_channel, cfg.nn_channel):
        a = ch.scattering_length_fm
        a_txt = "unitary limit" if a is None else io.fmt(a)
        mu = reduced_mass(cfg, ch.label)
        print(
            f"{ch.label.value:<16}{ch.pole_kind.value:<10}{io.fmt(mu):>12}"
            f"{io.fmt(ch.epsilon2_keV):>14}{a_txt:>14}"
        )
    return "twobody"


def cmd_spectrum(args, rc) -> str:
    out = io.out_dir(args.out or rc["output_dir"])
    spec = trihalo.find_trimers(
        rc["system"], rc["grid"], search_window=rc["spectrum"]["window_keV"],
        max_states=rc["spectrum"]["max_states"],
    )
    path = out / "spectrum.csv"
    io.write_spectrum_csv(path, spec)
    return f"spectrum levels={len(spec.levels)} file={path}"


def cmd_scan(args, rc) -> str:
    out = io.out_dir(args.out or rc["output_dir"])
    scan = trihalo.threshold_scan(rc["system"], pipeline.scan_values(**rc["scan"]), rc["grid"])
    io.write_scan(out, scan)
    return f"scan points={len(scan.points)} crossings={len(scan.crossings)} dir={out}"


def cmd_scatter(args, rc) -> str:
    out = io.out_dir(args.out or rc["output_dir"])
    mesh = pipeline.curve_mesh(trihalo.elastic_window(rc["system"]), **rc["scatter"])
    curve = trihalo.cross_section_curve(rc["system"], rc["grid"], mesh)
    path = io.write_curve(out, "curve", curve, args.svg)
    return f"scatter points={len(curve.points)} file={path}"


def cmd_fit(args, rc) -> str:
    out = io.out_dir(args.out or rc["output_dir"])
    model = args.model or rc["fit"]["model"]
    model = {"bw": "breit_wigner"}.get(model, model)
    E, s = io.read_curve_csv(args.input)
    result = trihalo.fit(E, s, model=model, window=args.window or rc["fit"]["window"])
    path = out / "fit.json"
    io.write_fit_json(path, result)
    if args.svg:
        title = f"data + {'Fano' if model == 'fano' else 'Breit-Wigner'} fit"
        io.write_curve_svg(out / "fit.svg", E, s, title, fit=result)
    return (
        f"fit model={model} converged={result.converged} "
        f"residual_norm={io.fmt(result.residual_norm)} file={path}"
    )


def cmd_reproduce(args, rc) -> str:
    out = args.out or rc["output_dir"] / "fig1-fig2"
    summary = pipeline.run_fig1_fig2(out, grid=rc["grid"], svg=args.svg)
    return (
        f"reproduce preset={args.preset} q_spread={io.fmt(summary['q_spread'])} "
        f"report={summary['report_path']}"
    )


class _Parser(argparse.ArgumentParser):
    """A usage error ends in a RESULT config_error line, exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trihalo",
        description="Efimov trimer spectra, elastic n+dimer cross sections, "
        "and Fano lineshape fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, svg=False, system=True):
        # system: the subcommand needs the config's 'system' block
        p.set_defaults(run=run, system=system)
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        if svg:
            p.add_argument("--svg", action="store_true", help="also emit an SVG plot")

    common(sub.add_parser("twobody", help="print two-body channel table"), cmd_twobody)
    common(sub.add_parser("spectrum", help="trimer spectrum CSV"), cmd_spectrum)
    common(
        sub.add_parser("scan", help="epsilon2 threshold scan CSV + crossings JSON"), cmd_scan
    )
    common(
        sub.add_parser("scatter", help="elastic cross-section curve CSV"), cmd_scatter, svg=True
    )
    p_fit = sub.add_parser("fit", help="fit a lineshape to a curve CSV")
    p_fit.add_argument("input", help="input CSV (E_keV,sigma_fm2)")
    p_fit.add_argument("--model", choices=["fano", "bw"], default=None)
    p_fit.add_argument("--window", choices=["auto", "full"], default=None)
    common(p_fit, cmd_fit, svg=True, system=False)
    p_rep = sub.add_parser("reproduce", help="run a named preset pipeline")
    p_rep.add_argument("preset", choices=pipeline.PRESETS, help="preset name")
    common(p_rep, cmd_reproduce, svg=True, system=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        summary = args.run(args, load_run_config(args.config, require_system=args.system))
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
