import contextlib
import copy
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trihalo
from trihalo.cli import main
from trihalo.errors import ConfigurationError
from trihalo.fanofit import FanoParameters, fano_profile, fit
from trihalo.io import read_curve_csv, write_curve_csv
from trihalo.model import parse_system_config
from trihalo.pipeline import run_fig1_fig2
from trihalo.quadrature import build_grid

SYSTEM = {
    "core_mass_number": 18,
    "nc": {"pole": "bound", "epsilon2_keV": 250.0, "beta_inv_fm": 1.0},
    "nn": {"pole": "virtual", "scattering_length_fm": -18.5, "beta_inv_fm": 1.0},
}


def write_config(tmp_path, name="cfg.json", **extra):
    body = {"system": SYSTEM, "grid": {"count": 48, "map_scale_inv_fm": 0.1}}
    body.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


def test_twobody_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["twobody", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "9.3535" in out
    assert "neutron_core" in out and "neutron_neutron" in out
    assert out.strip().splitlines()[-1].startswith("RESULT ok")


def test_twobody_unitary_limit_marker(tmp_path, capsys):
    system = {
        **SYSTEM,
        "nc": {"pole": "bound", "epsilon2_keV": 0.0, "beta_inv_fm": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system}))
    assert main(["twobody", "--config", str(path)]) == 0
    assert "unitary limit" in capsys.readouterr().out


def test_inconsistent_channel_is_config_error(tmp_path, capsys):
    system = {
        **SYSTEM,
        "nc": {
            "pole": "bound",
            "epsilon2_keV": 250.0,
            "scattering_length_fm": 12.0,
            "beta_inv_fm": 1.0,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system}))
    assert main(["twobody", "--config", str(path)]) == 2
    line = last_line(capsys)
    assert line.startswith("RESULT config_error")
    assert "neutron_core" in line


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus=1)
    assert main(["twobody", "--config", cfg]) == 2
    assert "bogus" in last_line(capsys)


@pytest.mark.parametrize("text", ["{", "9" * 5000], ids=["truncated", "5000-digit-int"])
def test_invalid_json_config_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["twobody", "--config", str(path)]) == 2
    line = last_line(capsys)
    assert line.startswith("RESULT config_error") and "invalid JSON" in line


@pytest.mark.parametrize("config", [None, {"grid": {"count": 16}}], ids=["no-config", "no-system"])
@pytest.mark.parametrize("command", ["twobody", "spectrum", "scan", "scatter"])
def test_missing_system_block_is_config_error(tmp_path, capsys, monkeypatch, command, config):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--out", "o"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    assert main(argv) == 2
    assert last_line(capsys) == "RESULT config_error config: missing 'system' block"
    assert not (tmp_path / "o").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["twobody", "--config", str(tmp_path / "absent.json")]) == 2
    assert last_line(capsys).startswith("RESULT config_error")


@pytest.mark.parametrize(
    "argv",
    [
        ["twobody", "--config", "{dir}"],
        ["twobody", "--config", "{latin1}"],
        ["fit", "{missing}"],
        ["fit", "{dir}"],
        ["fit", "{header_only}"],
        ["fit", "{nan}"],
        ["fit", "{inf}"],
        ["fit", "{three_columns}"],
        ["fit", "{non_numeric}"],
        ["fit", "{good}", "--out", "{file}"],
        ["reproduce", "fig1-fig2", "--out", "{file}"],
    ],
    ids=[
        "config-dir", "config-not-utf8", "csv-missing", "csv-dir",
        "csv-header-only", "csv-nan", "csv-inf", "csv-three-columns", "csv-non-numeric",
        "fit-out-file", "reproduce-out-file",
    ],
)
def test_bad_path_is_config_error(tmp_path, capsys, argv):
    paths = {
        name: tmp_path / name
        for name in (
            "dir", "latin1", "missing", "header_only", "nan", "inf", "three_columns",
            "non_numeric", "good", "file",
        )
    }
    paths["dir"].mkdir()
    paths["latin1"].write_bytes(b'{"output_dir": "caf\xe9"}')
    paths["header_only"].write_text("E_keV,sigma_fm2\n")
    paths["three_columns"].write_text("E_keV,sigma_fm2\n1.0,2.0,3.0\n")
    paths["non_numeric"].write_text("E_keV,sigma_fm2\n1.0,two\n")
    paths["file"].write_text("x")
    E = np.linspace(0.5, 3.5, 20)
    sigma = fano_profile(E, FanoParameters(2.0, 4.0, 1.63, 0.25))
    write_curve_csv(paths["good"], E, sigma)
    for bad in ("nan", "inf"):
        write_curve_csv(paths[bad], E, np.where(E == E[5], float(bad), sigma))
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert last_line(capsys).startswith("RESULT config_error")


@pytest.mark.parametrize(
    "argv",
    [["bogus"], ["fit"], ["fit", "x.csv", "--model", "xx"], ["spectrum", "--nope"]],
)
def test_usage_error_is_config_error(capsys, argv):
    assert main(argv) == 2
    assert last_line(capsys).startswith("RESULT config_error")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("system.core_mass_number", "abc"),
        ("system.core_mass_number", None),
        ("system.core_mass_number", 18.7),
        ("system.core_mass_number", True),
        ("system.nc.epsilon2_keV", "nan"),
        ("system.nc.epsilon2_keV", "abc"),
        ("system.nc.beta_inv_fm", "nan"),
        ("spectrum.window_keV", [1, "x"]),
        ("spectrum.window_keV", 5),
        ("spectrum.max_states", "abc"),
        ("grid.count", "abc"),
        ("grid.count", 8.9),
        ("scan.points", -3),
        ("scan.start_keV", 0.0),
        ("scatter.start_keV", 0.0),
        ("output_dir", 5),
        ("fit.window", "foo"),
        ("spectrum.max_states", 0),
        ("grid.count", 2049),
        ("scan.points", 100_001),
        ("scatter.points", 100_001),
        ("fit.model", 5),
        ("fit.model", "foo"),
        ("scatter.spacing", 5),
        ("system.nc.beta_inv_fm", 1e300),
        ("system.nn.scattering_length_fm", -1e-300),
        ("system.nn.scattering_length_fm", -1e300),
        ("spectrum.window_keV", [10.0, 1.0]),
        pytest.param("grid.count", int("9" * 400), id="grid.count-400-digit-int"),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, capsys, key, value):
    # every subcommand reads and checks the whole run configuration, so
    # fit runs all cases but the mesh starts and the spectrum window:
    # scatter alone checks its start against log spacing, scan.start_keV
    # runs scan as before, and spectrum checks its window's order
    body = {"system": json.loads(json.dumps(SYSTEM)), "grid": {"count": 48}}
    *parents, leaf = key.split(".")
    frag = body
    for name in parents:
        frag = frag.setdefault(name, {})
    frag[leaf] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    E = np.linspace(0.5, 3.5, 20)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, fano_profile(E, FanoParameters(2.0, 4.0, 1.63, 0.25)))
    command = parents[0] if leaf in ("start_keV", "window_keV") else "fit"
    inputs = [str(csv)] if command == "fit" else []
    code = main([command, *inputs, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert last_line(capsys).startswith("RESULT config_error")


def test_spectrum_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "n,epsilon3_keV"
    assert len(lines) >= 2
    n, e3 = lines[1].split(",")
    assert n == "0" and float(e3) > 0


def test_spectrum_extreme_window_ends_in_result_line(tmp_path, capsys):
    cfg = write_config(tmp_path, spectrum={"window_keV": [1e-300, 1e300]})
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code in (0, 3)
    assert last_line(capsys).startswith("RESULT")


def test_scan_of_virtual_nc_channel_is_config_error(tmp_path, capsys):
    # a virtual n-core pair has no n+dimer threshold to scan
    nc = {"pole": "virtual", "scattering_length_fm": -179.0, "beta_inv_fm": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": {**SYSTEM, "nc": nc}, "grid": {"count": 16}}))
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    expected = "RESULT config_error an n+dimer threshold requires a bound n-core channel"
    assert last_line(capsys) == expected


def test_scatter_without_elastic_window_is_config_error(tmp_path, capsys):
    # eps2 = 0: the window (0, 0) is empty, which is the error, not the
    # default mesh ending at 0.98 * eps2 = 0 that it implies
    system = {**SYSTEM, "nc": {"pole": "bound", "epsilon2_keV": 0.0, "beta_inv_fm": 1.0}}
    path = tmp_path / "cfg.json"
    for spacing in ("log", "linear"):
        config = {"system": system, "grid": {"count": 48}, "scatter": {"spacing": spacing}}
        path.write_text(json.dumps(config))
        assert main(["scatter", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        expected = "RESULT config_error elastic n+dimer window (0, 0) keV is empty at eps2 = 0"
        assert last_line(capsys) == expected, spacing


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_scatter_default_stop_of_virtual_nc_channel_is_config_error(tmp_path, capsys, spacing):
    # the default stop is 0.98 eps2 of a bound n-core channel; a virtual
    # one at eps2 = 0 has none, which is the error, not the mesh it implies
    system = {**SYSTEM, "nc": {"pole": "virtual", "epsilon2_keV": 0.0, "beta_inv_fm": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system, "scatter": {"spacing": spacing}}))
    assert main(["scatter", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    expected = "RESULT config_error elastic n+dimer scattering requires a bound n-core channel"
    assert last_line(capsys) == expected


def bound_nn_system(eps2_nn):
    return {**SYSTEM, "nn": {"pole": "bound", "epsilon2_keV": eps2_nn, "beta_inv_fm": 1.0}}


@pytest.mark.parametrize(
    "command, expected",
    [
        ("spectrum", "n-n dimer (eps2 = 1000 keV) below the n+(n-core) threshold "
         "(eps2 = 250 keV): not supported"),
        ("scan", "n-n dimer (eps2 = 1000 keV) below the n+(n-core) threshold "
         "(eps2 = 250 keV): not supported"),
        ("scatter", "n-n dimer (eps2 = 1000 keV) below the n+(n-core) threshold "
         "(eps2 = 250 keV): not supported"),
    ],
    ids=["spectrum", "scan", "scatter"],
)
def test_bound_nn_dimer_below_nc_threshold_is_config_error(tmp_path, capsys, command, expected):
    # core+(nn dimer) would be the lowest threshold, which the kernel does
    # not model: spectrum and scan used to fail in the symmetric solve, and
    # scatter returned a curve
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": bound_nn_system(1000.0), "grid": {"count": 16}}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert last_line(capsys) == f"RESULT config_error {expected}"


@pytest.mark.parametrize(
    "eps2_nn, expected",
    [
        (300.0, "n-n dimer (eps2 = 300 keV) below the n+(n-core) threshold "
         "(eps2 = 250 keV): not supported"),
        (250.0, "elastic n+dimer window (0, 0) keV is empty"),
    ],
    ids=["below", "equal"],
)
def test_scatter_and_curve_refuse_a_bound_nn_dimer_with_one_message(
    tmp_path, capsys, eps2_nn, expected
):
    # trihalo scatter asks for the elastic window first, cross_section_curve
    # builds its engine first: one check decides for both
    system = bound_nn_system(eps2_nn)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system, "grid": {"count": 16}}))
    assert main(["scatter", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert last_line(capsys) == f"RESULT config_error {expected}"
    with pytest.raises(ConfigurationError) as exc:
        trihalo.cross_section_curve(parse_system_config(system), build_grid(16, 0.1), [1.0])
    assert str(exc.value) == expected


def test_scatter_with_a_hidden_nn_pole_is_numerical_error(tmp_path, capsys):
    # a virtual nn pair with a = -0.1 fm (|kappa_B| > 2 beta) hides a bound
    # pole of tau_nn on the physical sheet, near -2.65 GeV, so tau_nn is
    # positive below threshold; spectrum and scan refused this config, and
    # scatter, which eliminates the core by the same check, must too
    system = {**SYSTEM, "nn": {**SYSTEM["nn"], "scattering_length_fm": -0.1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system, "grid": {"count": 96}}))
    reason = "propagator changed sign below threshold"
    for command, prefix in (("spectrum", ""), ("scan", ""), ("scatter", "at E_cm = 0.05 keV: ")):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert last_line(capsys) == f"RESULT numerical_error {prefix}{reason}", command


def test_scatter_default_stop_below_the_core_nn_dimer_threshold(tmp_path, capsys):
    # a bound nn pair at 100 keV opens core+(nn dimer) at E_cm = 250 - 100 keV
    path = tmp_path / "cfg.json"
    config = {"system": bound_nn_system(100.0), "grid": {"count": 16}, "scatter": {"points": 3}}
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["scatter", "--config", str(path), "--out", str(out)]) == 0
    E, _ = read_curve_csv(out / "curve.csv")
    assert E[-1] == pytest.approx(0.98 * 150.0, rel=1e-12)
    config["scatter"] = {"stop_keV": 150.0}
    path.write_text(json.dumps(config))
    assert main(["scatter", "--config", str(path), "--out", str(out)]) == 2
    assert last_line(capsys) == (
        "RESULT config_error E_cm = 150.0 keV outside the elastic window (0, 150.0 keV); "
        "core+(nn dimer) opens at 150.0 keV above the dimer threshold"
    )


def test_on_shell_momentum_on_a_grid_node_is_numerical_error(tmp_path, capsys):
    # q0 = sqrt(2 M_n E_cm) equals node 2 of build_grid(32, 0.1) at this E_cm
    E = 0.07015987146424983
    with pytest.raises(trihalo.NumericalError, match="coincides with a grid node"):
        trihalo.cross_section_curve(trihalo.default_c20_config(), build_grid(32, 0.1), [E])
    cfg = write_config(
        tmp_path, grid={"count": 32, "map_scale_inv_fm": 0.1},
        scatter={"start_keV": E, "stop_keV": E, "points": 1},
    )
    assert main(["scatter", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert last_line(capsys).startswith(
        f"RESULT numerical_error at E_cm = {E} keV: on-shell momentum coincides with a grid node"
    )


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_run_fig1_fig2_unusable_out_dir_is_config_error(tmp_path, out):
    (tmp_path / "file").write_text("x")
    with pytest.raises(ConfigurationError, match="^cannot create output directory "):
        run_fig1_fig2(tmp_path / out, grid=build_grid(8, 0.1))


@pytest.mark.parametrize("eps2", [1e100, 1e200, 1e300])
def test_scatter_extreme_dimer_energy_ends_in_result_line(tmp_path, capsys, eps2):
    # the residue of the dimer pole leaves the float range (1e300 used to
    # overflow in a traceback), 1e200 is a numerical, not a config, error,
    # and at 1e100 the exchange blocks overflow (it used to end in RESULT ok)
    system = {**SYSTEM, "nc": {"pole": "bound", "epsilon2_keV": eps2, "beta_inv_fm": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": system, "grid": {"count": 16}}))
    assert main(["scatter", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert last_line(capsys).startswith("RESULT numerical_error")


NAN_GAMMA = "at E_cm = {} keV: elastic amplitude is not finite (gamma = nan MeV^-1)"


@pytest.mark.parametrize(
    "eps2, beta_nc, map_scale, start, stop, points, message",
    [
        # k^2 underflows to 0 at the first energy: the unitarity bound
        # 4 pi / k^2 was a ZeroDivisionError.  The q0 border is 0/0 there,
        # and the NaN amplitude fails the curve at its own energy
        pytest.param(250.0, 1.0, 0.1, start, 245.0, 8, NAN_GAMMA.format(start), id=f"start-{start}")
        for start in (5e-324, 1e-323, 1e-320)
    ] + [
        # the Schur solve's LinAlgError escaped the curve
        pytest.param(
            1e140, 1e10, 0.1, 0.05, 9.8e139, 5, "at E_cm = 0.05 keV: Singular matrix",
            id="eps2-1e140-beta-1e10",
        ),
        pytest.param(
            250.0, 1e-275, 1e-71, 0.05, 245.0, 8, "at E_cm = 0.05 keV: Singular matrix",
            id="beta-1e-275-map-scale-1e-71",
        ),
    ],
)
def test_scatter_inputs_that_ended_in_a_traceback_are_numerical_errors(
    tmp_path, capsys, eps2, beta_nc, map_scale, start, stop, points, message
):
    body = {
        "system": {**SYSTEM, "nc": {"pole": "bound", "epsilon2_keV": eps2, "beta_inv_fm": beta_nc}},
        "grid": {"count": 16, "map_scale_inv_fm": map_scale},
        "scatter": {"start_keV": start, "stop_keV": stop, "points": points, "spacing": "log"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    assert main(["scatter", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert last_line(capsys) == f"RESULT numerical_error {message}"
    with pytest.raises(trihalo.NumericalError) as exc:
        trihalo.cross_section_curve(
            trihalo.default_c20_config(eps2, beta_nc), build_grid(16, map_scale),
            np.geomspace(start, stop, points),
        )
    assert str(exc.value) == message


def test_spectrum_empty_window_header_only(tmp_path, capsys):
    cfg = write_config(
        tmp_path, spectrum={"window_keV": [1e8, 1e9], "max_states": 4}
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "spectrum.csv").read_text().strip() == "n,epsilon3_keV"


def test_scan_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, scan={"start_keV": 100.0, "stop_keV": 300.0, "points": 4})
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon2_keV,bound_excited_count"
    assert len(lines) == 5
    record = json.loads((out / "crossings.json").read_text())
    assert isinstance(record, list)
    for c in record:
        assert set(c) == {"state_index", "epsilon2_star_keV"}


def test_scan_descending_range_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, scan={"start_keV": 300.0, "stop_keV": 100.0, "points": 4})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "descending" in last_line(capsys)


def test_scan_single_point(tmp_path, capsys):
    cfg = write_config(tmp_path, scan={"start_keV": 250.0, "stop_keV": 250.0, "points": 1})
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads((out / "crossings.json").read_text()) == []


def test_scatter_deterministic_and_svg(tmp_path, capsys):
    cfg = write_config(
        tmp_path, scatter={"start_keV": 1.0, "stop_keV": 200.0, "points": 9}
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["scatter", "--config", cfg, "--out", str(out1), "--svg"]) == 0
    assert main(["scatter", "--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "curve.csv").read_bytes()
    assert csv1 == (out2 / "curve.csv").read_bytes()
    assert csv1.splitlines()[0] == b"E_keV,sigma_fm2"
    svg = (out1 / "curve.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    E, s = read_curve_csv(out1 / "curve.csv")
    assert len(E) == 9 and np.all(s > 0)


def test_scatter_one_point_svg_labels_its_own_energy(tmp_path, capsys):
    # one point: the x- and y-range guards widen the plot, not the label
    cfg = write_config(tmp_path, scatter={"start_keV": 10, "points": 1})
    out = tmp_path / "out"
    assert main(["scatter", "--config", cfg, "--out", str(out), "--svg"]) == 0
    svg = (out / "curve.svg").read_text()
    assert "E_cm [keV]  (10 to 10)</text>" in svg
    assert '<polyline points="56.00,364.00"' in svg  # the plot's lower-left corner


def test_scatter_linear_spacing(tmp_path, capsys):
    scatter = {"start_keV": 1.0, "stop_keV": 200.0, "points": 9, "spacing": "linear"}
    cfg = write_config(tmp_path, scatter=scatter)
    out = tmp_path / "out"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    E, s = read_curve_csv(out / "curve.csv")
    np.testing.assert_allclose(E, np.linspace(1.0, 200.0, 9), rtol=1e-12)
    assert E[:3].tolist() == [1.0, 25.875, 50.75] and np.all(s > 0)


def test_scatter_linear_spacing_from_zero_is_config_error(tmp_path, capsys):
    # E_cm = 0 is outside the elastic window (0, eps2)
    scatter = {"start_keV": 0, "stop_keV": 200.0, "points": 9, "spacing": "linear"}
    cfg = write_config(tmp_path, scatter=scatter)
    assert main(["scatter", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    line = last_line(capsys)
    assert line.startswith("RESULT config_error") and "elastic window" in line


def test_fit_subcommand_schema(tmp_path, capsys):
    p = FanoParameters(sigma0_fm2=2.0, q=4.0, E_r_keV=1.63, Gamma_keV=0.25)
    # 200 points keeps the mesh off the exact profile zero at 1.13 keV;
    # a data point sitting on the zero gets near-infinite relative weight
    # and pins the fit in a local basin
    E = np.linspace(0.5, 3.5, 200)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, fano_profile(E, p))
    out = tmp_path / "out"
    assert main(
        ["fit", str(csv), "--model", "fano", "--window", "auto", "--out", str(out)]
    ) == 0
    rec = json.loads((out / "fit.json").read_text())
    assert rec["model"] == "fano"
    assert rec["converged"] is True
    assert rec["window_mode"] in ("auto", "full")
    assert abs(rec["q"] - 4.0) < 1e-3
    assert abs(rec["E_r_keV"] - 1.63) < 1e-3
    assert abs(rec["Gamma_keV"] - 0.25) < 1e-3
    assert abs(rec["sigma0_fm2"] - 2.0) < 1e-3
    assert len(rec["covariance"]) == 4 and len(rec["covariance"][0]) == 4


def test_fit_bw_alias(tmp_path, capsys):
    p = FanoParameters(sigma0_fm2=2.0, q=4.0, E_r_keV=1.63, Gamma_keV=0.25)
    E = np.linspace(0.5, 3.5, 60)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, fano_profile(E, p))
    out = tmp_path / "out"
    assert main(["fit", str(csv), "--model", "bw", "--out", str(out)]) == 0
    assert json.loads((out / "fit.json").read_text())["model"] == "breit_wigner"


@pytest.mark.parametrize("model, title", [("fano", "Fano"), ("bw", "Breit-Wigner")])
def test_fit_svg_draws_data_and_model(tmp_path, capsys, model, title):
    p = FanoParameters(sigma0_fm2=2.0, q=4.0, E_r_keV=1.63, Gamma_keV=0.25)
    E = np.linspace(0.5, 3.5, 60)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, fano_profile(E, p))
    out = tmp_path / "out"
    assert main(["fit", str(csv), "--model", model, "--svg", "--out", str(out)]) == 0
    svg = (out / "fit.svg").read_text()
    assert svg.count("<polyline") == 2 and 'stroke-dasharray="6,4"' in svg
    assert f"data + {title} fit" in svg


def polylines(svg):
    """(point count, dashed) of each <polyline> of an SVG, in drawing order."""
    return [
        (len(line.split('points="')[1].split('"')[0].split()), "stroke-dasharray" in line)
        for line in svg.splitlines()
        if line.startswith("<polyline")
    ]


def test_fit_svg_overlay_covers_the_fitted_points(tmp_path, capsys):
    # off-centre Fano curve: its resonance window drops the 4 points below
    # 0.56 keV, so the fit and its dashed overlay use 196 of 200 points
    E = np.linspace(0.5, 3.5, 200)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, fano_profile(E, FanoParameters(1.0, -3.0, 2.5, 0.25)))
    out = tmp_path / "out"
    argv = ["fit", str(csv), "--window", "auto", "--svg", "--out", str(out)]
    assert main(argv) == 0
    mask = fit(*read_curve_csv(csv), model="fano", window="auto").mask
    assert mask.sum() == 196
    assert polylines((out / "fit.svg").read_text()) == [(200, False), (196, True)]


@pytest.mark.parametrize("model", ["fano", "bw"])
def test_fit_negative_cross_sections_is_config_error(tmp_path, capsys, model):
    E = np.linspace(0.5, 3.5, 60)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, -fano_profile(E, FanoParameters(2.0, 4.0, 1.63, 0.25)) - 20.0)
    argv = ["fit", str(csv), "--model", model, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    line = last_line(capsys)
    assert line.startswith("RESULT config_error") and "cross sections >= 0" in line


@pytest.mark.parametrize("model", ["fano", "bw"])
def test_fit_near_float_underflow_is_numerical_error(tmp_path, model):
    # a fresh process with a deadline: this fit once hung in np.linalg.pinv
    E = np.linspace(0.5, 3.5, 20)
    csv = tmp_path / "data.csv"
    write_curve_csv(csv, E, 1e-310 * (1.0 + E))
    src = Path(trihalo.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    argv = ["fit", str(csv), "--model", model, "--out", str(tmp_path / "o")]
    run = subprocess.run(
        [sys.executable, "-m", "trihalo.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 3, run.stdout + run.stderr
    assert run.stdout.strip().splitlines()[-1].startswith("RESULT numerical_error")


def test_fit_bad_csv_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("energy,sigma\n1,2\n")
    assert main(["fit", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert last_line(capsys).startswith("RESULT config_error")


def test_reproduce_svg_draws_each_curve_with_its_fano_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"count": 32, "map_scale_inv_fm": 0.1}}))
    out = tmp_path / "out"
    argv = ["reproduce", "fig1-fig2", "--svg", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    for tag in ("eps250", "eps150"):
        svg = (out / f"curve_{tag}.svg").read_text()
        assert svg.count("<polyline") == 2 and 'stroke-dasharray="6,4"' in svg


def test_reproduce_bad_preset(tmp_path, capsys):
    assert main(["reproduce", "nope", "--out", str(tmp_path / "o")]) == 2
    assert "fig1-fig2" in last_line(capsys)



# A valid run configuration that sets every key, for the fuzz test below.
FUZZ_BASE = {
    "system": SYSTEM,
    "grid": {"count": 16, "map_scale_inv_fm": 0.1},
    "spectrum": {"window_keV": [1e-9, 1e9], "max_states": 8},
    "scan": {"start_keV": 1.0, "stop_keV": 300.0, "points": 4},
    "scatter": {"start_keV": 0.05, "stop_keV": 245.0, "points": 8, "spacing": "log"},
    "fit": {"model": "fano", "window": "auto"},
    "output_dir": ".",
}


def _entries(frag, path=()):
    """(path, key, value) of every entry of frag and of its objects and lists."""
    for key, value in frag.items() if isinstance(frag, dict) else enumerate(frag):
        yield path, key, value
        if isinstance(value, (dict, list)):
            yield from _entries(value, path + (key,))


_ENTRIES = list(_entries(FUZZ_BASE))
# every decade of both signs, so each key meets over- and underflow
MAGNITUDES = st.builds(
    lambda sign, exp: float(f"{sign}1e{exp}"), st.sampled_from("+-"), st.integers(-330, 330)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# (path of a container, key or index in it): an existing entry, which the
# test replaces, or a new key of an object, which it adds
FUZZ_TARGETS = st.sampled_from([(path, key) for path, key, _ in _ENTRIES]) | st.tuples(
    st.sampled_from([()] + [p + (k,) for p, k, v in _ENTRIES if isinstance(v, dict)]),
    st.text(max_size=6),
)


def run_fuzzed(tmp_path_factory, command, *edits):
    """Run command on FUZZ_BASE with each (target, value) of edits replacing
    or adding one entry."""
    # a valid large grid, a long scan or a long curve only costs time
    caps = {(("grid",), "count"): 2048}
    if command in ("scan", "scatter"):
        caps[(command,), "points"] = 10**5
    body = copy.deepcopy(FUZZ_BASE)
    for target, value in edits:
        assume(not (
            target in caps and isinstance(value, (int, float)) and 64 < value <= caps[target]
        ))
        path, key = target
        frag = body
        for name in path:
            frag = frag[name]
        frag[key] = value
    base = tmp_path_factory.getbasetemp()
    cfg = base / "fuzz.json"
    cfg.write_text(json.dumps(body))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args = ["--config", str(cfg)]
        if command != "twobody":
            args += ["--out", str(base / "fuzz_out")]
        code = main([command, *args])
    assert code in (0, 2, 3)
    assert out.getvalue().strip().splitlines()[-1].startswith("RESULT")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(target=FUZZ_TARGETS, value=MAGNITUDES | JSON_VALUES)
def test_fuzzed_config_ends_in_result_line(tmp_path_factory, target, value):
    run_fuzzed(tmp_path_factory, "twobody", (target, value))


@pytest.mark.parametrize("command", ["spectrum", "scan", "scatter"])
@settings(derandomize=True, deadline=None, max_examples=100)
@given(target=FUZZ_TARGETS, value=MAGNITUDES | JSON_VALUES)
def test_fuzzed_config_ends_in_result_line_through_kernel(
    tmp_path_factory, command, target, value
):
    # the 16-node grid takes every fuzzed system through the kernel
    # assembly, the root search, the scan's inertia counts and the
    # scattering solve
    run_fuzzed(tmp_path_factory, command, (target, value))


# two numeric entries at once: the inputs that only fail together
NUMERIC_PAIRS = list(itertools.combinations(
    [(path, key) for path, key, value in _ENTRIES if type(value) in (int, float)], 2
))
NUMBERS = MAGNITUDES | st.sampled_from([0, 1, 2, 5e-324, 1e300, -1e300, 1e-300, -1e-300])


@pytest.mark.parametrize("command", ["spectrum", "scan", "scatter"])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(targets=st.sampled_from(NUMERIC_PAIRS), values=st.tuples(NUMBERS, NUMBERS))
def test_fuzzed_pair_of_numbers_ends_in_result_line(tmp_path_factory, command, targets, values):
    run_fuzzed(tmp_path_factory, command, *zip(targets, values))


FIT_E = np.linspace(0.5, 3.5, 40)
FIT_SIGMA = fano_profile(FIT_E, FanoParameters(1.0, 4.0, 1.63, 0.25))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    scaled=st.sampled_from(["E", "sigma"]),
    decade=st.integers(-330, 330),
    spike=st.none() | st.tuples(
        st.integers(0, len(FIT_E) - 1),
        st.sampled_from([0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300]),
    ),
    model=st.sampled_from(["fano", "bw"]),
)
def test_fuzzed_fit_csv_ends_in_result_line(tmp_path_factory, scaled, decade, spike, model):
    # a Fano curve with its E or sigma column scaled by a decade, which
    # may over- or underflow, and possibly one sigma replaced
    scale = float(f"1e{decade}")
    with np.errstate(over="ignore"):
        E, sigma = (FIT_E * scale, FIT_SIGMA) if scaled == "E" else (FIT_E, FIT_SIGMA * scale)
    if spike is not None:
        sigma = sigma.copy()
        sigma[spike[0]] = spike[1]
    base = tmp_path_factory.getbasetemp()
    write_curve_csv(base / "fuzz.csv", E, sigma)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fit", str(base / "fuzz.csv"), "--model", model, "--out", str(base / "fit_out")])
    assert code in (0, 2, 3)
    assert out.getvalue().strip().splitlines()[-1].startswith("RESULT")
