import contextlib
import copy
import io
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


def run_fuzzed(tmp_path_factory, command, target, value):
    """Run command on FUZZ_BASE with one entry replaced or added."""
    path, key = target
    # a valid large grid, a long scan or a long curve only costs time
    caps = {(("grid",), "count"): 2048}
    if command in ("scan", "scatter"):
        caps[(command,), "points"] = 10**5
    assume(not (
        target in caps and isinstance(value, (int, float)) and 64 < value <= caps[target]
    ))
    body = copy.deepcopy(FUZZ_BASE)
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
    run_fuzzed(tmp_path_factory, "twobody", target, value)


@pytest.mark.parametrize("command", ["spectrum", "scan", "scatter"])
@settings(derandomize=True, deadline=None, max_examples=100)
@given(target=FUZZ_TARGETS, value=MAGNITUDES | JSON_VALUES)
def test_fuzzed_config_ends_in_result_line_through_kernel(
    tmp_path_factory, command, target, value
):
    # the 16-node grid takes every fuzzed system through the kernel
    # assembly, the root search, the scan's inertia counts and the
    # scattering solve
    run_fuzzed(tmp_path_factory, command, target, value)
