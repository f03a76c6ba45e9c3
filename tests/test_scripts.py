"""The scripts use trihalo's public API only, like the benchmark does, and
collect_bench.py gathers perfbench records into one BENCH file."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def private_trihalo_names(tree):
    """Underscore names imported from trihalo or read as attributes of it.

    Attributes are checked on every name a trihalo import binds, so
    ``from trihalo import spectrum as sp; sp._Engine`` is caught too.
    """
    bound, bad = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trihalo"):
            names = node.module.split(".") + [a.name for a in node.names]
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.name.startswith("trihalo")]
            names = [part for a in aliases for part in a.name.split(".")]
            bound |= {a.asname or a.name.split(".")[0] for a in aliases}
        else:
            continue
        bad += names
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                bad += chain
    return [n for n in bad if n.startswith("_") and not n.startswith("__")]


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_uses_only_public_trihalo_names(path):
    bad = private_trihalo_names(ast.parse(path.read_text()))
    assert not bad, f"{path.name}: private trihalo name(s) {bad}"


def test_guard_catches_private_imports_and_attributes():
    tree = ast.parse(
        "import numpy as np\n"
        "from trihalo.spectrum import _Engine\n"
        "import trihalo.spectrum\n"
        "from trihalo import scattering as sc\n"
        "trihalo.spectrum._born_blocks\n"
        "sc._amplitude\n"
        "np._private\n"
    )
    assert sorted(private_trihalo_names(tree)) == ["_Engine", "_amplitude", "_born_blocks"]


def load_collect_bench():
    spec = importlib.util.spec_from_file_location("collect_bench", SCRIPTS_DIR / "collect_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(runs, workload, seed, trace, metrics, src="a"):
    record = {"env": {"src_sha256": src}, "attempted": 3, "failed": [], "metrics": metrics}
    (runs / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_collect_bench_records_medians_per_side(tmp_path):
    collect = load_collect_bench()
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        runs = tmp_path / side
        runs.mkdir()
        for seed, t in ((41, 0.7), (42, 0.9), (43, 0.8)):
            write_result(runs, "scatter", seed, 0, {"op_p50_s": scale * t}, src=side)
        write_result(runs, "scatter", 7, 1, {"scattering.calls": 10.0}, src=side)
    out = tmp_path / "BENCH_9.json"
    assert collect.main(["--pr", "9", "--out", str(out), f"parent={tmp_path / 'parent'}",
                         f"change={tmp_path / 'change'}"]) == 0
    record = json.loads(out.read_text())
    scatter = record["sides"]["change"]["workloads"]["scatter"]
    assert scatter["end_to_end"]["op_p50_s"] == {"median": 0.4, "runs": [0.35, 0.45, 0.4]}
    assert scatter["seeds"] == [41, 42, 43] and scatter["failed"] == [0, 0, 0]
    assert scatter["per_layer"] == {"scattering.calls": 10.0}
    assert record["sides"]["parent"]["env"] == [{"src_sha256": "parent"}]
    assert str(tmp_path) not in out.read_text()


def test_collect_bench_refuses_mixed_source_trees(tmp_path):
    collect = load_collect_bench()
    write_result(tmp_path, "scan", 1, 0, {"op_p50_s": 1.0}, src="a")
    write_result(tmp_path, "scan", 2, 0, {"op_p50_s": 1.0}, src="b")
    with pytest.raises(SystemExit, match="mixes source trees"):
        collect.main(["--pr", "1", "--out", str(tmp_path / "b.json"), f"x={tmp_path}"])


def load_compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", SCRIPTS_DIR / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_same_tree_is_identical_and_a_changed_byte_is_reported(tmp_path):
    compare = load_compare_outputs()
    src = SCRIPTS_DIR.parent / "src"
    assert compare.compare(src, src, tmp_path, grid_count=32) == []
    old, new = tmp_path / "old", tmp_path / "new"
    runs = {p.name for p in new.iterdir()}
    assert runs == {name for name, _, _ in compare.RUNS}
    config_errors = {
        "reproduce-unknown-preset", "reproduce-out-file", "scan-descending",
        "scatter-virtual-nc", "scatter-unitary-nc",
    }
    numerical_errors = {
        "scatter-grid-node", "scatter-exchange-overflow", "scatter-residue-overflow",
        "scatter-hidden-nn-pole", "scatter-k-underflow",
    }
    for name in runs:
        code = 2 if name in config_errors else 3 if name in numerical_errors else 0
        assert (new / name / "stdout.txt").read_text().endswith(f"exit={code}\n"), name
    assert (new / "fit-curve-bw-full" / "input.csv").read_bytes() == (
        new / "scatter" / "out" / "curve.csv"
    ).read_bytes()
    svg = new / "reproduce" / "out" / "curve_eps250.svg"
    text = svg.read_bytes()
    svg.write_bytes(text[:100] + bytes([text[100] ^ 1]) + text[101:])
    (new / "twobody" / "stdout.txt").unlink()
    assert compare.differing(old, new) == [
        "reproduce/out/curve_eps250.svg", "twobody/stdout.txt"
    ]
    # the size of a difference: over the numbers when only they differ
    stdout = "twobody/stdout.txt"
    assert compare.size_of_difference(old / stdout, new / stdout) == "only in old"
    crossings = "scan/out/crossings.json"
    text = (old / crossings).read_text()
    star = re.search(r"\d+\.\d+", text).group()  # the first crossing's eps2*
    for edit, size in ((repr(float(star) * (1.0 + 3e-7)), "max relative difference 3e-07"),
                       (f"x{star}", "text differs")):
        (new / crossings).write_text(text.replace(star, edit, 1))
        assert compare.size_of_difference(old / crossings, new / crossings) == size


def test_compare_outputs_sizes_a_json_object_per_key(tmp_path):
    # a drift in a fit's covariance must not read as a drift in its parameters
    compare = load_compare_outputs()
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    fit = {"model": "fano", "q": 3.5, "Gamma_keV": 0.25, "covariance": [[1.0, -2.0], [-2.0, 8.0]]}
    old.write_text(json.dumps(fit, indent=2))
    fit.update(model="breit_wigner", Gamma_keV=0.25 * (1.0 + 1.1e-12))
    fit["covariance"][0][1] = -2.0 * (1.0 + 3e-3)
    new.write_text(json.dumps(fit))
    assert compare.size_of_difference(old, new) == (
        "model text differs; Gamma_keV 1.1e-12; covariance 0.003"
    )
    # a JSON list, or objects whose keys differ, are sized as any other text
    old.write_text(json.dumps([{"q": 3.5}]))
    new.write_text(json.dumps([{"q": 3.5 * (1.0 + 2e-7)}]))
    assert compare.size_of_difference(old, new) == "max relative difference 2e-07"
    new.write_text(json.dumps({"q": 3.5}))
    assert compare.size_of_difference(old, new) == "text differs"


def test_mutants_list_matches_the_code():
    # every mutant's old text occurs once in its file and every test it
    # names exists, so the list in scripts/mutants.py (run as a CI job,
    # outside tier-1) does not fall behind the code unnoticed
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS_DIR / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.stale_entries() == []
    for m in mutants.MUTANTS:
        for test in m.tests:
            path, name = re.fullmatch(r"(.+)::(\w+)(\[.+\])?", test).group(1, 2)
            assert f"\ndef {name}(" in (SCRIPTS_DIR.parent / path).read_text(), test
