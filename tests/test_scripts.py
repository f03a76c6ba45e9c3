"""The demo scripts use trihalo's public API only, like the benchmark does."""

import ast
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


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
