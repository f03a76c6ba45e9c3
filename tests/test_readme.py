"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python code block of the README's "## Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    result, curve = namespace["result"], namespace["curve"]
    assert result.model == "fano" and result.mask.sum() == len(curve.points) >= 8
