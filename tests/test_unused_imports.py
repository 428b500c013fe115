"""No module of the package imports a name it never uses.

There is no linter in the test toolchain, so this is the check for a
leftover import after a refactor.  An import kept on purpose carries
``# noqa: F401`` on its line, as a linter would expect.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "canondual"


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, as "name (line n)".
    __future__ imports, names listed in __all__ and imports whose line
    carries "# noqa: F401" count as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_a_leftover_and_honours_noqa():
    source = "import math\nimport os.path\nfrom typing import (\n    Any,\n    List,  # noqa: F401\n)\nos.sep\n"
    assert unused_imports(source) == ["math (line 1)", "Any (line 4)"]
    assert unused_imports("from __future__ import annotations\nimport math\n__all__ = ['math']\n") == []
