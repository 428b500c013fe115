"""The package caches with one idiom per kind of value.

A value derived from one object alone is a ``functools.cached_property``
of that object; a value computed once per process is a
``functools.cache`` function.  This check fails on the hand-rolled forms
those replace: ``lru_cache``, ``__dict__.setdefault``, and ``getattr`` or
``object.__setattr__`` of an attribute named ``*_cache``.  A frozen
dataclass that sets its derived fields in ``__post_init__`` with
``object.__setattr__`` is not a cache and passes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "canondual"


def hand_rolled_caches(source: str) -> list[str]:
    """The hand-rolled caches in source, as "what (line n)", in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if "lru_cache" in (getattr(node, key, None) for key in ("id", "attr", "name")):
            found.append((node.lineno, "lru_cache"))
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func.endswith("__dict__.setdefault"):
            found.append((node.lineno, "__dict__.setdefault"))
        elif func in ("getattr", "object.__setattr__") and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) and str(node.args[1].value).endswith("_cache"):
            found.append((node.lineno, f"{func} of {node.args[1].value}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_has_no_hand_rolled_cache(path):
    assert hand_rolled_caches(path.read_text()) == []


def test_detector_sees_each_form_and_passes_derived_fields():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(): pass\n"
        "class P:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'terms', {})\n"
        "    def a(self):\n"
        "        cache = self.__dict__.setdefault('_d', {})\n"
        "        cached = getattr(self, '_float_cache', None)\n"
        "        object.__setattr__(self, '_float_cache', cached)\n"
        "        return getattr(self, 'terms')\n"
    )
    assert hand_rolled_caches(source) == [
        "lru_cache (line 2)",
        "lru_cache (line 3)",
        "__dict__.setdefault (line 9)",
        "getattr of _float_cache (line 10)",
        "object.__setattr__ of _float_cache (line 11)",
    ]
