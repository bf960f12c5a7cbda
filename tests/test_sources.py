"""Source-tree guard: no module defines the same top-level name twice.

A second top-level `def` or `class` of one name silently replaces the first,
so every caller in the module runs the later one, whatever its name promises.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def duplicate_definitions(source: str) -> list[str]:
    """'name: lines a, b' for each top-level function or class defined twice."""
    lines: dict[str, list[int]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines.setdefault(node.name, []).append(node.lineno)
    return [f"{name}: lines {', '.join(map(str, at))}" for name, at in lines.items() if len(at) > 1]


def test_duplicate_definitions_finds_a_shadowed_function():
    source = "def f():\n    return 1\n\nclass C:\n    pass\n\ndef f():\n    return 2\n"
    assert duplicate_definitions(source) == ["f: lines 1, 7"]
    assert duplicate_definitions("def f():\n    def f():\n        pass\n") == []


def test_no_module_defines_a_top_level_name_twice():
    assert Path(__file__).resolve() in SOURCES
    found = {
        str(path.relative_to(ROOT)): dups
        for path in SOURCES
        if (dups := duplicate_definitions(path.read_text(encoding="utf-8")))
    }
    assert not found, found
