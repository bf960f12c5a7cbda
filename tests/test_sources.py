"""Source-tree guards: no module defines the same top-level name twice or
imports a name it never reads, no hubo module imports or reads another's
private name, no module imports a layer it must not depend on, and no two random
streams share a label.

A second top-level `def` or `class` of one name silently replaces the first,
so every caller in the module runs the later one, whatever its name promises.
An unused import is a dependency that nothing needs, often what is left of a
helper that moved.  A `_`-prefixed name is its module's own: a second module
that needs it needs a public name.  A run's random streams are seeded as
[run_seed, label, ...], so two streams with one label draw the same numbers.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def duplicate_definitions(source: str) -> list[str]:
    """'name: lines a, b' for each top-level function or class defined twice."""
    lines: dict[str, list[int]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines.setdefault(node.name, []).append(node.lineno)
    return [f"{name}: lines {', '.join(map(str, at))}" for name, at in lines.items() if len(at) > 1]


def unused_imports(source: str) -> list[str]:
    """'name: line n' for each imported name the module never reads.

    Names listed in `__all__` and imports marked `# noqa: F401` are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported: set[str] = set()
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append(f"{name}: line {alias.lineno}")
    return found


def test_unused_imports_finds_an_unread_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import (\n    inf,\n    nan,\n)\n"
        "from scipy import linalg  # noqa: F401\n"
        "__all__ = ['nan']\n"
        "def f():\n    import sys\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os: line 2", "inf: line 5", "sys: line 11"]


def test_no_module_has_an_unused_import():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, found


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


def private_imports(source: str) -> list[str]:
    """'name: line n' for each `_`-prefixed name imported from a hubo module.

    Dunder names are not private.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "hubo":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{alias.name}: line {alias.lineno}")
    return found


def private_attribute_reads(source: str) -> list[str]:
    """'module._name: line n' for each `_`-prefixed attribute read or set on a
    hubo module bound by `from . import m`, `from hubo import m` or `import
    hubo.m`.

    Dunder names are not private.
    """
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in {(1, None), (0, "hubo")}:
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[0] == "hubo"}
    found = sorted(
        (node.lineno, node.col_offset, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.startswith("__") and ast.unparse(node.value) in modules
    )
    return [f"{name}: line {line}" for line, _, name in found]


def test_private_imports_finds_a_private_name():
    source = (
        "from __future__ import annotations\n"
        "from .space import _x, side_length\nfrom . import _gp, series\n"
        "from hubo.gp import _y\nfrom numpy import _z\nfrom . import __version__\n"
    )
    assert private_imports(source) == ["_x: line 2", "_gp: line 3", "_y: line 4"]


def test_private_attribute_reads_finds_a_module_attribute():
    source = (
        "from . import series, space as sp\nimport hubo.gp\nimport hubo.cubes as hc\n"
        "from hubo import driver\nimport numpy as np\n"
        "a = series._qlog(1.0, 2.0)\nb = sp._x + hubo.gp._y\nc = hc._z\n"
        "d = driver.__doc__, np._w, self._v, series.partial_sum\ndriver._t = 1\n"
    )
    assert private_attribute_reads(source) == [
        "series._qlog: line 6", "sp._x: line 7", "hubo.gp._y: line 7", "hc._z: line 8",
        "driver._t: line 10",
    ]


def test_no_hubo_module_imports_a_private_name():
    # tests and bench/ may reach into a module; the package itself may not,
    # by import or by attribute
    found = {
        path.name: private
        for path in sorted((ROOT / "src" / "hubo").glob("*.py"))
        if (private := private_imports(source := path.read_text(encoding="utf-8"))
            + private_attribute_reads(source))
    }
    assert not found, found


# (module, a hubo module it must not import, why)
FORBIDDEN_IMPORTS = [
    ("acquisition", "series", "beta_t is given the run's box side; the closed form is "
     "space.side_length"),
    ("acquisition", "gp", "the maximizers take an acquisition function; the driver binds "
     "the GP posterior into it"),
]


@pytest.mark.parametrize("module, other, why", FORBIDDEN_IMPORTS,
                         ids=[f"{m}-{o}" for m, o, _ in FORBIDDEN_IMPORTS])
def test_module_does_not_import(module, other, why):
    tree = ast.parse((ROOT / "src" / "hubo" / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {getattr(node, "module", None)} | {alias.name for alias in node.names}
    assert not imported & {other, f"hubo.{other}"}, f"{module} imports {other}: {why}"


def shared_stream_labels(sources: dict[str, str]) -> list[str]:
    """'label n: module.NAME, ...' for each integer that two module-level
    `_STREAM_*` names of the given {module: source} share."""
    owners: dict[int, list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is int):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.startswith("_STREAM_"):
                    owners.setdefault(node.value.value, []).append(f"{module}.{target.id}")
    return [f"label {label}: {', '.join(names)}"
            for label, names in sorted(owners.items()) if len(names) > 1]


def test_shared_stream_labels_finds_a_reused_label():
    sources = {
        "a": "_STREAM_X = 0\n_STREAM_Y = 1\nOTHER = 1\n",
        "b": "_STREAM_Z = 1\n_STREAM_NAME = 'x'\ndef f():\n    _STREAM_W = 0\n",
    }
    assert shared_stream_labels(sources) == ["label 1: a._STREAM_Y, b._STREAM_Z"]
    assert shared_stream_labels({"a": "_STREAM_X = 0\n", "b": "_STREAM_Y = 2\n"}) == []


def test_no_two_random_streams_share_a_label():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "hubo").glob("*.py"))}
    assert "_STREAM_NOISE" in sources["driver"] and "_STREAM_PLACEMENT" in sources["benchmarks"]
    assert shared_stream_labels(sources) == []
