"""Library modules import only at module level and use every name they import, or say why not."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmvspectra"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _nested_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_marked_imports():
    source = "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_at_module_level(path):
    assert _nested_imports(path.read_text()) == []


def test_the_check_sees_nested_imports():
    source = (
        "import math\n"
        "def f():\n"
        "    from os import path\n"
        "    return path\n"
        "class C:\n"
        "    import json\n"
        "if math.pi:\n"
        "    import sys\n"
    )
    assert _nested_imports(source) == ["line 3", "line 6", "line 8"]
