"""Library modules import only at module level and use every name they import, or say why
not; every private module-level name of the library is used somewhere in the library, and
every public name it exports is used by a library module other than the package's
__init__, so code that only tests call cannot linger in it; and no module-level name is
defined in two library modules, so a shared constant or helper has one definition."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cmvspectra"
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


def _definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants the source defines, imports aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _private_definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants whose names start with one underscore."""
    return [n for n in _definitions(source) if n.startswith("_") and not n.startswith("__")]


def _references(source: str) -> set[str]:
    """Names a source reads, as a name, an attribute, an import, or a string such as
    monkeypatch.setattr's attribute name."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _unreferenced_private_names(package: Path) -> list[str]:
    """Private names defined in the package's modules that none of its files reference."""
    used = set().union(*(_references(p.read_text()) for p in package.glob("*.py")))
    return [f"{p.stem}.{name}" for p in sorted(package.glob("*.py")) if p.name != "__init__.py"
            for name in _private_definitions(p.read_text()) if name not in used]


def test_every_private_name_is_referenced():
    assert _unreferenced_private_names(SRC) == []


def test_a_private_name_referenced_only_from_tests_is_unreferenced(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .core import _shared\n")
    (package / "core.py").write_text("_shared = 1\n\ndef _test_only():\n    return 2\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text("from pkg.core import _test_only\n")
    assert _unreferenced_private_names(package) == ["core._test_only"]


def _exported_names(package: Path) -> list[str]:
    """The names listed in the package's __all__."""
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _unreferenced_public_names(package: Path) -> list[str]:
    """Exported names that no module of the package but its __init__ references."""
    used = set().union(*(_references(p.read_text()) for p in package.glob("*.py")
                         if p.name != "__init__.py"))
    return [name for name in _exported_names(package) if name not in used]


#: exported for the tests: the two-sided operator they check the Floquet folding against
_EXPORTED_FOR_TESTS = ["assemble_window"]


def test_every_public_name_is_referenced_by_the_library():
    assert _unreferenced_public_names(SRC) == _EXPORTED_FOR_TESTS


def test_a_public_name_referenced_only_from_tests_and_init_is_unreferenced(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .core import shared, test_only\n__all__ = ['shared', 'test_only']\n"
        "test_only()\n"
    )
    (package / "core.py").write_text("def shared():\n    return 1\n\ndef test_only():\n"
                                     "    return 2\n")
    (package / "cli.py").write_text("from .core import shared\n\nprint(shared())\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text("from pkg import test_only\n")
    assert _unreferenced_public_names(package) == ["test_only"]


def test_the_check_sees_unreferenced_private_names():
    source = (
        "import os\n"
        "_A = 1\n"
        "_B: int = 2\n"
        "__all__ = []\n"
        "def _f():\n"
        "    _local = os.sep\n"
        "    return _local\n"
        "def _g():\n"
        "    return _A\n"
        "class _C:\n"
        "    pass\n"
        "def public():\n"
        "    return _g()\n"
    )
    defined = _private_definitions(source)
    assert defined == ["_A", "_B", "_f", "_g", "_C"]
    assert [n for n in defined if n not in _references(source)] == ["_B", "_f", "_C"]


def _names_defined_twice(package: Path) -> list[str]:
    """Module-level names that two or more of the package's modules define, with those modules."""
    where: dict[str, list[str]] = {}
    for p in sorted(package.glob("*.py")):
        if p.name != "__init__.py":
            for name in dict.fromkeys(_definitions(p.read_text())):
                where.setdefault(name, []).append(p.stem)
    return [f"{name}: {', '.join(stems)}" for name, stems in where.items() if len(stems) > 1]


def test_no_name_is_defined_in_two_modules():
    assert _names_defined_twice(SRC) == []


def test_the_check_sees_a_name_defined_in_two_modules(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import TAU\nTAU = 6.28\n")
    (tmp_path / "a.py").write_text("import math\nTAU = 2 * math.pi\n\ndef f():\n    return 1\n")
    (tmp_path / "b.py").write_text("from .a import TAU, f\n\ndef g():\n    return f()\n")
    (tmp_path / "c.py").write_text("TAU: float = 6.28\n\nclass f:\n    pass\n")
    assert _names_defined_twice(tmp_path) == ["TAU: a, c", "f: a, c"]
