"""Source guards over src/skewspec: no unused import, no unreferenced private name or constant, one version."""

import ast
import re
from pathlib import Path

import pytest

import skewspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skewspec"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    """(bound name, line) of every import in the module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def _loaded(nodes):
    """Every name the nodes read, as a bare name or as an attribute."""
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__"])
def test_every_import_is_used(module):
    # __init__ imports to re-export; every other module imports to use
    tree = TREES[module]
    used = set(_loaded(ast.walk(tree)))
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert unused == []


def _definitions(tree):
    """(name, defining node) of each module-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names)


def _references(name, module, definition):
    """How often ``name`` of ``module`` is read or imported in src outside its own definition."""
    inside = {id(node) for node in ast.walk(definition)}
    count = 0
    for other, tree in TREES.items():
        nodes = [node for node in ast.walk(tree) if id(node) not in inside]
        if other == module:
            count += sum(loaded == name for loaded in _loaded(nodes))
        count += sum(
            alias.name == name
            for node in nodes
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
            for alias in node.names
        )
    return count


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_name_is_referenced(module):
    # a private helper that nothing in the package calls is dead code, even
    # where a test still imports it
    unreferenced = [
        f"{name} (line {node.lineno})"
        for name, node in _definitions(TREES[module])
        if name.startswith("_") and not name.startswith("__") and _references(name, module, node) == 0
    ]
    assert unreferenced == []


@pytest.mark.parametrize("module", list(TREES))
def test_every_constant_is_read(module):
    # an ALL_CAPS module constant that nothing in the package reads is a
    # setting that does nothing
    unread = [
        f"{name} (line {node.lineno})"
        for name, node in _definitions(TREES[module])
        if re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and _references(name, module, node) == 0
    ]
    assert unread == []


def test_pyproject_version_is_the_package_version():
    # a regex, since tomllib needs Python 3.11 and the package supports 3.10
    version = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert version is not None and version.group(1) == skewspec.__version__
