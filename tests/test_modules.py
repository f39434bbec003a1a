"""Module boundaries: one survtower module uses another only through its
public names, so an underscore-prefixed name can change with its module."""

import ast
from pathlib import Path

import pytest

import survtower

# a namespace package: its path may name one folder twice
MODULES = sorted({p.resolve() for folder in survtower.__path__ for p in Path(folder).glob("*.py")})


def private_uses(path: Path) -> list[str]:
    """``module.name`` for each underscore-prefixed name of a sibling module
    that ``path`` imports, or reads off a sibling module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("survtower")):
            for alias in node.names:
                if node.module is None or node.module == "survtower":   # from . import autodiff as ad
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            if node.attr.startswith("_"):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"autodiff.py", "data.py", "train.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path) == []


def thread_imports(path: Path) -> list[str]:
    """Each ``threading`` or ``concurrent`` module that ``path`` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in ("threading", "concurrent")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_autodiff_imports_threads(path):
    # autodiff.overlap is the one way into threads; autodiff's own two
    # imports show that the check sees them
    assert thread_imports(path) == ([] if path.name != "autodiff.py" else ["threading", "concurrent"])


def asserts(path: Path) -> list[int]:
    """The line of each ``assert`` statement in ``path``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_asserts(path):
    # python -O strips every assert, so a package check raises a package error
    assert asserts(path) == []
