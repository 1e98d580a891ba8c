"""Every name a ``versim`` module imports is used there or re-exported.

An import that nothing reads is dead code that still costs a load and a
reader's attention; a package that imports a name for re-export must list it
in ``__all__``, like its siblings. The check is a walk of each module's
syntax tree with the standard ``ast`` module, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "versim"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)
    }


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kept = _used(tree) | _exported(tree)
    return [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
        if name not in kept
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import_and_reads_string_annotations():
    tree = ast.parse("from typing import Callable, Sequence\n__all__ = ['Sequence']\n")
    assert set(_imported(tree)) - (_used(tree) | _exported(tree)) == {"Callable"}
    annotated = ast.parse("from x import T\ndef f(a: 'list[T]') -> None: ...\n")
    assert "T" in _used(annotated)
