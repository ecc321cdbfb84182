"""No module of the package or its tests imports a name it never uses.

A standard-library stand-in for a linter's unused-import rule (F401).  A
name an import binds counts as used when the module reads it, lists it in
__all__, or names it inside a string annotation.  An import line carrying
"# noqa: F401" is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "johnson_embed").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _read_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in tree, in __all__, or in a string annotation."""
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names |= _read_names(ast.parse(const.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in bound:
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return sorted(unused)


def test_checker_sees_every_kind_of_use():
    source = "\n".join([
        "import os",
        "import os.path",
        "import json as js",
        "from a import (",
        "    kept,  # noqa: F401",
        "    dropped,",
        ")",
        "from b import Exported, Quoted, Read",
        "__all__ = ['Exported']",
        "def f(x: 'Quoted') -> None:",
        "    return Read.attr",
    ])
    assert unused_imports(source) == [(1, "os"), (2, "os"), (3, "js"), (6, "dropped")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
