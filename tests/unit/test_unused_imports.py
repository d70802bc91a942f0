"""Every module-level import under ``src/`` is used by its module.

A standing check, built on the standard library's ``ast`` (no linter is
a dependency): an import binds a name, and some expression of the
module must read it. Exempt are ``__init__.py`` files, whose imports
are the package's re-exports, ``from __future__`` imports, and names a
module lists in ``__all__``. A name read only inside a string
annotation (``"Optional[Foo]"``) counts as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    """The names an expression of ``tree`` reads, string annotations
    and ``__all__`` entries included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    sub.id for sub in ast.walk(parsed)
                    if isinstance(sub, ast.Name)
                )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
            )
    return names


def _module_imports(tree):
    """``(line, bound name)`` of each import at module level, inside
    module-level ``if`` and ``try`` blocks too; ``__future__`` is
    exempt."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
            pending.extend(getattr(node, "finalbody", ()))


def unused_imports(source):
    """``[(line, name)]`` of the module-level imports ``source`` never
    uses."""
    tree = ast.parse(source)
    used = _names(tree)
    return [
        (line, name) for line, name in _module_imports(tree)
        if name not in used
    ]


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from typing import Dict, List\nx: List[int] = []\n", [(1, "Dict")]),
    ("from a import b as c\nb = 1\n", [(1, "c")]),
    ("try:\n    import numpy as np\nexcept ImportError:\n    np = None\n", []),
    ("try:\n    import numpy\nexcept ImportError:\n    pass\n",
     [(2, "numpy")]),
    ("from __future__ import annotations\n", []),
    ("from .m import Foo\n\ndef f(x: 'Foo') -> None:\n    pass\n", []),
    ("from .m import Foo\n__all__ = ['Foo']\n", []),
    ("def f():\n    import os\n", []),
])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused
