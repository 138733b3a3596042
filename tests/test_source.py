"""Checks on the package's own source text."""

import ast
from pathlib import Path

import pytest

import walklab

MODULES = sorted(Path(walklab.__file__).parent.glob("*.py"))


def _unread_private_names(source):
    """The private names (_x, not dunders) that a module binds at its top
    level (functions, classes, assignments, imports) and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in bound - read if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_private_module_name_is_read_in_its_module(path):
    # a private helper serves its own module: one that nothing there reads is dead
    unread = sorted(_unread_private_names(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name} binds private names it never reads: {unread}"


def test_the_private_name_check_sees_a_dead_helper():
    source = "import os as _os\n_USED = 1\n\n\ndef _dead():\n    return _USED\n\n\ndef public():\n    pass\n"
    assert _unread_private_names(source) == {"_os", "_dead"}
