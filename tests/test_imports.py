"""Every name a source module imports is used in it or re-exported.

No linter ships with the project, so this scan stands in for the
unused-import rule: it parses each module of ``src/sbpbox`` and collects the
names bound by ``import`` statements that are never loaded and not listed in
``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sbpbox"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport os.path\nfrom x import y as z\n"
                   "__all__ = ['z']\nprint(os.path.sep)\n")
    assert unused_imports(mod) == [(1, "math")]
