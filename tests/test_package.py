import ast
from pathlib import Path

import pytest

import feedback_lens

MODULES = sorted(p for p in Path(feedback_lens.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in feedback_lens.__all__ if not hasattr(feedback_lens, name)]
    assert not missing


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    # a name is used when it is read as a name, which covers the base of an
    # attribute such as mna.solve
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not sorted(imported - used)
