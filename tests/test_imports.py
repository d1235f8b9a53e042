"""Source hygiene: every name a module imports is used in that module.

No linter is part of the toolchain, so this stdlib `ast` scan stands in for
one.  `__init__.py` is exempt because its imports are re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "u1higgs"


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [f"{p.name}:{line}: {name}" for p in modules for line, name in unused_imports(p)]
    assert not found, "imported but never used: " + ", ".join(found)
