"""Source hygiene: every module-level name in src/u1higgs has a reader.

A name counts as read when some other statement in src/, tests/ or
scripts/ loads it (as a bare name or as an attribute) or imports it.  Its
own definition does not count, and neither do the re-exports of
`__init__.py`.  Private names are held to the same rule, so a helper that
a refactor leaves behind fails; dunders are exempt.  Like test_imports.py,
this stdlib `ast` scan stands in for a linter.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "u1higgs"
READERS = ("src", "tests", "scripts")


def defined_names(stmt):
    """Non-dunder names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(stmt, reexports):
    """Names a statement loads or imports; `reexports` drops its imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            out.update(alias.name for alias in node.names)
    return out


def unread_names():
    # one entry per top-level statement: (file, statement, names it reads)
    statements = []
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            reexports = path.parent == SRC and path.name == "__init__.py"
            statements += [(path, stmt, read_names(stmt, reexports)) for stmt in tree.body]
    unread = []
    for path, stmt, _ in statements:
        if path.parent != SRC or path.name == "__init__.py":
            continue
        for name in defined_names(stmt):
            if not any(name in reads for _, other, reads in statements if other is not stmt):
                unread.append((name, f"{path.name}:{stmt.lineno}: {name}"))
    return unread


def test_every_public_name_is_read():
    found = [where for name, where in unread_names() if not name.startswith("_")]
    assert not found, "public names that nothing reads: " + ", ".join(found)


def test_every_private_name_is_read():
    found = [where for name, where in unread_names() if name.startswith("_")]
    assert not found, "private names that nothing reads: " + ", ".join(found)
