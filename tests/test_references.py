"""Source hygiene: every module-level name in src/u1higgs has a reader,
and every name the benchmark in perfbench/ reads still exists.

A name counts as read when some other statement in src/, tests/ or
scripts/ loads it (as a bare name or as an attribute) or imports it.  Its
own definition does not count, and neither do the re-exports of
`__init__.py`.  Private names are held to the same rule, so a helper that
a refactor leaves behind fails; dunders are exempt.  Like test_imports.py,
this stdlib `ast` scan stands in for a linter.

A traced benchmark run that lacks a layer metric is not a valid result, so
a function perfbench/layers.py traces, or a keyword perfbench/workloads.py
passes, must outlive any refactor of src/; both files are loaded by path
and only read.
"""

import ast
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "u1higgs"
PERFBENCH = ROOT / "perfbench"
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


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py loaded by path under its bare name, which is how
    its siblings import it; the registration is undone after the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_resolves(monkeypatch):
    layers = _perfbench_module("layers", monkeypatch)
    tracer = _perfbench_module("tracer", monkeypatch)
    gone = []
    for name, module, attr, *_ in layers.SPANS:
        importlib.import_module(f"{tracer.PACKAGE}.{module}")
        if tracer.lookup(module, attr) is None:
            gone.append(name)
    assert not gone, "benchmark spans with no function behind them: " + ", ".join(gone)


def test_every_benchmark_workload_prepares(tmp_path, monkeypatch):
    # prepare() builds the configs and calls the entry points a round uses
    _perfbench_module("tracer", monkeypatch)
    workloads = _perfbench_module("workloads", monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        workload(1, str(tmp_path / name)).prepare()
