"""Checks on the package source text."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "betacircuits"


def test_no_type_ignore():
    # A silenced type error hides a value that does not fit its declared
    # type, such as a model built without a field its type requires.
    files = sorted(SRC.rglob("*.py"))
    assert files
    hits = [f"{p.relative_to(SRC)}:{i}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), start=1)
            if "type: ignore" in line]
    assert hits == []


def test_no_scipy_import():
    # scipy is a test dependency only: the package must run without it.
    files = sorted(SRC.rglob("*.py"))
    assert files
    hits = [f"{p.relative_to(SRC)}:{i}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), start=1)
            if re.search(r"\b(import|from) scipy\b", line)]
    assert hits == []


def test_only_circuit_reads_children():
    # A gate's children are read in circuit.py only: every other module
    # reads a pass's gates from its schedule, in either direction.
    files = sorted(p for p in SRC.rglob("*.py") if p.name != "circuit.py")
    assert files
    hits = [f"{p.relative_to(SRC)}:{node.lineno}" for p in files
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "children"]
    assert hits == []


def _unused_imports(source: str) -> list[str]:
    """Names that ``source`` binds by import but never reads, leaving out
    ``__future__`` imports and names listed in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_import_check_sees_reads_and_exports():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import pi, tau\n"
              "__all__ = ['tau']\n"
              "print(os.sep)\n")
    assert _unused_imports(source) == ["2: osp", "3: pi"]


def test_no_unused_import():
    # The project runs no linter.  An import that nothing reads is dead
    # code that still costs load time.
    files = sorted(SRC.rglob("*.py"))
    assert files
    hits = [f"{p.relative_to(SRC)}:{hit}" for p in files
            for hit in _unused_imports(p.read_text())]
    assert hits == []


def test_cli_and_harness_do_not_convert_answers():
    # Every backend returns a QueryResult, so the two callers read its
    # label and never turn a raw value or sample set into one.
    converters = {"moment_match", "to_label", "mean_of"}
    hits = [f"{name}:{node.lineno}" for name in ("cli.py", "harness.py")
            for node in ast.walk(ast.parse((SRC / name).read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in converters]
    assert hits == []


def _dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assignments named ``_x`` (not
    dunder) that no module of ``sources`` reads, as a name or attribute."""
    defined = []
    read = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(name, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{line}: {ident}" for name, line, ident in defined
            if ident.startswith("_") and not ident.startswith("__")
            and ident not in read]


def test_dead_definition_check_sees_names_and_attributes():
    sources = {"a.py": "_x = 1\n_y: int = 2\n__all__ = []\n"
                       "def _f(): return _x\nclass _C: pass\n",
               "b.py": "import a\nprint(a._y)\n"}
    assert _dead_private_definitions(sources) == ["a.py:4: _f", "a.py:5: _C"]


def test_no_dead_private_definition():
    # A private helper that a simplification leaves unread is dead code
    # that the unused-import check does not see.
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert _dead_private_definitions(
        {str(p.relative_to(SRC)): p.read_text() for p in files}) == []
