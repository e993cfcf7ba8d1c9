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
