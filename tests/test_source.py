"""Checks on the package source text."""

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
