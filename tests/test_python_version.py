"""Every module parses as Python 3.10, the oldest version pyproject.toml's
``requires-python`` admits, so syntax from a later version (an ``except*``
clause, a ``type`` statement, generic class syntax) fails here first."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests")
                 for path in (ROOT / top).rglob("*.py"))


def test_python_floor_is_3_10():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in text


@pytest.mark.parametrize("path", SOURCES,
                         ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
