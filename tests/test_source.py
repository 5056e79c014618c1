"""Properties of the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "germpack").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 7


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so invariants must be explicit raises
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"
