"""Rules that the package source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cyclic_cdc"


def test_package_has_no_assert_statements():
    # asserts vanish under python -O: broken invariants raise a CdcError
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
