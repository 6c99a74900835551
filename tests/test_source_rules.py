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


# names kept in src/ although no code in src/ refers to them, with the reason
KEPT_WITHOUT_CALLER = {
    "build_rank_matrix": "perfbench/probe.py builds the field_matrix_rank_us operands",
    "densify": "perfbench/probe.py builds the dense_gcd_us operands",
    "dense_gcd": "perfbench times dense_gcd_us and counts gcd_calls through it",
    "shift_transform": "perfbench/probe.py builds the dense_gcd_us operands",
    "ratio_to_bound": "scripts/size_comparison.py prints the n = 4k ratio",
}


def _definitions_and_references():
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(
                        f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_src_definition_has_a_caller():
    # a function, method or class that nothing in src/ refers to belongs in
    # tests/oracles.py (if a test compares against it) or nowhere; an import
    # is not a reference, so the package's exports are allowed by name
    import cyclic_cdc

    allowed = set(KEPT_WITHOUT_CALLER) | set(cyclic_cdc.__all__)
    defined, referenced = _definitions_and_references()
    dead = sorted(
        f"{where} {name}"
        for name, places in defined.items()
        if name not in referenced and name not in allowed
        for where in places
    )
    assert dead == []
    # every allowance still names a definition
    assert set(KEPT_WITHOUT_CALLER) <= set(defined)
