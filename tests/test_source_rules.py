"""Rules that the package source keeps."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cyclic_cdc"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"


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
    "densify": "perfbench/probe.py builds the dense_gcd_us operands",
    "dense_gcd": "perfbench/probe.py times it (dense_gcd_us), perfbench/tracer.py counts its calls",
    "shift_transform": "perfbench/probe.py builds the dense_gcd_us operands",
    "ratio_to_bound": "scripts/size_comparison.py prints the n = 4k ratio",
    "enumerate_orbit": "perfbench/probe.py times it (enumerate_orbit_s), perfbench/tracer.py "
                       "wraps it by name",
    "build_union": "perfbench/probe.py builds the channel_gf4 and q3_general code files",
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
    # is not a reference, and the package root exports nothing but
    # __version__, so only KEPT_WITHOUT_CALLER is allowed.
    #
    # Names are matched, not classes: a method stays invisible here while
    # another class defines or calls the same name (PrimeField.pow hid behind
    # ExtensionField.pow).  A reachability scan finds those: run the tests and
    # the CLI under sys.setprofile, record (co_filename, co_firstlineno) of
    # every call into src/, and list the definitions (first decorator or def
    # line) that never appear.
    defined, referenced = _definitions_and_references()
    dead = sorted(
        f"{where} {name}"
        for name, places in defined.items()
        if name not in referenced and name not in KEPT_WITHOUT_CALLER
        for where in places
    )
    assert dead == []
    # every allowance still names a definition
    assert set(KEPT_WITHOUT_CALLER) <= set(defined)


def test_every_allowance_names_a_file_that_uses_it():
    # a reason names the repo files that keep the name alive; once one of
    # them no longer mentions it, the reason is stale
    for name, reason in KEPT_WITHOUT_CALLER.items():
        files = re.findall(r"[\w/]+\.py", reason)
        assert files, name
        for rel in files:
            assert (ROOT / rel).is_file(), (name, rel)
            assert re.search(rf"\b{name}\b", (ROOT / rel).read_text()), (name, rel)


def test_every_stored_attribute_is_read():
    # an attribute that src/ writes on self but never reads is dead state;
    # as above, a read of the same name on any object counts
    stored: dict[str, list[str]] = {}
    loaded: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.setdefault(node.attr, []).append(f"{path.relative_to(SRC)}:{node.lineno}")
    unread = sorted(
        f"{where} self.{name}"
        for name, places in stored.items()
        if name not in loaded
        for where in places
    )
    assert unread == []


# the package modules that each module may import, "__init__" being the package root
LAYERS = {
    "errors": set(),
    "field_tower": {"errors"},
    "subspace_linalg": {"errors", "field_tower"},
    "sidon_constructions": {"errors", "field_tower", "subspace_linalg"},
    "orbit_codes": {"errors", "field_tower", "sidon_constructions", "subspace_linalg"},
    "linearized_poly": {"errors", "field_tower", "subspace_linalg"},
    "channel_sim": {"errors", "field_tower", "orbit_codes", "subspace_linalg"},
    "cli": {"__init__", "errors", "field_tower", "subspace_linalg", "sidon_constructions",
            "orbit_codes", "linearized_poly", "channel_sim"},
    "__init__": set(),
}


def test_layers_import_only_their_dependencies():
    imported: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        found = imported.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                # "from .x import y" imports x; "from . import x" imports x if
                # it is a module, the package root otherwise
                names = [node.module] if node.module else [alias.name for alias in node.names]
                found.update(n if (SRC / f"{n}.py").is_file() else "__init__" for n in names)
    assert set(imported) == set(LAYERS)
    assert {m: deps - LAYERS[m] for m, deps in imported.items() if deps - LAYERS[m]} == {}


# a set or loop over the second members j of the collisions (i, j)
DROPS_SECOND_MEMBER = re.compile(r"for\s+_\s*,\s*\w+\s+in\s+[\w.]*collisions\b")


def test_only_subspace_linalg_drops_the_second_member_of_a_collision():
    # UnionScan.distinct is the one statement of the repeated-orbit rule, j
    # of a collision (i, j) repeats i: verify, poly and simulate read it
    found = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "subspace_linalg"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if DROPS_SECOND_MEMBER.search(line)
    ]
    assert found == []
    assert DROPS_SECOND_MEMBER.search((SRC / "subspace_linalg.py").read_text())


def test_only_subspace_linalg_and_build_union_size_an_orbit():
    # union_distance reads every generator's orbit size off its self pair's
    # histogram, and its UnionScan carries the sizes: verify, poly and the
    # codebook read them there.  orbit_size is that scan of one generator:
    # enumerate_orbit walks its orbit, and build_union states the claim of a
    # code built from arbitrary generators.  construct_code claims the closed
    # form and sizes no orbit.
    found = sorted(
        f"{path.stem}.{getattr(top, 'name', top.lineno)}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "orbit_size"
        or isinstance(node, ast.Attribute) and node.attr == "orbit_size"
    )
    assert found == ["orbit_codes.build_union", "subspace_linalg.enumerate_orbit"]


def _is_call_to(node, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def test_test_seeds_do_not_hash():
    # CPython salts the hash of a str per process (PYTHONHASHSEED), so a
    # generator seeded from hash(...) draws other values in every run and a
    # failure cannot be replayed; random.Random seeds from a str deterministically
    sources = sorted(TESTS.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _is_call_to(node, "Random")
        and any(_is_call_to(inner, "hash")
                for arg in [*node.args, *node.keywords] for inner in ast.walk(arg))
    ]
    assert found == []


# -- the names that the benchmark reaches -----------------------------------------
#
# perfbench/ is read, never imported: it reaches into the package by name, and
# a name renamed or removed in src/ fails only once a benchmark or traced run
# gets to it.


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_perfbench_tracer_wraps_names_that_exist():
    # tracer.py's SPANNED and COUNTED name, per layer, the functions that
    # every traced run wraps with getattr
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in _parse(PERFBENCH / "tracer.py").body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    missing = [
        f"{table}: {layer}.{name}"
        for table, layers in tables.items()
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"cyclic_cdc.{layer}"), name)
    ]
    assert missing == []


def test_perfbench_calls_names_that_exist():
    # every alias.attr with alias bound by "from cyclic_cdc import X as alias",
    # and every name of "from cyclic_cdc.X import name", in perfbench/*.py
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        aliases: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            if not (module or "").startswith("cyclic_cdc"):
                continue
            if module == "cyclic_cdc":
                for alias in node.names:
                    aliases.setdefault(alias.asname or alias.name, set()).add(alias.name)
            else:
                imported = importlib.import_module(module)
                missing += [f"{path.name}: {module}.{alias.name}"
                            for alias in node.names if not hasattr(imported, alias.name)]
        assert all(len(names) == 1 for names in aliases.values()), (path.name, aliases)
        modules = {alias: importlib.import_module(f"cyclic_cdc.{name}")
                   for alias, (name,) in aliases.items()}
        missing += [
            f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)
        ]
    assert missing == []
