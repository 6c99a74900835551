import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import sidon_by_products, sorted_codebook
from strategies import FROBENIUS_TOWERS, frobenius_space

from cyclic_cdc import cli
from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import BrokenInvariant
from cyclic_cdc.field_tower import build_tower

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "polys_gf4_k3.json"


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def even_code_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("codes") / "even228.json"
    assert run(["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "even",
                "--out", out]) == cli.EXIT_OK
    return out


def test_construct_verify_roundtrip(even_code_file, tmp_path):
    report_path = tmp_path / "report.json"
    code = run(["verify", "--code", even_code_file, "--mode", "exact",
                "--out", report_path])
    assert code == cli.EXIT_OK
    rep = json.loads(report_path.read_text())
    assert rep["verified_size"] == "1020" and rep["verified_min_distance"] == 2


def test_construct_writes_construct_code(tmp_path):
    out = tmp_path / "odd422.json"
    assert run(["construct", "--q", 4, "--k", 2, "--r", 2, "--parity", "odd",
                "--out", out]) == cli.EXIT_OK
    assert out.read_text() == cli._dumps(oc.construct_code(4, 2, 2, "odd").to_json()) + "\n"


def test_construct_manifest_reports_its_work(tmp_path):
    # the construct time and the family against the scan budget go to the
    # manifest; the result file and its digest stay those of the code alone
    out = tmp_path / "odd2210.json"
    assert run(["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "odd",
                "--out", out]) == cli.EXIT_OK
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert set(manifest["timings"]) == {"time_construct", "time_encode"}
    assert manifest["counters"] == {"generators": 33, "budget": oc.DEFAULT_SCAN_BUDGET}
    assert out.read_text() == cli._dumps(oc.construct_code(2, 2, 2, "odd").to_json()) + "\n"
    assert manifest["result_digest"] == PINNED_DIGESTS["construct-odd-2-2-10"]


def test_construct_verify_roundtrip_odd(tmp_path):
    code_path = tmp_path / "odd2210.json"
    assert run(["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "odd",
                "--out", code_path]) == cli.EXIT_OK
    report_path = tmp_path / "odd_report.json"
    assert run(["verify", "--code", code_path, "--mode", "exact",
                "--out", report_path]) == cli.EXIT_OK
    rep = json.loads(report_path.read_text())
    assert rep["verified_size"] == "33759" and rep["verified_min_distance"] == 2


def test_verify_rejects_criterion_mode(even_code_file, tmp_path, capsys):
    # exact is the only mode; an unknown choice is a usage error, exit 4
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--code", even_code_file, "--mode", "criterion",
             "--out", tmp_path / "crit.json"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "invalid choice: 'criterion'" in capsys.readouterr().err
    assert not (tmp_path / "crit.json").exists()


@pytest.mark.parametrize("argv, exit_code, text", [
    (["verify", "--code", "x", "--budget", "abc"], cli.EXIT_INPUT, "invalid int value: 'abc'"),
    (["construct", "--q", 2, "--k", 2, "--r", 2], cli.EXIT_INPUT, "required: --parity"),
    (["nosuch"], cli.EXIT_INPUT, "invalid choice: 'nosuch'"),
    (["--help"], cli.EXIT_OK, "usage: cyclic-cdc"),
], ids=["budget-not-int", "missing-parity", "unknown-subcommand", "help"])
def test_usage_errors_exit_4(argv, exit_code, text, capsys):
    # argparse's own exit 2 would read as a failed check
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == exit_code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err


def test_verify_flags_corrupted_generator(even_code_file, tmp_path):
    # swap one generator for the subfield: valid RREF but wrong orbit size
    # and not Sidon
    obj = json.loads(Path(even_code_file).read_text())
    obj["generators"][0]["basis"] = [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "badreport.json"
    assert run(["verify", "--code", bad, "--mode", "exact", "--out", out]) == cli.EXIT_MISMATCH
    rep = json.loads(out.read_text())
    assert not rep["size_claim_ok"]
    # the sidon checker names the failing generator
    out2 = tmp_path / "sidon.json"
    assert run(["sidon-check", "--code", bad, "--out", out2]) == cli.EXIT_MISMATCH
    assert json.loads(out2.read_text())["sidon_failures"] == [0]
    # the subfield is not max-span, so it reaches the point-ratio filter
    counters = json.loads(Path(f"{out2}.manifest.json").read_text())["counters"]
    assert counters["certified"] == 3 and counters["scanned"] == 1


def test_sidon_check_scans_generators_that_are_not_max_span(tmp_path):
    # frobenius spaces in GF(3^8) have dimension 4, so their 10 basis products
    # cannot be independent; these three gammas give Sidon spaces
    tw = build_tower(*FROBENIUS_TOWERS[3])
    gens = [frobenius_space(tw, gamma) for gamma in (81, 82, 83)]
    assert all(sidon_by_products(g) for g in gens)
    code_path = tmp_path / "frobenius.json"
    code_path.write_text(json.dumps(oc.build_union(tw, gens).to_json()))
    out = tmp_path / "sidon.json"
    assert run(["sidon-check", "--code", code_path, "--out", out]) == cli.EXIT_OK
    result = json.loads(out.read_text())
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    counters = manifest["counters"]
    assert result["all_sidon"] and result["n_generators"] == 3
    assert counters["certified"] + counters["scanned"] == result["n_generators"]
    # 10 basis products exceed m = 8, so none is formed; each generator has
    # 40 points and 40 * 39 ordered ratios
    assert counters == {"certified": 0, "scanned": 3, "products": 0,
                        "point_ratios": 3 * 40 * 39}
    assert set(manifest["timings"]) == {"time_load", "time_sidon", "time_encode"}
    assert "time_sidon" not in result


def test_verify_budget_infeasible(even_code_file, tmp_path):
    assert run(["verify", "--code", even_code_file, "--mode", "exact",
                "--budget", 5, "--out", tmp_path / "x.json"]) == cli.EXIT_INFEASIBLE


def test_verify_refused_by_the_budget_sizes_no_orbit(even_code_file, tmp_path, monkeypatch):
    # the budget is checked before the scan forms any histogram, the orbit
    # sizes among them, so a refused verify pays for none
    for module in (sl, oc):
        monkeypatch.setattr(module, "orbit_size", _fail_if_called("orbit sized"))
    monkeypatch.setattr(sl, "shift_dims", _fail_if_called("histogram formed"))
    assert run(["verify", "--code", even_code_file, "--budget", 0,
                "--out", tmp_path / "x.json"]) == cli.EXIT_INFEASIBLE


def test_verify_criterion_budget_infeasible(tmp_path):
    # the exact distance of the odd (2,2,10) code examines 33 generators x
    # 3 x 2 point ratios and shares none: one less is over budget, exactly
    # that is not
    code_path = tmp_path / "odd2210.json"
    assert run(["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "odd",
                "--out", code_path]) == cli.EXIT_OK
    assert run(["verify", "--code", code_path, "--mode", "exact",
                "--budget", 33 * 3 * 2 - 1, "--out", tmp_path / "over.json"]) == cli.EXIT_INFEASIBLE
    assert run(["verify", "--code", code_path, "--mode", "exact",
                "--budget", 33 * 3 * 2, "--out", tmp_path / "ok.json"]) == cli.EXIT_OK
    manifest = json.loads(Path(str(tmp_path / "ok.json") + ".manifest.json").read_text())
    assert manifest["counters"] == {"pairs": 561, "point_ratios": 198, "shared_pairs": 0,
                                    "budget": 198}


@pytest.mark.parametrize("command", ["verify", "sidon-check", "simulate"])
def test_empty_or_mixed_generator_lists_are_input_errors(even_code_file, tmp_path, command, capsys):
    obj = json.loads(Path(even_code_file).read_text())
    empty = dict(obj, generators=[])
    one_dim = {"ambient_dim": 8, "dim": 1, "basis": [[1, 0, 0, 0, 0, 0, 0, 0]]}
    mixed = dict(obj, generators=obj["generators"] + [one_dim])
    zero_dim = dict(obj, generators=[{"ambient_dim": 8, "dim": 0, "basis": []}])
    for name, code in (("empty", empty), ("mixed", mixed), ("zero_dim", zero_dim)):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(code))
        assert run([command, "--code", src]) == cli.EXIT_INPUT, name
        assert "DimensionMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sidon-check", "simulate"])
@pytest.mark.parametrize("row", [[0] * 8 + [1], [3, 0, 0, 0, 0, 0, 0, 0],
                                 [1.0, 0, 0, 0, 0, 0, 0, 0], [True, 0, 0, 0, 0, 0, 0, 0]],
                         ids=["nine-coordinates", "digit-3-over-q2", "float-digit", "true-digit"])
def test_basis_rows_outside_gf2_8_are_input_errors(even_code_file, tmp_path, command, row, capsys):
    # unchecked, a 9-coordinate row indexes past the log table, the digit 3
    # loads as the element 3 = (1, 1, 0, ...), another subspace, and the
    # digit 1.0 stops the elimination with a TypeError (exit 1)
    obj = json.loads(Path(even_code_file).read_text())
    obj["generators"] = [{"ambient_dim": 8, "dim": 1, "basis": [row]}]
    src = tmp_path / "bad_row.json"
    src.write_text(json.dumps(obj))
    assert run([command, "--code", src, "--out", tmp_path / "out.json"]) == cli.EXIT_INPUT
    assert "BadShape" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# rows of test_out_of_range_parameters refused before a tower is built: the
# (3,1,10,3) tower takes about 0.4 s, and an over-budget family's tower can
# take minutes
BUILDS_NO_TOWER = {"construct-r1", "construct-even-above-log-tables",
                   "construct-odd-above-budget", "construct-even-k14", "construct-odd-r30"}


@pytest.mark.parametrize("argv, exit_code, text", [
    (["bounds", "--q", 1, "--n", 8, "--k", 2, "--d", 4], cli.EXIT_INPUT, "NotPrime"),
    (["bounds", "--q", 6, "--n", 8, "--k", 2, "--d", 4], cli.EXIT_INPUT, "NotPrime"),
    (["table", "--q", 1, "--k", 2, "--r", 2, "--parity", "odd"], cli.EXIT_INPUT, "NotPrime"),
    (["bounds", "--q", 2, "--n", 8, "--k", 2, "--d", 3], cli.EXIT_INPUT, "InvalidParams"),
    (["bounds", "--q", 2, "--n", 1, "--k", 3, "--d", 2], cli.EXIT_INPUT, "InvalidParams"),
    (["table", "--q", 2, "--k", 2, "--r", 1, "--parity", "odd"], cli.EXIT_INPUT, "InvalidParams"),
    (["poly", "--file", ("poly", "polys", []), "--N", 14], cli.EXIT_INPUT, "InvalidParams"),
    # the coefficient degree divides N: one below 1 is named before the division
    (["poly", "--file", ("poly", "coeff_field_degree", 0), "--N", 14], cli.EXIT_INPUT,
     "InvalidParams: coeff_field_degree must be >= 1, got 0"),
    (["poly", "--file", ("poly", "coeff_field_degree", -2), "--N", 14], cli.EXIT_INPUT,
     "InvalidParams: coeff_field_degree must be >= 1, got -2"),
    # so is an N below 1, which hosts no tower
    (["poly", "--file", DATA, "--N", 0], cli.EXIT_INPUT, "InvalidParams: N must be >= 1, got 0"),
    (["poly", "--file", DATA, "--N", -14], cli.EXIT_INPUT,
     "InvalidParams: N must be >= 1, got -14"),
    # a negative budget is no scan limit: refused, not reported as infeasible
    (["verify", "--code", "CODE", "--budget", -1], cli.EXIT_INPUT,
     "InvalidParams: budget must be >= 0, got -1"),
    (["poly", "--file", DATA, "--N", 14, "--budget", -1], cli.EXIT_INPUT,
     "InvalidParams: budget must be >= 0, got -1"),
    # a row's distance is 2k - 2, so k < 2 is named before any formula
    (["table", "--q", 2, "--k", 0, "--r", 2, "--parity", "odd"], cli.EXIT_INPUT,
     "InvalidParams: a table row needs k >= 2, got k = 0"),
    (["table", "--q", 2, "--k", 1, "--r", 2, "--parity", "odd"], cli.EXIT_INPUT,
     "InvalidParams: a table row needs k >= 2, got k = 1"),
    # the family is counted from its closed form, not enumerated, and refused
    # over the budget before its tower is built (see BUILDS_NO_TOWER): at
    # r = 2, (q-1)(q^k-1) + 1 times floor((q^k-2)/2) even tuples, and
    # 3(q-1)(q^k-1)^2 + 2(q^k-1) odd ones
    (["construct", "--q", 17, "--k", 4, "--r", 2, "--parity", "even"], cli.EXIT_INFEASIBLE,
     "the family has 55803428639 tuples, over the budget 67108864"),
    (["construct", "--q", 17, "--k", 4, "--r", 2, "--parity", "odd"], cli.EXIT_INFEASIBLE,
     "the family has 334828506240 tuples, over the budget 67108864"),
    (["construct", "--q", 2, "--k", 14, "--r", 2, "--parity", "even"], cli.EXIT_INFEASIBLE,
     "the family has 134201344 tuples, over the budget 67108864"),
    (["construct", "--q", 2, "--k", 2, "--r", 30, "--parity", "odd"], cli.EXIT_INFEASIBLE,
     "the family has 11324012265205695 tuples, over the budget 67108864"),
    # r is refused before any tower is built (see BUILDS_NO_TOWER)
    (["construct", "--q", 3, "--k", 10, "--r", 1, "--parity", "odd"], cli.EXIT_INPUT,
     "InvalidParams: r must be >= 2"),
    # beyond d = 2k a code holds one word: both bounds are 1
    (["bounds", "--q", 2, "--n", 8, "--k", 2, "--d", 8], cli.EXIT_OK, '"sphere_packing": "1"'),
    # integer fields of input files take JSON integers only: a float or a
    # bool is neither truncated nor read as 1
    (["verify", "--code", ("code", "tower.p", 2.0)], cli.EXIT_INPUT, "BadShape: p must"),
    (["verify", "--code", ("code", "claimed_min_distance", 2.9)], cli.EXIT_INPUT,
     "BadShape: claimed_min_distance must"),
    (["verify", "--code", ("code", "claimed_min_distance", True)], cli.EXIT_INPUT,
     "BadShape: claimed_min_distance must"),
    (["verify", "--code", ("code", "claimed_size", 1020.7)], cli.EXIT_INPUT,
     "BadShape: claimed_size must"),
    (["verify", "--code", ("code", "claimed_size", 1020)], cli.EXIT_OK, '"ok": true'),
    # a claimed size string is the canonical decimal that to_json writes: a
    # leading zero, or full-width digits (str.isdecimal accepts them), is a
    # second spelling of the same claim; a provenance is a string
    (["verify", "--code", ("code", "claimed_size", "01020")], cli.EXIT_INPUT,
     "BadShape: claimed_size '01020' is not a canonical decimal string"),
    (["verify", "--code", ("code", "claimed_size", "\uff11\uff10\uff12\uff10")], cli.EXIT_INPUT,
     "is not a canonical decimal string"),
    (["verify", "--code", ("code", "provenance", [1, 2])], cli.EXIT_INPUT,
     "BadShape: provenance must be of type str"),
    (["verify", "--code", ("code", "generators.0.dim", 2.0)], cli.EXIT_INPUT,
     "BadShape: dim must"),
    # a basis digit is a JSON integer in range(q), q = 2 here
    (["verify", "--code", ("code", "generators.0.basis.0.0", True)], cli.EXIT_INPUT,
     "BadShape: basis row"),
    (["verify", "--code", ("code", "generators.0.basis.0.0", 1.0)], cli.EXIT_INPUT,
     "BadShape: basis row"),
    (["verify", "--code", ("code", "generators.0.basis.0.0", -1)], cli.EXIT_INPUT,
     "BadShape: basis row"),
    (["verify", "--code", ("code", "generators.0.basis.0.0", 2)], cli.EXIT_INPUT,
     "BadShape: basis row"),
    (["verify", "--code", ("code", "generators.0.basis.0.0", "1")], cli.EXIT_INPUT,
     "BadShape: basis row"),
    (["poly", "--file", ("poly", "s", 1.5), "--N", 14], cli.EXIT_INPUT, "BadShape: s must"),
    (["poly", "--file", ("poly", "k", 3.0), "--N", 14], cli.EXIT_INPUT, "BadShape: k must"),
    (["poly", "--file", ("poly", "q", 2.0), "--N", 14], cli.EXIT_INPUT, "BadShape: q must"),
    (["poly", "--file", ("poly", "polys.0.2", 1.5), "--N", 14], cli.EXIT_INPUT,
     "BadShape: 2 must"),
    # a coordinate array lists one integer digit per level: [[1], [0]] is 1
    # in GF(4) over GF(2); 1.9 is not truncated, and a missing level is no
    # TypeError (exit 1)
    (["poly", "--file", ("poly", "polys.0.2", [[1.9], [0]]), "--N", 14], cli.EXIT_INPUT,
     "BadShape: coordinate 1.9"),
    (["poly", "--file", ("poly", "polys.0.2", [1, 0]), "--N", 14], cli.EXIT_INPUT,
     "BadShape: 1 is not a list"),
    # the tower spec must be the deterministic construction: x^4 + 1 is not
    # its defining polynomial, and k = 0 is no tower
    (["verify", "--code", ("code", "tower.def_poly_top", [[[1], [0]]] + [[[0], [0]]] * 3
                           + [[[1], [0]]])], cli.EXIT_INPUT,
     "BadShape: tower spec does not match"),
    (["verify", "--code", ("code", "tower.k", 0)], cli.EXIT_INPUT,
     "InvalidParams: a, k, t must be >= 1"),
    # a container of the wrong JSON type is BadShape, not a TypeError or
    # AttributeError (exit 1 with a traceback)
    (["poly", "--file", ("poly", "polys", 5), "--N", 14], cli.EXIT_INPUT,
     "BadShape: polys must be of type list"),
    (["poly", "--file", ("poly", "polys", [[1, 2]]), "--N", 14], cli.EXIT_INPUT,
     "BadShape: expected a JSON object, got list"),
    (["poly", "--file", ("poly", "", [1, 2]), "--N", 14], cli.EXIT_INPUT,
     "BadShape: expected a JSON object, got list"),
], ids=["bounds-q1", "bounds-q6", "table-q1", "bounds-odd-d", "bounds-n-below-k",
        "table-r1", "poly-empty-family", "poly-coeff-degree-0", "poly-coeff-degree-negative",
        "poly-N-0", "poly-N-negative",
        "verify-negative-budget", "poly-negative-budget",
        "table-k0", "table-k1", "construct-even-above-log-tables", "construct-odd-above-budget",
        "construct-even-k14", "construct-odd-r30", "construct-r1", "bounds-d-above-2k",
        "verify-float-p", "verify-float-distance", "verify-bool-distance", "verify-float-size",
        "verify-int-size", "verify-zero-padded-size", "verify-full-width-size",
        "verify-list-provenance", "verify-float-dim", "verify-bool-digit", "verify-float-digit",
        "verify-negative-digit", "verify-digit-q", "verify-string-digit", "poly-float-s",
        "poly-float-k", "poly-float-q",
        "poly-float-exponent", "poly-float-coordinate", "poly-missing-level",
        "verify-changed-def-poly-top", "verify-k-zero", "poly-polys-number",
        "poly-poly-array", "poly-top-level-array"])
def test_out_of_range_parameters(argv, exit_code, text, even_code_file, tmp_path, capsys,
                                 request, monkeypatch):
    # an argument (source, dotted path, value) is a copy of the bundled poly
    # family or the even (2,2,8) code file with that one field set, and CODE
    # is that code file unchanged
    sources = {"poly": DATA, "code": even_code_file}
    if request.node.callspec.id in BUILDS_NO_TOWER:
        monkeypatch.setattr(oc, "build_tower", _fail_if_called("tower built"))

    def written(arg):
        if arg == "CODE":
            return even_code_file
        return _edited(sources[arg[0]], *arg[1:], tmp_path) if isinstance(arg, tuple) else arg

    assert run([written(a) for a in argv]) == exit_code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err


def _edited(source, dotted, value, tmp_path):
    """A copy of the JSON file ``source`` with the field at the dotted path
    (list indices as integers) set to ``value``; the empty path replaces the
    whole document."""
    obj = json.loads(Path(source).read_text())
    if dotted:
        *path, key = dotted.split(".")
        node = obj
        for part in path:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(key) if isinstance(node, list) else key] = value
    else:
        obj = value
    out = tmp_path / f"edited-{Path(source).name}"
    out.write_text(json.dumps(obj))
    return out


@pytest.mark.parametrize("command", ["verify", "sidon-check", "simulate"])
@pytest.mark.parametrize("dotted, value", [
    ("generators", 5), ("generators.0", "x"), ("generators.0.basis", 7),
    ("generators.0.basis.0", 3), ("tower", []), ("", [1, 2]),
], ids=["generators-number", "generator-string", "basis-number", "basis-row-number",
        "tower-array", "top-level-array"])
def test_malformed_code_files_are_input_errors(command, dotted, value, even_code_file, tmp_path,
                                               capsys):
    # a container of the wrong JSON type is BadShape, not a TypeError (exit 1
    # with a traceback)
    src = _edited(even_code_file, dotted, value, tmp_path)
    assert run([command, "--code", src, "--out", tmp_path / "out.json"]) == cli.EXIT_INPUT
    assert "BadShape" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_missing_file_is_input_error(tmp_path):
    assert run(["verify", "--code", tmp_path / "nope.json"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "even"],
    ["verify", "--code", "CODE"],
    ["sidon-check", "--code", "CODE"],
    ["bounds", "--q", 2, "--n", 8, "--k", 2, "--d", 2],
    ["table", "--q", "2,3", "--k", 2, "--r", 2],
    ["poly", "--file", DATA, "--N", 14],
    ["simulate", "--code", "CODE", "--erasures", 1, "--trials", 3],
], ids=lambda argv: argv[0])
def test_stdout_without_out_is_one_json_document(argv, even_code_file, capsys):
    # without --out the result is all that goes to stdout (the manifest goes
    # to stderr), so every run pipes into a JSON reader
    assert run([even_code_file if a == "CODE" else a for a in argv]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == cli._dumps(json.loads(out)) + "\n"


def test_bounds_command(capsys):
    assert run(["bounds", "--q", 2, "--n", 8, "--k", 2, "--d", 2]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["sphere_packing"] == out["johnson"] == "10795"


def test_table_command(tmp_path, capsys):
    out = tmp_path / "table.json"
    csv = tmp_path / "table.csv"
    assert run(["table", "--q", 3, "--k", 3, "--r", 2, "--parity", "odd",
                "--csv", csv, "--out", out]) == cli.EXIT_OK
    row = json.loads(out.read_text())["rows"][0]
    assert row["ours"] == str(3 * 26 ** 2 * (3 ** 15 - 1) + 26 * (3 ** 15 - 1))
    assert abs(row["rate_ours"] - 0.488) < 1e-3
    assert abs(row["rate_known_5k"] - 0.474) < 1e-3
    assert abs(row["rate_best_known"] - 0.480) < 1e-3
    assert csv.read_text().count("\n") == 2  # header + one row


def test_table_row_with_non_integral_johnson_product(tmp_path):
    # the Johnson product at (2, 20, 4, 6) is 549754241025 / 105: the row
    # reports its floor
    out = tmp_path / "table.json"
    assert run(["table", "--q", 2, "--k", 4, "--r", 2, "--parity", "odd",
                "--out", out]) == cli.EXIT_OK
    row = json.loads(out.read_text())["rows"][0]
    assert row["johnson"] == str(549754241025 // 105)


def test_poly_command_passes(tmp_path):
    out = tmp_path / "poly.json"
    assert run(["poly", "--file", DATA, "--N", 14, "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["criteria"]["passed"] and rep["criteria_gf2"]["passed"]
    assert rep["criteria"]["alphas_checked"] == 16382
    assert rep["exact"]["size"] == "49149"
    assert rep["exact"]["distance"] == 4
    assert rep["exact"]["orbit_collisions"] == []
    # phase timings and the work done go to the manifest, not the result
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert set(manifest["timings"]) == {"time_criteria", "time_criteria_gf2", "time_distance",
                                        "time_encode"}
    assert not any(key.startswith("time_") for key in rep)
    # the distance and the rank condition share one scan: the 3 kernels'
    # 7 x 6 internal point ratios each, and no pair shares one
    assert manifest["counters"]["point_ratios"] == 3 * 7 * 6 == 126
    assert manifest["counters"]["shared_pairs"] == 0
    assert set(manifest["counters"]) == {"pairs", "point_ratios", "shared_pairs", "budget"}


def test_poly_at_N_28_reads_every_shift_off_the_histograms(tmp_path):
    # 2^28 - 2 admissible shifts: the criteria cost the same 126 point ratios
    # as at N = 14
    out = tmp_path / "poly28.json"
    assert run(["poly", "--file", DATA, "--N", 28, "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["criteria"]["alphas_checked"] == 2 ** 28 - 2 == 268435454
    assert rep["criteria"]["passed"] and rep["criteria_gf2"]["passed"]
    assert rep["exact"]["distance"] == 4 and rep["exact"]["size"] == "805306365"
    # a scan of every shift took minutes here; the histograms take milliseconds
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["timings"]["time_criteria"] < 5


def test_poly_criteria_budget_counts_point_ratios(tmp_path, capsys, monkeypatch):
    # the exact distance and the criteria share one budget: 126 point ratios,
    # refused before a point of any kernel is listed
    with monkeypatch.context() as patched:
        patched.setattr(sl.Subspace, "projective_reps", _fail_if_called("points listed"))
        assert run(["poly", "--file", DATA, "--N", 14, "--budget", 125,
                    "--out", tmp_path / "over.json"]) == cli.EXIT_INFEASIBLE
    assert "126 point ratios exceeds budget 125" in capsys.readouterr().err
    assert run(["poly", "--file", DATA, "--N", 14, "--budget", 126,
                "--out", tmp_path / "ok.json"]) == cli.EXIT_OK


@pytest.mark.parametrize("n", [16, 18])
def test_poly_short_kernel_exits_before_the_rank_scan(n, monkeypatch, capsys):
    # the family's kernels are {0} in GF(2^16) and GF(2^18): poly must say so
    # before the one scan that the distance and the rank condition read
    def no_scan(*args):
        raise AssertionError("scan before the kernel check")

    monkeypatch.setattr(sl, "shared_pairs", no_scan)
    assert run(["poly", "--file", DATA, "--N", n]) == cli.EXIT_INPUT
    assert "BadSupport: kernel dimension 0" in capsys.readouterr().err


POLY_RANK_FAILURE = {"q": 2, "coeff_field_degree": 2, "k": 3, "s": 1,
                     "polys": [{"3": 0, "2": 0, "1": 1, "0": 2}]}


def test_poly_builds_each_kernel_once_and_scans_once(tmp_path, monkeypatch):
    # the distance and both criteria read one scan: e kernels, one
    # shared_pairs, one shift_dims per shared pair; each criterion ranks one
    # matrix, its witness's, on a failing family, and none on a passing one
    from cyclic_cdc import linearized_poly as lp

    calls = {}
    for module, name in ((lp, "kernel_subspace"), (sl, "shared_pairs"), (sl, "shift_dims"),
                         (lp, "field_matrix_rank")):
        calls[name] = 0

        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    bundled = json.loads(DATA.read_text())
    colliding = dict(bundled, polys=bundled["polys"] + bundled["polys"][:1])
    for label, family, n, exit_code in (("bundled", bundled, 14, cli.EXIT_OK),
                                        ("colliding", colliding, 14, cli.EXIT_MISMATCH),
                                        ("failing", POLY_RANK_FAILURE, 6, cli.EXIT_MISMATCH)):
        calls.update(dict.fromkeys(calls, 0))
        src, out = tmp_path / f"{label}.json", tmp_path / f"{label}.out.json"
        src.write_text(json.dumps(family))
        assert run(["poly", "--file", src, "--N", n, "--out", out]) == exit_code
        rep = json.loads(out.read_text())
        counters = json.loads(Path(f"{out}.manifest.json").read_text())["counters"]
        witnesses = [rep[key]["rank_witness"] for key in ("criteria", "criteria_gf2")]
        assert calls == {"kernel_subspace": rep["e"], "shared_pairs": 1,
                         "shift_dims": counters["shared_pairs"],
                         "field_matrix_rank": sum(w is not None for w in witnesses)}, label
        if label == "bundled":
            assert counters["shared_pairs"] == 0 and witnesses == [None, None]
        elif label == "colliding":
            # member 3 repeats the orbit of member 0: the size counts it once
            assert rep["exact"]["orbit_collisions"] == [[0, 3]]
            assert rep["exact"]["size"] == "49149" and witnesses == [None, None]
        else:
            assert counters["shared_pairs"] == 1 and witnesses == [[0, 0, 2, 2]] * 2


def test_poly_command_rank_failure(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(POLY_RANK_FAILURE))
    out = tmp_path / "badpoly.json"
    assert run(["poly", "--file", src, "--N", 6, "--out", out]) == cli.EXIT_MISMATCH
    rep = json.loads(out.read_text())
    assert rep["criteria"]["rank_condition_ok"] is False
    assert rep["criteria"]["rank_witness"] == [0, 0, 2, 2]
    assert rep["exact"]["distance"] == 2


@pytest.mark.parametrize("key", [" 1", "02"])
def test_poly_refuses_a_second_spelling_of_an_exponent(key, tmp_path, capsys):
    # " 1" and "02" would overwrite the coefficient keyed "1" or "2"
    family = {"q": 2, "coeff_field_degree": 2, "k": 3, "s": 1,
              "polys": [{"3": 0, "2": 1, "1": 0, "0": 0, key: 1}]}
    src = tmp_path / "dup.json"
    src.write_text(json.dumps(family))
    assert run(["poly", "--file", src, "--N", 6]) == cli.EXIT_INPUT
    assert f"BadShape: exponent key {key!r} is not a plain decimal" in capsys.readouterr().err


def test_poly_command_s_out_of_range(tmp_path, capsys):
    # s comes from the family file; k = 3 allows s = 1 only
    src = tmp_path / "s2.json"
    src.write_text(json.dumps(dict(json.loads(DATA.read_text()), s=2)))
    assert run(["poly", "--file", src, "--N", 14]) == cli.EXIT_INPUT
    assert "BadSupport" in capsys.readouterr().err
    # there is no --s option to override the file's s
    with pytest.raises(SystemExit) as exc:
        run(["poly", "--file", DATA, "--N", 14, "--s", 1])
    assert exc.value.code == cli.EXIT_INPUT


def test_verify_reports_the_exact_size_of_a_repeated_orbit(even_code_2_2_8, tmp_path):
    # g^77 * U_2 repeats the orbit of generator 2: the union keeps the 1,020
    # words of even (2,2,8), which the claim of build_union overcounts by
    # that orbit's 255; simulate's codebook holds the same 1,020 words
    gens = even_code_2_2_8.generators
    code = oc.build_union(even_code_2_2_8.tower, gens + (sl.cyclic_shift(gens[2], 77),))
    src, out = tmp_path / "repeated.json", tmp_path / "verify.json"
    src.write_text(json.dumps(code.to_json()))
    assert run(["verify", "--code", src, "--out", out]) == cli.EXIT_MISMATCH
    rep = json.loads(out.read_text())
    assert rep["verified_size"] == "1020" and rep["orbit_collisions"] == [[2, 4]]
    assert rep["claimed_size"] == str(1020 + 255)
    assert rep["size_claim_ok"] is False and rep["distance_claim_ok"] is True
    assert len(cli.ch.materialize_codebook(code)) == 1020


def test_verify_subfield_orbit_reports_double_distance(tmp_path):
    # an orbit of the middle subfield has distance 2k, not 2k-2
    from cyclic_cdc import orbit_codes as oc
    from cyclic_cdc.field_tower import build_tower

    tw = build_tower(2, 1, 2, 5)
    F4 = sl.span(tw, range(1, 4))
    code = oc.UnionCode(tw, (F4,), (2 ** 10 - 1) // 3, 4, "subfield orbit")
    src = tmp_path / "subfield.json"
    src.write_text(json.dumps(code.to_json()))
    out = tmp_path / "subfield_report.json"
    assert run(["verify", "--code", src, "--mode", "exact", "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["verified_min_distance"] == 4 and rep["verified_size"] == "341"


def test_construct_q3_k3_claims_formula_size(tmp_path):
    from cyclic_cdc import orbit_codes as oc

    out = tmp_path / "odd3315.json"
    assert run(["construct", "--q", 3, "--k", 3, "--r", 2, "--parity", "odd",
                "--out", out]) == cli.EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj["generators"]) == 4108
    assert obj["claimed_size"] == str(oc.construction_size(3, 3, 2, "odd"))


def test_simulate_command(even_code_file, tmp_path):
    out = tmp_path / "sim.json"
    assert run(["simulate", "--code", even_code_file, "--erasures", 0,
                "--insertions", 0, "--trials", 40, "--seed", 3,
                "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["successes"] == 40 and rep["guarantee_active"] is True
    # each noiseless R is a full-orbit line: 3 points x 4 generators x 3
    # points of point ratios, and one maximising shift, per trial
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert set(manifest["timings"]) == {"time_load", "time_codebook", "time_trials", "time_encode"}
    assert manifest["counters"] == {"point_ratios": 40 * 36, "decode_candidates": 40,
                                    "orbits": 4, "generators_skipped": 0}
    assert "counters" not in rep and not any(key.startswith("time_") for key in rep)


def test_simulate_decodes_one_generator_per_orbit(tmp_path):
    # two generators of one 85-word GF(2^8) orbit: the shifted copy, an
    # orbit collision, is dropped and not decoded against, so each noiseless
    # trial takes the 3 x 3 point ratios and 3 shifts of one generator, not
    # twice as many
    tw = build_tower(2, 1, 2, 4)
    u = sl.span(tw, range(1, 3))
    code = oc.build_union(tw, [u, sl.cyclic_shift(u, tw.top.primitive)])
    src, out = tmp_path / "repeated.json", tmp_path / "sim.json"
    src.write_text(json.dumps(code.to_json()))
    assert run(["simulate", "--code", src, "--trials", 30, "--seed", 2,
                "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["successes"] == 30 and rep["codebook_size"] == 85
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["counters"] == {"point_ratios": 270, "decode_candidates": 90,
                                    "orbits": 1, "generators_skipped": 1}


def test_simulate_forms_the_point_inverses_once(tmp_path, monkeypatch):
    # the union of the GF(4) family's 3 kernel orbits in GF(2^14), as the
    # benchmark's channel workload builds it: the scan behind the codebook
    # inverts the 3 x 7 points in one batch, and the trials decode with them
    from cyclic_cdc import field_tower as ft
    from cyclic_cdc import linearized_poly as lp

    tower, polys, _, _ = lp.poly_family_from_json(json.loads(DATA.read_text()), 14)
    code = oc.build_union(tower, [lp.kernel_subspace(P) for P in polys])
    src, out = tmp_path / "gf4_union.json", tmp_path / "sim.json"
    src.write_text(json.dumps(code.to_json()))
    calls = []

    def counted(top, xs, fn=ft.batch_inverse):
        calls.append(len(xs))
        return fn(top, xs)

    for module in (sl, cli.ch):
        monkeypatch.setattr(module, "batch_inverse", counted, raising=False)
    assert run(["simulate", "--code", src, "--erasures", 1, "--trials", 20, "--seed", 1,
                "--out", out]) == cli.EXIT_OK
    assert calls == [3 * 7]
    rep = json.loads(out.read_text())
    assert rep["successes"] == 20 and rep["codebook_size"] == 49149


def _fail_if_called(what):
    def fail(*args):
        raise AssertionError(what)
    return fail


def test_simulate_runs_on_a_7174453_word_orbit(one_orbit_code_3_3_15, tmp_path, monkeypatch):
    # one orbit of the odd (3,3,15) code: each sent word is a shift of its
    # generator, so one erasure decodes without walking the orbit
    monkeypatch.setattr(sl, "enumerate_orbit", _fail_if_called("orbit walked"))
    src = tmp_path / "one_orbit_3_3_15.json"
    src.write_text(json.dumps(one_orbit_code_3_3_15.to_json()))
    out = tmp_path / "sim.json"
    assert run(["simulate", "--code", src, "--erasures", 1, "--trials", 2,
                "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["codebook_size"] == 7174453
    assert rep["successes"] == 2 and rep["guarantee_active"] is True


def test_simulate_refuses_the_zero_space_before_the_codebook(one_orbit_code_3_3_15, tmp_path,
                                                            monkeypatch, capsys):
    # k = 3 erasures and no insertion leave R = {0}, at distance 3 from all
    # 7,174,453 words: simulate refuses it before it builds the codebook.
    # One insertion leaves a point, which decodes without walking the orbit.
    src = tmp_path / "one_orbit_3_3_15.json"
    src.write_text(json.dumps(one_orbit_code_3_3_15.to_json()))
    out = tmp_path / "sim.json"
    monkeypatch.setattr(sl, "enumerate_orbit", _fail_if_called("orbit walked"))
    with monkeypatch.context() as patched:
        patched.setattr(cli.ch, "materialize_codebook", _fail_if_called("codebook built"))
        assert run(["simulate", "--code", src, "--erasures", 3, "--trials", 2,
                    "--out", out]) == cli.EXIT_INPUT
    assert "InfeasibleNoise: 3 erasures and no insertion leave R = {0}" in capsys.readouterr().err
    assert not out.exists()
    assert run(["simulate", "--code", src, "--erasures", 3, "--insertions", 1, "--trials", 2,
                "--out", out]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["trials"] == 2 and rep["guarantee_active"] is False


@pytest.mark.parametrize("argv, text", [
    (["--trials", -3], "InvalidParams: trials must be >= 0"),
    (["--erasures", 3, "--trials", 0], "InfeasibleNoise: erasures must lie in [0, 2]"),
    (["--insertions", 7, "--trials", 2], "InfeasibleNoise: insertions must lie in [0, 6]"),
    (["--erasures", 2, "--trials", 2],
     "InfeasibleNoise: 2 erasures and no insertion leave R = {0}"),
], ids=["negative-trials", "erasures-above-k", "insertions-above-m-minus-k",
        "erasures-k-no-insertion"])
def test_simulate_checks_its_arguments_before_the_codebook(argv, text, even_code_file,
                                                          tmp_path, monkeypatch, capsys):
    # k = 2 and m = 8: each argument is refused before the codebook is built
    monkeypatch.setattr(cli.ch, "materialize_codebook",
                        _fail_if_called("codebook built before the arguments were checked"))
    out = tmp_path / "sim.json"
    assert run(["simulate", "--code", even_code_file, *argv, "--out", out]) == cli.EXIT_INPUT
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_simulate_flags_false_distance_claim(tmp_path):
    # the GF(4) orbit in GF(2^8) has distance 4; claiming 6 puts one erasure
    # plus one insertion under a guarantee the code cannot keep
    from cyclic_cdc import orbit_codes as oc
    from cyclic_cdc.field_tower import build_tower

    tw = build_tower(2, 1, 2, 4)
    code = oc.UnionCode(tw, (sl.span(tw, range(1, 4)),), 85, 6, "false claim")
    src = tmp_path / "false_claim.json"
    src.write_text(json.dumps(code.to_json()))
    assert run(["simulate", "--code", src, "--erasures", 1, "--insertions", 1,
                "--trials", 40, "--seed", 0]) == cli.EXIT_MISMATCH


@pytest.mark.parametrize("argv, parameters", [
    (["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "even"],
     {"q": 2, "k": 2, "r": 2, "parity": "even"}),
    (["verify", "--code", "CODE", "--budget", 500],
     {"code": "CODE", "mode": "exact", "budget": 500}),
    (["sidon-check", "--code", "CODE"], {"code": "CODE"}),
    (["bounds", "--q", 2, "--n", 8, "--k", 2, "--d", 2], {"q": 2, "n": 8, "k": 2, "d": 2}),
    (["table", "--q", "2,3", "--k", 3, "--r", 2, "--parity", "odd", "--csv", "TMP/t.csv"],
     {"q": [2, 3], "k": [3], "r": [2], "parity": "odd", "csv": "TMP/t.csv"}),
    (["poly", "--file", DATA, "--N", 14, "--budget", 1 << 20],
     {"file": str(DATA), "N": 14, "budget": 1 << 20}),
    (["simulate", "--code", "CODE", "--insertions", 1, "--trials", 3],
     {"code": "CODE", "erasures": 0, "insertions": 1, "trials": 3, "seed": 0}),
], ids=["construct", "verify", "sidon-check", "bounds", "table", "poly", "simulate"])
def test_manifest_parameters_are_the_parsed_arguments(argv, parameters, even_code_file, tmp_path):
    # every option the run was given or defaulted to, --out aside, and
    # nothing read from an input file
    def fill(value):
        if value == "CODE":
            return str(even_code_file)
        if isinstance(value, str) and value.startswith("TMP/"):
            return str(tmp_path / value[4:])
        return value

    out = tmp_path / "result.json"
    assert run([fill(a) for a in argv] + ["--out", out]) in (cli.EXIT_OK, cli.EXIT_MISMATCH)
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["parameters"] == {key: fill(value) for key, value in parameters.items()}


def test_manifest_reproducibility(even_code_file, tmp_path):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps({
        "q": 2, "coeff_field_degree": 2, "k": 3, "s": 1,
        "polys": [{"3": 0, "2": 0, "1": 1, "0": 2}],
    }))
    commands = {
        "construct": ["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "even"],
        "verify": ["verify", "--code", even_code_file, "--mode", "exact"],
        "poly": ["poly", "--file", poly_file, "--N", 6],
        "simulate": ["simulate", "--code", even_code_file, "--erasures", 1,
                     "--trials", 10, "--seed", 5],
    }
    for command, argv in commands.items():
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / f"{command}.{name}.json"
            run(argv + ["--out", out])
            assert "time_exact_scan" not in out.read_text()
            manifests.append(json.loads(Path(str(out) + ".manifest.json").read_text()))
        a, b = manifests
        assert a["result_digest"] == b["result_digest"], command
        assert a["tool_version"] == b["tool_version"]
        assert a["counters"] == b["counters"]
    # 4 generators of 3-point projective lines, 3 x 2 internal ratios each,
    # none of them shared: the 10 pairs i <= j need no histogram
    verify = json.loads((tmp_path / "verify.a.json.manifest.json").read_text())
    assert set(verify["timings"]) == {"time_load", "time_exact_scan", "time_encode"}
    assert verify["counters"] == {"pairs": 10, "point_ratios": 24, "shared_pairs": 0,
                                  "budget": cli.oc.DEFAULT_SCAN_BUDGET}
    # 10 trials with one erasure: each R is one point, against 4 x 3 points,
    # and lies on 12 of the lines
    simulate = json.loads((tmp_path / "simulate.a.json.manifest.json").read_text())
    assert set(simulate["timings"]) == {"time_load", "time_codebook", "time_trials", "time_encode"}
    assert simulate["counters"]["point_ratios"] == 10 * 12
    assert simulate["counters"]["decode_candidates"] == 10 * 12  # 12 lines per point


# the result digests of ten runs; a change to the package may change their
# timings and counters, never these.  The simulate digests depend on the map
# from a drawn index to a word, orbit by orbit; with the words in RREF order
# simulate-even-2-2-8 reads b8557afd...d4c4
# (test_sorted_order_replay_gives_the_old_digest)
PINNED_DIGESTS = {
    "construct-odd-2-2-10": "4625dc64e4aa6bfa04f4aa416ff0a9214e38e37bef8478de49d4d12e3f5b5478",
    "construct-even-2-2-8": "1017f3b8fede6cf4c6f2ae022ba341114701811171753162c51a8f49559963db",
    "construct-odd-3-3-15": "9bded6fd45aaba329dd8844c9109d842f8e5262a7b4a3a088d5010bb98c27216",
    "verify-odd-2-2-10": "137b5bbe80f4e581758fb0c1a811b34c78845c085499a7ba6d6d2e4c0804cc41",
    "sidon-check-odd-3-3-15": "7bde5800fd38b28e97ccf231f3d6d4801d3e026231bd5cd606ec247ce887ee55",
    "poly-gf4-N14": "1a6cf3b5732e433ff45625383ec04a446e6b2347d703473717ba2621d328e50a",
    "simulate-even-2-2-8": "f2e1a0608bbbf199f5354abfdb2aee0d1c0c6ff1bffebab7151399404162b9b6",
    "simulate-even-3-2-8-first-3": (
        "aaa21312b38b9a4347129fcea815a03ca01fcc5d7b928a8f63fc6106ef05e45f"),
    "table-q23-k23-r2": "325280a36d9423337bc0053a7058daea1229ecb8a7a2505c66aa83eace048b54",
    "bounds-2-8-2-2": "eec073dbd31fe54a2ba344c6e67206e396b324c0046e48224d8a8c7a85ff1cf3",
}


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """name -> (manifest digest, bytes of the result file) for the runs of
    PINNED_DIGESTS, in order: each code a later run reads is built first.
    The first three generators of even (3,2,8), 9,840 words, are written
    here: one erasure plus one insertion is beyond their distance 2, so the
    words sent decide how many decode."""
    tmp = tmp_path_factory.mktemp("pinned")
    tower = build_tower(3, 1, 2, 4)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)][:3]
    first_3 = oc.build_union(tower, gens, provenance="first 3 generators of even(q=3,k=2,r=2)")
    (tmp / "even-3-2-8-first-3.json").write_text(json.dumps(first_3.to_json()))
    argvs = {
        "construct-odd-2-2-10": ["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "odd"],
        "construct-even-2-2-8": ["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "even"],
        "construct-odd-3-3-15": ["construct", "--q", 3, "--k", 3, "--r", 2, "--parity", "odd"],
        "verify-odd-2-2-10": ["verify", "--code", tmp / "construct-odd-2-2-10.json"],
        "sidon-check-odd-3-3-15": ["sidon-check", "--code", tmp / "construct-odd-3-3-15.json"],
        "poly-gf4-N14": ["poly", "--file", DATA, "--N", 14],
        "simulate-even-2-2-8": ["simulate", "--code", tmp / "construct-even-2-2-8.json",
                                "--erasures", 1, "--trials", 50, "--seed", 5],
        "simulate-even-3-2-8-first-3": ["simulate", "--code", tmp / "even-3-2-8-first-3.json",
                                        "--erasures", 1, "--insertions", 1,
                                        "--trials", 50, "--seed", 5],
        "table-q23-k23-r2": ["table", "--q", "2,3", "--k", "2,3", "--r", 2],
        "bounds-2-8-2-2": ["bounds", "--q", 2, "--n", 8, "--k", 2, "--d", 2],
    }
    runs = {}
    for name, argv in argvs.items():
        out = tmp / f"{name}.json"
        assert run(argv + ["--out", out]) == cli.EXIT_OK, name
        manifest = Path(f"{out}.manifest.json").read_bytes()
        runs[name] = json.loads(manifest)["result_digest"], out.read_bytes(), manifest
    return runs


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_result_digests_are_pinned(name, pinned_runs):
    digest, written, _ = pinned_runs[name]
    assert digest == PINNED_DIGESTS[name]
    # the digest is the sha256 of the result file without its final newline
    assert written.endswith(b"\n")
    assert hashlib.sha256(written[:-1]).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_files_are_written_as_json_dumps(name, pinned_runs):
    # the result and the manifest, reparsed, are what json.dumps writes
    _, written, manifest = pinned_runs[name]
    for text in (written, manifest):
        obj = json.loads(text)
        assert text.decode() == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert cli._dumps(obj) + "\n" == text.decode()


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
                | st.floats() | st.text())
# the keys of one dict must sort against each other: all strings, all numbers
# (bools and nan among them) or a lone None; a list of ints takes the fast join
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(st.text(), kids, max_size=4)
                  | st.dictionaries(st.integers() | st.floats() | st.booleans(), kids, max_size=4)
                  | st.dictionaries(st.none(), kids, max_size=1)
                  | st.lists(st.integers(), min_size=1, max_size=6)),
    max_leaves=30)


def _nested(depth):
    """A list/dict tower ``depth`` levels deep, keyed by str and by int."""
    tree = [1, -2]
    for i in range(depth):
        tree = [tree, None] if i % 2 else ({"k": tree, "": 0} if i % 4 else {i: tree, -1 - i: 1.5})
    return tree


@settings(max_examples=300, deadline=None)
@example(float("nan"))
@example([float("inf"), -float("inf"), -0.0, 1e300, 5e-324])
@example({"\u00e9\u03b1\U0001f600": "\x00\n\t\"\\/\u2028", "": []})
@example({2: [], -1: {}, 1.5: (), True: "t", 0.0: 0, float("nan"): None})
@example({None: [10 ** 40, -(10 ** 40)]})
@example([[], {}, (), [1, True], [1, 1.0], [2, -3, 0]])
@example(_nested(60))
@given(JSON_TREES)
def test_dumps_matches_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_dumps_refuses_what_json_dumps_refuses():
    for bad in ({(1, 2): 3}, {1: 2, "a": 3}, {1, 2}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._dumps(bad)


def test_sorted_order_replay_gives_the_old_digest(even_code_2_2_8):
    # the pinned run of simulate-even-2-2-8 replayed over the words in RREF
    # order, as they were drawn before, gives back its old result: 8 of 50
    # trials decode, and the digest is the old one.  So the map from a drawn
    # index to a word is all that changed.
    ch = cli.ch
    book = ch.materialize_codebook(even_code_2_2_8)

    class SortedBook(list):
        """The words in RREF order, decoded against the codebook's orbits."""
        generators, inverses = book.generators, book.inverses

    words = SortedBook(sorted_codebook(even_code_2_2_8))
    cfg = ch.ChannelConfig(erasures=1, insertions=0, trials=50, seed=5)
    report = ch.run_trials(words, even_code_2_2_8.claimed_min_distance, cfg)
    del report["counters"]
    report["codebook_size"] = len(words)
    assert report["successes"] == 8
    assert cli.sha256(cli._dumps(report).encode()).hexdigest() == (
        "b8557afd23ed01ea5cfcadd198f7581f810fe99fa2f372d9e1b82a21d1a3d4c4")


def test_digest_comes_from_the_builtin_sha256():
    # CPython's own module, not hashlib's OpenSSL binding; 3.12 renamed it
    builtin = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert cli.sha256 is builtin.sha256
    for payload in (b"", b'{"q": 2}', "GF(q^m) \u2287 \u03b1U, d = 2k \u2212 2".encode()):
        assert cli.sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


def test_cli_import_loads_every_traced_layer_and_nothing_heavy():
    # a fresh interpreter without site: what ``import cyclic_cdc.cli`` loads
    # itself.  hashlib brings OpenSSL, dataclasses brings inspect, ast and
    # tokenize, fractions brings decimal; the CLI needs none of them.  Every
    # layer that perfbench/tracer.py wraps must be loaded by the import.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, cyclic_cdc.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    forbidden = {"hashlib", "_hashlib", "dataclasses", "inspect", "fractions", "decimal"}
    assert loaded & forbidden == set()
    assert len(tracer.SPANNED) == 6
    assert {f"cyclic_cdc.{layer}" for layer in tracer.SPANNED} <= loaded


def test_broken_invariant_is_an_internal_fault(tmp_path, monkeypatch):
    # an implementation bug, not bad input: the exception leaves main, so
    # Python prints its traceback and exits 1.  The family enumeration drops
    # its first tuple, in this process and in a child.
    argv = ["construct", "--q", "2", "--k", "2", "--r", "2", "--parity", "odd",
            "--out", str(tmp_path / "code.json")]
    family = sc.enumerate_family
    monkeypatch.setattr(sc, "enumerate_family",
                        lambda tower: itertools.islice(family(tower), 1, None))
    with pytest.raises(BrokenInvariant, match="enumerated 32 tuples, the closed form counts 33"):
        cli.main(argv)
    script = ("import itertools, sys\nfrom cyclic_cdc import cli, sidon_constructions as sc\n"
              "family = sc.enumerate_family\n"
              "sc.enumerate_family = lambda tower: itertools.islice(family(tower), 1, None)\n"
              "sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "Traceback" in done.stderr
    assert "BrokenInvariant: the family enumerated 32 tuples" in done.stderr
    assert not (tmp_path / "code.json").exists()


def _readme_cli_lines():
    """The ``cyclic-cdc`` command lines of README's CLI block, continuations
    joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [line.split()[1:] for line in block.splitlines() if line.startswith("cyclic-cdc ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # in order, in one directory: verify reads the code.json that construct wrote
    lines = _readme_cli_lines()
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        argv = [str(ROOT / a) if a.startswith("data/") else a for a in argv]
        assert cli.main(argv) == cli.EXIT_OK, argv
