import json
from pathlib import Path

import pytest

from cyclic_cdc import cli

DATA = Path(__file__).resolve().parent.parent / "data" / "polys_gf4_k3.json"


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
    # exact is the only mode; an unknown choice is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--code", even_code_file, "--mode", "criterion",
             "--out", tmp_path / "crit.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'criterion'" in capsys.readouterr().err
    assert not (tmp_path / "crit.json").exists()


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


def test_verify_budget_infeasible(even_code_file, tmp_path):
    assert run(["verify", "--code", even_code_file, "--mode", "exact",
                "--budget", 5, "--out", tmp_path / "x.json"]) == cli.EXIT_INFEASIBLE


def test_verify_criterion_budget_infeasible(tmp_path):
    # the exact distance of the odd (2,2,10) code examines 561 pairs i <= j
    # x 3^2 log differences: one less is over budget, exactly that is not
    code_path = tmp_path / "odd2210.json"
    assert run(["construct", "--q", 2, "--k", 2, "--r", 2, "--parity", "odd",
                "--out", code_path]) == cli.EXIT_OK
    assert run(["verify", "--code", code_path, "--mode", "exact",
                "--budget", 561 * 9 - 1, "--out", tmp_path / "over.json"]) == cli.EXIT_INFEASIBLE
    assert run(["verify", "--code", code_path, "--mode", "exact",
                "--budget", 561 * 9, "--out", tmp_path / "ok.json"]) == cli.EXIT_OK


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


def test_missing_file_is_input_error(tmp_path):
    assert run(["verify", "--code", tmp_path / "nope.json"]) == cli.EXIT_INPUT


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
    assert set(manifest["timings"]) == {"time_criteria", "time_criteria_gf2", "time_distance"}
    assert not any(key.startswith("time_") for key in rep)
    # one rank matrix per admissible alpha and ordered pair: 16382 x 3^2
    assert manifest["counters"]["rank_matrices"] == 16382 * 9 == 147438


def test_poly_command_rank_failure(tmp_path):
    bad = {
        "q": 2, "coeff_field_degree": 2, "k": 3, "s": 1,
        "polys": [{"3": 0, "2": 0, "1": 1, "0": 2}],
    }
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(bad))
    out = tmp_path / "badpoly.json"
    assert run(["poly", "--file", src, "--N", 6, "--out", out]) == cli.EXIT_MISMATCH
    rep = json.loads(out.read_text())
    assert rep["criteria"]["rank_condition_ok"] is False
    assert rep["criteria"]["rank_witness"] is not None
    assert rep["exact"]["distance"] == 2


def test_poly_command_s_out_of_range(tmp_path, capsys):
    # s comes from the family file; k = 3 allows s = 1 only
    src = tmp_path / "s2.json"
    src.write_text(json.dumps(dict(json.loads(DATA.read_text()), s=2)))
    assert run(["poly", "--file", src, "--N", 14]) == cli.EXIT_INPUT
    assert "BadSupport" in capsys.readouterr().err
    # there is no --s option to override the file's s
    with pytest.raises(SystemExit) as exc:
        run(["poly", "--file", DATA, "--N", 14, "--s", 1])
    assert exc.value.code == 2


def test_verify_subfield_orbit_reports_double_distance(tmp_path):
    # an orbit of the middle subfield has distance 2k, not 2k-2
    from cyclic_cdc import orbit_codes as oc
    from cyclic_cdc import subspace_linalg as sl
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


def test_simulate_flags_false_distance_claim(tmp_path):
    # the GF(4) orbit in GF(2^8) has distance 4; claiming 6 puts one erasure
    # plus one insertion under a guarantee the code cannot keep
    from cyclic_cdc import orbit_codes as oc
    from cyclic_cdc import subspace_linalg as sl
    from cyclic_cdc.field_tower import build_tower

    tw = build_tower(2, 1, 2, 4)
    code = oc.UnionCode(tw, (sl.span(tw, range(1, 4)),), 85, 6, "false claim")
    src = tmp_path / "false_claim.json"
    src.write_text(json.dumps(code.to_json()))
    assert run(["simulate", "--code", src, "--erasures", 1, "--insertions", 1,
                "--trials", 40, "--seed", 0]) == cli.EXIT_MISMATCH


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
    # 4 generators: 10 pairs i <= j of 3-point projective lines, 9 differences each
    verify = json.loads((tmp_path / "verify.a.json.manifest.json").read_text())
    assert set(verify["timings"]) == {"time_orbit_sizes", "time_exact_scan"}
    assert verify["counters"] == {"pairs": 10, "differences": 90,
                                  "budget": cli.oc.DEFAULT_SCAN_BUDGET}
