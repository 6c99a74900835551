"""The four workloads: CLI step sequences and the exact values each step
must produce.

Each workload does most of its work in a layer that the others barely
touch (see README.md).  Expected values are the paper's and the package's
promised results, never values read back from an earlier run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from probe import DEFECT_ROW, POLY_N, SUBCODE_GENERATORS, TABLE_ROWS, row_key

# trials per simulate step; 2 x 20 decodes give 40 samples, so p75 is the
# highest percentile with ten samples beyond it
TRIALS = 20
TAIL_PERCENTILE = 75

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``args`` follow the subcommand; ``{dir}`` stands for
    the run's work directory.  The result goes to ``{dir}/<out>``."""

    command: str
    tag: str
    args: tuple[str, ...]
    check: Check
    # exit code of a known defect: the step still counts as failed, but
    # failing this way does not make the run incorrect
    known_defect_exit: int | None = None

    @property
    def out(self) -> str:
        return f"{self.command}.{self.tag}.json"


def _mismatches(got: dict, want: dict) -> list[str]:
    return [f"{key}: got {got.get(key)!r}, want {val!r}"
            for key, val in want.items() if got.get(key) != val]


def code_check(generators: int, size: int, distance: int) -> Check:
    def check(res: dict) -> list[str]:
        got = dict(res, generators=len(res.get("generators", ())))
        return _mismatches(got, {"generators": generators, "claimed_size": str(size),
                                 "claimed_min_distance": distance})
    return check


def verify_check(generators: int, size: int, distance: int) -> Check:
    return lambda res: _mismatches(res, {
        "n_generators": generators, "verified_size": str(size),
        "verified_min_distance": distance, "orbit_collisions": [], "ok": True})


def sidon_check(generators: int) -> Check:
    return lambda res: _mismatches(res, {
        "n_generators": generators, "sidon_failures": [], "all_sidon": True})


def poly_check(res: dict) -> list[str]:
    return (_mismatches(res.get("exact", {}), {"size": "49149", "distance": 4,
                                               "orbit_collisions": []})
            + _mismatches(res.get("criteria", {}), {"passed": True})
            + _mismatches(res.get("criteria_gf2", {}), {"passed": True}))


def simulate_check(res: dict) -> list[str]:
    return _mismatches(res, {"trials": TRIALS, "successes": TRIALS,
                             "guarantee_active": True, "codebook_size": 49149})


def table_check(row: dict) -> Check:
    def check(res: dict) -> list[str]:
        rows = res.get("rows", [])
        if len(rows) != 1:
            return [f"rows: got {len(rows)}, want 1"]
        return _mismatches(rows[0], row)
    return check


def _desk_code(tag: str, q: int, k: int, r: int, parity: str,
               generators: int, size: int, distance: int) -> list[Step]:
    code = f"{{dir}}/construct.{tag}.json"
    return [
        Step("construct", tag, ("--q", str(q), "--k", str(k), "--r", str(r),
                                "--parity", parity),
             code_check(generators, size, distance)),
        Step("verify", tag, ("--code", code, "--mode", "exact"),
             verify_check(generators, size, distance)),
        Step("sidon-check", tag, ("--code", code), sidon_check(generators)),
    ]


def sidon_desk(plan: dict) -> list[Step]:
    return (_desk_code("odd_2_2_10", 2, 2, 2, "odd", 33, 33759, 2)
            + _desk_code("even_2_2_8", 2, 2, 2, "even", 4, 1020, 2)
            + _desk_code("even_2_3_12", 2, 3, 2, "even", 24, 98280, 4))


def poly_gf4(plan: dict) -> list[Step]:
    return [Step("poly", "gf4_k3", ("--file", "data/polys_gf4_k3.json", "--N", str(POLY_N)),
                 poly_check)]


def channel_gf4(plan: dict) -> list[Step]:
    erasure_seed, insertion_seed = plan["simulate_seeds"]
    code = "{dir}/gf4_union.json"
    return [
        Step("simulate", "erasures", ("--code", code, "--erasures", "1",
                                      "--trials", str(TRIALS), "--seed", str(erasure_seed)),
             simulate_check),
        Step("simulate", "insertions", ("--code", code, "--insertions", "1",
                                        "--trials", str(TRIALS), "--seed", str(insertion_seed)),
             simulate_check),
    ]


def q3_general(plan: dict) -> list[Step]:
    # (3,2,8) has 51 full orbits of (3^8 - 1)/2 = 3280 words each
    sub_size = SUBCODE_GENERATORS * 3280
    steps = [
        Step("construct", "odd_3_3_15", ("--q", "3", "--k", "3", "--r", "2", "--parity", "odd"),
             code_check(4108, 29472652924, 4)),
        Step("sidon-check", "odd_3_3_15", ("--code", "{dir}/construct.odd_3_3_15.json"),
             sidon_check(4108)),
        Step("construct", "even_3_2_8", ("--q", "3", "--k", "2", "--r", "2", "--parity", "even"),
             code_check(51, 51 * 3280, 2)),
        Step("verify", "sub_3_2_8", ("--code", "{dir}/sub_3_2_8.json", "--mode", "exact"),
             verify_check(SUBCODE_GENERATORS, sub_size, 2)),
    ]
    for row in TABLE_ROWS + [DEFECT_ROW]:
        q, k, r, parity = row
        key = row_key(row)
        steps.append(Step("table", key, ("--q", str(q), "--k", str(k), "--r", str(r),
                                         "--parity", parity),
                          table_check(plan["table_rows"][key]),
                          known_defect_exit=4 if row == DEFECT_ROW else None))
    return steps


WORKLOADS: dict[str, Callable[[dict], list[Step]]] = {
    "sidon_desk": sidon_desk,
    "poly_gf4": poly_gf4,
    "channel_gf4": channel_gf4,
    "q3_general": q3_general,
}
