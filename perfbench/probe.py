"""Child-process helpers of the benchmark; each imports the package fresh.

  python3 perfbench/probe.py prepare WORKLOAD SEED DIR
      Write the workload's generated inputs into DIR and print its plan
      (seeded choices and expected values) as JSON.
  python3 perfbench/probe.py setup WORKLOAD DIR
      Do the set-up a CLI call of the workload pays before its real work:
      import, tower tables, loading the inputs (and the codebook for
      channel_gf4).  The caller times the whole process.
  python3 perfbench/probe.py micro SEED
      Time single calls into each layer on operands drawn from the
      workloads' instances and print the per-call times as JSON.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POLY_DATA = ROOT / "data" / "polys_gf4_k3.json"
POLY_N = 14

# (q, k, r, parity) rows of scripts/size_comparison.py, copied so that the
# benchmark's load does not change when the script does
TABLE_ROWS = [
    (2, 2, 2, "odd"), (2, 2, 2, "even"),
    (3, 3, 2, "odd"), (3, 3, 3, "odd"),
    (5, 3, 8, "even"), (2, 5, 2, "even"),
]
# exits 4 today: johnson_bound needs 549754241025 / 105 to divide exactly
DEFECT_ROW = (2, 4, 2, "odd")

SUBCODE_GENERATORS = 6
BIG_INT_KEYS = ("ours", "best_known", "difference", "known_5k", "difference_5k")


def _tower(q: int, k: int, r: int, parity: str):
    from cyclic_cdc.field_tower import build_tower

    return build_tower(q, 1, k, 2 * r + 1 if parity == "odd" else 2 * r)


def _family(q: int, k: int, r: int, parity: str):
    from cyclic_cdc import sidon_constructions as sc

    tower = _tower(q, k, r, parity)
    return tower, list(sc.enumerate_family(tower))


def _gf4_family():
    from cyclic_cdc import linearized_poly as lp

    tower, polys, _, s = lp.poly_family_from_json(json.loads(POLY_DATA.read_text()), POLY_N)
    return tower, polys, s


def _write_code(path: Path, code) -> None:
    path.write_text(json.dumps(code.to_json()))


def row_key(row: tuple) -> str:
    return "-".join(map(str, row))


def _table_row(q: int, k: int, r: int, parity: str) -> dict:
    from cyclic_cdc import orbit_codes as oc

    row = oc.compare_sizes(q, k, r, parity)
    for key in BIG_INT_KEYS:
        if key in row:
            row[key] = str(row[key])
    return row


def prepare(workload: str, seed: int, out: Path) -> dict:
    from cyclic_cdc import linearized_poly as lp
    from cyclic_cdc import orbit_codes as oc
    from cyclic_cdc import sidon_constructions as sc

    rng = random.Random(seed)
    plan: dict = {"workload": workload, "seed": seed}
    if workload == "channel_gf4":
        tower, polys, _ = _gf4_family()
        code = oc.build_union(tower, [lp.kernel_subspace(P) for P in polys],
                              provenance="kernel orbits of data/polys_gf4_k3.json, N=14")
        _write_code(out / "gf4_union.json", code)
        plan["simulate_seeds"] = [rng.randrange(1 << 31) for _ in range(2)]
    elif workload == "q3_general":
        tower, params = _family(3, 2, 2, "even")
        chosen = sorted(rng.sample(range(len(params)), SUBCODE_GENERATORS))
        code = oc.build_union(tower, [sc.make_subspace(params[i], tower) for i in chosen],
                              provenance=f"even(q=3,k=2,r=2) generators {chosen}")
        _write_code(out / "sub_3_2_8.json", code)
        plan["subcode_generators"] = chosen
        plan["table_rows"] = {
            row_key(row): _table_row(*row) for row in TABLE_ROWS + [DEFECT_ROW]
        }
    return plan


def setup(workload: str, workdir: Path) -> None:
    import cyclic_cdc.cli  # noqa: F401  (the CLI's own imports)
    from cyclic_cdc import channel_sim as ch
    from cyclic_cdc import orbit_codes as oc

    def load(name):
        return oc.code_from_json(json.loads((workdir / name).read_text()))

    if workload == "sidon_desk":
        for row in ((2, 2, 2, "odd"), (2, 2, 2, "even"), (2, 3, 2, "even")):
            _tower(*row)
    elif workload == "poly_gf4":
        _gf4_family()
    elif workload == "channel_gf4":
        ch.materialize_codebook(load("gf4_union.json"))
    elif workload == "q3_general":
        _tower(3, 3, 2, "odd")
        load("sub_3_2_8.json")
    else:
        raise SystemExit(f"unknown workload {workload!r}")


# -- microbenchmarks ------------------------------------------------------------

REPEATS = 5


def _per_call(fn, operands: list[tuple], repeats: int = REPEATS) -> float:
    """Median over ``repeats`` batches of the seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for ops in operands:
            fn(*ops)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(operands)


def _nonzero_pairs(rng: random.Random, order: int, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(1, order), rng.randrange(1, order)) for _ in range(n)]


def _stacks(rng: random.Random, tower, gens, n: int) -> list[tuple]:
    """(tower, rows) arguments of the exact scan's rank calls: the rows of
    one generator stacked on a shift of another."""
    mul = tower.top.mul
    alphas = list(tower.projective_reps("top"))
    out = []
    for _ in range(n):
        u, v, alpha = rng.choice(gens), rng.choice(gens), rng.choice(alphas)
        out.append((tower, list(u.rows) + [mul(alpha, r) for r in v.rows]))
    return out


def micro(seed: int) -> dict:
    from cyclic_cdc import linearized_poly as lp
    from cyclic_cdc import sidon_constructions as sc
    from cyclic_cdc import subspace_linalg as sl

    rng = random.Random(seed)
    res: dict[str, float] = {}

    gf2_10, params_2_10 = _family(2, 2, 2, "odd")
    gf3_15, params_3_15 = _family(3, 3, 2, "odd")
    gf3_8, params_3_8 = _family(3, 2, 2, "even")
    gf2_14, polys, s = _gf4_family()

    f = gf2_10.top
    res["mul_ns.gf2_10"] = _per_call(f.mul, _nonzero_pairs(rng, f.order, 20000)) * 1e9
    f = gf2_14.top
    res["pow_ns.gf2_14"] = _per_call(f.pow, _nonzero_pairs(rng, f.order, 20000)) * 1e9
    res["inv_ns.gf2_14"] = _per_call(
        f.inv, [(rng.randrange(1, f.order),) for _ in range(20000)]) * 1e9
    f = gf3_15.top
    res["mul_ns.gf3_15"] = _per_call(f.mul, _nonzero_pairs(rng, f.order, 500)) * 1e9
    res["pow_ns.gf3_15"] = _per_call(f.pow, _nonzero_pairs(rng, f.order, 20)) * 1e9
    f = gf3_8.top
    res["mul_ns.gf3_8"] = _per_call(f.mul, _nonzero_pairs(rng, f.order, 20000)) * 1e9

    gens_q2 = [sc.make_subspace(p, gf2_10) for p in params_2_10]
    res["rank_rows_ns.q2"] = _per_call(sl.rank_rows, _stacks(rng, gf2_10, gens_q2, 5000)) * 1e9
    gens_q3 = [sc.make_subspace(p, gf3_8) for p in rng.sample(params_3_8, 8)]
    res["rank_rows_ns.q3"] = _per_call(sl.rank_rows, _stacks(rng, gf3_8, gens_q3, 500)) * 1e9
    gens_3_15 = [sc.make_subspace(p, gf3_15) for p in rng.sample(params_3_15, 5)]
    sl.orbit_size(gens_3_15[0])  # fills the subfield-basis cache, as a scan would
    res["orbit_size_ms.gf3_15"] = _per_call(sl.orbit_size, [(g,) for g in gens_3_15]) * 1e3

    kernels = [lp.kernel_subspace(P) for P in polys]
    top = gf2_14.top

    def codeword():
        return sl.cyclic_shift(rng.choice(kernels), rng.randrange(1, top.order))

    words = [(codeword(), codeword()) for _ in range(2000)]
    res["subspace_distance_us"] = _per_call(sl.subspace_distance, words) * 1e6

    def shift_pair():
        i, j = rng.randrange(len(polys)), rng.randrange(len(polys))
        return polys[i], polys[j], rng.randrange(1, top.order)

    matrices = [(top, lp.build_rank_matrix(Pi, Pj, alpha, s).entries)
                for Pi, Pj, alpha in (shift_pair() for _ in range(1000))]
    res["field_matrix_rank_us"] = _per_call(lp.field_matrix_rank, matrices) * 1e6

    gcd_args = []
    for Pi, Pj, alpha in (shift_pair() for _ in range(300)):
        di = lp.densify(Pi)
        dj = lp.densify(lp.shift_transform(Pj, alpha))
        gcd_args.append((top, di, [top.sub_(a, b) for a, b in zip(di, dj)]))
    res["dense_gcd_us"] = _per_call(lp.dense_gcd, gcd_args) * 1e6

    res["enumerate_orbit_s"] = _per_call(sl.enumerate_orbit, [(rng.choice(kernels),)], repeats=3)
    return res


def main(argv: list[str]) -> int:
    cmd = argv[0] if argv else ""
    if cmd == "prepare" and len(argv) == 4:
        print(json.dumps(prepare(argv[1], int(argv[2]), Path(argv[3]))))
    elif cmd == "setup" and len(argv) == 3:
        setup(argv[1], Path(argv[2]))
    elif cmd == "micro" and len(argv) == 2:
        print(json.dumps(micro(int(argv[1]))))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
