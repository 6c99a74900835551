"""Command-line interface.

Subcommands: construct, verify, sidon-check, bounds, table, poly, simulate.

Every run emits a manifest (command, parameters, tower, tool version, wall
time, phase timings, work counters, sha256 digest of the result JSON); the
timings and counters stay outside the hashed result, so identical inputs give
identical result digests.  Big integers are serialized as decimal strings.
Exit codes: 0 verified/ok, 2 claim mismatch or failed check, 3 infeasible
under the scan budget, 4 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from . import channel_sim as ch
from . import linearized_poly as lp
from . import orbit_codes as oc
from . import sidon_constructions as sc
from .errors import CdcError, DecodingFailure, Infeasible
from .field_tower import build_tower

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(command: str, params: dict, tower_spec, result: dict, out: str | None, t0: float) -> None:
    """Write the result and its manifest; ``time_*`` keys and ``counters`` go to the manifest."""
    result = dict(result)
    timings = {key: result.pop(key) for key in sorted(result) if key.startswith("time_")}
    counters = result.pop("counters", {})
    payload = _dumps(result)
    manifest = {
        "command": command,
        "parameters": params,
        "tower": tower_spec,
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "timings": timings,
        "counters": counters,
        "result_digest": hashlib.sha256(payload.encode()).hexdigest(),
    }
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
        with open(out + ".manifest.json", "w") as fh:
            fh.write(_dumps(manifest) + "\n")
        print(f"wrote {out} (digest {manifest['result_digest'][:16]}...)")
    else:
        print(payload)
        print(_dumps(manifest), file=sys.stderr)


def _tower_for(q: int, k: int, r: int, parity: str):
    p, a = lp._prime_power(q)
    t = 2 * r + 1 if parity == "odd" else 2 * r
    return build_tower(p, a, k, t)


# -- subcommands -----------------------------------------------------------------


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    tower = _tower_for(args.q, args.k, args.r, args.parity)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)]
    code = oc.build_union(
        tower, gens, provenance=f"{args.parity}(q={args.q},k={args.k},r={args.r})"
    )
    params = {"q": args.q, "k": args.k, "r": args.r, "parity": args.parity}
    _emit("construct", params, tower.spec_dict(), code.to_json(), args.out, t0)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    with open(args.code) as fh:
        code = oc.code_from_json(json.load(fh))
    report = oc.verify_code(code, budget=args.budget)
    report["claimed_size"] = str(code.claimed_size)
    report["claimed_min_distance"] = code.claimed_min_distance
    params = {"code": args.code, "mode": args.mode, "budget": args.budget}
    _emit("verify", params, code.tower.spec_dict(), report, args.out, t0)
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def cmd_sidon_check(args) -> int:
    t0 = time.perf_counter()
    with open(args.code) as fh:
        code = oc.code_from_json(json.load(fh))
    failures = [i for i, g in enumerate(code.generators) if not sc.is_sidon(g)]
    result = {
        "n_generators": len(code.generators),
        "sidon_failures": failures,
        "all_sidon": not failures,
    }
    _emit("sidon-check", {"code": args.code}, code.tower.spec_dict(), result, args.out, t0)
    return EXIT_OK if not failures else EXIT_MISMATCH


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    sp = oc.sphere_packing_bound(args.q, args.n, args.k, args.d)
    jo = oc.johnson_bound(args.q, args.n, args.k, args.d)
    result = {
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "distance": args.d,
        "sphere_packing": str(sp),
        "johnson": str(jo),
        "equal": sp == jo,
    }
    params = {"q": args.q, "n": args.n, "k": args.k, "d": args.d}
    _emit("bounds", params, None, result, args.out, t0)
    return EXIT_OK


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    parities = ["odd", "even"] if args.parity == "both" else [args.parity]
    rows = []
    for q in args.q:
        for k in args.k:
            for r in args.r:
                for parity in parities:
                    row = oc.compare_sizes(q, k, r, parity)
                    n = row["n"]
                    jo = oc.johnson_bound(q, n, k, 2 * k - 2)
                    row["distance"] = 2 * k - 2
                    row["johnson"] = str(jo)
                    row["ratio_to_johnson"] = round(row["ours"] / jo, 6)
                    row["ours"] = str(row["ours"])
                    row["best_known"] = str(row["best_known"])
                    row["difference"] = str(row["difference"])
                    for key in ("known_5k", "difference_5k"):
                        if key in row:
                            row[key] = str(row[key])
                    rows.append(row)
    if args.csv:
        import csv

        keys = sorted({key for row in rows for key in row})
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows)
    for row in rows:
        print(
            f"q={row['q']} k={row['k']} r={row['r']} {row['parity']:4} n={row['n']:3}  "
            f"ours={row['ours']}  known={row['best_known']}  "
            f"rate={row['rate_ours']:.3f} (known {row['rate_best_known']:.3f})"
        )
    result = {"rows": rows}
    _emit("table", {"q": args.q, "k": args.k, "r": args.r, "parity": args.parity},
          None, result, args.out, t0)
    return EXIT_OK


def cmd_poly(args) -> int:
    t0 = time.perf_counter()
    with open(args.file) as fh:
        obj = json.load(fh)
    tower, polys, k, s = lp.poly_family_from_json(obj, args.N)
    t1 = time.perf_counter()
    verdict = lp.check_union_distance_criteria(polys, s, budget=args.budget)
    result = {"N": args.N, "s": s, "k": k, "e": len(polys), "criteria": verdict.to_json()}
    result["time_criteria"] = round(time.perf_counter() - t1, 3)
    if tower.q == 2:
        t1 = time.perf_counter()
        try:
            v2 = lp.check_union_distance_criteria_gf2(polys, s, budget=args.budget)
            result["criteria_gf2"] = v2.to_json()
        except CdcError as exc:
            result["criteria_gf2"] = {"error": str(exc)}
        result["time_criteria_gf2"] = round(time.perf_counter() - t1, 3)
    t1 = time.perf_counter()
    rep = lp.poly_code_distance(polys, budget=args.budget)
    result["exact"] = rep.to_json()
    result["time_distance"] = round(time.perf_counter() - t1, 3)
    result["counters"] = {
        "rank_matrices": verdict.rank_matrices,
        "pairs": len(polys) * (len(polys) + 1) // 2,
        "differences": rep.differences,
        "budget": args.budget,
    }
    params = {"file": args.file, "N": args.N, "s": s}
    _emit("poly", params, tower.spec_dict(), result, args.out, t0)
    return EXIT_OK if verdict.passed else EXIT_MISMATCH


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    with open(args.code) as fh:
        code = oc.code_from_json(json.load(fh))
    cfg = ch.ChannelConfig(
        erasures=args.erasures, insertions=args.insertions,
        trials=args.trials, seed=args.seed,
    )
    codebook = ch.materialize_codebook(code)
    report = ch.run_trials(codebook, code.claimed_min_distance, cfg)
    report["codebook_size"] = len(codebook)
    params = {
        "code": args.code, "erasures": args.erasures,
        "insertions": args.insertions, "trials": args.trials, "seed": args.seed,
    }
    _emit("simulate", params, code.tower.spec_dict(), report, args.out, t0)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyclic-cdc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a union code and write it as JSON")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="verify a code file's size and distance claims")
    p.add_argument("--code", required=True)
    p.add_argument("--mode", choices=("exact",), default="exact",
                   help="the only mode; kept so that existing command lines parse")
    p.add_argument("--budget", type=int, default=oc.DEFAULT_SCAN_BUDGET,
                   help="most log differences the exact distance may examine")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sidon-check", help="run the Sidon test on every generator")
    p.add_argument("--code", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sidon_check)

    p = sub.add_parser("bounds", help="sphere-packing and Johnson bounds, exactly")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("table", help="size comparison rows against best known")
    p.add_argument("--q", type=_int_list, required=True, help="comma list")
    p.add_argument("--k", type=_int_list, required=True, help="comma list")
    p.add_argument("--r", type=_int_list, required=True, help="comma list")
    p.add_argument("--parity", choices=("odd", "even", "both"), default="both")
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("poly", help="check a q-polynomial family and scan its code")
    p.add_argument("--file", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--budget", type=int, default=oc.DEFAULT_SCAN_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("simulate", help="operator-channel decoding trials")
    p.add_argument("--code", required=True)
    p.add_argument("--erasures", type=int, default=0)
    p.add_argument("--insertions", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DecodingFailure as exc:
        print(f"decoding guarantee broken: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (OSError, json.JSONDecodeError, KeyError, ValueError, CdcError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
