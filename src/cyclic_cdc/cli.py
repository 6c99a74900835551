"""Command-line interface.

Subcommands: construct, verify, sidon-check, bounds, table, poly, simulate.

Every run emits a manifest (command, the parsed arguments but ``--out``, tower,
tool version, wall time, phase timings, work counters, sha256 digest of the
result JSON); timings and counters stay outside the hashed result, so identical
inputs give identical result digests; ``time_encode`` and, for a code file,
``time_load`` time the writing and the reading.  The result is written byte
for byte as ``json.dumps(sort_keys=True, indent=2)``.  Big integers are decimal strings.
Exit codes: 0 verified/ok, 1 internal fault (a BrokenInvariant propagates
with its traceback), 2 claim mismatch or failed check, 3 infeasible under the
scan budget, 4 input error (argparse usage errors included).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote  # C, where built

try:  # CPython's built-in sha256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .errors import BrokenInvariant, CdcError, DecodingFailure, Infeasible
from . import __version__
from . import channel_sim as ch
from . import linearized_poly as lp
from . import orbit_codes as oc
from . import sidon_constructions as sc

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4
_encode = json.JSONEncoder(sort_keys=True).encode  # the C encoder


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte, without its
    pure-Python indent encoder: scalars and keys go through the C encoder."""
    if not isinstance(obj, (dict, list, tuple)):
        return int.__repr__(obj) if type(obj) is int else _encode(obj)
    inner = indent + "  "
    if isinstance(obj, dict):  # a non-str key is quoted as json.dumps({key: 0}) quotes it
        items = ((_quote(k) if isinstance(k, str) else _encode({k: 0})[1:-4]) + ": "
                 + _dumps(v, inner) for k, v in sorted(obj.items()))
    elif set(map(type, obj)) == {int}:
        items = map(int.__repr__, obj)
    else:
        items = (_dumps(v, inner) for v in obj)
    ends = "{}" if isinstance(obj, dict) else "[]"
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if obj else ends


def _emit(command: str, params: dict, tower_spec, result: dict, out: str | None, t0: float) -> None:
    """Write the result and its manifest; ``time_*`` keys and ``counters`` go to the manifest."""
    result = dict(result)
    timings = {key: result.pop(key) for key in sorted(result) if key.startswith("time_")}
    counters = result.pop("counters", {})
    t1 = time.perf_counter()
    payload = _dumps(result)
    digest = sha256(payload.encode()).hexdigest()
    timings["time_encode"] = round(time.perf_counter() - t1, 3)
    manifest = {
        "command": command,
        "parameters": params,
        "tower": tower_spec,
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "timings": timings,
        "counters": counters,
        "result_digest": digest,
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


def _load_code(path: str) -> tuple[oc.UnionCode, float]:
    t1 = time.perf_counter()
    with open(path) as fh:
        code = oc.code_from_json(json.load(fh))
    return code, round(time.perf_counter() - t1, 3)


# -- subcommands: each returns (tower spec, result, exit code) ---------------------


def cmd_construct(args):
    t1 = time.perf_counter()
    code = oc.construct_code(args.q, args.k, args.r, args.parity)
    result = dict(code.to_json(), time_construct=round(time.perf_counter() - t1, 3),
                  counters={"generators": len(code.generators), "budget": oc.DEFAULT_SCAN_BUDGET})
    return code.tower.spec_dict(), result, EXIT_OK


def cmd_verify(args):
    code, time_load = _load_code(args.code)
    report = oc.verify_code(code, budget=args.budget)
    report["time_load"] = time_load
    report["claimed_size"] = str(code.claimed_size)
    report["claimed_min_distance"] = code.claimed_min_distance
    return code.tower.spec_dict(), report, EXIT_OK if report["ok"] else EXIT_MISMATCH


def cmd_sidon_check(args):
    code, time_load = _load_code(args.code)
    t1 = time.perf_counter()
    counts = Counter(certified=0, scanned=0, products=0, point_ratios=0)
    failures = [i for i, g in enumerate(code.generators) if not sc.is_sidon(g, counts=counts)]
    result = {
        "n_generators": len(code.generators),
        "sidon_failures": failures,
        "all_sidon": not failures,
        "time_load": time_load,
        "time_sidon": round(time.perf_counter() - t1, 3),
        "counters": dict(counts),
    }
    return code.tower.spec_dict(), result, EXIT_OK if not failures else EXIT_MISMATCH


def cmd_bounds(args):
    bound = str(oc.johnson_bound(args.q, args.n, args.k, args.d))
    # one bound under both names; the keys and constant "equal" keep the digests stable
    result = {
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "distance": args.d,
        "sphere_packing": bound,
        "johnson": bound,
        "equal": True,
    }
    return None, result, EXIT_OK


def cmd_table(args):
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
                    for key in ("ours", "best_known", "difference", "known_5k", "difference_5k"):
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
    return None, {"rows": rows}, EXIT_OK


def cmd_poly(args):
    with open(args.file) as fh:
        obj = json.load(fh)
    tower, polys, k, s = lp.poly_family_from_json(obj, args.N)
    # the kernels first: a short one exits 4 before the one scan
    t1 = time.perf_counter()
    rep = lp.poly_code_distance(polys, budget=args.budget)
    result = {"N": args.N, "s": s, "k": k, "e": len(polys), "exact": rep.to_json()}
    result["time_distance"] = round(time.perf_counter() - t1, 3)
    t1 = time.perf_counter()
    verdict = lp.check_union_distance_criteria(rep, s)
    result["criteria"] = verdict.to_json()
    result["time_criteria"] = round(time.perf_counter() - t1, 3)
    if tower.q == 2:
        t1 = time.perf_counter()
        result["criteria_gf2"] = lp.check_union_distance_criteria_gf2(rep, s).to_json()
        result["time_criteria_gf2"] = round(time.perf_counter() - t1, 3)
    result["counters"] = rep.scan.counters(args.budget)
    return tower.spec_dict(), result, EXIT_OK if verdict.passed else EXIT_MISMATCH


def cmd_simulate(args):
    code, time_load = _load_code(args.code)
    cfg = ch.ChannelConfig(
        erasures=args.erasures, insertions=args.insertions,
        trials=args.trials, seed=args.seed,
    )
    cfg.check(code.generators[0].dim, code.tower.m)  # before the codebook is built
    t1 = time.perf_counter()
    codebook = ch.materialize_codebook(code)
    t2 = time.perf_counter()
    report = ch.run_trials(codebook, code.claimed_min_distance, cfg)
    report["codebook_size"] = len(codebook)
    skipped = len(code.generators) - len(codebook.generators)
    report["counters"].update(orbits=len(codebook.generators), generators_skipped=skipped)
    report["time_load"] = time_load
    report["time_codebook"] = round(t2 - t1, 3)
    report["time_trials"] = round(time.perf_counter() - t2, 3)
    return code.tower.spec_dict(), report, EXIT_OK


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
                   help="most point ratios the exact distance may examine")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sidon-check", help="run the Sidon test on every generator")
    p.add_argument("--code", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sidon_check)

    p = sub.add_parser("bounds", help="the sphere-packing (Johnson) bound, exactly")
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
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 2, which here means a failed check
        raise SystemExit(EXIT_INPUT if exc.code == 2 else exc.code) from None
    t0 = time.perf_counter()
    params = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out")}
    try:
        tower_spec, result, exit_code = args.fn(args)
        _emit(args.command, params, tower_spec, result, args.out, t0)
        return exit_code
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DecodingFailure as exc:
        print(f"decoding guarantee broken: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenInvariant:  # an implementation bug, not bad input
        raise
    except (OSError, json.JSONDecodeError, KeyError, ValueError, CdcError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
