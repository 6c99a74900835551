#!/usr/bin/env python3
"""Full report on the bundled GF(4) quadrinomial family hosted in GF(2^14):
the exact size and distance of the union of kernel orbits, from one scan of
the kernels, then the rank condition and the characteristic-2 coefficient
conditions, both read off that scan."""

import json
import time
from pathlib import Path

from cyclic_cdc import linearized_poly as lp

DATA = Path(__file__).resolve().parent.parent / "data" / "polys_gf4_k3.json"


def main():
    obj = json.loads(DATA.read_text())
    tower, polys, k, s = lp.poly_family_from_json(obj, N=14)
    print(f"loaded {len(polys)} polynomials, q-degree {k}, s={s}, host GF(2^{tower.m})")
    for i, P in enumerate(polys, 1):
        print(f"  P{i}: kernel dim {lp.kernel_subspace(P).dim}, support {P.support}")

    t0 = time.perf_counter()
    rep = lp.poly_code_distance(polys)
    print(
        f"union of kernel orbits: size {rep.scan.size}, exact minimum distance "
        f"{rep.scan.distance} ({time.perf_counter()-t0:.1f}s)"
    )

    t0 = time.perf_counter()
    verdict = lp.check_union_distance_criteria(rep, s)
    print(
        f"rank condition: {'pass' if verdict.rank_ok else 'FAIL'} "
        f"({verdict.alphas_checked} admissible shifts, {time.perf_counter()-t0:.1f}s)"
    )
    v2 = lp.check_union_distance_criteria_gf2(rep, s)
    print(f"characteristic-2 conditions: {'pass' if v2.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
