#!/usr/bin/env python3
"""Build the two desk-scale union codes and verify their claims exhaustively.

Expected output: 33 orbits / size 33759 / distance 2 over GF(2^10), and
4 orbits / size 1020 / distance 2 over GF(2^8).
"""

import time

from cyclic_cdc import orbit_codes as oc


def reproduce(q, k, r, parity):
    t0 = time.perf_counter()
    code = oc.construct_code(q, k, r, parity)
    report = oc.verify_code(code)
    wall = time.perf_counter() - t0
    formula = oc.construction_size(q, k, r, parity)
    print(
        f"{parity} tower, q={q} k={k} n={code.tower.m}: {len(code.generators)} orbits, "
        f"verified size {report['verified_size']} (formula {formula}), "
        f"distance {report['verified_min_distance']}, "
        f"claims ok={report['ok']}  [{wall:.1f}s]"
    )


if __name__ == "__main__":
    reproduce(2, 2, 2, "odd")
    reproduce(2, 2, 2, "even")
