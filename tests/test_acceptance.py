"""Acceptance suite: every check the package must satisfy, each printing one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are exact unless a line says otherwise (rates carry +/- 0.001).
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from oracles import (
    cross_pair_ok,
    gaussian_binomial,
    intersection_dim_via_gcd,
    orbit_by_scan,
    shifted_intersection_dim,
    size_difference,
    size_difference_5k,
    sphere_packing_bound,
)

from cyclic_cdc import channel_sim as ch
from cyclic_cdc import linearized_poly as lp
from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import sidon_constructions as sc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.field_tower import batch_inverse, build_tower


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_a01_odd_desk_scale_code_exact():
    """(q,k,n) = (2,2,10): 33 orbits x 1023 = 33759 codewords, distance 2."""
    tower = build_tower(2, 1, 2, 5)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)]
    code = oc.build_union(tower, gens)
    rep = oc.verify_code(code)
    _report(
        "odd tower (2,2,10): exact size and distance",
        len(gens) == 33
        and code.claimed_size == 33759
        and rep["verified_size"] == "33759"
        and rep["verified_min_distance"] == 2
        and not rep["orbit_collisions"],
        f"{len(gens)} orbits, size {rep['verified_size']}, distance "
        f"{rep['verified_min_distance']} in {rep['time_exact_scan']}s",
    )


def test_a02_even_desk_scale_code_exact():
    """(q,k,n) = (2,2,8): 4 orbits x 255 = 1020 codewords, distance 2."""
    tower = build_tower(2, 1, 2, 4)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)]
    code = oc.build_union(tower, gens)
    rep = oc.verify_code(code)
    _report(
        "even tower (2,2,8): exact size and distance",
        len(gens) == 4
        and rep["verified_size"] == "1020"
        and rep["verified_min_distance"] == 2,
        f"size {rep['verified_size']}, distance {rep['verified_min_distance']}",
    )


def test_a03_odd_formula_q3_k3_and_sidon_family():
    """(3,3,15): closed form, competitor gaps, rates, Sidon family checks."""
    size = oc.construction_size(3, 3, 2, "odd")
    display = 3 * (3 ** 3 - 1) ** 2 * (3 ** 15 - 1) + 2 * (3 ** 3 - 1) * (3 ** 15 - 1) // 2
    yu = oc.best_known_size(3, 3, 2, "odd")
    li = oc.known_size_5k(3, 3)
    _report("odd formula (3,3,15) equals its display value", size == display, str(size))
    _report(
        "odd formula exceeds both competitors by the exact difference columns",
        size - yu == size_difference(3, 3, 2, "odd")
        and size - li == size_difference_5k(3, 3),
        f"gaps {size - yu} and {size - li}",
    )
    rates = (
        oc.rate(size, 3, 15, 3),
        oc.rate(li, 3, 15, 3),
        oc.rate(yu, 3, 15, 3),
    )
    _report(
        "rates 0.488 / 0.474 / 0.480 within 0.001",
        abs(rates[0] - 0.488) < 1e-3
        and abs(rates[1] - 0.474) < 1e-3
        and abs(rates[2] - 0.480) < 1e-3,
        "computed %.4f / %.4f / %.4f" % rates,
    )
    tower = build_tower(3, 1, 3, 5)
    gens = [sc.make_subspace(p, tower) for p in sc.enumerate_family(tower)]
    counts = Counter()
    _report(
        "all (3,3,15) generators are Sidon spaces",
        len(gens) == 4108
        and all(sc.is_sidon(g, counts=counts) for g in gens)
        and counts["certified"] == 4108,
        f"{len(gens)} generators, {counts['certified']} settled by the max-span certificate",
    )
    rng = random.Random(1234)
    pairs = set()
    while len(pairs) < 500:
        pairs.add(tuple(sorted(rng.sample(range(len(gens)), 2))))
    _report(
        "500 sampled generator pairs pass the cross test",
        all(cross_pair_ok(gens[i], gens[j]) for i, j in pairs),
    )


def test_a03b_odd_q3_k3_exact_verify():
    """(3,3,15): exact verify under the default budget, 4108 full orbits; the
    claimed size is the paper's closed form, which construct_code states."""
    code = oc.construct_code(3, 3, 2, "odd")
    gens = code.generators
    rep = oc.verify_code(code)
    _report(
        "odd tower (3,3,15): exact size and distance",
        len(gens) == 4108
        and rep["orbit_sizes_distinct"] == [(3 ** 15 - 1) // 2]
        and rep["verified_size"] == "29472652924" == str(code.claimed_size)
        and rep["verified_min_distance"] == 4
        and rep["orbit_collisions"] == []
        and rep["ok"],
        f"{len(gens)} orbits of {rep['orbit_sizes_distinct']}, size {rep['verified_size']}, "
        f"distance {rep['verified_min_distance']}, {rep['counters']['point_ratios']} point "
        f"ratios and {rep['counters']['shared_pairs']} shared pairs in {rep['time_exact_scan']}s",
    )


def test_a04_even_formula_q5_k3():
    """(5,3,48): closed form identity, rate 0.506, beats the known size."""
    size = oc.construction_size(5, 3, 8, "even")
    display = (
        (32 * (5 ** 3 - 1) + 7)
        * (5 ** 3 - 1) ** 6
        * ((5 ** 3 - 2) // 2)
        * (5 ** 48 - 1)
        // 4
    )
    known = oc.best_known_size(5, 3, 8, "even")
    r = oc.rate(size, 5, 48, 3)
    _report(
        "even formula (5,3,48) equals its display value and beats the known size",
        size == display and size > known,
    )
    _report("even (5,3,48) rate 0.506 within 0.001", abs(r - 0.506) < 1e-3, "%.4f" % r)


def test_a05_quadrinomial_family_full_reproduction(gf4_poly_family):
    """GF(4) quadrinomials in GF(2^14): ranks, gf2 criteria, size, distance."""
    tower, polys = gf4_poly_family
    rep = lp.poly_code_distance(polys)  # the one scan that both criteria read
    verdict = lp.check_union_distance_criteria(rep, 1)
    _report(
        "rank matrices have rank 3 for all 9 pairs and all admissible shifts",
        verdict.rank_ok and verdict.alphas_checked == 16382,
        f"{verdict.alphas_checked} shifts checked",
    )
    v2 = lp.check_union_distance_criteria_gf2(rep, 1)
    h1_pattern = all(P.coeff(1) == P.coeff(0) != 0 for P in polys) and len(
        {P.coeff(0) for P in polys}
    ) == len(polys)
    _report(
        "characteristic-2 conditions pass with h = 1",
        v2.passed and h1_pattern and verdict.coeff_ok,
    )
    _report(
        "kernel-orbit union has size 49149 and exact distance 4",
        rep.scan.size == 3 * (2 ** 14 - 1) and rep.scan.distance == 4 and not rep.scan.collisions,
        f"size {rep.scan.size}, distance {rep.scan.distance}",
    )


def test_a06_oracle_equivalences(odd_code_2_2_10, gf4_poly_family):
    """Dual routes must agree: cross test vs shift scan, gcd vs rank,
    orbit formula vs the walked orbit vs the projective scan."""
    gens = odd_code_2_2_10.generators
    tower = odd_code_2_2_10.tower
    alphas = list(tower.projective_reps("top"))
    agree = True
    for i, j in itertools.combinations(range(len(gens)), 2):
        scan = all(
            shifted_intersection_dim(gens[i], gens[j], a) <= 1 for a in alphas
        )
        if cross_pair_ok(gens[i], gens[j]) != scan:
            agree = False
            break
    _report("cross test agrees with the exhaustive shift scan on all 528 pairs", agree)

    ptower, polys = gf4_poly_family
    kernels = [lp.kernel_subspace(P) for P in polys]
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        i, j = rng.randrange(3), rng.randrange(3)
        alpha = rng.randrange(1, ptower.top.order)
        gcd_dim = intersection_dim_via_gcd(
            polys[i], lp.shift_transform(polys[j], alpha)
        )
        if gcd_dim != shifted_intersection_dim(kernels[i], kernels[j], alpha):
            ok = False
            break
    _report("gcd intersection dimension agrees with linear algebra on 200 samples", ok)

    etower = build_tower(2, 1, 2, 4)
    egens = [sc.make_subspace(p, etower) for p in sc.enumerate_family(etower)]
    subjects = list(gens) + egens + [sl.span(tower, range(1, 4))] + kernels
    def orbit_ok(s):
        orbit, scan = sl.enumerate_orbit(s), orbit_by_scan(s)
        rows = set(orbit)
        return sl.orbit_size(s) == len(scan) == len(rows) == len(orbit) and rows == scan

    ok = all(orbit_ok(s) for s in subjects)
    _report(
        "orbit-size formula matches the projective scan, and the walk lists that orbit once",
        ok,
        f"{len(subjects)} generators checked",
    )


def test_a07_sidon_characterization_small_scale(odd_code_2_2_10):
    """Sidon <=> (full orbit and proper shifts meet in at most a line), for
    50 random planes of GF(2^10) plus every construction output."""
    tower = odd_code_2_2_10.tower
    rng = random.Random(2024)
    subjects = list(odd_code_2_2_10.generators)
    while len(subjects) < 33 + 50:
        s = sl.span(tower, [rng.randrange(1, 2 ** 10) for _ in range(2)])
        if s.dim == 2:
            subjects.append(s)
    full = 2 ** 10 - 1
    ok = True
    for u in subjects:
        proper = [
            d
            for a in tower.projective_reps("top")
            if (d := shifted_intersection_dim(u, u, a)) < u.dim
        ]
        if sc.is_sidon(u) != (sl.orbit_size(u) == full and max(proper) == 1):
            ok = False
            break
    _report("Sidon characterization holds for all 83 subjects", ok)


def test_a08_bounds_equality_and_ratio_monotone():
    """Bound coincidence, checked at n = 4k, and growth of the size-to-bound
    ratio.  The Gaussian-binomial ratio telescopes to Johnson's product, so
    the two bounds coincide at every accepted (q, n, k, d);
    test_johnson_bound_equals_the_gaussian_binomial_route checks a grid."""
    eq = all(
        sphere_packing_bound(q, 4 * k, k, 2 * k - 2)
        == oc.johnson_bound(q, 4 * k, k, 2 * k - 2)
        for q in (2, 3)
        for k in range(2, 6)
    )
    _report("sphere-packing and Johnson bounds coincide at every accepted (q, n, k, d)", eq,
            "checked here at n = 4k")
    ratios = [oc.ratio_to_bound(2, k) for k in range(2, 6)]
    _report(
        "ratio to the common bound increases over k = 2..5",
        all(a < b for a, b in zip(ratios, ratios[1:])),
        " < ".join(str(r) for r in ratios),
    )


def test_a08_ratio_k5_pinned_window():
    """The n = 4k size-to-bound ratio approaches 1/2 from below and reaches
    the pinned window (0.45, 0.5) from k = 6 on.

    At q = 2, r = 2 (so p0 = 1) the even size formula reduces to
    2^k (2^(k-1) - 1)(2^(4k) - 1), and the common bound [4k, 2]_2 / [k, 2]_2
    to (2^(4k) - 1)(2^(4k-1) - 1) / ((2^k - 1)(2^(k-1) - 1)), so

        ratio(2, k) = 2^k (2^(k-1) - 1)^2 (2^k - 1) / (2^(4k-1) - 1),
        1/2 - ratio = (5 2^(3k-1) - 2^(2k+2) + 2^(k+1) - 1) / (2^(4k) - 2).

    Hence 0 < 1/2 - ratio(2, k) < 5 / 2^(k+1) for every k >= 2: the paper's
    "approximately 1/2" is a limit, not a statement about small k.  The gap
    at k = 5 is still 0.0743 > 0.05, so ratio(2, 5) = 223200/524287
    (about 0.42572) lies below the window; k = 6 (3874752/8388607, about
    0.46191) is the first k inside it, and every later k stays inside.
    """
    ks = range(2, 41)
    half = Fraction(1, 2)
    ratios = {k: oc.ratio_to_bound(2, k) for k in ks}
    mismatches = [
        k
        for k in ks
        if ratios[k]
        != Fraction(
            2 ** k * (2 ** (k - 1) - 1) ** 2 * (2 ** k - 1), 2 ** (4 * k - 1) - 1
        )
    ]
    _report(
        "ratio(2, k) equals the closed form for k = 2..40",
        not mismatches,
        f"mismatches at k = {mismatches}" if mismatches else "",
    )
    outside_envelope = [
        k for k in ks if not 0 < half - ratios[k] < Fraction(5, 2 ** (k + 1))
    ]
    _report(
        "0 < 1/2 - ratio(2, k) < 5/2^(k+1) for k = 2..40",
        not outside_envelope,
        f"fails at k = {outside_envelope}" if outside_envelope else "",
    )
    outside_window = [k for k in range(6, 41) if not Fraction(45, 100) < ratios[k] < half]
    _report(
        "ratio lies in the pinned window (0.45, 0.5) for k = 6..40",
        not outside_window,
        f"outside at k = {outside_window}" if outside_window else "",
    )
    ratio = ratios[5]
    _report(
        "k = 5 ratio is exactly 223200/524287, below the window",
        ratio == Fraction(223200, 524287) and ratio < Fraction(45, 100),
        f"exact value {ratio} = {float(ratio):.5f}",
    )


def test_a09_enumeration_matches_closed_form():
    """Across the desk-scale grid, tuple count x orbit size = the formula."""
    cases = []
    for q, k, r in itertools.product((2, 3), (2, 3), (2, 3)):
        if q ** ((2 * r + 1) * k) <= 2 ** 26:
            cases.append((q, k, r, "odd"))
        if q ** (2 * r * k) <= 2 ** 26:
            cases.append((q, k, r, "even"))
    assert len(cases) == 14
    failures = []
    for q, k, r, parity in cases:
        t = 2 * r + 1 if parity == "odd" else 2 * r
        tower = build_tower(q, 1, k, t)
        n = tower.m
        got = sum(1 for _ in sc.enumerate_family(tower)) * (q ** n - 1) // (q - 1)
        if got != oc.construction_size(q, k, r, parity):
            failures.append((q, k, r, parity))
    _report(
        "enumerated counts match closed forms on all 14 parameter sets",
        not failures,
        f"failures: {failures}" if failures else "",
    )


def test_a10_channel_guarantee(odd_code_2_2_10):
    """Single-orbit codebook over GF(2^10): seeded decoding trials."""
    code = oc.build_union(
        odd_code_2_2_10.tower, [odd_code_2_2_10.generators[0]], provenance="one orbit"
    )
    codebook = ch.materialize_codebook(code)
    d = code.claimed_min_distance
    assert len(codebook) == 1023 and d == 2
    rep = ch.run_trials(codebook, d, ch.ChannelConfig(0, 0, 1000, seed=42))
    _report(
        "noiseless trials decode perfectly (guarantee active)",
        rep["guarantee_active"] and rep["successes"] == 1000,
        f"{rep['successes']}/1000",
    )
    rates = []
    for rho, t in ((1, 0), (0, 1)):
        out = ch.run_trials(codebook, d, ch.ChannelConfig(rho, t, 200, seed=43))
        assert out["guarantee_active"] is False
        rates.append(out["successes"] / out["trials"])
    _report(
        "beyond-guarantee settings only report rates",
        all(0 <= r <= 1 for r in rates),
        "success rates " + ", ".join(f"{r:.2f}" for r in rates),
    )


def test_a11_single_error_certificate(gf4_poly_family):
    """Every output of one erasure or one insertion around each generator of
    the GF(4) kernel union (q = 2, m = 14, k = 3, d = 4) decodes to it.

    Shifts preserve subspace distance, and below the guarantee the nearest
    word is unique, so md_decode(alpha*R) = alpha*md_decode(R): checking the
    outputs around each generator U_i checks them around every word alpha*U_i,
    which is also why drawing sent words orbit by orbit loses nothing.  The
    outputs R with R ∩ U = V, V of dimension k - rho, number
    [k, k - rho]_q * q^(rho*t) * [m - k, t]_q."""
    tower, polys = gf4_poly_family
    code = oc.build_union(tower, [lp.kernel_subspace(P) for P in polys])
    gens = ch.materialize_codebook(code).generators
    inverses = [batch_inverse(tower.top, g.projective_reps()) for g in gens]
    q, m, k = tower.q, tower.m, gens[0].dim
    assert len(gens) == 3 and q == 2 and m == 14 and k == 3
    full = tower.top.order - 1
    counts, wrong, rng = [], [], random.Random(11)
    for u in gens:
        # every plane of U is the span of two of its points
        points = u.projective_reps()
        erased = {sl.span(tower, pair).rows for pair in itertools.combinations(points, 2)}
        # one point e per line through U: e has no bit at U's pivots (the
        # lowest set bit of each RREF row), so U + <e> are distinct
        pivots = sum(r & -r for r in u.rows)
        inserted = {sl.span(tower, u.rows + (e,)).rows for e in range(1, full + 1) if not e & pivots}
        counts.append((len(erased), len(inserted)))
        for rows in erased | inserted:
            received = sl.Subspace(tower, rows)
            if sl.subspace_distance(u, received) != 1:
                wrong.append(("distance", rows))
            elif ch.md_decode(received, gens, inverses)[0] != u:
                wrong.append(("decoded", rows))
        # equivariance itself, at a few shifts of a few outputs
        for rows in rng.sample(sorted(erased | inserted), 3):
            alpha = rng.randrange(1, full + 1)
            decoded = ch.md_decode(sl.cyclic_shift(sl.Subspace(tower, rows), alpha),
                                   gens, inverses)[0]
            if decoded != sl.cyclic_shift(u, alpha):
                wrong.append(("shifted", rows, alpha))
    def outputs(rho, t):
        return gaussian_binomial(k, k - rho, q) * q ** (rho * t) * gaussian_binomial(m - k, t, q)

    _report(
        "every single-erasure and single-insertion output decodes to its generator",
        counts == [(outputs(1, 0), outputs(0, 1))] * 3 == [(7, 2047)] * 3 and not wrong,
        f"{sum(map(sum, counts))} outputs, {len(wrong)} wrong",
    )
