"""The operator channel, the lazy codebook against the scanned orbits, and
the orbit-index decoder against decoding by a scan of every word in RREF
order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decode_by_scan, orbit_by_scan, sorted_codebook
from strategies import TOWERS, orbit_generators

from cyclic_cdc import channel_sim as ch
from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import DecodingFailure, InfeasibleNoise
from cyclic_cdc.field_tower import batch_inverse, build_tower


@pytest.fixture(scope="module")
def subfield_code():
    # orbit of GF(4) inside GF(2^8): 85 words, minimum distance 4
    tw = build_tower(2, 1, 2, 4)
    return oc.build_union(tw, [sl.span(tw, range(1, 4))], provenance="subfield")


@pytest.fixture(scope="module")
def subfield_codebook(subfield_code):
    book = ch.materialize_codebook(subfield_code)
    assert len(book) == 85
    return book


def _inverses(generators):
    return [batch_inverse(g.tower.top, g.projective_reps()) for g in generators]


def _decode(received, generators):
    return ch.md_decode(received, generators, _inverses(generators))


def test_noiseless_transmission_is_identity(subfield_codebook):
    cfg = ch.ChannelConfig(erasures=0, insertions=0, trials=1, seed=0)
    rng = random.Random(0)
    w = subfield_codebook[7]
    assert ch.transmit(w, cfg, rng).rows == w.rows


def test_transmit_distance_profile(subfield_codebook):
    rng = random.Random(1)
    w = subfield_codebook[3]
    for rho, t in ((1, 0), (0, 1), (1, 1), (2, 2)):
        cfg = ch.ChannelConfig(erasures=rho, insertions=t, trials=1, seed=0)
        received = ch.transmit(w, cfg, rng)
        assert received.dim == w.dim - rho + t
        assert sl.subspace_distance(w, received) == rho + t


def test_transmit_noise_limits(subfield_codebook):
    w = subfield_codebook[0]
    rng = random.Random(2)
    with pytest.raises(InfeasibleNoise):
        ch.transmit(w, ch.ChannelConfig(0, 7, 1, 0), rng)  # t > n - k
    with pytest.raises(InfeasibleNoise):
        ch.transmit(w, ch.ChannelConfig(3, 0, 1, 0), rng)  # rho > k


def test_decode_identity_and_ties(subfield_code, subfield_codebook):
    w = subfield_codebook[11]
    assert decode_by_scan(w, subfield_codebook) == 11
    assert decode_by_scan(w, [subfield_codebook[4], w, w]) == 1  # lowest index wins
    # the orbit-index decoder finds the word itself; the orbit is short, so
    # the 3 shifts by GF(4)* name it three times
    assert _decode(w, subfield_code.generators) == (w, 3)


def test_transmit_refuses_the_zero_space(subfield_code, subfield_codebook):
    # rho = k erasures and no insertion would leave R = {0}, at distance k
    # from every word and outside any guarantee: refused before a draw.  One
    # insertion leaves a point, which the decoder reads like any other R.
    w = subfield_codebook[5]
    cfg = ch.ChannelConfig(2, 0, 1, 0)
    with pytest.raises(InfeasibleNoise, match=r"2 erasures and no insertion leave R = \{0\}"):
        ch.transmit(w, cfg, random.Random(0))
    with pytest.raises(InfeasibleNoise):
        ch.run_trials(subfield_codebook, 4, cfg)
    point = ch.transmit(w, ch.ChannelConfig(2, 1, 1, 0), random.Random(0))
    assert point.dim == 1 and sl.subspace_distance(w, point) == 3
    words = sorted_codebook(subfield_code)
    decoded, taken = _decode(point, subfield_code.generators)
    assert decoded == words[decode_by_scan(point, words)] and taken >= 1


def test_decode_ties_break_to_the_smallest_rref(even_code_2_2_8):
    # a point lies on 12 of the 1,020 lines of the even (2,2,8) code, each
    # at distance 1 from it: the scan over the words in RREF order keeps the
    # lowest index, and the decoder the smallest of the 12 RREFs
    book = ch.materialize_codebook(even_code_2_2_8)
    words = sorted_codebook(even_code_2_2_8)
    point = sl.span(even_code_2_2_8.tower, [words[40].rows[0]])
    hits = [i for i, w in enumerate(words) if sl.subspace_distance(point, w) == 1]
    assert len(hits) == 12 and hits[0] == decode_by_scan(point, words) < 40
    decoded, taken = _decode(point, even_code_2_2_8.generators)
    assert decoded == words[hits[0]] and taken == 12


def test_guaranteed_regime_always_decodes(subfield_codebook):
    # d = 4, so one erasure or one insertion stays under the guarantee
    for rho, t in ((0, 0), (1, 0), (0, 1)):
        cfg = ch.ChannelConfig(erasures=rho, insertions=t, trials=120, seed=9)
        rep = ch.run_trials(subfield_codebook, 4, cfg)
        assert rep["guarantee_active"] is True
        assert rep["successes"] == rep["trials"]


def test_beyond_guarantee_reports_rate(subfield_codebook):
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=120, seed=10)
    rep = ch.run_trials(subfield_codebook, 4, cfg)
    assert rep["guarantee_active"] is False
    assert 0 <= rep["successes"] <= rep["trials"]


def test_false_distance_claim_breaks_the_guarantee(subfield_code, subfield_codebook):
    # d = 4; a claimed 6 puts one erasure plus one insertion under a
    # guarantee the code cannot keep
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=40, seed=10)
    with pytest.raises(DecodingFailure) as exc:
        ch.run_trials(subfield_codebook, 6, cfg)
    # the message names the (orbit, shift) of the first wrong trial's sent
    # word and the RREF rows of the word the scan decodes it to
    words = sorted_codebook(subfield_code)
    rng = random.Random(cfg.seed)
    while True:
        sent = rng.randrange(len(subfield_codebook))
        decoded = words[decode_by_scan(ch.transmit(subfield_codebook[sent], cfg, rng), words)]
        if decoded != subfield_codebook[sent]:
            break
    assert str(exc.value) == (f"sent orbit 0 shift {sent}, decoded RREF rows "
                              f"{list(decoded.rows)}, claimed distance 6")


def test_trials_are_reproducible(subfield_codebook):
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=60, seed=123)
    a = ch.run_trials(subfield_codebook, 4, cfg)
    b = ch.run_trials(subfield_codebook, 4, cfg)
    assert a == b


def test_codebook_counts_a_repeated_orbit_once():
    # two generators of one orbit: the codebook is that orbit, in the order
    # of the walk from the first of them
    tw = build_tower(2, 1, 2, 4)
    u = sl.span(tw, range(1, 3))
    code = oc.build_union(tw, [u, sl.cyclic_shift(u, tw.top.primitive)])
    words = ch.materialize_codebook(code)
    assert words.generators == (u,) and words.inverses == _inverses([u])
    assert [w.rows for w in words] == sl.enumerate_orbit(u)
    assert len(words) == sl.orbit_size(u) == 85


@pytest.mark.parametrize(
    "q, subfield_linear", [(q, sub) for q in sorted(TOWERS) for sub in (False, True)]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_codebook_is_the_union_of_the_scanned_orbits(q, subfield_linear, data):
    # index -> word is a bijection onto the union of the orbits that the
    # scan over every projective point lists, in the order of the walks of
    # the kept generators: the first of each orbit in file order, so a
    # repeated orbit (a shifted generator) is counted once
    gens = data.draw(orbit_generators(q, subfield_linear))
    tw = gens[0].tower
    book = ch.materialize_codebook(oc.build_union(tw, gens))
    orbits = [orbit_by_scan(g) for g in gens]
    # the scan sizes every orbit, and its size counts each distinct one once
    scan = sl.union_distance(gens, sl.DEFAULT_SCAN_BUDGET)
    assert scan.orbit_sizes == [len(o) for o in orbits]
    assert scan.size == len(book) == len(set().union(*orbits))
    kept = [g for i, g in enumerate(gens) if not any(g.rows in o for o in orbits[:i])]
    assert book.generators == tuple(kept) and book.inverses == _inverses(kept)
    rows = [w.rows for w in book]
    assert rows == [word for g in kept for word in sl.enumerate_orbit(g)]
    assert len(set(rows)) == len(rows) == len(book) == sum(map(sl.orbit_size, kept))
    assert set(rows) == set().union(*orbits)
    i = data.draw(st.integers(0, len(book) - 1))
    j, c = book.locate(i)
    assert book.offsets[j] + c == i and 0 <= c < sl.orbit_size(kept[j])
    for bad in (-1, len(book)):
        with pytest.raises(IndexError):
            book[bad]


def test_codebook_is_sized_before_any_orbit_is_walked(one_orbit_code_3_3_15, monkeypatch):
    # the 7,174,453 words of one orbit are indexed from its size: a draw
    # builds one shift, and nothing walks the orbit
    def no_walk(u):
        raise AssertionError("orbit walked")

    monkeypatch.setattr(sl, "enumerate_orbit", no_walk)
    book = ch.materialize_codebook(one_orbit_code_3_3_15)
    assert len(book) == 7174453
    gen, top = book.generators[0], one_orbit_code_3_3_15.tower.top
    assert book[7174452] == sl.cyclic_shift(gen, top.pow(top.primitive, 7174452))


@pytest.mark.parametrize(
    "q, subfield_linear", [(q, sub) for q in sorted(TOWERS) for sub in (False, True)]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_orbit_decoder_matches_scan_trial_by_trial(q, subfield_linear, data):
    # run_trials' own draws, replayed: every erasure count rho in 0..k and
    # t in 0..3 insertions where they fit, but (k, 0), which leaves R = {0},
    # inside the decoding guarantee and outside it; the scan runs over the
    # words in RREF order, so its lowest index is the decoder's smallest
    # RREF, and every R has a point, so some shift meets it
    gens = data.draw(orbit_generators(q, subfield_linear))
    code = oc.build_union(gens[0].tower, gens)
    book = ch.materialize_codebook(code)
    words = sorted_codebook(code)
    inverses = _inverses(gens)
    k, m = gens[0].dim, code.tower.m
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    for rho in range(k + 1):
        for t in range(rho == k, min(3, m - k) + 1):
            cfg = ch.ChannelConfig(rho, t, 3, seed)
            rng = random.Random(seed)
            for _ in range(cfg.trials):
                sent = rng.randrange(len(book))
                received = ch.transmit(book[sent], cfg, rng)
                decoded, taken = ch.md_decode(received, gens, inverses)
                assert decoded == words[decode_by_scan(received, words)], (rho, t)
                assert taken >= 1 and received.dim >= 1
