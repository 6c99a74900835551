"""The operator channel, and the orbit-index decoder against decoding by a
scan of the whole codebook."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decode_by_scan, orbit_by_scan
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


def _decode(received, generators, codebook):
    return ch.md_decode(received, generators, _inverses(generators), codebook)


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
    assert _decode(w, subfield_code.generators, subfield_codebook) == (w, 3)


def test_decode_of_the_zero_space_is_the_first_word(subfield_code, subfield_codebook):
    # rho = k erasures leave R = {0}, at distance k from every word: the
    # scan keeps index 0, and the decoder takes it without a point ratio
    zero = ch.transmit(subfield_codebook[5], ch.ChannelConfig(2, 0, 1, 0), random.Random(0))
    assert zero.dim == 0
    assert decode_by_scan(zero, subfield_codebook) == 0
    assert _decode(zero, subfield_code.generators, subfield_codebook) == (subfield_codebook[0], 0)


def test_decode_ties_break_to_the_smallest_rref(even_code_2_2_8):
    # a point lies on 12 of the 1,020 lines of the even (2,2,8) code, each
    # at distance 1 from it: the scan keeps the lowest index, and the
    # decoder the smallest of the 12 RREFs
    book = ch.materialize_codebook(even_code_2_2_8)
    point = sl.span(even_code_2_2_8.tower, [book[40].rows[0]])
    hits = [i for i, w in enumerate(book) if sl.subspace_distance(point, w) == 1]
    assert len(hits) == 12 and hits[0] == decode_by_scan(point, book) < 40
    decoded, taken = _decode(point, even_code_2_2_8.generators, book)
    assert decoded == book[hits[0]] and taken == 12


def test_guaranteed_regime_always_decodes(subfield_code, subfield_codebook):
    # d = 4, so one erasure or one insertion stays under the guarantee
    for rho, t in ((0, 0), (1, 0), (0, 1)):
        cfg = ch.ChannelConfig(erasures=rho, insertions=t, trials=120, seed=9)
        rep = ch.run_trials(subfield_code.generators, subfield_codebook, 4, cfg)
        assert rep["guarantee_active"] is True
        assert rep["successes"] == rep["trials"]


def test_beyond_guarantee_reports_rate(subfield_code, subfield_codebook):
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=120, seed=10)
    rep = ch.run_trials(subfield_code.generators, subfield_codebook, 4, cfg)
    assert rep["guarantee_active"] is False
    assert 0 <= rep["successes"] <= rep["trials"]


def test_false_distance_claim_breaks_the_guarantee(subfield_code, subfield_codebook):
    # d = 4; a claimed 6 puts one erasure plus one insertion under a
    # guarantee the code cannot keep
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=40, seed=10)
    with pytest.raises(DecodingFailure) as exc:
        ch.run_trials(subfield_code.generators, subfield_codebook, 6, cfg)
    # the message names the codebook indices of the first wrong trial, as
    # the scan decodes it
    rng = random.Random(cfg.seed)
    while True:
        sent = rng.randrange(len(subfield_codebook))
        decoded = decode_by_scan(ch.transmit(subfield_codebook[sent], cfg, rng), subfield_codebook)
        if decoded != sent:
            break
    assert str(exc.value) == f"sent {sent}, decoded {decoded}, claimed distance 6"


def test_trials_are_reproducible(subfield_code, subfield_codebook):
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=60, seed=123)
    a = ch.run_trials(subfield_code.generators, subfield_codebook, 4, cfg)
    b = ch.run_trials(subfield_code.generators, subfield_codebook, 4, cfg)
    assert a == b


def test_codebook_cap():
    tw = build_tower(2, 1, 2, 4)
    code = oc.build_union(tw, [sl.span(tw, range(1, 4))])
    with pytest.raises(InfeasibleNoise):
        ch.materialize_codebook(code, cap=10)


def test_codebook_counts_a_repeated_orbit_once():
    # two generators of one orbit: the codebook is that orbit, and a cap
    # of its size admits it
    tw = build_tower(2, 1, 2, 4)
    u = sl.span(tw, range(1, 3))
    code = oc.build_union(tw, [u, sl.cyclic_shift(u, tw.top.primitive)])
    words = ch.materialize_codebook(code, cap=sl.orbit_size(u))
    assert [w.rows for w in words] == sorted(sl.enumerate_orbit(u))
    assert len(words) == sl.orbit_size(u) == 85


@pytest.mark.parametrize(
    "q, subfield_linear", [(q, sub) for q in sorted(TOWERS) for sub in (False, True)]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_codebook_is_the_union_of_the_scanned_orbits(q, subfield_linear, data):
    # the walk over geometric columns gives the words of the scan over every
    # projective point, repeated orbits (a shifted generator) counted once,
    # and the packed keys give them back in RREF order, each at its index
    gens = data.draw(orbit_generators(q, subfield_linear))
    tw = gens[0].tower
    book = ch.materialize_codebook(oc.build_union(tw, gens))
    words = sorted(set().union(*(orbit_by_scan(g) for g in gens)))
    assert list(book) == [sl.Subspace(tw, rows) for rows in words]
    assert all(book.index(book[i]) == i for i in range(len(book)))
    assert book[-1].rows == words[-1]
    # one generator per orbit: none of them a shift of another
    assert len(book) == sum(map(sl.orbit_size, book.generators))
    vectors = data.draw(st.lists(st.integers(1, tw.top.order - 1), min_size=1, max_size=3))
    for w in (sl.span(tw, vectors), sl.Subspace(tw, ())):
        if w.rows in words:
            assert book.index(w) == words.index(w.rows)
        else:
            with pytest.raises(ValueError):
                book.index(w)


@pytest.mark.parametrize("q", sorted(TOWERS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_codebook_keys_follow_row_tuple_order_at_the_digit_edges(q, k):
    # rows at 0, 1, q^m - 2 and q^m - 1: a key that carried between digits
    # or dropped the top one would reorder or alias these tuples
    tw = build_tower(*TOWERS[q])
    top = tw.top.order - 1
    tuples = sorted(itertools.product((0, 1, top - 1, top), repeat=k))
    keys = [sum(r * (top + 1) ** (k - 1 - j) for j, r in enumerate(t)) for t in tuples]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    book = ch.Codebook(tw, k, keys, ())
    assert [w.rows for w in book] == tuples
    assert [book.index(sl.Subspace(tw, t)) for t in tuples] == list(range(len(tuples)))


def test_codebook_is_sized_before_any_orbit_is_walked(one_orbit_code_3_3_15, monkeypatch):
    # the orbit sizes alone put the code over the cap: walking its
    # 7,174,453-word orbit first would take minutes
    def no_walk(u):
        raise AssertionError("orbit walked before the codebook was sized")

    monkeypatch.setattr(ch, "enumerate_orbit", no_walk)
    with pytest.raises(InfeasibleNoise, match="7174453 codewords exceed"):
        ch.materialize_codebook(one_orbit_code_3_3_15)


@pytest.mark.parametrize(
    "q, subfield_linear", [(q, sub) for q in sorted(TOWERS) for sub in (False, True)]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_orbit_decoder_matches_scan_trial_by_trial(q, subfield_linear, data):
    # run_trials' own draws, replayed: every erasure count rho in 0..k (so
    # R = {0} too) and t in 0..3 insertions where they fit, inside the
    # decoding guarantee and outside it
    gens = data.draw(orbit_generators(q, subfield_linear))
    code = oc.build_union(gens[0].tower, gens)
    book = ch.materialize_codebook(code)
    inverses = _inverses(gens)
    k, m = gens[0].dim, code.tower.m
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    for rho in range(k + 1):
        for t in range(min(3, m - k) + 1):
            cfg = ch.ChannelConfig(rho, t, 3, seed)
            rng = random.Random(seed)
            for _ in range(cfg.trials):
                sent = rng.randrange(len(book))
                received = ch.transmit(book[sent], cfg, rng)
                decoded, taken = ch.md_decode(received, gens, inverses, book)
                assert decoded == book[decode_by_scan(received, book)], (rho, t)
                assert (taken == 0) == (received.dim == 0)
