import random

import pytest

from cyclic_cdc import channel_sim as ch
from cyclic_cdc import orbit_codes as oc
from cyclic_cdc import subspace_linalg as sl
from cyclic_cdc.errors import DecodingFailure, InfeasibleNoise
from cyclic_cdc.field_tower import build_tower


@pytest.fixture(scope="module")
def subfield_codebook():
    # orbit of GF(4) inside GF(2^8): 85 words, minimum distance 4
    tw = build_tower(2, 1, 2, 4)
    code = oc.build_union(tw, [sl.span(tw, range(1, 4))], provenance="subfield")
    book = ch.materialize_codebook(code)
    assert len(book) == 85
    return book


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


def test_decode_identity_and_ties(subfield_codebook):
    w = subfield_codebook[11]
    assert ch.md_decode(w, subfield_codebook) == 11
    assert ch.md_decode(w, [subfield_codebook[4], w, w]) == 1  # lowest index wins


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


def test_false_distance_claim_breaks_the_guarantee(subfield_codebook):
    # d = 4; a claimed 6 puts one erasure plus one insertion under a
    # guarantee the code cannot keep
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=40, seed=10)
    with pytest.raises(DecodingFailure):
        ch.run_trials(subfield_codebook, 6, cfg)


def test_trials_are_reproducible(subfield_codebook):
    cfg = ch.ChannelConfig(erasures=1, insertions=1, trials=60, seed=123)
    a = ch.run_trials(subfield_codebook, 4, cfg)
    b = ch.run_trials(subfield_codebook, 4, cfg)
    assert a == b


def test_codebook_cap():
    tw = build_tower(2, 1, 2, 4)
    code = oc.build_union(tw, [sl.span(tw, range(1, 4))])
    with pytest.raises(InfeasibleNoise):
        ch.materialize_codebook(code, cap=10)
