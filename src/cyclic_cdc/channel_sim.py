"""Minimal operator-channel simulator: a transmitted subspace suffers
dimension erasures and error-dimension insertions, and the receiver decodes
to a codeword at minimum subspace distance.

The decoder reads the orbit structure, not the codebook.  The count of a
point ratio canon(r * u^-1), r a point of the received space R and u one of
generator U_i, is the number of points of R ∩ alpha*U_i at alpha = r/u, so
one ``shift_dims`` histogram per generator gives dim(R ∩ alpha*U_i) at every
shift, and the words that meet R most are the ones nearest to it.  Sent
words are drawn from the materialized ``Codebook``, the union of the walked
orbits held as one sorted list of packed RREF keys.  Two orbits are equal or
disjoint, so a generator whose RREF is already a word is neither walked nor
decoded against; each new orbit is sized before it is walked, and one that
would take the count of distinct words past the cap is refused unwalked.

Randomness comes from a seeded ``random.Random`` (Mersenne Twister), so
trial runs are reproducible from the seed alone.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

from .errors import BrokenInvariant, DecodingFailure, InfeasibleNoise, InvalidParams
from .field_tower import FieldTower, batch_inverse
from .orbit_codes import UnionCode
from .subspace_linalg import (
    Subspace,
    cyclic_shift,
    enumerate_orbit,
    orbit_size,
    rank_rows,
    shift_dims,
    span,
    subspace_distance,
)

CODEBOOK_CAP = 1 << 16
_RETRY_CAP = 200


class ChannelConfig(NamedTuple):
    erasures: int
    insertions: int
    trials: int
    seed: int

    def check(self, k: int, n: int) -> None:
        """InvalidParams for negative trials; InfeasibleNoise unless erasures
        lie in [0, k] and insertions in [0, n - k] (k = dim, n = ambient)."""
        if self.trials < 0:
            raise InvalidParams(f"trials must be >= 0, got {self.trials}")
        if not 0 <= self.erasures <= k:
            raise InfeasibleNoise(f"erasures must lie in [0, {k}]")
        if not 0 <= self.insertions <= n - k:
            raise InfeasibleNoise(f"insertions must lie in [0, {n - k}]")


def transmit(codeword: Subspace, cfg: ChannelConfig, rng: random.Random) -> Subspace:
    """One channel use: keep a uniformly random (k - erasures)-dimensional
    subspace of the codeword, then add ``insertions`` error dimensions whose
    span meets the codeword trivially.  The received space then sits at
    subspace distance erasures + insertions from the codeword."""
    tower = codeword.tower
    k = codeword.dim
    n = codeword.ambient_dim
    cfg.check(k, n)
    rho, t = cfg.erasures, cfg.insertions
    q = tower.q
    top = tower.top

    def random_member() -> int:
        acc = 0
        for row in codeword.rows:
            acc = top.add(acc, tower.scalar_mul(rng.randrange(q), row))
        return acc

    target = k - rho
    kept: tuple[int, ...] = ()
    for _ in range(_RETRY_CAP):
        sub = span(tower, [random_member() for _ in range(target)])
        if sub.dim == target:
            kept = sub.rows
            break
    else:
        raise InfeasibleNoise("could not sample the erased subspace")

    inserted: list[int] = []
    guard = list(codeword.rows)
    for _ in range(t):
        for _ in range(_RETRY_CAP):
            e = rng.randrange(1, top.order)
            if rank_rows(tower, guard + inserted + [e]) == k + len(inserted) + 1:
                inserted.append(e)
                break
        else:
            raise InfeasibleNoise("could not sample an error dimension")

    received = span(tower, list(kept) + inserted)
    if received.dim != target + t or subspace_distance(codeword, received) != rho + t:
        raise BrokenInvariant("received space is not at distance erasures + insertions")
    return received


def md_decode(
    received: Subspace,
    generators: Sequence[Subspace],
    inverses: Sequence[list[int]],
    codebook: Sequence[Subspace],
) -> tuple[Subspace, int]:
    """A codeword at minimum subspace distance from ``received``, and the
    number of maximising shifts whose RREF was taken.  ``inverses`` holds
    the inverses of the points of each generator, one per orbit.

    All words have dimension k, so the nearest are the alpha*U_i that meet R
    most; the smallest RREF among them wins, the lowest index of the sorted
    codebook, which is read only for R = {0}.  Correct whenever
    2*(erasures + insertions) is below the code's minimum distance."""
    if received.dim == 0:
        # R = {0} meets every word trivially: all sit at distance k
        return codebook[0], 0
    best, argmax = 0, []
    for gen, inv in zip(generators, inverses):
        for alpha, d in shift_dims(received, gen, inv).items():
            if d > best:
                best, argmax = d, []
            if d == best:
                argmax.append((gen, alpha))
    words = (cyclic_shift(gen, alpha) for gen, alpha in argmax)
    return min(words, key=lambda w: w.rows), len(argmax)


def _pack(rows: Sequence[int], base: int) -> int:
    key = 0
    for r in rows:
        key = key * base + r
    return key


def _position(keys: list[int], key: int) -> int:
    """Index of ``key`` in the sorted ``keys``, or -1."""
    i = bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else -1


class Codebook(Sequence):
    """The distinct words of a union code in RREF order, one ``Subspace``
    built per access, and one generator per orbit.  Each sorted key is a
    word's k RREF rows read as base-q^m digits, most significant first."""

    def __init__(self, tower: FieldTower, k: int, keys: list[int],
                 generators: tuple[Subspace, ...]) -> None:
        self.tower, self.k, self.keys, self.generators = tower, k, keys, generators

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> Subspace:
        key, rows, base = self.keys[i], [], self.tower.top.order
        for _ in range(self.k):
            key, row = divmod(key, base)
            rows.append(row)
        return Subspace(self.tower, tuple(reversed(rows)))

    def index(self, word: Subspace) -> int:
        """The position of ``word``; ValueError if it is not a codeword."""
        if (i := _position(self.keys, _pack(word.rows, self.tower.top.order))) < 0:
            raise ValueError("not a codeword")
        return i


def materialize_codebook(code: UnionCode, cap: int = CODEBOOK_CAP) -> Codebook:
    """All distinct codewords of the union, in RREF order; InfeasibleNoise
    before an orbit is walked whose size would take the count past ``cap``.
    Each orbit's keys are sorted once, and one sort merges the runs."""
    base, runs, walked = code.tower.top.order, [], []
    for g in code.generators:
        key = _pack(g.rows, base)
        if any(_position(run, key) >= 0 for run in runs):
            continue  # two orbits are equal or disjoint: walk each once
        if (size := sum(map(len, runs)) + orbit_size(g)) > cap:
            raise InfeasibleNoise(f"{size} codewords exceed the codebook cap {cap}")
        runs.append(sorted([_pack(rows, base) for rows in enumerate_orbit(g)]))
        walked.append(g)
    keys = sorted(chain.from_iterable(runs))
    return Codebook(code.tower, code.generators[0].dim, keys, tuple(walked))


def run_trials(
    generators: Sequence[Subspace],
    codebook: Sequence[Subspace],
    min_distance: int,
    cfg: ChannelConfig,
) -> dict:
    """Seeded decoding trials on the code with these generators (one per
    orbit), whose codebook the sent words are drawn from; returns a
    JSON-ready report whose ``counters`` say what decoding examined.

    When the guarantee 2*(erasures+insertions) < min_distance is active,
    every trial must decode correctly, and a wrong decode raises
    DecodingFailure; otherwise the failure rate is only reported."""
    rng = random.Random(cfg.seed)
    guarantee = 2 * (cfg.erasures + cfg.insertions) < min_distance
    top, q = generators[0].tower.top, generators[0].tower.q
    inverses = [batch_inverse(top, g.projective_reps()) for g in generators]
    points = sum(map(len, inverses))
    successes = ratios = candidates = 0
    for _ in range(cfg.trials):
        sent = rng.randrange(len(codebook))
        word = codebook[sent]
        received = transmit(word, cfg, rng)
        decoded, taken = md_decode(received, generators, inverses, codebook)
        ratios += (q ** received.dim - 1) // (q - 1) * points
        candidates += taken
        if decoded.rows == word.rows:
            successes += 1
        elif guarantee:
            raise DecodingFailure(
                f"sent {sent}, decoded {codebook.index(decoded)}, "
                f"claimed distance {min_distance}"
            )
    return {
        "trials": cfg.trials,
        "successes": successes,
        "erasures": cfg.erasures,
        "insertions": cfg.insertions,
        "seed": cfg.seed,
        "guarantee_active": guarantee,
        "counters": {"point_ratios": ratios, "decode_candidates": candidates},
    }
