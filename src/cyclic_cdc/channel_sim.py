"""Minimal operator-channel simulator: a transmitted subspace suffers
dimension erasures and error-dimension insertions, and the receiver decodes
to a codeword at minimum subspace distance.

The simulator reads the orbit structure and keeps no list of words.  The
count of a point ratio canon(r * u^-1), r a point of the received space R
and u one of generator U_i, is the number of points of R ∩ alpha*U_i at
alpha = r/u, so one ``shift_dims`` histogram per generator gives
dim(R ∩ alpha*U_i) at every shift, and the words that meet R most are the
ones nearest to it.  Sent words are drawn from the ``Codebook``, a lazy
index whose word offset_j + c is the shift g^c * U_j (g primitive) of the
j-th distinct orbit, so one ``randrange`` draws a word uniformly and builds
only that word.  Erasures = k with no insertion, which would leave R = {0}
at distance k from every word, outside any guarantee, are refused.

Randomness comes from a seeded ``random.Random`` (Mersenne Twister), so
trial runs are reproducible from the seed alone.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

from .errors import BrokenInvariant, DecodingFailure, InfeasibleNoise, InvalidParams
from .orbit_codes import UnionCode
from .subspace_linalg import (
    DEFAULT_SCAN_BUDGET,
    Subspace,
    UnionScan,
    cyclic_shift,
    rank_rows,
    shift_dims,
    span,
    subspace_distance,
    union_distance,
)

_RETRY_CAP = 200


class ChannelConfig(NamedTuple):
    erasures: int
    insertions: int
    trials: int
    seed: int

    def check(self, k: int, n: int) -> None:
        """InvalidParams for negative trials; InfeasibleNoise unless erasures
        lie in [0, k], insertions in [0, n - k] and R != {0} (k = dim, n = ambient)."""
        if self.trials < 0:
            raise InvalidParams(f"trials must be >= 0, got {self.trials}")
        if not 0 <= self.erasures <= k:
            raise InfeasibleNoise(f"erasures must lie in [0, {k}]")
        if not 0 <= self.insertions <= n - k:
            raise InfeasibleNoise(f"insertions must lie in [0, {n - k}]")
        if self.erasures == k and not self.insertions:
            raise InfeasibleNoise(f"{k} erasures and no insertion leave R = {{0}}")


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
            acc = top.add(acc, top.mul(rng.randrange(q), row))
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
    received: Subspace, generators: Sequence[Subspace], inverses: Sequence[list[int]]
) -> tuple[Subspace, int]:
    """A codeword at minimum subspace distance from ``received`` (R != {0}),
    and the number of maximising shifts whose RREF was taken.  ``inverses``
    holds the inverses of the points of each generator, one per orbit.

    All words have dimension k, so the nearest are the alpha*U_i that meet R
    most, and every point of R lies in some of them; the smallest RREF among
    them wins.  Correct whenever 2*(erasures + insertions) is below the
    code's minimum distance."""
    best, argmax = 0, []
    for gen, inv in zip(generators, inverses):
        for alpha, d in shift_dims(received, gen, inv).items():
            if d > best:
                best, argmax = d, []
            if d == best:
                argmax.append((gen, alpha))
    words = (cyclic_shift(gen, alpha) for gen, alpha in argmax)
    return min(words, key=lambda w: w.rows), len(argmax)


class Codebook(Sequence):
    """The distinct words of a union code, orbit by orbit: index
    offsets[j] + c is g^c * U_j for 0 <= c < |orbit of U_j|, g the top
    field's primitive element and U_j the j-th generator that the scan keeps
    (its ``distinct`` ones), whose point inverses are inverses[j].  The
    orbit sizes and inverses are the scan's; a word is built only when it
    is read."""

    def __init__(self, generators: Sequence[Subspace], scan: UnionScan) -> None:
        kept = scan.distinct
        self.generators = tuple(generators[j] for j in kept)
        self.inverses = [scan.inverses[j] for j in kept]
        self.offsets = list(accumulate((scan.orbit_sizes[j] for j in kept), initial=0))

    def __len__(self) -> int:
        return self.offsets[-1]

    def locate(self, i: int) -> tuple[int, int]:
        """The orbit j and shift c of index 0 <= i < len; IndexError else."""
        if not 0 <= i < len(self):
            raise IndexError(f"codebook index {i} out of range")
        j = bisect_right(self.offsets, i) - 1
        return j, i - self.offsets[j]

    def __getitem__(self, i: int) -> Subspace:
        j, c = self.locate(i)
        top = self.generators[j].tower.top
        return cyclic_shift(self.generators[j], top.pow(top.primitive, c))


def materialize_codebook(code: UnionCode) -> Codebook:
    """The ``Codebook`` of one ``union_distance`` scan of the code's generators."""
    return Codebook(code.generators, union_distance(code.generators, DEFAULT_SCAN_BUDGET))


def run_trials(codebook: Codebook, min_distance: int, cfg: ChannelConfig) -> dict:
    """Seeded decoding trials on a code: words drawn from its codebook and
    decoded against the codebook's generators and point inverses.  Returns
    a JSON-ready report whose ``counters`` say what decoding examined.

    When the guarantee 2*(erasures+insertions) < min_distance is active,
    every trial must decode correctly, and a wrong decode raises
    DecodingFailure; otherwise the failure rate is only reported."""
    rng = random.Random(cfg.seed)
    guarantee = 2 * (cfg.erasures + cfg.insertions) < min_distance
    q = codebook.generators[0].tower.q
    points = sum(map(len, codebook.inverses))
    successes = ratios = candidates = 0
    for _ in range(cfg.trials):
        sent = rng.randrange(len(codebook))
        word = codebook[sent]
        received = transmit(word, cfg, rng)
        decoded, taken = md_decode(received, codebook.generators, codebook.inverses)
        ratios += (q ** received.dim - 1) // (q - 1) * points
        candidates += taken
        if decoded.rows == word.rows:
            successes += 1
        elif guarantee:
            orbit, shift = codebook.locate(sent)
            raise DecodingFailure(
                f"sent orbit {orbit} shift {shift}, decoded RREF rows {list(decoded.rows)}, "
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
