"""Minimal operator-channel simulator: a transmitted subspace suffers
dimension erasures and error-dimension insertions, and the receiver decodes
by minimum subspace distance against a materialized codebook.

Randomness comes from a seeded ``random.Random`` (Mersenne Twister), so
trial runs are reproducible from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BrokenInvariant, DecodingFailure, InfeasibleNoise
from .orbit_codes import UnionCode
from .subspace_linalg import (
    Subspace,
    enumerate_orbit,
    rank_rows,
    span,
    subspace_distance,
)

CODEBOOK_CAP = 1 << 16
_RETRY_CAP = 200


@dataclass(frozen=True)
class ChannelConfig:
    erasures: int
    insertions: int
    trials: int
    seed: int


def transmit(codeword: Subspace, cfg: ChannelConfig, rng: random.Random) -> Subspace:
    """One channel use: keep a uniformly random (k - erasures)-dimensional
    subspace of the codeword, then add ``insertions`` error dimensions whose
    span meets the codeword trivially.  The received space then sits at
    subspace distance erasures + insertions from the codeword."""
    tower = codeword.tower
    k = codeword.dim
    n = codeword.ambient_dim
    rho, t = cfg.erasures, cfg.insertions
    if not 0 <= rho <= k:
        raise InfeasibleNoise(f"erasures must lie in [0, {k}]")
    if not 0 <= t <= n - k:
        raise InfeasibleNoise(f"insertions must lie in [0, {n - k}]")
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


def md_decode(received: Subspace, codebook: list[Subspace]) -> int:
    """Index of a codeword at minimum subspace distance; ties break to the
    lowest index.  Correct whenever 2*(erasures + insertions) is below the
    codebook's minimum distance."""
    best_idx = 0
    best = subspace_distance(received, codebook[0])
    for idx in range(1, len(codebook)):
        d = subspace_distance(received, codebook[idx])
        if d < best:
            best, best_idx = d, idx
    return best_idx


def materialize_codebook(code: UnionCode, cap: int = CODEBOOK_CAP) -> list[Subspace]:
    """All distinct codewords of the union, in a deterministic order."""
    words: dict[tuple[int, ...], None] = {}
    for g in code.generators:
        for w in enumerate_orbit(g):
            words[w.rows] = None
        if len(words) > cap:
            raise InfeasibleNoise(f"codebook larger than cap {cap}")
    return [Subspace(code.tower, rows) for rows in sorted(words)]


def run_trials(
    codebook: list[Subspace],
    min_distance: int,
    cfg: ChannelConfig,
) -> dict:
    """Seeded decoding trials; returns a JSON-ready report.

    When the guarantee 2*(erasures+insertions) < min_distance is active,
    every trial must decode correctly, and a wrong decode raises
    DecodingFailure; otherwise the failure rate is only reported."""
    rng = random.Random(cfg.seed)
    guarantee = 2 * (cfg.erasures + cfg.insertions) < min_distance
    successes = 0
    for _ in range(cfg.trials):
        sent = rng.randrange(len(codebook))
        received = transmit(codebook[sent], cfg, rng)
        decoded = md_decode(received, codebook)
        if decoded == sent:
            successes += 1
        elif guarantee:
            raise DecodingFailure(
                f"sent {sent}, decoded {decoded}, claimed distance {min_distance}"
            )
    return {
        "trials": cfg.trials,
        "successes": successes,
        "erasures": cfg.erasures,
        "insertions": cfg.insertions,
        "seed": cfg.seed,
        "guarantee_active": guarantee,
    }
