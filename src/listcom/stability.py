"""Chance-corrected stability scores over the consensus matrix.

A community's raw stability is the mean consensus score over its unordered
member pairs.  The expected stability for its size is estimated by averaging
the same quantity over random node subsets drawn from the matrix order, and
the corrected score rescales raw against that baseline:

    corrected = (raw - expected) / (1 - expected)

so 1 means perfectly stable co-assignment and values near 0 mean the
community is indistinguishable from a random node set of its size.  Expected
stability depends only on the size, so estimates are memoized per size when
ranking; the per-size sampling seed is derived from (seed, size) to keep the
estimate independent of ranking order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .consensus import ConsensusMatrix
from .detect import CommunitySet
from .errors import ValidationError
from .seeds import derive_seed

_SATURATION_EPS = 1e-9


@dataclass(frozen=True)
class StabilityScore:
    raw: float
    expected: float
    corrected: float
    randomized_runs: int


_PAIR_BLOCK = 1 << 18


def _pair_blocks(size: int):
    """The pairs of positions ``0..size-1`` in ``itertools.combinations``
    order, as (first, second) arrays in row blocks of about ``_PAIR_BLOCK``
    pairs."""
    step = max(1, _PAIR_BLOCK // size)
    for start in range(0, size - 1, step):
        counts = np.arange(size - 1 - start, max(size - 1 - start - step, 0), -1)
        first = np.repeat(np.arange(start, start + len(counts)), counts)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
        yield first, first + 1 + offset


def _mean_pair_scores(subsets: np.ndarray, matrix: ConsensusMatrix) -> np.ndarray:
    """Mean score over the pairs of each row of ``subsets`` (distinct node
    positions per row).

    Each row's scores are added one after the other in pair order
    (``np.cumsum`` is a sequential running sum), absent pairs counting 0.
    """
    l = len(matrix.order)
    size = subsets.shape[1]
    totals = np.zeros((len(subsets), 1))
    for first, second in _pair_blocks(size):
        a, b = subsets[:, first], subsets[:, second]
        scores = matrix.lookup(np.minimum(a, b) * l + np.maximum(a, b))
        totals = np.cumsum(np.hstack([totals, scores]), axis=1)[:, -1:]
    return totals[:, 0] / (size * (size - 1) // 2)


def raw_stability(community, matrix: ConsensusMatrix) -> float:
    """Mean consensus score over all unordered pairs; absent entries count 0."""
    members = sorted(community)
    if len(members) < 2:
        raise ValidationError("stability is undefined for communities of size < 2")
    return float(_mean_pair_scores(matrix.positions(members)[None, :], matrix)[0])


def expected_stability(size: int, matrix: ConsensusMatrix, draws: int, seed: int) -> float:
    """Monte-Carlo mean raw stability of random ``size``-node subsets.

    Deterministic given (matrix, draws, seed).  For matrices up to a few
    thousand nodes the scores are densified once so each draw reduces to an
    array slice; the draw sequence is identical on both paths.
    """
    l = len(matrix.order)
    if not (2 <= size <= l):
        raise ValidationError(f"size must be in [2, {l}]")
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    total = 0.0
    if l <= 4096:
        dense = np.zeros((l, l))
        i, j = np.divmod(matrix.keys, l)
        dense[i, j] = matrix.values
        dense[j, i] = matrix.values
        pair_count = size * (size - 1) / 2.0
        for _ in range(draws):
            subset = rng.choice(l, size=size, replace=False)
            total += dense[np.ix_(subset, subset)].sum() / 2.0 / pair_count
    else:
        # Whole draws in blocks of about _PAIR_BLOCK pairs; the per-draw
        # means are then summed in draw order.
        step = max(1, _PAIR_BLOCK // (size * (size - 1) // 2))
        means = [np.zeros(1)]
        for start in range(0, draws, step):
            subsets = np.array([rng.choice(l, size=size, replace=False)
                                for _ in range(min(step, draws - start))])
            means.append(_mean_pair_scores(subsets, matrix))
        total = float(np.cumsum(np.concatenate(means))[-1])
    return total / draws


def corrected_stability(community, matrix: ConsensusMatrix, draws: int,
                        seed: int) -> StabilityScore:
    """Chance-corrected stability; the sampling seed for the expected term is
    derived from (seed, community size) to match :func:`rank_communities`."""
    raw = raw_stability(community, matrix)
    size = len(set(community))
    expected = expected_stability(size, matrix, draws, derive_seed(seed, size))
    if expected >= 1.0 - _SATURATION_EPS:
        corrected = 0.0 if raw <= expected else 1.0
    else:
        corrected = (raw - expected) / (1.0 - expected)
    return StabilityScore(raw=raw, expected=expected, corrected=corrected,
                          randomized_runs=draws)


def rank_communities(
    cs: CommunitySet, matrix: ConsensusMatrix, draws: int, seed: int
) -> list[tuple[frozenset[str], StabilityScore]]:
    """Communities with scores, sorted by corrected stability descending.

    Ties break by size descending, then lexicographically by members.
    Size-1 communities carry no pair signal and are skipped.
    """
    expected_by_size: dict[int, float] = {}
    scored: list[tuple[frozenset[str], StabilityScore]] = []
    for community in cs:
        size = len(community)
        if size < 2:
            continue
        if size not in expected_by_size:
            expected_by_size[size] = expected_stability(
                size, matrix, draws, derive_seed(seed, size))
        raw = raw_stability(community, matrix)
        expected = expected_by_size[size]
        if expected >= 1.0 - _SATURATION_EPS:
            corrected = 0.0 if raw <= expected else 1.0
        else:
            corrected = (raw - expected) / (1.0 - expected)
        scored.append((community, StabilityScore(raw, expected, corrected, draws)))
    scored.sort(key=lambda item: (-item[1].corrected, -len(item[0]),
                                  tuple(sorted(item[0]))))
    return scored


def write_ranking(
    ranked: list[tuple[frozenset[str], StabilityScore]],
    cs: CommunitySet,
    path,
) -> None:
    """TSV: rank, corrected (2 decimals), raw, expected, list count,
    community id, corrected at full precision (``repr``).

    Community ids are positions in the canonical cover order.  The last
    column is what later stages read; the rounded one is for people.
    """
    id_of = {community: i for i, community in enumerate(cs)}
    with atomic_write(path) as fh:
        for rank, (community, score) in enumerate(ranked, start=1):
            fh.write(
                f"{rank}\t{score.corrected:.2f}\t{score.raw:.6f}\t"
                f"{score.expected:.6f}\t{len(community)}\t{id_of[community]}\t"
                f"{float(score.corrected)!r}\n"
            )
