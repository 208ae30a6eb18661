"""Chance-corrected stability scores over the consensus matrix.

A community's raw stability is the mean consensus score over its unordered
member pairs.  Its expected stability is the mean of that same quantity over
the null model: a node subset of the community's size drawn uniformly from
the l nodes of the matrix order (isolated nodes included).  Every pair lies
in such a subset with the same probability, so by linearity of expectation
the expected stability is exactly the mean score over all C(l, 2) pairs,

    expected = sum of entries / C(l, 2)

whatever the size.  The corrected score rescales raw against that baseline:

    corrected = (raw - expected) / (1 - expected)

so 1 means perfectly stable co-assignment and values near 0 mean the
community is indistinguishable from a random node set of its size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .consensus import ConsensusMatrix
from .detect import CommunitySet
from .errors import ValidationError

_SATURATION_EPS = 1e-9


@dataclass(frozen=True)
class StabilityScore:
    raw: float
    expected: float
    corrected: float


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


def raw_stability(community, matrix: ConsensusMatrix) -> float:
    """Mean consensus score over all unordered pairs; absent entries count 0.

    The scores are added one after the other in pair order (``np.cumsum`` is
    a sequential running sum).
    """
    members = sorted(community)
    if len(members) < 2:
        raise ValidationError("stability is undefined for communities of size < 2")
    positions = matrix.positions(members)
    l = len(matrix.order)
    total = np.zeros(1)
    for first, second in _pair_blocks(len(members)):
        a, b = positions[first], positions[second]
        scores = matrix.lookup(np.minimum(a, b) * l + np.maximum(a, b))
        total = np.cumsum(np.concatenate([total, scores]))[-1:]
    return float(total[0]) / (len(members) * (len(members) - 1) // 2)


def expected_stability(size: int, matrix: ConsensusMatrix) -> float:
    """Exact mean raw stability of a uniformly drawn ``size``-node subset of
    the matrix order: the sum of all entries over C(l, 2), for every size."""
    l = len(matrix.order)
    if not (2 <= size <= l):
        raise ValidationError(f"size must be in [2, {l}]")
    return math.fsum(matrix.values.tolist()) / math.comb(l, 2)


def _score(raw: float, expected: float) -> StabilityScore:
    """Rescale raw against expected; a saturated baseline gives 0 or 1."""
    if expected >= 1.0 - _SATURATION_EPS:
        corrected = 0.0 if raw <= expected else 1.0
    else:
        corrected = (raw - expected) / (1.0 - expected)
    return StabilityScore(raw=raw, expected=expected, corrected=corrected)


def corrected_stability(community, matrix: ConsensusMatrix) -> StabilityScore:
    """Chance-corrected stability of one community."""
    raw = raw_stability(community, matrix)
    return _score(raw, expected_stability(len(set(community)), matrix))


def rank_communities(
    cs: CommunitySet, matrix: ConsensusMatrix
) -> list[tuple[frozenset[str], StabilityScore]]:
    """Communities with scores, sorted by corrected stability descending.

    Ties break by size descending, then lexicographically by members.
    Size-1 communities carry no pair signal and are skipped.  The expected
    term is the same for every size, so it is computed once.
    """
    raws = [(community, raw_stability(community, matrix))
            for community in cs if len(community) >= 2]
    if not raws:
        return []
    expected = expected_stability(2, matrix)
    scored = [(community, _score(raw, expected)) for community, raw in raws]
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
