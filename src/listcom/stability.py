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

A cover is scored as a :class:`~listcom.detect.Cover` over the matrix
order, so member positions are matrix positions.  :func:`raw_stabilities`
walks the matrix rows, not the C(size, 2) member pairs: for each member
``a`` of community ``k`` it takes the keys in ``[a l, (a + 1) l)``, keeps
those whose other end is also in ``k`` (one ``np.searchsorted`` of
``k l + b`` into the ascending ``k l + member`` codes) and adds their
scores into ``k``'s total with ``np.add.at``, in blocks of about
``PAIR_BLOCK`` entries.  The work follows a community's matrix entries.
The scores are ``int64`` micro-units, so each total, and the sum of all
entries, is exact; each mean is then one correctly rounded division of
Python integers, the double nearest the exact mean.  Ranking ties break by
the canonical cover order, which is size descending, then members
lexicographic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .consensus import ConsensusMatrix
from .listgraph import MICRO
from .detect import Cover
from .errors import ValidationError

_SATURATION_EPS = 1e-9
PAIR_BLOCK = 1 << 18  # matrix entries in one block of the row walk


@dataclass(frozen=True)
class StabilityScore:
    raw: float
    expected: float
    corrected: float


def raw_stabilities(cover: Cover, matrix: ConsensusMatrix) -> np.ndarray:
    """Each community's mean consensus score over its unordered member
    pairs, absent entries counting 0; NaN for a community of fewer than two.

    The cover must be over the matrix order.  Each member's matrix row is
    walked in blocks of about ``PAIR_BLOCK`` entries, and the entries whose
    other end is in the same community are added as integers; a score of
    at most 10**6 micro-units keeps every total far below 2**63.
    """
    if cover.nodes is not matrix.order and cover.nodes != matrix.order:
        raise ValidationError("cover and matrix node orders differ")
    l = len(matrix.order)
    keys = matrix.keys
    community = np.repeat(np.arange(len(cover), dtype=np.int64), cover.sizes())
    members = cover.members.astype(np.int64)
    # Ascending, as the cover lists each community's members in order.
    codes = community * l + members
    rows = np.searchsorted(keys, np.arange(l + 1, dtype=np.int64) * l)
    starts = rows[members]
    lengths = rows[members + 1] - starts
    done = np.concatenate(([0], np.cumsum(lengths)))
    totals = np.zeros(len(cover), dtype=np.int64)
    a = 0
    while a < len(members):
        b = max(a + 1, int(np.searchsorted(done, done[a] + PAIR_BLOCK,
                                           "right")) - 1)
        take = lengths[a:b]
        pos = np.repeat(starts[a:b] - done[a:b], take) + np.arange(done[a], done[b])
        owner = np.repeat(community[a:b], take)
        query = owner * l + keys[pos] % l
        hit = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
        inside = codes[hit] == query
        np.add.at(totals, owner[inside], matrix.values[pos[inside]])
        a = b
    sizes = cover.sizes().tolist()
    return np.array([t / (s * (s - 1) // 2 * MICRO) if s >= 2 else np.nan
                     for t, s in zip(totals.tolist(), sizes)])


def raw_stability(community, matrix: ConsensusMatrix) -> float:
    """Mean consensus score over all unordered pairs of a community of ids;
    absent entries count 0."""
    cover = Cover.from_sets(matrix.order, [community])
    if cover.sizes()[0] < 2:
        raise ValidationError("stability is undefined for communities of size < 2")
    return float(raw_stabilities(cover, matrix)[0])


def expected_stability(size: int, matrix: ConsensusMatrix) -> float:
    """Exact mean raw stability of a uniformly drawn ``size``-node subset of
    the matrix order: the sum of all entries over C(l, 2), for every size,
    as the double nearest that exact mean."""
    l = len(matrix.order)
    if not (2 <= size <= l):
        raise ValidationError(f"size must be in [2, {l}]")
    return sum(matrix.values.tolist()) / (l * (l - 1) // 2 * MICRO)


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
    cover: Cover, matrix: ConsensusMatrix
) -> list[tuple[int, StabilityScore]]:
    """``(community id, score)`` pairs, sorted by corrected stability
    descending.

    The id is the community's position in the cover.  Ties break by size
    descending, then lexicographically by members, which is the cover
    order.  Size-1 communities carry no pair signal and are skipped.  The
    expected term is the same for every size, so it is computed once.
    """
    raws = raw_stabilities(cover, matrix)
    scored = np.flatnonzero(cover.sizes() >= 2).tolist()
    if not scored:
        return []
    expected = expected_stability(2, matrix)
    ranked = [(k, _score(raw, expected))
              for k, raw in zip(scored, raws[scored].tolist())]
    ranked.sort(key=lambda item: (-item[1].corrected, item[0]))
    return ranked


def write_ranking(
    ranked: list[tuple[int, StabilityScore]],
    cover: Cover,
    path,
) -> None:
    """TSV: rank, corrected (2 decimals), raw, expected, list count,
    community id, corrected at full precision (``repr``).

    Community ids are positions in the canonical cover order.  The last
    column is what later stages read; the rounded one is for people.
    """
    sizes = cover.sizes().tolist()
    with atomic_write(path) as fh:
        for rank, (k, score) in enumerate(ranked, start=1):
            fh.write(
                f"{rank}\t{score.corrected:.2f}\t{score.raw:.6f}\t"
                f"{score.expected:.6f}\t{sizes[k]}\t{k}\t"
                f"{float(score.corrected)!r}\n"
            )
