"""Stochastic overlapping community detection on weighted graphs.

The built-in detector is a speaker-listener label propagation: every node
keeps a growing memory of labels, seeded with its own id.  Each iteration
visits nodes in a seed-driven random order; the visited node collects one
label from each neighbour (sampled in proportion to that label's frequency
in the neighbour's memory), tallies the collected labels weighted by edge
weight, and appends the winning label to its own memory.  After the final
iteration a node belongs to every community whose label holds at least
``overlap_threshold`` of its memory, and always to its single most frequent
label, so every non-isolated node lands in at least one community before
singleton filtering.  Ties always go to the lowest label id, which keeps a
run a pure function of (graph, config).

The propagation reads the graph's CSR arrays directly.  Label ids are node
positions, memories are one ``int64`` row per node, and a visited node's
collected labels are tallied with one ``np.bincount`` weighted by the edge
weights, so the winner is the first maximum of that vote vector.  Neighbours
come in ascending order, which fixes the order of the random draws.

Anything callable as ``(graph, config) -> CommunitySet`` can stand in for
:func:`detect` in the ensemble driver, so a heavier external detector can be
slotted in without touching the aggregation machinery.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .atomic import atomic_write
from .errors import ValidationError
from .listgraph import ListGraph

FAST_ITERATIONS = 5
THOROUGH_ITERATIONS = 50


@dataclass(frozen=True)
class DetectorConfig:
    mode: str = "fast"
    iterations: int | None = None
    overlap_threshold: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("fast", "thorough"):
            raise ValidationError(f"unknown detector mode {self.mode!r}")
        if self.iterations is not None and self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if not (0.0 < self.overlap_threshold < 1.0):
            raise ValidationError("overlap_threshold must be in (0, 1)")

    @property
    def resolved_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return FAST_ITERATIONS if self.mode == "fast" else THOROUGH_ITERATIONS

    def with_seed(self, seed: int) -> "DetectorConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class CommunitySet:
    """An overlapping cover: a canonically ordered tuple of member sets.

    Duplicate member sets collapse; order is (size desc, members lex asc).
    """

    communities: tuple[frozenset[str], ...]

    @classmethod
    def from_sets(cls, sets) -> "CommunitySet":
        uniq = {frozenset(s) for s in sets}
        ordered = sorted(uniq, key=lambda c: (-len(c), tuple(sorted(c))))
        return cls(tuple(ordered))

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.communities)

    def nodes(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.communities:
            out |= c
        return frozenset(out)


def detect(graph: ListGraph, config: DetectorConfig) -> CommunitySet:
    """Run label propagation; returns non-singleton communities only.

    Deterministic given (graph, config): node order, label ids, and the RNG
    stream are all derived from the sorted node ids plus the seed.  Isolated
    nodes are never assigned.
    """
    nodes = graph.nodes
    n = len(nodes)
    if not n:
        raise ValidationError("graph has no nodes")
    bounds = graph.indptr.tolist()
    nbr, wgt = graph.indices, graph.weights
    active = np.flatnonzero(np.diff(graph.indptr) > 0)
    iterations = config.resolved_iterations
    memory_size = iterations + 1
    mem = np.full((n, memory_size), -1, dtype=np.int64)
    mem[:, 0] = np.arange(n)
    mem_len = np.ones(n, dtype=np.int64)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    for it in range(1, memory_size):
        for u in active[rng.permutation(len(active))].tolist():
            lo, hi = bounds[u], bounds[u + 1]
            nbrs = nbr[lo:hi]
            labels = mem[nbrs, rng.integers(0, mem_len[nbrs])]
            # Votes per label id: the first maximum is the lowest winning id.
            # Absent ids score 0.0, so when every vote is 0.0 the winner is
            # the lowest collected id instead.
            votes = np.bincount(labels, weights=wgt[lo:hi])
            winner = votes.argmax()
            mem[u, it] = winner if votes[winner] > 0.0 else labels.min()
            mem_len[u] = it + 1
    if not len(active):
        return CommunitySet(())

    # Label counts per active node: (row, label) pairs in ascending order.
    pairs, counts = np.unique(
        np.arange(len(active)).repeat(memory_size) * n + mem[active].ravel(),
        return_counts=True)
    rows, labels = np.divmod(pairs, n)
    keep = counts / memory_size >= config.overlap_threshold
    # Each node's most frequent label, the lowest id on ties, always stays.
    best = np.lexsort((labels, -counts, rows))
    keep[best[np.r_[True, np.diff(rows[best]) != 0]]] = True
    active_nodes = [nodes[u] for u in active.tolist()]
    members: dict[int, set[str]] = {}
    for row, label in zip(rows[keep].tolist(), labels[keep].tolist()):
        members.setdefault(label, set()).add(active_nodes[row])

    return CommunitySet.from_sets(
        c for c in members.values() if len(c) >= 2
    )


def filter_singletons(cs: CommunitySet) -> CommunitySet:
    """Drop all size-1 communities."""
    return CommunitySet.from_sets(c for c in cs if len(c) >= 2)


def save_communities(cs: CommunitySet, path) -> None:
    """JSON array of arrays of node ids, in the canonical community order."""
    payload = [sorted(c) for c in cs]
    with atomic_write(path) as fh:
        json.dump(payload, fh, ensure_ascii=False)
        fh.write("\n")


def load_communities(path) -> CommunitySet:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list) or not all(isinstance(c, list) for c in payload):
        raise ValidationError(f"{path}: expected a JSON array of arrays")
    return CommunitySet.from_sets(frozenset(c) for c in payload)
