"""Ensemble aggregation: consensus matrix, consensus graph, consensus cover.

A configured number of fast detector runs, each with a seed derived from the
master seed, vote on every node pair through the Jaccard similarity of the
community-label sets the run assigned to the two nodes.  The matrix is a
pair of arrays: sorted ``int64`` pair keys ``i * l + j`` (i < j, positions in
the sorted node order) and their ``float64`` scores.  Each run contributes
its co-assigned pair keys and their scores inter / (|X| + |Y| - inter), which
are added to the matrix in ascending run order, so the floating-point result
is a pure function of the runs' covers.  The normalised matrix is
thresholded into a consensus graph (a mask over the keys) on which a
thorough detection pass produces the final cover.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .atomic import atomic_write
from .detect import (CommunitySet, DetectorConfig, detect, detect_runs,
                     filter_singletons)
from .errors import ParseError, ValidationError
from .listgraph import ListGraph, node_index
from .seeds import STREAM_CONSENSUS, derive_seed

Detector = Callable[[ListGraph, DetectorConfig], CommunitySet]


@dataclass(eq=False)
class ConsensusMatrix:
    """Sparse symmetric node-pair scores; an absent pair means 0.

    ``order`` is the sorted node ids.  ``keys`` holds ``i * len(order) + j``
    (i < j, positions in ``order``) in ascending order, and ``values`` the
    accumulated or normalised score of each key.
    """

    order: tuple[str, ...]
    keys: np.ndarray
    values: np.ndarray
    r: int

    @classmethod
    def empty(cls, order, r: int) -> "ConsensusMatrix":
        order = tuple(order)
        if any(a >= b for a, b in zip(order, order[1:])):
            raise ValidationError("matrix order must be sorted and unique")
        return cls(order, np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.float64), r)

    def positions(self, nodes) -> np.ndarray:
        """Positions of ``nodes`` in the order, found by bisection."""
        order = self.order
        out = np.empty(len(nodes), dtype=np.int64)
        for k, node in enumerate(nodes):
            i = bisect_left(order, node)
            if i == len(order) or order[i] != node:
                raise ValidationError(f"node {node!r} outside the matrix order")
            out[k] = i
        return out

    def get(self, a: str, b: str) -> float:
        i, j = sorted(self.positions((a, b)).tolist())
        if i == j:
            raise ValidationError(f"no diagonal entries: {a!r}")
        return float(self.lookup(np.array([i * len(self.order) + j]))[0])

    def items(self) -> Iterator[tuple[str, str, float]]:
        """``(a, b, score)`` with a < b, in ascending pair order."""
        order = self.order
        i, j = np.divmod(self.keys, len(order))
        for a, b, v in zip(i.tolist(), j.tolist(), self.values.tolist()):
            yield order[a], order[b], v

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Scores of arbitrary pair keys, 0.0 where a key is absent."""
        if not len(self.keys):
            return np.zeros(len(keys))
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.values[pos], 0.0)


@dataclass(frozen=True)
class EnsembleConfig:
    runs: int = 100
    tau: float = 0.2
    master_seed: int = 0
    fast_config: DetectorConfig = field(default_factory=lambda: DetectorConfig(mode="fast"))
    thorough_config: DetectorConfig = field(default_factory=lambda: DetectorConfig(mode="thorough"))

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if not (0.0 <= self.tau <= 1.0):
            raise ValidationError("tau must be in [0, 1]")

    @classmethod
    def from_master(
        cls,
        master_seed: int,
        runs: int = 100,
        tau: float = 0.2,
        fast_iterations: int | None = None,
        thorough_iterations: int | None = None,
        overlap_threshold: float = 0.3,
    ) -> "EnsembleConfig":
        """Wire all detector seeds from one master seed."""
        return cls(
            runs=runs,
            tau=tau,
            master_seed=master_seed,
            fast_config=DetectorConfig(
                mode="fast", iterations=fast_iterations,
                overlap_threshold=overlap_threshold),
            thorough_config=DetectorConfig(
                mode="thorough", iterations=thorough_iterations,
                overlap_threshold=overlap_threshold,
                seed=derive_seed(master_seed, STREAM_CONSENSUS)),
        )


def label_jaccard(labels_x, labels_y) -> float:
    """|X n Y| / |X u Y|; 0.0 when both sets are empty."""
    x = frozenset(labels_x)
    y = frozenset(labels_y)
    union = len(x | y)
    if union == 0:
        return 0.0
    return len(x & y) / union


def _pair_scores(base: CommunitySet, order: tuple[str, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One run's pair keys (ascending) and Jaccard scores of the two nodes'
    community-label sets.

    With ``inter`` the number of communities holding both nodes and ``|X|``
    the number holding one, the score is inter / (|X| + |Y| - inter); only
    co-assigned pairs have ``inter > 0``.  Singleton communities are
    ignored.  Raises if a node is missing from the matrix order.
    """
    index = node_index(order)
    l = len(order)
    key_arrays = []
    member_arrays = []
    for community in base:
        if len(community) < 2:
            continue
        try:
            idx = np.sort(np.fromiter((index[node] for node in community),
                                      dtype=np.int64, count=len(community)))
        except KeyError as exc:
            raise ValidationError(
                f"node {exc.args[0]!r} outside the matrix order") from exc
        iu, ju = np.triu_indices(len(idx), 1)
        key_arrays.append(idx[iu] * l + idx[ju])
        member_arrays.append(idx)
    if not key_arrays:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys, inter = np.unique(np.concatenate(key_arrays), return_counts=True)
    labels = np.bincount(np.concatenate(member_arrays), minlength=l)
    i, j = np.divmod(keys, l)
    return keys, inter / (labels[i] + labels[j] - inter)


def accumulate(matrix: ConsensusMatrix, base: CommunitySet) -> ConsensusMatrix:
    """Add one base set's pairwise Jaccard scores into the matrix (in place).

    Each score is added to the key's running value, so folding runs in run
    order gives the same doubles as summing them one run at a time."""
    keys, scores = _pair_scores(base, matrix.order)
    pos = np.searchsorted(matrix.keys, keys)
    found = pos < len(matrix.keys)
    found[found] = matrix.keys[pos[found]] == keys[found]
    matrix.values[pos[found]] += scores[found]
    new = ~found
    matrix.keys = np.insert(matrix.keys, pos[new], keys[new])
    matrix.values = np.insert(matrix.values, pos[new], scores[new])
    return matrix


def run_ensemble(
    graph: ListGraph,
    config: EnsembleConfig,
    detector: Detector = detect,
) -> ConsensusMatrix:
    """Aggregate ``config.runs`` fast detections into a normalised matrix.

    Run i uses seed ``derive_seed(master_seed, i)``, and runs are reduced in
    run order.  The built-in :func:`detect` steps all runs together through
    :func:`detect_runs`; any other detector is called one run at a time.
    """
    matrix = ConsensusMatrix.empty(graph.nodes, config.runs)
    seeds = [derive_seed(config.master_seed, i) for i in range(config.runs)]
    if detector is detect:
        covers = detect_runs(graph, config.fast_config, seeds)
    else:
        covers = (detector(graph, config.fast_config.with_seed(seed))
                  for seed in seeds)
    for cover in covers:
        accumulate(matrix, filter_singletons(cover))
    matrix.values *= 1.0 / config.runs
    return matrix


def consensus_graph(matrix: ConsensusMatrix, tau: float) -> ListGraph:
    """Graph over the matrix order keeping entries with score >= tau."""
    if not (0.0 <= tau <= 1.0):
        raise ValidationError("tau must be in [0, 1]")
    keep = matrix.values >= tau
    i, j = np.divmod(matrix.keys[keep], len(matrix.order))
    return ListGraph.from_pairs(matrix.order, i, j, matrix.values[keep])


def consensus_communities(matrix: ConsensusMatrix, config: EnsembleConfig,
                          detector: Detector = detect) -> CommunitySet:
    """Thorough detection on the tau-thresholded consensus graph."""
    graph = consensus_graph(matrix, config.tau)
    return filter_singletons(detector(graph, config.thorough_config))


def iterate_consensus(
    graph: ListGraph,
    config: EnsembleConfig,
    detector: Detector = detect,
    max_rounds: int = 20,
) -> tuple[ConsensusMatrix, CommunitySet]:
    """Optional fixed-point mode: re-run the ensemble on successive consensus
    graphs until the cover stops changing (or ``max_rounds`` is hit)."""
    from .seeds import STREAM_ITERATE

    matrix = run_ensemble(graph, config, detector=detector)
    cover = consensus_communities(matrix, config, detector=detector)
    for round_no in range(1, max_rounds):
        next_graph = consensus_graph(matrix, config.tau)
        round_cfg = replace(
            config,
            master_seed=derive_seed(config.master_seed, STREAM_ITERATE + round_no))
        next_matrix = run_ensemble(next_graph, round_cfg, detector=detector)
        next_cover = consensus_communities(next_matrix, round_cfg, detector=detector)
        matrix = next_matrix
        if next_cover.communities == cover.communities:
            return matrix, next_cover
        cover = next_cover
    return matrix, cover


def cover_agreement(a: CommunitySet, b: CommunitySet) -> float:
    """Symmetric best-match Jaccard agreement between two covers in [0, 1]."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0

    def directed(src: CommunitySet, dst: CommunitySet) -> float:
        total = 0.0
        for c in src:
            total += max(label_jaccard(c, d) for d in dst)
        return total / len(src)

    return 0.5 * (directed(a, b) + directed(b, a))


def save_matrix(matrix: ConsensusMatrix, path) -> None:
    """TSV rows ``a<TAB>b<TAB>score`` (6 decimals, lexicographic pairs) under
    a ``#r=<runs>`` header."""
    with atomic_write(path) as fh:
        fh.write(f"#r={matrix.r}\n")
        fh.writelines(f"{a}\t{b}\t{v:.6f}\n" for a, b, v in matrix.items())


def load_matrix(path, order: tuple[str, ...] | None = None) -> ConsensusMatrix:
    """Reload a matrix.  Pass the full node ``order`` (e.g. from the graph's
    sidecar node list) to preserve nodes that have no surviving entries;
    otherwise the order is reconstructed from the entry endpoints alone.
    Scores that rounded to 0.000000 on disk are dropped to keep the sparse
    absent-means-zero invariant."""
    first: list[str] = []
    second: list[str] = []
    scores: list[float] = []
    r = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno == 1:
                if not line.startswith("#r="):
                    raise ParseError(f"{path}:1: missing #r= header")
                try:
                    r = int(line[3:])
                except ValueError as exc:
                    raise ParseError(f"{path}:1: bad run count") from exc
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected three fields")
            try:
                v = float(fields[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad score {fields[2]!r}") from exc
            if v < 0.0 or v > 1.0 + 1e-9:
                raise ValidationError(f"{path}:{lineno}: score out of range")
            first.append(fields[0])
            second.append(fields[1])
            scores.append(v)
    if r is None:
        raise ParseError(f"{path}: empty file, missing header")
    if order is None:
        order = set(first) | set(second)
    matrix = ConsensusMatrix.empty(sorted(order), r)
    index = node_index(matrix.order)
    try:
        i = np.fromiter((index[a] for a in first), dtype=np.int64, count=len(first))
        j = np.fromiter((index[b] for b in second), dtype=np.int64, count=len(second))
    except KeyError as exc:
        raise ValidationError(
            f"{path}: node {exc.args[0]!r} outside the given order") from exc
    if np.any(i == j):
        raise ValidationError(f"{path}: diagonal entry")
    values = np.array(scores, dtype=np.float64)
    nonzero = values > 0.0
    keys = (np.minimum(i, j) * len(matrix.order) + np.maximum(i, j))[nonzero]
    perm = np.argsort(keys, kind="stable")
    matrix.keys, matrix.values = keys[perm], values[nonzero][perm]
    if np.any(matrix.keys[1:] == matrix.keys[:-1]):
        raise ValidationError(f"{path}: a node pair is listed twice")
    return matrix
