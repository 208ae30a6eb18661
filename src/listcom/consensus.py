"""Ensemble aggregation: consensus matrix, consensus graph, consensus cover.

A configured number of fast detector runs, each with a seed derived from the
master seed, vote on every node pair through the Jaccard similarity of the
community-label sets the run assigned to the two nodes.  The matrix is a
pair of arrays: sorted ``int64`` pair keys ``i * l + j`` (i < j, positions in
the sorted node order) and their ``float64`` scores.  Each run is a
:class:`~listcom.detect.Cover` over that same order, so its member positions
are the matrix positions.  A run's co-assigned pairs are counted like the
list graph's shared users, by :func:`~listcom.listgraph.pair_counts`: the
node-major rows (each node's communities of two or more, ascending) with the
cover as their transpose, so ``inter`` is the number of communities a pair
shares, ``|X|`` the length of a node's row, and the score
inter / (|X| + |Y| - inter).  Runs are folded into the matrix one at a time
in ascending run order, so the floating-point result is a pure function of
the runs' covers.  A detector at the ``detector=`` seam returns a cover
over the graph's node order.  The normalised matrix is thresholded
into a consensus graph (a mask over the keys) on which a thorough detection
pass produces the final cover.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .atomic import atomic_write
from .detect import (Cover, DetectorConfig, detect, detect_runs,
                     filter_singletons, node_positions)
from .errors import ParseError, ValidationError
from .listgraph import (ListGraph, pair_counts, pair_text, read_pair_rows,
                        write_pair_rows)
from .seeds import STREAM_CONSENSUS, derive_seed

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

Detector = Callable[[ListGraph, DetectorConfig], Cover]


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

    def get(self, a: str, b: str) -> float:
        i, j = sorted(node_positions(self.order, (a, b)).tolist())
        if i == j:
            raise ValidationError(f"no diagonal entries: {a!r}")
        key = i * len(self.order) + j
        pos = int(np.searchsorted(self.keys, key))
        if pos < len(self.keys) and self.keys[pos] == key:
            return float(self.values[pos])
        return 0.0

    def items(self) -> Iterator[tuple[str, str, float]]:
        """``(a, b, score)`` with a < b, in ascending pair order."""
        order = self.order
        i, j = np.divmod(self.keys, len(order))
        for a, b, v in zip(i.tolist(), j.tolist(), self.values.tolist()):
            yield order[a], order[b], v


def label_jaccard(labels_x, labels_y) -> float:
    """|X n Y| / |X u Y|; 0.0 when both sets are empty."""
    x = frozenset(labels_x)
    y = frozenset(labels_y)
    union = len(x | y)
    if union == 0:
        return 0.0
    return len(x & y) / union


def _pair_scores(cover: Cover, l: int) -> tuple[np.ndarray, np.ndarray]:
    """One run's pair keys (ascending) and Jaccard scores of the two nodes'
    community-label sets, for a cover over an ``l``-node order.

    With ``inter`` the number of communities holding both nodes and ``|X|``
    the number holding one, the score is inter / (|X| + |Y| - inter); only
    co-assigned pairs have ``inter > 0``.  Singleton communities are
    ignored.
    """
    cover = filter_singletons(cover)
    by_node = np.argsort(cover.members, kind="stable")
    labels = np.repeat(np.arange(len(cover)), cover.sizes())[by_node]
    indptr = np.zeros(l + 1, dtype=np.int64)
    np.cumsum(np.bincount(cover.members, minlength=l), out=indptr[1:])
    keys, inter = pair_counts(indptr, labels, cover.indptr, cover.members)
    sizes = np.diff(indptr)
    i, j = np.divmod(keys, l)
    return keys, inter / (sizes[i] + sizes[j] - inter)


def accumulate(matrix: ConsensusMatrix, base: Cover) -> ConsensusMatrix:
    """Add one cover's pairwise Jaccard scores into the matrix (in place).

    The cover must be over the matrix order.  Each score is added to the
    key's running value, so folding runs in run order gives the same
    doubles as summing them one run at a time."""
    if base.nodes is not matrix.order and base.nodes != matrix.order:
        raise ValidationError("cover and matrix node orders differ")
    keys, scores = _pair_scores(base, len(matrix.order))
    pos = np.searchsorted(matrix.keys, keys)
    found = pos < len(matrix.keys)
    found[found] = matrix.keys[pos[found]] == keys[found]
    matrix.values[pos[found]] += scores[found]
    new = ~found
    matrix.keys = np.insert(matrix.keys, pos[new], keys[new])
    matrix.values = np.insert(matrix.values, pos[new], scores[new])
    return matrix


def _covers(graph: ListGraph, config: DetectorConfig, seeds,
            detector: Detector) -> Iterable[Cover]:
    """One cover over ``graph.nodes`` per seed.  The built-in :func:`detect`
    hands all runs to :func:`detect_runs` at once; any other detector is
    called one run at a time, and a cover over another node order raises."""
    if detector is detect:
        return detect_runs(graph, config, seeds)
    return (_checked_cover(detector(graph, config.with_seed(seed)), graph.nodes)
            for seed in seeds)


def _checked_cover(cover: Cover, nodes) -> Cover:
    """``cover`` if it is a :class:`Cover` over ``nodes``; raises otherwise."""
    if not isinstance(cover, Cover) or (cover.nodes is not nodes
                                        and cover.nodes != nodes):
        raise ValidationError("a detector must return a Cover over the "
                              "graph's node order")
    return cover


def run_ensemble(
    graph: ListGraph,
    config: PipelineConfig,
    detector: Detector = detect,
) -> ConsensusMatrix:
    """Aggregate ``config.runs`` fast detections into a normalised matrix.

    Run i has ``fast_iterations``, the ``overlap_threshold`` and the seed
    ``derive_seed(master_seed, i)``, and runs are folded in run order.
    """
    matrix = ConsensusMatrix.empty(graph.nodes, config.runs)
    fast = DetectorConfig(config.fast_iterations, config.overlap_threshold)
    seeds = [derive_seed(config.master_seed, i) for i in range(config.runs)]
    for cover in _covers(graph, fast, seeds, detector):
        accumulate(matrix, cover)
    matrix.values *= 1.0 / config.runs
    return matrix


def consensus_graph(matrix: ConsensusMatrix, tau: float) -> ListGraph:
    """Graph over the matrix order keeping entries with score >= tau.
    ``tau`` must be in [0, 1]: :class:`~listcom.pipeline.PipelineConfig`
    checks it, and this function does not."""
    keep = matrix.values >= tau
    i, j = np.divmod(matrix.keys[keep], len(matrix.order))
    return ListGraph.from_pairs(matrix.order, i, j, matrix.values[keep])


def consensus_communities(matrix: ConsensusMatrix, config: PipelineConfig,
                          detector: Detector = detect) -> Cover:
    """Thorough detection on the tau-thresholded consensus graph, singletons
    dropped.  The pass has ``thorough_iterations``, the
    ``overlap_threshold`` and the seed ``derive_seed(master_seed,
    STREAM_CONSENSUS)``."""
    graph = consensus_graph(matrix, config.tau)
    seed = derive_seed(config.master_seed, STREAM_CONSENSUS)
    thorough = DetectorConfig(config.thorough_iterations, config.overlap_threshold, seed)
    [cover] = _covers(graph, thorough, [seed], detector)
    return filter_singletons(cover)


def cover_agreement(a: Cover, b: Cover) -> float:
    """Symmetric best-match Jaccard agreement in [0, 1] between the
    communities of two covers, compared as id sets."""
    a, b = [list(map(frozenset, cover)) for cover in (a, b)]
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0

    def directed(src, dst) -> float:
        total = 0.0
        for c in src:
            total += max(label_jaccard(c, d) for d in dst)
        return total / len(src)

    return 0.5 * (directed(a, b) + directed(b, a))


def save_matrix(matrix: ConsensusMatrix, path) -> ConsensusMatrix:
    """TSV rows ``a<TAB>b<TAB>score`` (6 decimals, lexicographic pairs) under
    a ``#r=<runs>`` header.  Returns the matrix that :func:`load_matrix`
    reads back over the same order: the value of each written string,
    without the scores written as 0.000000."""
    i, j = np.divmod(matrix.keys, len(matrix.order))
    text, which = pair_text(matrix.values)
    with atomic_write(path) as fh:
        fh.write(f"#r={matrix.r}\n")
        values = write_pair_rows(fh, matrix.order, i, j, text, which)[which]
    kept = values > 0.0
    return ConsensusMatrix(matrix.order, matrix.keys[kept], values[kept], matrix.r)


def load_matrix(path, order) -> ConsensusMatrix:
    """Reload a matrix over the full node ``order`` (the graph's sidecar
    node list), which keeps the nodes that have no entries.  The rows are
    read by :func:`~listcom.listgraph.read_pair_rows` under a ``#r=<runs>``
    header with runs >= 1; a score outside [0, 1] raises with its line.
    Scores that rounded to 0.000000 on disk are dropped to keep the sparse
    absent-means-zero invariant."""
    order = sorted(order)
    head, i, j, values, lines = read_pair_rows(path, order, header=1)
    if not head or not head[0].startswith("#r="):
        raise ParseError(f"{path}:1: missing #r= header")
    try:
        r = int(head[0][3:])
    except ValueError as exc:
        raise ParseError(f"{path}:1: bad run count") from exc
    if r < 1:
        raise ValidationError(f"{path}:1: run count {r} is below 1")
    bad = lines[~((values >= 0.0) & (values <= 1.0 + 1e-9))]
    if len(bad):
        raise ValidationError(f"{path}:{bad.min()}: score out of range")
    matrix = ConsensusMatrix.empty(order, r)
    kept = values > 0.0
    matrix.keys, matrix.values = (i * len(order) + j)[kept], values[kept]
    return matrix
