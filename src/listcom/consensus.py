"""Ensemble aggregation: consensus matrix, consensus graph, consensus cover.

A configured number of fast detector runs, each with a seed derived from the
master seed, vote on every node pair through the Jaccard similarity of the
community-label sets the run assigned to the two nodes.  The matrix is a
pair of arrays: sorted ``int64`` pair keys ``i * l + j`` (i < j, positions in
the sorted node order) and their scores, ``int64`` micro-units as
consensus.tsv writes them (:mod:`listcom.listgraph`'s codec).  Each run is a
:class:`~listcom.detect.Cover` over that same order, so its member positions
are the matrix positions.  :func:`accumulate` folds one run into the
``float64`` sums of the runs so far, with one call of the kernel's ``fold``
(``_slpa.c``, loaded by :mod:`listcom.kernel`).
It builds the node-major rows (each node's communities of two or more,
ascending) and counts a run's co-assigned pairs with the same C counter as
:func:`~listcom.listgraph.pair_counts`, with the cover as the rows'
transpose: ``inter`` is the number of communities a pair shares, ``|X|``
the length of a node's row, and the score inter / (|X| + |Y| - inter), in
doubles.  The counter yields the pairs in ascending key order, so they
merge into the sorted sums in one pass: a key already there gets
``old + score``, a new key ``score``.  Runs are folded one at a time in
ascending run order, so the floating-point sums are a pure function of the
runs' covers.  A detector at the ``detector=`` seam returns a cover over the
graph's node order.  :func:`run_ensemble` turns each mean, the sum times
1 / r, into micro-units once, so a library caller and the pipeline
threshold the same integers, and :func:`save_matrix` only writes.  The
matrix is thresholded at ``tau``'s micro-unit threshold into a consensus
graph (a mask over the keys), whose weights are the scores, and a thorough
detection pass on it produces the final cover.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from . import kernel
from .atomic import atomic_write
from .detect import (Cover, DetectorConfig, detect, detect_runs,
                     filter_singletons, node_positions)
from .errors import ParseError, ValidationError
from .listgraph import (MICRO, ListGraph, micro_threshold, micro_units, pair_text,
                        read_pair_rows, write_pair_rows)
from .seeds import STREAM_CONSENSUS, derive_seed

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

Detector = Callable[[ListGraph, DetectorConfig], Cover]


@dataclass(eq=False)
class ConsensusMatrix:
    """Sparse symmetric node-pair scores; an absent pair means 0.

    ``order`` is the sorted node ids.  ``keys`` holds ``i * len(order) + j``
    (i < j, positions in ``order``) in ascending order, and ``values`` the
    score of each key in ``int64`` micro-units.
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
        return cls(order, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), r)

    def get(self, a: str, b: str) -> float:
        """The score of a pair as the double k / 10**6 of its string."""
        i, j = sorted(node_positions(self.order, (a, b)).tolist())
        if i == j:
            raise ValidationError(f"no diagonal entries: {a!r}")
        key = i * len(self.order) + j
        pos = int(np.searchsorted(self.keys, key))
        if pos < len(self.keys) and self.keys[pos] == key:
            return self.values[pos].item() / MICRO
        return 0.0

    def items(self) -> Iterator[tuple[str, str, float]]:
        """``(a, b, score)`` with a < b, in ascending pair order, each score
        as :meth:`get` gives it."""
        order = self.order
        i, j = np.divmod(self.keys, len(order))
        for a, b, v in zip(i.tolist(), j.tolist(), self.values.tolist()):
            yield order[a], order[b], v / MICRO


def label_jaccard(labels_x, labels_y) -> float:
    """|X n Y| / |X u Y|; 0.0 when both sets are empty."""
    x = frozenset(labels_x)
    y = frozenset(labels_y)
    union = len(x | y)
    if union == 0:
        return 0.0
    return len(x & y) / union


def accumulate(order, keys, sums, base: Cover) -> tuple[np.ndarray, np.ndarray]:
    """The ascending pair ``keys`` over the sorted ``order`` and their
    ``float64`` ``sums``, with one cover's pairwise Jaccard scores added.

    The cover must be over ``order``.  Each score is added to the key's
    running sum, so folding runs in run order gives the same doubles as
    summing them one run at a time.  The kernel merges into arrays with
    room for every pair the cover's communities of two or more could hold,
    at most C(l, 2), which are then cut to the merged size."""
    if base.nodes is not order and base.nodes != tuple(order):
        raise ValidationError("cover and matrix node orders differ")
    l = len(order)
    groups = np.ascontiguousarray(base.indptr, dtype=np.int64)
    members = np.ascontiguousarray(base.members, dtype=np.int32)
    if (len(groups) < 1 or groups[0] != 0 or groups[-1] != len(members)
            or np.any(np.diff(groups) < 0)
            or (len(members) and not (members.min() >= 0 and members.max() < l))):
        raise ValidationError("a cover must hold node positions in its order")
    sizes = np.diff(groups)
    # Below 2**31 members, the sum of C(size, 2) stays below 2**61.
    room = min(int(np.sum(sizes * (sizes - 1) // 2)), l * (l - 1) // 2)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    values = np.ascontiguousarray(sums, dtype=np.float64)
    capacity = len(keys) + room
    merged_keys = np.empty(capacity, dtype=np.int64)
    merged_values = np.empty(capacity, dtype=np.float64)
    merged = kernel.checked(kernel.load().fold(
        l, len(groups) - 1, groups.ctypes.data, members.ctypes.data, len(keys),
        keys.ctypes.data, values.ctypes.data, capacity, merged_keys.ctypes.data,
        merged_values.ctypes.data), "the fold")
    # Shrinks in place: neither array is referenced elsewhere yet.
    merged_keys.resize(merged, refcheck=False)
    merged_values.resize(merged, refcheck=False)
    return merged_keys, merged_values


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
    Each mean score, the sum times 1 / r, then becomes the micro-units of
    its 6-decimal string, as consensus.tsv holds and :func:`load_matrix`
    reads it, and the scores that print as 0.000000 are dropped.
    """
    keys, sums = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    fast = DetectorConfig(config.fast_iterations, config.overlap_threshold)
    seeds = [derive_seed(config.master_seed, i) for i in range(config.runs)]
    for cover in _covers(graph, fast, seeds, detector):
        keys, sums = accumulate(graph.nodes, keys, sums, cover)
    units = micro_units(sums * (1.0 / config.runs))
    kept = units > 0
    return ConsensusMatrix(graph.nodes, keys[kept], units[kept], config.runs)


def consensus_graph(matrix: ConsensusMatrix, tau: float) -> ListGraph:
    """Graph over the matrix order keeping entries with score >= tau, each
    score compared as the double of its string, through
    :func:`~listcom.listgraph.micro_threshold`.  ``tau`` must be in [0, 1]:
    :class:`~listcom.pipeline.PipelineConfig` checks it, and this function
    does not."""
    keep = matrix.values >= micro_threshold(tau)
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


def save_matrix(matrix: ConsensusMatrix, path) -> None:
    """TSV rows ``a<TAB>b<TAB>score`` (6 decimals, lexicographic pairs) under
    a ``#r=<runs>`` header."""
    i, j = np.divmod(matrix.keys, len(matrix.order))
    with atomic_write(path) as fh:
        fh.write(f"#r={matrix.r}\n")
        write_pair_rows(fh, matrix.order, i, j, *pair_text(matrix.values))


def load_matrix(path, order) -> ConsensusMatrix:
    """Reload a matrix over the full node ``order`` (the graph's sidecar
    node list), which keeps the nodes that have no entries.  The rows are
    read by :func:`~listcom.listgraph.read_pair_rows`, which refuses a
    score outside [0, 1], under a ``#r=<runs>`` header with runs >= 1.
    Each score is held in micro-units; those that round to 0.000000 are
    dropped to keep the sparse absent-means-zero invariant."""
    order = sorted(order)
    head, i, j, values = read_pair_rows(path, order, 1, header=1)
    if not head or not head[0].startswith("#r="):
        raise ParseError(f"{path}:1: missing #r= header")
    try:
        r = int(head[0][3:])
    except ValueError as exc:
        raise ParseError(f"{path}:1: bad run count") from exc
    if r < 1:
        raise ValidationError(f"{path}:1: run count {r} is below 1")
    matrix = ConsensusMatrix.empty(order, r)
    units = micro_units(values)
    kept = units > 0
    matrix.keys, matrix.values = (i * len(order) + j)[kept], units[kept]
    return matrix
