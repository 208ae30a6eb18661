"""Stochastic overlapping community detection on weighted graphs.

The built-in detector is a speaker-listener label propagation (SLPA): every
node keeps a growing memory of labels, seeded with its own id.  Each
iteration visits the nodes in a seed-driven random order; the visited node
collects one label from each neighbour (a uniformly drawn slot of the
neighbour's memory, so labels come in proportion to their frequency there),
tallies the collected labels weighted by edge weight, and appends the
winning label to its own memory.  After the final iteration a node belongs
to every community whose label holds at least ``overlap_threshold`` of its
memory, and always to its single most frequent label, so every
non-isolated node lands in at least one community before singleton
filtering.  Ties always go to the lowest label id, which keeps a run a pure
function of (graph, config).

Draws are counter-based: each is the splitmix64 finalizer of
``seeds.derive_seed`` applied to its coordinates, never a position in a
sequential stream.  In iteration ``it`` of the run with seed ``s``:

* node ``u`` gets the visit key ``derive_seed(derive_seed(s, 2 it), u)``,
  and nodes are visited in ascending (key, node) order;
* the neighbour at CSR position ``p`` of the visited node's row gives the
  label in slot ``derive_seed(derive_seed(s, 2 it + 1), p)`` modulo its
  current memory length: ``it + 1`` if it was visited earlier in this
  iteration, ``it`` otherwise.

A run is one call of the C function ``slpa`` (``_slpa.c``, loaded by
:mod:`listcom.kernel`): the asynchronous SLPA of Xie, Szymanski and Liu
(2011), one node at a time in visit order.  Each label's vote is its edge
weights summed from 0.0 in CSR order in a dense per-label accumulator; the
highest vote wins, and a tie, all-zero votes included, goes to the lowest
label.  The vote needs only its winner.  So a node of degree
``DECIDE_DEGREE`` (64) or more takes the last label of its memory as its
guess, and every ``DECIDE_PERIOD`` (4) draws checks whether the guess has
won: whether its vote exceeds every other label's partial vote plus all
that label could still gain, with a slack for rounding.  A neighbour is
settled while its memory after its first slot holds only the guess, or
nothing: it can hand out only its own id or the guess.  So a label X other
than the guess can still gain the weight of every unsettled neighbour, but
of the settled ones only that of the neighbour whose id is X.  Once the
guess has won, its final vote would be strictly the highest, and the node
stops drawing.  Each draw is keyed by its own CSR position, so a skipped
draw moves no other, and every memory row is the one that full votes give,
bit for bit.  ``slpa``'s comment in ``_slpa.c`` carries the proof, and
``slpa`` returns the number of labels it drew.  Nodes below
``DECIDE_DEGREE`` draw every label.  Labels are node positions and
memories ``int32`` rows of ``iterations + 1`` labels.  A malformed array
would crash the kernel, so :func:`detect_runs` checks the CSR arrays'
dtypes, shapes and ranges first, and the kernel's ``components`` checks, in
one pass over the edges, that the graph is simple and undirected as a
:class:`ListGraph` promises: each row strictly ascending, without the node
itself, and every edge in both rows.  Either raises
:class:`ValidationError`; the buffers hold their dtype and C order by their
allocation.

A run walks one connected component at a time, through all its
iterations, before the next.  :func:`detect_runs` labels the components
with edges once per call, with the kernel's ``components``, and every run
reuses them.  The walk cannot change a result: two components never
exchange labels, and every draw is keyed by global positions, the visit
key by the node and the slot by the CSR position.  So within a component
the nodes go in the same (key, node) order as in a walk over the whole
graph, each reads the same memory slots, and every memory row is the same,
bit for bit.  The walk's sorts are smaller and its rows stay in cache.

A detection has three settings, a :class:`DetectorConfig`: its iterations,
its overlap threshold and its seed.  There are no detector modes: the
ensemble's fast runs and the thorough pass differ only in the iterations
that :class:`~listcom.pipeline.PipelineConfig` gives each.

:func:`detect_runs` gives each run whole to one thread, which then makes
the run's cover with the kernel's ``cover``, so the calling thread receives
finished covers.  ``ctypes`` releases the interpreter lock during both
calls.  It uses ``min(WORKERS, runs, runs * positions //
THREAD_POSITIONS)`` threads, one at least, where ``WORKERS`` is the number
of usable cores (the affinity mask) and ``positions`` the graph's CSR
positions, so small graphs and the single thorough run keep to one, which
runs inline on the calling thread without a pool.  Each thread owns one
memory and one cover buffer, allocated on the calling thread and reused for
all its runs, so memory does not grow with the number of runs.  Threads
share only the CSR arrays and the components, which the kernel only reads,
so no result depends on the number of threads or their schedule.  Threads
take whole runs, so the single run of the thorough pass has one.  If a run
raises, the other threads stop before their next run, the caller re-raises
it, and no thread outlives the call.

A run's result is a :class:`Cover`: the sorted node order plus ``indptr``
and ``int32`` ``members`` arrays holding each community's node positions in
ascending order.  Communities come in the canonical order, size descending
and then members lexicographic.  The node order is sorted, so positions
compare as the ids do and the order is computed on positions.  ``cover``
counts each active node's labels in its memory row, keeps every label that
holds at least ``overlap_threshold`` of it and the most frequent one,
groups the kept nodes by label with a counting sort, and sorts the groups of
two or more into the canonical order, collapsing equal ones.  A node keeps
at most ``min(m, int(1 / overlap_threshold) + 1)`` of its ``m`` labels,
which sizes the cover buffer and the kernel's scratch.
:meth:`Cover.from_groups` makes the same order in numpy, one ``np.lexsort``
per distinct size, for covers read from files.  Filtering singletons is a
size mask.

Ids appear only when a cover is saved or loaded; iterating a cover gives
each community's ids.  :func:`detect` returns a :class:`Cover` over
``graph.nodes``, and anything callable as ``(graph, config) -> Cover`` over
that same order can stand in for it at the ``detector=`` seam of the
ensemble and the thorough pass, so a heavier external detector can be
slotted in without touching the aggregation machinery.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import kernel
from .atomic import atomic_write
from .errors import ValidationError
from .listgraph import ListGraph

# CSR positions of all runs per thread, at least.  On ``desk`` (100 runs of
# about 2.8e3 positions) two threads took 0.031-0.037 s against 0.029-0.031 s
# for one, on a 2-core host.
THREAD_POSITIONS = 1 << 18
_MASK64 = (1 << 64) - 1


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


WORKERS = _usable_cores()  # threads that run one call's runs, at most


@dataclass(frozen=True)
class DetectorConfig:
    """One detection's settings, as the ``detector=`` seam receives them."""

    iterations: int
    overlap_threshold: float
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if not (0.0 < self.overlap_threshold < 1.0):
            raise ValidationError("overlap_threshold must be in (0, 1)")

    @property
    def resolved_iterations(self) -> int:
        """``iterations``, under the name that ``bench/trace.py`` reads."""
        return self.iterations

    def with_seed(self, seed: int) -> "DetectorConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True, eq=False)
class Cover:
    """An overlapping cover as integer arrays over a sorted node order.

    Community ``k`` is the node positions ``members[indptr[k]:indptr[k + 1]]``
    (``int32``, ascending).  Communities are distinct and in canonical
    order: size descending, then members lexicographic.  Covers are equal
    when their node orders and arrays are.
    """

    nodes: tuple[str, ...]
    indptr: np.ndarray
    members: np.ndarray

    @classmethod
    def from_groups(cls, nodes, sizes, members) -> "Cover":
        """Canonical cover over the sorted ``nodes`` from groups given as
        consecutive runs of ``members`` (positions, distinct within a
        group, in any order) of the given ``sizes``.  Duplicate groups
        collapse."""
        sizes = np.asarray(sizes, dtype=np.int64)
        members = np.asarray(members, dtype=np.int32)
        starts = np.cumsum(sizes) - sizes
        blocks = []
        for size in sorted(set(sizes.tolist()), reverse=True):
            rows = np.sort(members[starts[sizes == size][:, None] + np.arange(size)],
                           axis=1)
            rows = rows[np.lexsort(rows.T[::-1])] if size else rows[:1]
            # Of each run of equal rows, keep the first.
            blocks.append(rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]])
        widths = np.array([block.shape[1] for block in blocks], dtype=np.int64)
        counts = np.repeat(widths, [len(block) for block in blocks])
        return cls(tuple(nodes), np.r_[0, np.cumsum(counts)],
                   np.concatenate([members[:0]] + [block.ravel() for block in blocks]))

    @classmethod
    def from_sets(cls, nodes, sets) -> "Cover":
        """Canonical cover over the sorted ``nodes`` from collections of
        ids; raises for an id outside ``nodes``."""
        nodes = tuple(nodes)
        sets = [frozenset(s) for s in sets]
        ids = [node for s in sets for node in s]
        return cls.from_groups(nodes, [len(s) for s in sets],
                               node_positions(nodes, ids))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return (self.nodes == other.nodes
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.members, other.members))

    def __iter__(self) -> Iterator[list[str]]:
        """Each community's ids, as :meth:`id_lists` gives them."""
        return iter(self.id_lists())

    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def id_lists(self) -> list[list[str]]:
        """Each community's ids, ascending, in the cover order."""
        nodes = self.nodes
        members = self.members.tolist()
        bounds = self.indptr.tolist()
        return [[nodes[p] for p in members[a:b]]
                for a, b in zip(bounds, bounds[1:])]


def node_positions(nodes, ids) -> np.ndarray:
    """``int32`` positions of ``ids`` in the sorted ``nodes``; raises for
    an id outside them."""
    order = np.array(nodes, dtype=object)
    ids = np.array(ids, dtype=object)
    pos = np.searchsorted(order, ids)
    found = pos < len(order)
    found[found] = order[pos[found]] == ids[found]
    if not found.all():
        raise ValidationError(f"node {ids[~found][0]!r} outside the node order")
    return pos.astype(np.int32)


def detect(graph: ListGraph, config: DetectorConfig) -> Cover:
    """Run label propagation; returns non-singleton communities only.

    Deterministic given (graph, config): the visit order and every memory
    slot are derived from the seed and the node and edge positions.
    Isolated nodes are never assigned.
    """
    return detect_runs(graph, config, [config.seed])[0]


def detect_runs(graph: ListGraph, config: DetectorConfig,
                seeds) -> list[Cover]:
    """:func:`detect` once per seed, as covers over ``graph.nodes``.

    Equals ``[detect(graph, config.with_seed(s)) for s in seeds]``; each
    run goes whole to one thread, which makes its cover too.
    """
    csr = _checked_csr(graph)
    seeds = [int(s) & _MASK64 for s in seeds]
    if not np.any(np.diff(graph.indptr) > 0):
        return [Cover.from_groups(graph.nodes, [], [])] * len(seeds)
    lib = kernel.load()
    run = functools.partial(_run, lib, csr, _components(lib, csr), graph.nodes,
                            config.overlap_threshold)
    threads = max(1, min(WORKERS, len(seeds),
                         len(seeds) * len(graph.indices) // THREAD_POSITIONS))
    # Each thread's buffers are allocated on the calling thread: memory that
    # a worker thread frees stays resident in its own malloc arena.
    buffers = [_buffers(len(graph.nodes), config.iterations + 1,
                        config.overlap_threshold) for _ in range(threads)]
    if threads == 1:
        return [run(buffers[0], seed) for seed in seeds]
    # Imported here: it would add to the import time of every command.
    from concurrent.futures import ThreadPoolExecutor

    covers = [None] * len(seeds)
    todo = itertools.count()  # next() hands each run to one thread
    stop = threading.Event()

    def work(buffer):
        while not stop.is_set():
            i = next(todo)
            if i >= len(seeds):
                return
            try:
                covers[i] = run(buffer, seeds[i])
            except BaseException:
                stop.set()
                raise

    with ThreadPoolExecutor(threads, thread_name_prefix="listcom-detect") as pool:
        try:
            for future in [pool.submit(work, buffer) for buffer in buffers]:
                future.result()
        finally:
            stop.set()
    return covers


def _checked_csr(graph: ListGraph):
    """``(indptr, indices, weights)`` of ``graph`` once they are safe to
    hand to the kernel; raises :class:`ValidationError` otherwise."""
    n = len(graph.nodes)
    if not 0 < n < 2**31:
        raise ValidationError(f"graph has {n} nodes; it needs 1 to 2**31 - 1")
    csr = (graph.indptr, graph.indices, graph.weights)
    for name, array, dtype in zip(("indptr", "indices", "weights"), csr,
                                  (np.int64, np.int64, np.float64)):
        if not (isinstance(array, np.ndarray) and array.dtype == dtype
                and array.ndim == 1 and array.flags.c_contiguous):
            raise ValidationError(
                f"graph {name} must be a C-contiguous 1-d {np.dtype(dtype)} array")
    indptr, indices, weights = csr
    if (len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices)
            or np.any(indptr[1:] < indptr[:-1])):
        raise ValidationError("graph indptr must hold n + 1 non-decreasing "
                              "offsets from 0 to the number of indices")
    if len(indices) and not (indices.min() >= 0 and indices.max() < n):
        raise ValidationError("graph indices must be node positions in [0, n)")
    if len(weights) != len(indices) or not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValidationError("graph weights must be one finite value >= 0 per index")
    return csr


def _buffers(n: int, m: int, overlap_threshold: float):
    """One thread's memory, ``n`` rows of ``m`` labels, and cover buffer:
    offsets and members for ``n`` times the labels a node can keep, at most
    ``int(1 / overlap_threshold)`` that hold the threshold of its memory
    plus the most frequent one, and at most ``m``."""
    pairs = n * int(min(m, 1 / overlap_threshold + 1))
    return (np.empty((n, m), dtype=np.int32), np.empty(pairs // 2 + 1, dtype=np.int64),
            np.empty(pairs, dtype=np.int32))


def _components(lib, csr):
    """``(starts, nodes)``: the connected components of the nodes with a
    neighbour, component ``c`` being ``nodes[starts[c]:starts[c + 1]]``,
    ascending, from the kernel's ``components``; raises
    :class:`ValidationError` for a graph that is not simple and undirected."""
    indptr, indices, _ = csr
    n = len(indptr) - 1
    starts = np.empty(n + 1, dtype=np.int64)
    nodes = np.empty(n, dtype=np.int32)
    parts = lib.components(n, indptr.ctypes.data, indices.ctypes.data,
                           starts.ctypes.data, nodes.ctypes.data)
    if parts == -3:
        raise ValidationError("graph indices must list each row's neighbours once, "
                              "ascending, without the node itself, and every edge "
                              "in both rows")
    kernel.checked(parts, "the components")
    return starts[:parts + 1], nodes


def _run(lib, csr, parts, nodes, overlap_threshold, buffers, seed: int) -> Cover:
    """The cover of the run with ``seed`` over the components ``parts``:
    its memories fill the memory of ``buffers``, and :func:`_cover` makes
    the cover from them."""
    mem = buffers[0]
    starts, members = parts
    kernel.checked(lib.slpa(mem.shape[0], *(a.ctypes.data for a in csr), seed,
                            mem.shape[1] - 1, len(starts) - 1, starts.ctypes.data,
                            members.ctypes.data, mem.ctypes.data), "a detection")
    return _cover(lib, nodes, csr[0], overlap_threshold, *buffers)


def _cover(lib, nodes, indptr, overlap_threshold, mem, groups, members) -> Cover:
    """The kernel's cover of the memory rows ``mem`` of the nodes with a
    neighbour in ``indptr``, made in ``groups`` and ``members`` and copied
    out."""
    # k kept (node, label) pairs fill k members and at most k // 2 + 1 offsets.
    capacity = min(len(members), 2 * len(groups) - 1)
    k = kernel.checked(lib.cover(len(nodes), indptr.ctypes.data, mem.ctypes.data,
                                 mem.shape[1], overlap_threshold, capacity,
                                 groups.ctypes.data, members.ctypes.data),
                       f"a cover of {capacity} kept labels")
    return Cover(nodes, groups[:k + 1].copy(), members[:groups[k]].copy())


def filter_singletons(cover: Cover) -> Cover:
    """Drop all communities of fewer than two nodes, which the canonical
    order puts last."""
    k = int(np.count_nonzero(cover.sizes() >= 2))
    return Cover(cover.nodes, cover.indptr[:k + 1],
                 cover.members[:cover.indptr[k]])


def save_communities(cover: Cover, path) -> None:
    """JSON array of arrays of node ids, in the canonical community order."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(cover.id_lists(), ensure_ascii=False))
        fh.write("\n")


def load_communities(path, order=None) -> Cover:
    """Reload a cover over the sorted node ``order``; without one, over the
    ids the file names."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list) or not all(
            isinstance(c, list) and all(isinstance(node, str) for node in c)
            for c in payload):
        raise ValidationError(f"{path}: expected a JSON array of arrays of ids")
    if order is None:
        order = sorted({node for c in payload for node in c})
    return Cover.from_sets(order, payload)
