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

Every slot is therefore known when the iteration starts, and a node's
update reads only the labels in its drawn slots.  The one label it can read
that the iteration itself writes is slot ``it`` of an earlier-visited
neighbour.  Updates therefore need not run one at a time: a node is ready
once every neighbour whose slot ``it`` it drew is done, and nodes that are
ready together read nothing any of them writes, so they are updated in one
vectorised step.  That gives the memories of the node-by-node loop in visit
order (the asynchronous SLPA of Xie, Szymanski and Liu, 2011) in as many
levels as the longest chain of such reads.  :func:`detect_runs` stacks
several runs as (run, node) cells over the one shared CSR and steps their
ready cells together.  A step gathers at most ``SLOT_CAP`` neighbour slots
and leaves the other ready cells for the next step; any subset of the ready
cells is independent, so the cap bounds memory without changing a result.
Runs are independent too, and are stacked in groups that hold at most
``RUN_SLOTS`` drawn slots.

Labels are node positions and memories are ``int32``.  The slot reads are
hoisted out of the steps: when an iteration's slots are drawn for a run,
each stacked CSR position gets the flat index into the memory of the label
it reads, and a flag saying whether the neighbour there reads the label its
own row writes in this iteration.  The index is ``int32`` unless the memory
holds more than 2**31 labels (:func:`read_index_dtype`).  A step then reads
each slot's label with one lookup, and takes the cells its writes wake from
``graph.indices`` at the flagged positions.  It tallies each cell's
collected labels with one stable ``np.argsort`` of the (cell, label) keys:
the breaks in the sorted keys number the groups, and ``np.bincount`` sums
the edge weights in sorted order, which the stable sort keeps in CSR order
within a group, so every vote is the same sequential sum of doubles.  The
winner is the first maximum of the cell's votes, or the lowest collected
label when every vote is 0.0.

A group of stacked runs is stepped on ``min(WORKERS, positions //
WORKER_POSITIONS)`` workers, one at least: ``WORKERS`` is the number of
usable cores (the affinity mask), and ``positions`` the group's stacked CSR
positions, so small graphs keep to one.  The calling thread is worker 0;
with one worker no thread starts and the same loop runs inline.  Each
iteration shares three phases out among the workers, one after the other:
the visit ranks, one task per run; the slot draw, in tasks of whole rows of
one run with at most ``DRAW_TASK`` positions, each writing the read
indices, wake flags and wait counts of its own positions and rows; and the
drain.  In the drain the workers share one ready queue and the per-cell wait
counts under one lock.  A worker takes a prefix of the queue, runs the step
outside the lock, and under it counts down the waits of the cells the step
wakes and queues those left with none.  Which worker steps which cells, and
in which order, then varies from run to run, and no result depends on it: a
step reads slots below ``it``, written in earlier iterations, and slot
``it`` of neighbours whose steps finished before its cell was queued, and
each cell's slot ``it`` is written by one step.  Worker threads allocate
nothing large.  The draw writes through buffers that the calling thread
allocates once per call (``derive_seeds`` takes ``out=``), and a step's
temporaries are bounded by ``SLOT_CAP``: memory a thread frees stays
resident in its own malloc arena, so per-task temporaries the size of a run
would raise the peak RSS.  If a job raises on any worker, the others stop,
the caller re-raises it, and no thread outlives the call.

A run's result is a :class:`Cover`: the sorted node order plus ``indptr``
and ``int32`` ``members`` arrays holding each community's node positions in
ascending order.  Communities come in the canonical order, size descending
and then members lexicographic.  The node order is sorted, so positions
compare as the ids do and the order is computed on positions: one
``np.lexsort`` per distinct size sorts the member rows, and equal
neighbours collapse.  Filtering singletons is a size mask.
:func:`group_pairs` lists every community's member pairs with one
``np.triu_indices`` per distinct size; the consensus fold and the stability
scores both read pairs through it.

Ids appear only when a cover is saved or loaded, and at the ``detector=``
seam: :func:`detect` returns a :class:`CommunitySet` of id frozensets, and
anything callable as ``(graph, config) -> CommunitySet`` can stand in for it
in the ensemble and the thorough pass, so a heavier external detector can be
slotted in without touching the aggregation machinery.
"""
from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .atomic import atomic_write
from .errors import ValidationError
from .listgraph import ListGraph
from .seeds import derive_seed, derive_seeds

FAST_ITERATIONS = 5
THOROUGH_ITERATIONS = 50
SLOT_CAP = 1 << 14  # neighbour slots gathered per step
RUN_SLOTS = 1 << 23  # drawn slots held at once by a group of stacked runs
PAIR_BLOCK = 1 << 18  # member pairs in one block of group_pairs
DRAW_TASK = 1 << 16  # CSR positions of one run drawn by one task
# Stacked positions per worker thread, at least.  At around 2.7e5 positions
# (100 runs of 2.7e3), two workers took 14 % more CPU time than one on a
# 2-core host and saved no wall time.
WORKER_POSITIONS = 16 * SLOT_CAP


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


WORKERS = _usable_cores()  # worker threads that step one group of runs, at most


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
    """An overlapping cover as id sets, the form a detector hands over at
    the ``detector=`` seam: a canonically ordered tuple of member sets.

    Duplicate member sets collapse; order is (size desc, members lex asc).
    """

    communities: tuple[frozenset[str], ...]

    @classmethod
    def from_sets(cls, sets) -> "CommunitySet":
        sets = [frozenset(s) for s in sets]
        nodes = sorted(frozenset().union(*sets))
        return Cover.from_sets(nodes, sets).community_set()

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.communities)

    def nodes(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.communities:
            out |= c
        return frozenset(out)


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
        for size in np.unique(sizes)[::-1].tolist():
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

    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def id_lists(self) -> list[list[str]]:
        """Each community's ids, ascending, in the cover order."""
        nodes = self.nodes
        members = self.members.tolist()
        bounds = self.indptr.tolist()
        return [[nodes[p] for p in members[a:b]]
                for a, b in zip(bounds, bounds[1:])]

    def community_set(self) -> CommunitySet:
        return CommunitySet(tuple(map(frozenset, self.id_lists())))


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


def group_pairs(indptr, members):
    """Every member pair of every group of at least two, size by size.

    Group ``k`` is ``members[indptr[k]:indptr[k + 1]]``.  Yields
    ``(groups, first, second)``: the indices of some groups of one size, and
    two ``(len(groups), p)`` arrays whose rows hold the members at local
    positions ``a < b`` of a run of that group's pairs, in
    ``itertools.combinations`` order.  ``np.triu_indices`` runs once per
    distinct size.  A block holds about ``PAIR_BLOCK`` pairs: a size with
    more pairs than that comes one group at a time, in row blocks of its
    pair triangle, so each group's pairs still come in order.
    """
    sizes = np.diff(indptr)
    for size in np.unique(sizes[sizes >= 2]).tolist():
        groups = np.flatnonzero(sizes == size)
        rows = members[indptr[groups][:, None] + np.arange(size)]
        pairs = size * (size - 1) // 2
        if pairs <= PAIR_BLOCK:
            first, second = np.triu_indices(size, 1)
            step = PAIR_BLOCK // pairs
            for start in range(0, len(groups), step):
                block = rows[start:start + step]
                yield groups[start:start + step], block[:, first], block[:, second]
        else:
            for k in range(len(groups)):
                for first, second in _pair_blocks(size):
                    yield groups[k:k + 1], rows[k:k + 1, first], rows[k:k + 1, second]


def _pair_blocks(size: int):
    """The pairs of positions ``0..size-1`` in ``itertools.combinations``
    order, as (first, second) arrays in row blocks of about ``PAIR_BLOCK``
    pairs."""
    step = max(1, PAIR_BLOCK // size)
    for start in range(0, size - 1, step):
        counts = np.arange(size - 1 - start, max(size - 1 - start - step, 0), -1)
        first = np.repeat(np.arange(start, start + len(counts)), counts)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
        yield first, first + 1 + offset


def detect(graph: ListGraph, config: DetectorConfig) -> CommunitySet:
    """Run label propagation; returns non-singleton communities only.

    Deterministic given (graph, config): the visit order and every memory
    slot are derived from the seed and the node and edge positions.
    Isolated nodes are never assigned.
    """
    return detect_runs(graph, config, [config.seed])[0].community_set()


def detect_runs(graph: ListGraph, config: DetectorConfig,
                seeds) -> list[Cover]:
    """:func:`detect` once per seed, all runs stepped together, as covers
    over ``graph.nodes``.

    Equals ``[detect(graph, config.with_seed(s)) for s in seeds]`` in
    :class:`Cover` form.  Runs are stacked in groups that hold at most
    ``RUN_SLOTS`` drawn slots (one run at least).
    """
    if not graph.nodes:
        raise ValidationError("graph has no nodes")
    seeds = [int(s) for s in seeds]
    group = max(1, RUN_SLOTS // max(1, len(graph.indices)))
    return [cover for start in range(0, len(seeds), group)
            for cover in _stacked_runs(graph, config, seeds[start:start + group])]


def read_index_dtype(cells: int, memory_size: int) -> np.dtype:
    """``int32`` when every flat index into ``cells`` memory rows of
    ``memory_size`` labels fits in it, ``int64`` otherwise."""
    fits = cells * memory_size - 1 <= np.iinfo(np.int32).max
    return np.dtype(np.int32 if fits else np.int64)


def _stacked_runs(graph: ListGraph, config: DetectorConfig,
                  seeds: list[int]) -> list[Cover]:
    nodes = graph.nodes
    n = len(nodes)
    runs = len(seeds)
    active = np.flatnonzero(np.diff(graph.indptr) > 0)
    if not len(active):
        return [Cover.from_groups(nodes, [], [])] * runs
    workers = max(1, min(WORKERS, runs * len(graph.indices) // WORKER_POSITIONS))
    stack = _Stack(graph, config, seeds, active, workers)
    with _Crew(workers) as crew:
        for it in range(1, stack.memory_size):
            stack.it = it
            crew.map(stack.rank, range(runs))
            crew.map(stack.draw, stack.draws)
            ready = (np.arange(runs)[:, None] * n + active).ravel()
            stack.queue = ready[np.take(stack.indeg, ready) == 0]
            crew.run(stack.drain)
    return [_cover(nodes, active, stack.mem[j * n + active], config.overlap_threshold)
            for j in range(runs)]


def _draw_tasks(indptr, active, size):
    """The active rows in runs of consecutive rows that hold at most
    ``size`` CSR positions (one row at least), as ``(rows, first, stop)``:
    the rows, and the positions ``first:stop`` they span."""
    ends = indptr[active + 1]
    tasks = []
    start = 0
    while start < len(active):
        first = int(indptr[active[start]])
        stop = max(start + 1, int(np.searchsorted(ends, first + size, side="right")))
        tasks.append((active[start:stop], first, int(ends[stop - 1])))
        start = stop
    return tasks


class _Stack:
    """The state of one :func:`_stacked_runs` call: the memories, and for
    the current iteration ``it`` the visit ranks, read indices, wake flags,
    wait counts and ready queue of the stacked (run, node) cells.  Each
    worker gets its own draw buffers, allocated here, once."""

    def __init__(self, graph, config, seeds, active, workers):
        n = len(graph.nodes)
        runs = len(seeds)
        edges = len(graph.indices)
        self.graph = graph
        self.seeds = seeds
        self.n = n
        self.it = 0
        self.deg = np.diff(graph.indptr)
        self.memory_size = memory_size = config.resolved_iterations + 1
        # One memory row per (run, node) cell: cell = run * n + node.
        self.mem = np.empty((runs * n, memory_size), dtype=np.int32)
        self.mem[:, 0] = np.tile(np.arange(n, dtype=np.int32), runs)
        self.node_ids = np.arange(n)
        self.rows = np.repeat(self.node_ids, self.deg)
        self.positions = np.arange(edges)
        # reverse[p] is the position of the edge p read the other way round.
        self.reverse = np.empty(edges, dtype=np.int64)
        self.reverse[np.argsort(graph.indices, kind="stable")] = self.positions
        # Per stacked position j * edges + p: the flat memory index of the
        # label it reads, and whether the neighbour at p reads the label
        # that p's own row writes in this iteration.  row_start[p] is where
        # the memory row of the neighbour at p starts in run 0.
        self.read_dtype = read_index_dtype(runs * n, memory_size)
        self.row_start = graph.indices.astype(self.read_dtype) * memory_size
        self.read = np.empty(runs * edges, dtype=self.read_dtype)
        self.wake = np.empty(runs * edges, dtype=bool)
        # Per cell: how many labels it still waits for in this iteration.
        self.indeg = np.empty(runs * n, dtype=np.int32)
        self.visit = np.empty((runs, n), dtype=np.int32)
        # A prefix of the queue gathers at most SLOT_CAP slots in at most
        # this many cells.
        self.lookahead = SLOT_CAP // int(self.deg[active].min()) + 1
        tasks = _draw_tasks(graph.indptr, active, DRAW_TASK)
        self.draws = [(j, task) for j in range(runs) for task in tasks]
        width = max(max(stop - first for _, first, stop in tasks), n)
        self.keys = np.empty((workers, width), dtype=np.uint64)
        self.scratch = np.empty_like(self.keys)
        self.flags = np.empty((workers, width), dtype=bool)
        self.counts = np.empty((workers, max(len(rows) for rows, _, _ in tasks)),
                               dtype=np.int32)
        self.turn = threading.Condition()
        self.busy = 0
        self.failed = False

    def rank(self, worker, j):
        """Run ``j``'s visit ranks: node ``u`` is visited in ascending
        order of ``derive_seed(derive_seed(seed, 2 it), u)``, then ``u``."""
        n = self.n
        keys = derive_seeds(derive_seed(self.seeds[j], 2 * self.it), self.node_ids,
                            out=self.keys[worker, :n], scratch=self.scratch[worker, :n])
        self.visit[j][np.argsort(keys, kind="stable")] = self.node_ids

    def draw(self, worker, draw):
        """Iteration ``it``'s slot draw for the positions of one task of
        run ``j``: their read indices, the wake flags of the positions that
        read them the other way round, and their rows' wait counts.

        Writes only through this worker's buffers: ``scratch`` holds the
        two visit ranks, then the memory lengths; ``flags`` the "earlier"
        mask, then the waits.  ``np.take`` gets ``mode="clip"`` because
        ``"raise"`` copies its output."""
        j, (rows, first, stop) = draw
        it = self.it
        size = stop - first
        span = slice(first, stop)
        keys, scratch = self.keys[worker, :size], self.scratch[worker, :size]
        theirs, ours = scratch.view(np.int32).reshape(2, size)
        flags = self.flags[worker, :size]
        derive_seeds(derive_seed(self.seeds[j], 2 * it + 1), self.positions[span],
                     out=keys, scratch=scratch)
        # A neighbour visited earlier in this iteration has one more label;
        # a node that draws it waits for that neighbour.
        np.take(self.visit[j], self.graph.indices[span], out=theirs, mode="clip")
        np.take(self.visit[j], self.rows[span], out=ours, mode="clip")
        np.less(theirs, ours, out=flags)
        np.add(flags, np.uint64(it), out=scratch)
        np.remainder(keys, scratch, out=keys)  # the slots, all below it + 1
        edges = len(self.positions)
        read = self.read[j * edges + first:j * edges + stop]
        np.add(self.row_start[span], keys, out=read, dtype=self.read_dtype,
               casting="unsafe")
        read += j * self.n * self.memory_size
        np.equal(keys, np.uint64(it), out=flags)
        # reverse is an involution, so the neighbour at reverse[p] waits
        # for p's row exactly when p draws slot it.
        self.wake[j * edges:(j + 1) * edges][self.reverse[span]] = flags
        counts = self.counts[worker, :len(rows)]
        np.add.reduceat(flags, self.graph.indptr[rows] - first, out=counts,
                        dtype=np.int32)
        self.indeg[j * self.n + rows] = counts

    def drain(self, worker):
        """Step ready cells until the queue is empty and no step is running.

        The queue and ``indeg`` are shared under ``turn``; a step itself
        runs outside it."""
        turn = self.turn
        while True:
            with turn:
                while not len(self.queue) and self.busy and not self.failed:
                    turn.wait()
                if self.failed or not len(self.queue):
                    return
                # Ready cells are independent: take a prefix of them that
                # gathers at most SLOT_CAP neighbour slots (one cell at least).
                head = np.take(self.deg, self.queue[:self.lookahead] % self.n).cumsum()
                take = max(1, int(np.searchsorted(head, SLOT_CAP, side="right")))
                batch, self.queue = self.queue[:take], self.queue[take:]
                self.busy += 1
            waiting = None
            try:
                waiting = _step(self.graph, self.mem, self.read, self.wake, batch,
                                self.it)
            finally:
                with turn:
                    self.busy -= 1
                    # Waiters run once the lock is free, even if this raises.
                    turn.notify_all()
                    if waiting is None:
                        self.failed = True
                    else:
                        self._release(waiting)

    def _release(self, waiting):
        """Count one finished wait per entry of ``waiting`` and queue the
        cells left with none, each once.  A cell woken twice by one step
        appears twice: every such entry writes its own negative stamp into
        the cell's count, and only the entry whose stamp stuck is kept.  A
        queued cell's count is never read again in this iteration."""
        indeg = self.indeg
        # An int32 one: a Python 1 would take ufunc.at's slow casting path.
        np.subtract.at(indeg, waiting, np.int32(1))
        newly = waiting[np.take(indeg, waiting) == 0]
        stamps = np.arange(-1, -1 - len(newly), -1, dtype=indeg.dtype)
        indeg[newly] = stamps
        self.queue = np.concatenate([self.queue, newly[np.take(indeg, newly) == stamps]])


class _Crew:
    """The workers of one :func:`_stacked_runs` call: the calling thread
    (worker 0) and ``count - 1`` threads, as a context manager.

    ``run(job)`` calls ``job(worker)`` on every worker and returns once all
    have returned; ``map(fn, tasks)`` has the workers call ``fn(worker,
    task)`` for each task, taking tasks in turn.  If a job raises, the rest
    of the tasks are skipped and ``run`` re-raises the first exception in
    the caller.  Leaving the ``with`` block ends and joins every thread.
    With one worker no thread is started and jobs run inline.
    """

    def __init__(self, count: int):
        self._barrier = threading.Barrier(count)
        self._lock = threading.Lock()
        self._job = None
        self._error = None
        self._threads = [threading.Thread(target=self._serve, args=(worker,),
                                          name=f"listcom-detect-{worker}")
                         for worker in range(1, count)]

    def __enter__(self) -> "_Crew":
        try:
            for thread in self._threads:
                thread.start()
        except BaseException:
            self._barrier.abort()
            for thread in self._threads:
                if thread.ident is not None:
                    thread.join()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._job = None
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            pass
        for thread in self._threads:
            thread.join()

    def _serve(self, worker: int) -> None:
        try:
            while True:
                self._barrier.wait()
                if self._job is None:
                    return
                self._call(worker)
                self._barrier.wait()
        except threading.BrokenBarrierError:
            return

    def _call(self, worker: int) -> None:
        try:
            self._job(worker)
        except BaseException as exc:
            with self._lock:
                if self._error is None:
                    self._error = exc

    def run(self, job) -> None:
        self._job = job
        self._barrier.wait()
        self._call(0)
        self._barrier.wait()
        if self._error is not None:
            raise self._error

    def map(self, fn, tasks) -> None:
        tasks = iter(tasks)
        lock = threading.Lock()

        def job(worker):
            while self._error is None:
                with lock:
                    task = next(tasks, None)
                if task is None:
                    return
                fn(worker, task)

        self.run(job)


def _step(graph, mem, read, wake, cells, it) -> np.ndarray:
    """Append iteration ``it``'s label to each of ``cells``, whose drawn
    labels are all in place; returns the cells waiting for these labels,
    once per label each waits for."""
    n = len(graph.nodes)
    edges = len(graph.indices)
    run, u = np.divmod(cells, n)
    lo = graph.indptr[u]
    counts = graph.indptr[u + 1] - lo
    ends = counts.cumsum()
    firsts = ends - counts
    # CSR positions of every cell's neighbour slots, cell by cell, and
    # their stacked positions.
    pos = np.arange(ends[-1]) + np.repeat(lo - firsts, counts)
    stacked = pos + np.repeat(run * edges, counts) if run.any() else pos
    labels = np.take(mem, np.take(read, stacked))
    # Votes per (cell, label): one stable sort keeps each group's votes in
    # CSR order, so bincount sums them in that order.  Groups come out
    # sorted by cell, then label, so the first maximum is the lowest
    # winning id (the lowest collected id when every vote is 0.0).
    keys = np.repeat(np.arange(len(cells)) * n, counts) + labels
    order = np.argsort(keys, kind="stable")
    keys = np.take(keys, order)
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    group = np.cumsum(new)  # 1-based: bin 0 of the bincount stays empty
    weights = np.take(np.take(graph.weights, pos), order)
    votes = np.bincount(group, weights=weights)[1:]
    # Each cell keeps its span of slots in the sorted order.
    starts = group[firsts] - 1
    top = np.repeat(np.maximum.reduceat(votes, starts),
                    group[ends - 1] - starts)
    first = np.minimum.reduceat(
        np.where(votes == top, np.arange(len(votes)), len(votes)), starts)
    mem[cells, it] = keys[new][first] % n
    # Neighbours that drew the label just written.
    woken_run, woken = np.divmod(stacked[np.take(wake, stacked)], edges)
    return woken_run * n + graph.indices[woken]


def _cover(nodes, active, mem, overlap_threshold) -> Cover:
    """Communities from the memory rows of the active nodes."""
    n = len(nodes)
    memory_size = mem.shape[1]
    # Label counts per active node: (row, label) pairs in ascending order.
    pairs, counts = np.unique(
        np.arange(len(active)).repeat(memory_size) * n + mem.ravel(),
        return_counts=True)
    rows, labels = np.divmod(pairs, n)
    keep = counts / memory_size >= overlap_threshold
    # Each node's most frequent label, the lowest id on ties, always stays.
    best = np.lexsort((labels, -counts, rows))
    keep[best[np.r_[True, np.diff(rows[best]) != 0]]] = True
    # Members per label: kept (row, label) pairs grouped by label.
    by_label = np.lexsort((rows[keep], labels[keep]))
    rows, labels = rows[keep][by_label], labels[keep][by_label]
    sizes = np.unique(labels, return_counts=True)[1]
    big = sizes >= 2
    return Cover.from_groups(nodes, sizes[big], active[rows][np.repeat(big, sizes)])


def filter_singletons(cover: Cover) -> Cover:
    """Drop all communities of fewer than two nodes, which the canonical
    order puts last."""
    k = int(np.count_nonzero(cover.sizes() >= 2))
    return Cover(cover.nodes, cover.indptr[:k + 1],
                 cover.members[:cover.indptr[k]])


def save_communities(cover: Cover, path) -> None:
    """JSON array of arrays of node ids, in the canonical community order."""
    with atomic_write(path) as fh:
        json.dump(cover.id_lists(), fh, ensure_ascii=False)
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
