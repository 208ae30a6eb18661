"""Significance-weighted graph over lists.

Two lists are linked by the improbability of their member overlap: the edge
weight is the negative base-10 log of the hypergeometric tail probability of
seeing at least the observed intersection between samples of the two list
sizes drawn from the ``n``-user universe.  All tail sums run in log space
(log-gamma for the binomials, streaming log-add for the sum over the upper
tail), so weights stay finite and accurate far past the point where the
probability itself underflows a double.

Candidate pairs are enumerated through shared users, never over all l^2
list pairs.  Lists whose every edge falls below the ``rho`` cutoff remain in
the graph as isolated nodes.

The graph is held as integer arrays: node ``i`` is the i-th list id in
sorted order, and the edges form a compressed sparse row structure
(``indptr``, ``indices``, ``weights``) with each row's neighbours in
ascending order and every edge stored in both rows.  It is built once, by
:func:`build_list_graph`, :func:`load_graph` or the consensus graph, and
list ids reappear only when the graph is written out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .corpus import MembershipCorpus
from .errors import ParseError, ValidationError

_LN10 = math.log(10.0)
TEXT_BLOCK = 1 << 16  # rows formatted at once by write_pair_rows


@dataclass(frozen=True)
class GraphBuildConfig:
    rho: float = 6.0

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise ValidationError("rho must be >= 0")


@dataclass(frozen=True, eq=False)
class ListGraph:
    """Weighted undirected graph in compressed sparse row form.

    ``nodes`` is sorted, so node ``i`` is the i-th id in lexicographic order.
    Row ``i`` holds its neighbours ``indices[indptr[i]:indptr[i + 1]]`` in
    ascending order with the matching ``weights``; every edge is stored in
    both rows.  The arrays are read-only once built.
    """

    nodes: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_pairs(cls, nodes, i, j, w) -> "ListGraph":
        """Build from sorted ``nodes`` and parallel arrays of node indices
        ``i < j`` (each pair at most once) with weights ``w``."""
        nodes = tuple(nodes)
        if any(a >= b for a, b in zip(nodes, nodes[1:])):
            raise ValidationError("graph nodes must be sorted and unique")
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if np.any(i >= j):
            raise ValidationError("edge pairs must satisfy i < j")
        if not np.all(np.isfinite(w) & (w >= 0.0)):
            raise ValidationError("edge weights must be finite and >= 0")
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        perm = np.lexsort((cols, rows))
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(nodes)), out=indptr[1:])
        arrays = (indptr, cols[perm], np.concatenate([w, w])[perm])
        for arr in arrays:
            arr.flags.writeable = False
        return cls(nodes, *arrays)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each edge once as (i, j, w) arrays with i < j, in (i, j) order."""
        rows = np.repeat(np.arange(len(self.nodes)), np.diff(self.indptr))
        upper = self.indices > rows
        return rows[upper], self.indices[upper], self.weights[upper]

    def edge_list(self) -> list[tuple[str, str, float]]:
        """Each edge once as ``(a, b, weight)`` with a < b, in sorted order."""
        i, j, w = self.edge_pairs()
        nodes = self.nodes
        return [(nodes[a], nodes[b], x)
                for a, b, x in zip(i.tolist(), j.tolist(), w.tolist())]


def node_index(nodes) -> dict[str, int]:
    """Position of each id in ``nodes``; the string-to-integer boundary."""
    return {node: i for i, node in enumerate(nodes)}


def _check_overlap_args(size_x: int, size_y: int, intersection: int, n: int) -> None:
    if n < 1:
        raise ValidationError("universe size n must be >= 1")
    if size_x < 0 or size_y < 0:
        raise ValidationError("list sizes must be nonnegative")
    if size_x > n or size_y > n:
        raise ValidationError("list sizes cannot exceed the universe size")
    if not (0 <= intersection <= min(size_x, size_y)):
        raise ValidationError(
            f"impossible overlap: {intersection} not in [0, min({size_x}, {size_y})]"
        )


def _log_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _log_add(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _log_tail(size_x: int, size_y: int, intersection: int, n: int) -> float:
    """Natural log of P(overlap >= intersection) under the hypergeometric null.

    Sums the upper tail directly, which is shorter and better conditioned
    than one-minus-the-lower-tail when the intersection is large.
    """
    if intersection == 0:
        return 0.0
    lo = max(intersection, size_x + size_y - n)
    hi = min(size_x, size_y)
    base = _log_comb(n, size_y)
    acc = -math.inf
    for j in range(lo, hi + 1):
        term = _log_comb(size_x, j) + _log_comb(n - size_x, size_y - j) - base
        acc = term if acc == -math.inf else _log_add(acc, term)
    return min(acc, 0.0)


def overlap_pvalue(size_x: int, size_y: int, intersection: int, n: int) -> float:
    """Probability of an overlap at least this large between random lists.

    Symmetric in the two sizes; 1.0 for a zero intersection.  May underflow
    to 0.0 for overlaps whose tail probability is below the double range;
    use :func:`overlap_lpv` when the magnitude matters.
    """
    _check_overlap_args(size_x, size_y, intersection, n)
    return math.exp(_log_tail(size_x, size_y, intersection, n))


def overlap_lpv(size_x: int, size_y: int, intersection: int, n: int) -> float:
    """Negative log10 of :func:`overlap_pvalue`, computed entirely in log space."""
    _check_overlap_args(size_x, size_y, intersection, n)
    # 0.0 - x, not -x: a tail probability of 1 weighs 0.0, not -0.0.
    return 0.0 - _log_tail(size_x, size_y, intersection, n) / _LN10


def _log_tail_batch(
    sx: np.ndarray, sy: np.ndarray, k: np.ndarray, n: int, lg: np.ndarray
) -> np.ndarray:
    """Vectorised `_log_tail` over parallel arrays; ``lg[i] = lgamma(i)``."""

    def log_comb(a, b):
        return lg[a + 1] - lg[b + 1] - lg[a - b + 1]

    lo = np.maximum(k, sx + sy - n)
    hi = np.minimum(sx, sy)
    base = log_comb(n, sy)
    acc = np.full(sx.shape, -np.inf)
    out = np.zeros(sx.shape)
    max_terms = int(np.max(hi - lo)) + 1 if len(sx) else 0
    for t in range(max_terms):
        j = lo + t
        live = j <= hi
        if not live.any():
            break
        jl = j[live]
        term = (log_comb(sx[live], jl)
                + log_comb((n - sx)[live], sy[live] - jl)
                - base[live])
        acc[live] = np.logaddexp(acc[live], term)
    nonzero = k > 0
    out[nonzero] = np.minimum(acc[nonzero], 0.0)
    return out


def _intersection_counts(
    corpus: MembershipCorpus, index: dict[str, int], l: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shared-user pair enumeration: returns (pair keys ``i*l+j`` with i<j,
    intersection sizes), reduced deterministically."""
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    buf: list[np.ndarray] = []
    buf_n = 0
    triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def flush():
        nonlocal buf, buf_n
        if not buf:
            return
        keys, counts = np.unique(np.concatenate(buf), return_counts=True)
        chunks.append((keys, counts))
        buf = []
        buf_n = 0

    for uid in sorted(corpus.user_index):
        lids = corpus.user_index[uid]
        d = len(lids)
        if d < 2:
            continue
        idx = np.sort(np.fromiter((index[x] for x in lids), dtype=np.int64, count=d))
        if d <= 512:
            pair = triu_cache.get(d)
            if pair is None:
                pair = np.triu_indices(d, 1)
                triu_cache[d] = pair
        else:
            pair = np.triu_indices(d, 1)
        buf.append(idx[pair[0]] * l + idx[pair[1]])
        buf_n += len(pair[0])
        if buf_n >= 4_000_000:
            flush()
    flush()
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    all_keys = np.concatenate([c[0] for c in chunks])
    all_counts = np.concatenate([c[1] for c in chunks])
    keys, inv = np.unique(all_keys, return_inverse=True)
    counts = np.bincount(inv, weights=all_counts.astype(np.float64))
    return keys, counts.astype(np.int64)


def build_list_graph(corpus: MembershipCorpus, config: GraphBuildConfig) -> ListGraph:
    """One node per list; edges for every member-sharing pair whose weight
    clears ``config.rho``."""
    nodes = tuple(sorted(corpus.memberships))
    if not nodes:
        raise ValidationError("corpus has no lists")
    index = node_index(nodes)
    sizes = np.fromiter((len(corpus.memberships[lid]) for lid in nodes),
                        dtype=np.int64, count=len(nodes))
    n = corpus.n
    l = len(nodes)
    keys, counts = _intersection_counts(corpus, index, l)
    lg = np.zeros(n + 2)  # index 0 is never touched (log_comb args are >= 1)
    lg[1:] = [math.lgamma(i) for i in range(1, n + 2)]
    kept = []
    for start in range(0, len(keys), 1_000_000):
        kk = keys[start:start + 1_000_000]
        cc = counts[start:start + 1_000_000]
        i_idx = kk // l
        j_idx = kk % l
        lpv = 0.0 - _log_tail_batch(sizes[i_idx], sizes[j_idx], cc, n, lg) / _LN10
        keep = lpv >= config.rho
        kept.append((i_idx[keep], j_idx[keep], lpv[keep]))
    if not kept:
        return ListGraph.from_pairs(nodes, [], [], [])
    return ListGraph.from_pairs(nodes, *(np.concatenate(c) for c in zip(*kept)))


def write_pair_rows(fh, nodes, i, j, values) -> np.ndarray:
    """Write one ``a<TAB>b<TAB>value`` row (6 decimals) per node pair
    ``(nodes[i[k]], nodes[j[k]])``; returns the values as a reader parses
    them back, converted from the very strings written."""
    parsed = np.empty(len(values), dtype=np.float64)
    for start in range(0, len(values), TEXT_BLOCK):
        block = slice(start, start + TEXT_BLOCK)
        text = [f"{v:.6f}" for v in values[block].tolist()]
        fh.writelines(f"{nodes[a]}\t{nodes[b]}\t{t}\n" for a, b, t
                      in zip(i[block].tolist(), j[block].tolist(), text))
        parsed[block] = np.array(text, dtype=np.float64)
    return parsed


def save_graph(graph: ListGraph, edges_path, nodes_path) -> ListGraph:
    """Write edges (lexicographic pair order, weights to 6 decimals) and the
    sidecar node list that preserves isolated nodes.  Returns the graph that
    :func:`load_graph` reads back from them."""
    i, j, w = graph.edge_pairs()
    with atomic_write(edges_path) as fh:
        written = write_pair_rows(fh, graph.nodes, i, j, w)
    with atomic_write(nodes_path) as fh:
        fh.writelines(node + "\n" for node in graph.nodes)
    return ListGraph.from_pairs(graph.nodes, i, j, written)


def load_graph(edges_path, nodes_path) -> ListGraph:
    nodes: list[str] = []
    seen = set()
    with open(nodes_path, encoding="utf-8") as fh:
        for line in fh:
            node = line.rstrip("\n")
            if not node:
                continue
            if node in seen:
                raise ValidationError(f"{nodes_path}: duplicate node {node!r}")
            seen.add(node)
            nodes.append(node)
    nodes.sort()
    index = node_index(nodes)
    i_list: list[int] = []
    j_list: list[int] = []
    w_list: list[float] = []
    with open(edges_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ParseError(f"{edges_path}:{lineno}: expected three fields")
            a, b, w_str = fields
            try:
                w = float(w_str)
            except ValueError as exc:
                raise ParseError(f"{edges_path}:{lineno}: bad weight {w_str!r}") from exc
            ia = index.get(a)
            ib = index.get(b)
            if ia is None or ib is None:
                raise ValidationError(f"{edges_path}:{lineno}: endpoint not in node list")
            if ia == ib:
                raise ValidationError(f"{edges_path}:{lineno}: self-loop on {a!r}")
            i_list.append(min(ia, ib))
            j_list.append(max(ia, ib))
            w_list.append(w)
    i = np.array(i_list, dtype=np.int64)
    j = np.array(j_list, dtype=np.int64)
    keys = i * len(nodes) + j
    order = np.argsort(keys, kind="stable")
    dup = np.flatnonzero(keys[order][1:] == keys[order][:-1])
    if len(dup):
        line = int(order[dup + 1].min())
        raise ValidationError(f"{edges_path}:{line + 1}: duplicate edge "
                              f"{(nodes[i[line]], nodes[j[line]])}")
    return ListGraph.from_pairs(nodes, i, j, np.array(w_list, dtype=np.float64))
