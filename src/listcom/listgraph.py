"""Significance-weighted graph over lists.

Two lists are linked by the improbability of their member overlap: the edge
weight is the negative base-10 log of the hypergeometric tail probability of
seeing at least the observed intersection between samples of the two list
sizes drawn from the ``n``-user universe.  All tail sums run in log space
(log-gamma for the binomials, streaming log-add for the sum over the upper
tail), so weights stay finite and accurate far past the point where the
probability itself underflows a double.

Candidate pairs are enumerated through shared users, never over all l^2
list pairs: :func:`pair_counts` calls the kernel's counter (``_slpa.c``,
loaded by :mod:`listcom.kernel`), which takes list i to its users in the
corpus rows, then to their lists j > i in the transpose, and counts them in
a dense per-row counter, one row at a time (Gustavson's method).  It counts
the pairs first, then fills exact-size outputs, with O(l) scratch.  It is
the package's one co-occurrence counter: the consensus fold counts the
communities two nodes share with the same C function.  Each distinct
(size, size, overlap) triple is weighted once; the kernel's ``distinct``
finds them (:func:`distinct_values`).
Lists whose every edge falls below the ``rho`` cutoff remain in the graph as
isolated nodes.

The graph is held as integer arrays: node ``i`` is the i-th list id in
sorted order, and the edges form a compressed sparse row structure
(``indptr``, ``int32`` ``indices``, ``weights``) with each row's neighbours
in ascending order and every edge stored in both rows.  It is built once,
by :func:`build_list_graph`, :func:`load_graph` or the consensus graph, all
through :meth:`ListGraph.from_pairs`, whose kernel entry ``csr`` counts the
degrees in one pass over the pairs and fills the rows in another.  List ids
reappear only in the pair files of the graph and the consensus matrix,
``a<TAB>b<TAB>value`` rows (6 decimals, lexicographic pairs).

The codec.  A graph weight or a matrix score is held as ``int64``
micro-units: the integer k whose value k / 10**6 its file writes to 6
decimals.  :func:`micro_units` is the one conversion from a double: each
distinct value's 6-decimal string read as an integer.  It makes each
weight of :func:`build_list_graph` where it first exists, each score at
the end of the ensemble, and each value a reader parses, so a built object
equals its reload, and every vote, sum and threshold on these values is
exact integer arithmetic.  :func:`micro_threshold` turns a threshold such
as ``tau`` into the least k whose double k / 10**6 clears it, so keeping
``units >= micro_threshold(x)`` decides as a comparison of the written
values with ``x`` would.  :func:`pair_text` writes each distinct value
once, found in one pass over a hash table in the kernel, not by a sort;
:func:`write_pair_rows` joins the rows in the kernel, a block of
``TEXT_BLOCK`` rows at a time, and :func:`read_pair_rows` reads with
``path:line`` errors.  Ids hold no tab or line break
(:class:`~listcom.corpus.MembershipCorpus` refuses them), so a row's
fields are its ids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .atomic import atomic_write
from .corpus import MembershipCorpus, read_lines
from .errors import ParseError, ValidationError

_LN10 = math.log(10.0)
TEXT_BLOCK = 1 << 16  # rows formatted at once by write_pair_rows
MICRO = 10**6  # micro-units per unit: the pair files write k / MICRO


@dataclass(frozen=True, eq=False)
class ListGraph:
    """Weighted undirected graph in compressed sparse row form.

    ``nodes`` is sorted, so node ``i`` is the i-th id in lexicographic order.
    Row ``i`` holds its neighbours ``indices[indptr[i]:indptr[i + 1]]`` in
    ascending order with the matching ``weights``, ``int64`` micro-units;
    every edge is stored in both rows.  The arrays are read-only once built.
    """

    nodes: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_pairs(cls, nodes, i, j, w) -> "ListGraph":
        """Build from fewer than 2**31 sorted ``nodes`` and parallel arrays
        of node indices ``i < j`` with integer weights ``w`` >= 0, distinct
        and in ascending ``(i, j)`` order.  Row ``a`` is then its pairs
        ``(b, a)`` followed by its pairs ``(a, c)``, so the kernel's ``csr``
        lays out the CSR in one pass that counts the degrees and one that
        fills the rows."""
        nodes = tuple(nodes)
        if len(nodes) >= 2**31 or any(a >= b for a, b in zip(nodes, nodes[1:])):
            raise ValidationError("graph nodes must be sorted, unique and fewer than 2**31")
        i = np.ascontiguousarray(i, dtype=np.int64)
        j = np.ascontiguousarray(j, dtype=np.int64)
        w = np.asarray(w)
        if not (i.ndim == j.ndim == w.ndim == 1 and len(i) == len(j) == len(w)):
            raise ValidationError("edge pairs must be 1-d arrays of one length")
        if len(i) and not (i.min() >= 0 and j.max() < len(nodes)):
            raise ValidationError("edge pairs must index the graph nodes")
        if np.any(i >= j):
            raise ValidationError("edge pairs must satisfy i < j")
        if np.any(np.diff(i * len(nodes) + j) <= 0):
            raise ValidationError("edge pairs must be distinct and in "
                                  "ascending (i, j) order")
        if len(w) and not (w.dtype.kind in "iu" and 0 <= w.min() and w.max() < 2**63):
            raise ValidationError("edge weights must be integer micro-units >= 0")
        w = np.ascontiguousarray(w, dtype=np.int64)
        arrays = (np.empty(len(nodes) + 1, dtype=np.int64),
                  np.empty(2 * len(i), dtype=np.int32), np.empty(2 * len(i), dtype=np.int64))
        kernel.load().csr(len(nodes), len(i), *(a.ctypes.data for a in (i, j, w, *arrays)))
        for arr in arrays:
            arr.flags.writeable = False
        return cls(nodes, *arrays)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_pairs(self, values=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each edge once as (i, j, w) arrays with i < j, in (i, j) order;
        ``values`` parallel to ``indices`` stand in for the weights."""
        rows = np.repeat(np.arange(len(self.nodes)), np.diff(self.indptr))
        upper = self.indices > rows
        w = self.weights if values is None else values
        return rows[upper], self.indices[upper], w[upper]

    def edge_list(self) -> list[tuple[str, str, float]]:
        """Each edge once as ``(a, b, weight)`` with a < b, in sorted order;
        the weight is the double k / 10**6 of its written string."""
        i, j, w = self.edge_pairs()
        nodes = self.nodes
        return [(nodes[a], nodes[b], x / MICRO)
                for a, b, x in zip(i.tolist(), j.tolist(), w.tolist())]


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


def pair_counts(indptr, cols, t_indptr, t_cols) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pair keys ``i*l+j`` with i<j of the ``l`` rows of the CSR
    (``indptr``, ``cols``) that share a column, and the number they share.
    (``t_indptr``, ``t_cols``) is its transpose; both list each row's
    entries in ascending order.  The kernel counts the pairs, then fills
    ``int64`` arrays of that size.  ``int32`` arrays, such as the corpus's,
    go to it as they are.  Arrays that do not index each other raise
    :class:`ValidationError`: the kernel does not check them."""
    l = len(indptr) - 1
    arrays = [*_int32_rows(indptr, cols, len(t_indptr) - 1),
              *_int32_rows(t_indptr, t_cols, l)]
    lib = kernel.load()
    addresses = [a.ctypes.data for a in arrays]
    total = kernel.checked(lib.pair_counts(l, *addresses, 0, None, None), "pair counts")
    keys = np.empty(total, dtype=np.int64)
    counts = np.empty(total, dtype=np.int64)
    kernel.checked(lib.pair_counts(l, *addresses, total, keys.ctypes.data,
                                   counts.ctypes.data), "pair counts")
    return keys, counts


def _int32_rows(indptr, cols, width) -> list[np.ndarray]:
    """``indptr`` and ``cols`` as C-contiguous ``int32`` arrays once they
    are integer arrays of row offsets from 0 to ``len(cols)`` and columns in
    ``[0, width)``; raises :class:`ValidationError` otherwise."""
    indptr, cols = np.asarray(indptr), np.asarray(cols)
    if not (indptr.ndim == cols.ndim == 1 and len(indptr) and len(cols) < 2**31
            and width < 2**31 and np.issubdtype(indptr.dtype, np.integer)
            and np.issubdtype(cols.dtype, np.integer)):
        raise ValidationError("pair counts need 1-d integer rows of fewer than "
                              "2**31 entries")
    if (indptr[0] != 0 or indptr[-1] != len(cols) or np.any(indptr[1:] < indptr[:-1])
            or len(cols) and not (cols.min() >= 0 and cols.max() < width)):
        raise ValidationError("pair counts need row offsets from 0 to the number "
                              "of columns, each column indexing the other side")
    return [np.ascontiguousarray(a, dtype=np.int32) for a in (indptr, cols)]


def build_list_graph(corpus: MembershipCorpus, rho: float) -> ListGraph:
    """One node per list; edges for every member-sharing pair whose weight
    clears ``rho``.  Each kept weight is held in the micro-units of its
    6-decimal string, as graph.tsv writes it; ``rho`` is tested on the
    weight before that rounding.  ``rho`` must be a number >= 0:
    :class:`~listcom.pipeline.PipelineConfig` checks it, and this function
    does not."""
    nodes = corpus.list_ids
    if not nodes:
        raise ValidationError("corpus has no lists")
    n = corpus.n
    keys, counts = pair_counts(corpus.indptr, corpus.users,
                               corpus.user_indptr, corpus.user_lists)
    i, j = np.divmod(keys, len(nodes))
    # Code each ordered triple by the ranks of the d distinct sizes.  Below
    # 2**31 memberships, d * d * (largest size + 1) stays under 2**62.
    distinct, rank = np.unique(np.diff(corpus.indptr).astype(np.int64),
                               return_inverse=True)
    d, top = len(distinct), int(distinct[-1]) + 1
    codes = (rank[i] * d + rank[j]) * top + counts
    first, which = distinct_values(codes)
    codes = codes[first]
    size_pair, k = np.divmod(codes, top)
    lg = np.zeros(n + 2)  # index 0 is never touched (log_comb args are >= 1)
    lg[1:] = [math.lgamma(x) for x in range(1, n + 2)]
    lpv = 0.0 - _log_tail_batch(distinct[size_pair // d], distinct[size_pair % d],
                                k, n, lg) / _LN10
    keep = lpv[which] >= rho
    return ListGraph.from_pairs(nodes, i[keep], j[keep], micro_units(lpv)[which][keep])


def distinct_values(codes) -> tuple[np.ndarray, np.ndarray]:
    """``(first, which)`` for an ``int64`` array: ``first[d]`` is the
    position where its d-th distinct value first occurs, in the order of
    those positions, and ``which[k]`` is the d of ``codes[k]``.  The
    kernel's ``distinct`` finds them in one pass, with a hash table of the
    values seen."""
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    first = np.empty(len(codes), dtype=np.int64)
    which = np.empty(len(codes), dtype=np.int64)
    found = kernel.checked(kernel.load().distinct(
        len(codes), codes.ctypes.data, which.ctypes.data, first.ctypes.data),
        "distinct values")
    return first[:found], which


def micro_units(values) -> np.ndarray:
    """Each double as the ``int64`` k whose k / 10**6 is its 6-decimal
    string, the one conversion of a weight or a score to micro-units.  Each
    distinct value is formatted once; ``-0.0`` gives 0.  A value that is not
    finite, or whose k would not fit 63 bits, raises :class:`ValidationError`.
    A double holds every decimal of 15 significant digits, so a value
    below 10**9 that a pair file holds reads back as the k it was written
    from."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.all(np.abs(values) < 2**63 / MICRO):
        raise ValidationError("values must be finite and below 2**63 micro-units")
    first, which = distinct_values(values.view(np.int64))
    units = [int(f"{v:.6f}".replace(".", "")) for v in values[first].tolist()]
    return np.array(units, dtype=np.int64)[which]


def micro_threshold(x: float) -> int:
    """The least k whose double k / 10**6 is >= ``x``, for ``|x|`` below
    10**9: a value in micro-units clears it exactly when its written
    string, read as a double, is >= ``x``, for ``x`` of any number of
    decimals.  ``k / MICRO`` divides Python integers, correctly rounded."""
    k = math.ceil(x * MICRO)  # off by at most one below 10**9
    return k - 1 if (k - 1) / MICRO >= x else k + (k / MICRO < x)


def pair_text(units) -> tuple[list[str], np.ndarray]:
    """Each distinct value of an ``int64`` array of micro-units written
    once as k / 10**6 to 6 decimals, in the order of its first occurrence,
    and each value's index into those strings."""
    units = np.ascontiguousarray(units, dtype=np.int64)
    first, which = distinct_values(units)
    return [f"{'-' * (k < 0)}{abs(k) // MICRO}.{abs(k) % MICRO:06d}"
            for k in units[first].tolist()], which


def write_pair_rows(fh, nodes, i, j, text, which) -> None:
    """Write one ``a<TAB>b<TAB>text[which[k]]`` row per node pair
    ``(nodes[i[k]], nodes[j[k]])`` to the text file ``fh``.  The ids are
    encoded to UTF-8 once, and the kernel joins ``TEXT_BLOCK`` rows at a
    time into a buffer sized for the longest id and the longest string,
    which is decoded and written as one string."""
    ids = [node.encode() for node in nodes]
    values = [t.encode() for t in text]
    rows = [np.ascontiguousarray(a, dtype=np.int64) for a in (i, j, which)]
    for part, bound in zip(rows, (len(ids), len(ids), len(values))):
        if len(part) != len(rows[0]) or (
                len(part) and not (part.min() >= 0 and part.max() < bound)):
            raise ValidationError("pair rows must index the given nodes and text")
    blobs = [np.frombuffer(b"".join(parts), dtype=np.uint8) for parts in (ids, values)]
    ends = [np.cumsum([0, *map(len, parts)], dtype=np.int64) for parts in (ids, values)]
    width = 2 * max(map(len, ids), default=0) + max(map(len, values), default=0) + 3
    buffer = np.empty(min(TEXT_BLOCK, len(rows[0])) * width, dtype=np.uint8)
    lib = kernel.load()
    for start in range(0, len(rows[0]), TEXT_BLOCK):
        block = [part[start:start + TEXT_BLOCK] for part in rows]
        size = kernel.checked(lib.pair_rows(
            len(block[0]), *(part.ctypes.data for part in block), blobs[0].ctypes.data,
            ends[0].ctypes.data, blobs[1].ctypes.data, ends[1].ctypes.data,
            len(buffer), buffer.ctypes.data), "pair rows")
        fh.write(str(buffer[:size], "utf-8"))


def save_graph(graph: ListGraph, edges_path, nodes_path) -> None:
    """Write edges (lexicographic pair order, weights to 6 decimals) and the
    sidecar node list that preserves isolated nodes.  Only the upper copy
    of each edge is written."""
    i, j, w = graph.edge_pairs()
    with atomic_write(edges_path) as fh:
        write_pair_rows(fh, graph.nodes, i, j, *pair_text(w))
    with atomic_write(nodes_path) as fh:
        fh.writelines(node + "\n" for node in graph.nodes)


def load_nodes(nodes_path) -> list[str]:
    """The sorted ids of a node list, one per line; blank lines are
    skipped, a repeated id raises, and bad UTF-8 raises
    :class:`ParseError` with its line."""
    nodes: list[str] = []
    seen = set()
    for node in read_lines(nodes_path):
        if not node:
            continue
        if node in seen:
            raise ValidationError(f"{nodes_path}: duplicate node {node!r}")
        seen.add(node)
        nodes.append(node)
    nodes.sort()
    return nodes


def read_pair_rows(path, nodes, header=0):
    """Parse a pair file over the sorted ids ``nodes``: ``header`` lines,
    then ``a<TAB>b<TAB>value`` rows in any row and endpoint order.  Returns
    the header lines and arrays ``(i, j, values, lines)``, the values as
    parsed doubles, in ascending
    ``(i, j)`` order with i < j, ``lines`` being each row's line in the file.
    Each error names ``path:line``: bad UTF-8, a wrong field count, a value
    ``float`` cannot parse, an endpoint outside ``nodes``, a self-pair, or
    the second copy of a pair."""
    index = {node: k for k, node in enumerate(nodes)}
    head, first, second, values = [], [], [], []
    for lineno, line in enumerate(read_lines(path), start=1):
        if lineno <= header:
            head.append(line)
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected three fields")
        a, b, text = fields
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value {text!r}") from exc
        ia = index.get(a)
        ib = index.get(b)
        if ia is None or ib is None:
            raise ValidationError(f"{path}:{lineno}: node "
                                  f"{a if ia is None else b!r} not in the node list")
        if ia == ib:
            raise ValidationError(f"{path}:{lineno}: self-pair on {a!r}")
        first.append(ia)
        second.append(ib)
    i, j = np.array(first, dtype=np.int64), np.array(second, dtype=np.int64)
    i, j = np.minimum(i, j), np.maximum(i, j)
    keys = i * len(nodes) + j
    order = np.argsort(keys, kind="stable")
    i, j, lines = i[order], j[order], order + (header + 1)
    dup = np.flatnonzero(np.diff(keys[order]) == 0) + 1
    if len(dup):
        at = dup[np.argmin(lines[dup])]
        raise ValidationError(f"{path}:{lines[at]}: duplicate pair "
                              f"{(nodes[i[at]], nodes[j[at]])}")
    return head, i, j, np.array(values, dtype=np.float64)[order], lines


def load_graph(edges_path, nodes_path) -> ListGraph:
    """The graph of a pair file and its node list, each weight in the
    micro-units of its value."""
    nodes = load_nodes(nodes_path)
    _, i, j, w, _ = read_pair_rows(edges_path, nodes)
    return ListGraph.from_pairs(nodes, i, j, micro_units(w))
