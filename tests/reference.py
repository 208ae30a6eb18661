"""Reference implementations: exact oracles for the package's array code.

Plain dict-based loops that compute what the arrays compute: the corpus as
id sets rebuilt from its arrays, list intersections counted pair by pair
per user, or in numpy blocks of pair instances as the package counted them
before its kernel did, each edge weighted by its own call of
``overlap_lpv``, user
weights counted in a dict per list, evaluation rows from every category
against every community as frozensets, label
propagation over a ``{(a, b): weight}`` dict that fills its CSR from sorted
index-pair tuples (and the same CSR laid out by one stable numpy sort),
updates one node at a time in visit order with scalar
counter-based draws and tallies integer votes over ``np.unique``'s labels,
the cover of
memory rows in whole-array numpy calls, covers as frozensets of ids sorted
by the strings themselves, one run's pair scores from the numpy block
counter, the per-run Jaccard table over distinct label sets folded into a
``{key: score}`` dict, the
per-community pair keys of those frozenset covers folded into running sums,
the stability sums over that dict with the expected term enumerated over
every subset, term labels from a full sort of every scored term, and pair
files read one line at a time into a dict and written one value, or one
row, at a time.  Tests
compare the package against them with ``==``, except the expected term,
which averages the subset means in floats and must agree within 1e-12.
Weights and scores are ``int64`` micro-units, as in the package, and
:func:`micro` converts a double to them by exact rational rounding.
Helpers build corpora, graphs and matrices from small dicts, and
``tsv_pairs`` parses an ``a<TAB>b`` file one line at a time.
"""
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np

from listcom.consensus import ConsensusMatrix, label_jaccard
from listcom.corpus import ListRecord, MembershipCorpus
from listcom.detect import Cover, DetectorConfig, filter_singletons
from listcom.labeling import background_vector
from listcom.listgraph import ListGraph, overlap_lpv
from listcom.members import EvalRow, f1_score
from listcom.errors import ParseError, ValidationError
from listcom.pipeline import PipelineConfig
from listcom.seeds import derive_seed

_DEFAULTS = PipelineConfig()
# The detections of the ensemble's runs and of the thorough pass, at the
# default settings.
FAST = DetectorConfig(_DEFAULTS.fast_iterations, _DEFAULTS.overlap_threshold)
THOROUGH = DetectorConfig(_DEFAULTS.thorough_iterations, _DEFAULTS.overlap_threshold)


def id_sets(corpus):
    """``(memberships, user_index)`` rebuilt from a corpus's arrays: each
    list's users (an empty set for a list without any) and each user's
    lists, from the rows and the transpose respectively."""
    lists, users = corpus.list_ids, corpus.user_ids
    indptr, user_indptr = corpus.indptr.tolist(), corpus.user_indptr.tolist()
    memberships = {
        lid: frozenset(users[u] for u in corpus.users[indptr[i]:indptr[i + 1]].tolist())
        for i, lid in enumerate(lists)}
    user_index = {
        uid: frozenset(lists[i] for i in
                       corpus.user_lists[user_indptr[u]:user_indptr[u + 1]].tolist())
        for u, uid in enumerate(users)}
    return memberships, user_index


def tsv_pairs(path) -> list[tuple[str, str]]:
    """The ``(a, b)`` fields of an ``a<TAB>b`` file, each line decoded and
    split on its own; raises :class:`ParseError` at the first bad line,
    the first undecodable one before any with bad fields."""
    lines = []
    with open(path, "rb") as fh:
        for lineno, chunk in enumerate(fh.read().splitlines(), start=1):
            try:
                lines.append(chunk.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid UTF-8 ({exc})") from exc
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(f"{path}:{lineno}: expected two nonempty tab-separated fields")
        pairs.append((fields[0], fields[1]))
    return pairs


def same_corpus(x, y) -> bool:
    """Same list metadata, ids, rows, transpose and user count."""
    return (x.lists == y.lists and x.list_ids == y.list_ids
            and x.user_ids == y.user_ids and x.n == y.n
            and all(np.array_equal(getattr(x, name), getattr(y, name))
                    for name in ("indptr", "users", "user_indptr", "user_lists")))


def random_corpus(rng, lists=30, users=40) -> MembershipCorpus:
    """Lists of 1-12 users drawn from a shared pool, three lists of private
    users that share none, and two lists with metadata only."""
    pool = [f"u{k:03d}" for k in range(users)]
    memberships = {
        f"l{j:03d}": set(rng.choice(pool, size=int(rng.integers(1, 13)),
                                    replace=False).tolist())
        for j in range(lists)}
    for j in range(3):
        memberships[f"p{j}"] = {f"p{j}_{k}" for k in range(int(rng.integers(1, 4)))}
    records = [ListRecord(lid, "", "") for lid in [*memberships, "m0", "m1"]]
    return MembershipCorpus.build(records, memberships)


def intersection_counts(user_index) -> dict[tuple[str, str], int]:
    """``{(a, b): shared users}`` with a < b for every two lists that share
    a user, counted one pair of each user's lists at a time."""
    counts: dict[tuple[str, str], int] = {}
    for lids in user_index.values():
        for pair in combinations(sorted(lids), 2):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def numpy_pair_counts(indptr, cols, t_indptr, t_cols, block=1 << 18):
    """``listgraph.pair_counts`` as numpy arrays: row i reaches its columns,
    then their rows j > i in the transpose, in blocks of about ``block``
    pair instances, each block counted by ``np.unique``.  A block of rows
    holds every instance of its keys, so the blocks join in order."""
    indptr, cols, t_indptr, t_cols = (np.asarray(a, dtype=np.int64)
                                      for a in (indptr, cols, t_indptr, t_cols))
    l = len(indptr) - 1
    start = np.empty(len(cols), dtype=np.int64)
    start[np.argsort(cols, kind="stable")] = np.arange(1, len(start) + 1)
    later = t_indptr[cols + 1] - start
    done = np.concatenate(([0], np.cumsum(later)))[indptr]
    blocks = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
    a = 0
    while a < l:
        b = max(a + 1, int(np.searchsorted(done, done[a] + block, "right")) - 1)
        take = later[indptr[a]:indptr[b]]
        first = start[indptr[a]:indptr[b]] - np.cumsum(take) + take
        pair = np.repeat(np.repeat(np.arange(a, b), np.diff(indptr[a:b + 1])), take) * l
        pair += t_cols[np.repeat(first, take) + np.arange(len(pair))]
        blocks.append(np.unique(pair, return_counts=True))
        a = b
    return tuple(np.concatenate(part) for part in zip(*blocks))


def numpy_pair_scores(cover, l):
    """One run's pair keys (ascending) and Jaccard scores, as the package
    scored them before its kernel did: the node-major rows of the cover's
    communities of two or more, built with numpy, counted by
    :func:`numpy_pair_counts` and scored inter / (|X| + |Y| - inter)."""
    cover = filter_singletons(cover)
    by_node = np.argsort(cover.members, kind="stable")
    labels = np.repeat(np.arange(len(cover)), cover.sizes())[by_node]
    indptr = np.zeros(l + 1, dtype=np.int64)
    np.cumsum(np.bincount(cover.members, minlength=l), out=indptr[1:])
    keys, inter = numpy_pair_counts(indptr, labels, cover.indptr, cover.members)
    sizes = np.diff(indptr)
    i, j = np.divmod(keys, l)
    return keys, inter / (sizes[i] + sizes[j] - inter)


def graph_edges(memberships, user_index, rho) -> dict[tuple[str, str], float]:
    """``{(a, b): weight}`` of the list graph: every sharing pair weighted
    by its own call of ``overlap_lpv``, kept when >= rho."""
    n = len(user_index)
    edges = {}
    for (a, b), k in intersection_counts(user_index).items():
        weight = overlap_lpv(len(memberships[a]), len(memberships[b]), k, n)
        if weight >= rho:
            edges[(a, b)] = weight
    return edges


def derive_members(community, memberships, mu) -> dict[str, float]:
    """``{user: weight}``: each user's lists in the community counted in a
    dict, one list at a time, as a fraction of the community's lists."""
    lists = sorted(set(community))
    counts: dict[str, int] = {}
    for lid in lists:
        for uid in memberships[lid]:
            counts[uid] = counts.get(uid, 0) + 1
    return {uid: count / len(lists) for uid, count in counts.items()
            if count / len(lists) >= mu}


def evaluate(communities, truth, core) -> list[EvalRow]:
    """Eval rows from ``(community id, user ids)`` pairs: every category
    against every community, each member set intersected with the core
    as a frozenset, the best kept in a loop by strictly greater
    (precision, recall)."""
    core = frozenset(core)
    restricted = sorted(((cid, frozenset(members) & core)
                         for cid, members in communities), key=lambda pair: pair[0])
    rows = []
    for category in sorted(truth.categories):
        members = truth.categories[category]
        if not members:
            warnings.warn(f"skipping empty ground-truth category {category!r}")
            continue
        best = None
        for cid, community in restricted:
            if not community:
                continue
            hits = len(community & members)
            precision = hits / len(community)
            recall = hits / len(members)
            if best is None or (precision, recall) > (best[0], best[1]):
                best = (precision, recall, cid)
        if best is None:
            rows.append(EvalRow(category, None, 0.0, 0.0, 0.0))
            continue
        precision, recall, cid = best
        rows.append(EvalRow(category, cid, precision, recall,
                            f1_score(precision, recall)))
    rows.sort(key=lambda r: (-r.precision, -r.recall, r.category))
    return rows


def edge_map(graph) -> dict[tuple[str, str], int]:
    """``{(a, b): weight}`` with a < b for every edge of a ListGraph, in
    micro-units."""
    keys, w = graph.edge_pairs()
    l = len(graph.nodes)
    return {(graph.nodes[k // l], graph.nodes[k % l]): x
            for k, x in zip(keys.tolist(), w.tolist())}


def pair_entries(order, values) -> dict[int, int]:
    """``{i * l + j: value}`` over the sorted ``order`` of ``l`` ids from a
    ``{(a, b): value}`` dict whose pairs may come in either endpoint order."""
    index = {node: i for i, node in enumerate(order)}
    l = len(order)
    return {min(index[a], index[b]) * l + max(index[a], index[b]): v
            for (a, b), v in values.items()}


def graph_from_edges(nodes, edges) -> ListGraph:
    """ListGraph over ``nodes`` (any order) from a ``{(a, b): weight}``
    dict of micro-units whose pairs may come in either endpoint order."""
    nodes = sorted(nodes)
    entries = pair_entries(nodes, edges)
    keys = sorted(entries)
    return ListGraph.from_pairs(nodes, keys, np.array([entries[k] for k in keys],
                                                      dtype=np.int64))


def matrix_from_pairs(order, scores, r) -> ConsensusMatrix:
    """ConsensusMatrix over ``order`` (any order) from a ``{(a, b): score}``
    dict of micro-units whose pairs may come in either endpoint order."""
    order = tuple(sorted(order))
    entries = pair_entries(order, scores)
    keys = sorted(entries)
    return ConsensusMatrix(order, np.array(keys, dtype=np.int64),
                           np.array([entries[k] for k in keys], dtype=np.int64), r)


def read_pairs(path, header=0) -> tuple[list[str], dict[tuple[str, str], float]]:
    """The first ``header`` lines of a pair file and ``{(a, b): value}``
    with a < b of its ``a<TAB>b<TAB>value`` rows, one line at a time into a
    dict; a repeated pair or a self-pair fails."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows: dict[tuple[str, str], float] = {}
    for line in lines[header:]:
        a, b, text = line.split("\t")
        pair = (min(a, b), max(a, b))
        assert a != b and pair not in rows, line
        rows[pair] = float(text)
    return lines[:header], rows


def micro(value: float) -> int:
    """The micro-units of a double: ``value`` times 10**6 rounded, half to
    even, as an exact rational, which is what its 6-decimal string reads."""
    return round(Fraction(value) * 10**6)


def pair_rows_text(rows) -> str:
    """The ``a<TAB>b<TAB>value`` lines of ``{(a, b): value}`` (a < b, values
    in micro-units) in sorted pair order, each value k formatted on its own
    as the exact decimal k / 10**6 to 6 decimals."""
    return "".join(f"{a}\t{b}\t{Decimal(v).scaleb(-6):.6f}\n"
                   for (a, b), v in sorted(rows.items()))


def pair_rows(nodes, keys, text, which) -> str:
    """The rows ``listgraph.write_pair_rows`` writes, joined one f-string
    at a time, as the package joined them before its kernel did."""
    l = len(nodes)
    return "".join(f"{nodes[k // l]}\t{nodes[k % l]}\t{text[t]}\n"
                   for k, t in zip(list(keys), list(which)))


def entry_map(matrix) -> dict[tuple[str, str], int]:
    """``{(a, b): score}`` with a < b for every stored matrix entry, in
    micro-units."""
    i, j = np.divmod(matrix.keys, len(matrix.order))
    return {(matrix.order[a], matrix.order[b]): v
            for a, b, v in zip(i.tolist(), j.tolist(), matrix.values.tolist())}


def same_matrix(x, y) -> bool:
    """Same order, run count, keys and values, of the same dtypes."""
    return (x.order == y.order and x.r == y.r
            and np.array_equal(x.keys, y.keys) and x.values.dtype == y.values.dtype
            and np.array_equal(x.values, y.values))


def same_graph(x, y) -> bool:
    """Same nodes and CSR arrays, of the same dtypes."""
    return (x.nodes == y.nodes
            and all(getattr(x, name).dtype == getattr(y, name).dtype
                    and np.array_equal(getattr(x, name), getattr(y, name))
                    for name in ("indptr", "indices", "weights")))


def component_graphs():
    """Graphs whose components the kernel walks in turn: many small
    components, interleaved in node order with isolated nodes; one
    component with isolated nodes beside it; one component alone; and
    components of 48 and 49 nodes, on either side of the kernel's switch
    from an insertion sort to qsort.  Weights are micro-units up to 10**6."""
    rng = np.random.Generator(np.random.PCG64(12))
    nodes = [f"c{i:03d}" for i in range(120)]
    order = rng.permutation(len(nodes))
    edges, at = {}, 0
    for size in rng.integers(2, 9, size=14).tolist():
        part = sorted(order[at:at + size].tolist())
        at += size
        for a, b in zip(part, part[1:]):  # a path keeps the part connected
            edges[(nodes[a], nodes[b])] = int(rng.choice([500_000, 10**6, 2 * 10**6]))
        for a, b in rng.choice(part, size=(size, 2)).tolist():
            if a != b:
                edges[(nodes[min(a, b)], nodes[max(a, b)])] = int(rng.integers(10**6))
    many = graph_from_edges(nodes, edges)
    single = {(nodes[a], nodes[a + 1]): 10**6 for a in range(39)}
    single.update({(nodes[min(a, b)], nodes[max(a, b)]): int(rng.integers(10**6))
                   for a, b in rng.choice(40, size=(60, 2)).tolist() if a != b})
    sides = {}
    for part in (order[:48], order[48:97]):
        part = sorted(part.tolist())
        sides.update({(nodes[a], nodes[b]): int(rng.integers(10**6))
                      for a, b in zip(part, part[1:] + part[:1])})
    return [many, graph_from_edges(nodes[:50], single), graph_from_edges(nodes[:40], single),
            graph_from_edges(nodes, sides)]


def csr_fill(nodes, edges):
    """CSR (offsets, neighbours, weights) filled from the sorted index-pair
    tuples of a ``{(a, b): weight}`` dict."""
    nodes = sorted(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    deg = np.zeros(n, dtype=np.int64)
    edge_items = sorted((min(index[a], index[b]), max(index[a], index[b]), w)
                        for (a, b), w in edges.items())
    for i, j, _ in edge_items:
        deg[i] += 1
        deg[j] += 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    nbr = np.zeros(offsets[-1], dtype=np.int64)
    wgt = np.zeros(offsets[-1], dtype=np.int64)
    fill = offsets[:-1].copy()
    for i, j, w in edge_items:
        nbr[fill[i]] = j
        wgt[fill[i]] = w
        fill[i] += 1
        nbr[fill[j]] = i
        wgt[fill[j]] = w
        fill[j] += 1
    return offsets, nbr, wgt


def numpy_csr(n, i, j, w):
    """CSR (offsets, neighbours, weights) of ``n`` nodes from distinct pairs
    ``i < j`` in ascending (i, j) order, laid out in numpy as
    ``ListGraph.from_pairs`` did before the kernel's ``csr``: row ``a`` is
    its pairs ``(b, a)`` followed by its pairs ``(a, c)``, so one stable
    sort by row of both directions orders it."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    perm = np.argsort(np.concatenate([j, i]), kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=n) + np.bincount(j, minlength=n), out=offsets[1:])
    return offsets, np.concatenate([i, j])[perm], np.concatenate([w, w])[perm]


def detect(nodes, edges, config) -> tuple[frozenset[str], ...]:
    """Label propagation over a dict graph of micro-unit weights, one node
    at a time in visit order, one ``np.unique`` per update and each label's
    vote an exact ``int64`` sum of its weights.

    The draws are the scalar ``derive_seed``: in iteration ``it`` nodes go in
    ascending (derive_seed(derive_seed(seed, 2 it), node), node) order, and
    the neighbour at CSR position p gives the label in slot
    derive_seed(derive_seed(seed, 2 it + 1), p) mod its memory length.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    offsets, nbr, wgt = csr_fill(nodes, edges)
    deg = np.diff(offsets)

    active = np.flatnonzero(deg > 0).tolist()
    iterations = config.iterations
    mem = np.full((n, iterations + 1), -1, dtype=np.int64)
    mem[:, 0] = np.arange(n)
    mem_len = np.ones(n, dtype=np.int64)

    for it in range(1, iterations + 1):
        visit = derive_seed(config.seed, 2 * it)
        draw = derive_seed(config.seed, 2 * it + 1)
        for u in sorted(active, key=lambda u: (derive_seed(visit, u), u)):
            lo, hi = offsets[u], offsets[u + 1]
            nbrs = nbr[lo:hi]
            slots = [derive_seed(draw, p) % int(mem_len[v])
                     for p, v in zip(range(lo, hi), nbrs.tolist())]
            labels = mem[nbrs, slots]
            uniq, inv = np.unique(labels, return_inverse=True)
            votes = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(votes, inv, wgt[lo:hi])
            winner = uniq[int(np.argmax(votes))]  # first max = lowest label id
            mem[u, mem_len[u]] = winner
            mem_len[u] += 1

    members: dict[int, set[str]] = {}
    memory_size = iterations + 1
    for u in active:
        uniq, counts = np.unique(mem[u, :memory_size], return_counts=True)
        keep = set(uniq[counts / memory_size >= config.overlap_threshold].tolist())
        keep.add(int(uniq[int(np.argmax(counts))]))
        for label in keep:
            members.setdefault(label, set()).add(nodes[u])

    return community_set(c for c in members.values() if len(c) >= 2)


def memory_cover(nodes, active, mem, overlap_threshold) -> Cover:
    """The cover of the memory rows ``mem`` of the ``active`` node
    positions, with numpy calls over all rows at once: label counts from one
    ``np.unique`` over (row, label) codes, the most frequent label by a
    ``np.lexsort``, and the groups put in canonical order by
    ``Cover.from_groups``."""
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


def community_set(sets) -> tuple[frozenset[str], ...]:
    """The canonical id cover: duplicate sets collapse, then (size desc,
    members lex asc) with the ids compared as strings."""
    uniq = {frozenset(s) for s in sets}
    return tuple(sorted(uniq, key=lambda c: (-len(c), tuple(sorted(c)))))


def cover_sets(cover) -> tuple[frozenset[str], ...]:
    """A cover's communities as id frozensets, in the cover's own order."""
    return tuple(map(frozenset, cover))


def community_pair_scores(base, order):
    """One frozenset cover's pair keys (ascending) and Jaccard scores: each
    community's ids looked up in a dict and its pairs from its own
    ``np.triu_indices``; singletons ignored."""
    index = {node: i for i, node in enumerate(order)}
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
            raise ValidationError(f"node {exc.args[0]!r} outside the order") from exc
        iu, ju = np.triu_indices(len(idx), 1)
        key_arrays.append(idx[iu] * l + idx[ju])
        member_arrays.append(idx)
    if not key_arrays:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    keys, inter = np.unique(np.concatenate(key_arrays), return_counts=True)
    labels = np.bincount(np.concatenate(member_arrays), minlength=l)
    i, j = np.divmod(keys, l)
    return keys, inter / (labels[i] + labels[j] - inter)


def accumulate(order, keys, sums, base):
    """``(keys, sums)`` with one frozenset cover over ``order`` folded in,
    key by key, with :func:`community_pair_scores`."""
    pairs, scores = community_pair_scores(base, order)
    entries = dict(zip(keys.tolist(), sums.tolist()))
    for k, v in zip(pairs.tolist(), scores.tolist()):
        entries[k] = entries[k] + v if k in entries else v
    return (np.array(sorted(entries), dtype=np.int64),
            np.array([entries[k] for k in sorted(entries)], dtype=np.float64))


def pair_scores(base, index, l):
    """One run's co-assigned pair keys and Jaccard scores, through a g x g
    table over the distinct label sets."""
    labels: dict[int, list[int]] = {}
    for cid, community in enumerate(base):
        if len(community) < 2:
            continue
        for node in community:
            labels.setdefault(index[node], []).append(cid)
    if not labels:
        return [], []

    group_of: dict[int, int] = {}
    group_sets: list[frozenset[int]] = []
    group_key: dict[frozenset[int], int] = {}
    for i, lab in labels.items():
        fs = frozenset(lab)
        gid = group_key.get(fs)
        if gid is None:
            gid = len(group_sets)
            group_key[fs] = gid
            group_sets.append(fs)
        group_of[i] = gid

    key_arrays = []
    for community in base:
        if len(community) < 2:
            continue
        idx = np.sort(np.fromiter((index[node] for node in community),
                                  dtype=np.int64, count=len(community)))
        iu, ju = np.triu_indices(len(idx), 1)
        key_arrays.append(idx[iu] * l + idx[ju])
    keys = np.unique(np.concatenate(key_arrays))

    gids = np.full(l, -1, dtype=np.int64)
    for i, gid in group_of.items():
        gids[i] = gid
    g = len(group_sets)
    table = np.zeros((g, g))
    for a in range(g):
        for b in range(a, g):
            s = label_jaccard(group_sets[a], group_sets[b])
            table[a, b] = s
            table[b, a] = s
    scores = table[gids[keys // l], gids[keys % l]]
    nz = scores > 0.0
    return keys[nz].tolist(), scores[nz].tolist()


def ensemble_fold(order, covers) -> dict[int, float]:
    """Normalised consensus entries: every run folded into one dict in run
    order, then each entry scaled by 1/r."""
    order = sorted(order)
    index = {node: i for i, node in enumerate(order)}
    entries: dict[int, float] = {}
    for base in covers:
        keys, scores = pair_scores(base, index, len(order))
        for k, s in zip(keys, scores):
            entries[k] = entries.get(k, 0.0) + s
    inv_r = 1.0 / len(covers)
    for k in entries:
        entries[k] *= inv_r
    return entries


def mean_pair_score(indices, entries, l) -> float:
    """Mean over ``combinations(indices, 2)`` of a ``{key: score}`` dict of
    micro-units, summed one pair at a time: the exact mean as a
    :class:`Fraction`, rounded once to a double."""
    total = 0
    for i, j in combinations(indices, 2):
        if i > j:
            i, j = j, i
        total += entries.get(i * l + j, 0)
    count = len(indices) * (len(indices) - 1) // 2
    return float(Fraction(total, count * 10**6))


def rank_communities(cs, matrix):
    """``(community, raw)`` for each community of two or more of a frozenset
    cover, sorted by corrected stability descending, then size descending,
    then sorted members; raw from :func:`mean_pair_score`."""
    l = len(matrix.order)
    index = {node: i for i, node in enumerate(matrix.order)}
    entries = dict(zip(matrix.keys.tolist(), matrix.values.tolist()))
    expected = float(Fraction(sum(entries.values()), math.comb(l, 2) * 10**6))
    rows = []
    for community in cs:
        if len(community) < 2:
            continue
        raw = mean_pair_score(sorted(index[node] for node in community), entries, l)
        if expected >= 1.0 - 1e-9:
            corrected = 0.0 if raw <= expected else 1.0
        else:
            corrected = (raw - expected) / (1.0 - expected)
        rows.append((community, raw, corrected))
    rows.sort(key=lambda row: (-row[2], -len(row[0]), tuple(sorted(row[0]))))
    return [(community, raw) for community, raw, _ in rows]


def expected_stability(size, entries, l) -> float:
    """Mean of :func:`mean_pair_score` over every ``size``-subset of the
    ``l`` positions, by exhaustive enumeration."""
    means = [mean_pair_score(subset, entries, l)
             for subset in combinations(range(l), size)]
    return sum(means) / len(means)


def label_community(community, vectors, top_k, background=None):
    """Every term of the centroid and the ``{term: weight}`` background
    scored, then fully sorted by (-score, term)."""
    members = sorted(set(community))
    if background is None:
        background = background_vector(vectors)
    centroid = {}
    for lid in members:
        for term, w in vectors[lid].items():
            centroid[term] = centroid.get(term, 0.0) + w
    c = len(members)
    scores = {term: centroid.get(term, 0.0) / c - background.get(term, 0.0)
              for term in set(centroid) | set(background)}
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]
