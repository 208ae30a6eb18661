import importlib
import math
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.corpus import ListRecord, MembershipCorpus
from listcom.errors import ValidationError
from listcom.listgraph import (ListGraph, build_list_graph,
                               load_graph, overlap_lpv, overlap_pvalue,
                               read_pair_rows, save_graph)
from reference import (edge_map, graph_edges, graph_from_edges, id_sets,
                       intersection_counts, micro, numpy_pair_counts, pair_rows,
                       pair_rows_text, random_corpus, same_graph)


def exact_pvalue(size_x, size_y, k, n):
    """Oracle: exact rational tail sum with integer binomials."""
    num = sum(
        comb(size_x, j) * comb(n - size_x, size_y - j)
        for j in range(k, min(size_x, size_y) + 1)
        if size_y - j <= n - size_x
    )
    return num / comb(n, size_y)


def test_pvalue_zero_intersection_is_one():
    assert overlap_pvalue(5, 4, 0, 10) == 1.0
    assert overlap_lpv(5, 4, 0, 10) == 0.0


def test_certain_overlap_weighs_plus_zero(tmp_path):
    # Two lists that both hold both users of a 2-user corpus share them
    # with probability 1: the weight is 0.0, never -0.0, and rho = 0 keeps
    # the edge, held as 0 micro-units and written as 0.000000.
    assert math.copysign(1.0, overlap_lpv(2, 2, 2, 2)) == 1.0
    corpus = MembershipCorpus.build([ListRecord("L1", "", ""), ListRecord("L2", "", "")],
                                    {"L1": ["u1", "u2"], "L2": ["u1", "u2"]})
    graph = build_list_graph(corpus, 0.0)
    assert graph.edge_list() == [("L1", "L2", 0.0)]
    assert all(math.copysign(1.0, w) == 1.0 for _, _, w in graph.edge_list())
    assert graph.weights.tolist() == [0, 0]
    save_graph(graph, tmp_path / "g.tsv", tmp_path / "g.nodes")
    assert (tmp_path / "g.tsv").read_text("utf-8") == "L1\tL2\t0.000000\n"


def test_pvalue_example_10_5_4_3():
    assert overlap_pvalue(5, 4, 3, 10) == pytest.approx(55 / 210, rel=1e-12)
    assert overlap_lpv(5, 4, 3, 10) == pytest.approx(-math.log10(55 / 210), rel=1e-12)


def test_pvalue_example_4_2_2_1():
    assert overlap_pvalue(2, 2, 1, 4) == pytest.approx(5 / 6, rel=1e-12)


def test_identical_lists_highly_significant():
    # two identical size-5 lists in a 100-user universe
    pv = overlap_pvalue(5, 5, 5, 100)
    assert pv == pytest.approx(1 / comb(100, 5), rel=1e-12)
    assert overlap_lpv(5, 5, 5, 100) == pytest.approx(7.8767, abs=1e-3)
    assert overlap_lpv(5, 5, 5, 100) > 6.0


def test_lpv_six_means_pvalue_1e6():
    # the rho=6 cutoff corresponds to a tail probability of 1e-6
    for sx, sy, k, n in [(12, 12, 7, 500), (10, 10, 6, 200), (20, 18, 9, 1000)]:
        lpv = overlap_lpv(sx, sy, k, n)
        pv = overlap_pvalue(sx, sy, k, n)
        assert (lpv >= 6.0) == (pv <= 1e-6 * (1 + 1e-9))


def test_lpv_survives_pvalue_underflow():
    # overlap so extreme the probability underflows a double
    lpv = overlap_lpv(500, 500, 500, 100_000)
    assert math.isfinite(lpv)
    assert lpv > 320  # beyond -log10(double tiny)


def test_precondition_violations():
    with pytest.raises(ValidationError):
        overlap_pvalue(5, 4, 5, 10)  # intersection > min
    with pytest.raises(ValidationError):
        overlap_pvalue(11, 4, 1, 10)  # size > n
    with pytest.raises(ValidationError):
        overlap_pvalue(2, 2, 1, 0)  # empty universe
    with pytest.raises(ValidationError):
        overlap_pvalue(2, 2, -1, 10)


feasible = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=1, max_value=n),
        st.integers(min_value=1, max_value=n),
    )
).flatmap(
    lambda t: st.tuples(
        st.just(t[0]), st.just(t[1]), st.just(t[2]),
        st.integers(min_value=0, max_value=min(t[1], t[2])),
    )
)


@given(feasible)
@settings(max_examples=300, deadline=None)
def test_pvalue_symmetry(args):
    n, sx, sy, k = args
    a = overlap_pvalue(sx, sy, k, n)
    b = overlap_pvalue(sy, sx, k, n)
    assert a == pytest.approx(b, rel=1e-12)


@given(feasible)
@settings(max_examples=300, deadline=None)
def test_pvalue_matches_exact_enumeration(args):
    n, sx, sy, k = args
    assert overlap_pvalue(sx, sy, k, n) == pytest.approx(
        exact_pvalue(sx, sy, k, n), rel=1e-12)


def test_lpv_matches_the_exact_tail_at_bench_sizes():
    # The enumeration above stops at n = 30.  Here n runs from 10**2 to
    # 10**6 with lists of up to 40 users, and the oracle is the tail as one
    # big-integer ratio, its log10 taken of the integers.
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(400):
        n = int(10 ** rng.uniform(2, 6))
        sx, sy = (int(s) for s in rng.integers(1, 41, size=2))
        k = int(rng.integers(0, min(sx, sy) + 1))
        num = sum(comb(sx, j) * comb(n - sx, sy - j) for j in range(k, min(sx, sy) + 1))
        exact = math.log10(comb(n, sy)) - math.log10(num) if k else 0.0
        assert abs(overlap_lpv(sx, sy, k, n) - exact) <= 1e-8, (sx, sy, k, n)


@given(feasible)
@settings(max_examples=200, deadline=None)
def test_pvalue_monotone_in_intersection(args):
    n, sx, sy, k = args
    if k == 0:
        return
    assert overlap_pvalue(sx, sy, k, n) <= overlap_pvalue(sx, sy, k - 1, n) * (1 + 1e-12)
    assert overlap_lpv(sx, sy, k, n) >= overlap_lpv(sx, sy, k - 1, n) - 1e-12


def corpus_from(memberships):
    return MembershipCorpus.build(
        [ListRecord(lid, "", "") for lid in memberships], memberships)


def test_disjoint_lists_never_linked():
    corpus = corpus_from({"a": {"u1", "u2"}, "b": {"u3", "u4"}})
    graph = build_list_graph(corpus, 0.0)
    assert graph.edge_count() == 0
    assert set(graph.nodes) == {"a", "b"}


def test_identical_lists_edge_present_at_rho_6():
    members = {f"u{i}" for i in range(5)}
    extras = {f"l{j}": {f"w{j}a", f"w{j}b"} for j in range(45)}
    memberships = {"a": members, "b": set(members), **extras}
    corpus = corpus_from(memberships)
    assert corpus.n == 95
    graph = build_list_graph(corpus, 6.0)
    assert edge_map(graph)[("a", "b")] > 6 * 10**6


def test_isolated_nodes_retained():
    corpus = corpus_from({"a": {"u1", "u2"}, "b": {"u1", "u2"}, "c": {"zz"}})
    graph = build_list_graph(corpus, 0.0)
    assert "c" in graph.nodes
    assert np.diff(graph.indptr)[graph.nodes.index("c")] == 0


def test_edge_weights_match_scalar_op():
    rng = np.random.Generator(np.random.PCG64(5))
    users = [f"u{i}" for i in range(40)]
    memberships = {
        f"l{j}": set(rng.choice(users, size=int(rng.integers(3, 10)),
                                replace=False).tolist())
        for j in range(12)
    }
    corpus = corpus_from(memberships)
    graph = build_list_graph(corpus, 0.0)
    assert graph.edge_count()
    memberships, _ = id_sets(corpus)
    for a, b, w in graph.edge_list():
        k = len(memberships[a] & memberships[b])
        expected = overlap_lpv(len(memberships[a]),
                               len(memberships[b]), k, corpus.n)
        assert w == micro(expected) / 10**6


@pytest.mark.parametrize("block", [1, 7, 1 << 18])
@pytest.mark.parametrize("seed", range(10))
def test_graph_matches_reference_counts_and_weights(seed, block, monkeypatch, tmp_path):
    # The kernel's counts equal the numpy block counter's at blocks of one
    # list, of a few pair instances and of the whole corpus, each weight is
    # the reference's as its 6-decimal string reads, and graph.tsv, written
    # TEXT_BLOCK rows at a time with the same sizes, equals the reference's
    # rows.
    listgraph = importlib.import_module("listcom.listgraph")
    monkeypatch.setattr(listgraph, "TEXT_BLOCK", block)
    corpus = random_corpus(np.random.Generator(np.random.PCG64(seed)))
    memberships, user_index = id_sets(corpus)
    arrays = (corpus.indptr, corpus.users, corpus.user_indptr, corpus.user_lists)
    keys, counts = listgraph.pair_counts(*arrays)
    assert np.all(np.diff(keys) > 0)
    ids, l = corpus.list_ids, len(corpus.list_ids)
    assert {(ids[k // l], ids[k % l]): c for k, c in zip(keys.tolist(), counts.tolist())
            } == intersection_counts(user_index)
    want_keys, want_counts = numpy_pair_counts(*arrays, block=block)
    assert keys.tolist() == want_keys.tolist() and counts.tolist() == want_counts.tolist()
    for rho in (0.0, 1.5):
        graph = build_list_graph(corpus, rho)
        expected = graph_edges(memberships, user_index, rho)
        expected = {e: micro(w) for e, w in expected.items()}
        assert edge_map(graph) == expected
        save_graph(graph, tmp_path / "g.tsv", tmp_path / "g.nodes")
        assert (tmp_path / "g.tsv").read_text("utf-8") == pair_rows_text(expected)


def csr_of(cells):
    """The CSR of a boolean row x column table, each row ascending, and its
    transpose, as ``int32`` arrays."""
    rows, cols = np.nonzero(cells)
    t_cols, t_rows = np.nonzero(cells.T)
    return [a.astype(np.int32) for a in (
        np.searchsorted(rows, np.arange(cells.shape[0] + 1)), cols,
        np.searchsorted(t_cols, np.arange(cells.shape[1] + 1)), t_rows)]


def test_pair_counts_equals_the_numpy_counter():
    # Empty rows and empty columns, a single row, no columns at all, and a
    # column that every row shares.
    rng = np.random.Generator(np.random.PCG64(41))
    tables = [rng.random((int(rng.integers(1, 40)), int(rng.integers(0, 30))))
              < float(rng.choice([0.0, 0.05, 0.2, 0.6])) for _ in range(80)]
    shared = rng.random((25, 7)) < 0.3
    shared[:, 6] = True
    tables += [rng.random((1, 5)) < 0.8, shared]
    listgraph = importlib.import_module("listcom.listgraph")
    for cells in tables:
        arrays = csr_of(cells)
        keys, counts = listgraph.pair_counts(*arrays)
        want_keys, want_counts = numpy_pair_counts(*arrays)
        assert keys.dtype == counts.dtype == np.int64
        assert keys.tolist() == want_keys.tolist()
        assert counts.tolist() == want_counts.tolist()
    assert len(keys) == 25 * 24 // 2 and counts.min() >= 1


def test_intersection_count_memory_follows_the_block():
    # 60 lists that all hold the same 100 users: 100 * C(60, 2) = 177,000
    # pair instances over 1,770 pairs.  The kernel counts them with 8 l
    # bytes of malloc'd scratch, which tracemalloc does not see, and fills
    # arrays of the exact size; the bound is that of the numpy block
    # counter at blocks of 4,096 instances.
    listgraph = importlib.import_module("listcom.listgraph")
    corpus = corpus_from({f"l{j:02d}": {f"u{k:03d}" for k in range(100)}
                          for j in range(60)})
    tracemalloc.start()
    try:
        keys, counts = listgraph.pair_counts(corpus.indptr, corpus.users,
                                             corpus.user_indptr, corpus.user_lists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 1_770 and np.all(counts == 100)
    assert peak <= 16 * 8 * (1 << 12) + 2 * (keys.nbytes + counts.nbytes)


def test_the_kernel_counter_refuses_a_short_output():
    # Three rows that share a column make three pairs; with room for two,
    # the kernel stops and writes nothing past them.
    kernel = importlib.import_module("listcom.kernel")
    arrays = [np.array(a, dtype=np.int32) for a in ([0, 1, 2, 3], [0, 0, 0], [0, 3],
                                                    [0, 1, 2])]
    keys = np.full(3, -7, dtype=np.int64)
    counts = np.full(3, -7, dtype=np.int64)
    lib = kernel.load()
    status = lib.pair_counts(3, *(a.ctypes.data for a in arrays), 2,
                             keys.ctypes.data, counts.ctypes.data)
    assert status == -2 and keys[2] == counts[2] == -7
    assert lib.pair_counts(3, *(a.ctypes.data for a in arrays), 0, None, None) == 3


def test_pair_counts_refuses_rows_that_do_not_index_each_other():
    # Three lists of one user each, and each defect the kernel would index
    # past an array for; int64 values that an int32 cast would wrap too.
    listgraph = importlib.import_module("listcom.listgraph")
    good = [[0, 1, 2, 3], [0, 0, 0], [0, 3], [0, 1, 2]]
    listgraph.pair_counts(*good)
    for at, bad in ((1, [0, 0, 1]), (1, [0, -1, 0]), (3, [0, 1, 3]),
                    (3, np.array([0, 1, 2**32], dtype=np.int64)), (0, [0, 1, 2, 4]),
                    (0, [1, 1, 2, 3]), (2, [0, 2]), (2, [0, 3, 1]), (1, [0.0, 0.0, 0.0]),
                    (0, [[0, 1, 2, 3]])):
        arrays = list(good)
        arrays[at] = bad
        with pytest.raises(ValidationError, match="pair counts need"):
            listgraph.pair_counts(*arrays)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_sparsification_monotone(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    users = [f"u{i}" for i in range(30)]
    memberships = {
        f"l{j}": set(rng.choice(users, size=int(rng.integers(2, 9)),
                                replace=False).tolist())
        for j in range(8)
    }
    corpus = corpus_from(memberships)
    rho_lo = float(rng.random() * 2)
    rho_hi = rho_lo + float(rng.random() * 3)
    lo = build_list_graph(corpus, rho_lo)
    hi = build_list_graph(corpus, rho_hi)
    assert set(edge_map(hi)) <= set(edge_map(lo))
    assert hi.nodes == lo.nodes
    assert np.all(np.diff(hi.indptr) <= np.diff(lo.indptr))


def test_graph_round_trip_preserves_isolated_nodes(tmp_path):
    corpus = corpus_from({"a": {"u1", "u2", "u3"}, "b": {"u1", "u2", "u3"},
                          "c": {"solo"}})
    graph = build_list_graph(corpus, 0.0)
    save_graph(graph, tmp_path / "g.tsv", tmp_path / "g.nodes")
    reloaded = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    assert reloaded.nodes == graph.nodes
    assert set(edge_map(reloaded)) == set(edge_map(graph))
    # The built graph holds the micro-units of its written weights, so it
    # equals its reload.
    assert same_graph(reloaded, graph)


@pytest.mark.parametrize("block", [1 << 16, 2])
def test_load_graph_reads_the_weights_as_written(tmp_path, monkeypatch, block):
    # The reload holds each weight in the micro-units of its value, rounded
    # to 6 decimals half to even; a weight that rounds to 0 stays an edge,
    # as load_graph keeps it, and -0.0 reads as 0.  Written again, every
    # weight is its 6-decimal string.
    monkeypatch.setattr(importlib.import_module("listcom.listgraph"),
                        "TEXT_BLOCK", block)
    weights = {("a", "b"): 6.1234565, ("a", "c"): 2.5e-7, ("a", "e"): -0.0,
               ("b", "c"): 1 / 3, ("b", "d"): 0.0, ("c", "d"): 1e6 + 5e-7,
               ("d", "e"): 7.0000005}
    (tmp_path / "g.tsv").write_text("".join(f"{a}\t{b}\t{w!r}\n"
                                            for (a, b), w in weights.items()), encoding="utf-8")
    (tmp_path / "g.nodes").write_text("a\nb\nc\nd\ne\nf\n", encoding="utf-8")
    reloaded = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    written = graph_from_edges("abcdef", {e: micro(w) for e, w in weights.items()})
    assert same_graph(reloaded, written)
    assert not reloaded.weights.flags.writeable
    assert reloaded.nodes == ("a", "b", "c", "d", "e", "f")
    assert edge_map(reloaded)[("a", "c")] == 0 == edge_map(reloaded)[("a", "e")]
    assert save_graph(reloaded, tmp_path / "h.tsv", tmp_path / "h.nodes") is None
    text = (tmp_path / "h.tsv").read_text("utf-8")
    assert "a\te\t0.000000\n" in text and "b\td\t0.000000\n" in text
    assert "c\td\t1000000.000001\n" in text and "a\tb\t6.123456\n" in text
    assert same_graph(load_graph(tmp_path / "h.tsv", tmp_path / "h.nodes"), reloaded)


def test_graph_arrays_sorted_per_row_and_symmetric():
    corpus = corpus_from({"c": {"u1", "u2", "u3"}, "a": {"u1", "u2", "u3"},
                          "b": {"u2", "u3", "u4"}, "d": {"solo"}})
    graph = build_list_graph(corpus, 0.0)
    assert graph.nodes == ("a", "b", "c", "d")
    assert graph.indptr.tolist() == [0, 2, 4, 6, 6]
    assert graph.indices.tolist() == [1, 2, 0, 2, 0, 1]
    assert graph.weights[0] == graph.weights[2]  # a-b seen from a and from b
    assert not graph.indices.flags.writeable
    with pytest.raises(ValidationError, match="sorted"):
        ListGraph.from_pairs(("b", "a"), [0], [1], [1])
    # Negative, doubles, and an unsigned value that int64 would wrap.
    for weights in ([-1], [1.0], [0.5], np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValidationError, match="integer micro-units >= 0"):
            ListGraph.from_pairs(("a", "b"), [0], [1], weights)


@pytest.mark.parametrize("i, j", [([0, 0], [1, 1]), ([1, 0], [2, 1]), ([0, 0], [2, 1])],
                         ids=["repeated", "descending i", "descending j"])
def test_from_pairs_requires_distinct_ascending_pairs(i, j):
    # The kernel's csr lays out the CSR only from distinct pairs in
    # ascending (i, j) order.
    with pytest.raises(ValidationError, match="distinct and in ascending"):
        ListGraph.from_pairs(("a", "b", "c"), i, j, [1, 2])


@pytest.mark.parametrize("i, j, w, message", [
    ([0], [3], [1], "index the graph nodes"),
    ([-1], [1], [1], "index the graph nodes"),
    ([0], [1, 2], [1, 2], "one length"),
    ([0, 1], [1, 2], [1], "one length"),
    ([[0]], [[1]], [[1]], "one length"),
], ids=["past the nodes", "negative", "short i", "short w", "2-d"])
def test_from_pairs_refuses_pairs_outside_its_arrays(i, j, w, message):
    # The kernel would write or read past its arrays.
    with pytest.raises(ValidationError, match=message):
        ListGraph.from_pairs(("a", "b", "c"), i, j, w)


# Explicit ids keep each case's test name when its message changes.
@pytest.mark.parametrize("edges, message", [
    pytest.param("a\tb\t1.0\nb\ta\t2.0\n", r"g\.tsv:2: duplicate pair \('a', 'b'\)",
                 id="a\tb\t1.0\nb\ta\t2.0\n-" r"g\.tsv:2: duplicate edge \('a', 'b'\)"),
    pytest.param("a\ta\t1.0\n", r"g\.tsv:1: self-pair on 'a'", id="a\ta\t1.0\n-self-loop"),
    pytest.param("a\tz\t1.0\n", r"g\.tsv:1: node 'z' not in the node list",
                 id="a\tz\t1.0\n-endpoint not in node list"),
    pytest.param("a\tb\t-1.0\n", r"g\.tsv:1: value out of range \[0, 1000000000\]",
                 id="a\tb\t-1.0\n->= 0"),
])
def test_load_graph_rejects_bad_edges(tmp_path, edges, message):
    (tmp_path / "g.tsv").write_text(edges, encoding="utf-8")
    (tmp_path / "g.nodes").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")


@pytest.mark.parametrize("value", ["-1.000000", "nan", "inf", "10000000000.000001"])
def test_load_graph_refuses_a_weight_outside_0_to_10_to_the_9(tmp_path, value):
    # A double holds all 6 decimals of a weight only below 10**9; past it
    # 10000000000.000001 read back as 10**16 + 2 micro-units.
    (tmp_path / "g.tsv").write_text(f"a\tb\t1.000000\nb\tc\t{value}\n", encoding="utf-8")
    (tmp_path / "g.nodes").write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"g\.tsv:2: value out of range"):
        load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    (tmp_path / "g.tsv").write_text("a\tb\t1000000000.000000\n", encoding="utf-8")
    graph = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    assert graph.weights.tolist() == [10**15, 10**15]


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
def test_write_pair_rows_equals_the_python_rows(tmp_path, monkeypatch, block):
    # Multi-byte ids of different lengths, a zero weight, one of 15 digits
    # and an empty graph, written a few rows at a time; a reader gets each
    # weight back in micro-units.
    listgraph = importlib.import_module("listcom.listgraph")
    monkeypatch.setattr(listgraph, "TEXT_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(block))
    nodes = sorted(["a", "b b", "ä", "日本語のリスト", "z" * 40, "Ω-list", "𝄞", "0"])
    weights = {(a, b): int(rng.integers(10**7)) for a, b in
               zip(rng.choice(nodes, 12).tolist(), rng.choice(nodes, 12).tolist())
               if a < b}
    weights.update({("a", "b b"): 10**15 - 1, ("a", "ä"): 0, ("0", "a"): 10**12 + 1,
                    ("ä", "日本語のリスト"): 333_333, ("Ω-list", "𝄞"): 1})
    for edges in (weights, {}):
        graph = graph_from_edges(nodes, edges)
        i, j, w = graph.edge_pairs()
        text, which = listgraph.pair_text(w)
        with open(tmp_path / "rows.tsv", "w", encoding="utf-8", newline="\n") as fh:
            assert listgraph.write_pair_rows(fh, graph.nodes, i, j, text, which) is None
        written = (tmp_path / "rows.tsv").read_text("utf-8")
        assert written == pair_rows(graph.nodes, i, j, text, which)
        assert written == pair_rows_text(edges)
        parsed = read_pair_rows(tmp_path / "rows.tsv", graph.nodes, 10**9)[3]
        assert listgraph.micro_units(parsed).tolist() == [w for _, w in sorted(edges.items())]
    assert "a\tb b\t999999999.999999\n" in pair_rows_text(weights)


def test_write_pair_rows_refuses_rows_outside_its_nodes(tmp_path):
    listgraph = importlib.import_module("listcom.listgraph")
    with open(tmp_path / "rows.tsv", "w", encoding="utf-8") as fh:
        for i, j, which in (([0], [2], [0]), ([-1], [1], [0]), ([0], [1], [1]),
                            ([0, 0], [1], [0, 0])):
            with pytest.raises(ValidationError, match="must index"):
                listgraph.write_pair_rows(fh, ("a", "b"), np.array(i), np.array(j),
                                          ["1.000000"], np.array(which))


def test_the_kernel_row_writer_refuses_a_short_buffer():
    # Each row "a\tbb\t0.5\n" takes 9 bytes: with room for 12 the kernel
    # writes nothing past it and reports the short buffer.
    kernel = importlib.import_module("listcom.kernel")
    ids, id_ends = np.frombuffer(b"abb", dtype=np.uint8), np.array([0, 1, 3])
    texts, text_ends = np.frombuffer(b"0.5", dtype=np.uint8), np.array([0, 3])
    rows = [np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64),
            np.zeros(2, dtype=np.int64)]
    out = np.full(13, 7, dtype=np.uint8)
    lib = kernel.load()
    args = [*(a.ctypes.data for a in rows), ids.ctypes.data, id_ends.ctypes.data,
            texts.ctypes.data, text_ends.ctypes.data]
    assert lib.pair_rows(2, *args, 12, out.ctypes.data) == -2
    assert out[12] == 7
    assert lib.pair_rows(1, *args, 12, out.ctypes.data) == 9
    assert out[:9].tobytes() == b"a\tbb\t0.5\n"
