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
                               save_graph)
from reference import (edge_map, graph_edges, graph_from_edges, id_sets,
                       intersection_counts, random_corpus, same_graph)


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
    # the edge, written as 0.000000.
    assert math.copysign(1.0, overlap_lpv(2, 2, 2, 2)) == 1.0
    corpus = MembershipCorpus.build([ListRecord("L1", "", ""), ListRecord("L2", "", "")],
                                    {"L1": ["u1", "u2"], "L2": ["u1", "u2"]})
    graph = build_list_graph(corpus, 0.0)
    assert graph.edge_list() == [("L1", "L2", 0.0)]
    assert all(math.copysign(1.0, w) == 1.0 for w in graph.weights.tolist())
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
    assert edge_map(graph)[("a", "b")] > 6.0


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
        assert w == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("block", [1, 7, 1 << 18])
@pytest.mark.parametrize("seed", range(10))
def test_graph_matches_reference_counts_and_weights(seed, block, monkeypatch):
    # Blocks of one list, of a few pair instances and of the whole corpus.
    listgraph = importlib.import_module("listcom.listgraph")
    monkeypatch.setattr(listgraph, "PAIR_BLOCK", block)
    corpus = random_corpus(np.random.Generator(np.random.PCG64(seed)))
    memberships, user_index = id_sets(corpus)
    keys, counts = listgraph.pair_counts(corpus.indptr, corpus.users,
                                         corpus.user_indptr, corpus.user_lists)
    assert np.all(np.diff(keys) > 0)
    ids, l = corpus.list_ids, len(corpus.list_ids)
    assert {(ids[k // l], ids[k % l]): c for k, c in zip(keys.tolist(), counts.tolist())
            } == intersection_counts(user_index)
    for rho in (0.0, 1.5):
        graph = build_list_graph(corpus, rho)
        expected = graph_edges(memberships, user_index, rho)
        assert {e: w.hex() for e, w in edge_map(graph).items()} == {
            e: w.hex() for e, w in expected.items()}


def test_intersection_count_memory_follows_the_block(monkeypatch):
    # 60 lists that all hold the same 100 users: 100 * C(60, 2) = 177,000
    # pair instances, 43 blocks' worth, over 1,770 pairs.
    listgraph = importlib.import_module("listcom.listgraph")
    monkeypatch.setattr(listgraph, "PAIR_BLOCK", 1 << 12)
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
    assert peak <= 16 * 8 * listgraph.PAIR_BLOCK + 2 * (keys.nbytes + counts.nbytes)


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
    for key, w in edge_map(graph).items():
        assert edge_map(reloaded)[key] == pytest.approx(w, abs=5e-7)


@pytest.mark.parametrize("block", [1 << 16, 2])
def test_save_graph_returns_what_load_graph_reads(tmp_path, monkeypatch, block):
    # The returned weights are the written 6-decimal strings converted, so
    # they equal a reload bit for bit; a weight that prints as 0.000000
    # stays an edge, as load_graph keeps it.  Values are told apart by
    # their bits, so -0.0 is written as -0.000000 beside a 0.000000.
    monkeypatch.setattr(importlib.import_module("listcom.listgraph"),
                        "TEXT_BLOCK", block)
    weights = {("a", "b"): 6.1234565, ("a", "c"): 2.5e-7, ("a", "e"): -0.0,
               ("b", "c"): 1 / 3, ("b", "d"): 0.0, ("c", "d"): 1e6 + 5e-7,
               ("d", "e"): 7.0000005}
    graph = graph_from_edges("abcdef", weights)
    returned = save_graph(graph, tmp_path / "g.tsv", tmp_path / "g.nodes")
    reloaded = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    assert same_graph(returned, reloaded)
    assert not same_graph(returned, graph)
    assert not returned.weights.flags.writeable
    assert returned.nodes == ("a", "b", "c", "d", "e", "f")
    assert edge_map(returned)[("a", "c")] == 0.0
    text = (tmp_path / "g.tsv").read_text("utf-8")
    assert "a\te\t-0.000000\n" in text and "b\td\t0.000000\n" in text
    assert math.copysign(1.0, edge_map(returned)[("a", "e")]) == -1.0


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
        ListGraph.from_pairs(("b", "a"), [0], [1], [1.0])
    with pytest.raises(ValidationError, match=">= 0"):
        ListGraph.from_pairs(("a", "b"), [0], [1], [-1.0])


@pytest.mark.parametrize("i, j", [([0, 0], [1, 1]), ([1, 0], [2, 1]), ([0, 0], [2, 1])],
                         ids=["repeated", "descending i", "descending j"])
def test_from_pairs_requires_distinct_ascending_pairs(i, j):
    # One stable sort by row lays out the CSR only from distinct pairs in
    # ascending (i, j) order.
    with pytest.raises(ValidationError, match="distinct and in ascending"):
        ListGraph.from_pairs(("a", "b", "c"), i, j, [1.0, 2.0])


# Explicit ids keep each case's test name when its message changes.
@pytest.mark.parametrize("edges, message", [
    pytest.param("a\tb\t1.0\nb\ta\t2.0\n", r"g\.tsv:2: duplicate pair \('a', 'b'\)",
                 id="a\tb\t1.0\nb\ta\t2.0\n-" r"g\.tsv:2: duplicate edge \('a', 'b'\)"),
    pytest.param("a\ta\t1.0\n", r"g\.tsv:1: self-pair on 'a'", id="a\ta\t1.0\n-self-loop"),
    pytest.param("a\tz\t1.0\n", r"g\.tsv:1: node 'z' not in the node list",
                 id="a\tz\t1.0\n-endpoint not in node list"),
    ("a\tb\t-1.0\n", ">= 0"),
])
def test_load_graph_rejects_bad_edges(tmp_path, edges, message):
    (tmp_path / "g.tsv").write_text(edges, encoding="utf-8")
    (tmp_path / "g.nodes").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
