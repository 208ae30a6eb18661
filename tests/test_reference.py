"""The array code against the dict-based reference loops, compared with ==."""
import importlib
from decimal import Decimal
from itertools import combinations

import numpy as np
import pytest

from listcom.consensus import (ConsensusMatrix, accumulate,
                               consensus_graph, load_matrix, run_ensemble,
                               save_matrix)
from listcom.corpus import ListRecord, MembershipCorpus
from listcom.detect import (Cover, DetectorConfig, detect, detect_runs,
                            filter_singletons)
from listcom.labeling import Background, background_vector, label_community
from listcom.listgraph import ListGraph, build_list_graph, load_graph, save_graph
from listcom.pipeline import PipelineConfig
from listcom.seeds import derive_seed
from listcom.stability import (expected_stability, rank_communities,
                               raw_stabilities, raw_stability)
from listcom.synth import PlantedSpec, synth
import reference
from reference import (FAST, THOROUGH, component_graphs, cover_sets, graph_from_edges,
                       matrix_from_pairs, micro, same_matrix)


def planted_graph():
    spec = PlantedSpec(groups=4, users_per_group=20, lists_per_group=20,
                       size_min=5, size_max=12, noise=0.25, overlap=0.2)
    corpus, _ = synth(spec, 9)
    return build_list_graph(corpus, 3.0)


def tied_graph(weight=10**6):
    """Two dense blocks of equal-weight edges plus equal-weight bridges, so
    most votes end in ties."""
    rng = np.random.Generator(np.random.PCG64(4))
    nodes = [f"v{i:02d}" for i in range(30)]
    edges = {}
    for a, b in combinations(range(30), 2):
        same = (a < 15) == (b < 15)
        if rng.random() < (0.5 if same else 0.05):
            edges[(nodes[a], nodes[b])] = weight
    return graph_from_edges(nodes + ["v99"], edges)


def hub_graph():
    """Six hubs, each linked to all 27 nodes of four strong cliques with
    weights drawn from 0.1, 0.2, 0.3 and 0.6 in micro-units.  A hub's tally
    sums several such weights per label; as doubles, those sums would differ
    in the last bit with the order of their terms ((0.1 + 0.2) + 0.3 is not
    0.6, but (0.3 + 0.2) + 0.1 is), and as integers they do not."""
    rng = np.random.Generator(np.random.PCG64(16))
    hubs = [f"h{i}" for i in range(6)]
    edges = {}
    for name, size in zip("abcd", (12, 6, 5, 4)):
        members = [f"{name}{i:02d}" for i in range(size)]
        for x, y in combinations(members, 2):
            edges[(x, y)] = 5 * 10**6
        for member in members:
            for hub in hubs:
                edges[(hub, member)] = int(rng.choice([100_000, 200_000, 300_000, 600_000]))
    return graph_from_edges({node for pair in edges for node in pair}, edges)


def assert_same_detections(graph, config, seeds):
    """``detect_runs`` over all ``seeds`` at once, and ``detect`` once per
    seed, equal the reference run of each seed."""
    edges = reference.edge_map(graph)
    seeds = list(seeds)
    want = [reference.detect(graph.nodes, edges, config.with_seed(s)) for s in seeds]
    assert [cover_sets(cover) for cover in detect_runs(graph, config, seeds)] == want
    assert [cover_sets(detect(graph, config.with_seed(s))) for s in seeds] == want


@pytest.mark.parametrize("mode", ["fast", "thorough"])
def test_detect_matches_reference_on_planted_graph(mode):
    graph = planted_graph()
    # The extreme seeds pin the kernel's 64-bit mix to derive_seed.
    seeds = [*range(12 if mode == "fast" else 3), 2**64 - 1]
    assert_same_detections(graph, {"fast": FAST, "thorough": THOROUGH}[mode], seeds)


def test_detect_matches_reference_on_weighted_ties():
    graph = tied_graph()
    assert_same_detections(graph, FAST, range(40))
    half = ListGraph.from_pairs(graph.nodes, *graph.edge_pairs()[:2],
                                np.where(graph.edge_pairs()[0] % 2, 500_000, 10**6))
    assert_same_detections(half, DetectorConfig(FAST.iterations, 0.2),
                           range(40))


def test_detect_matches_reference_on_order_sensitive_sums():
    # Each vote is an exact integer sum, as the reference's is.  Summed as
    # doubles, the order of the terms would change winners on this graph.
    graph = hub_graph()
    assert np.diff(graph.indptr).max() > 16
    assert_same_detections(graph, DetectorConfig(15, THOROUGH.overlap_threshold),
                           range(10))


def test_detect_matches_reference_on_all_zero_weights(tmp_path):
    # Every vote is 0: the winner is the lowest collected label id.
    graph = tied_graph(weight=0)
    assert_same_detections(graph, FAST, range(40))
    # rho = 0 keeps the zero weight of two 15-user lists out of 20 users
    # that share only the 10 users any two such lists must share.
    rng = np.random.Generator(np.random.PCG64(6))
    users = [f"u{i}" for i in range(20)]
    memberships = {f"l{j:02d}": rng.choice(users, size=15, replace=False).tolist()
                   for j in range(30)}
    corpus = MembershipCorpus.build(
        [ListRecord(lid, "", "") for lid in memberships], memberships)
    save_graph(build_list_graph(corpus, 0.0),
               tmp_path / "g.tsv", tmp_path / "g.nodes")
    loaded = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    assert (loaded.weights == 0).any()
    assert_same_detections(loaded, FAST, range(10))
    # tau = 0 keeps every consensus entry as an edge.
    matrix = run_ensemble(loaded, PipelineConfig(master_seed=1, runs=4))
    consensus = consensus_graph(matrix, 0.0)
    assert consensus.edge_count() == len(matrix.keys)
    assert_same_detections(consensus, THOROUGH, range(5))


def test_detect_matches_reference_on_components():
    # The kernel walks one component at a time; the reference walks the
    # whole graph in each iteration.
    for graph in component_graphs():
        assert_same_detections(graph, FAST, range(8))
        assert_same_detections(graph, DetectorConfig(20, THOROUGH.overlap_threshold),
                               range(3))


def test_detect_matches_reference_on_workers(tmp_path, workers):
    # The cases above, their runs on 1, 2 or 3 threads.
    for mode in ("fast", "thorough"):
        test_detect_matches_reference_on_planted_graph(mode)
    test_detect_matches_reference_on_weighted_ties()
    test_detect_matches_reference_on_order_sensitive_sums()
    test_detect_matches_reference_on_all_zero_weights(tmp_path)
    test_detect_matches_reference_on_components()


def random_nodes(rng, low=2, high=40):
    """Sorted ids whose string order is not their numeric order."""
    return sorted(f"n{i}" for i in range(int(rng.integers(low, high))))


def random_sets(rng, nodes, largest=12):
    """Id sets of one cover: none at times, singletons and repeats among
    them, in no particular order."""
    largest = min(largest, len(nodes))
    sets = [frozenset(rng.choice(nodes, size=int(rng.integers(1, largest + 1)),
                                 replace=False).tolist())
            for _ in range(int(rng.integers(0, 9)))]
    if sets and rng.random() < 0.5:
        sets.insert(int(rng.integers(len(sets))), sets[int(rng.integers(len(sets)))])
    return sets


def test_cover_matches_frozenset_path():
    rng = np.random.Generator(np.random.PCG64(11))
    for trial in range(300):
        nodes = random_nodes(rng, 1)
        sets = random_sets(rng, nodes)
        want = reference.community_set(sets)
        cover = Cover.from_sets(nodes, sets)
        assert cover_sets(cover) == want, trial
        # The canonical order, with each community's ids ascending.
        assert cover.id_lists() == [sorted(c) for c in want], trial
        assert cover.sizes().tolist() == [len(c) for c in want], trial
        assert cover_sets(filter_singletons(cover)) == reference.community_set(
            c for c in sets if len(c) >= 2), trial


@pytest.mark.parametrize("block", [None, 1, 7])
def test_accumulate_matches_dict_fold(monkeypatch, tmp_path, block):
    # The folded matrix is then written TEXT_BLOCK rows at a time: one, a
    # few, or the default.
    if block is not None:
        monkeypatch.setattr(importlib.import_module("listcom.listgraph"),
                            "TEXT_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(12))
    for trial in range(60):
        nodes = random_nodes(rng)
        runs = [random_sets(rng, nodes) for _ in range(int(rng.integers(1, 9)))]
        keys, sums = np.empty(0, dtype=np.int64), np.empty(0)
        folded = keys, sums
        for sets in runs:
            keys, sums = accumulate(tuple(nodes), keys, sums, Cover.from_sets(nodes, sets))
            folded = reference.accumulate(nodes, *folded, reference.community_set(sets))
            # Bit for bit against the frozenset fold, run by run.
            assert np.array_equal(keys, folded[0]), trial
            assert sums.tobytes() == folded[1].tobytes(), trial
        means = sums * (1.0 / len(runs))
        want = reference.ensemble_fold(nodes, [reference.community_set(sets)
                                               for sets in runs])
        assert keys.tolist() == sorted(want), trial
        assert means.tolist() == [want[k] for k in sorted(want)], trial
        matrix = ConsensusMatrix(tuple(nodes), keys,
                                 np.array([micro(v) for v in means.tolist()], dtype=np.int64),
                                 len(runs))
        save_matrix(matrix, tmp_path / "m.tsv")
        l = len(nodes)
        rows = {(nodes[k // l], nodes[k % l]): micro(v) for k, v in want.items()}
        assert ((tmp_path / "m.tsv").read_text("utf-8")
                == f"#r={len(runs)}\n" + reference.pair_rows_text(rows)), trial


def test_run_ensemble_matches_dict_fold():
    graph = planted_graph()
    config = PipelineConfig(master_seed=7, runs=6)
    covers = [detect(graph, FAST.with_seed(derive_seed(7, i)))
              for i in range(6)]
    # The fold's scores in the micro-units of their 6-decimal strings,
    # without those that print as 0.000000.
    want = {k: micro(v) for k, v in
            reference.ensemble_fold(graph.nodes, covers).items() if micro(v) > 0}
    matrix = run_ensemble(graph, config)
    assert matrix.keys.tolist() == sorted(want)
    assert matrix.values.tolist() == [want[k] for k in sorted(want)]
    keys, sums = np.empty(0, dtype=np.int64), np.empty(0)
    for cover in covers:
        keys, sums = reference.accumulate(graph.nodes, keys, sums, cover)
    values = np.array([micro(v) for v in (sums * (1.0 / 6)).tolist()], dtype=np.int64)
    assert same_matrix(matrix, ConsensusMatrix(graph.nodes, keys[values > 0],
                                               values[values > 0], 6))


def test_consensus_graph_matches_sorted_tuple_fill():
    rng = np.random.Generator(np.random.PCG64(3))
    for trial in range(40):
        nodes = [f"n{i:02d}" for i in range(int(rng.integers(2, 30)))]
        scores = {(a, b): int(rng.integers(10**6 + 1))
                  for a, b in combinations(nodes, 2) if rng.random() < 0.3}
        matrix = matrix_from_pairs(nodes, scores, 1)
        tau = float(rng.choice([0.0, rng.random()]))
        graph = consensus_graph(matrix, tau)
        kept = {pair: v for pair, v in scores.items() if v / 10**6 >= tau}
        offsets, nbr, wgt = reference.csr_fill(nodes, kept)
        assert graph.indptr.tolist() == offsets.tolist(), trial
        assert graph.indices.tolist() == nbr.tolist(), trial
        assert graph.weights.tolist() == wgt.tolist(), trial


def test_list_graph_matches_sorted_tuple_fill():
    graph = planted_graph()
    offsets, nbr, wgt = reference.csr_fill(graph.nodes, reference.edge_map(graph))
    assert graph.indptr.tolist() == offsets.tolist()
    assert graph.indices.tolist() == nbr.tolist()
    assert graph.weights.tolist() == wgt.tolist()


def test_the_kernel_csr_equals_the_numpy_layout():
    # Random pair sets, some nodes isolated, beside no pairs, one node and
    # one pair; weights include 0 and the largest int64.
    rng = np.random.Generator(np.random.PCG64(27))
    cases = [(0, []), (1, []), (2, [(0, 1)]), (6, []), (6, [(1, 4)])]
    for _ in range(40):
        n = int(rng.integers(2, 60))
        cases.append((n, [pair for pair in combinations(range(n), 2)
                          if rng.random() < rng.choice([0.05, 0.3, 0.9])]))
    for n, pairs in cases:
        i = np.array([a for a, _ in pairs], dtype=np.int64)
        j = np.array([b for _, b in pairs], dtype=np.int64)
        w = rng.choice([0, 500_000, 333_333, 7 * 10**6, 2**63 - 1], size=len(pairs))
        graph = ListGraph.from_pairs([f"n{k:02d}" for k in range(n)], i, j, w)
        offsets, nbr, wgt = reference.numpy_csr(n, i, j, w)
        assert np.array_equal(graph.indptr, offsets), (n, pairs)
        assert np.array_equal(graph.indices, nbr), (n, pairs)
        assert np.array_equal(graph.weights, wgt), (n, pairs)
        assert graph.indices.dtype == np.int32 and graph.weights.dtype == np.int64


@pytest.mark.parametrize("values", [
    pytest.param(np.full(5, 0.25), id="all equal"),
    pytest.param(np.array([0.0, -0.0, 0.0, 1.5, -0.0]), id="-0.0 beside 0.0"),
    pytest.param(np.array([0x5555555555555555, -0x5555555555555556, 0,
                           0x5555555555555555]), id="no shared bits"),
    pytest.param(np.array([]), id="none"),
    pytest.param(np.random.Generator(np.random.PCG64(5)).integers(0, 3000, 20000) / 7,
                 id="many, repeated"),
])
def test_pair_text_equals_the_sorted_unique_codec(values):
    # Doubles go through the codec, micro_units, and integers are
    # micro-units already.  The strings of each value equal the exact
    # decimals of np.unique's sorted values, so -0.0 and 0.0 both write
    # 0.000000; each distinct value comes once, at its first occurrence.
    listgraph = importlib.import_module("listcom.listgraph")
    if values.dtype == np.float64:
        units = listgraph.micro_units(values)
        assert units.tolist() == [micro(v) for v in values.tolist()]
        values = units
    text, which = listgraph.pair_text(values)
    unique, inverse = np.unique(values, return_inverse=True)
    want = [f"{Decimal(k).scaleb(-6):.6f}" for k in unique.tolist()]
    assert [text[k] for k in which] == [want[k] for k in inverse]
    first, which = listgraph.distinct_values(values)
    assert np.all(np.diff(first) > 0) and len(first) == len(unique)
    assert np.array_equal(which[first], np.arange(len(first)))
    assert np.all(first[which] <= np.arange(len(values)))
    assert np.array_equal(values[first][which], values)


# Ids whose string order is not their numeric order, several of which a
# float parser would take for numbers.
PAIR_IDS = ["0", "007", "1", "10", "9", "-3", "1e3", "0.5", "nan", "inf", "-0",
            "2", "20", "100", "n1", "n10", "n2", "x", "X", "a b"]


def random_pair_file(rng, path, value, header=()):
    """Sorted ids, one of them isolated, and a pair file over them: rows
    with a ``value(rng)`` string each, in shuffled row order and random
    endpoint order, under the ``header`` lines."""
    nodes = sorted(rng.choice(PAIR_IDS, size=int(rng.integers(3, len(PAIR_IDS))),
                              replace=False).tolist())
    isolated = nodes[int(rng.integers(len(nodes)))]
    rows = [(a, b) if rng.random() < 0.5 else (b, a)
            for a, b in combinations(nodes, 2)
            if isolated not in (a, b) and rng.random() < 0.4]
    text = "".join(f"{line}\n" for line in header)
    text += "".join(f"{rows[k][0]}\t{rows[k][1]}\t{value(rng)}\n"
                    for k in rng.permutation(len(rows)).tolist())
    path.write_text(text, encoding="utf-8")
    return nodes


def value_text(rng, scale):
    """A value in [0, scale], or -0.0, in one of the forms a writer may
    use; some round to 0.000000 and some tie at the sixth decimal."""
    v = float(rng.choice([0.0, -0.0, 1.0, 0.1234565, rng.random(), rng.random() * 1e-6]))
    return str(rng.choice([f"{v * scale:.6f}", repr(v * scale), f"{v * scale:.3e}"]))


def test_graph_codec_matches_the_dict_loop_reader(tmp_path):
    rng = np.random.Generator(np.random.PCG64(16))
    for trial in range(10):
        nodes = random_pair_file(rng, tmp_path / "g.tsv", lambda g: value_text(g, 50.0))
        (tmp_path / "g.nodes").write_text(
            "".join(f"{node}\n" for node in rng.permutation(nodes)), encoding="utf-8")
        graph = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
        _, want = reference.read_pairs(tmp_path / "g.tsv")
        want = {e: micro(w) for e, w in want.items()}
        assert graph.nodes == tuple(nodes), trial
        assert reference.edge_map(graph) == want, trial
        offsets, nbr, wgt = reference.csr_fill(nodes, want)
        assert graph.indptr.tolist() == offsets.tolist(), trial
        assert graph.indices.tolist() == nbr.tolist(), trial
        assert graph.weights.tolist() == wgt.tolist(), trial
        assert save_graph(graph, tmp_path / "h.tsv", tmp_path / "h.nodes") is None
        assert ((tmp_path / "h.tsv").read_text("utf-8")
                == reference.pair_rows_text(want)), trial
        assert reference.same_graph(
            graph, load_graph(tmp_path / "h.tsv", tmp_path / "h.nodes")), trial


def test_matrix_codec_matches_the_dict_loop_reader(tmp_path):
    rng = np.random.Generator(np.random.PCG64(17))
    for trial in range(10):
        runs = int(rng.integers(1, 200))
        nodes = random_pair_file(rng, tmp_path / "m.tsv", lambda g: value_text(g, 1.0),
                                 header=[f"#r={runs}"])
        matrix = load_matrix(tmp_path / "m.tsv", rng.permutation(nodes).tolist())
        head, want = reference.read_pairs(tmp_path / "m.tsv", header=1)
        want = {pair: micro(v) for pair, v in want.items() if micro(v) > 0}
        assert head == [f"#r={runs}"], trial
        assert same_matrix(matrix, matrix_from_pairs(nodes, want, runs)), trial
        assert save_matrix(matrix, tmp_path / "s.tsv") is None
        assert ((tmp_path / "s.tsv").read_text("utf-8")
                == f"#r={runs}\n" + reference.pair_rows_text(want)), trial
        assert same_matrix(matrix, load_matrix(tmp_path / "s.tsv", nodes)), trial


def test_stability_matches_dict_loops():
    rng = np.random.Generator(np.random.PCG64(21))
    for l in (40, 4100):
        nodes = [f"n{i:04d}" for i in range(l)]
        pairs = rng.choice(l, size=(3 * l, 2))
        scores = {(nodes[min(a, b)], nodes[max(a, b)]): int(rng.integers(10**6 + 1))
                  for a, b in pairs.tolist() if a != b}
        scores.update({(nodes[a], nodes[b]): int(rng.integers(10**6 + 1))
                       for a, b in combinations(range(30), 2)})
        matrix = matrix_from_pairs(nodes, scores, 1)
        entries = dict(zip(matrix.keys.tolist(), matrix.values.tolist()))
        for size in (2, 5, 12, 30):
            community = nodes[:size]
            want = reference.mean_pair_score(list(range(size)), entries, l)
            assert raw_stability(community, matrix) == want


@pytest.mark.parametrize("block", [None, 1, 7, 64])
def test_rank_matches_frozenset_ranking(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(importlib.import_module("listcom.stability"),
                            "PAIR_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(24))
    for trial in range(40):
        nodes = random_nodes(rng, 2, 60)
        # Few distinct scores, so raw and corrected values tie.
        scores = {pair: int(rng.choice([250_000, 500_000, 10**6]))
                  for pair in combinations(nodes, 2) if rng.random() < 0.4}
        matrix = matrix_from_pairs(nodes, scores, 1)
        sets = random_sets(rng, nodes, largest=30)
        cover = Cover.from_sets(matrix.order, sets)
        ids = cover_sets(cover)
        want = reference.rank_communities(reference.community_set(sets), matrix)
        got = rank_communities(cover, matrix)
        assert [(ids[k], score.raw) for k, score in got] == want, trial
        raws = dict(want)
        assert [raws.get(c) for c in ids] == [
            None if np.isnan(raw) else raw
            for raw in raw_stabilities(cover, matrix).tolist()], trial


def test_expected_matches_subset_enumeration():
    rng = np.random.Generator(np.random.PCG64(22))
    for trial in range(30):
        l = int(rng.integers(2, 11))
        nodes = [f"n{i}" for i in range(l)]
        fill = (0.0, 1.0, float(rng.random()))[trial % 3]
        scores = {pair: (10**6 if fill == 1.0 else int(rng.integers(10**6 + 1)))
                  for pair in combinations(nodes, 2) if rng.random() < fill}
        matrix = matrix_from_pairs(nodes, scores, 1)
        entries = dict(zip(matrix.keys.tolist(), matrix.values.tolist()))
        for size in range(2, l + 1):
            want = reference.expected_stability(size, entries, l)
            assert abs(expected_stability(size, matrix) - want) <= 1e-12, (trial, size)
    # The empty and the saturated matrix give exactly 0 and 1.
    for fill in (0.0, 1.0):
        nodes = [f"n{i}" for i in range(7)]
        matrix = matrix_from_pairs(
            nodes, {pair: micro(fill) for pair in combinations(nodes, 2) if fill}, 1)
        assert all(expected_stability(size, matrix) == fill for size in range(2, 8))


def test_label_community_matches_full_sort():
    rng = np.random.Generator(np.random.PCG64(23))
    for trial in range(200):
        vocab = [f"t{i:02d}" for i in range(int(rng.integers(1, 25)))]
        vectors = {}
        for j in range(int(rng.integers(1, 12))):
            # Few distinct weights, so background weights often tie.
            terms = rng.choice(vocab, size=int(rng.integers(0, min(6, len(vocab)) + 1)),
                               replace=False)
            vectors[f"l{j:02d}"] = {str(t): float(rng.choice([0.5, 1.0, 1.5]))
                                    for t in terms}
        lids = sorted(vectors)
        community = set(rng.choice(lids, size=int(rng.integers(1, len(lids) + 1)),
                                   replace=False).tolist())
        # top_k from 1 to above the vocabulary size.
        top_k = int(rng.integers(1, len(vocab) + 4))
        want = reference.label_community(community, vectors, top_k)
        assert label_community(community, vectors, top_k) == want, trial
        weights = background_vector(vectors)
        assert label_community(community, vectors, top_k,
                               background=Background(weights)) == want, trial
