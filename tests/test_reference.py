"""The array code against the dict-based reference loops, compared with ==."""
import importlib
from itertools import combinations

import numpy as np
import pytest

from listcom.consensus import (ConsensusMatrix, EnsembleConfig, accumulate,
                               consensus_graph, run_ensemble)
from listcom.corpus import ListRecord, MembershipCorpus
from listcom.detect import (CommunitySet, Cover, DetectorConfig, detect,
                            filter_singletons, group_pairs)
from listcom.labeling import (Background, LabelingConfig, background_vector,
                              label_community)
from listcom.listgraph import (GraphBuildConfig, ListGraph, build_list_graph,
                               load_graph, save_graph)
from listcom.seeds import derive_seed
from listcom.stability import (expected_stability, rank_communities,
                               raw_stabilities, raw_stability)
from listcom.synth import PlantedSpec, synth
import reference
from reference import graph_from_edges, matrix_from_pairs, same_matrix


def planted_graph():
    spec = PlantedSpec(groups=4, users_per_group=20, lists_per_group=20,
                       size_min=5, size_max=12, noise=0.25, overlap=0.2)
    corpus, _ = synth(spec, 9)
    return build_list_graph(corpus, GraphBuildConfig(rho=3.0))


def tied_graph(weight=1.0):
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
    weights drawn from 0.1, 0.2, 0.3 and 0.6.  A hub's tally sums several
    such weights per label, and those sums differ in the last bit with the
    order of their terms: (0.1 + 0.2) + 0.3 is not 0.6, but
    (0.3 + 0.2) + 0.1 is."""
    rng = np.random.Generator(np.random.PCG64(16))
    hubs = [f"h{i}" for i in range(6)]
    edges = {}
    for name, size in zip("abcd", (12, 6, 5, 4)):
        members = [f"{name}{i:02d}" for i in range(size)]
        for x, y in combinations(members, 2):
            edges[(x, y)] = 5.0
        for member in members:
            for hub in hubs:
                edges[(hub, member)] = float(rng.choice([0.1, 0.2, 0.3, 0.6]))
    return graph_from_edges({node for pair in edges for node in pair}, edges)


def assert_same_detection(graph, config):
    edges = reference.edge_map(graph)
    assert detect(graph, config) == reference.detect(graph.nodes, edges, config)


@pytest.mark.parametrize("mode", ["fast", "thorough"])
def test_detect_matches_reference_on_planted_graph(mode):
    graph = planted_graph()
    for seed in range(12 if mode == "fast" else 3):
        assert_same_detection(graph, DetectorConfig(mode=mode, seed=seed))


def test_detect_matches_reference_on_weighted_ties():
    graph = tied_graph()
    for seed in range(40):
        assert_same_detection(graph, DetectorConfig(mode="fast", seed=seed))
    half = ListGraph.from_pairs(graph.nodes, *graph.edge_pairs()[:2],
                                np.where(graph.edge_pairs()[0] % 2, 0.5, 1.0))
    for seed in range(40):
        assert_same_detection(half, DetectorConfig(mode="fast", seed=seed,
                                                   overlap_threshold=0.2))


def test_detect_matches_reference_on_order_sensitive_sums():
    # Each vote is summed one at a time in CSR order, as the reference
    # does.  A non-stable sort of the (cell, label) keys, or a pairwise sum
    # such as np.add.reduceat, changes winners on this graph.
    graph = hub_graph()
    assert np.diff(graph.indptr).max() > 16
    for seed in range(10):
        assert_same_detection(graph, DetectorConfig(mode="thorough",
                                                    iterations=15, seed=seed))


def test_detect_matches_reference_on_all_zero_weights(tmp_path):
    # Every vote is 0.0: the winner is the lowest collected label id.
    graph = tied_graph(weight=0.0)
    for seed in range(40):
        assert_same_detection(graph, DetectorConfig(mode="fast", seed=seed))
    # rho = 0 keeps the zero weight of two 15-user lists out of 20 users
    # that share only the 10 users any two such lists must share.
    rng = np.random.Generator(np.random.PCG64(6))
    users = [f"u{i}" for i in range(20)]
    memberships = {f"l{j:02d}": rng.choice(users, size=15, replace=False).tolist()
                   for j in range(30)}
    corpus = MembershipCorpus.build(
        [ListRecord(lid, "", "") for lid in memberships], memberships)
    save_graph(build_list_graph(corpus, GraphBuildConfig(rho=0.0)),
               tmp_path / "g.tsv", tmp_path / "g.nodes")
    loaded = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    assert (loaded.weights == 0.0).any()
    for seed in range(10):
        assert_same_detection(loaded, DetectorConfig(mode="fast", seed=seed))
    # tau = 0 keeps every consensus entry as an edge.
    matrix = run_ensemble(loaded, EnsembleConfig.from_master(1, runs=4))
    consensus = consensus_graph(matrix, 0.0)
    assert consensus.edge_count() == len(matrix.keys)
    for seed in range(5):
        assert_same_detection(consensus, DetectorConfig(mode="thorough", seed=seed))


def test_detect_matches_reference_on_workers(tmp_path, workers):
    # The cases above, stepped on 1, 2 or 3 worker threads.
    for mode in ("fast", "thorough"):
        test_detect_matches_reference_on_planted_graph(mode)
    test_detect_matches_reference_on_weighted_ties()
    test_detect_matches_reference_on_order_sensitive_sums()
    test_detect_matches_reference_on_all_zero_weights(tmp_path)


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
        assert cover.community_set() == want, trial
        # The canonical order, with each community's ids ascending.
        assert cover.id_lists() == [sorted(c) for c in want], trial
        assert cover.sizes().tolist() == [len(c) for c in want], trial
        assert CommunitySet.from_sets(sets) == want, trial
        assert filter_singletons(cover).community_set() == reference.community_set(
            c for c in sets if len(c) >= 2), trial


def test_accumulate_matches_dict_fold():
    rng = np.random.Generator(np.random.PCG64(12))
    for trial in range(60):
        nodes = random_nodes(rng)
        runs = [random_sets(rng, nodes) for _ in range(int(rng.integers(1, 9)))]
        matrix = ConsensusMatrix.empty(nodes, len(runs))
        folded = ConsensusMatrix.empty(nodes, len(runs))
        for sets in runs:
            accumulate(matrix, Cover.from_sets(matrix.order, sets))
            reference.accumulate(folded, reference.community_set(sets))
        # Bit for bit against the frozenset fold, run by run.
        assert same_matrix(matrix, folded), trial
        matrix.values *= 1.0 / len(runs)
        want = reference.ensemble_fold(nodes, [reference.community_set(sets)
                                               for sets in runs])
        assert matrix.keys.tolist() == sorted(want), trial
        assert matrix.values.tolist() == [want[k] for k in sorted(want)], trial


def test_run_ensemble_matches_dict_fold():
    graph = planted_graph()
    config = EnsembleConfig.from_master(7, runs=6)
    covers = [detect(graph, config.fast_config.with_seed(derive_seed(7, i)))
              for i in range(6)]
    want = reference.ensemble_fold(graph.nodes, covers)
    matrix = run_ensemble(graph, config)
    assert matrix.keys.tolist() == sorted(want)
    assert matrix.values.tolist() == [want[k] for k in sorted(want)]
    folded = ConsensusMatrix.empty(graph.nodes, 6)
    for cover in covers:
        reference.accumulate(folded, cover)
    folded.values *= 1.0 / 6
    assert same_matrix(matrix, folded)


@pytest.mark.parametrize("block", [None, 1, 3, 10])
def test_group_pairs_lists_combinations_in_order(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(importlib.import_module("listcom.detect"),
                            "PAIR_BLOCK", block)
    bound = importlib.import_module("listcom.detect").PAIR_BLOCK
    rng = np.random.Generator(np.random.PCG64(14))
    for trial in range(30):
        sizes = rng.integers(0, 9, size=int(rng.integers(0, 12)))
        sizes[sizes == 8] = 25
        indptr = np.r_[0, np.cumsum(sizes)]
        members = np.concatenate([rng.permutation(100)[:s] for s in sizes] +
                                 [np.empty(0, dtype=np.int64)]).astype(np.int32)
        got = {k: [] for k in range(len(sizes))}
        for groups, first, second in group_pairs(indptr, members):
            size = int(sizes[groups[0]])
            assert (sizes[groups] == size).all()
            assert first.shape == second.shape == (len(groups), first.shape[1])
            assert first.size <= max(bound, size - 1)
            for k, a, b in zip(groups.tolist(), first.tolist(), second.tolist()):
                got[k].extend(zip(a, b))
        for k in range(len(sizes)):
            group = members[indptr[k]:indptr[k + 1]].tolist()
            assert got[k] == list(combinations(group, 2)), (trial, k)


def test_consensus_graph_matches_sorted_tuple_fill():
    rng = np.random.Generator(np.random.PCG64(3))
    for trial in range(40):
        nodes = [f"n{i:02d}" for i in range(int(rng.integers(2, 30)))]
        scores = {(a, b): float(rng.random())
                  for a, b in combinations(nodes, 2) if rng.random() < 0.3}
        matrix = matrix_from_pairs(nodes, scores, 1)
        tau = float(rng.choice([0.0, rng.random()]))
        graph = consensus_graph(matrix, tau)
        kept = {pair: v for pair, v in scores.items() if v >= tau}
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


def test_stability_matches_dict_loops():
    rng = np.random.Generator(np.random.PCG64(21))
    for l in (40, 4100):
        nodes = [f"n{i:04d}" for i in range(l)]
        pairs = rng.choice(l, size=(3 * l, 2))
        scores = {(nodes[min(a, b)], nodes[max(a, b)]): float(rng.random())
                  for a, b in pairs.tolist() if a != b}
        scores.update({(nodes[a], nodes[b]): float(rng.random())
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
        monkeypatch.setattr(importlib.import_module("listcom.detect"),
                            "PAIR_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(24))
    for trial in range(40):
        nodes = random_nodes(rng, 2, 60)
        # Few distinct scores, so raw and corrected values tie.
        scores = {pair: float(rng.choice([0.25, 0.5, 1.0]))
                  for pair in combinations(nodes, 2) if rng.random() < 0.4}
        matrix = matrix_from_pairs(nodes, scores, 1)
        sets = random_sets(rng, nodes, largest=30)
        cover = Cover.from_sets(matrix.order, sets)
        ids = cover.community_set().communities
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
        scores = {pair: (1.0 if fill == 1.0 else float(rng.random()))
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
            nodes, {pair: fill for pair in combinations(nodes, 2) if fill}, 1)
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
        config = LabelingConfig(top_k=int(rng.integers(1, len(vocab) + 4)))
        want = reference.label_community(community, vectors, config)
        assert label_community(community, vectors, config) == want, trial
        weights = background_vector(vectors)
        assert label_community(community, vectors, config,
                               background=Background(weights)) == want, trial
