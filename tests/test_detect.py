import importlib
import json
import warnings

import numpy as np
import pytest

from listcom.detect import (CommunitySet, Cover, DetectorConfig, detect,
                            detect_runs, filter_singletons, load_communities,
                            save_communities)
from listcom.seeds import derive_seed
from listcom.errors import ValidationError
from listcom.synth import PlantedSpec, synth
from listcom.listgraph import GraphBuildConfig, build_list_graph
from reference import edge_map, graph_from_edges


def clique_pair_graph(bridge=0.01):
    nodes = tuple(f"a{i}" for i in range(5)) + tuple(f"b{i}" for i in range(5))
    edges = {}
    for prefix in ("a", "b"):
        ids = [f"{prefix}{i}" for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                edges[(ids[i], ids[j])] = 1.0
    edges[("a0", "b0")] = bridge
    return graph_from_edges(nodes, edges)


def noisy_planted_graph():
    spec = PlantedSpec(groups=4, users_per_group=20, lists_per_group=20,
                       size_min=5, size_max=12, noise=0.25, overlap=0.1)
    corpus, _ = synth(spec, 9)
    return build_list_graph(corpus, GraphBuildConfig(rho=4.0))


def test_config_validation():
    with pytest.raises(ValidationError):
        DetectorConfig(mode="bogus")
    with pytest.raises(ValidationError):
        DetectorConfig(iterations=0)
    with pytest.raises(ValidationError):
        DetectorConfig(overlap_threshold=1.0)
    assert DetectorConfig(mode="fast").resolved_iterations == 5
    assert DetectorConfig(mode="thorough").resolved_iterations == 50


def test_two_cliques_recovered_for_any_seed():
    graph = clique_pair_graph()
    want = [tuple(f"a{i}" for i in range(5)), tuple(f"b{i}" for i in range(5))]
    for seed in range(10):
        cs = detect(graph, DetectorConfig(mode="thorough", seed=seed))
        assert sorted(tuple(sorted(c)) for c in cs) == want


def test_isolated_single_node_yields_nothing():
    graph = graph_from_edges(("solo",), {})
    cs = detect(graph, DetectorConfig(mode="fast", seed=1))
    assert len(cs) == 0


def test_isolated_nodes_unassigned():
    graph = clique_pair_graph()
    graph = graph_from_edges(graph.nodes + ("loner",), edge_map(graph))
    cs = detect(graph, DetectorConfig(mode="thorough", seed=3))
    assert "loner" not in cs.nodes()


def test_determinism_same_seed():
    graph = noisy_planted_graph()
    cfg = DetectorConfig(mode="fast", seed=123)
    assert detect(graph, cfg) == detect(graph, cfg)


def test_seed_sensitivity_on_noisy_graph():
    graph = noisy_planted_graph()
    outcomes = {
        detect(graph, DetectorConfig(mode="fast", seed=s)).communities
        for s in range(10)
    }
    assert len(outcomes) >= 2


def test_permutation_equivariance_under_monotone_relabel():
    graph = noisy_planted_graph()
    relabel = {node: f"z{node}" for node in graph.nodes}  # order-preserving
    mapped = graph_from_edges(
        tuple(relabel[n] for n in graph.nodes),
        {(relabel[a], relabel[b]): w for (a, b), w in edge_map(graph).items()},
    )
    cfg = DetectorConfig(mode="fast", seed=77)
    base = detect(graph, cfg)
    moved = detect(mapped, cfg)
    expect = CommunitySet.from_sets(
        frozenset(relabel[n] for n in c) for c in base)
    assert moved == expect


def test_filter_singletons_examples():
    nodes = ("a", "b", "c")
    cover = Cover.from_sets(nodes, [{"a"}, set(), {"b", "c"}, {"c"}])
    assert filter_singletons(cover).community_set().communities == (
        frozenset({"b", "c"}),)
    assert filter_singletons(cover) == Cover.from_sets(nodes, [{"b", "c"}])
    assert len(filter_singletons(Cover.from_sets(nodes, []))) == 0
    cs = CommunitySet.from_sets([{"a", "b"}, {"a", "b"}])
    assert cs.communities == (frozenset({"a", "b"}),)


def test_community_set_canonical_order():
    cs = CommunitySet.from_sets([{"z", "y"}, {"a", "b", "c"}, {"a", "b"}])
    assert [sorted(c) for c in cs] == [["a", "b", "c"], ["a", "b"], ["y", "z"]]


def test_communities_json_round_trip(tmp_path):
    cover = Cover.from_sets(("a", "b", "c", "d", "e"), [{"a", "b", "c"}, {"b", "d"}])
    path = tmp_path / "c.json"
    save_communities(cover, path)
    assert load_communities(path, cover.nodes) == cover
    assert load_communities(path).community_set() == cover.community_set()
    with pytest.raises(ValidationError):
        load_communities(path, ("a", "b", "c"))
    payload = json.loads(path.read_text("utf-8"))
    assert payload == [["a", "b", "c"], ["b", "d"]]


def int64_read_index(cells, memory_size):
    return np.dtype(np.int64)


@pytest.mark.parametrize("limits", [{}, {"SLOT_CAP": 1}, {"SLOT_CAP": 7},
                                    {"RUN_SLOTS": 1}, {"RUN_SLOTS": 300},
                                    {"read_index_dtype": int64_read_index}])
def test_detect_runs_equals_one_run_at_a_time(monkeypatch, limits):
    # Any grouping of runs, any cap on the slots gathered per step or held
    # per group of stacked runs, and either width of the read index gives
    # each run's own result.
    for name, value in limits.items():
        # The package exports the function ``detect``, which hides the module.
        monkeypatch.setattr(importlib.import_module("listcom.detect"), name, value)
    graph = noisy_planted_graph()
    graph = graph_from_edges(graph.nodes + ("zz-isolated",), edge_map(graph))
    seeds = [derive_seed(8, i) for i in range(6)] + [0, 2**64 - 1]
    for mode in ("fast", "thorough"):
        cfg = DetectorConfig(mode=mode, iterations=None if mode == "fast" else 12)
        single = [detect_runs(graph, cfg, [s])[0] for s in seeds]
        assert ([cover.community_set() for cover in single]
                == [detect(graph, cfg.with_seed(s)) for s in seeds])
        assert detect_runs(graph, cfg, seeds) == single
        assert (detect_runs(graph, cfg, seeds[:3]) + detect_runs(graph, cfg, seeds[3:])
                == single)
        assert detect_runs(graph, cfg, seeds[::-1]) == single[::-1]
        assert detect_runs(graph, cfg, [seeds[2]] * 3) == [single[2]] * 3
    assert detect_runs(graph, cfg, []) == []


def test_read_index_dtype_at_the_int32_boundary():
    # The largest flat index into cells x memory_size labels is
    # cells * memory_size - 1; int32 holds it up to 2**31 - 1.
    read_index_dtype = importlib.import_module("listcom.detect").read_index_dtype
    assert read_index_dtype(1, 6) == np.int32
    assert read_index_dtype(1 << 25, 64) == np.int32
    assert read_index_dtype((1 << 25) + 1, 64) == np.int64
    assert read_index_dtype(2**31, 1) == np.int32
    assert read_index_dtype(2**31 + 1, 1) == np.int64
    assert read_index_dtype(3, 715827883) == np.int64  # 2**31 + 1 labels


def test_detect_raises_no_runtime_warning():
    graph = noisy_planted_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2**63, 2**64 - 1):
            detect(graph, DetectorConfig(mode="fast", seed=seed))
        detect_runs(graph, DetectorConfig(mode="fast"), [3, 2**64 - 1])
