import importlib
import itertools
import json
import stat
import subprocess
import threading
import warnings

import numpy as np
import pytest

from listcom.detect import (Cover, DetectorConfig, detect,
                            detect_runs, filter_singletons, load_communities,
                            save_communities)
from listcom.seeds import derive_seed
from listcom.errors import ValidationError
from listcom.synth import PlantedSpec, synth
from listcom.listgraph import GraphBuildConfig, ListGraph, build_list_graph
from reference import cover_sets, edge_map, graph_from_edges


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
    assert all("loner" not in c for c in cs)


def test_determinism_same_seed():
    graph = noisy_planted_graph()
    cfg = DetectorConfig(mode="fast", seed=123)
    assert detect(graph, cfg) == detect(graph, cfg)


def test_seed_sensitivity_on_noisy_graph():
    graph = noisy_planted_graph()
    outcomes = {
        cover_sets(detect(graph, DetectorConfig(mode="fast", seed=s)))
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
    expect = Cover.from_sets(mapped.nodes, ({relabel[n] for n in c} for c in base))
    assert moved == expect


def test_filter_singletons_examples():
    nodes = ("a", "b", "c")
    cover = Cover.from_sets(nodes, [{"a"}, set(), {"b", "c"}, {"c"}])
    assert list(filter_singletons(cover)) == [["b", "c"]]
    assert filter_singletons(cover) == Cover.from_sets(nodes, [{"b", "c"}])
    assert len(filter_singletons(Cover.from_sets(nodes, []))) == 0
    cover = Cover.from_sets(nodes, [{"a", "b"}, {"a", "b"}])
    assert list(cover) == [["a", "b"]]


def test_community_set_canonical_order():
    cover = Cover.from_sets("abcyz", [{"z", "y"}, {"a", "b", "c"}, {"a", "b"}])
    assert [sorted(c) for c in cover] == [["a", "b", "c"], ["a", "b"], ["y", "z"]]


def test_a_cover_iterates_as_its_id_lists():
    cover = Cover.from_sets(("a", "b", "c", "d", "e"),
                            [{"e", "a"}, {"b", "c", "d"}, {"c"}, set()])
    assert list(cover) == cover.id_lists() == [["b", "c", "d"], ["a", "e"], ["c"], []]
    assert list(Cover.from_sets(("a",), [])) == []


def test_communities_json_round_trip(tmp_path):
    cover = Cover.from_sets(("a", "b", "c", "d", "e"), [{"a", "b", "c"}, {"b", "d"}])
    path = tmp_path / "c.json"
    save_communities(cover, path)
    assert load_communities(path, cover.nodes) == cover
    assert list(load_communities(path)) == list(cover)
    with pytest.raises(ValidationError):
        load_communities(path, ("a", "b", "c"))
    payload = json.loads(path.read_text("utf-8"))
    assert payload == [["a", "b", "c"], ["b", "d"]]


# Patches of the module's thread-count knobs: none; the size rule's floor
# of one thread, whatever ``WORKERS`` says; and one thread per run, up to 8,
# more than the cores.  Under the ``workers`` fixture the last two override
# its count.
LIMITS = [{}, {"THREAD_POSITIONS": 2**62}, {"WORKERS": 8, "THREAD_POSITIONS": 1}]


@pytest.mark.parametrize("limits", LIMITS)
def test_detect_runs_equals_one_run_at_a_time(monkeypatch, limits):
    # Any grouping or order of the seeds and any number of threads give
    # each run its own result.  These graphs are too small for a second
    # thread unless the limits or the test below force one.
    for name, value in limits.items():
        # The package exports the function ``detect``, which hides the module.
        monkeypatch.setattr(importlib.import_module("listcom.detect"), name, value)
    graph = noisy_planted_graph()
    graph = graph_from_edges(graph.nodes + ("zz-isolated",), edge_map(graph))
    seeds = [derive_seed(8, i) for i in range(6)] + [0, 2**64 - 1]
    for mode in ("fast", "thorough"):
        cfg = DetectorConfig(mode=mode, iterations=None if mode == "fast" else 12)
        single = [detect_runs(graph, cfg, [s])[0] for s in seeds]
        assert single == [detect(graph, cfg.with_seed(s)) for s in seeds]
        assert detect_runs(graph, cfg, seeds) == single
        assert (detect_runs(graph, cfg, seeds[:3]) + detect_runs(graph, cfg, seeds[3:])
                == single)
        assert detect_runs(graph, cfg, seeds[::-1]) == single[::-1]
        assert detect_runs(graph, cfg, [seeds[2]] * 3) == [single[2]] * 3
    assert detect_runs(graph, cfg, []) == []


@pytest.mark.parametrize("limits", LIMITS)
def test_detect_runs_equals_one_run_at_a_time_on_workers(monkeypatch, limits,
                                                        workers):
    test_detect_runs_equals_one_run_at_a_time(monkeypatch, limits)


def test_detect_raises_no_runtime_warning():
    graph = noisy_planted_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2**63, 2**64 - 1):
            detect(graph, DetectorConfig(mode="fast", seed=seed))
        detect_runs(graph, DetectorConfig(mode="fast"), [3, 2**64 - 1])


def test_a_failing_step_stops_every_worker(monkeypatch, workers):
    module = importlib.import_module("listcom.detect")
    calls = itertools.count(1)  # next() hands each thread its own number
    run = module._run

    def failing_run(*args):
        if next(calls) == 3:
            raise RuntimeError("run three fails")
        return run(*args)

    monkeypatch.setattr(module, "_run", failing_run)
    graph = noisy_planted_graph()
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="run three fails"):
        detect_runs(graph, DetectorConfig(mode="thorough"), range(6))
    assert threading.active_count() == before


def bad_graphs():
    """A graph for each defect that the ``ListGraph`` constructor lets
    through, with the defect as its id; the id's first word names the field
    at fault."""
    good = clique_pair_graph()
    n = len(good.nodes)
    indptr, indices, weights = good.indptr, good.indices, good.weights

    def with_value(array, index, value):
        array = array.copy()
        array[index] = value
        return array

    class Huge(tuple):
        def __len__(self):
            return 2**31

    variants = {
        "indptr int32": {"indptr": indptr.astype(np.int32)},
        "indptr a list": {"indptr": indptr.tolist()},
        "indptr 2-d": {"indptr": indptr[None, :]},
        "indptr short": {"indptr": indptr[:-1]},
        "indptr from 1": {"indptr": with_value(indptr, 0, 1)},
        "indptr decreasing": {"indptr": with_value(indptr, 3, indptr[2] - 1)},
        "indptr past the end": {"indptr": with_value(indptr, -1, len(indices) + 1)},
        "indptr short of the end": {"indptr": with_value(indptr, -1, len(indices) - 1)},
        "indices int32": {"indices": indices.astype(np.int32)},
        "indices negative": {"indices": with_value(indices, 4, -1)},
        "indices n": {"indices": with_value(indices, 4, n)},
        "indices strided": {"indices": np.repeat(indices, 2)[::2]},
        "weights float32": {"weights": weights.astype(np.float32)},
        "weights short": {"weights": weights[:-1]},
        "weights nan": {"weights": with_value(weights, 4, np.nan)},
        "weights inf": {"weights": with_value(weights, 4, np.inf)},
        "weights negative": {"weights": with_value(weights, 4, -1.0)},
        "weights strided": {"weights": np.repeat(weights, 2)[::2]},
        "nodes none": {"nodes": (), "indptr": np.zeros(1, dtype=np.int64),
                     "indices": indices[:0], "weights": weights[:0]},
        "nodes 2**31": {"nodes": Huge(good.nodes)},
    }
    fields = {"nodes": good.nodes, "indptr": indptr, "indices": indices,
              "weights": weights}
    return [pytest.param(ListGraph(**{**fields, **change}), id=defect)
            for defect, change in variants.items()]


@pytest.mark.parametrize("graph", bad_graphs())
def test_detect_runs_rejects_a_malformed_graph(request, graph):
    # A malformed array that reached the kernel would crash the process.
    field = request.node.callspec.id.split()[0]
    with pytest.raises(ValidationError, match=field):
        detect_runs(graph, DetectorConfig(), [1, 2])


def test_the_kernel_is_built_once_and_then_reused(kernel_cache, monkeypatch):
    module = importlib.import_module("listcom.detect")
    graph = clique_pair_graph()
    cfg = DetectorConfig(mode="thorough", seed=4)
    assert not kernel_cache.exists()
    built = detect(graph, cfg)
    [library] = kernel_cache.iterdir()  # one file, no temporary left over
    assert library.suffix == ".so"
    assert stat.S_IMODE(kernel_cache.stat().st_mode) == 0o700

    def failing_compiler(command, **kwargs):
        raise subprocess.CalledProcessError(1, command, stderr="compiler broken")

    monkeypatch.setattr(subprocess, "run", failing_compiler)
    module._kernel.cache_clear()
    assert detect(graph, cfg) == built
    assert list(kernel_cache.iterdir()) == [library]
    # In an empty cache the failed build raises, naming the command, and
    # leaves nothing behind.
    monkeypatch.setenv("XDG_CACHE_HOME", str(kernel_cache / "elsewhere"))
    module._kernel.cache_clear()
    with pytest.raises(RuntimeError, match="cc -O2 -shared -fPIC.*compiler broken"):
        detect(graph, cfg)
    assert list((kernel_cache / "elsewhere" / "listcom").iterdir()) == []
