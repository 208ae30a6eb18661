import importlib
import itertools
import json
import stat
import subprocess
import sysconfig
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from listcom.detect import (Cover, DetectorConfig, detect,
                            detect_runs, filter_singletons, load_communities,
                            save_communities)
from listcom.seeds import derive_seed
from listcom.errors import ValidationError
from listcom.synth import PlantedSpec, synth
from listcom.listgraph import ListGraph, build_list_graph
from reference import (FAST, THOROUGH, cover_sets, edge_map, graph_from_edges,
                       memory_cover)


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
    return build_list_graph(corpus, 4.0)


def test_config_validation():
    for iterations, overlap_threshold in ((0, 0.3), (5, 0.0), (5, 1.0)):
        with pytest.raises(ValidationError):
            DetectorConfig(iterations, overlap_threshold)
    assert DetectorConfig(12, 0.3).resolved_iterations == 12
    assert (FAST.iterations, THOROUGH.iterations) == (5, 50)


def test_two_cliques_recovered_for_any_seed():
    graph = clique_pair_graph()
    want = [tuple(f"a{i}" for i in range(5)), tuple(f"b{i}" for i in range(5))]
    for seed in range(10):
        cs = detect(graph, THOROUGH.with_seed(seed))
        assert sorted(tuple(sorted(c)) for c in cs) == want


def test_isolated_single_node_yields_nothing():
    graph = graph_from_edges(("solo",), {})
    cs = detect(graph, FAST.with_seed(1))
    assert len(cs) == 0


def test_isolated_nodes_unassigned():
    graph = clique_pair_graph()
    graph = graph_from_edges(graph.nodes + ("loner",), edge_map(graph))
    cs = detect(graph, THOROUGH.with_seed(3))
    assert all("loner" not in c for c in cs)


def test_determinism_same_seed():
    graph = noisy_planted_graph()
    cfg = FAST.with_seed(123)
    assert detect(graph, cfg) == detect(graph, cfg)


def test_seed_sensitivity_on_noisy_graph():
    graph = noisy_planted_graph()
    outcomes = {
        cover_sets(detect(graph, FAST.with_seed(s)))
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
    cfg = FAST.with_seed(77)
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
    for cfg in (FAST, DetectorConfig(12, THOROUGH.overlap_threshold)):
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
            detect(graph, FAST.with_seed(seed))
        detect_runs(graph, FAST, [3, 2**64 - 1])


def test_a_failing_step_stops_every_worker(monkeypatch, workers):
    # The kernel's cover of the third run to finish reports a failed
    # allocation: detect_runs raises it, every other thread stops after the
    # run it holds, and none outlives the call.
    module = importlib.import_module("listcom.detect")
    calls = itertools.count(1)  # next() hands each thread its own number
    kernel = module._kernel()

    class FailingKernel:
        slpa = kernel.slpa

        @staticmethod
        def cover(*args):
            return -1 if next(calls) == 3 else kernel.cover(*args)

    monkeypatch.setattr(module, "_kernel", lambda: FailingKernel)
    graph = noisy_planted_graph()
    before = threading.active_count()
    with pytest.raises(MemoryError, match="could not allocate"):
        detect_runs(graph, THOROUGH, range(6))
    assert threading.active_count() == before
    assert next(calls) <= 3 + workers  # at most one more run per other thread


def test_detect_runs_holds_one_memory_per_thread(workers):
    # 50 runs, each memory 96 kB: the traced peak stays near one memory per
    # thread, where one memory per run would be 4.8 MB.
    graph = noisy_planted_graph()
    cfg = DetectorConfig(300, FAST.overlap_threshold)
    memory = len(graph.nodes) * 301 * np.dtype(np.int32).itemsize
    # The kernel is built and loaded, and a call on this many threads has
    # imported what it needs.
    detect_runs(graph, cfg, range(workers))
    tracemalloc.start()
    try:
        covers = detect_runs(graph, cfg, range(50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert covers == [detect(graph, cfg.with_seed(s)) for s in range(50)]
    assert peak < (workers + 2) * memory


def random_memories(rng):
    """``(indptr, mem, threshold)`` cases for the kernel's cover: random
    rows over few labels, which tie and repeat; counts exactly at the
    threshold; equal groups; isolated nodes; rows of distinct labels; and a
    single node."""
    cases = []
    for _ in range(60):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 12))
        degree = rng.integers(0, 3, size=n) * (rng.random(n) < 0.8)
        labels = rng.choice(n, size=min(n, int(rng.integers(1, 5))), replace=False)
        mem = rng.choice(labels, size=(n, m)).astype(np.int32)
        threshold = float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.5, 0.7, rng.random() * 0.98 + 0.01]))
        cases.append((np.r_[0, np.cumsum(degree)], mem, threshold))
    # Three of ten at 0.3: exactly at the threshold.  Then ties below it:
    # four labels hold two of ten each, and the lowest of them stays.
    rows = np.array([[4, 4, 4, 1, 1, 1, 2, 2, 2, 3], [1, 1, 1, 4, 4, 4, 0, 0, 3, 3]] * 3,
                    dtype=np.int32)
    cases.append((np.arange(7), rows, 0.3))
    rows = np.array([[4, 4, 1, 1, 2, 2, 3, 3, 0, 5], [3, 3, 0, 0, 5, 5, 2, 2, 1, 4]] * 3,
                    dtype=np.int32)
    cases.append((np.arange(7), rows, 0.3))
    # Labels 5 and 7 hold the same nodes: equal groups collapse into one.
    rows = np.full((8, 4), 0, dtype=np.int32)
    rows[[1, 3, 6]] = [5, 7, 5, 7]
    cases.append((np.array([0, 1, 1, 2, 3, 4, 5, 6, 7]), rows, 0.5))
    # Rows of distinct labels: each node keeps its lowest one, or all four.
    rows = np.array([rng.choice(10, size=4, replace=False) for _ in range(10)],
                    dtype=np.int32)
    for threshold in (0.3, 0.25):
        cases.append((np.arange(11), rows, threshold))
    cases.append((np.array([0, 1]), np.zeros((1, 3), dtype=np.int32), 0.3))
    return cases


def test_the_kernel_cover_equals_the_reference():
    module = importlib.import_module("listcom.detect")
    kernel = module._kernel()
    for indptr, mem, threshold in random_memories(np.random.default_rng(5)):
        n, m = mem.shape
        nodes = tuple(f"n{u:02d}" for u in range(n))
        indptr = indptr.astype(np.int64)
        active = np.flatnonzero(np.diff(indptr) > 0)
        memory, groups, members = module._buffers(n, m, threshold)
        memory[:] = mem
        cover = module._cover(kernel, nodes, indptr, threshold, memory, groups, members)
        want = (memory_cover(nodes, active, mem[active], threshold) if len(active)
                else Cover.from_groups(nodes, [], []))
        assert cover == want, (indptr, mem, threshold)


def test_the_kernel_cover_refuses_a_short_buffer():
    # Five nodes in one group need five members; the kernel stops at the
    # end of a shorter buffer instead of writing past it.
    module = importlib.import_module("listcom.detect")
    memory, groups, members = module._buffers(5, 2, 0.5)
    memory[:] = 0
    for short in ({"members": members[:4]}, {"groups": groups[:2]}):
        buffers = {"groups": groups, "members": members, **short}
        with pytest.raises(RuntimeError, match="more than [34] labels"):
            module._cover(module._kernel(), tuple("abcde"), np.arange(6, dtype=np.int64),
                          0.5, memory, **buffers)


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
        detect_runs(graph, FAST, [1, 2])


def test_the_kernel_is_built_once_and_then_reused(kernel_cache, monkeypatch):
    module = importlib.import_module("listcom.detect")
    graph = clique_pair_graph()
    cfg = THOROUGH.with_seed(4)
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


def test_a_build_removes_the_libraries_of_earlier_sources(kernel_cache, monkeypatch,
                                                          tmp_path):
    module = importlib.import_module("listcom.detect")
    graph = clique_pair_graph()
    cfg = THOROUGH.with_seed(4)
    built = detect(graph, cfg)
    [first] = kernel_cache.iterdir()
    # Two other platforms' files, the second named as if its platform ended
    # with this one's name.
    planted = {kernel_cache / "_slpa-x-otherplatform.so",
               kernel_cache / f"_slpa-{'0' * 64}-other-{sysconfig.get_platform()}.so"}
    for path in planted:
        path.write_bytes(b"")
    edited = tmp_path / "_slpa.c"
    edited.write_text(module.KERNEL_SOURCE.read_text("utf-8") + "/* edited */\n", "utf-8")
    monkeypatch.setattr(module, "KERNEL_SOURCE", edited)
    module._kernel.cache_clear()
    assert detect(graph, cfg) == built
    # The second source's library replaced the first; the other platforms'
    # files stay.
    [second] = set(kernel_cache.iterdir()) - planted
    assert second.name != first.name and all(path.exists() for path in planted)
