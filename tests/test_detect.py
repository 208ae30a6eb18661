import functools
import importlib
import itertools
import json
import os
import stat
import subprocess
import sysconfig
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.detect import (Cover, DetectorConfig, detect,
                            detect_runs, filter_singletons, load_communities,
                            save_communities)
from listcom.seeds import derive_seed
from listcom.errors import ValidationError
from listcom.synth import PlantedSpec, synth
from listcom.listgraph import ListGraph, build_list_graph, load_graph
import reference
from reference import (FAST, THOROUGH, component_graphs, cover_sets, edge_map,
                       graph_from_edges, memory_cover, micro)


def clique_pair_graph(bridge=10_000):
    nodes = tuple(f"a{i}" for i in range(5)) + tuple(f"b{i}" for i in range(5))
    edges = {}
    for prefix in ("a", "b"):
        ids = [f"{prefix}{i}" for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                edges[(ids[i], ids[j])] = 10**6
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
    planted = noisy_planted_graph()
    planted = graph_from_edges(planted.nodes + ("zz-isolated",), edge_map(planted))
    seeds = [derive_seed(8, i) for i in range(6)] + [0, 2**64 - 1]
    for graph in (planted, *component_graphs()):
        for cfg in (FAST, DetectorConfig(12, THOROUGH.overlap_threshold)):
            single = [detect_runs(graph, cfg, [s])[0] for s in seeds]
            assert single == [detect(graph, cfg.with_seed(s)) for s in seeds]
            assert detect_runs(graph, cfg, seeds) == single
            assert (detect_runs(graph, cfg, seeds[:3])
                    + detect_runs(graph, cfg, seeds[3:]) == single)
            assert detect_runs(graph, cfg, seeds[::-1]) == single[::-1]
            assert detect_runs(graph, cfg, [seeds[2]] * 3) == [single[2]] * 3
        assert detect_runs(graph, cfg, []) == []


@pytest.mark.parametrize("limits", LIMITS)
def test_detect_runs_equals_one_run_at_a_time_on_workers(monkeypatch, limits,
                                                        workers):
    test_detect_runs_equals_one_run_at_a_time(monkeypatch, limits)


def test_the_kernel_components_equal_a_breadth_first_search():
    # Each component with an edge, ascending, in the order of its lowest
    # node; isolated nodes belong to none.
    module = importlib.import_module("listcom.detect")
    lib = importlib.import_module("listcom.kernel").load()
    for graph in (*component_graphs(), noisy_planted_graph(), clique_pair_graph()):
        indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
        seen, want = set(), []
        for u in range(len(graph.nodes)):
            if u in seen or indptr[u] == indptr[u + 1]:
                continue
            part, todo = {u}, [u]
            while todo:
                v = todo.pop()
                fresh = set(indices[indptr[v]:indptr[v + 1]]) - part
                part |= fresh
                todo.extend(fresh)
            seen |= part
            want.append(sorted(part))
        starts, nodes = module._components(lib, (graph.indptr, graph.indices, graph.weights))
        starts = starts.tolist()
        assert [nodes[a:b].tolist() for a, b in zip(starts, starts[1:])] == want


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
    # run it holds, and none outlives the call.  The other entries pass
    # through.
    module = importlib.import_module("listcom.kernel")
    calls = itertools.count(1)  # next() hands each thread its own number
    kernel = module.load()

    class FailingKernel:
        components = kernel.components
        slpa = kernel.slpa
        pair_counts = kernel.pair_counts
        fold = kernel.fold
        pair_rows = kernel.pair_rows
        csr = kernel.csr
        distinct = kernel.distinct

        @staticmethod
        def cover(*args):
            return -1 if next(calls) == 3 else kernel.cover(*args)

    monkeypatch.setattr(module, "load", lambda: FailingKernel)
    graph = noisy_planted_graph()
    before = threading.active_count()
    with pytest.raises(MemoryError, match="could not allocate"):
        detect_runs(graph, THOROUGH, range(6))
    assert threading.active_count() == before
    assert next(calls) <= 3 + workers  # at most one more run per other thread


def kernel_calls(tmp_path):
    """A call of the package that reaches each kernel entry."""
    from listcom.consensus import accumulate
    from listcom.listgraph import save_graph

    graph = clique_pair_graph()
    cover = Cover.from_sets(graph.nodes, [{"a0", "a1", "b0"}, {"a1", "b0"}])
    run = functools.partial(detect_runs, graph, FAST, [1, 2])
    return {
        "components": run, "slpa": run, "cover": run,
        "pair_counts": noisy_planted_graph,
        "fold": lambda: accumulate(graph.nodes, np.empty(0, dtype=np.int64), np.empty(0),
                                   cover),
        "pair_rows": lambda: save_graph(graph, tmp_path / "g.tsv", tmp_path / "g.nodes"),
        "csr": clique_pair_graph, "distinct": noisy_planted_graph,
    }


@pytest.mark.parametrize("entry, status, error, message", [
    *[(entry, -1, MemoryError, "could not allocate")
      for entry in ("components", "slpa", "cover", "pair_counts", "fold", "distinct")],
    *[(entry, -2, RuntimeError, "too short")
      for entry in ("cover", "pair_counts", "fold", "pair_rows")],
])
def test_a_kernel_failure_raises(monkeypatch, tmp_path, entry, status, error, message):
    # Each entry's failed allocation becomes MemoryError, and a report of
    # a short output buffer a RuntimeError; the other entries pass through.
    # csr allocates nothing and writes into outputs of its exact size, so it
    # reports neither.
    module = importlib.import_module("listcom.kernel")
    lib = module.load()
    failing = type("FailingKernel", (), {
        name: staticmethod(getattr(lib, name)) for name in kernel_calls(tmp_path)})
    setattr(failing, entry, staticmethod(lambda *args: status))
    monkeypatch.setattr(module, "load", lambda: failing)
    with pytest.raises(error, match=message):
        kernel_calls(tmp_path)[entry]()


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
    kernel = importlib.import_module("listcom.kernel").load()
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
        with pytest.raises(RuntimeError, match="cover of [34] kept labels is too short"):
            module._cover(importlib.import_module("listcom.kernel").load(),
                          tuple("abcde"), np.arange(6, dtype=np.int64), 0.5, memory,
                          **buffers)


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
        "indices int64": {"indices": indices.astype(np.int64)},
        "indices negative": {"indices": with_value(indices, 4, -1)},
        "indices n": {"indices": with_value(indices, 4, n)},
        "indices strided": {"indices": np.repeat(indices, 2)[::2]},
        # Row 0 is 1, 2, 3, 4, 5: the same neighbours out of order.
        "indices unsorted": {"indices": with_value(indices, [0, 1], [2, 1])},
        "indices self-loop": {"nodes": ("a",), "indptr": np.array([0, 1]),
                              "indices": np.array([0], dtype=np.int32),
                              "weights": np.array([1])},
        "indices one-way": {"nodes": ("a", "b"), "indptr": np.array([0, 1, 1]),
                            "indices": np.array([1], dtype=np.int32),
                            "weights": np.array([1])},
        "indices repeated": {"nodes": ("a", "b"), "indptr": np.array([0, 2, 4]),
                             "indices": np.array([1, 1, 0, 0], dtype=np.int32),
                             "weights": np.array([1, 1, 1, 1])},
        "weights float32": {"weights": weights.astype(np.float32)},
        "weights short": {"weights": weights[:-1]},
        # Doubles, such as a NaN or an infinity, are not micro-units.
        "weights nan": {"weights": with_value(weights.astype(np.float64), 4, np.nan)},
        "weights inf": {"weights": with_value(weights.astype(np.float64), 4, np.inf)},
        "weights negative": {"weights": with_value(weights, 4, -1)},
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


def test_detect_runs_refuses_weights_whose_votes_could_overflow():
    # No vote, and no bound of the early decision, may overflow int64: the
    # largest weight times twice the largest degree plus one stays below
    # 2**63.  The largest degree here is 5, so the limit is (2**63 - 1) // 11.
    good = clique_pair_graph()
    limit = (2**63 - 1) // 11
    for top in (limit, limit + 1):
        weights = np.where(good.weights == 10**6, top, good.weights)
        graph = ListGraph(good.nodes, good.indptr, good.indices, weights)
        if top == limit:
            assert detect(graph, THOROUGH.with_seed(2)) == detect(good, THOROUGH.with_seed(2))
        else:
            with pytest.raises(ValidationError, match=r"plus one below 2\*\*63"):
                detect_runs(graph, FAST, [1])


def test_a_decimal_tie_goes_to_the_lowest_label(tmp_path):
    # With seed 12, d_u's one vote collects label a_x from b_v1 and c_v2,
    # with 0.3 + 0.35, and label e_y from e_y, with 0.65.  As doubles the
    # first sum is 0.6499999999999999 and e_y would win; in micro-units the
    # votes tie, and the tie goes to the lower label, a_x.
    (tmp_path / "g.tsv").write_text(
        "b_v1\td_u\t0.300000\nc_v2\td_u\t0.350000\nd_u\te_y\t0.650000\n"
        "a_x\tb_v1\t10.000000\na_x\tc_v2\t10.000000\n", encoding="utf-8")
    (tmp_path / "g.nodes").write_text("a_x\nb_v1\nc_v2\nd_u\ne_y\n", encoding="utf-8")
    assert 0.3 + 0.35 < 0.65
    graph = load_graph(tmp_path / "g.tsv", tmp_path / "g.nodes")
    cfg = DetectorConfig(1, THOROUGH.overlap_threshold, 12)
    cover = cover_sets(detect(graph, cfg))
    assert cover == reference.detect(graph.nodes, edge_map(graph), cfg)
    assert frozenset({"a_x", "b_v1", "c_v2", "d_u"}) in cover


def test_the_kernel_is_built_once_and_then_reused(kernel_cache, monkeypatch):
    module = importlib.import_module("listcom.kernel")
    assert not kernel_cache.exists()
    graph = clique_pair_graph()  # the kernel lays out its CSR
    cfg = THOROUGH.with_seed(4)
    built = detect(graph, cfg)
    [library] = kernel_cache.iterdir()  # one file, no temporary left over
    assert library.suffix == ".so"
    assert stat.S_IMODE(kernel_cache.stat().st_mode) == 0o700

    def failing_compiler(command, **kwargs):
        raise subprocess.CalledProcessError(1, command, stderr="compiler broken")

    monkeypatch.setattr(subprocess, "run", failing_compiler)
    module.load.cache_clear()
    assert detect(graph, cfg) == built
    assert list(kernel_cache.iterdir()) == [library]
    # In an empty cache the failed build raises, naming the command, and
    # leaves nothing behind.
    monkeypatch.setenv("XDG_CACHE_HOME", str(kernel_cache / "elsewhere"))
    module.load.cache_clear()
    with pytest.raises(RuntimeError, match="cc -O2 -shared -fPIC.*compiler broken"):
        detect(graph, cfg)
    assert list((kernel_cache / "elsewhere" / "listcom").iterdir()) == []


def test_a_build_keeps_the_newest_library_of_another_source(kernel_cache, monkeypatch,
                                                             tmp_path):
    # Two checkouts that share the cache keep their libraries; a third
    # source's build removes the older of the two others.
    module = importlib.import_module("listcom.kernel")
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
    source = module.KERNEL_SOURCE.read_text("utf-8")

    def build(edit):
        edited = tmp_path / edit / "_slpa.c"
        edited.parent.mkdir()
        edited.write_text(source + f"/* {edit} */\n", "utf-8")
        monkeypatch.setattr(module, "KERNEL_SOURCE", edited)
        module.load.cache_clear()
        assert detect(graph, cfg) == built
        return set(kernel_cache.iterdir()) - planted

    [second] = build("second") - {first}
    assert second.name != first.name
    # Fixed times in the past, the second the newer.
    os.utime(first, (1e9, 1e9))
    os.utime(second, (1.5e9, 1.5e9))
    [third] = build("third") - {second}
    assert third.name not in (first.name, second.name)
    assert not first.exists() and all(path.exists() for path in planted)


# The kernel's DECIDE_DEGREE: nodes of this degree or more may stop drawing.
DECIDE_DEGREE = 64


def drawn_labels(graph, iterations, seed):
    """The number of labels that the kernel's ``slpa`` draws in the run of
    ``seed``."""
    module = importlib.import_module("listcom.detect")
    lib = importlib.import_module("listcom.kernel").load()
    csr = module._checked_csr(graph)
    starts, nodes = module._components(lib, csr)
    mem = np.empty((len(graph.nodes), iterations + 1), dtype=np.int32)
    return lib.slpa(len(graph.nodes), *(a.ctypes.data for a in csr), seed, iterations,
                    len(starts) - 1, starts.ctypes.data, nodes.ctypes.data,
                    mem.ctypes.data)


def test_the_early_decision_skips_most_draws_in_dense_components():
    # Two 100-node cliques: after the first iterations a node's last label
    # leads its vote long before its 99th neighbour is heard.
    nodes = [f"n{i:03d}" for i in range(200)]
    edges = {(nodes[b + i], nodes[b + j]): 10**6
             for b in (0, 100) for i in range(100) for j in range(i + 1, 100)}
    graph = graph_from_edges(nodes, edges)
    for seed in (1, 2**64 - 1):
        assert drawn_labels(graph, 30, seed) < 30 * len(graph.indices) / 5


def test_nodes_below_the_decision_degree_draw_every_label():
    for graph in component_graphs():
        assert np.diff(graph.indptr).max() < DECIDE_DEGREE
        for iterations in (1, 20):
            assert drawn_labels(graph, iterations, 3) == iterations * len(graph.indices)


# Edge weights in micro-units for dense_graph: equal, zero (every vote
# ties), a few fractions whose sums tie, uniform, and as large as a graph
# of its at most 243 nodes allows, so that a row's total comes near 2**63.
WEIGHTS = {
    "equal": lambda rng, k: np.full(k, 10**6),
    "zero": lambda rng, k: np.zeros(k, dtype=np.int64),
    "fractions": lambda rng, k: rng.choice([200_000, 250_000, 333_333, 500_000, 10**6],
                                           size=k),
    "uniform": lambda rng, k: rng.integers(0, 10**6 + 1, size=k),
    "largest": lambda rng, k: np.full(k, (2**63 - 1) // (2 * 242 + 1)),
}


def dense_graph(rng, weights):
    """One or two blocks of 65 to 110 nodes, each pair linked with a
    probability of 0.9 to 1, so that most of their nodes have a degree of
    64 or more; sparse noise edges between the blocks and to 20 other
    nodes; and 3 isolated nodes."""
    sizes = rng.integers(DECIDE_DEGREE + 1, 111, size=rng.integers(1, 3))
    n = int(sizes.sum()) + 23
    pairs = set()
    for start, size in zip(np.cumsum(sizes) - sizes, sizes.tolist()):
        density = rng.uniform(0.9, 1.0)
        pairs |= {(start + i, start + j) for i in range(size) for j in range(i + 1, size)
                  if rng.random() < density}
    for a, b in rng.integers(0, n - 3, size=(60, 2)).tolist():
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    nodes = [f"n{u:03d}" for u in rng.permutation(n)]  # blocks spread over the order
    pairs = sorted(pairs)
    return graph_from_edges(nodes, {(nodes[a], nodes[b]): int(w) for (a, b), w
                                    in zip(pairs, WEIGHTS[weights](rng, len(pairs)))})


def late_heavy_graph(seed):
    """A block of 65 to 79 nodes, each pair linked with a probability of
    0.97: edges to the three highest nodes weigh 5 to 30, the others 1, in
    micro-units.  So the heavy neighbours come last in each row, where a
    node may already have stopped drawing."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(65, 80))
    nodes = [f"n{u:03d}" for u in range(size)]
    edges = {}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.97:
                edges[(nodes[i], nodes[j])] = (micro(rng.uniform(5, 30)) if j >= size - 3
                                               else 10**6)
    return graph_from_edges(nodes, edges)


def test_the_early_decision_counts_the_neighbours_not_yet_heard():
    # Runs, found by a search, whose covers change when the bound leaves out
    # the weight of a settled neighbour whose id is another label, or counts
    # the neighbour whose id is the guess as settled although its later
    # slots hold another label.  Random graphs seldom show either.
    for graph_seed, iterations, seed in [(0, 2, 3), (1, 2, 7), (1, 5, 16), (22, 2, 19)]:
        graph = late_heavy_graph(graph_seed)
        cfg = DetectorConfig(iterations, THOROUGH.overlap_threshold, seed)
        want = reference.detect(graph.nodes, edge_map(graph), cfg)
        assert cover_sets(detect(graph, cfg)) == want


def test_the_early_decision_follows_each_change_of_a_tail():
    # Runs, found by a search, whose covers change when a neighbour's tail
    # going from the guess to -2 is not counted, or when a node whose guess
    # changed keeps the count of neighbours that agreed with the old one.
    # Random graphs seldom show either.
    for graph_seed, iterations, seed in [(0, 8, 1), (1, 3, 12), (2, 8, 9), (2, 3, 20),
                                         (29, 2, 0), (29, 8, 22)]:
        graph = late_heavy_graph(graph_seed)
        cfg = DetectorConfig(iterations, THOROUGH.overlap_threshold, seed)
        want = reference.detect(graph.nodes, edge_map(graph), cfg)
        assert cover_sets(detect(graph, cfg)) == want


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(WEIGHTS)), st.integers(1, 30),
       st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_the_early_decision_matches_the_reference(seed, weights, iterations, threads):
    # Blocks above the decision degree, where the kernel stops drawing
    # early, give the covers of the reference's full votes, on 1 to 3
    # threads.
    graph = dense_graph(np.random.default_rng(seed), weights)
    assert np.diff(graph.indptr).max() >= DECIDE_DEGREE
    cfg = DetectorConfig(iterations, THOROUGH.overlap_threshold)
    seeds = [derive_seed(seed, run) for run in range(threads)]
    edges = edge_map(graph)
    want = [reference.detect(graph.nodes, edges, cfg.with_seed(s)) for s in seeds]
    module = importlib.import_module("listcom.detect")
    with mock.patch.multiple(module, WORKERS=threads, THREAD_POSITIONS=1):
        assert [cover_sets(cover) for cover in detect_runs(graph, cfg, seeds)] == want
