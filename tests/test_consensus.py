import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.consensus import (ConsensusMatrix, accumulate,
                               consensus_communities, consensus_graph,
                               cover_agreement, label_jaccard, load_matrix,
                               run_ensemble, save_matrix)
from listcom.detect import Cover, detect
from listcom.errors import ValidationError
from listcom.listgraph import build_list_graph
from listcom.pipeline import PipelineConfig
from listcom.synth import PlantedSpec, synth
from listcom.seeds import STREAM_CONSENSUS, derive_seed
import reference
from reference import (FAST, community_pair_scores, edge_map, entry_map,
                       graph_from_edges, matrix_from_pairs, micro, numpy_pair_scores,
                       same_matrix)


def empty_matrix(order, r=1):
    return ConsensusMatrix.empty(sorted(order), r)


def cover_of(matrix, sets):
    return Cover.from_sets(matrix.order, sets)


def fold(order, *covers):
    """``{(a, b): sum}`` of the covers' scores over ``order``, folded by
    accumulate from no entries."""
    keys, sums = np.empty(0, dtype=np.int64), np.empty(0)
    for cover in covers:
        keys, sums = accumulate(order, keys, sums, cover)
    l = len(order)
    return {(order[k // l], order[k % l]): v for k, v in zip(keys.tolist(), sums.tolist())}


def test_label_jaccard_figure_cases():
    assert label_jaccard({"c1"}, {"c2"}) == 0.0
    assert label_jaccard({"c1"}, {"c1"}) == 1.0
    assert label_jaccard({"c1", "c2"}, {"c1", "c2"}) == 1.0
    assert label_jaccard({"c1"}, {"c1", "c2"}) == 0.5


def test_label_jaccard_empty_sets():
    assert label_jaccard(set(), set()) == 0.0
    assert label_jaccard({"c1"}, set()) == 0.0


@given(st.sets(st.integers(0, 6)), st.sets(st.integers(0, 6)))
def test_label_jaccard_bounds_and_symmetry(x, y):
    j = label_jaccard(x, y)
    assert 0.0 <= j <= 1.0
    assert j == label_jaccard(y, x)
    if x and x == y:
        assert j == 1.0


def test_accumulate_single_community():
    m = empty_matrix(["a", "b", "c"])
    assert fold(m.order, cover_of(m, [{"a", "b"}])) == {("a", "b"): 1.0}


def test_accumulate_overlapping_communities():
    m = empty_matrix(["a", "b", "c"])
    assert fold(m.order, cover_of(m, [{"a", "b"}, {"a", "c"}])) == {
        ("a", "b"): pytest.approx(0.5), ("a", "c"): pytest.approx(0.5)}


def test_accumulate_ignores_singletons():
    m = empty_matrix(["a", "b"])
    assert fold(m.order, cover_of(m, [{"a"}, {"b"}])) == {}
    # A cover over no nodes at all adds nothing either.
    m = empty_matrix([])
    assert fold(m.order, cover_of(m, [])) == {}


def test_accumulate_rejects_unknown_node():
    m = empty_matrix(["a", "b"])
    with pytest.raises(ValidationError):
        fold(m.order, cover_of(m, [{"a", "zz"}]))
    with pytest.raises(ValidationError, match="orders differ"):
        fold(m.order, Cover.from_sets(("a", "b", "c"), [{"a", "b"}]))


def test_pair_scoring_memory_follows_the_block():
    # 21 windows of 100 consecutive nodes out of 120: 21 * C(100, 2) =
    # 103,950 pair instances over 6,930 pairs.  The fold's output arrays
    # have room for at most C(120, 2) = 7,140 pairs, and its scratch (16 l
    # + 4 k + 24 bytes plus 4 per member) is malloc'd, which tracemalloc
    # does not see.  The bound is that of the numpy block counter at blocks
    # of 4,096 instances.
    nodes = tuple(f"n{i:03d}" for i in range(120))
    windows = [list(range(k, k + 100)) for k in range(21)]
    cover = Cover.from_groups(nodes, [100] * 21, np.concatenate(windows))
    tracemalloc.start()
    try:
        keys, scores = accumulate(nodes, np.empty(0, dtype=np.int64), np.empty(0), cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want_keys, want_scores = community_pair_scores(
        [frozenset(nodes[i] for i in w) for w in windows], nodes)
    assert len(keys) == 6_930 and keys.tolist() == want_keys.tolist()
    assert scores.tolist() == want_scores.tolist()
    assert peak <= 16 * 8 * (1 << 12) + 2 * (keys.nbytes + scores.nbytes)


def random_cover(rng, nodes):
    """A cover over ``nodes`` with singletons, empty sets, nested and
    overlapping communities, or none at all."""
    sets = [set(rng.choice(nodes, size=int(rng.integers(0, min(len(nodes), 9) + 1)),
                           replace=False).tolist())
            for _ in range(int(rng.integers(0, 7)))]
    if sets and rng.random() < 0.5:
        sets.append(set(list(sets[0])[:2]))  # nested in the first
    return Cover.from_sets(nodes, sets)


def test_accumulate_equals_the_reference_fold():
    # Sums whose keys lie before, between and after a run's keys, or that
    # hold none; each fold equals the key-by-key dict fold and the numpy
    # pair scores, keys and value bits.
    rng = np.random.Generator(np.random.PCG64(43))
    for trial in range(150):
        nodes = tuple(f"n{i:02d}" for i in range(int(rng.integers(1, 30))))
        l = len(nodes)
        keys, sums = np.empty(0, dtype=np.int64), np.empty(0)
        if l > 1 and rng.random() < 0.8:
            drawn = rng.choice(l, size=(int(rng.integers(1, 40)), 2)).tolist()
            pairs = sorted({(min(p), max(p)) for p in drawn if p[0] != p[1]})
            keys = np.array([a * l + b for a, b in pairs], dtype=np.int64)
            sums = rng.random(len(pairs))
        folded = keys.copy(), sums.copy()
        for _ in range(int(rng.integers(1, 4))):
            cover = random_cover(rng, nodes)
            run_keys, _ = numpy_pair_scores(cover, l)
            keys, sums = accumulate(nodes, keys, sums, cover)
            folded = reference.accumulate(nodes, *folded, [frozenset(c) for c in cover])
            assert np.array_equal(keys, folded[0]), trial
            assert sums.tobytes() == folded[1].tobytes(), trial
            assert set(run_keys.tolist()) <= set(keys.tolist()), trial
        assert keys.dtype == np.int64 and sums.dtype == np.float64


def test_accumulate_refuses_a_cover_outside_its_order():
    m = empty_matrix(["a", "b", "c"])
    for indptr, members in (([0, 2], [0, 3]), ([0, 2], [-1, 1]), ([0, 3], [0, 1]),
                            ([1, 2], [0, 1])):
        bad = Cover(m.order, np.array(indptr), np.array(members, dtype=np.int32))
        with pytest.raises(ValidationError, match="node positions"):
            accumulate(m.order, m.keys, np.empty(0), bad)
    assert len(m.keys) == 0


def test_the_kernel_fold_refuses_a_short_output():
    # One community of three folded into a matrix of one later key makes
    # four entries; with room for three the kernel writes nothing past them.
    kernel = importlib.import_module("listcom.kernel")
    groups, members = np.array([0, 3]), np.array([0, 1, 2], dtype=np.int32)
    keys, values = np.array([3 * 4 + 3]), np.array([0.5])
    lib = kernel.load()
    args = [4, 1, groups.ctypes.data, members.ctypes.data, 1, keys.ctypes.data,
            values.ctypes.data]
    for room in (3, 2):
        out_keys, out_values = np.full(4, -7), np.full(4, -7.0)
        assert lib.fold(*args, room, out_keys.ctypes.data, out_values.ctypes.data) == -2
        assert out_keys[room] == -7 and out_values[room] == -7.0
    assert lib.fold(*args, 4, out_keys.ctypes.data, out_values.ctypes.data) == 4
    assert out_keys.tolist() == [1, 2, 6, 15] and out_values.tolist() == [1, 1, 1, 0.5]


def planted_graph(noise=0.1, seed=3):
    spec = PlantedSpec(groups=3, users_per_group=20, lists_per_group=15,
                       size_min=5, size_max=12, noise=noise, overlap=0.1)
    corpus, _ = synth(spec, seed)
    return build_list_graph(corpus, 5.0)


def test_run_ensemble_r1_equals_single_run():
    graph = planted_graph()
    cfg = PipelineConfig(master_seed=4, runs=1, tau=0.2)
    matrix = run_ensemble(graph, cfg)
    base = detect(graph, FAST.with_seed(derive_seed(4, 0)))
    keys, sums = accumulate(graph.nodes, np.empty(0, dtype=np.int64), np.empty(0), base)
    assert np.array_equal(matrix.keys, keys)
    assert matrix.values.tolist() == [micro(v) for v in sums.tolist()]


def test_run_ensemble_mean_of_two_runs():
    # constant detectors: one run co-assigns (a,b), the other does not
    covers = [[{"a", "b"}], [{"a", "c"}]]

    def fake_detector(graph, config):
        fake_detector.calls += 1
        return Cover.from_sets(graph.nodes, covers[(fake_detector.calls - 1) % 2])

    fake_detector.calls = 0
    graph = graph_from_edges(("a", "b", "c"), {("a", "b"): 10**6})
    cfg = PipelineConfig(master_seed=0, runs=2, tau=0.0)
    matrix = run_ensemble(graph, cfg, detector=fake_detector)
    assert matrix.get("a", "b") == pytest.approx(0.5)
    assert matrix.get("a", "c") == pytest.approx(0.5)


def test_every_detection_gets_its_wired_seed_and_settings():
    # Run i gets derive_seed(master_seed, i) and the fast iterations, the
    # thorough pass the consensus stream's seed and the thorough
    # iterations, and both the configured overlap threshold.
    seen = []

    def recording_detector(graph, config):
        seen.append((config.seed, config.resolved_iterations, config.overlap_threshold))
        return Cover.from_sets(graph.nodes, [set(graph.nodes[:2])])

    graph = graph_from_edges(("a", "b", "c"), {("a", "b"): 10**6, ("b", "c"): 10**6})
    cfg = PipelineConfig(runs=4, tau=0.0, master_seed=42, fast_iterations=3,
                         thorough_iterations=7, overlap_threshold=0.25)
    matrix = run_ensemble(graph, cfg, detector=recording_detector)
    assert seen == [(derive_seed(42, i), 3, 0.25) for i in range(4)]
    seen.clear()
    consensus_communities(matrix, cfg, detector=recording_detector)
    assert seen == [(derive_seed(42, STREAM_CONSENSUS), 7, 0.25)]


def test_run_ensemble_deterministic_and_strategy_independent():
    # Batched through detect_runs, and one run at a time through the seam.
    graph = planted_graph()
    cfg = PipelineConfig(master_seed=11, runs=8, tau=0.2)
    m1 = run_ensemble(graph, cfg)
    m2 = run_ensemble(graph, cfg, detector=lambda g, c: detect(g, c))
    m3 = run_ensemble(graph, cfg)
    assert same_matrix(m1, m2) and same_matrix(m1, m3)


def test_entries_in_unit_range_and_sparse():
    graph = planted_graph()
    cfg = PipelineConfig(master_seed=2, runs=10, tau=0.2)
    matrix = run_ensemble(graph, cfg)
    l = len(matrix.order)
    assert 0 < len(matrix.keys) < l * (l - 1) // 2
    assert matrix.values.dtype == np.int64
    assert all(0 < v <= 10**6 for v in matrix.values.tolist())


def test_consensus_of_identical_base_sets_is_that_matrix():
    fixed = [{"a", "b", "c"}, {"c", "d"}]

    def constant_detector(graph, config):
        return Cover.from_sets(graph.nodes, fixed)

    graph = graph_from_edges(("a", "b", "c", "d"), {})
    cfg = PipelineConfig(master_seed=0, runs=7, tau=0.0)
    matrix = run_ensemble(graph, cfg, detector=constant_detector)
    single = fold(graph.nodes, Cover.from_sets(graph.nodes, fixed))
    assert entry_map(matrix).keys() == single.keys()
    for k, v in single.items():
        assert matrix.get(*k) == pytest.approx(v)
    # pairs with identical nonempty label sets across runs hit exactly 1
    assert matrix.get("a", "b") == pytest.approx(1.0)


def test_non_overlapping_partitions_reduce_to_binary_scores():
    def partition_detector(graph, config):
        # seed-dependent partition, never overlapping
        s = config.seed % 2
        if s == 0:
            return Cover.from_sets(graph.nodes, [{"a", "b"}, {"c", "d"}])
        return Cover.from_sets(graph.nodes, [{"a", "b", "c"}, {"d", "e"}])

    graph = graph_from_edges(("a", "b", "c", "d", "e"), {})
    cfg = PipelineConfig(master_seed=1, runs=6, tau=0.0)
    matrix = run_ensemble(graph, cfg, detector=partition_detector)
    # every per-run contribution is 0 or 1, so entries are multiples of 1/r,
    # in the micro-units of their 6-decimal strings
    assert len(matrix.values)
    for v in matrix.values.tolist():
        assert v == micro(round(v * 6 / 10**6) / 6)


@pytest.mark.parametrize("returned", [
    lambda graph: Cover.from_sets(graph.nodes + ("zz",), [{"a", "b"}]),
    lambda graph: Cover.from_sets(graph.nodes[1:], [{"b", "c"}]),
    lambda graph: [frozenset({"a", "b"})],
])
def test_a_detector_must_return_a_cover_over_the_graph_order(returned):
    graph = graph_from_edges(("a", "b", "c"), {("a", "b"): 10**6, ("b", "c"): 10**6})
    cfg = PipelineConfig(master_seed=0, runs=2, tau=0.0)
    with pytest.raises(ValidationError, match="node order"):
        run_ensemble(graph, cfg, detector=lambda g, c: returned(g))
    matrix = run_ensemble(graph, cfg)
    with pytest.raises(ValidationError, match="node order"):
        consensus_communities(matrix, cfg, detector=lambda g, c: returned(g))


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_accumulate_matches_brute_force_jaccard(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = [f"n{i}" for i in range(10)]
    m = empty_matrix(nodes)
    cover = cover_of(m, [
        rng.choice(nodes, size=int(rng.integers(2, 6)), replace=False).tolist()
        for _ in range(int(rng.integers(1, 5)))
    ])
    folded = fold(m.order, cover)
    labels = {n: set() for n in nodes}
    for cid, community in enumerate(cover):
        for n in community:
            labels[n].add(cid)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            expected = label_jaccard(labels[a], labels[b])
            assert folded.get((a, b), 0.0) == pytest.approx(expected), (a, b)


def test_consensus_graph_threshold_zero_keeps_all_entries():
    m = matrix_from_pairs("abc", {("a", "b"): 50_000, ("b", "c"): 900_000}, 1)
    g = consensus_graph(m, 0.0)
    assert set(edge_map(g)) == {("a", "b"), ("b", "c")}


def test_consensus_graph_tau_one_empty_when_below():
    m = matrix_from_pairs("ab", {("a", "b"): 950_000}, 1)
    g = consensus_graph(m, 1.0)
    assert g.edge_count() == 0
    cfg = PipelineConfig(master_seed=0, runs=1, tau=1.0)
    assert len(consensus_communities(m, cfg)) == 0


def test_consensus_graph_edge_count_monotone_in_tau():
    rng = np.random.Generator(np.random.PCG64(8))
    order = tuple(f"n{i}" for i in range(12))
    scores = {}
    for i in range(12):
        for j in range(i + 1, 12):
            if rng.random() < 0.5:
                scores[(order[i], order[j])] = int(rng.integers(10**6 + 1))
    m = matrix_from_pairs(order, scores, 1)
    taus = sorted(float(t) for t in rng.random(6))
    counts = [consensus_graph(m, t).edge_count() for t in taus]
    assert counts == sorted(counts, reverse=True)


def test_consensus_count_not_above_mean_base_count():
    graph = planted_graph()
    cfg = PipelineConfig(master_seed=5, runs=15, tau=0.2)
    matrix = run_ensemble(graph, cfg)
    consensus = consensus_communities(matrix, cfg)
    base_counts = [
        len(detect(graph, FAST.with_seed(derive_seed(5, i))))
        for i in range(15)
    ]
    assert len(consensus) <= sum(base_counts) / len(base_counts)


def test_matrix_round_trip_with_header(tmp_path):
    m = matrix_from_pairs("abc", {("a", "b"): 250_000, ("b", "c"): 10**6}, 12)
    path = tmp_path / "m.tsv"
    save_matrix(m, path)
    text = path.read_text("utf-8")
    assert text.startswith("#r=12\n")
    reloaded = load_matrix(path, order=m.order)
    assert reloaded.r == 12
    assert same_matrix(reloaded, m)


def test_load_matrix_reads_the_scores_as_written(tmp_path):
    # Scores below 5e-7 print as 0.000000 and are dropped, the others are
    # read in the micro-units of their written string; nodes without
    # entries stay in the order.
    scores = {("a", "b"): 0.1234565, ("a", "c"): 4.9e-7, ("a", "d"): 2.5e-7,
              ("b", "c"): 1.0, ("b", "d"): 1 / 3, ("c", "d"): 0.7500005}
    path = tmp_path / "m.tsv"
    path.write_text("#r=7\n" + "".join(f"{a}\t{b}\t{v!r}\n" for (a, b), v in scores.items()),
                    encoding="utf-8")
    reloaded = load_matrix(path, order="abcde")
    written = {pair: micro(v) for pair, v in scores.items() if micro(v) > 0}
    assert same_matrix(reloaded, matrix_from_pairs("abcde", written, 7))
    assert save_matrix(reloaded, tmp_path / "s.tsv") is None
    assert same_matrix(load_matrix(tmp_path / "s.tsv", order="abcde"), reloaded)
    assert set(entry_map(reloaded)) == set(scores) - {("a", "c"), ("a", "d")}
    assert reloaded.order == ("a", "b", "c", "d", "e")
    assert reloaded.r == 7


def test_cover_agreement_bounds():
    nodes = ("a", "b", "c", "d")
    a = Cover.from_sets(nodes, [{"a", "b"}, {"c", "d"}])
    assert cover_agreement(a, a) == 1.0
    b = Cover.from_sets(nodes, [{"a", "c"}, {"b", "d"}])
    assert 0.0 <= cover_agreement(a, b) < 1.0
    empty = Cover.from_sets(nodes, [])
    assert cover_agreement(empty, empty) == 1.0
    assert cover_agreement(a, empty) == 0.0


# Explicit ids keep each case's test name when its message changes.
@pytest.mark.parametrize("rows, message", [
    pytest.param("a\tb\t0.5\nb\ta\t0.25\n", r"m\.tsv:3: duplicate pair \('a', 'b'\)",
                 id="a\tb\t0.5\nb\ta\t0.25\n-listed twice"),
    pytest.param("a\ta\t0.5\n", r"m\.tsv:2: self-pair on 'a'", id="a\ta\t0.5\n-diagonal"),
    pytest.param("a\tz\t0.5\n", r"m\.tsv:2: node 'z' not in the node list",
                 id="a\tz\t0.5\n-outside the given order"),
    pytest.param("a\tb\tnan\n", r"m\.tsv:2: value out of range \[0, 1\]",
                 id="a\tb\tnan\n-" r"m\.tsv:2: score out of range"),
    # Sorted, the rows are a-b, a-b, c-d, c-d: the first second copy in the
    # file is c-d on line 4, behind the header.
    ("c\td\t0.5\na\tb\t0.5\nc\td\t0.5\na\tb\t0.5\n",
     r"m\.tsv:4: duplicate pair \('c', 'd'\)"),
    pytest.param("c\td\t0.5\na\tb\t2.0\n", r"m\.tsv:3: value out of range \[0, 1\]",
                 id="c\td\t0.5\na\tb\t2.0\n-" r"m\.tsv:3: score out of range"),
])
def test_load_matrix_rejects_bad_pairs(tmp_path, rows, message):
    path = tmp_path / "m.tsv"
    path.write_text("#r=2\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_matrix(path, order=("a", "b", "c", "d"))


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_load_matrix_rejects_a_run_count_below_1(tmp_path, runs):
    path = tmp_path / "m.tsv"
    path.write_text(f"#r={runs}\na\tb\t0.5\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=rf"m\.tsv:1: run count {runs} is below 1"):
        load_matrix(path, order=("a", "b"))
