"""Acceptance suite: one test per release criterion, one PASS line each.

Exact-oracle and property-based checks at desk scale, plus reproduction of
the published validation-table arithmetic.  Every tolerance is pinned here.
"""
import itertools
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

from listcom import consensus
from listcom.consensus import (consensus_communities, consensus_graph,
                               cover_agreement, label_jaccard, run_ensemble)
from listcom.corpus import ListRecord, MembershipCorpus, load_ground_truth
from listcom.detect import Cover, detect
from listcom.listgraph import build_list_graph, overlap_pvalue
from listcom.members import derive_members, evaluate, f1_score, load_users
from listcom.pipeline import ARTIFACTS, PipelineConfig, run_pipeline
from listcom.seeds import derive_seed
from listcom.stability import (corrected_stability, expected_stability,
                               rank_communities, raw_stability)
from listcom.synth import PlantedSpec, synth, synth_files
from reference import FAST, cover_sets, edge_map, id_sets, matrix_from_pairs, micro

BENCH_SPEC = PlantedSpec(groups=8, users_per_group=25, lists_per_group=40,
                         size_min=5, size_max=15, noise=0.1, overlap=0.1)
BENCH_SEED = 42


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_hypergeometric_oracle():
    """Exact rational enumeration over every feasible case with n <= 30."""
    t0 = time.perf_counter()
    cases = 0
    worst = 0.0
    for n in range(1, 31):
        for sx in range(1, n + 1):
            for sy in range(1, n + 1):
                den = comb(n, sy)
                hi = min(sx, sy)
                for k in range(0, hi + 1):
                    num = sum(
                        comb(sx, j) * comb(n - sx, sy - j)
                        for j in range(k, hi + 1)
                        if sy - j <= n - sx
                    )
                    exact = num / den
                    got = overlap_pvalue(sx, sy, k, n)
                    rel = abs(got - exact) / exact
                    worst = max(worst, rel)
                    cases += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report("1 hypergeometric oracle",
           f"{cases} cases, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_jaccard_label_cases():
    """The four co-assignment scoring cases: 0.0, 1.0, 1.0, 0.5 exactly."""
    got = (
        label_jaccard({"c1"}, {"c2"}),
        label_jaccard({"c1"}, {"c1"}),
        label_jaccard({"c1", "c2"}, {"c1", "c2"}),
        label_jaccard({"c1"}, {"c1", "c2"}),
    )
    assert got == (0.0, 1.0, 1.0, 0.5)
    report("2 jaccard co-assignment cases", f"scores {got}")


# (category, size, precision, recall, f1) as published, all 2-decimal.
VALIDATION_TABLE = [
    ("judo", 20, 1.00, 0.65, 0.79),
    ("basketball", 26, 1.00, 0.50, 0.67),
    ("rowing", 44, 1.00, 0.43, 0.60),
    ("athletics", 50, 1.00, 0.22, 0.36),
    ("cycling", 28, 1.00, 0.14, 0.25),
    ("hockey", 47, 0.98, 0.91, 0.95),
    ("diving", 23, 0.95, 0.91, 0.93),
    ("equestrianism", 18, 0.94, 0.83, 0.88),
    ("fencing", 23, 0.88, 0.91, 0.89),
    ("sailing", 16, 0.82, 0.56, 0.67),
    ("gymnastics", 24, 0.77, 0.42, 0.54),
    ("canoeing", 22, 0.76, 0.73, 0.74),
    ("beach-volleyball", 12, 0.55, 1.00, 0.71),
    ("boxing", 22, 0.55, 0.55, 0.55),
    ("swimming-syncrho", 16, 0.33, 0.13, 0.18),
    ("weightlifting", 6, 0.20, 0.17, 0.18),
    ("archery", 17, 0.20, 0.06, 0.09),
    ("waterpolo", 22, 0.05, 0.05, 0.05),
]


def test_criterion_3_validation_table_arithmetic():
    """All 18 published F1 values follow from their (P, R) columns.

    P and R are printed to two decimals, so each row is checked against the
    F1 interval attainable from any unrounded pair within a half-ulp box
    around the printed values; the headline row must also match directly to
    +-0.005.  Two rows (hockey, swimming-syncrho) differ by ~0.0065 when F1
    is recomputed from the rounded P and R alone, which is exactly the
    input-rounding slack the interval check covers.
    """
    assert f1_score(1.00, 0.65) == pytest.approx(0.79, abs=0.005)
    for name, _size, p, r, f1 in VALIDATION_TABLE:
        direct = f1_score(p, r)
        assert direct == pytest.approx(f1, abs=0.01), name
        lo = f1_score(max(p - 0.005, 0.0), max(r - 0.005, 0.0)) - 0.005
        hi = f1_score(min(p + 0.005, 1.0), min(r + 0.005, 1.0)) + 0.005
        assert lo <= f1 <= hi, name
    report("3 validation-table arithmetic",
           "18 rows; F1(1.00, 0.65) = "
           f"{f1_score(1.0, 0.65):.4f} vs 0.79")


def _mean_best_match_f1(out_dir, truth_path) -> float:
    truth = load_ground_truth(truth_path)
    core = frozenset().union(*truth.categories.values())
    rows = evaluate(load_users(Path(out_dir) / ARTIFACTS["users"]), truth, core)
    return sum(row.f1 for row in rows) / len(rows)


def test_criterion_4_planted_recovery(tmp_path):
    """End-to-end pipeline on the planted benchmark recovers the groups."""
    t0 = time.perf_counter()
    paths = synth_files(BENCH_SPEC, BENCH_SEED, tmp_path / "data")
    config = PipelineConfig(rho=6.0, runs=20, tau=0.2, mu=0.1,
                            master_seed=1)
    out = tmp_path / "run"
    run_pipeline(paths["memberships"], paths["lists"], out, config,
                 groundtruth_path=paths["groundtruth"])
    mean_f1 = _mean_best_match_f1(out, paths["groundtruth"])
    elapsed = time.perf_counter() - t0
    assert mean_f1 >= 0.90
    assert elapsed < 60.0
    report("4 planted recovery", f"mean best-match F1 {mean_f1:.4f}, "
           f"{elapsed:.1f}s end to end")


def test_criterion_5_consensus_stabilizes_noisy_detections(tmp_path):
    """Consensus covers agree across master seeds more than base runs do."""
    spec = PlantedSpec(groups=8, users_per_group=25, lists_per_group=40,
                       size_min=5, size_max=15, noise=0.25, overlap=0.1)
    corpus, _truth = synth(spec, BENCH_SEED)
    graph = build_list_graph(corpus, 6.0)

    # A detection holds no singletons.
    bases = [
        detect(graph, FAST.with_seed(derive_seed(999, i)))
        for i in range(10)
    ]
    pairs = list(itertools.combinations(bases, 2))
    base_agreement = sum(cover_agreement(a, b) for a, b in pairs) / len(pairs)

    covers = []
    for master in (101, 202):
        ens = PipelineConfig(master_seed=master, runs=20, tau=0.2)
        matrix = run_ensemble(graph, ens)
        covers.append(consensus_communities(matrix, ens))
    consensus_agreement = cover_agreement(covers[0], covers[1])

    assert consensus_agreement > base_agreement
    report("5 consensus stabilization",
           f"consensus {consensus_agreement:.3f} > base {base_agreement:.3f} "
           "mean best-match agreement")


def planted_consensus_matrix(blocks=16, block_size=20, r=20):
    """Matrix whose co-assignment is exactly the planted block structure."""
    order = tuple(f"b{i:03d}" for i in range(blocks * block_size))
    scores = {}
    communities = []
    for b in range(blocks):
        members = order[b * block_size:(b + 1) * block_size]
        communities.append(frozenset(members))
        for a, c in itertools.combinations(members, 2):
            scores[(a, c)] = 10**6
    return matrix_from_pairs(order, scores, r), communities


def test_criterion_6_stability_discrimination():
    """Planted-clean communities score >= 0.9; random same-size sets ~0."""
    matrix, planted = planted_consensus_matrix()
    l = len(matrix.order)
    rng = np.random.Generator(np.random.PCG64(77))
    random_sets = [
        frozenset(np.array(matrix.order)[rng.choice(l, size=20, replace=False)].tolist())
        for _ in range(20)
    ]
    cover = Cover.from_sets(matrix.order, planted + random_sets)
    assert len(cover) == len(planted) + len(random_sets)
    ids = cover_sets(cover)
    scored = {ids[k]: score for k, score in rank_communities(cover, matrix)}
    planted_scores = [scored[c].corrected for c in map(frozenset, planted)]
    random_scores = [scored[c].corrected for c in random_sets]
    assert all(s >= 0.9 for s in planted_scores)
    assert all(abs(s) <= 0.1 for s in random_scores)
    # the single-community operation agrees with the batch ranking
    direct = corrected_stability(planted[0], matrix)
    assert direct == scored[frozenset(planted[0])]
    report("6 stability discrimination",
           f"planted corrected min {min(planted_scores):.3f}, "
           f"random |corrected| max {max(abs(s) for s in random_scores):.3f}")


def test_criterion_7_expected_stability_monte_carlo():
    """The closed-form expected stability within 1e-12 of exhaustive subset
    enumeration (it was a 50k-draw Monte Carlo estimate within 0.01)."""
    rng = np.random.Generator(np.random.PCG64(5150))
    order = tuple(f"n{i}" for i in range(10))
    scores = {}
    for a, b in itertools.combinations(order, 2):
        if rng.random() < 0.6:
            scores[(a, b)] = micro(rng.random())
    matrix = matrix_from_pairs(order, scores, 10)
    size = 4
    exact = np.mean([
        raw_stability(set(subset), matrix)
        for subset in itertools.combinations(order, size)
    ])
    estimate = expected_stability(size, matrix)
    assert abs(estimate - exact) <= 1e-12
    report("7 expected-stability closed form",
           f"|{estimate:.5f} - {exact:.5f}| = {abs(estimate - exact):.1e}")


def test_criterion_8_execution_strategy_determinism(tmp_path, monkeypatch):
    """The batched ensemble and one detection at a time through the
    ``detector`` seam produce byte-identical bundles."""
    spec = PlantedSpec(groups=4, users_per_group=18, lists_per_group=12,
                       size_min=5, size_max=12, noise=0.1, overlap=0.1)
    paths = synth_files(spec, 9, tmp_path / "data")
    batched = consensus.run_ensemble
    seam_calls = []

    def run_at_a_time(graph, config):
        seam_calls.append(config.runs)
        return batched(graph, config, detector=lambda g, c: detect(g, c))

    bundles = {}
    for strategy in ("batched", "run-at-a-time"):
        if strategy == "run-at-a-time":
            monkeypatch.setattr(consensus, "run_ensemble", run_at_a_time)
        out = tmp_path / strategy
        config = PipelineConfig(runs=8, master_seed=5)
        run_pipeline(paths["memberships"], paths["lists"], out, config,
                     groundtruth_path=paths["groundtruth"])
        bundles[strategy] = {
            name: (out / fname).read_bytes()
            for name, fname in ARTIFACTS.items()
        }
    assert seam_calls == [8]
    assert bundles["batched"] == bundles["run-at-a-time"]
    report("8 execution-strategy determinism",
           f"{len(bundles['batched'])} artifacts byte-identical, batched "
           "and run at a time")


def test_criterion_9_scale_smoke():
    """>= 5,000 nodes and >= 500k edges; graph + r=20 ensemble inside 10 min."""
    t0 = time.perf_counter()
    spec = PlantedSpec(groups=25, users_per_group=30, lists_per_group=220,
                       size_min=22, size_max=28, noise=0.05, overlap=0.0)
    corpus, _ = synth(spec, 7)
    graph = build_list_graph(corpus, 6.0)
    assert len(graph.nodes) >= 5_000
    assert graph.edge_count() >= 500_000
    ens = PipelineConfig(master_seed=3, runs=20, tau=0.2)
    matrix = run_ensemble(graph, ens)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report("9 scale smoke", f"{len(graph.nodes)} nodes, "
           f"{graph.edge_count()} edges, {len(matrix.keys)} consensus "
           f"entries in {elapsed:.0f}s")


def _random_corpus(rng, lists=8, users=30):
    ids = [f"u{i}" for i in range(users)]
    memberships = {
        f"l{j}": set(rng.choice(ids, size=int(rng.integers(2, 9)),
                                replace=False).tolist())
        for j in range(lists)
    }
    return MembershipCorpus.build(
        [ListRecord(lid, "", "") for lid in memberships], memberships)


def test_criterion_10_threshold_monotonicity():
    """rho/tau/mu threshold sweeps shrink monotonically; 200 cases each."""
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(200):
        corpus = _random_corpus(rng)
        rho_lo = float(rng.random() * 3)
        rho_hi = rho_lo + float(rng.random() * 4)
        lo = build_list_graph(corpus, rho_lo)
        hi = build_list_graph(corpus, rho_hi)
        assert set(edge_map(hi)) <= set(edge_map(lo))

    for _ in range(200):
        order = tuple(f"n{i}" for i in range(10))
        scores = {}
        for a, b in itertools.combinations(order, 2):
            if rng.random() < 0.5:
                scores[(a, b)] = micro(rng.random())
        matrix = matrix_from_pairs(order, scores, 5)
        t1 = float(rng.random())
        t2 = min(1.0, t1 + float(rng.random()))
        assert set(edge_map(consensus_graph(matrix, t2))) <= set(
            edge_map(consensus_graph(matrix, t1)))

    for _ in range(200):
        corpus = _random_corpus(rng, lists=6, users=20)
        cover = Cover.from_sets(corpus.list_ids, [set(id_sets(corpus)[0])])
        m1 = float(rng.random() * 0.5)
        m2 = min(1.0, m1 + float(rng.random() * 0.5))
        lo = derive_members(cover, corpus, m1).members(0)
        hi = derive_members(cover, corpus, m2).members(0)
        assert set(hi) <= set(lo)

    report("10 threshold monotonicity", "rho, tau, mu: 200 cases each")
