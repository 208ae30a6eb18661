import importlib
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from listcom.detect import Cover
from listcom.errors import ValidationError
from listcom.stability import (corrected_stability, expected_stability,
                               rank_communities, raw_stabilities, raw_stability,
                               write_ranking)
from reference import cover_sets, matrix_from_pairs, mean_pair_score, micro


def matrix_from(order, pairs, r=10):
    """The matrix of ``{(a, b): score}``, each score in the micro-units of
    its 6-decimal string."""
    return matrix_from_pairs(sorted(order), {pair: micro(v) for pair, v in pairs.items()}, r)


def test_raw_constant_one():
    m = matrix_from("abc", {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0})
    assert raw_stability({"a", "b", "c"}, m) == 1.0


def test_raw_with_absent_entry():
    m = matrix_from("abc", {("a", "b"): 0.6, ("a", "c"): 0.4})
    assert raw_stability({"a", "b", "c"}, m) == pytest.approx(1 / 3)


def test_raw_over_a_matrix_without_entries():
    m = matrix_from("abcd", {})
    assert raw_stability({"a", "b", "c"}, m) == 0.0
    cover = Cover.from_sets(m.order, [{"a", "b", "c"}, {"c", "d"}, {"d"}])
    raws = raw_stabilities(cover, m).tolist()
    assert raws[:2] == [0.0, 0.0] and math.isnan(raws[2])


def test_raw_single_pair():
    m = matrix_from("ab", {("a", "b"): 0.25})
    assert raw_stability({"a", "b"}, m) == 0.25


def test_raw_rejects_undersized_community():
    m = matrix_from("ab", {})
    with pytest.raises(ValidationError):
        raw_stability({"a"}, m)


def test_expected_zero_matrix():
    m = matrix_from("abcdef", {})
    assert expected_stability(3, m) == 0.0


def test_expected_constant_half_matrix():
    order = "abcdefgh"
    pairs = {(a, b): 0.5 for a, b in combinations(order, 2)}
    m = matrix_from(order, pairs)
    for size in (2, 4, 7):
        assert expected_stability(size, m) == 0.5


def test_expected_matches_enumeration_four_nodes():
    rng = np.random.Generator(np.random.PCG64(17))
    order = "abcd"
    pairs = {(a, b): float(rng.random()) for a, b in combinations(order, 2)}
    m = matrix_from(order, pairs)
    # The mean over all C(4,2) size-2 subsets of the scores as held.
    exact = sum(micro(v) for v in pairs.values()) / 6 / 10**6
    assert expected_stability(2, m) == pytest.approx(exact, abs=1e-12)


def test_expected_deterministic():
    m = matrix_from("abcdef", {("a", "b"): 0.7, ("c", "d"): 0.2})
    # The sum of entries over C(6, 2), exact and then rounded once.
    exact = float(Fraction(700_000 + 200_000, 15 * 10**6))
    assert [expected_stability(size, m) for size in range(2, 7)] == [exact] * 5
    assert expected_stability(3, m) == exact


def test_expected_validates_size():
    m = matrix_from("abc", {})
    with pytest.raises(ValidationError):
        expected_stability(4, m)
    with pytest.raises(ValidationError):
        expected_stability(1, m)


def test_corrected_perfect_community():
    order = "abcdefgh"
    pairs = {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0}
    m = matrix_from(order, pairs)
    score = corrected_stability({"a", "b", "c"}, m)
    assert score.raw == 1.0
    assert score.expected == 3 / 28
    assert score.corrected == 1.0


def test_corrected_zero_when_raw_equals_expected():
    order = "abcdef"
    pairs = {(a, b): 0.5 for a, b in combinations(order, 2)}
    m = matrix_from(order, pairs)
    score = corrected_stability({"a", "b", "c"}, m)
    assert score.raw == pytest.approx(0.5)
    assert score.expected == 0.5
    assert score.corrected == pytest.approx(0.0, abs=1e-12)


def test_corrected_saturated_matrix_guard():
    order = "abcd"
    pairs = {(a, b): 1.0 for a, b in combinations(order, 2)}
    m = matrix_from(order, pairs)
    score = corrected_stability({"a", "b"}, m)
    assert score.expected == 1.0
    assert score.corrected == 0.0  # raw == expected on a saturated matrix


def test_shift_sensitivity_noise_decreases_raw():
    order = "abcdxyz"
    pairs = {(a, b): 1.0 for a, b in combinations("abcd", 2)}
    m = matrix_from(order, pairs)
    perfect = raw_stability(set("abcd"), m)
    widened = raw_stability(set("abcdx"), m)
    assert widened < perfect


def test_rank_planted_above_noise():
    order = [f"n{i}" for i in range(12)]
    planted = set(order[:4])
    noise = set(order[4:8])
    pairs = {}
    for a, b in combinations(sorted(planted), 2):
        pairs[(a, b)] = 1.0
    for a, b in combinations(sorted(noise), 2):
        pairs[(a, b)] = 0.1
    m = matrix_from(order, pairs)
    cover = Cover.from_sets(m.order, [planted, noise])
    ranked = rank_communities(cover, m)
    assert cover.id_lists()[ranked[0][0]] == sorted(planted)
    assert ranked[0][1].corrected > ranked[1][1].corrected


def test_rank_sorting_and_ties():
    order = [f"n{i}" for i in range(10)]
    strong = set(order[:3])
    weak = set(order[3:6])
    pairs = {}
    for a, b in combinations(sorted(strong), 2):
        pairs[(a, b)] = 1.0
    for a, b in combinations(sorted(weak), 2):
        pairs[(a, b)] = 0.5
    m = matrix_from(order, pairs)
    ranked = rank_communities(Cover.from_sets(m.order, [strong, weak]), m)
    assert [r[1].corrected for r in ranked] == sorted(
        (r[1].corrected for r in ranked), reverse=True)
    single = rank_communities(Cover.from_sets(m.order, [strong]), m)
    assert len(single) == 1


def test_rank_uses_one_expected_per_matrix():
    order = [f"n{i}" for i in range(10)]
    pairs = {("n0", "n1"): 1.0, ("n2", "n3"): 0.4}
    m = matrix_from(order, pairs)
    cover = Cover.from_sets(m.order, [{"n0", "n1"}, {"n2", "n3", "n4"}])
    ranked = rank_communities(cover, m)
    exact = math.fsum([1.0, 0.4]) / 45  # sum of entries over C(10, 2)
    assert [score.expected for _, score in ranked] == [exact, exact]


def test_rank_order_is_raw_descending_with_tie_breaks():
    order = [f"n{i:02d}" for i in range(12)]
    rng = np.random.Generator(np.random.PCG64(8))
    pairs = {(a, b): float(rng.choice([0.25, 0.5, 1.0]))
             for a, b in combinations(order, 2) if rng.random() < 0.5}
    m = matrix_from(order, pairs)
    cover = Cover.from_sets(m.order, (
        rng.choice(order, size=int(rng.integers(2, 6)), replace=False).tolist()
        for _ in range(40)))
    ranked = rank_communities(cover, m)
    ids = cs = cover_sets(cover)
    assert [ids[k] for k, _ in ranked] == sorted(
        (c for c in cs if len(c) >= 2),
        key=lambda c: (-raw_stability(c, m), -len(c), tuple(sorted(c))))


def test_rank_matches_corrected_stability_op():
    order = [f"n{i}" for i in range(9)]
    pairs = {("n0", "n1"): 0.9, ("n0", "n2"): 0.8, ("n1", "n2"): 0.7}
    m = matrix_from(order, pairs)
    community = {"n0", "n1", "n2"}
    ranked = rank_communities(Cover.from_sets(m.order, [community]), m)
    direct = corrected_stability(community, m)
    assert ranked[0][1] == direct


def test_write_ranking_format(tmp_path):
    order = "abcd"
    pairs = {("a", "b"): 1.0}
    m = matrix_from(order, pairs)
    cover = Cover.from_sets(m.order, [{"a", "b"}, {"c", "d"}])
    ranked = rank_communities(cover, m)
    path = tmp_path / "rank.tsv"
    write_ranking(ranked, cover, path)
    lines = path.read_text("utf-8").splitlines()
    assert len(lines) == 2
    first = lines[0].split("\t")
    assert first[0] == "1"
    assert len(first[1].split(".")[-1]) == 2  # corrected printed to 2 decimals
    assert first[4] == "2"


def test_stability_memory_follows_the_block(monkeypatch):
    # 21 windows of 100 consecutive nodes out of 120, over a matrix that
    # holds every pair: member a's row has 119 - a entries, so the walk
    # covers 124,950 entries, 30 blocks' worth.
    stability = importlib.import_module("listcom.stability")
    monkeypatch.setattr(stability, "PAIR_BLOCK", 1 << 12)
    nodes = tuple(f"n{i:03d}" for i in range(120))
    rng = np.random.Generator(np.random.PCG64(31))
    m = matrix_from_pairs(nodes, {pair: int(rng.integers(10**6 + 1))
                                  for pair in combinations(nodes, 2)}, 1)
    windows = [list(range(k, k + 100)) for k in range(21)]
    cover = Cover.from_groups(nodes, [100] * 21, np.concatenate(windows))
    tracemalloc.start()
    try:
        raws = raw_stabilities(cover, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = dict(zip(m.keys.tolist(), m.values.tolist()))
    assert raws.tolist() == [mean_pair_score(w, entries, len(nodes)) for w in windows]
    assert peak <= 16 * 8 * stability.PAIR_BLOCK + 2 * (m.keys.nbytes + m.values.nbytes)
