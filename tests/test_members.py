import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.corpus import GroundTruth, ListRecord, MembershipCorpus
from listcom.errors import ValidationError
from listcom.members import (UserCommunity, derive_members, evaluate, f1_score,
                             load_users, report_json, write_eval, write_users)
import reference
from reference import id_sets, random_corpus


def corpus_from(memberships):
    return MembershipCorpus.build(
        [ListRecord(lid, "", "") for lid in memberships], memberships)


def test_derive_members_quarter_weight_included():
    corpus = corpus_from({
        "l0": {"u1", "u2"}, "l1": {"u2"}, "l2": {"u2"}, "l3": {"u2"},
    })
    uc = derive_members({"l0", "l1", "l2", "l3"}, corpus, mu=0.1)
    assert uc.members["u1"] == pytest.approx(0.25)
    assert uc.members["u2"] == 1.0


def test_derive_members_full_weight():
    corpus = corpus_from({"l0": {"u"}, "l1": {"u"}})
    uc = derive_members({"l0", "l1"}, corpus, mu=0.5)
    assert uc.members == {"u": 1.0}


def test_derive_members_mu_excludes():
    corpus = corpus_from({f"l{i}": {"rare"} if i == 0 else {"common"}
                          for i in range(10)})
    uc = derive_members({f"l{i}" for i in range(10)}, corpus, mu=0.2)
    assert "rare" not in uc.members
    assert uc.members["common"] == pytest.approx(0.9)


def test_derive_members_weight_exactly_mu_included():
    corpus = corpus_from({f"l{i}": {"edge"} if i == 0 else {"x"}
                          for i in range(10)})
    uc = derive_members({f"l{i}" for i in range(10)}, corpus, mu=0.1)
    assert uc.members["edge"] == pytest.approx(0.1)


def test_derive_members_empty_community_rejected():
    corpus = corpus_from({"l0": {"u"}})
    with pytest.raises(ValidationError):
        derive_members(set(), corpus, mu=0.1)


def test_derive_members_rejects_a_list_outside_the_corpus():
    corpus = corpus_from({"l0": {"u1"}, "l1": {"u1", "u2"}})
    with pytest.raises(ValidationError, match="'ghost'"):
        derive_members({"l0", "ghost"}, corpus, mu=0.1)


@pytest.mark.parametrize("seed", range(10))
def test_derive_members_matches_reference(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    corpus = random_corpus(rng)
    memberships, _ = id_sets(corpus)
    for _ in range(20):
        size = int(rng.integers(1, len(corpus.list_ids) + 1))
        community = set(rng.choice(corpus.list_ids, size=size, replace=False).tolist())
        mu = float(rng.choice([0.0, 0.1, 0.25, rng.random()]))
        derived = derive_members(community, corpus, mu)
        assert derived.members == reference.derive_members(community, memberships, mu)


@given(
    seed=st.integers(0, 10_000),
    mu_lo=st.floats(0.0, 0.5),
    mu_delta=st.floats(0.0, 0.5),
)
@settings(max_examples=100, deadline=None)
def test_weights_are_vote_fractions_and_mu_monotone(seed, mu_lo, mu_delta):
    rng = np.random.Generator(np.random.PCG64(seed))
    users = [f"u{i}" for i in range(12)]
    memberships = {
        f"l{j}": set(rng.choice(users, size=int(rng.integers(1, 6)),
                                replace=False).tolist())
        for j in range(6)
    }
    corpus = corpus_from(memberships)
    community = set(memberships)
    c = len(community)
    full = derive_members(community, corpus, mu=0.0)
    # weights are multiples of 1/c and votes add up to the membership records
    total_records = sum(len(m) for m in memberships.values())
    assert sum(round(w * c) for w in full.members.values()) == total_records
    for w in full.members.values():
        assert round(w * c) == pytest.approx(w * c)
    lo = derive_members(community, corpus, mu=mu_lo)
    hi = derive_members(community, corpus, mu=min(1.0, mu_lo + mu_delta))
    assert set(hi.members) <= set(lo.members)


def uc(cid, members):
    return UserCommunity(community_id=cid, members={u: 1.0 for u in members})


def test_f1_from_rounded_paper_row():
    assert f1_score(1.00, 0.65) == pytest.approx(0.79, abs=0.005)


def test_evaluate_exact_match():
    truth = GroundTruth({"cat": frozenset({"a", "b"})})
    rows = evaluate([uc(0, {"a", "b"})], truth, {"a", "b"})
    assert rows[0].precision == rows[0].recall == rows[0].f1 == 1.0
    assert rows[0].matched_community == 0


def test_evaluate_disjoint():
    truth = GroundTruth({"cat": frozenset({"a"})})
    rows = evaluate([uc(0, {"b"})], truth, {"a", "b"})
    assert rows[0].precision == rows[0].recall == rows[0].f1 == 0.0


def test_evaluate_matches_by_precision_then_recall_then_id():
    truth = GroundTruth({"cat": frozenset({"a", "b", "c", "d"})})
    communities = [
        uc(0, {"a", "x"}),            # P=0.5
        uc(1, {"a", "b"}),            # P=1.0, R=0.5
        uc(2, {"a", "b", "c"}),       # P=1.0, R=0.75  <- best
        uc(3, {"c", "d"}),            # P=1.0, R=0.5 (ties with 1, higher id)
    ]
    rows = evaluate(communities, truth, {"a", "b", "c", "d", "x"})
    assert rows[0].matched_community == 2
    truth2 = GroundTruth({"cat": frozenset({"a", "b"})})
    rows2 = evaluate([uc(0, {"a"}), uc(1, {"b"})], truth2, {"a", "b"})
    assert rows2[0].matched_community == 0  # equal P and R: smaller id


def test_evaluate_restricts_to_core():
    truth = GroundTruth({"cat": frozenset({"a"})})
    # "z" is outside the core universe, so precision ignores it
    rows = evaluate([uc(0, {"a", "z"})], truth, {"a"})
    assert rows[0].precision == 1.0


def test_evaluate_skips_empty_category_with_warning():
    truth = GroundTruth({"full": frozenset({"a"}), "empty": frozenset()})
    with pytest.warns(UserWarning):
        rows = evaluate([uc(0, {"a"})], truth, {"a"})
    assert [r.category for r in rows] == ["full"]


def test_evaluate_rows_sorted_by_precision_then_recall():
    truth = GroundTruth({
        "one": frozenset({"a", "b"}),
        "two": frozenset({"c"}),
        "three": frozenset({"d", "e"}),
    })
    communities = [uc(0, {"a", "b"}), uc(1, {"c", "x"}), uc(2, {"d"})]
    rows = evaluate(communities, truth, {"a", "b", "c", "d", "e", "x"})
    keys = [(r.precision, r.recall) for r in rows]
    assert keys == sorted(keys, reverse=True)


def test_f1_between_min_and_max():
    for p, r in [(0.9, 0.3), (0.5, 0.5), (1.0, 0.1)]:
        f1 = f1_score(p, r)
        assert min(p, r) <= f1 <= max(p, r)


def test_write_users_and_reload(tmp_path):
    corpus = corpus_from({"l0": {"u1", "u2"}, "l1": {"u1"}})
    derived = derive_members({"l0", "l1"}, corpus, mu=0.1, community_id=0)
    path = tmp_path / "users.json"
    write_users([derived], path, stability_by_id={0: 0.95},
                labels_by_id={0: ["tag"]})
    payload = json.loads(path.read_text("utf-8"))
    assert payload[0]["stability"] == 0.95
    assert payload[0]["labels"] == ["tag"]
    weights = [u["weight"] for u in payload[0]["users"]]
    assert weights == sorted(weights, reverse=True)
    reloaded = load_users(path)
    assert reloaded[0].members == pytest.approx(derived.members)


def test_write_eval_mirrors_table_columns(tmp_path):
    truth = GroundTruth({"judo": frozenset({f"u{i}" for i in range(20)})})
    rows = evaluate([uc(3, {f"u{i}" for i in range(13)})], truth,
                    {f"u{i}" for i in range(20)})
    path = tmp_path / "eval.tsv"
    write_eval(rows, truth, path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0].split("\t") == [
        "category", "size", "precision", "recall", "f1", "matched_community"]
    fields = lines[1].split("\t")
    assert fields[0] == "judo"
    assert fields[1] == "20"
    assert fields[2] == "1.00"
    assert fields[3] == "0.65"
    assert fields[4] == "0.79"


def test_report_json_equals_json_dumps():
    # Ids and labels with non-ASCII characters, quotes, backslashes and
    # control characters; empty payloads, label lists and user lists; a
    # missing stability and one that is not finite.
    rng = random.Random(7)
    chars = ["a", "Z", "é", "ß", "東", "😀", '"', "\\", "/", "\n", "\t", "\x00",
             "\x1f", "\x7f", "\u2028", " "]

    def text():
        return "".join(rng.choice(chars) for _ in range(rng.randrange(6)))

    payloads = [[]]
    for _ in range(300):
        payloads.append([
            {"community_id": rng.randrange(10**6),
             "stability": rng.choice([None, round(rng.random(), 6), 0.0, 1.0, -0.25,
                                      1e-7, float("nan"), float("inf")]),
             "labels": [text() for _ in range(rng.randrange(4))],
             "users": [{"id": text(), "weight": round(rng.random(), 6)}
                       for _ in range(rng.randrange(4))]}
            for _ in range(rng.randrange(4))])
    for payload in payloads:
        assert report_json(payload) == json.dumps(payload, ensure_ascii=False, indent=1)
