import json
import random
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.corpus import GroundTruth, ListRecord, MembershipCorpus
from listcom.detect import Cover
from listcom.errors import ValidationError
from listcom.members import (UserCommunities, derive_members, evaluate, f1_score,
                             load_users, write_eval, write_users)
import reference
from reference import id_sets, random_corpus


def corpus_from(memberships):
    return MembershipCorpus.build(
        [ListRecord(lid, "", "") for lid in memberships], memberships)


def weights(community, corpus, mu):
    """The members of one community, derived from a cover over its own ids."""
    cover = Cover.from_sets(sorted(community), [community])
    return derive_members(cover, corpus, mu).members(0)


def test_derive_members_quarter_weight_included():
    corpus = corpus_from({
        "l0": {"u1", "u2"}, "l1": {"u2"}, "l2": {"u2"}, "l3": {"u2"},
    })
    members = weights({"l0", "l1", "l2", "l3"}, corpus, mu=0.1)
    assert members["u1"] == pytest.approx(0.25)
    assert members["u2"] == 1.0


def test_derive_members_full_weight():
    corpus = corpus_from({"l0": {"u"}, "l1": {"u"}})
    assert weights({"l0", "l1"}, corpus, mu=0.5) == {"u": 1.0}


def test_derive_members_mu_excludes():
    corpus = corpus_from({f"l{i}": {"rare"} if i == 0 else {"common"}
                          for i in range(10)})
    members = weights({f"l{i}" for i in range(10)}, corpus, mu=0.2)
    assert "rare" not in members
    assert members["common"] == pytest.approx(0.9)


def test_derive_members_weight_exactly_mu_included():
    corpus = corpus_from({f"l{i}": {"edge"} if i == 0 else {"x"}
                          for i in range(10)})
    members = weights({f"l{i}" for i in range(10)}, corpus, mu=0.1)
    assert members["edge"] == pytest.approx(0.1)


def test_derive_members_empty_community_rejected():
    corpus = corpus_from({"l0": {"u"}})
    with pytest.raises(ValidationError, match="at least one list"):
        weights(set(), corpus, mu=0.1)


def test_derive_members_rejects_a_list_outside_the_corpus():
    corpus = corpus_from({"l0": {"u1"}, "l1": {"u1", "u2"}})
    with pytest.raises(ValidationError, match="'ghost' is not in the corpus"):
        weights({"l0", "ghost"}, corpus, mu=0.1)
    # A node of the cover's order outside every community may be foreign.
    cover = Cover.from_sets(("ghost", "l0", "l1"), [{"l0", "l1"}])
    assert derive_members(cover, corpus, 0.1).members(0) == {"u1": 1.0, "u2": 0.5}


@pytest.mark.parametrize("seed", range(10))
def test_derive_members_matches_reference(seed):
    # One call per cover, compared with the dict loop community by
    # community, over the corpus order and over the cover's own ids.
    rng = np.random.Generator(np.random.PCG64(seed))
    corpus = random_corpus(rng)
    memberships, _ = id_sets(corpus)
    communities = [
        set(rng.choice(corpus.list_ids, size=int(rng.integers(1, len(corpus.list_ids) + 1)),
                       replace=False).tolist())
        for _ in range(20)]
    named = sorted(set().union(*communities))
    for mu in (0.0, 0.1, 0.25, float(rng.random())):
        for order in (corpus.list_ids, named):
            cover = Cover.from_sets(order, communities)
            derived = derive_members(cover, corpus, mu)
            assert derived.ids.tolist() == list(range(len(cover)))
            for k, community in enumerate(cover.id_lists()):
                assert derived.members(k) == reference.derive_members(
                    community, memberships, mu)


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
    full = weights(community, corpus, mu=0.0)
    # weights are multiples of 1/c and votes add up to the membership records
    total_records = sum(len(m) for m in memberships.values())
    assert sum(round(w * c) for w in full.values()) == total_records
    for w in full.values():
        assert round(w * c) == pytest.approx(w * c)
    lo = weights(community, corpus, mu=mu_lo)
    hi = weights(community, corpus, mu=min(1.0, mu_lo + mu_delta))
    assert set(hi) <= set(lo)


def uc(cid, members):
    return cid, {u: 1.0 for u in members}


def users(*communities):
    return UserCommunities.from_members(communities)


def test_f1_from_rounded_paper_row():
    assert f1_score(1.00, 0.65) == pytest.approx(0.79, abs=0.005)


def test_evaluate_exact_match():
    truth = GroundTruth({"cat": frozenset({"a", "b"})})
    rows = evaluate(users(uc(0, {"a", "b"})), truth, {"a", "b"})
    assert rows[0].precision == rows[0].recall == rows[0].f1 == 1.0
    assert rows[0].matched_community == 0


def test_evaluate_disjoint():
    truth = GroundTruth({"cat": frozenset({"a"})})
    rows = evaluate(users(uc(0, {"b"})), truth, {"a", "b"})
    assert rows[0].precision == rows[0].recall == rows[0].f1 == 0.0


def test_evaluate_matches_by_precision_then_recall_then_id():
    truth = GroundTruth({"cat": frozenset({"a", "b", "c", "d"})})
    communities = [
        uc(0, {"a", "x"}),            # P=0.5
        uc(1, {"a", "b"}),            # P=1.0, R=0.5
        uc(2, {"a", "b", "c"}),       # P=1.0, R=0.75  <- best
        uc(3, {"c", "d"}),            # P=1.0, R=0.5 (ties with 1, higher id)
    ]
    rows = evaluate(users(*communities), truth, {"a", "b", "c", "d", "x"})
    assert rows[0].matched_community == 2
    truth2 = GroundTruth({"cat": frozenset({"a", "b"})})
    rows2 = evaluate(users(uc(0, {"a"}), uc(1, {"b"})), truth2, {"a", "b"})
    assert rows2[0].matched_community == 0  # equal P and R: smaller id


def test_evaluate_restricts_to_core():
    truth = GroundTruth({"cat": frozenset({"a"})})
    # "z" is outside the core universe, so precision ignores it
    rows = evaluate(users(uc(0, {"a", "z"})), truth, {"a"})
    assert rows[0].precision == 1.0


def test_evaluate_skips_empty_category_with_warning():
    truth = GroundTruth({"full": frozenset({"a"}), "empty": frozenset()})
    with pytest.warns(UserWarning):
        rows = evaluate(users(uc(0, {"a"})), truth, {"a"})
    assert [r.category for r in rows] == ["full"]


def test_evaluate_rows_sorted_by_precision_then_recall():
    truth = GroundTruth({
        "one": frozenset({"a", "b"}),
        "two": frozenset({"c"}),
        "three": frozenset({"d", "e"}),
    })
    communities = [uc(0, {"a", "b"}), uc(1, {"c", "x"}), uc(2, {"d"})]
    rows = evaluate(users(*communities), truth, {"a", "b", "c", "d", "e", "x"})
    keys = [(r.precision, r.recall) for r in rows]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_matches_reference(seed):
    # Few users, so precision and recall tie often; empty categories, a
    # category no community hits, communities without a core user, and a
    # core that is the categories' union or a random restriction of it, as
    # a core file gives.
    rng = random.Random(seed)
    pool = [f"u{i}" for i in range(12)]
    categories = {f"c{i}": frozenset(rng.sample(pool, rng.randrange(0, 5)))
                  for i in range(rng.randrange(1, 7))}
    categories["unhit"] = frozenset({"nobody"})
    truth = GroundTruth(categories)
    ids = rng.sample(range(50), rng.randrange(0, 9))
    communities = [(cid, {u: 1.0 for u in rng.sample(pool, rng.randrange(1, 6))})
                   for cid in ids]
    union = set().union(*categories.values())
    core = union if seed % 2 else set(rng.sample(sorted(union), len(union) // 2))
    with pytest.warns() if any(not m for m in categories.values()) else nullcontext():
        rows = evaluate(users(*communities), truth, core)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = reference.evaluate(communities, truth, core)
    assert rows == expected


def test_f1_between_min_and_max():
    for p, r in [(0.9, 0.3), (0.5, 0.5), (1.0, 0.1)]:
        f1 = f1_score(p, r)
        assert min(p, r) <= f1 <= max(p, r)


def test_write_users_and_reload(tmp_path):
    corpus = corpus_from({"l0": {"u1", "u2"}, "l1": {"u1"}, "l2": {"u3"}})
    cover = Cover.from_sets(corpus.list_ids, [{"l0", "l1"}, {"l1", "l2"}])
    derived = derive_members(cover, corpus, mu=0.1)
    path = tmp_path / "users.json"
    written = write_users(derived, path, stability_by_id={1: 0.95, 0: 1 / 3},
                          labels_by_id={0: ["tag"]})
    payload = json.loads(path.read_text("utf-8"))
    assert [entry["community_id"] for entry in payload] == [1, 0]
    assert payload[1]["stability"] == 0.333333
    assert payload[1]["labels"] == ["tag"]
    assert payload[0]["labels"] == []
    assert [u["id"] for u in payload[1]["users"]] == ["u1", "u2"]
    weights_ = [u["weight"] for u in payload[1]["users"]]
    assert weights_ == sorted(weights_, reverse=True)
    reloaded = load_users(path)
    for k in range(2):
        assert reloaded.members(k) == pytest.approx(derived.members(k))
        # What the writer returns is what the file holds, bit for bit.
        assert written.members(k) == reloaded.members(k)
    assert written.members(1) == {"u1": 0.5, "u3": 0.5}


def test_write_eval_mirrors_table_columns(tmp_path):
    truth = GroundTruth({"judo": frozenset({f"u{i}" for i in range(20)})})
    rows = evaluate(users(uc(3, {f"u{i}" for i in range(13)})), truth,
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


def test_write_users_equals_json_dumps(tmp_path):
    # Ids and labels with non-ASCII characters, quotes, backslashes and
    # control characters; no communities, empty label lists and user lists;
    # a missing stability and one that is not finite; equal weights, which
    # rank by id, and weights that need rounding.
    rng = random.Random(7)
    chars = ["a", "Z", "é", "ß", "東", "😀", '"', "\\", "/", "\n", "\t", "\x00",
             "\x1f", "\x7f", "\u2028", " "]

    def text():
        return "".join(rng.choice(chars) for _ in range(rng.randrange(6)))

    path = tmp_path / "users.json"
    for _ in range(300):
        ids = sorted(rng.sample(range(10**6), rng.randrange(4)))
        members = [(cid, {text(): rng.choice([0.5, 1 / 3, 1.0, 1e-9, rng.random()])
                          for _ in range(rng.randrange(4))}) for cid in ids]
        stability = {cid: rng.choice([round(rng.random(), 6), 0.0, 1.0, -0.25, 1e-7,
                                      2 / 3, float("nan"), float("inf")])
                     for cid in ids if rng.random() < 0.8}
        labels = {cid: [text() for _ in range(rng.randrange(4))]
                  for cid in ids if rng.random() < 0.8}
        write_users(UserCommunities.from_members(members), path, stability, labels)

        def key(pair):
            s = stability.get(pair[0])
            return (-s if s is not None else 1.0, pair[0])

        payload = [{"community_id": cid,
                    "stability": round(stability[cid], 6) if cid in stability else None,
                    "labels": labels.get(cid, []),
                    "users": [{"id": uid, "weight": round(w, 6)} for uid, w in
                              sorted(weights_.items(), key=lambda kv: (-kv[1], kv[0]))]}
                   for cid, weights_ in sorted(members, key=key)]
        assert path.read_text("utf-8") == json.dumps(payload, ensure_ascii=False,
                                                     indent=1) + "\n"
