import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.corpus import (ListRecord, MembershipCorpus, load_corpus,
                            load_ground_truth, save_corpus)
from listcom.errors import ParseError, ValidationError
from reference import id_sets, same_corpus

IDS = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6)


def write_corpus_files(tmp_path, rows, lists):
    mpath = tmp_path / "memberships.tsv"
    lpath = tmp_path / "lists.jsonl"
    mpath.write_text("".join(f"{a}\t{b}\n" for a, b in rows), encoding="utf-8")
    lpath.write_text(
        "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in lists),
        encoding="utf-8")
    return mpath, lpath


def test_load_counts(tmp_path):
    mpath, lpath = write_corpus_files(
        tmp_path,
        [("a", "u1"), ("a", "u2"), ("b", "u1")],
        [{"id": "a", "name": "A", "description": ""},
         {"id": "b", "name": "B", "description": ""}],
    )
    corpus = load_corpus(mpath, lpath)
    assert corpus.n == 2
    assert len(corpus.lists) == 2
    memberships, user_index = id_sets(corpus)
    assert memberships["a"] == frozenset({"u1", "u2"})
    assert user_index["u1"] == frozenset({"a", "b"})


def test_load_empty_memberships(tmp_path):
    mpath, lpath = write_corpus_files(tmp_path, [], [])
    corpus = load_corpus(mpath, lpath)
    assert corpus.n == 0
    assert corpus.lists == {}


def test_duplicate_rows_deduplicated(tmp_path):
    mpath, lpath = write_corpus_files(tmp_path, [("a", "u1"), ("a", "u1")], [])
    corpus = load_corpus(mpath, lpath)
    assert id_sets(corpus)[0]["a"] == frozenset({"u1"})


def test_metadata_only_list_kept_with_empty_members(tmp_path):
    mpath, lpath = write_corpus_files(
        tmp_path, [("a", "u1")],
        [{"id": "a", "name": "", "description": ""},
         {"id": "ghost", "name": "g", "description": ""}])
    corpus = load_corpus(mpath, lpath)
    assert id_sets(corpus)[0]["ghost"] == frozenset()
    assert corpus.n == 1


def test_membership_without_metadata_gets_empty_record(tmp_path):
    mpath, lpath = write_corpus_files(tmp_path, [("a", "u1")], [])
    corpus = load_corpus(mpath, lpath)
    assert corpus.lists["a"] == ListRecord("a", "", "")


def test_malformed_membership_line_reports_line_number(tmp_path):
    mpath = tmp_path / "m.tsv"
    mpath.write_text("a\tu1\nbroken-line\n", encoding="utf-8")
    _, lpath = write_corpus_files(tmp_path, [], [])
    with pytest.raises(ParseError, match=":2"):
        load_corpus(mpath, lpath)


def test_invalid_utf8_reports_line_number(tmp_path):
    mpath = tmp_path / "m.tsv"
    mpath.write_bytes(b"a\tu1\nb\t\xff\n")
    _, lpath = write_corpus_files(tmp_path, [], [])
    with pytest.raises(ParseError, match=":2"):
        load_corpus(mpath, lpath)


def test_metadata_id_collision(tmp_path):
    mpath, lpath = write_corpus_files(
        tmp_path, [],
        [{"id": "a", "name": "x", "description": ""},
         {"id": "a", "name": "y", "description": ""}])
    with pytest.raises(ValidationError, match="duplicate"):
        load_corpus(mpath, lpath)


def test_metadata_wrong_keys(tmp_path):
    mpath = tmp_path / "m.tsv"
    mpath.write_text("", encoding="utf-8")
    lpath = tmp_path / "l.jsonl"
    lpath.write_text('{"id": "a", "name": "x"}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        load_corpus(mpath, lpath)


def test_paper_scale_load(tmp_path):
    # 44,484 membership rows over 10,000 lists and a 499-user core plus
    # co-listed extras; just needs to load cleanly at this scale.
    rng = np.random.Generator(np.random.PCG64(0))
    rows = []
    for i in range(44_484):
        lid = f"l{int(rng.integers(0, 10_000)):05d}"
        if rng.random() < 0.7:
            uid = f"core{int(rng.integers(0, 499)):03d}"
        else:
            uid = f"extra{int(rng.integers(0, 3_000)):04d}"
        rows.append((lid, uid))
    mpath, lpath = write_corpus_files(tmp_path, rows, [])
    corpus = load_corpus(mpath, lpath)
    assert sum(len(m) for m in id_sets(corpus)[0].values()) <= 44_484
    assert len(corpus.lists) <= 10_000
    assert corpus.n >= 499


@given(
    memberships=st.dictionaries(
        IDS, st.sets(IDS, min_size=0, max_size=5), max_size=8),
    names=st.lists(st.text(max_size=10), min_size=0, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_round_trip(tmp_path_factory, memberships, names):
    records = [
        ListRecord(lid, names[i % len(names)] if names else "", "d")
        for i, lid in enumerate(sorted(memberships))
    ]
    corpus = MembershipCorpus.build(records, memberships)
    tmp = tmp_path_factory.mktemp("rt")
    save_corpus(corpus, tmp / "m.tsv", tmp / "l.jsonl")
    reloaded = load_corpus(tmp / "m.tsv", tmp / "l.jsonl")
    assert same_corpus(reloaded, corpus)


def test_ground_truth_judo_sized_category(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("".join(f"judo\tu{i}\n" for i in range(20)),
                    encoding="utf-8")
    truth = load_ground_truth(path)
    assert len(truth.categories["judo"]) == 20


def test_ground_truth_empty_file(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("", encoding="utf-8")
    assert load_ground_truth(path).categories == {}


def test_ground_truth_duplicates_counted_once(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("judo\tu1\njudo\tu1\n", encoding="utf-8")
    truth = load_ground_truth(path)
    assert len(truth.categories["judo"]) == 1
