import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.corpus import (ListRecord, MembershipCorpus, load_corpus,
                            load_ground_truth, save_corpus)
from listcom.errors import ParseError, ValidationError
import reference
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


@pytest.mark.parametrize("bad", ["lonely\nlist", "tab\tlist", "cr\rlist"])
def test_a_list_id_with_a_tab_or_line_break_is_refused(tmp_path, bad):
    # graph.nodes and the pair files hold one id per tab-separated field
    # and one row per line: such an id would split into fake nodes.
    mpath, lpath = write_corpus_files(
        tmp_path, [("a", "u1"), ("b", "u1")],
        [{"id": "a", "name": "", "description": ""},
         {"id": bad, "name": "", "description": ""}])
    with pytest.raises(ValidationError, match=r"lists\.jsonl:2: list id .* tab or line break"):
        load_corpus(mpath, lpath)


@pytest.mark.parametrize("kind", ["list", "user"])
@pytest.mark.parametrize("bad", ["x\ny", "x\ty", "x\ry"])
def test_build_refuses_an_id_with_a_tab_or_line_break(kind, bad):
    records = [ListRecord("a", "", "")]
    memberships = {"a": {"u1"}, "b": {"u1", "u2"}}
    if kind == "list":
        records.append(ListRecord(bad, "", ""))
    else:
        memberships["b"].add(bad)
    with pytest.raises(ValidationError, match=f"{kind} id .* tab or line break"):
        MembershipCorpus.build(records, memberships)


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_crlf_and_lone_cr_files_load_as_lf(tmp_path, end):
    mpath, lpath = tmp_path / "m.tsv", tmp_path / "l.jsonl"
    mpath.write_bytes(end.join([b"a\tu1", b"a\tu2", b"b\tu1"]) + end)
    lpath.write_bytes(end.join([json.dumps({"id": lid, "name": "N", "description": ""})
                                .encode() for lid in ("a", "b")]) + end)
    corpus = load_corpus(mpath, lpath)
    assert id_sets(corpus)[0] == {"a": frozenset({"u1", "u2"}), "b": frozenset({"u1"})}
    assert corpus.lists["b"] == ListRecord("b", "N", "")
    path = tmp_path / "gt.tsv"
    path.write_bytes(b"judo\tu1" + end + b"judo\tu2")
    assert load_ground_truth(path).categories == {"judo": frozenset({"u1", "u2"})}


@pytest.mark.parametrize("mark", ["\x85", "\u2028", "\x0b", "\x0c", "\x1c"])
def test_only_lf_and_cr_end_a_line(tmp_path, mark):
    # As with bytes.splitlines, other line breaks of Unicode stay inside
    # a user id or a JSON string.
    mpath, lpath = write_corpus_files(
        tmp_path, [("a", f"u{mark}1"), ("a", "u2")],
        [{"id": f"a{mark}", "name": f"x{mark}y", "description": ""}])
    corpus = load_corpus(mpath, lpath)
    assert corpus.user_ids == tuple(sorted((f"u{mark}1", "u2")))
    assert corpus.lists[f"a{mark}"].name == f"x{mark}y"
    assert corpus.list_ids == ("a", f"a{mark}")


@pytest.mark.parametrize("lines, line", [
    ([b"a\tu1", b"b\tu2", b"", b"c\tu3"], 3),
    ([b"a\tu1", b"b\tu2", b"c\tu3\xff"], 3),
    ([b"a\tu1", b"b\xe6\x9d", b"c\tu3"], 2),
    ([b"a\tu1", b"b\tu2", b"c\tu3\t"], 3),
    ([b"a\tu1", b"b\tu2\tx", b"c", b"d\tu4"], 2),
    ([b"a\tu1", b"b", b"c\tu2\tx", b"d\tu4"], 2),
    ([b"a\tu1", b"\tu2"], 2),
    ([b"a\tu1\tb\tu2"], 1),
    ([b"a\tu1", b"b\tu2\tc\tu3", b"d\tu4"], 2),
    ([b"a\tu1", b"b\t"], 2),
])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_a_bad_line_reports_its_own_line(tmp_path, lines, line, end):
    mpath = tmp_path / "m.tsv"
    mpath.write_bytes(end.join(lines) + end)
    _, lpath = write_corpus_files(tmp_path, [], [])
    with pytest.raises(ParseError, match=rf"m\.tsv:{line}: "):
        load_corpus(mpath, lpath)


def test_a_blank_or_undecodable_metadata_line_reports_its_line(tmp_path):
    write_corpus_files(tmp_path, [], [])
    good = json.dumps({"id": "a", "name": "", "description": ""}).encode()
    mpath = tmp_path / "memberships.tsv"
    for body, message in ((good + b"\n\n" + good + b"\n", ":2: invalid JSON"),
                          (good + b"\n" + good[:-2] + b"\xff\"}\n", ":2: invalid UTF-8")):
        lpath = tmp_path / "l.jsonl"
        lpath.write_bytes(body)
        with pytest.raises(ParseError, match=message):
            load_corpus(mpath, lpath)


def test_a_list_id_with_a_tab_in_memberships_is_refused(tmp_path):
    # A tab inside a list id would make three fields.
    mpath = tmp_path / "m.tsv"
    mpath.write_text("a\tu1\ntab\tlist\tu2\n", encoding="utf-8")
    _, lpath = write_corpus_files(tmp_path, [], [])
    with pytest.raises(ParseError, match=r"m\.tsv:2: expected two nonempty"):
        load_corpus(mpath, lpath)


@given(parts=st.lists(st.sampled_from([b"a", "bé".encode(), b"\t", b"\n", b"\r", b"\r\n",
                                        "\x85".encode(), b"\xff", b"\xe6\x9d", b""]),
                      max_size=14))
@settings(max_examples=300, deadline=None)
def test_the_split_once_parse_equals_a_parse_line_by_line(tmp_path_factory, parts):
    # The same pairs, or the same error at the same line, as decoding and
    # splitting each line on its own.
    path = tmp_path_factory.mktemp("tsv") / "gt.tsv"
    path.write_bytes(b"".join(parts))
    try:
        expected = reference.tsv_pairs(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_ground_truth(path)
        assert str(got.value) == str(exc)
        return
    categories: dict = {}
    for cat, uid in expected:
        categories.setdefault(cat, set()).add(uid)
    assert load_ground_truth(path).categories == {c: frozenset(u) for c, u in categories.items()}
