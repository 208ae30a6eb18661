import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listcom.corpus import ListRecord, MembershipCorpus
from listcom.errors import ValidationError
from listcom.labeling import (background_vector, build_vectors,
                              default_stopwords, label_community,
                              load_stopwords, tokenize, write_labels)

STOP = frozenset({"the", "a", "of"})


def corpus_from_texts(texts):
    """texts: dict list_id -> (name, description); members are irrelevant here."""
    records = [ListRecord(lid, name, desc) for lid, (name, desc) in texts.items()]
    return MembershipCorpus.build(records, {lid: set() for lid in texts})


def test_tokenize_unigrams_and_bigram():
    terms = tokenize("London 2012", "", STOP)
    assert terms == ["london", "2012", "london 2012"]


def test_tokenize_drops_stopword_unigrams():
    assert tokenize("the", "", STOP) == []


def test_tokenize_multilingual_tokens_survive():
    terms = tokenize("BMX Racing", "bmx atlēti", STOP)
    assert "bmx" in terms
    assert "racing" in terms
    assert "atlēti" in terms
    assert "bmx racing" in terms
    assert "bmx atlēti" in terms


def test_tokenize_bigrams_do_not_cross_fields():
    terms = tokenize("alpha", "beta", STOP)
    assert terms == ["alpha", "beta"]


def test_tokenize_bigram_kept_unless_both_stopwords():
    # one stopword constituent survives as a bigram, two do not
    terms = tokenize("the game", "", STOP)
    assert terms == ["game", "the game"]
    terms = tokenize("of the", "", STOP)
    assert terms == []


def test_tokenize_splits_on_nonalnum_runs():
    terms = tokenize("track & field", "", STOP)
    assert "track" in terms and "field" in terms and "track field" in terms
    assert "&" not in terms


def test_default_stopword_list_size_and_override(tmp_path):
    stop = default_stopwords()
    assert 150 <= len(stop) <= 200
    assert "the" in stop and "and" in stop
    path = tmp_path / "stop.txt"
    path.write_text("foo\nbar\n\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"foo", "bar"})


def test_build_vectors_single_occurrence_weight():
    texts = {f"l{i}": ("", "") for i in range(9)}
    texts["l9"] = ("unique", "")
    corpus = corpus_from_texts(texts)
    vectors = build_vectors(corpus, STOP)
    assert vectors["l9"]["unique"] == pytest.approx(1.0)  # (1+log10 1)*log10(10/1)


def test_build_vectors_everywhere_term_dropped():
    texts = {f"l{i}": ("common", "") for i in range(4)}
    corpus = corpus_from_texts(texts)
    vectors = build_vectors(corpus, STOP)
    assert all("common" not in v for v in vectors.values())


def test_build_vectors_empty_text_empty_vector():
    corpus = corpus_from_texts({"l0": ("", ""), "l1": ("word", "")})
    vectors = build_vectors(corpus, STOP)
    assert vectors["l0"] == {}


def test_build_vectors_tf_component():
    texts = {"l0": ("word word word", ""), "l1": ("other", "")}
    corpus = corpus_from_texts(texts)
    vectors = build_vectors(corpus, STOP)
    expected = (1 + math.log10(3)) * math.log10(2 / 1)
    assert vectors["l0"]["word"] == pytest.approx(expected)


def badminton_corpus():
    texts = {
        "b0": ("badminton stars", "badminton"),
        "b1": ("badminton club", "badders"),
        "b2": ("badminton", "badminton players"),
        "o0": ("sailing", "boats"),
        "o1": ("rowing", "boats crew"),
        "o2": ("cycling", "road race"),
    }
    return corpus_from_texts(texts)


def test_label_community_distinctive_term_first():
    corpus = badminton_corpus()
    vectors = build_vectors(corpus, STOP)
    labels = label_community({"b0", "b1", "b2"}, vectors, 3)
    assert labels[0][0] == "badminton"
    assert labels[0][1] > 0


def test_label_whole_corpus_all_zero_lexicographic():
    corpus = badminton_corpus()
    vectors = build_vectors(corpus, STOP)
    labels = label_community(set(vectors), vectors, 3)
    assert all(score == 0.0 for _, score in labels)
    terms = [t for t, _ in labels]
    assert terms == sorted(terms)


def test_label_empty_community_rejected():
    corpus = badminton_corpus()
    vectors = build_vectors(corpus, STOP)
    with pytest.raises(ValidationError):
        label_community(set(), vectors, 3)


def test_label_scores_antisymmetric_for_two_part_partition():
    corpus = badminton_corpus()
    vectors = build_vectors(corpus, STOP)
    left = dict(label_community({"b0", "b1", "b2"}, vectors, 100))
    right = dict(label_community({"o0", "o1", "o2"}, vectors, 100))
    for term in set(left) | set(right):
        a = left.get(term, 0.0)
        b = right.get(term, 0.0)
        assert a == 0 == b or a * b < 0 or (a == 0 and b == 0)


def test_adding_list_with_term_never_decreases_centroid_component():
    corpus = badminton_corpus()
    vectors = build_vectors(corpus, STOP)
    without = dict(label_community({"b0", "b1"}, vectors, 100))
    with_extra = dict(label_community({"b0", "b1", "b2"}, vectors, 100))
    # b2 contains "badminton"; its centroid weight must not drop
    bg = background_vector(vectors)
    cen_without = without["badminton"] + bg.get("badminton", 0.0)
    cen_with = with_extra["badminton"] + bg.get("badminton", 0.0)
    assert cen_with >= cen_without - 1e-12


@given(st.text(max_size=40), st.text(max_size=40))
@settings(max_examples=120, deadline=None)
def test_tokenize_language_agnostic(name, description):
    terms = tokenize(name, description, STOP)
    for term in terms:
        for word in term.split(" "):
            assert word  # no empty tokens
            assert all(ch.isalnum() for ch in word)
    # every non-stopword alphanumeric run must survive as a unigram
    for tok in __import__("re").findall(r"[^\W_]+", name.lower()):
        if tok not in STOP:
            assert tok in terms


def test_write_labels_equals_json_dump(tmp_path):
    # Terms with non-ASCII characters, quotes, backslashes and control
    # characters; scores that are or round to -0.0 beside 0.0, repeat, need
    # all 6 decimals, or are not finite; empty label lists and an empty
    # payload.
    rng = random.Random(11)
    chars = ["a", "é", "東", "😀", '"', "\\", "\n", "\x00", "\u2028", " "]
    pool = [0.5, -1e-9, 1e-9, 1 / 3, -2 / 3, 12.3456789, 0.0, -0.0, float("nan"),
            float("-inf")]
    path = tmp_path / "labels.json"
    for _ in range(200):
        labels = {
            rng.randrange(10**6): [("".join(rng.choice(chars) for _ in range(rng.randrange(5))),
                                    rng.choice(pool + [rng.uniform(-3, 3)]))
                                   for _ in range(rng.randrange(4))]
            for _ in range(rng.randrange(4))}
        write_labels(labels, path)
        payload = [{"community_id": cid, "labels": [t for t, _ in pairs],
                    "scores": [round(s, 6) for _, s in pairs]}
                   for cid, pairs in sorted(labels.items())]
        assert path.read_text("utf-8") == json.dumps(payload, ensure_ascii=False,
                                                     indent=1) + "\n"
