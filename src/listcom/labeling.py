"""Descriptive term labels for communities from list names and descriptions.

Each list becomes a sparse bag of unigrams and bigrams over its name and
description (tokenised independently; bigrams never span the field
boundary), weighted with log TF-IDF.  A community is labelled by the terms
whose centroid weight most exceeds the corpus-wide mean vector.

Tokenisation is language-agnostic: tokens are maximal runs of Unicode
alphanumerics, so non-English and mixed-script terms survive untouched.
Bigrams pair tokens adjacent in the original text (no bridging across
removed stop-words) and are kept unless both constituents are stop-words.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from functools import lru_cache
from importlib import resources
from itertools import islice

from .atomic import atomic_write
from .corpus import MembershipCorpus
from .errors import ValidationError

ListVector = dict[str, float]

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    text = resources.files("listcom").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split("\n") if w)


def load_stopwords(path) -> frozenset[str]:
    """One lowercase term per line; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def tokenize(name: str, description: str, stopwords: frozenset[str]) -> list[str]:
    """Unigrams (stop-words removed) and bigrams for both text fields."""
    terms: list[str] = []
    for text in (name, description):
        tokens = _TOKEN.findall(text.lower())
        terms.extend(t for t in tokens if t not in stopwords)
        terms.extend(
            f"{a} {b}"
            for a, b in zip(tokens, tokens[1:])
            if not (a in stopwords and b in stopwords)
        )
    return terms


def build_vectors(corpus: MembershipCorpus,
                  stopwords: frozenset[str]) -> dict[str, ListVector]:
    """Log TF-IDF vectors: (1 + log10 tf) * log10(l / df), df = l terms dropped."""
    l = len(corpus.lists)
    tf_by_list: dict[str, Counter] = {}
    df: Counter = Counter()
    for lid in sorted(corpus.lists):
        rec = corpus.lists[lid]
        tf = Counter(tokenize(rec.name, rec.description, stopwords))
        tf_by_list[lid] = tf
        df.update(tf.keys())
    vectors: dict[str, ListVector] = {}
    for lid, tf in tf_by_list.items():
        vec: ListVector = {}
        for term, count in tf.items():
            d = df[term]
            if d == l:
                continue
            vec[term] = (1.0 + math.log10(count)) * math.log10(l / d)
        vectors[lid] = vec
    return vectors


def background_vector(vectors: dict[str, ListVector]) -> ListVector:
    """Mean of all list vectors, summed in sorted-id order for reproducibility."""
    total: ListVector = {}
    for lid in sorted(vectors):
        for term, w in vectors[lid].items():
            total[term] = total.get(term, 0.0) + w
    l = len(vectors)
    return {term: w / l for term, w in total.items()}


class Background:
    """The corpus-wide mean vector, with its terms sorted once by ascending
    (weight, term).

    A term outside a community's centroid scores ``0.0 / c - weight``, so
    that order is the order in which such terms rank.
    """

    def __init__(self, weights: ListVector):
        self.weights = weights
        self.ascending = sorted(weights, key=lambda term: (weights[term], term))


def label_community(
    community,
    vectors: dict[str, ListVector],
    top_k: int,
    background: Background | None = None,
) -> list[tuple[str, float]]:
    """Top terms by (community centroid - corpus mean), ties lexicographic.

    Returns at most ``top_k`` (term, score) pairs, score descending.
    Only the centroid's terms and the ``top_k`` best-ranked terms outside it
    are scored.  ``top_k`` must be >= 1: :class:`~listcom.pipeline.PipelineConfig`
    checks it, and this function does not.
    """
    members = sorted(set(community))
    if not members:
        raise ValidationError("cannot label an empty community")
    try:
        member_vecs = [vectors[lid] for lid in members]
    except KeyError as exc:
        raise ValidationError(f"list {exc.args[0]!r} has no vector") from exc
    if background is None:
        background = Background(background_vector(vectors))

    centroid: ListVector = {}
    for vec in member_vecs:
        for term, w in vec.items():
            centroid[term] = centroid.get(term, 0.0) + w
    c = len(members)

    weights = background.weights
    candidates = [(term, w / c - weights.get(term, 0.0))
                  for term, w in centroid.items()]
    outside = islice((t for t in background.ascending if t not in centroid), top_k)
    candidates.extend((term, 0.0 / c - weights[term]) for term in outside)
    candidates.sort(key=lambda kv: (-kv[1], kv[0]))
    return candidates[:top_k]


def write_labels(labels_by_id: dict[int, list[tuple[str, float]]], path) -> None:
    """JSON array: {"community_id", "labels", "scores"} per community."""
    payload = [
        {
            "community_id": cid,
            "labels": [term for term, _ in pairs],
            "scores": [round(score, 6) for _, score in pairs],
        }
        for cid, pairs in sorted(labels_by_id.items())
    ]
    with atomic_write(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=1)
        fh.write("\n")


def load_labels(path) -> dict[int, list[str]]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list) or not all(
            isinstance(entry, dict) and type(entry.get("community_id")) is int
            and isinstance(entry.get("labels"), list)
            and all(isinstance(term, str) for term in entry["labels"])
            for entry in payload):
        raise ValidationError(f"{path}: expected a JSON array of objects with an "
                              "integer community_id and a list of labels")
    return {entry["community_id"]: list(entry["labels"]) for entry in payload}
