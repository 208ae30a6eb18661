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
from itertools import chain, islice

from .atomic import atomic_write, json_array, json_numbers
from .corpus import MembershipCorpus, read_json, read_lines
from .errors import ValidationError

ListVector = dict[str, float]

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    text = resources.files("listcom").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split("\n") if w)


def load_stopwords(path) -> frozenset[str]:
    """One lowercase term per line, read by :func:`~listcom.corpus.read_lines`;
    blank lines ignored."""
    return frozenset(line.strip() for line in read_lines(path) if line.strip())


def tokenize(name: str, description: str, stopwords: frozenset[str]) -> list[str]:
    """Unigrams (stop-words removed) and bigrams for both text fields."""
    terms: list[str] = []
    for text in (name, description):
        tokens = _TOKEN.findall(text.lower())
        terms += [t for t in tokens if t not in stopwords]
        terms += [f"{a} {b}" for a, b in zip(tokens, tokens[1:])
                  if not (a in stopwords and b in stopwords)]
    return terms


def build_vectors(corpus: MembershipCorpus,
                  stopwords: frozenset[str]) -> dict[str, ListVector]:
    """Log TF-IDF vectors: (1 + log10 tf) * log10(l / df), df = l terms
    dropped.  Each distinct (tf, df) weight is computed once."""
    l = len(corpus.lists)
    lists = corpus.lists
    tf_by_list = {lid: Counter(tokenize(lists[lid].name, lists[lid].description, stopwords))
                  for lid in sorted(lists)}
    df = Counter(chain.from_iterable(tf_by_list.values()))
    weights: dict[tuple[int, int], float] = {}
    vectors: dict[str, ListVector] = {}
    for lid, tf in tf_by_list.items():
        vec: ListVector = {}
        for term, count in tf.items():
            d = df[term]
            if d == l:
                continue
            w = weights.get((count, d))
            if w is None:
                w = weights[count, d] = (1.0 + math.log10(count)) * math.log10(l / d)
            vec[term] = w
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
    """JSON array: {"community_id", "labels", "scores"} per community, as
    ``json.dump(..., ensure_ascii=False, indent=1)`` writes it.  Terms go
    through json's C string encoder, and each distinct score is rounded to
    6 decimals and formatted once."""
    string = json.encoder.encode_basestring
    ordered = sorted(labels_by_id.items())
    text, which = json_numbers([score for _, pairs in ordered for _, score in pairs])
    scores = iter(which.tolist())
    entries = [
        f'{{\n  "community_id": {cid!r},\n'
        f'  "labels": {json_array((string(term) for term, _ in pairs), 2)},\n'
        f'  "scores": {json_array((text[next(scores)] for _ in pairs), 2)}\n }}'
        for cid, pairs in ordered
    ]
    with atomic_write(path) as fh:
        fh.write(json_array(entries, 0))
        fh.write("\n")


def load_labels(path) -> dict[int, list[str]]:
    payload = read_json(path)
    if not isinstance(payload, list) or not all(
            isinstance(entry, dict) and type(entry.get("community_id")) is int
            and isinstance(entry.get("labels"), list)
            and all(isinstance(term, str) for term in entry["labels"])
            for entry in payload):
        raise ValidationError(f"{path}: expected a JSON array of objects with an "
                              "integer community_id and a list of labels")
    return {entry["community_id"]: list(entry["labels"]) for entry in payload}
