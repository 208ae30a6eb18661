"""Curated-list membership data: loading, validation and saving.

File formats (all UTF-8, no headers unless noted):

* ``memberships.tsv`` -- ``list_id<TAB>user_id`` per line.
* ``lists.jsonl``     -- one JSON object per line with exactly the keys
  ``id``, ``name``, ``description``.
* ``groundtruth.tsv`` -- ``category<TAB>user_id`` per line.

Identifiers are opaque case-sensitive strings; no normalisation is applied.
A loaded corpus is the list x user incidence in compressed sparse row form
over sorted ids, with its transpose; strings remain only in the id tuples
and the list metadata.  It is immutable and safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

import numpy as np

from .atomic import atomic_write
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class ListRecord:
    id: str
    name: str
    description: str


@dataclass(frozen=True, eq=False)
class MembershipCorpus:
    """Bipartite record of lists and their members.

    List ``i`` is ``list_ids[i]``, and user ``u`` is ``user_ids[u]``, in
    sorted order.  Row ``i`` of (``indptr``, ``users``) holds list i's users
    and row ``u`` of (``user_indptr``, ``user_lists``) user u's lists, each
    ascending; ``n`` is the number of distinct users in at least one list.
    """

    lists: dict[str, ListRecord]
    list_ids: tuple[str, ...]
    user_ids: tuple[str, ...]
    indptr: np.ndarray
    users: np.ndarray
    user_indptr: np.ndarray
    user_lists: np.ndarray
    n: int

    @classmethod
    def build(
        cls,
        records: Iterable[ListRecord],
        memberships: Mapping[str, Collection[str]],
    ) -> "MembershipCorpus":
        """Assemble a corpus, synthesising empty metadata for unknown list ids."""
        lists: dict[str, ListRecord] = {}
        for rec in records:
            if not rec.id:
                raise ValidationError("list id must be nonempty")
            if rec.id in lists:
                raise ValidationError(f"duplicate list metadata id: {rec.id!r}")
            lists[rec.id] = rec
        for lid in memberships:
            lists.setdefault(lid, ListRecord(lid, "", ""))
        list_ids = tuple(sorted(lists))
        user_ids = tuple(sorted(set().union(*memberships.values())))
        position = {uid: u for u, uid in enumerate(user_ids)}
        n = len(user_ids)
        keys = np.sort(np.fromiter(
            (i * n + position[uid] for i, lid in enumerate(list_ids)
             for uid in memberships.get(lid, ())), dtype=np.int64))
        # Sorted and deduplicated without np.unique, which imports numpy.ma.
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys
        if len(keys) > np.iinfo(np.int32).max:
            raise ValidationError("corpus has more than 2**31 - 1 memberships")
        rows, users = np.divmod(keys, max(n, 1))
        by_user = np.argsort(users, kind="stable")
        arrays = [arr.astype(np.int32) for arr in (
            np.searchsorted(rows, np.arange(len(list_ids) + 1)), users,
            np.searchsorted(users[by_user], np.arange(n + 1)), rows[by_user])]
        for arr in arrays:
            arr.flags.writeable = False
        return cls(lists, list_ids, user_ids, *arrays, n)


@dataclass(frozen=True)
class GroundTruth:
    """External categories: category name -> set of user ids."""

    categories: dict[str, frozenset[str]]


def _read_lines(path) -> list[str]:
    """Read a text file as decoded lines, reporting the line of a bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = []
    for lineno, chunk in enumerate(raw.splitlines(), start=1):
        try:
            lines.append(chunk.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid UTF-8 ({exc})") from exc
    return lines


def _parse_tsv_pairs(path) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(
                f"{path}:{lineno}: expected two nonempty tab-separated fields"
            )
        pairs.append((fields[0], fields[1]))
    return pairs


_LIST_KEYS = {"id", "name", "description"}


def load_corpus(memberships_path, lists_path) -> MembershipCorpus:
    """Load and validate a corpus from the two on-disk files.

    Duplicate (list, user) rows are deduplicated.  Lists present in the
    metadata file but absent from the memberships file are retained with
    empty member sets.
    """
    records = []
    for lineno, line in enumerate(_read_lines(lists_path), start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{lists_path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict) or set(obj) != _LIST_KEYS:
            raise ParseError(
                f"{lists_path}:{lineno}: object must have exactly keys id, name, description"
            )
        if not all(isinstance(obj[k], str) for k in _LIST_KEYS):
            raise ParseError(f"{lists_path}:{lineno}: all values must be strings")
        records.append(ListRecord(obj["id"], obj["name"], obj["description"]))

    memberships: dict[str, list[str]] = {}
    for lid, uid in _parse_tsv_pairs(memberships_path):
        memberships.setdefault(lid, []).append(uid)
    return MembershipCorpus.build(records, memberships)


def save_corpus(corpus: MembershipCorpus, memberships_path, lists_path) -> None:
    """Write a corpus back to its two files in canonical (sorted) order."""
    rows = np.repeat(np.arange(len(corpus.list_ids)), np.diff(corpus.indptr))
    with atomic_write(memberships_path) as fh:
        fh.writelines(f"{corpus.list_ids[i]}\t{corpus.user_ids[u]}\n"
                      for i, u in zip(rows.tolist(), corpus.users.tolist()))
    with atomic_write(lists_path) as fh:
        for lid in sorted(corpus.lists):
            rec = corpus.lists[lid]
            fh.write(json.dumps(
                {"id": rec.id, "name": rec.name, "description": rec.description},
                ensure_ascii=False) + "\n")


def load_ground_truth(path) -> GroundTruth:
    """Load category -> user-id sets from a TSV file, deduplicating rows."""
    cats: dict[str, set[str]] = {}
    for cat, uid in _parse_tsv_pairs(path):
        cats.setdefault(cat, set()).add(uid)
    return GroundTruth({c: frozenset(u) for c, u in cats.items()})


def save_ground_truth(truth: GroundTruth, path) -> None:
    with atomic_write(path) as fh:
        for cat in sorted(truth.categories):
            for uid in sorted(truth.categories[cat]):
                fh.write(f"{cat}\t{uid}\n")
