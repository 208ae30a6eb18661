"""Curated-list membership data: loading, validation and saving.

File formats (all UTF-8, no headers unless noted):

* ``memberships.tsv`` -- ``list_id<TAB>user_id`` per line.
* ``lists.jsonl``     -- one JSON object per line with exactly the keys
  ``id``, ``name``, ``description``.
* ``groundtruth.tsv`` -- ``category<TAB>user_id`` per line.

Identifiers are opaque case-sensitive strings; no normalisation is applied.
A loaded corpus is immutable and safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .atomic import atomic_write
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class ListRecord:
    id: str
    name: str
    description: str


@dataclass(frozen=True)
class MembershipCorpus:
    """Bipartite record of lists and their members.

    ``memberships`` and ``user_index`` are exact transposes; ``n`` is the
    number of distinct users assigned to at least one list.
    """

    lists: dict[str, ListRecord]
    memberships: dict[str, frozenset[str]]
    user_index: dict[str, frozenset[str]]
    n: int

    @classmethod
    def build(
        cls,
        records: Iterable[ListRecord],
        memberships: Mapping[str, Iterable[str]],
    ) -> "MembershipCorpus":
        """Assemble a corpus, synthesising empty metadata for unknown list ids."""
        lists: dict[str, ListRecord] = {}
        for rec in records:
            if not rec.id:
                raise ValidationError("list id must be nonempty")
            if rec.id in lists:
                raise ValidationError(f"duplicate list metadata id: {rec.id!r}")
            lists[rec.id] = rec
        member_map: dict[str, frozenset[str]] = {
            lid: frozenset() for lid in lists
        }
        users: dict[str, set[str]] = {}
        for lid, uids in memberships.items():
            member_map[lid] = frozenset(uids)
            if lid not in lists:
                lists[lid] = ListRecord(lid, "", "")
            for uid in member_map[lid]:
                users.setdefault(uid, set()).add(lid)
        user_index = {uid: frozenset(lids) for uid, lids in users.items()}
        return cls(lists=lists, memberships=member_map,
                   user_index=user_index, n=len(user_index))


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

    memberships: dict[str, set[str]] = {}
    for lid, uid in _parse_tsv_pairs(memberships_path):
        memberships.setdefault(lid, set()).add(uid)
    return MembershipCorpus.build(records, memberships)


def save_corpus(corpus: MembershipCorpus, memberships_path, lists_path) -> None:
    """Write a corpus back to its two files in canonical (sorted) order."""
    with atomic_write(memberships_path) as fh:
        for lid in sorted(corpus.memberships):
            for uid in sorted(corpus.memberships[lid]):
                fh.write(f"{lid}\t{uid}\n")
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
