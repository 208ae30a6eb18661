"""Curated-list membership data: loading, validation and saving.

File formats (all UTF-8, no headers unless noted):

* ``memberships.tsv`` -- ``list_id<TAB>user_id`` per line.
* ``lists.jsonl``     -- one JSON object per line with exactly the keys
  ``id``, ``name``, ``description``.
* ``groundtruth.tsv`` -- ``category<TAB>user_id`` per line.

Identifiers are opaque case-sensitive strings; no normalisation is applied.
An id holds no tab, line feed or carriage return: the pair files and the
node list write ids as fields of tab-separated lines.
A loaded corpus is the list x user incidence in compressed sparse row form
over sorted ids, with its transpose; strings remain only in the id tuples
and the list metadata.  It is immutable and safe to share across threads.

Each file is read and decoded once, with CRLF and lone CR line ends made
LF, so a file has the lines ``bytes.splitlines`` gives it.  A
tab-separated file is split at every tab and line end at once, after a
check over its bytes that the separators alternate tab, line end, tab, ...,
which holds exactly when every line has one tab.  The two columns of ids
then become the CSR through one id-to-position dict per side and one sort
of (list, user) codes.  Its lines are walked one by one only after that
check fails, and a bad byte's line is found only after the decode fails,
so each error names the first bad line, ``path:line``, as a parse line by
line would.  lists.jsonl is parsed one JSON object per line.  The pipeline's
text and JSON artifacts are read through the same decoder
(:func:`read_lines`, :func:`read_json`), so a bad byte or bad JSON in them
is a :class:`ParseError` at ``path:line`` too.
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
        """Assemble a corpus, synthesising empty metadata for unknown list ids.
        An empty id, a repeated metadata id, or an id with a tab or line
        break raises :class:`ValidationError`."""
        lists = _index_records(records)
        for lid in memberships:
            lists.setdefault(lid, ListRecord(lid, "", ""))
        list_column = [lid for lid, uids in memberships.items() for _ in uids]
        user_column = [uid for uids in memberships.values() for uid in uids]
        return cls._from_columns(lists, list_column, user_column)

    @classmethod
    def _from_columns(cls, lists: dict[str, ListRecord], list_column,
                      user_column) -> "MembershipCorpus":
        """The corpus of the metadata ``lists``, which holds a record for
        every id of ``list_column``, and the memberships given as two
        parallel columns of ids, repeats allowed."""
        list_ids = tuple(sorted(lists))
        user_ids = tuple(sorted(set(user_column)))
        for kind, ids in (("list", list_ids), ("user", user_ids)):
            if _has_separator("".join(ids)):
                bad = next(i for i in ids if _has_separator(i))
                raise ValidationError(f"{kind} id {bad!r} holds a tab or line break")
        n = len(user_ids)
        keys = np.sort(_positions(list_ids, list_column) * n
                       + _positions(user_ids, user_column))
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


def _has_separator(text: str) -> bool:
    """Whether ``text`` holds a tab, line feed or carriage return."""
    return "\t" in text or "\n" in text or "\r" in text


def _positions(ids: tuple[str, ...], column) -> np.ndarray:
    """The position in the sorted ``ids`` of each id of ``column``."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.__getitem__, column), dtype=np.int64, count=len(column))


def _index_records(records: Iterable[ListRecord]) -> dict[str, ListRecord]:
    """Metadata by list id; an empty or repeated id raises."""
    lists: dict[str, ListRecord] = {}
    for rec in records:
        if not rec.id:
            raise ValidationError("list id must be nonempty")
        if rec.id in lists:
            raise ValidationError(f"duplicate list metadata id: {rec.id!r}")
        lists[rec.id] = rec
    return lists


def _read(path) -> tuple[bytes, str]:
    """A text file's bytes with CRLF and lone CR line ends made LF, and
    those bytes decoded in one call.  Its lines are then the lines
    ``bytes.splitlines`` gives: no other character, ``\\x85`` and
    ``\\u2028`` included, ends a line.  A bad byte is reported with its
    line, found only after the decode failed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        try:
            raw.split(b"\n")[lineno - 1].decode("utf-8")
        except UnicodeDecodeError as line_exc:
            exc = line_exc  # positions within the line
        raise ParseError(f"{path}:{lineno}: invalid UTF-8 ({exc})") from exc


def _lines(text: str) -> list[str]:
    """The lines of a text whose line ends are all LF."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_lines(path) -> list[str]:
    """The lines of a text file decoded by :func:`_read`; bad UTF-8 raises
    :class:`ParseError` with ``path:line``."""
    return _lines(_read(path)[1])


def read_json(path):
    """The JSON value of a text file decoded by :func:`_read`; bad UTF-8 or
    bad JSON raises :class:`ParseError` with ``path:line``."""
    try:
        return json.loads(_read(path)[1])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


def _tsv_columns(path) -> tuple[list[str], list[str]]:
    """The first and the second field of every ``a<TAB>b`` line of a file.

    The text is split at every tab and line end at once, once its
    separators are seen to alternate tab, line end, tab, ..., as they do
    when each line holds exactly one tab.  Only when that check, or the
    check for an empty field, fails are the lines walked one by one to
    report the first bad one.
    """
    raw, text = _read(path)
    if not text:
        return [], []
    seps = np.frombuffer(raw, dtype=np.uint8)
    seps = seps[(seps == 9) | (seps == 10)]
    fields = text.removesuffix("\n").replace("\n", "\t").split("\t")
    if (len(seps) % 2 != text.endswith("\n") and np.all(seps[0::2] == 9)
            and np.all(seps[1::2] == 10) and "" not in fields):
        return fields[0::2], fields[1::2]
    for lineno, line in enumerate(_lines(text), start=1):
        first, tab, second = line.partition("\t")
        if not (first and tab and second) or "\t" in second:
            raise ParseError(
                f"{path}:{lineno}: expected two nonempty tab-separated fields"
            )
    raise AssertionError(f"{path}: separators out of order on no line")


_LIST_KEYS = {"id", "name", "description"}


def load_corpus(memberships_path, lists_path) -> MembershipCorpus:
    """Load and validate a corpus from the two on-disk files.

    Duplicate (list, user) rows are deduplicated.  Lists present in the
    metadata file but absent from the memberships file are retained with
    empty member sets.  Each file is decoded once, and memberships.tsv is
    split into its two columns at once.
    """
    records = []
    for lineno, line in enumerate(read_lines(lists_path), start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{lists_path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if type(obj) is not dict or obj.keys() != _LIST_KEYS:
            raise ParseError(
                f"{lists_path}:{lineno}: object must have exactly keys id, name, description"
            )
        lid, name, description = obj["id"], obj["name"], obj["description"]
        if not (type(lid) is str and type(name) is str and type(description) is str):
            raise ParseError(f"{lists_path}:{lineno}: all values must be strings")
        if _has_separator(lid):
            raise ValidationError(
                f"{lists_path}:{lineno}: list id {lid!r} holds a tab or line break")
        records.append(ListRecord(lid, name, description))

    list_column, user_column = _tsv_columns(memberships_path)
    lists = _index_records(records)
    for lid in set(list_column).difference(lists):
        lists[lid] = ListRecord(lid, "", "")
    return MembershipCorpus._from_columns(lists, list_column, user_column)


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
    for cat, uid in zip(*_tsv_columns(path)):
        cats.setdefault(cat, set()).add(uid)
    return GroundTruth({c: frozenset(u) for c, u in cats.items()})


def save_ground_truth(truth: GroundTruth, path) -> None:
    with atomic_write(path) as fh:
        for cat in sorted(truth.categories):
            for uid in sorted(truth.categories[cat]):
                fh.write(f"{cat}\t{uid}\n")
