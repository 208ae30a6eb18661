"""User-level communities from list-level covers, and ground-truth scoring.

Every list in a community casts a 1/c vote for each of its members, so a
user's membership weight is the fraction of the community's lists that
contain them; users below the ``mu`` threshold are dropped.  Evaluation
restricts community member sets to a core user universe, scores every
(category, community) pair by precision and recall, and matches each
category to its highest-precision community.
"""
from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .corpus import GroundTruth, MembershipCorpus
from .errors import ValidationError


@dataclass(frozen=True)
class UserCommunity:
    community_id: int
    members: dict[str, float]

    def ranked_members(self) -> list[tuple[str, float]]:
        """Members by weight descending, ties by id."""
        return sorted(self.members.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class EvalRow:
    category: str
    matched_community: int | None
    precision: float
    recall: float
    f1: float


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def derive_members(
    community,
    corpus: MembershipCorpus,
    mu: float,
    community_id: int = 0,
) -> UserCommunity:
    """Weight users by the fraction of the community's lists containing them;
    keep weights >= mu.  Every list must be in the corpus."""
    lists = sorted(set(community))
    c = len(lists)
    if c < 1:
        raise ValidationError("community must contain at least one list")
    if not (0.0 <= mu <= 1.0):
        raise ValidationError("mu must be in [0, 1]")
    rows = []
    for lid in lists:
        i = bisect_left(corpus.list_ids, lid)
        if i == len(corpus.list_ids) or corpus.list_ids[i] != lid:
            raise ValidationError(f"community list {lid!r} is not in the corpus")
        rows.append(corpus.users[corpus.indptr[i]:corpus.indptr[i + 1]])
    users, counts = np.unique(np.concatenate(rows), return_counts=True)
    members = {
        corpus.user_ids[u]: count / c
        for u, count in zip(users.tolist(), counts.tolist()) if count / c >= mu
    }
    return UserCommunity(community_id=community_id, members=members)


def evaluate(
    user_communities,
    truth: GroundTruth,
    core,
) -> list[EvalRow]:
    """Match each category to its best community by precision.

    Community member sets are first intersected with ``core`` (the
    evaluation universe).  Ties on precision break toward higher recall,
    then the smaller community id.  Rows come back sorted by precision
    descending, recall descending, category name.
    """
    core = frozenset(core)
    restricted: list[tuple[int, frozenset[str]]] = sorted(
        (uc.community_id, frozenset(uc.members) & core) for uc in user_communities
    )
    rows: list[EvalRow] = []
    for category in sorted(truth.categories):
        members = truth.categories[category]
        if not members:
            warnings.warn(f"skipping empty ground-truth category {category!r}")
            continue
        best: tuple[float, float, int] | None = None
        for cid, community in restricted:
            if not community:
                continue
            hits = len(community & members)
            precision = hits / len(community)
            recall = hits / len(members)
            if best is None or (precision, recall) > (best[0], best[1]):
                best = (precision, recall, cid)
        if best is None:
            rows.append(EvalRow(category, None, 0.0, 0.0, 0.0))
            continue
        precision, recall, cid = best
        rows.append(EvalRow(category, cid, precision, recall,
                            f1_score(precision, recall)))
    rows.sort(key=lambda r: (-r.precision, -r.recall, r.category))
    return rows


def write_users(
    user_communities: list[UserCommunity],
    path,
    stability_by_id: dict[int, float] | None = None,
    labels_by_id: dict[int, list[str]] | None = None,
) -> None:
    """JSON array of community reports, ordered by stability descending when
    available (canonical id order otherwise)."""
    stability_by_id = stability_by_id or {}
    labels_by_id = labels_by_id or {}

    def sort_key(uc: UserCommunity):
        s = stability_by_id.get(uc.community_id)
        return (-s if s is not None else 1.0, uc.community_id)

    payload = []
    for uc in sorted(user_communities, key=sort_key):
        stability = stability_by_id.get(uc.community_id)
        payload.append({
            "community_id": uc.community_id,
            "stability": round(stability, 6) if stability is not None else None,
            "labels": labels_by_id.get(uc.community_id, []),
            "users": [
                {"id": uid, "weight": round(weight, 6)}
                for uid, weight in uc.ranked_members()
            ],
        })
    with atomic_write(path) as fh:
        fh.write(report_json(payload))
        fh.write("\n")


def report_json(payload) -> str:
    """``json.dumps(payload, ensure_ascii=False, indent=1)`` of a list of
    community reports, written without ``indent``'s pure-Python encoder:
    strings go through json's C string encoder, and numbers through
    ``repr``, as json writes finite floats and ints.  The weights are
    finite; the stability, read back from ``stability.tsv``, may be missing
    or not finite, and goes through ``json.dumps``."""
    string = json.encoder.encode_basestring
    entries = []
    for entry in payload:
        users = [f'{{\n    "id": {string(user["id"])},\n'
                 f'    "weight": {user["weight"]!r}\n   }}' for user in entry["users"]]
        entries.append(
            f'{{\n  "community_id": {entry["community_id"]!r},\n'
            f'  "stability": {json.dumps(entry["stability"])},\n'
            f'  "labels": {_array(map(string, entry["labels"]), 2)},\n'
            f'  "users": {_array(users, 2)}\n }}')
    return _array(entries, 0)


def _array(items, indent: int) -> str:
    """A JSON array of encoded ``items`` that sits ``indent`` spaces deep,
    laid out as ``indent=1`` lays it out."""
    items = list(items)
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def load_users(path) -> list[UserCommunity]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list) or not all(
            isinstance(entry, dict) and type(entry.get("community_id")) is int
            and isinstance(entry.get("users"), list)
            and all(isinstance(u, dict) and isinstance(u.get("id"), str)
                    and type(u.get("weight")) in (int, float) for u in entry["users"])
            for entry in payload):
        raise ValidationError(f"{path}: expected a JSON array of objects with an "
                              "integer community_id and users with an id and a weight")
    out = []
    for entry in payload:
        out.append(UserCommunity(
            community_id=entry["community_id"],
            members={u["id"]: float(u["weight"]) for u in entry["users"]},
        ))
    return sorted(out, key=lambda uc: uc.community_id)


def write_eval(rows: list[EvalRow], truth: GroundTruth, path) -> None:
    """TSV with the validation-table columns plus the matched community id."""
    with atomic_write(path) as fh:
        fh.write("category\tsize\tprecision\trecall\tf1\tmatched_community\n")
        for row in rows:
            size = len(truth.categories.get(row.category, frozenset()))
            matched = "" if row.matched_community is None else str(row.matched_community)
            fh.write(
                f"{row.category}\t{size}\t{row.precision:.2f}\t{row.recall:.2f}\t"
                f"{row.f1:.2f}\t{matched}\n"
            )
