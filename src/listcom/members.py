"""User-level communities from list-level covers, and ground-truth scoring.

Every list in a community casts a 1/c vote for each of its members, so a
user's membership weight is the fraction of the community's lists that
contain them; users below the ``mu`` threshold are dropped.
:func:`derive_members` takes a whole cover at once: it gathers each
community's lists' users from the corpus rows as (community, user) codes,
sorts the codes once, and each run of equal codes is one member, weighted
by the run's length over c.  The result is a :class:`UserCommunities`,
arrays over the corpus's sorted user ids; ids appear again only in
users.json.

Evaluation restricts community member sets to a core user universe, scores
every (category, community) pair by precision and recall, and matches each
category to its highest-precision community.  :func:`evaluate` counts the
hits of every pair in one table: it joins the (category, core user) pairs
with the (community, core user) pairs on the user, sorts the joined
pairs' (category, community) codes once, and each run of equal codes is one
pair's hit count.  A pair without a hit scores 0 and is not in the table,
so the work follows the memberships, not categories x communities.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .atomic import atomic_write, json_array, json_numbers
from .corpus import GroundTruth, MembershipCorpus, read_json
from .detect import Cover
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class UserCommunities:
    """Weighted user communities as arrays over the sorted ``user_ids``.

    Community ``k`` has the id ``ids[k]`` and the members
    ``users[indptr[k]:indptr[k + 1]]``, ``int32`` positions in ``user_ids``
    in ascending order, with their ``weights`` at the same positions.  Ids
    ascend.
    """

    user_ids: tuple[str, ...]
    ids: np.ndarray
    indptr: np.ndarray
    users: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_members(
        cls, communities: Iterable[tuple[int, Mapping[str, float]]]
    ) -> "UserCommunities":
        """From ``(community id, {user id: weight})`` pairs, in any order."""
        communities = sorted(communities, key=lambda pair: pair[0])
        user_ids = tuple(sorted({uid for _, members in communities for uid in members}))
        position = dict(zip(user_ids, range(len(user_ids))))
        users, weights = [], []
        for _, members in communities:
            ranked = sorted((position[uid], w) for uid, w in members.items())
            users.extend(u for u, _ in ranked)
            weights.extend(w for _, w in ranked)
        sizes = [len(members) for _, members in communities]
        return cls(user_ids, np.array([cid for cid, _ in communities], dtype=np.int64),
                   np.r_[0, np.cumsum(sizes, dtype=np.int64)],
                   np.array(users, dtype=np.int32), np.array(weights, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.ids)

    def members(self, k: int) -> dict[str, float]:
        """``{user id: weight}`` of the k-th community."""
        a, b = self.indptr[k], self.indptr[k + 1]
        return {self.user_ids[u]: w for u, w in
                zip(self.users[a:b].tolist(), self.weights[a:b].tolist())}


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


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[k]`` to ``starts[k] + lengths[k] - 1`` of
    every k, one span after another."""
    ends = np.cumsum(lengths)
    return (np.repeat(starts - ends + lengths, lengths)
            + np.arange(ends[-1] if len(ends) else 0))


def _corpus_rows(cover: Cover, corpus: MembershipCorpus) -> np.ndarray:
    """The corpus row of each node of the cover's order; -1 for a node the
    corpus does not hold, which raises if it is a member."""
    if cover.nodes == corpus.list_ids:
        return np.arange(len(cover.nodes), dtype=np.int64)
    index = dict(zip(corpus.list_ids, range(len(corpus.list_ids))))
    rows = np.array([index.get(lid, -1) for lid in cover.nodes], dtype=np.int64)
    missing = np.flatnonzero(rows[cover.members] < 0)
    if len(missing):
        lid = cover.nodes[cover.members[missing[0]]]
        raise ValidationError(f"community list {lid!r} is not in the corpus")
    return rows


def derive_members(cover: Cover, corpus: MembershipCorpus,
                   mu: float) -> UserCommunities:
    """Weight each community's users by the fraction of its lists that
    contain them, and keep weights >= mu; community ``k`` of the cover gets
    the id ``k``.  Every community must hold a list, and every list must be
    in the corpus."""
    sizes = cover.sizes()
    if np.any(sizes < 1):
        raise ValidationError("community must contain at least one list")
    if not (0.0 <= mu <= 1.0):
        raise ValidationError("mu must be in [0, 1]")
    rows = _corpus_rows(cover, corpus)[cover.members]
    starts = corpus.indptr[rows].astype(np.int64)
    lengths = corpus.indptr[rows + 1] - starts
    gathered = corpus.users[_spans(starts, lengths)]
    n = max(corpus.n, 1)
    community = np.repeat(np.arange(len(cover), dtype=np.int64), sizes)
    codes, counts = np.unique(np.repeat(community, lengths) * n + gathered,
                              return_counts=True)
    owner, users = np.divmod(codes, n)
    weights = counts / sizes[owner]
    keep = weights >= mu
    return UserCommunities(
        corpus.user_ids, np.arange(len(cover), dtype=np.int64),
        np.searchsorted(owner[keep], np.arange(len(cover) + 1)),
        users[keep].astype(np.int32), weights[keep])


def evaluate(
    communities: UserCommunities,
    truth: GroundTruth,
    core,
) -> list[EvalRow]:
    """Match each category to its best community by precision.

    Community member sets are first intersected with ``core`` (the
    evaluation universe).  Ties on precision break toward higher recall,
    then the smaller community id.  A category that no community hits is
    matched to the first community with a core member, at 0.  Rows come
    back sorted by precision descending, recall descending, category name.
    """
    core = frozenset(core)
    names = []
    for category in sorted(truth.categories):
        if truth.categories[category]:
            names.append(category)
        else:
            warnings.warn(f"skipping empty ground-truth category {category!r}")
    # Core users as their positions in the communities' user ids.
    position = {uid: u for u, uid in enumerate(communities.user_ids) if uid in core}
    in_core = np.zeros(len(communities.user_ids), dtype=bool)
    in_core[list(position.values())] = True
    # (community, core user) pairs.
    k = len(communities)
    owner = np.repeat(np.arange(k, dtype=np.int64), np.diff(communities.indptr))
    kept = in_core[communities.users]
    owner, users = owner[kept], communities.users[kept].astype(np.int64)
    size = np.bincount(owner, minlength=k)
    # Each core user's categories, then the (category, community) code of
    # every category of every community member.
    category, user = [], []
    for c, name in enumerate(names):
        hit = [position[uid] for uid in truth.categories[name] if uid in position]
        category.extend([c] * len(hit))
        user.extend(hit)
    category, user = np.array(category, dtype=np.int64), np.array(user, dtype=np.int64)
    by_user = np.argsort(user, kind="stable")
    bounds = np.searchsorted(user[by_user], np.arange(len(communities.user_ids) + 1))
    lengths = bounds[users + 1] - bounds[users]
    joined = by_user[_spans(bounds[users], lengths)]
    codes, hits = np.unique(category[joined] * k + np.repeat(owner, lengths),
                            return_counts=True)
    pair_category, pair_owner = np.divmod(codes, max(k, 1))
    precision = hits / size[pair_owner]
    recall = hits / np.array([len(truth.categories[name]) for name in names],
                             dtype=np.int64)[pair_category]
    # Per category, the first pair by (-precision, -recall, community).
    ranked = np.lexsort((pair_owner, -recall, -precision, pair_category))
    best = ranked[np.r_[True, np.diff(pair_category[ranked]) != 0]] if len(ranked) else ranked
    matched = dict(zip(pair_category[best].tolist(), zip(
        communities.ids[pair_owner[best]].tolist(), precision[best].tolist(),
        recall[best].tolist())))
    nonempty = np.flatnonzero(size)
    fallback = (int(communities.ids[nonempty[0]]), 0.0, 0.0) if len(nonempty) else None
    rows: list[EvalRow] = []
    for c, name in enumerate(names):
        cid, p, r = matched.get(c, fallback) or (None, 0.0, 0.0)
        rows.append(EvalRow(name, cid, p, r, f1_score(p, r)))
    rows.sort(key=lambda r: (-r.precision, -r.recall, r.category))
    return rows


def write_users(
    communities: UserCommunities,
    path,
    stability_by_id: dict[int, float] | None = None,
    labels_by_id: dict[int, list[str]] | None = None,
) -> UserCommunities:
    """JSON array of community reports, ordered by stability descending when
    available (canonical id order otherwise), each community's users by
    weight descending, ties by id.  It is laid out as ``json.dumps(...,
    ensure_ascii=False, indent=1)`` lays it out, without ``indent``'s
    pure-Python encoder: strings go through json's C string encoder, and
    each distinct weight is rounded and formatted once.  Returns the
    communities as :func:`load_users` reads them back: the weights rounded
    as written."""
    stability_by_id = stability_by_id or {}
    labels_by_id = labels_by_id or {}
    ids = communities.ids.tolist()
    owner = np.repeat(np.arange(len(ids)), np.diff(communities.indptr))
    ranked = np.lexsort((communities.users, -communities.weights, owner))
    text, which = json_numbers(communities.weights)
    string = json.encoder.encode_basestring
    names = communities.user_ids
    users = [f'{{\n    "id": {string(names[u])},\n    "weight": {text[w]}\n   }}'
             for u, w in zip(communities.users[ranked].tolist(), which[ranked].tolist())]
    bounds = communities.indptr.tolist()

    def sort_key(k: int):
        s = stability_by_id.get(ids[k])
        return (-s if s is not None else 1.0, ids[k])

    entries = []
    for k in sorted(range(len(ids)), key=sort_key):
        stability = stability_by_id.get(ids[k])
        entries.append(_report(ids[k], round(stability, 6) if stability is not None else None,
                               labels_by_id.get(ids[k], []), users[bounds[k]:bounds[k + 1]]))
    with atomic_write(path) as fh:
        fh.write(json_array(entries, 0))
        fh.write("\n")
    return UserCommunities(communities.user_ids, communities.ids, communities.indptr,
                           communities.users, np.array(text, dtype=np.float64)[which])


def _report(community_id: int, stability, labels, users: list[str]) -> str:
    """One community report of users.json, as ``json.dumps(...,
    ensure_ascii=False, indent=1)`` lays it out, from its users already
    encoded.  The stability may be missing or not finite, and goes through
    ``json.dumps``."""
    return (f'{{\n  "community_id": {community_id!r},\n'
            f'  "stability": {json.dumps(stability)},\n'
            f'  "labels": {json_array(map(json.encoder.encode_basestring, labels), 2)},\n'
            f'  "users": {json_array(users, 2)}\n }}')


def load_users(path) -> UserCommunities:
    payload = read_json(path)
    if not isinstance(payload, list) or not all(
            isinstance(entry, dict) and type(entry.get("community_id")) is int
            and isinstance(entry.get("users"), list)
            and all(isinstance(u, dict) and isinstance(u.get("id"), str)
                    and type(u.get("weight")) in (int, float) for u in entry["users"])
            for entry in payload):
        raise ValidationError(f"{path}: expected a JSON array of objects with an "
                              "integer community_id and users with an id and a weight")
    return UserCommunities.from_members(
        (entry["community_id"], {u["id"]: float(u["weight"]) for u in entry["users"]})
        for entry in payload)


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
