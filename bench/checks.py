"""Checks of a pipeline artifact bundle against computations made apart from it.

Nothing here imports ``listcom``: every expected value is recomputed from the
input files (``memberships.tsv``, ``lists.jsonl``, ``groundtruth.tsv``) and
from the bundle's own upstream artifacts with the standard library alone.
Each check returns a list of failure messages; an empty list is a pass.

    graph weights       exact hypergeometric tail (big-integer ``math.comb``)
                        for a seeded sample of member-sharing list pairs
    raw stability       mean pair score over ``consensus.tsv``
    expected stability  sum of entries / C(l, 2), the exact mean under the
                        uniform random-subset null, within 0.01 or five
                        standard errors of a 1000-draw Monte Carlo estimate
    user weights        fraction of a community's lists holding each user
    recovery F1         mean best-match F1 against the ground truth
    labels              every label is a term of a member list's text
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

BUNDLE = ("graph.tsv", "graph.nodes", "consensus.tsv", "communities.json",
          "stability.tsv", "labels.json", "users.json", "eval.tsv")

WEIGHT_TOL = 1e-6        # 6-decimal rounding on disk plus float slack
RAW_TOL = 1e-6
EXPECTED_TOL = 0.01
MC_DRAWS = 1000          # the program's default Monte Carlo draw count
MC_SIGMAS = 5.0
USER_WEIGHT_TOL = 1e-6
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Inputs:
    memberships: dict[str, frozenset[str]]
    texts: dict[str, tuple[str, str]]
    truth: dict[str, frozenset[str]]

    @property
    def n_users(self) -> int:
        return len(set().union(*self.memberships.values()))


def _tsv_pairs(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b = line.rstrip("\n").split("\t")
            yield a, b


def load_inputs(data_dir) -> Inputs:
    data = Path(data_dir)
    members: dict[str, set[str]] = {}
    for lid, uid in _tsv_pairs(data / "memberships.tsv"):
        members.setdefault(lid, set()).add(uid)
    texts = {}
    with open(data / "lists.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            texts[obj["id"]] = (obj["name"], obj["description"])
    truth: dict[str, set[str]] = {}
    for cat, uid in _tsv_pairs(data / "groundtruth.tsv"):
        truth.setdefault(cat, set()).add(uid)
    return Inputs({k: frozenset(v) for k, v in members.items()}, texts,
                  {k: frozenset(v) for k, v in truth.items()})


def bundle_hash(out_dir) -> str:
    digest = hashlib.sha256()
    for name in BUNDLE:
        digest.update(name.encode() + b"\0")
        digest.update((Path(out_dir) / name).read_bytes())
    return digest.hexdigest()


def exact_weight(size_x: int, size_y: int, k: int, n: int) -> float:
    """-log10 P(overlap >= k) for random lists of the two sizes, exactly."""
    if k == 0:
        return 0.0
    num = sum(math.comb(size_x, j) * math.comb(n - size_x, size_y - j)
              for j in range(k, min(size_x, size_y) + 1))
    return math.log10(math.comb(n, size_y)) - math.log10(num)


def check_graph(inputs: Inputs, out_dir, rho: float, seed: int,
                sample: int | None = 2000) -> list[str]:
    """Recompute weights for sampled edges and sampled below-rho sharing pairs.

    ``sample=None`` checks every edge and every sampled sharing pair.
    """
    mem = inputs.memberships
    n = inputs.n_users
    rng = random.Random(seed)
    with open(Path(out_dir) / "graph.tsv", encoding="utf-8") as fh:
        lines = fh.readlines()
    picked = range(len(lines)) if sample is None or sample >= len(lines) \
        else sorted(rng.sample(range(len(lines)), sample))
    edges = {}
    for i in picked:
        a, b, w = lines[i].rstrip("\n").split("\t")
        edges[(a, b)] = float(w)

    # Member-sharing pairs reached through a random shared user.
    by_user: dict[str, list[str]] = {}
    for lid in sorted(mem):
        for uid in mem[lid]:
            by_user.setdefault(uid, []).append(lid)
    shared = [u for u in sorted(by_user) if len(by_user[u]) >= 2]
    want = len(picked) if sample is None else sample
    candidates = set()
    for _ in range(4 * want if shared else 0):
        a, b = sorted(rng.sample(by_user[rng.choice(shared)], 2))
        if (a, b) not in edges:
            candidates.add((a, b))
    in_graph = {}
    if candidates:
        for line in lines:
            a, b, w = line.rstrip("\n").split("\t")
            if (a, b) in candidates:
                in_graph[(a, b)] = float(w)
    below = [p for p in sorted(candidates) if p not in in_graph][:want]

    failures = []
    for (a, b), w in list(edges.items()) + [(p, None) for p in below]:
        exact = exact_weight(len(mem[a]), len(mem[b]), len(mem[a] & mem[b]), n)
        if w is not None and abs(w - exact) > WEIGHT_TOL:
            failures.append(f"graph weight {a}-{b}: file {w} exact {exact:.9f}")
        if abs(exact - rho) > 1e-9 and (w is not None) != (exact >= rho):
            failures.append(f"graph edge {a}-{b}: exact weight {exact:.6f}, "
                            f"rho {rho}, edge={w is not None}")
    return failures


def _communities(out_dir) -> list[list[str]]:
    with open(Path(out_dir) / "communities.json", encoding="utf-8") as fh:
        return json.load(fh)


def _consensus(out_dir) -> tuple[dict[tuple[str, str], float], int]:
    """Consensus entries keyed by ordered pair, and the node count l."""
    out = Path(out_dir)
    entries = {}
    with open(out / "consensus.tsv", encoding="utf-8") as fh:
        next(fh)  # "#r=" header
        for line in fh:
            a, b, v = line.rstrip("\n").split("\t")
            entries[(a, b) if a <= b else (b, a)] = float(v)
    with open(out / "graph.nodes", encoding="utf-8") as fh:
        l = sum(1 for line in fh if line.strip())
    return entries, l


def _stability_rows(out_dir) -> dict[int, tuple[float, float]]:
    rows = {}
    with open(Path(out_dir) / "stability.tsv", encoding="utf-8") as fh:
        for line in fh:
            f = line.rstrip("\n").split("\t")
            rows[int(f[5])] = (float(f[2]), float(f[3]))
    return rows


def pair_moments(entries: dict) -> tuple[float, float, float]:
    """(T, Q, A): entry sum, sum of squared entries, and sum r_i^2 - 2Q over
    the row sums r_i, i.e. the ordered pairs of distinct entries that share
    a node, weighted by the product of their scores."""
    rows: dict[str, float] = {}
    for (a, b), v in entries.items():
        rows[a] = rows.get(a, 0.0) + v
        rows[b] = rows.get(b, 0.0) + v
    q = math.fsum(v * v for v in entries.values())
    return (math.fsum(entries.values()), q,
            math.fsum(r * r for r in rows.values()) - 2 * q)


def subset_mean_sd(moments: tuple[float, float, float], l: int, size: int) -> float:
    """Exact standard deviation of the mean pair score of a uniformly drawn
    ``size``-node subset of ``l`` nodes.

    An entry, two entries sharing a node and two disjoint entries lie inside
    the subset with probabilities p2, p3 and p4; disjoint ordered entry pairs
    weigh T^2 - Q - A in total.
    """
    t, q, a = moments
    p2 = size * (size - 1) / (l * (l - 1))
    p3 = p2 * (size - 2) / (l - 2) if l > 2 else 0.0
    p4 = p3 * (size - 3) / (l - 3) if l > 3 else 0.0
    var = q * p2 + a * p3 + (t * t - q - a) * p4 - (t * p2) ** 2
    return math.sqrt(max(var, 0.0)) / (size * (size - 1) / 2)


def check_stability(out_dir) -> list[str]:
    """Raw stability per community and the expected term per row."""
    communities = _communities(out_dir)
    entries, l = _consensus(out_dir)
    rows = _stability_rows(out_dir)
    failures = []
    scored = {cid for cid, c in enumerate(communities) if len(c) >= 2}
    if set(rows) != scored:
        failures.append(f"stability rows {len(rows)} for {len(scored)} communities")
    mean_entry = math.fsum(entries.values()) / (l * (l - 1) / 2)
    moments = pair_moments(entries)
    tolerance: dict[int, float] = {}
    for cid, (raw, expected) in sorted(rows.items()):
        if cid not in scored:
            continue
        members = sorted(communities[cid])
        total = math.fsum(entries.get((a, b), 0.0)
                          for i, a in enumerate(members) for b in members[i + 1:])
        mine = total / (len(members) * (len(members) - 1) / 2)
        if abs(mine - raw) > RAW_TOL:
            failures.append(f"raw stability of community {cid}: file {raw} "
                            f"recomputed {mine:.9f}")
        size = len(members)
        if size not in tolerance:
            sd = subset_mean_sd(moments, l, size)
            tolerance[size] = max(EXPECTED_TOL, MC_SIGMAS * sd / math.sqrt(MC_DRAWS))
        if abs(mean_entry - expected) > tolerance[size]:
            failures.append(f"expected stability of community {cid}: file "
                            f"{expected} exact mean {mean_entry:.6f} "
                            f"tolerance {tolerance[size]:.6f}")
    return failures


def _users(out_dir) -> list[dict]:
    with open(Path(out_dir) / "users.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_user_weights(inputs: Inputs, out_dir, mu: float) -> list[str]:
    communities = _communities(out_dir)
    reports = _users(out_dir)
    failures = []
    if sorted(r["community_id"] for r in reports) != list(range(len(communities))):
        failures.append("users.json does not hold one report per community")
    for report in reports:
        cid = report["community_id"]
        if not 0 <= cid < len(communities):
            continue
        lists = communities[cid]
        counts: dict[str, int] = {}
        for lid in lists:
            for uid in inputs.memberships.get(lid, ()):
                counts[uid] = counts.get(uid, 0) + 1
        want = {u: k / len(lists) for u, k in counts.items() if k / len(lists) >= mu}
        got = {u["id"]: u["weight"] for u in report["users"]}
        if set(got) != set(want):
            failures.append(f"user set of community {cid}: {len(got)} reported, "
                            f"{len(want)} recomputed")
            continue
        for uid, w in got.items():
            if abs(w - want[uid]) > USER_WEIGHT_TOL:
                failures.append(f"user weight {uid} in community {cid}: file {w} "
                                f"recomputed {want[uid]:.9f}")
    return failures


def recovery_f1(inputs: Inputs, out_dir) -> float:
    """Mean over categories of the F1 of the category's best-precision
    community (ties toward recall, then the lower id), members restricted to
    the ground-truth users."""
    core = frozenset().union(*inputs.truth.values())
    restricted = sorted((r["community_id"], frozenset(u["id"] for u in r["users"]) & core)
                        for r in _users(out_dir))
    scores = []
    for cat in sorted(inputs.truth):
        truth = inputs.truth[cat]
        best = (0.0, 0.0)
        for _cid, members in restricted:
            if members:
                hits = len(members & truth)
                best = max(best, (hits / len(members), hits / len(truth)))
        p, r = best
        scores.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    return sum(scores) / len(scores)


def check_recovery(inputs: Inputs, out_dir, floor: float) -> tuple[list[str], float]:
    f1 = recovery_f1(inputs, out_dir)
    return ([] if f1 >= floor else [f"recovery F1 {f1:.4f} below floor {floor}"]), f1


def _terms(name: str, description: str) -> set[str]:
    terms = set()
    for text in (name, description):
        tokens = _TOKEN.findall(text.lower())
        terms.update(tokens)
        terms.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
    return terms


def check_labels(inputs: Inputs, out_dir) -> list[str]:
    communities = _communities(out_dir)
    with open(Path(out_dir) / "labels.json", encoding="utf-8") as fh:
        labels = {e["community_id"]: e["labels"] for e in json.load(fh)}
    failures = []
    for cid, terms in sorted(labels.items()):
        vocab = set().union(*(_terms(*inputs.texts.get(lid, ("", "")))
                              for lid in communities[cid]))
        failures += [f"label {t!r} of community {cid} is no member-list term"
                     for t in terms if t not in vocab]
    for report in _users(out_dir):
        if report["labels"] != labels.get(report["community_id"], []):
            failures.append(f"users.json labels of community "
                            f"{report['community_id']} differ from labels.json")
    return failures


def check_bundle(inputs: Inputs, out_dir, *, rho: float, mu: float,
                 f1_floor: float, seed: int) -> tuple[list[str], float]:
    """All checks on one bundle: (failure messages, recovery F1)."""
    recovery, f1 = check_recovery(inputs, out_dir, f1_floor)
    failures = (check_graph(inputs, out_dir, rho, seed)
                + check_stability(out_dir)
                + check_user_weights(inputs, out_dir, mu)
                + recovery
                + check_labels(inputs, out_dir))
    return failures, f1
