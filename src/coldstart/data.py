"""Interaction ingestion, the bipartite graph, and the cold-start splits.

Nodes are addressed as (side, id) pairs with side "user" or "item" and dense
0-based ids. The meta split separates abundant nodes (degree strictly above a
threshold) from cold ones; abundant nodes are further split into train/test
for the simulated cold-start protocol, and cold users get a chronological
train/test cut of their interactions for the downstream ranking task.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import rng_for

USER = "user"
ITEM = "item"


def flip(side: str) -> str:
    return ITEM if side == USER else USER


class Interaction(NamedTuple):
    user: int
    item: int
    ts: int


def load_interactions(path, fmt: str):
    """Parse an interaction file into dense-id interactions plus remap tables.

    fmt "ml1m" reads user::item::rating::timestamp; fmt "tsv" reads
    user<TAB>item<TAB>timestamp. Ratings are treated as implicit feedback and
    dropped. Duplicate (user, item) pairs collapse to the latest timestamp.
    Dense ids follow the sorted order of the original ids, so the remap tables
    are stable for a given input file.
    """
    if fmt == "ml1m":
        sep, nfields, ts_at = "::", 4, 3
    elif fmt == "tsv":
        sep, nfields, ts_at = "\t", 3, 2
    else:
        raise ValueError(f"unknown interaction format: {fmt!r}")

    seen: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != nfields:
                raise ValueError(f"{path}:{lineno}: expected {nfields} {fmt} fields, got {len(parts)}")
            try:
                u = int(parts[0])
                i = int(parts[1])
                ts = int(parts[ts_at])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-integer field ({e})") from None
            key = (u, i)
            if key not in seen or ts > seen[key]:
                seen[key] = ts

    if not seen:
        raise ValueError(f"{path}: empty dataset (no interactions)")

    users = sorted({u for u, _ in seen})
    items = sorted({i for _, i in seen})
    user_remap = {orig: dense for dense, orig in enumerate(users)}
    item_remap = {orig: dense for dense, orig in enumerate(items)}
    interactions = sorted(
        Interaction(user_remap[u], item_remap[i], ts) for (u, i), ts in seen.items()
    )
    return interactions, user_remap, item_remap


class BipartiteGraph:
    """Undirected user-item graph; adjacency sorted by neighbor id."""

    def __init__(self, n_users: int, n_items: int,
                 user_adj: list[np.ndarray], item_adj: list[np.ndarray],
                 user_ts: list[np.ndarray]):
        self.n_users = n_users
        self.n_items = n_items
        self.user_adj = user_adj
        self.item_adj = item_adj
        self.user_ts = user_ts  # aligned with user_adj

    def neighbors(self, side: str, node: int) -> np.ndarray:
        adj = self.user_adj if side == USER else self.item_adj
        return adj[node]

    def degree(self, side: str, node: int) -> int:
        return len(self.neighbors(side, node))

    def n_nodes(self, side: str) -> int:
        return self.n_users if side == USER else self.n_items

    @property
    def n_interactions(self) -> int:
        return sum(len(a) for a in self.user_adj)

    def sparsity(self) -> float:
        total = self.n_users * self.n_items
        return self.n_interactions / total if total else 0.0


def build_graph(interactions, n_users: int | None = None, n_items: int | None = None) -> BipartiteGraph:
    if n_users is None:
        n_users = max((x.user for x in interactions), default=-1) + 1
    if n_items is None:
        n_items = max((x.item for x in interactions), default=-1) + 1
    by_user: list[list[tuple[int, int]]] = [[] for _ in range(n_users)]
    by_item: list[list[int]] = [[] for _ in range(n_items)]
    for u, i, ts in interactions:
        by_user[u].append((i, ts))
        by_item[i].append(u)
    user_adj, user_ts = [], []
    for rows in by_user:
        rows.sort()
        user_adj.append(np.array([r[0] for r in rows], dtype=np.int64))
        user_ts.append(np.array([r[1] for r in rows], dtype=np.int64))
    item_adj = [np.array(sorted(us), dtype=np.int64) for us in by_item]
    return BipartiteGraph(n_users, n_items, user_adj, item_adj, user_ts)


@dataclass
class MetaSplit:
    side: str
    threshold: int
    abundant: np.ndarray  # degree strictly above threshold
    cold: np.ndarray


def meta_split(graph: BipartiteGraph, side: str, threshold: int) -> MetaSplit:
    """Partition one side by degree: node is abundant iff degree > threshold."""
    n = graph.n_nodes(side)
    if n == 0:
        raise ValueError(f"meta_split: graph has no {side} nodes")
    degs = np.array([graph.degree(side, i) for i in range(n)])
    abundant = np.flatnonzero(degs > threshold)
    cold = np.flatnonzero(degs <= threshold)
    return MetaSplit(side, threshold, abundant, cold)


@dataclass
class IntrinsicSplit:
    side: str
    train: np.ndarray
    test: np.ndarray


def intrinsic_split(meta: MetaSplit, ratio: float, seed: int) -> IntrinsicSplit:
    """Shuffle the abundant nodes and cut train = floor(ratio * n), clamped so
    neither partition is empty."""
    n = len(meta.abundant)
    if n < 2:
        raise ValueError(f"intrinsic_split: need at least 2 abundant {meta.side} nodes, have {n}")
    rng = rng_for(seed, "intrinsic", meta.side)
    perm = rng.permutation(meta.abundant)
    n_train = min(max(int(math.floor(ratio * n)), 1), n - 1)
    train = np.sort(perm[:n_train])
    test = np.sort(perm[n_train:])
    return IntrinsicSplit(meta.side, train, test)


class TreeNode(NamedTuple):
    side: str
    node: int
    parent: int  # index into the previous layer, -1 at the root


@dataclass
class ExtrinsicSplit:
    """Chronological per-user cut of cold users' interactions."""

    train: dict[int, list[tuple[int, int]]] = field(default_factory=dict)  # user -> [(item, ts)]
    test: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    dropped: int = 0


def extrinsic_split(graph: BipartiteGraph, cold_users: np.ndarray, c_frac: float) -> ExtrinsicSplit:
    """First ceil(c_frac * degree) interactions by timestamp (ties by item id)
    become fine-tuning data, the rest the ranking test set. Users that would
    get an empty partition are dropped and counted."""
    out = ExtrinsicSplit()
    for u in cold_users:
        items = graph.user_adj[u]
        ts = graph.user_ts[u]
        deg = len(items)
        if deg == 0:
            out.dropped += 1
            continue
        order = np.lexsort((items, ts))
        n_train = math.ceil(c_frac * deg)
        if n_train >= deg:
            out.dropped += 1
            continue
        pairs = [(int(items[j]), int(ts[j])) for j in order]
        out.train[int(u)] = pairs[:n_train]
        out.test[int(u)] = pairs[n_train:]
    return out


def remove_test_edges(graph: BipartiteGraph, split: ExtrinsicSplit) -> BipartiteGraph:
    """Graph with cold users' held-out test interactions removed; used for
    fine-tuning and extrinsic inference so the test set never leaks."""
    drop = {(u, i) for u, pairs in split.test.items() for i, _ in pairs}
    interactions = []
    for u in range(graph.n_users):
        for i, ts in zip(graph.user_adj[u], graph.user_ts[u]):
            if (int(u), int(i)) not in drop:
                interactions.append(Interaction(int(u), int(i), int(ts)))
    return build_graph(interactions, graph.n_users, graph.n_items)
