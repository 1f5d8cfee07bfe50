"""Neighbor sampling strategies for building per-target subgraph trees.

Three strategies over the same tree shape: uniform random (budget k children
per kept parent), importance (degree-proportional, same budget), and dynamic
(deterministic top-K^l by embedding affinity, recomputed every epoch from the
current embedding table). The cold-start masking of a target's neighborhood
is the uniform random tree under its own RNG key.

Trees may revisit node ids, including the target, because every kept node's
neighbor list contains its own parent; this mirrors standard sampled-subgraph
convolution and keeps all three strategies structurally comparable.
"""

from dataclasses import dataclass

import numpy as np

from .data import USER, BipartiteGraph, TreeNode, flip
from .rng import rng_for


@dataclass
class SampledSubgraph:
    target: tuple[str, int]
    k: int
    kind: str
    layers: list[list[TreeNode]]
    scores: list[np.ndarray] | None = None  # dynamic only, aligned with layers


def uniform_pick(rng):
    """pick() for _tree_sample: m uniformly chosen neighbors, no replacement."""
    def pick(nbrs, m, _tn):
        return nbrs[rng.choice(len(nbrs), size=m, replace=False)]
    return pick


def _check_target(graph, target, k):
    side, node = target
    if k < 1:
        raise ValueError(f"sampler: k must be >= 1, got {k}")
    if graph.degree(side, node) == 0:
        raise ValueError(f"sampler: target {side} {node} has no neighbors")


def _tree_sample(graph, target, k, l_max, pick):
    """Common per-parent tree construction; pick(nbrs, m, parent) chooses m ids."""
    side, node = target
    layers: list[list[TreeNode]] = [[TreeNode(side, node, -1)]]
    for _ in range(l_max):
        prev = layers[-1]
        child_side = flip(prev[0].side)
        nxt: list[TreeNode] = []
        for pi, tn in enumerate(prev):
            nbrs = graph.neighbors(tn.side, tn.node)
            m = min(k, len(nbrs))
            if m == 0:
                continue
            for c in sorted(pick(nbrs, m, tn)):
                nxt.append(TreeNode(child_side, int(c), pi))
        layers.append(nxt)
    return layers


def sample_random(graph: BipartiteGraph, target: tuple[str, int],
                  k: int, l_max: int, seed: int) -> SampledSubgraph:
    """Uniform without replacement, at most k children per kept parent."""
    _check_target(graph, target, k)
    pick = uniform_pick(rng_for(seed, "srand", target[0], target[1]))
    return SampledSubgraph(target, k, "random", _tree_sample(graph, target, k, l_max, pick))


def mask_neighborhood(graph: BipartiteGraph, target: tuple[str, int],
                      k: int, l_max: int, seed: int) -> SampledSubgraph:
    """Simulate a cold-start target: keep at most k uniformly chosen neighbors
    per kept node, layer by layer, out to depth l_max."""
    _check_target(graph, target, k)
    pick = uniform_pick(rng_for(seed, "mask", target[0], target[1]))
    return SampledSubgraph(target, k, "masked", _tree_sample(graph, target, k, l_max, pick))


def sample_importance(graph: BipartiteGraph, target: tuple[str, int],
                      k: int, l_max: int, seed: int) -> SampledSubgraph:
    """Degree-proportional without replacement, same per-parent budget."""
    _check_target(graph, target, k)
    rng = rng_for(seed, "simp", target[0], target[1])

    def pick(nbrs, m, tn):
        cside = flip(tn.side)
        degs = np.array([graph.degree(cside, int(c)) for c in nbrs], dtype=np.float64)
        p = degs / degs.sum()
        idx = rng.choice(len(nbrs), size=m, replace=False, p=p)
        return nbrs[idx]

    return SampledSubgraph(target, k, "importance", _tree_sample(graph, target, k, l_max, pick))


def _emb_row(table: np.ndarray, n_users: int, side: str, node: int) -> np.ndarray:
    idx = node if side == USER else n_users + node
    if idx >= table.shape[0]:
        raise KeyError(f"sampler: no embedding row for {side} {node}")
    row = table[idx]
    if not np.all(np.isfinite(row)):
        raise ValueError(f"sampler: non-finite embedding for {side} {node}")
    return row


def sample_dynamic(graph: BipartiteGraph, target: tuple[str, int], k: int, l_max: int,
                   meta_embs: np.ndarray, cur_embs: np.ndarray) -> SampledSubgraph:
    """Deterministic affinity sampler.

    At layer l the candidate pool is the union of graph neighbors of the kept
    layer-(l-1) nodes, deduplicated by id; each candidate j is scored by the
    cosine between [meta(target) || cur(target)] and [meta(j) || cur(j)], and
    the top k**l by (score desc, id asc) are kept. Both embedding tables are
    stacked user-rows-then-item-rows and must cover every candidate. No RNG.
    """
    _check_target(graph, target, k)
    side, node = target
    nu = graph.n_users
    tvec = np.concatenate([
        _emb_row(meta_embs, nu, side, node), _emb_row(cur_embs, nu, side, node)])
    tnorm = np.linalg.norm(tvec) + 1e-12

    layers: list[list[TreeNode]] = [[TreeNode(side, node, -1)]]
    scores: list[np.ndarray] = [np.array([1.0])]
    for l in range(1, l_max + 1):
        prev = layers[-1]
        child_side = flip(prev[0].side)
        pool: list[int] = []
        parent_of: dict[int, int] = {}
        for pi, tn in enumerate(prev):
            for c in graph.neighbors(tn.side, tn.node):
                c = int(c)
                if c not in parent_of:
                    parent_of[c] = pi
                    pool.append(c)
        if not pool:
            layers.append([])
            scores.append(np.zeros(0))
            continue
        cand = np.array(sorted(pool), dtype=np.int64)
        mat = np.concatenate([
            np.stack([_emb_row(meta_embs, nu, child_side, int(c)) for c in cand]),
            np.stack([_emb_row(cur_embs, nu, child_side, int(c)) for c in cand]),
        ], axis=1)
        sc = (mat @ tvec) / ((np.linalg.norm(mat, axis=1) + 1e-12) * tnorm)
        budget = min(k ** l, len(cand))
        order = np.lexsort((cand, -sc))[:budget]
        layers.append([TreeNode(child_side, int(cand[j]), parent_of[int(cand[j])]) for j in order])
        scores.append(sc[order])
    return SampledSubgraph(target, k, "dynamic", layers, scores)
