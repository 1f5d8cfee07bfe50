"""Random-walk paths over neighbor trees (or the full graph), plus the
delete/substitute augmentations used by the contrastive objectives and the
masking used by the reconstruction path objective.

Pre-training walks stay inside the per-target tree (a SampledSubgraph, masked
or sampled) to honor the cold-start masking protocol; walking the full graph
is supported for baseline checks via the structure argument.
"""

import math
from dataclasses import dataclass, replace

from .data import BipartiteGraph, TreeNode, flip
from .rng import derive_seed, rng_for
from .sampling import _tree_sample, uniform_pick

Node = tuple[str, int]


@dataclass
class Path:
    nodes: list[Node]
    complete: bool = True  # False when a walk dead-ended and was returned short


@dataclass
class MaskedPath:
    nodes: list[Node]
    pos: int
    original: Node


@dataclass
class AugmentedPath:
    nodes: list[Node]
    kept_from: list[int]  # original index of each surviving position


class _TreeWalkSpace:
    """Adjacency over a sampled tree's slots, collapsed to (side, id) nodes."""

    def __init__(self, layers: list[list[TreeNode]]):
        adj: dict[Node, set[Node]] = {}
        for l in range(1, len(layers)):
            for tn in layers[l]:
                child = (tn.side, tn.node)
                p = layers[l - 1][tn.parent]
                parent = (p.side, p.node)
                adj.setdefault(child, set()).add(parent)
                adj.setdefault(parent, set()).add(child)
        self.adj = {n: sorted(s) for n, s in adj.items()}
        if layers and layers[0]:
            root = (layers[0][0].side, layers[0][0].node)
            self.adj.setdefault(root, [])

    def neighbors(self, node: Node) -> list[Node]:
        return self.adj.get(node, [])


class _GraphWalkSpace:
    def __init__(self, graph: BipartiteGraph):
        self.graph = graph

    def neighbors(self, node: Node) -> list[Node]:
        side, n = node
        cside = flip(side)
        return [(cside, int(c)) for c in self.graph.neighbors(side, n)]


def _walk_space(structure):
    if isinstance(structure, BipartiteGraph):
        return _GraphWalkSpace(structure)
    return _TreeWalkSpace(structure.layers)


def _walk_from(space, start: Node, t_len: int, rng) -> Path:
    nodes = [start]
    cur = start
    for _ in range(t_len - 1):
        nbrs = space.neighbors(cur)
        if not nbrs:
            return Path(nodes, complete=False)
        cur = nbrs[rng.integers(len(nbrs))]
        nodes.append(cur)
    return Path(nodes)


_RETRIES = 10  # fresh attempts at a walk that dead-ended


def generate_paths(structure, start: Node, t_len: int, count: int, seed: int) -> list[Path]:
    """count random walks of t_len nodes from start, uniform over neighbors.

    Walks that dead-end are retried up to _RETRIES times, then returned short
    with complete=False. Alternation user/item holds because every edge of the
    walk space is a user-item edge.
    """
    if t_len < 2:
        raise ValueError(f"generate_paths: t_len must be >= 2, got {t_len}")
    space = _walk_space(structure)
    if not space.neighbors(start):
        raise ValueError(f"generate_paths: start {start} is isolated")
    rng = rng_for(seed, "walk", start[0], start[1])
    out = []
    for _ in range(count):
        path = _walk_from(space, start, t_len, rng)
        tries = 0
        while not path.complete and tries < _RETRIES:
            path = _walk_from(space, start, t_len, rng)
            tries += 1
        out.append(path)
    return out


def generate_positioned_paths(structure, target: Node, t_len: int, seed: int) -> list[MaskedPath]:
    """One path per position t in [0, t_len): the target sits at index t,
    reached by walking t steps backward and t_len-1-t steps forward.

    Returns MaskedPath records (mask rendering is up to the encoder); emits
    fewer than t_len paths, rather than failing, only if some extension
    dead-ends even after retries.
    """
    if t_len < 2:
        raise ValueError(f"generate_positioned_paths: t_len must be >= 2, got {t_len}")
    space = _walk_space(structure)
    if not space.neighbors(target):
        raise ValueError(f"generate_positioned_paths: target {target} is isolated")
    rng = rng_for(seed, "poswalk", target[0], target[1])
    out = []
    for t in range(t_len):
        back = _walk_from(space, target, t + 1, rng)
        fwd = _walk_from(space, target, t_len - t, rng)
        if not (back.complete and fwd.complete):
            continue
        nodes = list(reversed(back.nodes[1:])) + [target] + fwd.nodes[1:]
        out.append(MaskedPath(nodes, t, target))
    return out


# ---------------------------------------------------------------------------
# augmentations


def _check_ratio(ratio):
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"augmentation ratio must be in [0, 1], got {ratio}")


class _Slot:
    __slots__ = ("side", "node", "children")

    def __init__(self, side, node):
        self.side = side
        self.node = node
        self.children: list[_Slot] = []


def _to_forest(layers):
    slots = [[_Slot(tn.side, tn.node) for tn in layer] for layer in layers]
    parents = [[None] * len(layer) for layer in layers]
    for l in range(1, len(layers)):
        for j, tn in enumerate(layers[l]):
            slots[l - 1][tn.parent].children.append(slots[l][j])
            parents[l][j] = slots[l - 1][tn.parent]
    return slots, parents


def _to_layers(root: _Slot, depth: int):
    layers = [[TreeNode(root.side, root.node, -1)]]
    frontier = [root]
    for _ in range(depth):
        nxt_nodes: list[TreeNode] = []
        nxt_frontier: list[_Slot] = []
        for pi, s in enumerate(frontier):
            for c in s.children:
                nxt_nodes.append(TreeNode(c.side, c.node, pi))
                nxt_frontier.append(c)
        layers.append(nxt_nodes)
        frontier = nxt_frontier
    return layers


def augment_subgraph(sub, graph: BipartiteGraph, op: str, ratio: float, seed: int):
    """Return an augmented copy of a sampled tree.

    delete: per layer, floor(ratio*|layer|) uniformly chosen nodes are removed
    together with their entire subtrees (the target is never touched).
    substitute: the same count per layer is replaced by a uniform draw from the
    parent's full first-order neighbor set in the graph, and the replacement's
    subtree is re-sampled under the budget; layer sizes are preserved exactly
    whenever replacement degrees cover the budget. "both" = delete, then
    substitute.
    """
    _check_ratio(ratio)
    if op == "both":
        once = augment_subgraph(sub, graph, "delete", ratio, seed)
        return augment_subgraph(once, graph, "substitute", ratio,
                                derive_seed(seed, "bothsub"))
    if op not in ("delete", "substitute"):
        raise ValueError(f"unknown augmentation op: {op!r}")

    rng = rng_for(seed, "augsub", op, sub.target[0], sub.target[1])
    depth = len(sub.layers) - 1
    slots, parents = _to_forest(sub.layers)
    root = slots[0][0]

    for l in range(1, len(sub.layers)):
        layer = slots[l]
        m = math.floor(ratio * len(layer))
        if not m:
            continue
        chosen = sorted(int(j) for j in rng.choice(len(layer), size=m, replace=False))
        for j in chosen:
            victim = layer[j]
            parent = parents[l][j]
            if op == "delete":
                if victim in parent.children:
                    parent.children.remove(victim)
            else:
                pool = graph.neighbors(parent.side, parent.node)
                victim.node = int(pool[rng.integers(len(pool))])
                regrown = _tree_sample(graph, (victim.side, victim.node), sub.k, depth - l,
                                       uniform_pick(rng))
                regrown_slots, _ = _to_forest(regrown)
                victim.children = regrown_slots[0][0].children

    return replace(sub, layers=_to_layers(root, depth), scores=None)


def augment_path(path: list[Node], op: str, ratio: float, seed: int,
                 graph: BipartiteGraph | None = None,
                 protect: int | None = None) -> AugmentedPath:
    """Augment a path by node deletion or substitution.

    delete removes floor(ratio*len) positions (never the protected one) and
    compacts. substitute replaces the same count, drawing uniformly from the
    graph neighbors of the predecessor ("parent"); position 0 uses its
    successor as the parent. Deleting every node raises.
    """
    _check_ratio(ratio)
    if op == "both":
        first = augment_path(path, "delete", ratio, seed, graph, protect)
        new_protect = first.kept_from.index(protect) if protect is not None else None
        second = augment_path(first.nodes, "substitute", ratio,
                              derive_seed(seed, "bothpath"), graph, new_protect)
        return AugmentedPath(second.nodes, [first.kept_from[j] for j in second.kept_from])
    if op not in ("delete", "substitute"):
        raise ValueError(f"unknown augmentation op: {op!r}")

    n = len(path)
    rng = rng_for(seed, "augpath", op)
    candidates = [j for j in range(n) if j != protect]
    m = min(math.floor(ratio * n), len(candidates))

    if op == "delete":
        drop = set(int(candidates[j]) for j in rng.choice(len(candidates), size=m, replace=False)) if m else set()
        kept = [j for j in range(n) if j not in drop]
        if not kept:
            raise ValueError("augment_path: cannot delete every node")
        return AugmentedPath([path[j] for j in kept], kept)

    if graph is None:
        raise ValueError("augment_path: substitution needs the graph")
    nodes = list(path)
    chosen = sorted(int(candidates[j]) for j in rng.choice(len(candidates), size=m, replace=False)) if m else []
    for p in chosen:
        if n == 1:
            break
        parent = nodes[p - 1] if p > 0 else nodes[1]
        pool = graph.neighbors(parent[0], parent[1])
        if len(pool) == 0:
            continue
        nodes[p] = (flip(parent[0]), int(pool[rng.integers(len(pool))]))
    return AugmentedPath(nodes, list(range(n)))
