"""Random walks over trees/graphs and the two augmentation families."""

import math

import pytest

from coldstart.data import ITEM, USER, Interaction, build_graph, flip
from coldstart.paths import (augment_path, augment_subgraph, generate_paths,
                             generate_positioned_paths)
from coldstart.sampling import sample_random


def dense_graph(n_users=8, n_items=8):
    """Complete bipartite graph: every walk/substitution has full freedom."""
    inter = [Interaction(u, i, u * n_items + i)
             for u in range(n_users) for i in range(n_items)]
    return build_graph(inter, n_users, n_items)


def sparse_graph():
    """u0-i0, u0-i1, u1-i0, u1-i2, u2-i2 (a little chain with a branch)."""
    edges = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)]
    return build_graph([Interaction(u, i, n) for n, (u, i) in enumerate(edges)], 3, 3)


class TestWalks:
    def test_alternation_and_adjacency(self):
        g = sparse_graph()
        for p in generate_paths(g, (USER, 0), 5, 10, seed=3):
            for a, b in zip(p.nodes, p.nodes[1:]):
                assert b[0] == flip(a[0])
                assert b[1] in g.neighbors(a[0], a[1])

    def test_walk_starts_at_start_and_has_len(self):
        g = dense_graph()
        for p in generate_paths(g, (ITEM, 2), 6, 5, seed=4):
            assert p.nodes[0] == (ITEM, 2)
            assert len(p.nodes) == 6 and p.complete

    def test_walk_in_tree_uses_only_tree_edges(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 0), 2, 3, seed=9)
        tree_nodes = {(t.side, t.node) for layer in tree.layers for t in layer}
        for p in generate_paths(tree, (USER, 0), 4, 8, seed=5):
            assert set(p.nodes) <= tree_nodes
            # consecutive tree-walk nodes must be parent/child in the tree
            for a, b in zip(p.nodes, p.nodes[1:]):
                found = False
                for l in range(1, len(tree.layers)):
                    for tn in tree.layers[l]:
                        pr = tree.layers[l - 1][tn.parent]
                        edge = {(pr.side, pr.node), (tn.side, tn.node)}
                        if edge == {a, b}:
                            found = True
                assert found, (a, b)

    def test_isolated_start_rejected(self):
        g = build_graph([Interaction(0, 0, 1)], 2, 1)
        with pytest.raises(ValueError):
            generate_paths(g, (USER, 1), 4, 1, seed=1)

    def test_determinism(self):
        g = sparse_graph()
        a = generate_paths(g, (USER, 1), 5, 6, seed=12)
        b = generate_paths(g, (USER, 1), 5, 6, seed=12)
        assert [p.nodes for p in a] == [p.nodes for p in b]


class TestPositionedPaths:
    def test_target_at_every_position(self):
        g = dense_graph()
        t_len = 5
        got = generate_positioned_paths(g, (USER, 3), t_len, seed=21)
        assert len(got) == t_len  # dense graph: nothing dead-ends
        for t, mp in enumerate(got):
            assert mp.pos == t
            assert mp.nodes[t] == (USER, 3)
            assert len(mp.nodes) == t_len
            assert mp.original == (USER, 3)

    def test_positioned_paths_alternate(self):
        g = dense_graph()
        for mp in generate_positioned_paths(g, (ITEM, 1), 6, seed=22):
            for a, b in zip(mp.nodes, mp.nodes[1:]):
                assert b[0] == flip(a[0])
                assert b[1] in g.neighbors(a[0], a[1])

    def test_dead_end_paths_are_skipped_not_fabricated(self):
        # a pendant pair u0-i0 only: backward extensions beyond 1 step dead-end
        g = build_graph([Interaction(0, 0, 1)], 1, 1)
        got = generate_positioned_paths(g, (USER, 0), 4, seed=23)
        for mp in got:
            assert len(mp.nodes) == 4


class TestSubgraphAugment:
    def test_delete_counts_per_layer(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 0), 3, 2, seed=31)
        sizes = [len(l) for l in tree.layers]
        assert sizes == [1, 3, 9]
        out = augment_subgraph(tree, g, "delete", 1 / 3, seed=32)
        # layer 1 loses floor(3/3)=1 node, which cascades its up-to-3 children;
        # layer 2 then loses floor of a third of ITS original count among survivors
        assert len(out.layers[1]) == 2
        assert len(out.layers[2]) <= 9 - 3

    def test_delete_zero_ratio_is_identity(self):
        g = dense_graph()
        tree = sample_random(g, (ITEM, 2), 2, 3, seed=33)
        out = augment_subgraph(tree, g, "delete", 0.0, seed=34)
        assert out.layers == tree.layers

    def test_target_never_deleted(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 5), 2, 2, seed=35)
        for seed in range(10):
            out = augment_subgraph(tree, g, "delete", 0.5, seed=seed)
            assert out.layers[0][0][:2] == (USER, 5)

    def test_substitute_preserves_layer_sizes_on_dense_graph(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 1), 2, 3, seed=36)
        out = augment_subgraph(tree, g, "substitute", 0.5, seed=37)
        assert [len(l) for l in out.layers] == [len(l) for l in tree.layers]

    def test_substitute_keeps_adjacency(self):
        g = dense_graph(5, 5)
        tree = sample_random(g, (USER, 0), 2, 3, seed=38)
        out = augment_subgraph(tree, g, "substitute", 0.5, seed=39)
        for l in range(1, len(out.layers)):
            for tn in out.layers[l]:
                parent = out.layers[l - 1][tn.parent]
                assert tn.node in g.neighbors(parent.side, parent.node)

    def test_both_chains_and_stays_valid(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 2), 2, 3, seed=40)
        out = augment_subgraph(tree, g, "both", 0.34, seed=41)
        for l in range(1, len(out.layers)):
            assert len(out.layers[l]) <= 2 ** l
            for tn in out.layers[l]:
                parent = out.layers[l - 1][tn.parent]
                assert tn.node in g.neighbors(parent.side, parent.node)

    def test_two_seeds_two_views(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 4), 2, 3, seed=42)
        a = augment_subgraph(tree, g, "both", 0.34, seed=1)
        b = augment_subgraph(tree, g, "both", 0.34, seed=2)
        assert a.layers != b.layers

    def test_bad_ratio_rejected(self):
        g = dense_graph()
        tree = sample_random(g, (USER, 0), 2, 2, seed=43)
        with pytest.raises(ValueError):
            augment_subgraph(tree, g, "delete", 1.5, seed=44)
        with pytest.raises(ValueError):
            augment_subgraph(tree, g, "warp", 0.2, seed=45)


class TestPathAugment:
    def path(self):
        return [(USER, 0), (ITEM, 0), (USER, 1), (ITEM, 2), (USER, 2)]

    def test_delete_count_and_kept_from(self):
        p = self.path()
        out = augment_path(p, "delete", 0.4, seed=51)
        assert len(out.nodes) == len(p) - math.floor(0.4 * len(p))
        assert out.kept_from == sorted(out.kept_from)
        for new_idx, old_idx in enumerate(out.kept_from):
            assert out.nodes[new_idx] == p[old_idx]

    def test_protected_position_survives(self):
        p = self.path()
        for seed in range(15):
            out = augment_path(p, "delete", 0.4, seed=seed, protect=2)
            assert 2 in out.kept_from
            assert out.nodes[out.kept_from.index(2)] == p[2]

    def test_substitute_uses_predecessor_neighbors(self):
        g = sparse_graph()
        p = [(USER, 0), (ITEM, 0), (USER, 1), (ITEM, 2)]
        for seed in range(15):
            out = augment_path(p, "substitute", 0.25, seed=seed, graph=g)
            assert len(out.nodes) == len(p)
            assert out.kept_from == [0, 1, 2, 3]
            changed = [j for j in range(len(p)) if out.nodes[j] != p[j]]
            for j in changed:
                parent = out.nodes[j - 1] if j > 0 else out.nodes[1]
                assert out.nodes[j][1] in g.neighbors(parent[0], parent[1])
                assert out.nodes[j][0] == flip(parent[0])

    def test_substitute_position_zero_uses_successor(self):
        g = sparse_graph()
        p = [(USER, 1), (ITEM, 0)]
        hit = False
        for seed in range(40):
            out = augment_path(p, "substitute", 0.5, seed=seed, graph=g, protect=1)
            if out.nodes[0] != p[0]:
                hit = True
                # parent is the successor (ITEM, 0); its neighbors are u0, u1
                assert out.nodes[0][1] in g.neighbors(ITEM, 0)
                assert out.nodes[0][0] == USER
        assert hit

    def test_substitute_requires_graph(self):
        with pytest.raises(ValueError):
            augment_path(self.path(), "substitute", 0.4, seed=52)

    def test_cannot_delete_everything(self):
        with pytest.raises(ValueError):
            augment_path([(USER, 0)], "delete", 1.0, seed=53)

    def test_both_composes_kept_from(self):
        g = dense_graph()
        p = [(USER, j % 4) if j % 2 == 0 else (ITEM, j % 4) for j in range(6)]
        out = augment_path(p, "both", 0.34, seed=54, graph=g, protect=0)
        assert 0 in out.kept_from
        assert len(out.kept_from) == len(out.nodes)
        assert out.kept_from == sorted(out.kept_from)
