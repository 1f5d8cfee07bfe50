"""Ingestion, graph construction, and the three split protocols."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from coldstart.data import (ITEM, USER, Interaction, build_graph,
                            extrinsic_split, intrinsic_split, load_interactions,
                            meta_split, remove_test_edges)
from coldstart.sampling import mask_neighborhood

ML1M_PATH = Path(os.environ.get("COLDSTART_ML1M", "data/ml-1m/ratings.dat"))


def small_graph():
    """5 users x 4 items with hand-known degrees.

    u0: i0,i1,i2   u1: i0,i1   u2: i2   u3: i0,i1,i2,i3   u4: i3
    item degrees: i0=3 i1=3 i2=3 i3=2
    """
    edges = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2),
             (3, 0), (3, 1), (3, 2), (3, 3), (4, 3)]
    inter = [Interaction(u, i, 100 + n) for n, (u, i) in enumerate(edges)]
    return build_graph(inter)


class TestLoadInteractions:
    def test_tsv(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("10\t7\t1000\n10\t9\t1001\n12\t7\t1002\n")
        inter, umap, imap = load_interactions(f, "tsv")
        assert umap == {10: 0, 12: 1}
        assert imap == {7: 0, 9: 1}
        assert inter == [Interaction(0, 0, 1000), Interaction(0, 1, 1001),
                         Interaction(1, 0, 1002)]

    def test_ml1m_format(self, tmp_path):
        f = tmp_path / "r.dat"
        f.write_text("1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978300000\n")
        inter, umap, imap = load_interactions(f, "ml1m")
        assert len(inter) == 3
        assert umap == {1: 0, 2: 1}
        assert imap == {661: 0, 1193: 1}  # dense ids follow sorted originals
        by_pair = {(x.user, x.item): x.ts for x in inter}
        assert by_pair[(0, 1)] == 978300760

    def test_duplicate_keeps_latest_timestamp(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1\t1\t50\n1\t1\t99\n1\t1\t70\n")
        inter, _, _ = load_interactions(f, "tsv")
        assert inter == [Interaction(0, 0, 99)]

    def test_malformed_line_names_location(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1\t1\t50\nbroken\n")
        with pytest.raises(ValueError, match=r":2"):
            load_interactions(f, "tsv")

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("")
        with pytest.raises(ValueError):
            load_interactions(f, "tsv")


class TestGraph:
    def test_symmetric_incidence(self):
        g = small_graph()
        for u in range(g.n_users):
            for i in g.neighbors(USER, u):
                assert u in g.neighbors(ITEM, int(i))
        for i in range(g.n_items):
            for u in g.neighbors(ITEM, i):
                assert i in g.neighbors(USER, int(u))

    def test_adjacency_sorted_no_duplicates(self):
        g = small_graph()
        for side, n in ((USER, g.n_users), (ITEM, g.n_items)):
            for v in range(n):
                nbrs = g.neighbors(side, v)
                assert (np.diff(nbrs) > 0).all() if len(nbrs) > 1 else True

    def test_degrees_and_sparsity(self):
        g = small_graph()
        assert [g.degree(USER, u) for u in range(5)] == [3, 2, 1, 4, 1]
        assert [g.degree(ITEM, i) for i in range(4)] == [3, 3, 3, 2]
        assert g.sparsity() == 11 / 20

    def test_timestamps_aligned_with_items(self):
        g = small_graph()
        # u0 interacted with i0,i1,i2 at ts 100,101,102 in that insertion order
        np.testing.assert_array_equal(g.user_adj[0], [0, 1, 2])
        np.testing.assert_array_equal(g.user_ts[0], [100, 101, 102])


class TestMetaSplit:
    def test_threshold_is_strict(self):
        g = small_graph()
        m = meta_split(g, USER, 2)  # degree must EXCEED 2
        np.testing.assert_array_equal(m.abundant, [0, 3])
        np.testing.assert_array_equal(m.cold, [1, 2, 4])

    def test_boundary_degree_goes_cold(self):
        g = small_graph()
        m = meta_split(g, ITEM, 3)  # all of i0..i2 have degree exactly 3
        np.testing.assert_array_equal(m.abundant, [])
        np.testing.assert_array_equal(m.cold, [0, 1, 2, 3])

    def test_partitions_cover_side(self):
        g = small_graph()
        for side in (USER, ITEM):
            m = meta_split(g, side, 1)
            both = np.concatenate([m.abundant, m.cold])
            np.testing.assert_array_equal(np.sort(both), np.arange(g.n_nodes(side)))


class TestIntrinsicSplit:
    def _meta(self, n):
        g = small_graph()
        m = meta_split(g, USER, 0)
        m.abundant = np.arange(n)
        return m

    def test_seventy_thirty(self):
        s = intrinsic_split(self._meta(10), 0.7, seed=3)
        assert len(s.train) == 7 and len(s.test) == 3
        np.testing.assert_array_equal(np.sort(np.concatenate([s.train, s.test])),
                                      np.arange(10))

    def test_floor_then_clamp(self):
        assert len(intrinsic_split(self._meta(9), 0.7, 3).train) == math.floor(0.7 * 9)
        assert len(intrinsic_split(self._meta(5), 0.99, 3).train) == 4   # clamp to n-1
        assert len(intrinsic_split(self._meta(5), 0.01, 3).train) == 1   # clamp to 1

    def test_deterministic_and_seed_sensitive(self):
        a = intrinsic_split(self._meta(20), 0.7, 5)
        b = intrinsic_split(self._meta(20), 0.7, 5)
        c = intrinsic_split(self._meta(20), 0.7, 6)
        np.testing.assert_array_equal(a.train, b.train)
        assert not np.array_equal(a.train, c.train)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            intrinsic_split(self._meta(1), 0.7, 3)


class TestMaskNeighborhood:
    def test_layer_budgets(self):
        g = small_graph()
        for k in (1, 2, 3):
            m = mask_neighborhood(g, (USER, 3), k, 3, seed=11)
            for l, layer in enumerate(m.layers):
                assert len(layer) <= k ** l

    def test_root_and_alternation(self):
        g = small_graph()
        m = mask_neighborhood(g, (USER, 0), 2, 3, seed=1)
        assert m.layers[0][0].side == USER and m.layers[0][0].node == 0
        sides = [USER, ITEM, USER, ITEM]
        for l, layer in enumerate(m.layers):
            assert all(tn.side == sides[l] for tn in layer)

    def test_children_are_real_neighbors_sorted_per_parent(self):
        g = small_graph()
        m = mask_neighborhood(g, (ITEM, 0), 2, 2, seed=9)
        for l in range(1, len(m.layers)):
            prev, cur = m.layers[l - 1], m.layers[l]
            by_parent = {}
            for tn in cur:
                assert 0 <= tn.parent < len(prev)
                p = prev[tn.parent]
                assert tn.node in g.neighbors(p.side, p.node)
                by_parent.setdefault(tn.parent, []).append(tn.node)
            for kids in by_parent.values():
                assert kids == sorted(kids)

    def test_keeps_min_k_degree(self):
        g = small_graph()
        m = mask_neighborhood(g, (USER, 2), 3, 1, seed=2)  # u2 has degree 1
        assert len(m.layers[1]) == 1

    def test_same_seed_same_tree(self):
        g = small_graph()
        a = mask_neighborhood(g, (USER, 3), 2, 3, seed=4)
        b = mask_neighborhood(g, (USER, 3), 2, 3, seed=4)
        assert a.layers == b.layers

    def test_bad_args(self):
        g = small_graph()
        with pytest.raises(ValueError):
            mask_neighborhood(g, (USER, 0), 0, 2, seed=1)
        lonely = build_graph([Interaction(0, 0, 1)], n_users=2, n_items=1)
        with pytest.raises(ValueError):
            mask_neighborhood(lonely, (USER, 1), 2, 2, seed=1)


class TestExtrinsicSplit:
    def test_ceil_cut(self):
        # degree 5 at c=0.2 -> ceil(1.0)=1 train; degree 4 -> ceil(0.8)=1
        g = small_graph()
        out = extrinsic_split(g, np.array([0, 3]), 0.2)
        assert len(out.train[0]) == math.ceil(0.2 * 3) and len(out.test[0]) == 2
        assert len(out.train[3]) == math.ceil(0.2 * 4) and len(out.test[3]) == 3

    def test_chronological_order(self):
        inter = [Interaction(0, 5, 300), Interaction(0, 2, 100), Interaction(0, 9, 200)]
        g = build_graph(inter, n_users=1, n_items=10)
        out = extrinsic_split(g, np.array([0]), 0.4)  # ceil(1.2) = 2 train
        assert [i for i, _ in out.train[0]] == [2, 9]
        assert [i for i, _ in out.test[0]] == [5]

    def test_timestamp_tie_breaks_by_item(self):
        inter = [Interaction(0, 7, 100), Interaction(0, 3, 100), Interaction(0, 5, 101)]
        g = build_graph(inter, n_users=1, n_items=8)
        out = extrinsic_split(g, np.array([0]), 0.34)  # ceil(1.02) = 2
        assert [i for i, _ in out.train[0]] == [3, 7]

    def test_all_train_drops_user(self):
        inter = [Interaction(0, 1, 10), Interaction(0, 2, 11)]
        g = build_graph(inter, n_users=1, n_items=3)
        out = extrinsic_split(g, np.array([0]), 0.9)  # ceil(1.8)=2 >= degree
        assert out.dropped == 1 and 0 not in out.train

    def test_zero_degree_drops_user(self):
        g = build_graph([Interaction(0, 0, 1)], n_users=2, n_items=1)
        out = extrinsic_split(g, np.array([1]), 0.2)
        assert out.dropped == 1


class TestRemoveTestEdges:
    def test_test_edges_gone_train_kept(self):
        g = small_graph()
        out = extrinsic_split(g, np.array([0, 3]), 0.2)
        g2 = remove_test_edges(g, out)
        for u, pairs in out.test.items():
            for i, _ in pairs:
                assert i not in g2.neighbors(USER, u)
        for u, pairs in out.train.items():
            for i, _ in pairs:
                assert i in g2.neighbors(USER, u)
        # untouched users keep their full adjacency
        np.testing.assert_array_equal(g2.neighbors(USER, 1), g.neighbors(USER, 1))
        assert g2.n_users == g.n_users and g2.n_items == g.n_items


@pytest.mark.skipif(not ML1M_PATH.exists(), reason="MovieLens-1M not present")
class TestMovieLens1M:
    def test_reference_statistics(self):
        inter, umap, imap = load_interactions(ML1M_PATH, "ml1m")
        assert len(umap) == 6040
        assert len(imap) == 3706
        assert len(inter) == 1000209
        g = build_graph(inter)
        assert round(g.sparsity() * 100, 2) == 4.47
