"""Encoders: attention meta-aggregation, tree convolution, the path
transformer, and token rendering. Forward passes are checked against
independent numpy re-derivations."""

import numpy as np
import pytest

import coldstart.autodiff as ad
from coldstart.data import ITEM, USER, Interaction, build_graph
from coldstart.encoders import (compute_meta_table, encode_masked_path,
                                encode_path_at, gnn_forward,
                                init_gnn_params, init_meta_params,
                                init_projection_params,
                                init_transformer_params, mask_token,
                                meta_aggregate, node_index, path_tokens,
                                project, transformer_forward, vocab_size)
from coldstart.paths import MaskedPath
from coldstart.sampling import SampledSubgraph
from coldstart.data import TreeNode


def np_softmax(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestTokenRendering:
    def test_node_index_layout(self):
        assert node_index(USER, 3, n_users=10) == 3
        assert node_index(ITEM, 3, n_users=10) == 13
        assert mask_token(10, 5) == 15
        assert vocab_size(10, 5) == 16

    def test_path_tokens_and_mask(self):
        nodes = [(USER, 2), (ITEM, 1), (USER, 0)]
        ids = path_tokens(nodes, 4, 3)
        np.testing.assert_array_equal(ids, [2, 5, 0])
        masked = path_tokens(nodes, 4, 3, mask_pos=1)
        np.testing.assert_array_equal(masked, [2, 7, 0])

    def test_unknown_token_rejected(self):
        with pytest.raises(IndexError):
            path_tokens([(ITEM, 9)], 4, 3)


class TestMetaAggregator:
    def setup_store(self, d=4, seed=3):
        store = ad.ParamStore()
        init_meta_params(store, "Rg", d, seed)
        return store

    def weights(self, store):
        return [store[f"Rg/meta/{name}"].data for name in ("wq", "wk", "wv")]

    def test_matches_numpy_oracle(self):
        store = self.setup_store()
        rng = np.random.default_rng(8)
        nb = rng.normal(size=(5, 4))
        out = meta_aggregate(nb, *self.weights(store))

        wq = store["Rg/meta/wq"].data
        wk = store["Rg/meta/wk"].data
        wv = store["Rg/meta/wv"].data
        attn = np_softmax((nb @ wq) @ (nb @ wk).T / np.sqrt(4))
        expect = (attn @ (nb @ wv)).mean(axis=0)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_permutation_invariance(self):
        store = self.setup_store()
        rng = np.random.default_rng(9)
        nb = rng.normal(size=(6, 4))
        base = meta_aggregate(nb, *self.weights(store))
        for trial in range(5):
            perm = np.random.default_rng(trial).permutation(6)
            out = meta_aggregate(nb[perm], *self.weights(store))
            assert np.max(np.abs(out - base)) <= 1e-10

    def test_single_neighbor(self):
        store = self.setup_store()
        nb = np.array([[1.0, -1.0, 0.5, 2.0]])
        out = meta_aggregate(nb, *self.weights(store))
        # with one row, attention is the identity: output = row @ wv
        np.testing.assert_allclose(out, (nb @ store["Rg/meta/wv"].data)[0], atol=1e-12)

    def test_empty_rejected(self):
        store = self.setup_store()
        with pytest.raises(ValueError):
            meta_aggregate(np.zeros((0, 4)), *self.weights(store))


class TestMetaTable:
    def graph(self):
        edges = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)]
        return build_graph([Interaction(u, i, n) for n, (u, i) in enumerate(edges)], 4, 3)

    def test_matches_direct_attention_when_degree_at_most_k(self):
        g = self.graph()
        rng = np.random.default_rng(12)
        d = 4
        embed = rng.normal(size=(7, d))
        wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
        table = compute_meta_table(g, embed, wq, wk, wv, k=3, seed=5)
        # u0 has 3 neighbors (i0, i1, i2) = rows 4, 5, 6
        rows = embed[[4, 5, 6]]
        attn = np_softmax((rows @ wq) @ (rows @ wk).T / np.sqrt(d))
        np.testing.assert_allclose(table[0], (attn @ (rows @ wv)).mean(axis=0), atol=1e-12)

    def test_isolated_node_gets_zero_row(self):
        g = self.graph()  # u3 has no edges
        rng = np.random.default_rng(13)
        embed = rng.normal(size=(7, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        table = compute_meta_table(g, embed, wq, wk, wv, k=2, seed=5)
        np.testing.assert_array_equal(table[3], np.zeros(4))

    def test_caps_at_k_and_is_seeded(self):
        from itertools import combinations

        g = self.graph()
        rng = np.random.default_rng(14)
        embed = rng.normal(size=(7, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        t1 = compute_meta_table(g, embed, wq, wk, wv, k=2, seed=5)
        t2 = compute_meta_table(g, embed, wq, wk, wv, k=2, seed=5)
        assert np.array_equal(t1, t2)  # same seed, same subsets

        # u0 has degree 3 > k=2: its row must match one of the three possible
        # 2-subsets, and different seeds must eventually pick different ones
        def expect_for(subset):
            rows = embed[list(subset)]
            attn = np_softmax((rows @ wq) @ (rows @ wk).T / 2.0)
            return (attn @ (rows @ wv)).mean(axis=0)

        possible = [expect_for(s) for s in combinations([4, 5, 6], 2)]
        seen = set()
        for seed in range(21):
            row = compute_meta_table(g, embed, wq, wk, wv, k=2, seed=seed)[0]
            matches = [j for j, e in enumerate(possible)
                       if np.allclose(row, e, atol=1e-12)]
            assert len(matches) == 1
            seen.add(matches[0])
        assert len(seen) >= 2


def tiny_tree():
    """Fixed 2-deep tree rooted at u0: children i0, i1; grandchildren u1
    (under i0) and u2 (under i1)."""
    layers = [
        [TreeNode(USER, 0, -1)],
        [TreeNode(ITEM, 0, 0), TreeNode(ITEM, 1, 0)],
        [TreeNode(USER, 1, 0), TreeNode(USER, 2, 1)],
    ]
    return SampledSubgraph((USER, 0), 2, "fixed", layers)


class TestTreeConvolution:
    N_USERS, N_ITEMS, D = 3, 2, 3

    def build_store(self, layers, seed=21):
        store = ad.ParamStore()
        rng = np.random.default_rng(seed)
        store.register("Rg/embed", rng.normal(size=(self.N_USERS + self.N_ITEMS, self.D)))
        store.register("Rg/meta_table",
                       rng.normal(size=(self.N_USERS + self.N_ITEMS, self.D)), frozen=True)
        init_gnn_params(store, "Rg", self.D, layers, seed)
        return store

    def numpy_oracle(self, store, tree, layers):
        """Independent re-derivation of the conv stack on the fixed tree."""
        embed = store["Rg/embed"].data
        meta = store["Rg/meta_table"].data
        depth = len(tree) - 1
        idx = [[node_index(t.side, t.node, self.N_USERS) for t in layer] for layer in tree]
        h = [embed[i] for i in idx]
        for step in range(1, layers):
            new_h = [x.copy() for x in h]
            for l in range(1, depth - step + 1):
                child_mean = np.zeros_like(h[l])
                for c, tn in enumerate(tree[l + 1]):
                    child_mean[tn.parent] += h[l + 1][c]
                counts = np.zeros(len(tree[l]))
                for tn in tree[l + 1]:
                    counts[tn.parent] += 1
                nz = counts > 0
                child_mean[nz] /= counts[nz, None]
                x = np.concatenate([meta[idx[l]], h[l], child_mean], axis=1)
                new_h[l] = np_sigmoid(x @ store[f"Rg/gnn/w{step}"].data)
            h = new_h
        return np_sigmoid(h[1].mean(axis=0) @ store["Rg/gnn/wout"].data)

    def test_matches_numpy_oracle_two_layers(self):
        sub = tiny_tree()
        store = self.build_store(layers=2)
        tape = ad.Tape()
        out = gnn_forward(tape, store, "Rg", sub, 2, self.N_USERS)
        np.testing.assert_allclose(out.data, self.numpy_oracle(store, sub.layers, 2), atol=1e-12)

    def test_matches_numpy_oracle_three_layers(self):
        # depth-3 tree so every step has something to refine
        layers = [
            [TreeNode(USER, 0, -1)],
            [TreeNode(ITEM, 0, 0), TreeNode(ITEM, 1, 0)],
            [TreeNode(USER, 1, 0), TreeNode(USER, 2, 1)],
            [TreeNode(ITEM, 1, 0), TreeNode(ITEM, 0, 1)],
        ]
        sub = SampledSubgraph((USER, 0), 2, "fixed", layers)
        store = self.build_store(layers=3)
        tape = ad.Tape()
        out = gnn_forward(tape, store, "Rg", sub, 3, self.N_USERS)
        np.testing.assert_allclose(out.data, self.numpy_oracle(store, layers, 3), atol=1e-12)

    def test_child_order_invariance(self):
        # permuting siblings (and fixing parent pointers) must not move the
        # readout: children only enter through means
        sub = tiny_tree()
        swapped = [
            sub.layers[0],
            [TreeNode(ITEM, 1, 0), TreeNode(ITEM, 0, 0)],
            [TreeNode(USER, 2, 0), TreeNode(USER, 1, 1)],
        ]
        sub2 = SampledSubgraph((USER, 0), 2, "fixed", swapped)
        store = self.build_store(layers=2)
        a = gnn_forward(ad.Tape(), store, "Rg", sub, 2, self.N_USERS).data
        b = gnn_forward(ad.Tape(), store, "Rg", sub2, 2, self.N_USERS).data
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_childless_interior_node_contributes_zero(self):
        pruned = [
            [TreeNode(USER, 0, -1)],
            [TreeNode(ITEM, 0, 0), TreeNode(ITEM, 1, 0)],
            [TreeNode(USER, 1, 0)],  # i1 kept no children
        ]
        sub = SampledSubgraph((USER, 0), 2, "fixed", pruned)
        store = self.build_store(layers=2)
        out = gnn_forward(ad.Tape(), store, "Rg", sub, 2, self.N_USERS)
        np.testing.assert_allclose(out.data, self.numpy_oracle(store, pruned, 2), atol=1e-12)

    def test_empty_first_layer_rejected(self):
        sub = SampledSubgraph((USER, 0), 2, "fixed", [[TreeNode(USER, 0, -1)], []])
        store = self.build_store(layers=2)
        with pytest.raises(ValueError):
            gnn_forward(ad.Tape(), store, "Rg", sub, 2, self.N_USERS)

    def test_output_dim_and_range(self):
        sub = tiny_tree()
        store = self.build_store(layers=2)
        out = gnn_forward(ad.Tape(), store, "Rg", sub, 2, self.N_USERS)
        assert out.data.shape == (self.D,)
        assert ((out.data > 0) & (out.data < 1)).all()  # sigmoid readout


class TestPathTransformer:
    N_USERS, N_ITEMS, D, T = 4, 3, 4, 4

    def build_store(self, blocks=1, heads=2, seed=31):
        store = ad.ParamStore()
        rng = np.random.default_rng(seed)
        store.register("Rp/embed",
                       rng.normal(size=(vocab_size(self.N_USERS, self.N_ITEMS), self.D)))
        init_transformer_params(store, "Rp", self.D, self.T, blocks, heads, seed)
        return store

    def numpy_oracle(self, store, tokens, blocks, heads):
        x = store["Rp/embed"].data[tokens] + store["Rp/pos"].data[: len(tokens)]
        for b in range(blocks):
            y = np_layer_norm(x, store[f"Rp/tr/b{b}/ln1g"].data, store[f"Rp/tr/b{b}/ln1b"].data)
            outs = []
            for hh in range(heads):
                q = y @ store[f"Rp/tr/b{b}/h{hh}/wq"].data
                k = y @ store[f"Rp/tr/b{b}/h{hh}/wk"].data
                v = y @ store[f"Rp/tr/b{b}/h{hh}/wv"].data
                a = np_softmax(q @ k.T / np.sqrt(q.shape[1]))
                outs.append(a @ v)
            x = x + np.concatenate(outs, axis=1) @ store[f"Rp/tr/b{b}/wo"].data
            z = np_layer_norm(x, store[f"Rp/tr/b{b}/ln2g"].data, store[f"Rp/tr/b{b}/ln2b"].data)
            f = np_sigmoid(z @ store[f"Rp/tr/b{b}/ffw1"].data + store[f"Rp/tr/b{b}/ffb1"].data)
            x = x + f @ store[f"Rp/tr/b{b}/ffw2"].data + store[f"Rp/tr/b{b}/ffb2"].data
        return np_layer_norm(x, store["Rp/tr/lnfg"].data, store["Rp/tr/lnfb"].data)

    def test_matches_numpy_oracle(self):
        store = self.build_store(blocks=2, heads=2)
        tokens = np.array([0, 5, 2, 7])
        out = transformer_forward(ad.Tape(), store, "Rp", tokens, 2, 2)
        np.testing.assert_allclose(out.data, self.numpy_oracle(store, tokens, 2, 2),
                                   atol=1e-11)

    def test_attention_rows_normalized(self):
        store = self.build_store(blocks=2, heads=2)
        _, attns = transformer_forward(ad.Tape(), store, "Rp", np.array([1, 4, 2, 6]),
                                       2, 2, collect_attn=True)
        assert len(attns) == 4  # blocks x heads
        for a in attns:
            np.testing.assert_allclose(a.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_mask_readout_independent_of_held_out_id(self):
        store = self.build_store()
        base = [(USER, 0), (ITEM, 1), (USER, 2), (ITEM, 0)]
        outs = []
        for original in ((ITEM, 1), (ITEM, 2), (ITEM, 0)):
            nodes = list(base)
            nodes[1] = original
            mp = MaskedPath(nodes, 1, original)
            out = encode_masked_path(ad.Tape(), store, "Rp", mp,
                                     self.N_USERS, self.N_ITEMS, 1, 2)
            outs.append(out.data.copy())
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_encode_path_at_selects_row(self):
        store = self.build_store()
        nodes = [(USER, 0), (ITEM, 1), (USER, 2), (ITEM, 0)]
        tokens = path_tokens(nodes, self.N_USERS, self.N_ITEMS)
        full = transformer_forward(ad.Tape(), store, "Rp", tokens, 1, 2)
        at2 = encode_path_at(ad.Tape(), store, "Rp", nodes, 2,
                             self.N_USERS, self.N_ITEMS, 1, 2)
        np.testing.assert_array_equal(at2.data, full.data[2])

    def test_path_longer_than_position_table_rejected(self):
        store = self.build_store()
        with pytest.raises(ValueError, match="positional"):
            transformer_forward(ad.Tape(), store, "Rp", np.zeros(self.T + 1, dtype=int), 1, 2)

    def test_width_must_divide_heads(self):
        store = ad.ParamStore()
        with pytest.raises(ValueError):
            init_transformer_params(store, "Rp", 5, 4, 1, 2, seed=1)


class TestProjectionHead:
    def test_shape_and_grad(self):
        store = ad.ParamStore()
        init_projection_params(store, "Cg", 4, seed=7)
        store.register("h", np.array([0.2, -0.5, 1.0, 0.1]))

        def loss_fn():
            tape = ad.Tape()
            z = project(tape, store, "Cg", store["h"])
            return tape, ad.sum_(tape, z)

        report = ad.grad_check(loss_fn, store, step=1e-6, tol=1e-6)
        assert all(e.passed for e in report), report

    def test_output_not_sigmoid_bounded(self):
        # the projection must span negative values so cosine can separate views
        store = ad.ParamStore()
        init_projection_params(store, "Cg", 6, seed=8)
        rng = np.random.default_rng(9)
        vals = []
        for _ in range(40):
            z = project(ad.Tape(), store, "Cg", ad.Tensor(rng.normal(size=6)))
            vals.append(z.data)
        assert np.min(vals) < 0 < np.max(vals)
