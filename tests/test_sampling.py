"""Neighbor samplers: budgets, distributions, and the deterministic
affinity sampler against a brute-force oracle."""

import numpy as np
import pytest

from coldstart.data import ITEM, USER, Interaction, build_graph, flip
from coldstart.pretraining import _sample_tree
from coldstart.sampling import sample_dynamic, sample_importance, sample_random


def random_bipartite(rng, n_users, n_items, p):
    inter = []
    ts = 0
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < p:
                inter.append(Interaction(u, i, ts))
                ts += 1
    # ensure no isolated user 0 so it's always a legal target
    if not any(x.user == 0 for x in inter):
        inter.append(Interaction(0, 0, ts))
    return build_graph(inter, n_users, n_items)


def brute_force_dynamic(graph, target, k, l_max, meta, cur):
    """Independent re-derivation: score the full deduplicated pool with plain
    cosines, sort (score desc, id asc), truncate to k**l."""
    nu = graph.n_users

    def vec(side, node):
        idx = node if side == USER else nu + node
        return np.concatenate([meta[idx], cur[idx]])

    def cos(a, b):
        return float(a @ b / ((np.linalg.norm(a) + 1e-12) * (np.linalg.norm(b) + 1e-12)))

    tvec = vec(*target)
    layers = [[(target[0], target[1], -1)]]
    for l in range(1, l_max + 1):
        prev = layers[-1]
        cside = flip(prev[0][0])
        pool, parent_of = [], {}
        for pi, (ps, pn, _) in enumerate(prev):
            for c in graph.neighbors(ps, pn):
                c = int(c)
                if c not in parent_of:
                    parent_of[c] = pi
                    pool.append(c)
        scored = sorted(((cos(tvec, vec(cside, c)), c) for c in pool),
                        key=lambda t: (-t[0], t[1]))
        kept = scored[: k ** l]
        layers.append([(cside, c, parent_of[c]) for _, c in kept])
    return layers


class TestSharedStructure:
    @pytest.mark.parametrize("name", ["random", "importance", "dynamic"])
    def test_budget_and_adjacency(self, name):
        rng = np.random.default_rng(55)
        g = random_bipartite(rng, 12, 10, 0.35)
        meta = rng.normal(size=(22, 4))
        cur = rng.normal(size=(22, 4))
        sub = _sample_tree(name, g, (USER, 0), 2, 3, 17, meta, cur)
        assert sub.layers[0][0][:2] == (USER, 0)
        for l in range(1, len(sub.layers)):
            assert len(sub.layers[l]) <= 2 ** l
            for tn in sub.layers[l]:
                parent = sub.layers[l - 1][tn.parent]
                assert tn.node in g.neighbors(parent.side, parent.node)
                assert tn.side == flip(parent.side)

    @pytest.mark.parametrize("name", ["random", "importance"])
    def test_seed_determinism(self, name):
        rng = np.random.default_rng(56)
        g = random_bipartite(rng, 10, 10, 0.4)
        fn = sample_random if name == "random" else sample_importance
        a = fn(g, (ITEM, 1), 3, 2, seed=5)
        b = fn(g, (ITEM, 1), 3, 2, seed=5)
        c = fn(g, (ITEM, 1), 3, 2, seed=6)
        assert a.layers == b.layers
        assert a.layers != c.layers or g.degree(ITEM, 1) <= 3  # tiny degree can tie

    def test_zero_degree_target_rejected(self):
        g = build_graph([Interaction(0, 0, 1)], n_users=2, n_items=1)
        with pytest.raises(ValueError):
            sample_random(g, (USER, 1), 2, 2, seed=1)

    def test_bad_k_rejected(self):
        g = build_graph([Interaction(0, 0, 1)])
        with pytest.raises(ValueError):
            sample_random(g, (USER, 0), 0, 2, seed=1)


class TestRandomSampler:
    def test_without_replacement(self):
        rng = np.random.default_rng(57)
        g = random_bipartite(rng, 8, 8, 0.6)
        for seed in range(20):
            sub = sample_random(g, (USER, 0), 3, 2, seed)
            by_parent = {}
            for tn in sub.layers[1]:
                by_parent.setdefault(tn.parent, []).append(tn.node)
            for kids in by_parent.values():
                assert len(kids) == len(set(kids))

    def test_roughly_uniform(self):
        # u0 has 6 neighbors, keep 1: each should be hit ~1/6 of the time
        inter = [Interaction(0, i, i) for i in range(6)]
        g = build_graph(inter, 1, 6)
        counts = np.zeros(6)
        n = 3000
        for seed in range(n):
            sub = sample_random(g, (USER, 0), 1, 1, seed)
            counts[sub.layers[1][0].node] += 1
        p = 1 / 6
        sd = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 4 * sd), counts


class TestImportanceSampler:
    def test_degree_biased(self):
        # item 0 has degree 5, items 1..4 degree 1: when keeping one of u0's
        # five neighbors {0..4}, item 0 should win with p = 5/9
        inter = [Interaction(0, i, i) for i in range(5)]
        inter += [Interaction(u, 0, 10 + u) for u in range(1, 5)]
        g = build_graph(inter, 5, 5)
        n = 3000
        wins = sum(sample_importance(g, (USER, 0), 1, 1, seed).layers[1][0].node == 0
                   for seed in range(n))
        p = 5 / 9
        sd = np.sqrt(n * p * (1 - p))
        assert abs(wins - n * p) < 4 * sd, wins


class TestDynamicSampler:
    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(60)
        for trial in range(30):
            g = random_bipartite(rng, 10, 8, 0.35)
            meta = rng.normal(size=(18, 3))
            cur = rng.normal(size=(18, 3))
            sub = sample_dynamic(g, (USER, 0), 2, 3, meta, cur)
            expect = brute_force_dynamic(g, (USER, 0), 2, 3, meta, cur)
            got = [[(t.side, t.node, t.parent) for t in layer] for layer in sub.layers]
            assert got == expect, f"trial {trial}"

    def test_tie_break_ascending_id(self):
        # two candidates with identical embeddings -> identical scores;
        # the smaller id must be kept
        inter = [Interaction(0, 0, 1), Interaction(0, 1, 2), Interaction(0, 2, 3)]
        g = build_graph(inter, 1, 3)
        meta = np.zeros((4, 2))
        cur = np.zeros((4, 2))
        cur[0] = [1.0, 0.0]         # user 0
        cur[1] = [1.0, 0.0]         # item 0: cos = 1
        cur[2] = [1.0, 0.0]         # item 1: cos = 1 (tie with item 0)
        cur[3] = [0.0, 1.0]         # item 2: cos = 0
        sub = sample_dynamic(g, (USER, 0), 2, 1, meta, cur)
        kept = [t.node for t in sub.layers[1]]
        assert kept == [0, 1]

    def test_scores_sorted_descending(self):
        rng = np.random.default_rng(61)
        g = random_bipartite(rng, 10, 10, 0.4)
        meta = rng.normal(size=(20, 4))
        cur = rng.normal(size=(20, 4))
        sub = sample_dynamic(g, (USER, 0), 2, 3, meta, cur)
        for sc in sub.scores[1:]:
            assert (np.diff(sc) <= 1e-15).all()

    def test_self_score_is_one(self):
        # a candidate with the target's own embedding scores ~1 and is kept
        inter = [Interaction(0, 0, 1), Interaction(0, 1, 2)]
        g = build_graph(inter, 1, 2)
        meta = np.zeros((3, 2))
        cur = np.array([[0.6, 0.8], [0.6, 0.8], [-0.8, 0.6]])
        sub = sample_dynamic(g, (USER, 0), 1, 1, meta, cur)
        assert sub.layers[1][0].node == 0
        assert abs(sub.scores[1][0] - 1.0) < 1e-9

    def test_no_rng_pure_function(self):
        rng = np.random.default_rng(62)
        g = random_bipartite(rng, 10, 10, 0.4)
        meta = rng.normal(size=(20, 4))
        cur = rng.normal(size=(20, 4))
        a = sample_dynamic(g, (USER, 1), 2, 2, meta, cur)
        b = sample_dynamic(g, (USER, 1), 2, 2, meta, cur)
        assert a.layers == b.layers
        for sa, sb in zip(a.scores, b.scores):
            assert np.array_equal(sa, sb)

    def test_missing_embedding_row_named(self):
        inter = [Interaction(0, 0, 1)]
        g = build_graph(inter, 1, 1)
        short = np.zeros((1, 2))  # item row missing
        with pytest.raises(KeyError, match="item 0"):
            sample_dynamic(g, (USER, 0), 1, 1, short, short)

    def test_nonfinite_embedding_rejected(self):
        inter = [Interaction(0, 0, 1)]
        g = build_graph(inter, 1, 1)
        meta = np.zeros((2, 2))
        cur = np.zeros((2, 2))
        cur[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sample_dynamic(g, (USER, 0), 1, 1, meta, cur)
