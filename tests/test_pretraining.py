"""Pretext-task machinery: pairwise-MF reference embeddings, the three loss
families, and per-task training isolation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import coldstart.autodiff as ad
from coldstart.config import ExperimentConfig
from coldstart.data import ITEM, USER, Interaction, build_graph
from coldstart.pretraining import (GNN_TASKS, TASK_CODES, GroundTruth,
                                   bpr_loss, contrastive_loss,
                                   ground_truth_pairs, init_task,
                                   masked_test_neighborhoods, pretrain_all,
                                   pretrain_targets, reconstruction_loss,
                                   train_ground_truth, train_task)
from coldstart.sampling import mask_neighborhood


def blocky_interactions(n_users=20, n_items=10, seed=77):
    """Two planted blocks: users 0..9 like items 0..4, users 10..19 like 5..9,
    plus a little cross-block noise."""
    rng = np.random.default_rng(seed)
    inter = []
    ts = 0
    for u in range(n_users):
        own = range(5) if u < n_users // 2 else range(5, 10)
        other = range(5, 10) if u < n_users // 2 else range(5)
        for i in own:
            inter.append(Interaction(u, i, ts))
            ts += 1
        i = int(rng.choice(list(other)))
        inter.append(Interaction(u, i, ts))
        ts += 1
    return build_graph(inter, n_users, n_items)


class TestGroundTruthMF:
    def test_initial_loss_near_ln2(self):
        g = blocky_interactions()
        pairs = [(u, int(i)) for u in range(g.n_users) for i in g.neighbors(USER, u)]
        _, _, losses = train_ground_truth(20, 10, pairs, d=8, lr=0.05, epochs=1, seed=3)
        assert abs(losses[0] - math.log(2)) < 0.02

    def test_loss_decreases(self):
        g = blocky_interactions()
        pairs = [(u, int(i)) for u in range(g.n_users) for i in g.neighbors(USER, u)]
        _, _, losses = train_ground_truth(20, 10, pairs, d=8, lr=0.05, epochs=25, seed=3)
        assert losses[-1] < losses[0] * 0.5

    def test_deterministic(self):
        pairs = [(0, 0), (0, 1), (1, 2), (2, 3)]
        a = train_ground_truth(3, 4, pairs, 4, 0.05, 5, seed=9)
        b = train_ground_truth(3, 4, pairs, 4, 0.05, 5, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_planted_blocks_separate(self):
        g = blocky_interactions()
        pairs = [(u, int(i)) for u in range(g.n_users) for i in g.neighbors(USER, u)]
        P, _, _ = train_ground_truth(20, 10, pairs, d=8, lr=0.05, epochs=40, seed=3)
        Pn = P / np.linalg.norm(P, axis=1, keepdims=True)
        sims = Pn @ Pn.T
        block = np.zeros((20, 20), dtype=bool)
        block[:10, :10] = True
        block[10:, 10:] = True
        np.fill_diagonal(block, False)
        within = sims[block].mean()
        off = ~block
        np.fill_diagonal(off, False)
        cross = sims[off].mean()
        assert within > cross

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_ground_truth(3, 3, [], 4, 0.05, 5, seed=1)

    def test_saturated_user_rejected(self):
        # user 0 has interacted with all 3 items, so no negative exists for it
        with pytest.raises(ValueError, match="user 0"):
            train_ground_truth(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)], 4, 0.01, 1, 1)


class TestGroundTruthPairs:
    def make_split(self, g, side, train, test, k=2, seed=5):
        split = SimpleNamespace(side=side, train=np.array(train), test=np.array(test),
                                cold=np.array([]))
        masked = {int(t): mask_neighborhood(g, (side, int(t)), k, 2, seed) for t in test}
        return split, masked

    def test_train_targets_contribute_all_edges(self):
        g = blocky_interactions()
        split, masked = self.make_split(g, USER, train=[0, 1], test=[2])
        pairs = ground_truth_pairs(g, split, masked)
        for u in (0, 1):
            for i in g.neighbors(USER, u):
                assert (u, int(i)) in pairs

    def test_test_targets_contribute_only_kept_edges(self):
        g = blocky_interactions()
        split, masked = self.make_split(g, USER, train=[0], test=[2], k=2)
        pairs = ground_truth_pairs(g, split, masked)
        kept = {tn.node for tn in masked[2].layers[1]}
        test_pairs = {i for (u, i) in pairs if u == 2}
        assert test_pairs == kept
        assert len(kept) == 2  # degree 6 capped at k=2

    def test_item_side_orientation(self):
        g = blocky_interactions()
        split, masked = self.make_split(g, ITEM, train=[0], test=[5], k=2)
        pairs = ground_truth_pairs(g, split, masked)
        for u, i in pairs:
            assert i in (0, 5)
            assert u in g.neighbors(ITEM, i)


class TestTargetVec:
    def test_lookup_sides(self):
        P1, Q1 = np.arange(6.0).reshape(3, 2), np.arange(8.0).reshape(4, 2) + 100
        P2, Q2 = P1 + 50, Q1 + 50
        gt = GroundTruth((P1, Q1), (P2, Q2))
        np.testing.assert_array_equal(gt.target_vec(USER, 1), P1[1])
        np.testing.assert_array_equal(gt.target_vec(ITEM, 2), Q2[2])


class TestReconstructionLoss:
    def test_aligned_is_zero(self):
        v = np.array([0.3, -1.2, 0.8])
        tape = ad.Tape()
        loss = reconstruction_loss(tape, [ad.Tensor(v)], [v.copy()])
        assert abs(float(loss.data)) < 1e-9

    def test_opposed_is_two(self):
        v = np.array([0.3, -1.2, 0.8])
        tape = ad.Tape()
        loss = reconstruction_loss(tape, [ad.Tensor(v)], [-v])
        assert abs(float(loss.data) - 2.0) < 1e-9

    def test_batch_mean(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        tape = ad.Tape()
        loss = reconstruction_loss(tape, [ad.Tensor(a), ad.Tensor(a)], [a, b])
        assert abs(float(loss.data) - 0.5) < 1e-9  # (0 + 1)/2

    def test_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = rng.normal(size=4)
            t = rng.normal(size=4)
            tape = ad.Tape()
            loss = float(reconstruction_loss(tape, [ad.Tensor(p)], [t]).data)
            assert -1e-12 <= loss <= 2.0 + 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(33)
        store = ad.ParamStore()
        store.register("p1", rng.normal(size=5))
        store.register("p2", rng.normal(size=5))
        targets = [rng.normal(size=5), rng.normal(size=5)]

        def loss_fn():
            tape = ad.Tape()
            return tape, reconstruction_loss(tape, [store["p1"], store["p2"]], targets)

        report = ad.grad_check(loss_fn, store, step=1e-5, tol=1e-4)
        assert all(e.passed for e in report), report


def contrastive_oracle(z, tau):
    """Direct double-loop restatement of the published objective."""
    n2 = len(z)

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for m in range(n2):
        p = m + 1 if m % 2 == 0 else m - 1
        denom = 0.0
        for k in range(n2):
            if k != m:
                denom += math.exp(cos(z[m], z[k]) / tau)
        total += -cos(z[m], z[p]) / tau + math.log(denom)
    return total / n2


class TestContrastiveLoss:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(41)
        for tau in (0.1, 0.2, 1.0):
            for _ in range(10):
                n2 = int(rng.integers(1, 9)) * 2
                z = [rng.normal(size=6) for _ in range(n2)]
                tape = ad.Tape()
                got = float(contrastive_loss(tape, [ad.Tensor(v) for v in z], tau).data)
                assert abs(got - contrastive_oracle(z, tau)) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        z = [rng.normal(size=5) for _ in range(6)]
        tape = ad.Tape()
        a = float(contrastive_loss(tape, [ad.Tensor(v) for v in z], 0.2).data)
        tape = ad.Tape()
        b = float(contrastive_loss(tape, [ad.Tensor(7.0 * v) for v in z], 0.2).data)
        assert abs(a - b) < 1e-9

    def test_aligned_positives_score_lower(self):
        rng = np.random.default_rng(44)
        anchors = [rng.normal(size=6) for _ in range(4)]
        good = []
        for a in anchors:
            good += [a, a + 1e-3 * rng.normal(size=6)]
        bad = [rng.normal(size=6) for _ in range(8)]
        tape = ad.Tape()
        lg = float(contrastive_loss(tape, [ad.Tensor(v) for v in good], 0.2).data)
        tape = ad.Tape()
        lb = float(contrastive_loss(tape, [ad.Tensor(v) for v in bad], 0.2).data)
        assert lg < lb

    def test_bad_arguments(self):
        v = ad.Tensor(np.ones(3))
        with pytest.raises(ValueError):
            contrastive_loss(ad.Tape(), [v, v], 0.0)
        with pytest.raises(ValueError):
            contrastive_loss(ad.Tape(), [v, v, v], 0.2)
        with pytest.raises(ValueError):
            contrastive_loss(ad.Tape(), [], 0.2)

    def test_gradient(self):
        rng = np.random.default_rng(45)
        store = ad.ParamStore()
        for j in range(6):
            store.register(f"z{j}", rng.normal(size=4))

        def loss_fn():
            tape = ad.Tape()
            views = [store[f"z{j}"] for j in range(6)]
            return tape, contrastive_loss(tape, views, 0.2)

        report = ad.grad_check(loss_fn, store, step=1e-5, tol=1e-4)
        assert all(e.passed for e in report), report


class TestBprLoss:
    def test_equal_scores_ln2(self):
        s = ad.Tensor(np.array([0.5, -1.0, 2.0]))
        tape = ad.Tape()
        loss = bpr_loss(tape, s, ad.Tensor(s.data.copy()))
        assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_wide_margin_vanishes(self):
        tape = ad.Tape()
        loss = bpr_loss(tape, ad.Tensor(np.array([30.0])), ad.Tensor(np.array([0.0])))
        assert float(loss.data) < 1e-12

    def test_mean_over_batch(self):
        # -[ln s(1) + ln s(-1)]/2 computed directly
        tape = ad.Tape()
        loss = bpr_loss(tape, ad.Tensor(np.array([1.0, 0.0])),
                        ad.Tensor(np.array([0.0, 1.0])))
        expect = -(math.log(1 / (1 + math.e ** -1)) + math.log(1 / (1 + math.e))) / 2
        assert abs(float(loss.data) - expect) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(47)
        store = ad.ParamStore()
        store.register("pos", rng.normal(size=6))
        store.register("neg", rng.normal(size=6))

        def loss_fn():
            tape = ad.Tape()
            return tape, bpr_loss(tape, store["pos"], store["neg"])

        report = ad.grad_check(loss_fn, store, step=1e-5, tol=1e-4)
        assert all(e.passed for e in report), report


class TestTaskSetup:
    def cfg(self):
        return ExperimentConfig(d=4, layers=2, path_len=4, k_intrinsic=2, pretrain_epochs=2,
                                recon_batch=8, contrast_batch=4, blocks=1, heads=2,
                                lr=0.02, sampler="random")

    def test_parameter_families_per_task(self):
        g = blocky_interactions()
        for code in TASK_CODES:
            st = init_task(code, g, self.cfg(), seed=3)
            names = set(st.store.params)
            assert f"{code}/embed" in names
            if code in GNN_TASKS:
                assert f"{code}/gnn/wout" in names
                assert f"{code}/meta_table" in names
                assert f"{code}/meta_table" not in st.store.trainable()
                assert not any("/tr/" in n for n in names)
            else:
                assert any("/tr/" in n for n in names)
                assert not any("/gnn/" in n for n in names)
            has_proj = any("/proj/" in n for n in names)
            assert has_proj == (code in ("Cg", "Cp"))

    def test_unknown_task_rejected(self):
        g = blocky_interactions()
        gt = _quick_gt(g)
        with pytest.raises((ValueError, KeyError)):
            pretrain_all(g, [(USER, 0)], gt, self.cfg(), 3, "fp", tasks=("Rx",))


def _quick_gt(g):
    pairs = [(u, int(i)) for u in range(g.n_users) for i in g.neighbors(USER, u)]
    P, Q, _ = train_ground_truth(g.n_users, g.n_items, pairs, 4, 0.05, 3, seed=1)
    return GroundTruth((P, Q), (P.copy(), Q.copy()))


class TestTrainingRuns:
    def setup_method(self):
        self.g = blocky_interactions()
        self.gt = _quick_gt(self.g)
        self.targets = [(USER, u) for u in range(8)] + [(ITEM, i) for i in range(4)]
        self.cfg = ExperimentConfig(d=4, layers=2, path_len=4, k_intrinsic=2, pretrain_epochs=3,
                                    recon_batch=8, contrast_batch=6, blocks=1, heads=2,
                                    lr=0.02, sampler="random")

    def test_every_task_trains_and_logs(self):
        for code in TASK_CODES:
            state, logs = train_task(code, self.g, self.targets, self.gt,
                                     self.cfg, seed=5)
            assert [l.epoch for l in logs] == [0, 1, 2]
            assert all(np.isfinite(l.loss) for l in logs)
            assert all(l.task == code for l in logs)
            assert all(l.wall_ms >= 0 for l in logs)

    def test_recon_loss_decreases(self):
        cfg = ExperimentConfig(d=4, layers=2, path_len=4, k_intrinsic=2, pretrain_epochs=10,
                               recon_batch=8, contrast_batch=6, blocks=1, heads=2,
                               lr=0.05, sampler="random")
        _, logs = train_task("Rg", self.g, self.targets, self.gt, cfg, seed=5)
        assert logs[-1].loss < logs[0].loss

    def test_tasks_are_independent(self):
        # a task's final parameters must not depend on which other tasks ran
        alone = pretrain_all(self.g, self.targets, self.gt, self.cfg, 7, "fp",
                             tasks=("Rg",))
        together = pretrain_all(self.g, self.targets, self.gt, self.cfg, 7, "fp",
                                tasks=TASK_CODES)
        a = alone.checkpoint.arrays
        t = together.checkpoint.arrays
        for name in a:
            assert np.array_equal(a[name], t[name]), name

    def test_order_permutation_irrelevant(self):
        fwd = pretrain_all(self.g, self.targets, self.gt, self.cfg, 7, "fp",
                           tasks=("Rp", "Cg"))
        rev = pretrain_all(self.g, self.targets, self.gt, self.cfg, 7, "fp",
                           tasks=("Cg", "Rp"))
        assert sorted(fwd.checkpoint.arrays) == sorted(rev.checkpoint.arrays)
        for name in fwd.checkpoint.arrays:
            assert np.array_equal(fwd.checkpoint.arrays[name],
                                  rev.checkpoint.arrays[name]), name

    def test_pretrain_targets_composition(self):
        us = SimpleNamespace(train=np.array([3, 1]), test=np.array([5]))
        its = SimpleNamespace(train=np.array([2]), test=np.array([7]))
        targets = pretrain_targets(us, its)
        assert (USER, 1) in targets and (USER, 3) in targets
        assert (ITEM, 2) in targets
        assert (USER, 5) not in targets and (ITEM, 7) not in targets

    def test_masked_test_neighborhoods_budget(self):
        split = SimpleNamespace(side=USER, train=np.array([0]), test=np.array([1, 2]))
        masked = masked_test_neighborhoods(self.g, split, 2, 2, seed=4)
        assert set(masked) == {1, 2}
        for tree in masked.values():
            for l, layer in enumerate(tree.layers):
                assert len(layer) <= 2 ** l
