"""Ranking metrics against brute-force oracles, fusion behavior, and the
fine-tune/evaluate loop on a small corpus."""

import math
from dataclasses import replace

import numpy as np
import pytest

import coldstart.autodiff as ad
from coldstart.checkpoint import Checkpoint
from coldstart.config import ExperimentConfig
from coldstart.data import (ITEM, USER, ExtrinsicSplit, Interaction, build_graph,
                            extrinsic_split, meta_split, remove_test_edges)
from coldstart.evaluate import (eval_extrinsic, mean_cosine, ndcg_at_k,
                                rank_items, recall_at_k, sampling_benchmark,
                                train_intrinsic_fusion)
from coldstart.finetune import (finetune, fusion_init, infer_fused, load_store,
                                model_checkpoint)
from coldstart.pretraining import GroundTruth, pretrain_all, train_ground_truth


def brute_force_metrics(scores, item_ids, relevant, k):
    """Independent full-sort oracle for Recall@k / NDCG@k with the same
    (score desc, id asc) order contract."""
    order = sorted(range(len(item_ids)), key=lambda j: (-scores[j], item_ids[j]))
    ranked = [item_ids[j] for j in order]
    hits = [r for r in ranked[:k] if r in relevant]
    recall = len(hits) / len(relevant)
    dcg = sum(1.0 / math.log2(rank + 2)
              for rank, it in enumerate(ranked[:k]) if it in relevant)
    idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(relevant))))
    return recall, dcg / idcg


class TestMetricOracles:
    def test_hand_case(self):
        # ranked: 9 7 5 3 1; relevant {7, 3, 8}; k=3
        ranked = [9, 7, 5, 3, 1]
        rel = {7, 3, 8}
        assert recall_at_k(ranked, rel, 3) == pytest.approx(1 / 3)
        # DCG = 1/log2(3) (item 7 at rank 2); IDCG = 1 + 1/log2(3) + 1/log2(4)
        expect = (1 / math.log2(3)) / (1 + 1 / math.log2(3) + 0.5)
        assert ndcg_at_k(ranked, rel, 3) == pytest.approx(expect)

    def test_perfect_and_empty_topk(self):
        assert recall_at_k([1, 2], {1, 2}, 2) == 1.0
        assert ndcg_at_k([1, 2], {1, 2}, 2) == pytest.approx(1.0)
        assert recall_at_k([5, 6], {1, 2}, 2) == 0.0
        assert ndcg_at_k([5, 6], {1, 2}, 2) == 0.0

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(71)
        for trial in range(100):
            n = int(rng.integers(5, 50))
            ids = rng.permutation(200)[:n]
            scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
            n_rel = int(rng.integers(1, max(2, n // 2)))
            rel = set(int(x) for x in rng.choice(ids, size=n_rel, replace=False))
            k = int(rng.integers(1, 25))
            ranked = rank_items(scores, ids).tolist()
            r_got = recall_at_k(ranked, rel, k)
            n_got = ndcg_at_k(ranked, rel, k)
            r_exp, n_exp = brute_force_metrics(scores.tolist(), ids.tolist(), rel, k)
            assert r_got == pytest.approx(r_exp), trial
            assert n_got == pytest.approx(n_exp), trial

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1], set(), 1)
        with pytest.raises(ValueError):
            ndcg_at_k([1], set(), 1)


class TestRanking:
    def test_ties_break_ascending_id(self):
        scores = np.array([1.0, 2.0, 2.0, 0.5])
        ids = np.array([10, 7, 3, 1])
        np.testing.assert_array_equal(rank_items(scores, ids), [3, 7, 10, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(73)
        scores = rng.normal(size=30)
        ids = np.arange(30)
        base = rank_items(scores, ids)
        for f in (lambda s: 3 * s + 7, np.exp, lambda s: np.tanh(s / 4),
                  lambda s: s ** 3):
            np.testing.assert_array_equal(rank_items(f(scores), ids), base, str(f))


class TestMeanCosine:
    def test_hand_values(self):
        preds = np.array([[1.0, 0.0], [0.0, 2.0]])
        truth = np.array([[2.0, 0.0], [3.0, 0.0]])
        # cos = 1 and 0 -> mean 0.5
        assert mean_cosine(preds, truth) == pytest.approx(0.5, abs=1e-9)


class TestFusion:
    def test_init_is_task_mean(self):
        d, m = 4, 3
        store = ad.ParamStore()
        store.register("fuse/w", fusion_init(d, m))
        rng = np.random.default_rng(77)
        embs = [ad.Tensor(rng.normal(size=d)) for _ in range(m)]
        fused = infer_fused(ad.Tape(), store, embs)
        np.testing.assert_allclose(fused.data,
                                   np.mean([e.data for e in embs], axis=0), atol=1e-12)

    def test_intrinsic_fusion_learns_rotation(self):
        # ground truth is a fixed rotation of the task-output difference, so
        # the averaging init is a poor start and training must close the gap
        rng = np.random.default_rng(79)
        d, m, n = 4, 2, 30
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        preds, gts = [], []
        for _ in range(n):
            e1, e2 = rng.normal(size=d), rng.normal(size=d)
            preds.append(np.concatenate([e1, e2]))
            gts.append((e1 - e2) @ q)
        w0 = fusion_init(d, m)
        before = mean_cosine(np.stack(preds) @ w0, np.stack(gts))
        w = train_intrinsic_fusion(preds, gts, d, m)
        after = mean_cosine(np.stack(preds) @ w, np.stack(gts))
        assert after > before + 0.2


def build_small_corpus():
    """30 users x 20 items in two blocks: 20 abundant users (degree 10) and
    10 cold users (degree 4)."""
    rng = np.random.default_rng(88)
    inter = []
    ts = 0
    for u in range(30):
        block = u % 2
        own = list(range(10 * block, 10 * block + 10))
        size = 10 if u < 20 else 4
        items = rng.choice(own, size=size, replace=False)
        for i in items:
            inter.append(Interaction(u, int(i), ts))
            ts += 1
    return build_graph(inter, 30, 20)


_CACHE = {}


def toy_pipeline(tasks=("Rg", "Cg", "Rp", "Cp")):
    """Small end-to-end fixture shared by the fine-tune/eval tests: pretrain
    checkpoint plus the extrinsic split. Cached -- callers must not mutate."""
    if tasks in _CACHE:
        return _CACHE[tasks]
    g = build_small_corpus()
    pcfg = ExperimentConfig(d=4, layers=2, path_len=3, k_intrinsic=2, pretrain_epochs=2,
                            lr=0.02, recon_batch=16, contrast_batch=8, blocks=1, heads=2,
                            sampler="dynamic")
    pairs = [(u, int(i)) for u in range(30) for i in g.neighbors(USER, u)]
    P, Q, _ = train_ground_truth(30, 20, pairs, 4, 0.05, 5, seed=2)
    gt = GroundTruth((P, Q), (P.copy(), Q.copy()))
    targets = [(USER, u) for u in range(0, 20, 2)] + [(ITEM, i) for i in range(0, 20, 3)]
    res = pretrain_all(g, targets, gt, pcfg, seed=5, fingerprint="fp-toy", tasks=tasks)
    assert not res.failed
    cold = meta_split(g, USER, 8).cold  # degree-4 users 20..29
    ext = extrinsic_split(g, cold, 0.25)
    g_ft = remove_test_edges(g, ext)
    icfg = ExperimentConfig(d=4, layers=2, path_len=3, k_extrinsic=2, sampler="dynamic",
                            blocks=1, heads=2, lr=0.02, finetune_epochs=2, finetune_batch=8)
    out = (g_ft, ext, res.checkpoint, icfg)
    _CACHE[tasks] = out
    return out


def finetuned_model():
    if "model" not in _CACHE:
        g_ft, ext, ckpt, icfg = toy_pipeline()
        _CACHE["model"] = finetune(g_ft, ext, ckpt, icfg, seed=5)
    return _CACHE["model"]


class TestLoadStore:
    def test_detects_enabled_tasks_and_freezes_meta(self):
        _, _, ckpt, _ = toy_pipeline(tasks=("Rg", "Cp"))
        store, enabled = load_store(ckpt)
        assert enabled == ["Rg", "Cp"]
        assert "Rg/meta_table" not in store.trainable()
        assert "Rg/embed" in store.trainable()

    def test_empty_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            load_store(Checkpoint("fp", {"junk/x": np.zeros(2)}))


class TestFinetuneLoop:
    def test_runs_and_traces_loss(self):
        _, _, _, icfg = toy_pipeline()
        model = finetuned_model()
        assert len(model.loss_trace) == icfg.finetune_epochs
        assert all(np.isfinite(v) for v in model.loss_trace)
        assert "fuse/w" in model.store
        assert model.enabled == ["Rg", "Cg", "Rp", "Cp"]

    def test_fused_vec_deterministic(self):
        _, ext, _, icfg = toy_pipeline()
        model = finetuned_model()
        u = sorted(ext.train)[0]
        a = model.fused_vec((USER, u))
        b = model.fused_vec((USER, u))
        assert np.array_equal(a, b)
        assert a.shape == (icfg.d,)

    def test_rerun_is_bit_identical(self):
        g_ft, ext, ckpt, icfg = toy_pipeline()
        model = finetuned_model()
        again = finetune(g_ft, ext, ckpt, icfg, seed=5)
        for name, arr in model.store.state_arrays().items():
            assert np.array_equal(again.store.state_arrays()[name], arr), name

    def test_checkpoint_roundtrip(self, tmp_path):
        from coldstart.checkpoint import load_checkpoint, save_checkpoint

        model = finetuned_model()
        ck = model_checkpoint(model, "fp-toy")
        save_checkpoint(tmp_path / "m.ckpt", ck)
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.fingerprint == "fp-toy"
        for name, arr in model.store.state_arrays().items():
            assert np.array_equal(back.arrays[name], arr)

    def test_freeze_encoders_trains_only_fusion(self):
        g_ft, ext, ckpt, icfg = toy_pipeline()
        model = finetune(g_ft, ext, ckpt, replace(icfg, freeze_encoders=True), seed=5)
        for name, arr in ckpt.arrays.items():
            assert np.array_equal(model.store[name].data, arr), name
        assert not np.array_equal(model.store["fuse/w"].data, fusion_init(icfg.d, 4))

    def test_saturated_user_rejected(self):
        # items 0 and 1 are the only candidates, and user 0 trains on both
        _, _, ckpt, icfg = toy_pipeline()
        g = build_graph([Interaction(0, 0, 0), Interaction(0, 1, 1), Interaction(1, 0, 2)], 30, 20)
        ext = ExtrinsicSplit(train={0: [(0, 0), (1, 1)], 1: [(0, 2)]})
        with pytest.raises(ValueError, match="user 0"):
            finetune(g, ext, ckpt, icfg, seed=5)

    def test_replan_follows_moving_tables(self):
        g_ft, ext, ckpt, icfg = toy_pipeline()
        rcfg = replace(icfg, replan_each_epoch=True)
        model = finetune(g_ft, ext, ckpt, rcfg, seed=5)
        assert all(np.isfinite(v) for v in model.loss_trace)
        again = finetune(g_ft, ext, ckpt, rcfg, seed=5)
        for name, arr in model.store.state_arrays().items():
            assert np.array_equal(again.store.state_arrays()[name], arr), name
        # dynamic trees must have drifted with the tables on at least one node
        frozen = finetuned_model()

        def ids(plan):
            return [(tn.side, tn.node) for layer in plan["Rg"].layers
                    for tn in layer]

        assert any(ids(plan) != ids(frozen.plans[node])
                   for node, plan in model.plans.items())


class TestEvalExtrinsic:
    def test_report_shape(self):
        _, ext, _, _ = toy_pipeline()
        model = finetuned_model()
        rep = eval_extrinsic(model, ext, k=5)
        assert 0.0 <= rep.recall <= 1.0
        assert 0.0 <= rep.ndcg <= 1.0
        assert rep.n_users == len(ext.test)
        assert rep.excluded == ext.dropped
        assert rep.recall_stderr >= 0.0 and rep.ndcg_stderr >= 0.0

    def test_matches_manual_recomputation(self):
        _, ext, _, _ = toy_pipeline()
        model = finetuned_model()
        k = 5
        rep = eval_extrinsic(model, ext, k)
        cand = sorted(i for s, i in model.plans if s == ITEM)
        cand_arr = np.array(cand)
        item_mat = np.stack([model.fused_vec((ITEM, i)) for i in cand])
        recalls, ndcgs, stderr_n = [], [], 0
        for u in sorted(ext.test):
            train_items = {int(i) for i, _ in ext.train[u]}
            test_items = {int(i) for i, _ in ext.test[u]}
            keep = np.array([i not in train_items for i in cand])
            hu = model.fused_vec((USER, u))
            scores = item_mat[keep] @ hu
            r, n = brute_force_metrics(scores.tolist(), cand_arr[keep].tolist(),
                                       test_items, k)
            recalls.append(r)
            ndcgs.append(n)
        assert rep.recall == pytest.approx(float(np.mean(recalls)), abs=1e-12)
        assert rep.ndcg == pytest.approx(float(np.mean(ndcgs)), abs=1e-12)
        expect_se = float(np.std(recalls, ddof=1) / math.sqrt(len(recalls)))
        assert rep.recall_stderr == pytest.approx(expect_se, abs=1e-12)

    def test_train_items_never_ranked(self):
        # a user's fine-tuning items must not appear in their candidate pool,
        # so perfect recall is reachable even when train items score highest
        _, ext, _, _ = toy_pipeline()
        model = finetuned_model()
        u = sorted(ext.test)[0]
        train_items = {int(i) for i, _ in ext.train[u]}
        cand = sorted(i for s, i in model.plans if s == ITEM)
        assert train_items <= set(cand)  # would pollute ranking if kept
        keep = [i for i in cand if i not in train_items]
        assert len(keep) == len(cand) - len(train_items)


class TestSamplingBenchmark:
    def test_reports_three_strategies(self):
        g = build_small_corpus()
        pcfg = ExperimentConfig(d=4, layers=2, path_len=3, k_intrinsic=2, pretrain_epochs=2,
                                lr=0.02, recon_batch=16, contrast_batch=8, blocks=1, heads=2)
        pairs = [(u, int(i)) for u in range(30) for i in g.neighbors(USER, u)]
        P, Q, _ = train_ground_truth(30, 20, pairs, 4, 0.05, 3, seed=2)
        gt = GroundTruth((P, Q), (P.copy(), Q.copy()))
        targets = [(USER, u) for u in range(0, 10, 2)]
        rows, summaries = sampling_benchmark(g, targets, gt, pcfg, seed=3, epochs=3)
        names = [s.strategy for s in summaries]
        assert names == ["random", "importance", "dynamic"]
        assert {r.strategy for r in rows} == set(names)
        assert all(r.sample_s >= 0 and r.train_s >= 0 for r in rows)
        for s in summaries:
            epochs = [r for r in rows if r.strategy == s.strategy]
            assert len(epochs) == 3
            assert s.sample_mean == pytest.approx(
                float(np.mean([r.sample_s for r in epochs])))
