"""Evaluation: intrinsic embedding quality, top-k ranking metrics over cold
users, and the sampling-strategy benchmark."""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .config import GNN_TASKS, ExperimentConfig
from .data import ITEM, USER, BipartiteGraph
from .finetune import FinetunedModel, encode_node, fusion_init
from .paths import generate_positioned_paths
from .pretraining import GroundTruth, init_task, reconstruction_loss, sample_inputs, train_epoch
from .rng import derive_seed
from .sampling import mask_neighborhood


def recall_at_k(ranked_items, relevant, k: int) -> float:
    """|top-k hits| / |relevant|."""
    if not relevant:
        raise ValueError("recall_at_k: empty relevant set")
    hits = sum(1 for i in ranked_items[:k] if i in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked_items, relevant, k: int) -> float:
    """Binary-gain NDCG: DCG over hit ranks, ideal DCG over min(k, |relevant|)."""
    if not relevant:
        raise ValueError("ndcg_at_k: empty relevant set")
    dcg = 0.0
    for rank, item in enumerate(ranked_items[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(relevant)) + 1))
    return dcg / idcg


def rank_items(scores: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
    """Item ids by score descending, ties broken by ascending id."""
    return item_ids[np.lexsort((item_ids, -scores))]


def mean_cosine(preds: np.ndarray, truth: np.ndarray) -> float:
    num = (preds * truth).sum(axis=1)
    den = (np.linalg.norm(preds, axis=1) + 1e-12) * (np.linalg.norm(truth, axis=1) + 1e-12)
    return float((num / den).mean())


@dataclass
class ExtrinsicReport:
    k: int
    recall: float
    ndcg: float
    recall_stderr: float
    ndcg_stderr: float
    n_users: int
    excluded: int


def eval_extrinsic(model: FinetunedModel, ext_split, k: int) -> ExtrinsicReport:
    """Macro-averaged Recall@k / NDCG@k over cold users with a non-empty test
    set, ranking every encodable item the user has not trained on."""
    users = sorted(u for u in ext_split.test if ext_split.test[u])
    excluded = ext_split.dropped
    cand = sorted(i for s, i in model.plans if s == ITEM)
    cand_arr = np.array(cand, dtype=np.int64)
    item_mat = np.stack([model.fused_vec((ITEM, i)) for i in cand])
    recalls, ndcgs = [], []
    n_eval = 0
    for u in users:
        if u not in ext_split.train or (USER, u) not in model.plans:
            excluded += 1
            continue
        train_items = {int(i) for i, _ in ext_split.train[u]}
        test_items = {int(i) for i, _ in ext_split.test[u]}
        keep = np.array([i not in train_items for i in cand])
        hu = model.fused_vec((USER, u))
        scores = item_mat[keep] @ hu
        ranked = rank_items(scores, cand_arr[keep])
        recalls.append(recall_at_k(ranked.tolist(), test_items, k))
        ndcgs.append(ndcg_at_k(ranked.tolist(), test_items, k))
        n_eval += 1
    if n_eval == 0:
        raise ValueError("eval_extrinsic: no evaluable users")
    r = np.array(recalls)
    n = np.array(ndcgs)
    return ExtrinsicReport(
        k, float(r.mean()), float(n.mean()),
        float(r.std(ddof=1) / math.sqrt(n_eval)) if n_eval > 1 else 0.0,
        float(n.std(ddof=1) / math.sqrt(n_eval)) if n_eval > 1 else 0.0,
        n_eval, excluded)


# ---------------------------------------------------------------------------
# intrinsic evaluation


def _task_inference(store, enabled, tree, node, cfg: ExperimentConfig,
                    n_users, n_items, seed) -> dict[str, np.ndarray]:
    """Per-task embeddings of a target from its fixed masked tree (paths are
    walked inside the tree)."""
    plan = {}
    for code in enabled:
        if code in GNN_TASKS:
            plan[code] = tree
        else:
            path_seed = derive_seed(seed, "intr-paths", code, node[0], node[1])
            plan[code] = generate_positioned_paths(tree, node, cfg.path_len, path_seed)
    embs = encode_node(None, store, plan, enabled, cfg, n_users, n_items)
    return {code: e.data for code, e in zip(enabled, embs)}


_FUSION_LR, _FUSION_EPOCHS = 0.01, 100


def train_intrinsic_fusion(train_preds: list[np.ndarray], train_gts: list[np.ndarray],
                           d: int, n_tasks: int) -> np.ndarray:
    """Fit the fusion matrix on the training targets by maximizing cosine to
    the ground truth (the pretext encoders stay fixed)."""
    store = ad.ParamStore()
    store.register("w", fusion_init(d, n_tasks))
    x = np.stack(train_preds)
    for _ in range(_FUSION_EPOCHS):
        tape = ad.Tape()
        preds = [ad.matmul(tape, ad.Tensor(x[row]), store["w"]) for row in range(x.shape[0])]
        loss = reconstruction_loss(tape, preds, train_gts)
        ad.backward(tape, loss)
        ad.optimizer_step(store, _FUSION_LR)
    return store["w"].data


@dataclass
class IntrinsicReport:
    side: str
    per_task: dict[str, float]
    fused: float
    n_targets: int


def eval_intrinsic_side(graph: BipartiteGraph, split, masked_test: dict,
                        store, enabled, gt: GroundTruth, cfg: ExperimentConfig,
                        seed: int) -> IntrinsicReport:
    """Cold-start-simulated embedding quality on one side's held-out targets.

    Test targets are encoded from their fixed masked trees; the fusion matrix
    is trained on the training targets (same masking protocol) and applied to
    the test targets. Reports mean cosine per task and fused.
    """
    nu, ni = graph.n_users, graph.n_items
    side = split.side

    def preds_for(targets, trees):
        per_task = {c: [] for c in enabled}
        gts = []
        for t in targets:
            t = int(t)
            embs = _task_inference(store, enabled, trees[t], (side, t), cfg, nu, ni, seed)
            for c in enabled:
                per_task[c].append(embs[c])
            gts.append(gt.target_vec(side, t))
        return per_task, gts

    test_targets = sorted(int(t) for t in masked_test)
    per_task_test, gts_test = preds_for(test_targets, masked_test)

    fuse_seed = derive_seed(seed, "intr-fuse", side)
    train_trees = {int(t): mask_neighborhood(graph, (side, int(t)), cfg.k_intrinsic, cfg.layers,
                                             fuse_seed)
                   for t in split.train}
    per_task_train, gts_train = preds_for(sorted(train_trees), train_trees)

    d = cfg.d
    train_concat = [np.concatenate([per_task_train[c][j] for c in enabled])
                    for j in range(len(gts_train))]
    w = train_intrinsic_fusion(train_concat, gts_train, d, len(enabled))

    test_concat = np.stack([np.concatenate([per_task_test[c][j] for c in enabled])
                            for j in range(len(gts_test))])
    fused_preds = test_concat @ w
    gt_mat = np.stack(gts_test)

    report_tasks = {c: mean_cosine(np.stack(per_task_test[c]), gt_mat) for c in enabled}
    return IntrinsicReport(side, report_tasks, mean_cosine(fused_preds, gt_mat), len(test_targets))


# ---------------------------------------------------------------------------
# sampling benchmark


@dataclass
class BenchRow:
    strategy: str
    epoch: int
    sample_s: float
    train_s: float


@dataclass
class BenchSummary:
    strategy: str
    sample_mean: float
    sample_std: float
    train_mean: float
    train_std: float


def sampling_benchmark(graph: BipartiteGraph, targets, gt: GroundTruth,
                       cfg: ExperimentConfig, seed: int, epochs: int = 10,
                       strategies=("random", "importance", "dynamic")):
    """Wall-clock per-epoch sampling and training time for each strategy on
    the reconstruction task. Returns (rows, summaries)."""
    rows: list[BenchRow] = []
    summaries: list[BenchSummary] = []
    for strat in strategies:
        scfg = replace(cfg, sampler=strat)
        state = init_task("Rg", graph, scfg, seed)
        sample_times, train_times = [], []
        for epoch in range(epochs):
            t0 = time.perf_counter()
            trees = sample_inputs(state, graph, targets, scfg, seed, epoch)
            t1 = time.perf_counter()
            train_epoch(state, graph, trees, gt, scfg, seed, epoch)
            t2 = time.perf_counter()
            rows.append(BenchRow(strat, epoch, t1 - t0, t2 - t1))
            sample_times.append(t1 - t0)
            train_times.append(t2 - t1)
        s = np.array(sample_times)
        t = np.array(train_times)
        summaries.append(BenchSummary(strat, float(s.mean()), float(s.std(ddof=1)),
                                      float(t.mean()), float(t.std(ddof=1))))
    return rows, summaries
