"""Pre-training: ground-truth embeddings and the four pretext tasks.

Ground truth comes from pairwise-ranking matrix factorization trained
transductively on the abundant targets' interactions merged with the masked
test targets' kept interactions (one run per protocol side).

The pretext tasks are two objectives times two encoders:

                  GNN over trees   transformer over walks
    reconstruct         Rg                  Rp
    contrast            Cg                  Cp

Reconstruction (from PT-GNN) aligns the encoded target with its ground-truth
embedding by 1 - cos: Rg encodes the sampler-chosen tree, Rp averages the
transformer's reads at the masked target over positioned walks. Contrast (an
NT-Xent loss, as in SimCLR) pulls two augmented views of one target together
against the rest of the batch: Cg augments the target's random tree, Cp one
walk in it, read at the target position.

Each epoch samples every target's input up front and then runs one batch loop
shared by all four tasks. Tasks are trained independently, each with its own
embedding table, encoder parameters, and derived seeds, so any subset can run
in any order and produce bit-identical sections.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .checkpoint import Checkpoint
from .config import GNN_TASKS, TASK_CODES, ExperimentConfig
from .data import ITEM, USER, BipartiteGraph
from .paths import augment_path, augment_subgraph, generate_paths, generate_positioned_paths
from .rng import derive_seed, rng_for
from .sampling import (SampledSubgraph, mask_neighborhood, sample_dynamic,
                       sample_importance, sample_random)


class TaskDivergence(RuntimeError):
    def __init__(self, task: str, detail: str):
        super().__init__(f"task {task} diverged: {detail}")
        self.task = task


# ---------------------------------------------------------------------------
# ground truth


_GT_REG = 1e-4  # L2 weight of the ground-truth factorization


def train_ground_truth(n_users: int, n_items: int, pairs, d: int, lr: float,
                       epochs: int, seed: int):
    """Pairwise-ranking matrix factorization over implicit (user, item) pairs.

    One uniform negative per positive, resampled each epoch. Returns the user
    and item tables plus the per-epoch mean loss trace. A user who has
    interacted with every item has no negative to draw and is an error.
    """
    pairs = np.asarray(sorted(pairs), dtype=np.int64)
    if len(pairs) == 0:
        raise ValueError("train_ground_truth: no training pairs")
    pos_items = {}
    for u, i in pairs:
        pos_items.setdefault(int(u), set()).add(int(i))
    for u, items in pos_items.items():
        if len(items) >= n_items:
            raise ValueError(f"train_ground_truth: user {u} has interacted with every item, "
                             "so no negative can be drawn")
    rng = rng_for(seed, "gt")
    P = rng.uniform(-0.01, 0.01, size=(n_users, d))
    Q = rng.uniform(-0.01, 0.01, size=(n_items, d))
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        total = 0.0
        for idx in order:
            u, i = int(pairs[idx][0]), int(pairs[idx][1])
            j = int(rng.integers(n_items))
            while j in pos_items[u]:
                j = int(rng.integers(n_items))
            x = P[u] @ (Q[i] - Q[j])
            s = ad.sigmoid_np(-x)
            total += float(np.logaddexp(0.0, -x))
            gu = s * (Q[i] - Q[j]) - _GT_REG * P[u]
            gi = s * P[u] - _GT_REG * Q[i]
            gj = -s * P[u] - _GT_REG * Q[j]
            P[u] += lr * gu
            Q[i] += lr * gi
            Q[j] += lr * gj
        losses.append(total / len(pairs))
    return P, Q, losses


def ground_truth_pairs(graph: BipartiteGraph, split, masked: dict) -> list[tuple[int, int]]:
    """Merged training pairs for one protocol side: all interactions of the
    training targets plus only the kept first-order interactions of the masked
    test targets."""
    pairs: set[tuple[int, int]] = set()
    side = split.side
    for t in split.train:
        t = int(t)
        for c in graph.neighbors(side, t):
            pairs.add((t, int(c)) if side == USER else (int(c), t))
    for t in split.test:
        t = int(t)
        tree = masked[t]
        for tn in tree.layers[1]:
            pairs.add((t, tn.node) if side == USER else (tn.node, t))
    return sorted(pairs)


@dataclass
class GroundTruth:
    """Embedding tables from the two protocol runs; lookup by target node."""

    user_run: tuple[np.ndarray, np.ndarray]  # (P, Q) from the user-side protocol
    item_run: tuple[np.ndarray, np.ndarray]

    def target_vec(self, side: str, node: int) -> np.ndarray:
        if side == USER:
            return self.user_run[0][node]
        return self.item_run[1][node]


# ---------------------------------------------------------------------------
# losses


def reconstruction_loss(tape, preds: list[ad.Tensor], targets: list[np.ndarray]) -> ad.Tensor:
    """Mean over the batch of 1 - cos(prediction, ground truth)."""
    if not preds:
        raise ValueError("reconstruction_loss: empty batch")
    terms = []
    for p, t in zip(preds, targets):
        c = ad.cosine_sim(tape, p, ad.Tensor(t))
        terms.append(ad.add_scalar(tape, ad.mul_scalar(tape, c, -1.0), 1.0))
    return ad.mul_scalar(tape, ad.add_n(tape, terms), 1.0 / len(terms))


def contrastive_loss(tape, z: list[ad.Tensor], tau: float) -> ad.Tensor:
    """Normalized-temperature cross entropy over 2N projected vectors.

    Views 2i and 2i+1 are positives. For each anchor m the denominator sums
    exp(cos(z_m, z_k)/tau) over every k != m; the loss averages over all 2N
    anchors.
    """
    if tau <= 0:
        raise ValueError(f"contrastive temperature must be positive, got {tau}")
    n2 = len(z)
    if n2 < 2 or n2 % 2 != 0:
        raise ValueError(f"contrastive_loss: need an even number >= 2 of views, got {n2}")
    normed = []
    for zi in z:
        ss = ad.add_scalar(tape, ad.matmul(tape, zi, zi), 1e-24)
        inv = ad.powf(tape, ss, -0.5)
        normed.append(ad.smul(tape, zi, inv))
    zmat = ad.stack_rows(tape, normed)
    sims = ad.matmul(tape, zmat, ad.transpose(tape, zmat))
    logits = ad.mul_scalar(tape, sims, 1.0 / tau)
    off_diag = ad.Tensor(1.0 - np.eye(n2))
    denom = ad.log(tape, ad.sum_(tape, ad.mul(tape, ad.exp(tape, logits), off_diag), axis=1))
    pair = np.zeros((n2, n2))
    for m in range(n2):
        pair[m, m + 1 if m % 2 == 0 else m - 1] = 1.0
    pos = ad.sum_(tape, ad.mul(tape, logits, ad.Tensor(pair)), axis=1)
    return ad.mean(tape, ad.sub(tape, denom, pos))


def bpr_loss(tape, pos_scores: ad.Tensor, neg_scores: ad.Tensor) -> ad.Tensor:
    """Mean of -ln sigmoid(pos - neg)."""
    diff = ad.sigmoid(tape, ad.sub(tape, pos_scores, neg_scores))
    return ad.mul_scalar(tape, ad.mean(tape, ad.log(tape, diff)), -1.0)


# ---------------------------------------------------------------------------
# per-task setup


@dataclass
class TaskState:
    code: str
    store: ad.ParamStore
    n_users: int
    n_items: int


def init_task(code: str, graph: BipartiteGraph, cfg: ExperimentConfig, seed: int) -> TaskState:
    """Independent parameter set for one pretext task, including the frozen
    meta-embedding table for the GNN tasks."""
    store = ad.ParamStore()
    nu, ni = graph.n_users, graph.n_items
    v = enc.vocab_size(nu, ni)
    store.register(f"{code}/embed", enc.init_embedding(rng_for(seed, code, "embed"), v, cfg.d))
    if code in GNN_TASKS:
        enc.init_meta_params(store, code, cfg.d, seed)
        enc.init_gnn_params(store, code, cfg.d, cfg.layers, seed)
        meta = enc.compute_meta_table(
            graph, store[f"{code}/embed"].data,
            *(store[f"{code}/meta/{name}"].data for name in ("wq", "wk", "wv")), cfg.k_intrinsic, seed)
        store.register(f"{code}/meta_table", meta, frozen=True)
    else:
        enc.init_transformer_params(store, code, cfg.d, cfg.path_len, cfg.blocks, cfg.heads, seed)
    if code in ("Cg", "Cp"):
        enc.init_projection_params(store, code, cfg.d, seed)
    return TaskState(code, store, nu, ni)


def _sample_tree(kind, graph, target, k, l_max, seed, meta=None, cur=None):
    if kind == "random":
        return sample_random(graph, target, k, l_max, seed)
    if kind == "importance":
        return sample_importance(graph, target, k, l_max, seed)
    if kind == "dynamic":
        return sample_dynamic(graph, target, k, l_max, meta, cur)
    raise ValueError(f"unknown sampler kind: {kind!r}")


# ---------------------------------------------------------------------------
# task epochs: per-task inputs, two objectives, one batch loop


@dataclass
class EpochLog:
    task: str
    epoch: int
    loss: float
    wall_ms: float
    skipped: int = 0


def sample_inputs(state, graph, targets, cfg, seed, epoch) -> dict:
    """Every target's input for one epoch, sampled before the first step.

    Rg takes the configured sampler's tree (dynamic trees read the embedding
    table as it stood at the end of the previous epoch); the other tasks take
    a random tree, Rp its positioned walks and Cp one walk in it. None marks a
    target without usable input: no complete positioned walk (Rp) or a walk
    of fewer than 2 nodes (Cp).
    """
    code, store = state.code, state.store
    kind = cfg.sampler if code == "Rg" else "random"
    meta = store[f"{code}/meta_table"].data if code == "Rg" else None
    cur = store[f"{code}/embed"].data
    inputs = {}
    for t in targets:
        tree = _sample_tree(kind, graph, t, cfg.k_intrinsic, cfg.layers,
                            derive_seed(seed, code, "tree", epoch, *t), meta, cur)
        if code in GNN_TASKS:
            inputs[t] = tree
        elif code == "Rp":
            inputs[t] = generate_positioned_paths(
                tree, t, cfg.path_len, derive_seed(seed, code, "paths", epoch, *t)) or None
        else:
            walk = generate_paths(tree, t, cfg.path_len, 1,
                                  derive_seed(seed, code, "walk", epoch, *t))[0].nodes
            inputs[t] = walk if len(walk) >= 2 else None
    return inputs


def _recon_batch(state, inputs, gt, cfg):
    """Reconstruction (Rg, Rp): 1 - cos between each encoded target and its
    ground-truth embedding."""
    def batch_loss(tape, batch):
        if not batch:
            return None, 0
        preds = [enc.encode_input(tape, state.store, state.code, inputs[t], cfg,
                                  state.n_users, state.n_items) for t in batch]
        return reconstruction_loss(tape, preds, [gt.target_vec(*t) for t in batch]), len(batch)
    return batch_loss


def _view_pair(tape, state, graph, target, inp, cfg, seed, epoch):
    """Two augmentations of the target's tree (Cg) or walk (Cp), each encoded
    and projected; a walk is read at the (never deleted) target position.
    None when an augmented tree has an empty first layer."""
    code, store = state.code, state.store
    ratio = cfg.delete_ratio if cfg.aug != "substitute" else cfg.subst_ratio
    pair = []
    for v in (0, 1):
        aug_seed = derive_seed(seed, code, "aug", epoch, *target, v)
        if code == "Cg":
            view = augment_subgraph(inp, graph, cfg.aug, ratio, aug_seed)
            if len(view.layers) < 2 or not view.layers[1]:
                return None
            h = enc.encode_input(tape, store, code, view, cfg, state.n_users, state.n_items)
        else:
            view = augment_path(inp, cfg.aug, ratio, aug_seed, graph=graph, protect=0)
            h = enc.encode_path_at(tape, store, code, view.nodes, view.kept_from.index(0),
                                   state.n_users, state.n_items, cfg.blocks, cfg.heads)
        pair.append(enc.project(tape, store, code, h))
    return pair


def _contrast_batch(state, graph, inputs, cfg, seed, epoch):
    """Contrast (Cg, Cp): NT-Xent over the batch's view pairs; a batch with
    fewer than two pairs does not train."""
    def batch_loss(tape, batch):
        views = []
        for t in batch:
            views += _view_pair(tape, state, graph, t, inputs[t], cfg, seed, epoch) or []
        if len(views) < 4:
            return None, 0
        return contrastive_loss(tape, views, cfg.tau), len(views) // 2
    return batch_loss


def train_epoch(state, graph, inputs: dict, gt, cfg, seed, epoch):
    """One pass over the targets of inputs in seeded batches; a batch's
    targets without usable input are left out, and each batch that trains
    takes one Adam step. Returns (mean loss per trained target, number of
    targets that did not train)."""
    if state.code in ("Rg", "Rp"):
        size, batch_loss = cfg.recon_batch, _recon_batch(state, inputs, gt, cfg)
    else:
        size, batch_loss = cfg.contrast_batch, _contrast_batch(state, graph, inputs, cfg, seed, epoch)
    targets = list(inputs)
    order = rng_for(seed, state.code, "order", epoch).permutation(len(targets))
    total, count = 0.0, 0
    for start in range(0, len(targets), size):
        batch = [targets[int(j)] for j in order[start:start + size]]
        tape = ad.Tape()
        loss, n = batch_loss(tape, [t for t in batch if inputs[t] is not None])
        if loss is None:
            continue
        ad.backward(tape, loss)
        ad.optimizer_step(state.store, cfg.lr)
        total += float(loss.data) * n
        count += n
    if count == 0:
        raise TaskDivergence(state.code, f"every batch of epoch {epoch} was skipped")
    return total / count, len(targets) - count


def train_task(code: str, graph: BipartiteGraph, targets, gt: GroundTruth,
               cfg: ExperimentConfig, seed: int):
    """Train one pretext task to completion; returns (state, epoch logs)."""
    state = init_task(code, graph, cfg, seed)
    logs = []
    for epoch in range(cfg.pretrain_epochs):
        t0 = time.perf_counter()
        try:
            inputs = sample_inputs(state, graph, targets, cfg, seed, epoch)
            loss, skipped = train_epoch(state, graph, inputs, gt, cfg, seed, epoch)
        except FloatingPointError as e:
            raise TaskDivergence(code, str(e)) from None
        if not np.isfinite(loss):
            raise TaskDivergence(code, f"epoch {epoch} loss is not finite")
        logs.append(EpochLog(code, epoch, loss, (time.perf_counter() - t0) * 1e3, skipped))
    return state, logs


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    logs: list[EpochLog] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)  # task -> why it diverged


def pretrain_all(graph: BipartiteGraph, targets, gt: GroundTruth, cfg: ExperimentConfig,
                 seed: int, fingerprint: str, tasks=TASK_CODES) -> PretrainResult:
    """Train the enabled pretext tasks and assemble one checkpoint.

    Tasks share nothing mutable: each derives its own seeds and parameters, so
    any subset or order of tasks yields bit-identical sections. A diverged task is
    left out, with its reason in result.failed, and the checkpoint is marked
    partial.
    """
    tasks = list(tasks)
    for t in tasks:
        if t not in TASK_CODES:
            raise ValueError(f"unknown pretext task: {t!r}")
    arrays: dict[str, np.ndarray] = {}
    logs: list[EpochLog] = []
    failed: dict[str, str] = {}
    for code in tasks:
        try:
            state, task_logs = train_task(code, graph, targets, gt, cfg, seed)
        except TaskDivergence as e:
            failed[code] = str(e)
            continue
        logs.extend(task_logs)
        arrays.update(state.store.state_arrays())
    ckpt = Checkpoint(fingerprint, arrays, partial=bool(failed))
    return PretrainResult(ckpt, logs, failed)


def pretrain_targets(user_split, item_split) -> list[tuple[str, int]]:
    """Training targets: the abundant train-partition nodes of both sides."""
    return ([(USER, int(u)) for u in user_split.train]
            + [(ITEM, int(i)) for i in item_split.train])


def masked_test_neighborhoods(graph, split, k, l_max, seed) -> dict[int, SampledSubgraph]:
    """The fixed cold-start-simulated trees for a side's test targets."""
    return {int(t): mask_neighborhood(graph, (split.side, int(t)), k, l_max, seed)
            for t in split.test}
