"""Fusion of the pre-trained task embeddings and downstream fine-tuning.

A node's final embedding concatenates the embeddings inferred by every enabled
pretext encoder and projects them with one shared fusion matrix; relevance is
the inner product of the fused user and item embeddings. Fine-tuning trains
everything (or just the fusion matrix, with freeze_encoders) with the pairwise
ranking loss over the cold users' training interactions.

A node's plan maps each enabled task code to that task's encoder input: a
tree for a GNN task, positioned walks for a walk task. Plans are sampled once
at fine-tune start and frozen, so steps and evaluation see stable structures.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .checkpoint import Checkpoint
from .config import GNN_TASKS, TASK_CODES, ExperimentConfig
from .data import ITEM, USER, BipartiteGraph
from .paths import generate_positioned_paths
from .pretraining import bpr_loss
from .rng import derive_seed, rng_for
from .sampling import sample_dynamic, sample_random

Node = tuple[str, int]


def load_store(ckpt: Checkpoint) -> tuple[ad.ParamStore, list[str]]:
    """Rebuild a parameter store from a checkpoint; meta tables stay frozen.
    Returns the store and the enabled task codes found in it."""
    store = ad.ParamStore()
    for name in sorted(ckpt.arrays):
        store.register(name, ckpt.arrays[name].copy(), frozen=name.endswith("meta_table"))
    enabled = [c for c in TASK_CODES if any(n.startswith(c + "/") for n in ckpt.arrays)]
    if not enabled:
        raise ValueError("checkpoint contains no pretext task sections")
    return store, enabled


def fusion_init(d: int, n_tasks: int) -> np.ndarray:
    """Stacked identity/m blocks: the fused embedding starts as the mean of
    the enabled task embeddings."""
    return np.vstack([np.eye(d) / n_tasks for _ in range(n_tasks)])


def build_plan(graph: BipartiteGraph, node: Node, store: ad.ParamStore, enabled,
               cfg: ExperimentConfig, seed: int) -> dict:
    """Frozen per-node inference inputs, {task code: encoder input}: one tree
    per GNN task (the reconstruction task uses the configured sampler), the
    positioned walks of one tree per path task."""
    plan = {}
    for code in enabled:
        tree_seed = derive_seed(seed, "plan", code, node[0], node[1])
        if code == "Rg" and cfg.sampler == "dynamic":
            tree = sample_dynamic(graph, node, cfg.k_extrinsic, cfg.layers,
                                  store["Rg/meta_table"].data, store["Rg/embed"].data)
        else:
            tree = sample_random(graph, node, cfg.k_extrinsic, cfg.layers, tree_seed)
        if code in GNN_TASKS:
            plan[code] = tree
        else:
            path_seed = derive_seed(seed, "plan-paths", code, node[0], node[1])
            plan[code] = generate_positioned_paths(tree, node, cfg.path_len, path_seed)
    return plan


def build_plans(graph: BipartiteGraph, users, store: ad.ParamStore, enabled,
                cfg: ExperimentConfig, seed: int) -> dict[Node, dict]:
    """Plans for the given users plus every candidate item, in that order.
    Items with no neighbors in graph cannot be encoded and are not candidates."""
    candidates = [i for i in range(graph.n_items) if graph.degree(ITEM, i) > 0]
    nodes = [(USER, int(u)) for u in users] + [(ITEM, i) for i in candidates]
    return {node: build_plan(graph, node, store, enabled, cfg, seed) for node in nodes}


def encode_node(tape, store: ad.ParamStore, plan: dict, enabled,
                cfg: ExperimentConfig, n_users: int, n_items: int) -> list[ad.Tensor]:
    """Per-task embeddings for one node from its frozen plan, in task order."""
    return [enc.encode_input(tape, store, code, plan[code], cfg, n_users, n_items)
            for code in enabled]


def infer_fused(tape, store: ad.ParamStore, task_embs: list[ad.Tensor]) -> ad.Tensor:
    return ad.matmul(tape, ad.concat(tape, task_embs, axis=0), store["fuse/w"])


def relevance(tape, h_user: ad.Tensor, h_item: ad.Tensor) -> ad.Tensor:
    return ad.matmul(tape, h_user, h_item)


@dataclass
class FinetunedModel:
    store: ad.ParamStore
    enabled: list[str]
    cfg: ExperimentConfig
    n_users: int
    n_items: int
    plans: dict[Node, dict]
    loss_trace: list[float] = field(default_factory=list)

    def fused_vec(self, node: Node) -> np.ndarray:
        embs = encode_node(None, self.store, self.plans[node], self.enabled,
                           self.cfg, self.n_users, self.n_items)
        return infer_fused(None, self.store, embs).data


def finetune(graph_ft: BipartiteGraph, ext_split, ckpt: Checkpoint,
             cfg: ExperimentConfig, seed: int) -> FinetunedModel:
    """Pairwise-ranking fine-tuning of the fused model on cold users' training
    interactions. graph_ft must not contain the held-out test interactions.

    One uniform negative per positive, resampled each epoch, drawn from the
    items outside the user's training set; a user whose training items cover
    every candidate has no negative and is an error. Items that end up with no
    neighbors in graph_ft cannot be encoded and are left out of the candidate
    set.

    Neighborhood plans are sampled once up front and held fixed; with
    cfg.replan_each_epoch they are rebuilt at the start of every later epoch,
    so dynamic trees follow the moving embedding tables.
    """
    store, enabled = load_store(ckpt)
    n_users, n_items = graph_ft.n_users, graph_ft.n_items
    store.register("fuse/w", fusion_init(cfg.d, len(enabled)))
    if cfg.freeze_encoders:
        store.frozen.update(n for n in store.params if not n.startswith("fuse/"))

    users = sorted(int(u) for u in ext_split.train)
    plans = build_plans(graph_ft, users, store, enabled, cfg, seed)
    candidates = [i for side, i in plans if side == ITEM]
    cand_set = set(candidates)
    train_items = {u: {int(i) for i, _ in ext_split.train[u]} for u in users}
    for u in users:
        if cand_set <= train_items[u]:
            raise ValueError(f"finetune: user {u} has trained on every candidate item, "
                             "so no negative can be drawn")
    positives = [(u, int(i)) for u in users for i, _ in ext_split.train[u]
                 if int(i) in cand_set]

    model = FinetunedModel(store, enabled, cfg, n_users, n_items, plans)
    for epoch in range(cfg.finetune_epochs):
        if cfg.replan_each_epoch and epoch > 0:
            pseed = derive_seed(seed, "replan", epoch)
            plans.update(build_plans(graph_ft, users, store, enabled, cfg, pseed))
        rng = rng_for(seed, "ft", epoch)
        order = rng.permutation(len(positives))
        total = 0.0
        for start in range(0, len(order), cfg.finetune_batch):
            batch = [positives[int(j)] for j in order[start:start + cfg.finetune_batch]]
            triples = []
            for u, i in batch:
                j = int(candidates[int(rng.integers(len(candidates)))])
                while j in train_items[u]:
                    j = int(candidates[int(rng.integers(len(candidates)))])
                triples.append((u, i, j))
            tape = ad.Tape()
            needed: list[Node] = sorted({(USER, u) for u, _, _ in triples}
                                        | {(ITEM, i) for _, i, _ in triples}
                                        | {(ITEM, j) for _, _, j in triples})
            fused = {}
            for node in needed:
                embs = encode_node(tape, store, plans[node], enabled, cfg, n_users, n_items)
                fused[node] = infer_fused(tape, store, embs)
            pos = ad.concat(tape, [_as1(tape, relevance(tape, fused[(USER, u)], fused[(ITEM, i)]))
                                   for u, i, _ in triples], axis=0)
            neg = ad.concat(tape, [_as1(tape, relevance(tape, fused[(USER, u)], fused[(ITEM, j)]))
                                   for u, _, j in triples], axis=0)
            loss = bpr_loss(tape, pos, neg)
            ad.backward(tape, loss)
            ad.optimizer_step(store, cfg.lr)
            total += float(loss.data) * len(batch)
        model.loss_trace.append(total / max(len(positives), 1))
    return model


def _as1(tape, t: ad.Tensor) -> ad.Tensor:
    """Scalar () -> shape (1,) so batch scores can be concatenated."""
    return ad.smul(tape, ad.Tensor(np.ones(1)), t)


def model_checkpoint(model: FinetunedModel, fingerprint: str) -> Checkpoint:
    return Checkpoint(fingerprint, model.store.state_arrays())
