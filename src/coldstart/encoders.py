"""Target-embedding encoders.

Two encoder families over a shared per-task vocabulary (user rows, then item
rows, then one reserved mask-token row):

* a sampled-subgraph GNN whose convolution concatenates a frozen meta
  embedding (self-attention summary of a node's initial first-order neighbor
  embeddings, averaged) with the node's previous state and the mean of its
  children's states, then applies a learned projection and sigmoid. The meta
  aggregator is plain numpy: its table is computed once per task, registered
  frozen and never differentiated;
* a pre-norm transformer over user-item walk sequences with learned positional
  embeddings, used to read out either a masked position or the target's
  position.

Projection heads for the contrastive objectives are two affine layers with a
sigmoid between; they are training-time machinery and are not applied when
inferring embeddings.
"""

import numpy as np

from . import autodiff as ad
from .config import GNN_TASKS
from .data import ITEM, USER, BipartiteGraph, flip
from .rng import rng_for


def node_index(side: str, node: int, n_users: int) -> int:
    return node if side == USER else n_users + node


def vocab_size(n_users: int, n_items: int) -> int:
    return n_users + n_items + 1  # final row is the mask token


def mask_token(n_users: int, n_items: int) -> int:
    return n_users + n_items


def glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_embedding(rng, rows: int, d: int) -> np.ndarray:
    # scale ~ 1/sqrt(d) keeps node vectors distinguishable after the
    # sigmoid nonlinearities; much smaller and every readout collapses
    # to sigma(0) = 0.5 in every coordinate
    return rng.normal(0.0, d ** -0.5, size=(rows, d))


# ---------------------------------------------------------------------------
# meta aggregator


def init_meta_params(store: ad.ParamStore, base: str, d: int, seed: int) -> None:
    for name in ("wq", "wk", "wv"):
        store.register(f"{base}/meta/{name}", glorot(rng_for(seed, base, "meta", name), d, d))


def meta_aggregate(rows: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                   wv: np.ndarray) -> np.ndarray:
    """Self-attention over the (K, d) neighbor rows, then the row mean."""
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("meta_aggregate: need a non-empty (K, d) neighbor matrix")
    scale = 1.0 / np.sqrt(rows.shape[1])
    attn = ad.softmax_np((rows @ wq) @ (rows @ wk).T * scale)
    return (attn @ (rows @ wv)).mean(axis=0)


def compute_meta_table(graph: BipartiteGraph, embed: np.ndarray,
                       wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                       k: int, seed: int) -> np.ndarray:
    """Meta embedding for every node from up to k first-order neighbors'
    initial embeddings (seeded choice when the degree exceeds k). Plain numpy:
    this table is computed once per task and frozen."""
    if k < 1:
        raise ValueError(f"compute_meta_table: k must be >= 1, got {k}")
    table = np.zeros(embed.shape)
    for side in (USER, ITEM):
        cside = flip(side)
        for node in range(graph.n_nodes(side)):
            nbrs = graph.neighbors(side, node)
            if len(nbrs) == 0:
                continue
            if len(nbrs) > k:
                rng = rng_for(seed, "metak", side, node)
                nbrs = np.sort(nbrs[rng.choice(len(nbrs), size=k, replace=False)])
            rows = embed[[node_index(cside, int(c), graph.n_users) for c in nbrs]]
            table[node_index(side, node, graph.n_users)] = meta_aggregate(rows, wq, wk, wv)
    return table


# ---------------------------------------------------------------------------
# GNN over sampled trees


def init_gnn_params(store: ad.ParamStore, base: str, d: int, layers: int, seed: int) -> None:
    for s in range(1, layers):
        store.register(f"{base}/gnn/w{s}", glorot(rng_for(seed, base, "gnn", s), 3 * d, d))
    store.register(f"{base}/gnn/wout", glorot(rng_for(seed, base, "gnn", "out"), d, d))


def gnn_forward(tape, store: ad.ParamStore, base: str, sub, layers: int, n_users: int) -> ad.Tensor:
    """Encode a subgraph tree into the target's embedding.

    Runs layers-1 synchronous convolution steps over the tree, then averages
    the refined first-order states and applies the final projection. Children
    of a childless interior node contribute a zero vector.
    """
    tree = sub.layers
    if len(tree) < 2 or not tree[1]:
        raise ValueError("gnn_forward: empty first-order layer")
    embed = store[f"{base}/embed"]
    meta = store[f"{base}/meta_table"].data
    depth = len(tree) - 1

    ids = [np.array([node_index(tn.side, tn.node, n_users) for tn in layer], dtype=np.int64)
           for layer in tree]
    h = [ad.embed_lookup(tape, embed, ids[l]) if len(ids[l]) else None for l in range(depth + 1)]
    meta_rows = [ad.Tensor(meta[ids[l]]) if len(ids[l]) else None for l in range(depth + 1)]

    avg_mats = []
    for l in range(depth):
        if h[l] is None or h[l + 1] is None:
            avg_mats.append(None)
            continue
        a = np.zeros((len(tree[l]), len(tree[l + 1])))
        for c, tn in enumerate(tree[l + 1]):
            a[tn.parent, c] = 1.0
        counts = a.sum(axis=1, keepdims=True)
        np.divide(a, counts, out=a, where=counts > 0)
        avg_mats.append(ad.Tensor(a))

    for step in range(1, layers):
        new_h = list(h)
        top = depth - step
        for l in range(1, top + 1):
            if h[l] is None:
                continue
            if h[l + 1] is not None and avg_mats[l] is not None:
                child_mean = ad.matmul(tape, avg_mats[l], h[l + 1])
            else:
                child_mean = ad.Tensor(np.zeros(h[l].data.shape))
            x = ad.concat(tape, [meta_rows[l], h[l], child_mean], axis=1)
            new_h[l] = ad.sigmoid(tape, ad.matmul(tape, x, store[f"{base}/gnn/w{step}"]))
        h = new_h

    first = h[1]
    agg = ad.mean(tape, first, axis=0)
    return ad.sigmoid(tape, ad.matmul(tape, agg, store[f"{base}/gnn/wout"]))


# ---------------------------------------------------------------------------
# transformer over paths


def init_transformer_params(store: ad.ParamStore, base: str, d: int, t_len: int,
                            blocks: int, heads: int, seed: int) -> None:
    if d % heads != 0:
        raise ValueError(f"model width {d} not divisible by {heads} heads")
    dh = d // heads
    store.register(f"{base}/pos", init_embedding(rng_for(seed, base, "pos"), t_len, d))
    for b in range(blocks):
        store.register(f"{base}/tr/b{b}/ln1g", np.ones(d))
        store.register(f"{base}/tr/b{b}/ln1b", np.zeros(d))
        for hh in range(heads):
            for name in ("wq", "wk", "wv"):
                store.register(f"{base}/tr/b{b}/h{hh}/{name}",
                               glorot(rng_for(seed, base, "tr", b, hh, name), d, dh))
        store.register(f"{base}/tr/b{b}/wo", glorot(rng_for(seed, base, "tr", b, "wo"), d, d))
        store.register(f"{base}/tr/b{b}/ln2g", np.ones(d))
        store.register(f"{base}/tr/b{b}/ln2b", np.zeros(d))
        store.register(f"{base}/tr/b{b}/ffw1", glorot(rng_for(seed, base, "tr", b, "ffw1"), d, 2 * d))
        store.register(f"{base}/tr/b{b}/ffb1", np.zeros(2 * d))
        store.register(f"{base}/tr/b{b}/ffw2", glorot(rng_for(seed, base, "tr", b, "ffw2"), 2 * d, d))
        store.register(f"{base}/tr/b{b}/ffb2", np.zeros(d))
    store.register(f"{base}/tr/lnfg", np.ones(d))
    store.register(f"{base}/tr/lnfb", np.zeros(d))


def transformer_forward(tape, store: ad.ParamStore, base: str, token_ids,
                        blocks: int, heads: int, collect_attn: bool = False):
    """Hidden states (T, d) for a token id sequence; optionally also the
    attention maps, one (T, T) matrix per (block, head)."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    t_len = len(token_ids)
    pos_table = store[f"{base}/pos"]
    if t_len > pos_table.data.shape[0]:
        raise ValueError(
            f"path length {t_len} exceeds positional table of {pos_table.data.shape[0]}")
    x = ad.add(tape,
               ad.embed_lookup(tape, store[f"{base}/embed"], token_ids),
               ad.embed_lookup(tape, pos_table, np.arange(t_len)))
    attns = []
    for b in range(blocks):
        y = ad.layer_norm(tape, x, store[f"{base}/tr/b{b}/ln1g"], store[f"{base}/tr/b{b}/ln1b"])
        head_outs = []
        for hh in range(heads):
            q = ad.matmul(tape, y, store[f"{base}/tr/b{b}/h{hh}/wq"])
            k = ad.matmul(tape, y, store[f"{base}/tr/b{b}/h{hh}/wk"])
            v = ad.matmul(tape, y, store[f"{base}/tr/b{b}/h{hh}/wv"])
            out, attn = ad.scaled_dot_attention(tape, q, k, v, return_weights=True)
            head_outs.append(out)
            if collect_attn:
                attns.append(attn)
        merged = ad.matmul(tape, ad.concat(tape, head_outs, axis=1), store[f"{base}/tr/b{b}/wo"])
        x = ad.add(tape, x, merged)
        z = ad.layer_norm(tape, x, store[f"{base}/tr/b{b}/ln2g"], store[f"{base}/tr/b{b}/ln2b"])
        f = ad.sigmoid(tape, ad.linear(tape, z, store[f"{base}/tr/b{b}/ffw1"], store[f"{base}/tr/b{b}/ffb1"]))
        f = ad.linear(tape, f, store[f"{base}/tr/b{b}/ffw2"], store[f"{base}/tr/b{b}/ffb2"])
        x = ad.add(tape, x, f)
    x = ad.layer_norm(tape, x, store[f"{base}/tr/lnfg"], store[f"{base}/tr/lnfb"])
    if collect_attn:
        return x, attns
    return x


def path_tokens(nodes, n_users: int, n_items: int, mask_pos: int | None = None) -> np.ndarray:
    """Render (side, id) nodes to vocabulary ids, optionally masking one."""
    ids = []
    for j, (side, node) in enumerate(nodes):
        if mask_pos is not None and j == mask_pos:
            ids.append(mask_token(n_users, n_items))
        else:
            idx = node_index(side, node, n_users)
            if not (0 <= idx < n_users + n_items):
                raise IndexError(f"unknown token: {side} {node}")
            ids.append(idx)
    return np.array(ids, dtype=np.int64)


def encode_masked_path(tape, store, base, masked, n_users, n_items, blocks, heads) -> ad.Tensor:
    """Hidden state at the mask position of a masked path."""
    tokens = path_tokens(masked.nodes, n_users, n_items, mask_pos=masked.pos)
    hidden = transformer_forward(tape, store, base, tokens, blocks, heads)
    return ad.row(tape, hidden, masked.pos)


def encode_path_at(tape, store, base, nodes, pos, n_users, n_items, blocks, heads) -> ad.Tensor:
    """Hidden state at an unmasked position (the contrastive target readout)."""
    tokens = path_tokens(nodes, n_users, n_items)
    hidden = transformer_forward(tape, store, base, tokens, blocks, heads)
    return ad.row(tape, hidden, pos)


def encode_input(tape, store, code, inp, cfg, n_users, n_items) -> ad.Tensor:
    """A target's embedding under pretext task code's encoder: the GNN over a
    tree (Rg, Cg), or the mean over positioned walks of the transformer read
    at the mask (Rp) or at the unmasked target (Cp)."""
    if code in GNN_TASKS:
        return gnn_forward(tape, store, code, inp, cfg.layers, n_users)
    if code == "Rp":
        reads = [encode_masked_path(tape, store, code, mp, n_users, n_items, cfg.blocks, cfg.heads)
                 for mp in inp]
    else:
        reads = [encode_path_at(tape, store, code, mp.nodes, mp.pos, n_users, n_items,
                                cfg.blocks, cfg.heads) for mp in inp]
    return ad.mean(tape, ad.stack_rows(tape, reads), axis=0)


# ---------------------------------------------------------------------------
# projection heads


def init_projection_params(store: ad.ParamStore, base: str, d: int, seed: int) -> None:
    store.register(f"{base}/proj/w1", glorot(rng_for(seed, base, "proj", "w1"), d, d))
    store.register(f"{base}/proj/b1", np.zeros(d))
    store.register(f"{base}/proj/w2", glorot(rng_for(seed, base, "proj", "w2"), d, d))
    store.register(f"{base}/proj/b2", np.zeros(d))


def project(tape, store: ad.ParamStore, base: str, h: ad.Tensor) -> ad.Tensor:
    z = ad.sigmoid(tape, ad.linear(tape, h, store[f"{base}/proj/w1"], store[f"{base}/proj/b1"]))
    return ad.linear(tape, z, store[f"{base}/proj/w2"], store[f"{base}/proj/b2"])
