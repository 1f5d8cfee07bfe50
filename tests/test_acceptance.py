"""Release gate: one test per published claim about this implementation.

Each test prints a single summary line, so `pytest -v tests/test_acceptance.py`
reads as a checklist:

  1. gradient correctness of every training loss and the fused ranking path
  2. ranking metrics match a brute-force full-sort oracle exactly
  3. contrastive loss matches a direct double-loop summation
  4. dynamic sampler equals exhaustive sort-and-truncate (incl. tie-break)
  5. structural invariances (permutation, masking, attention, cosine, ranking)
  6. pretraining + fine-tuning lifts cold-user Recall@20 over both baselines
  7. all single-task and leave-one-out ablations run and report metrics
  8. dynamic sampling stays within 10x of random sampling per epoch
  9. the full pipeline is bit-identical under a rerun

The expensive directional check (6) runs last; everything before it finishes
in well under a minute apiece.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from coldstart import autodiff as ad
from coldstart import encoders as enc
from coldstart.cli import main
from coldstart.config import ExperimentConfig
from coldstart.data import ITEM, USER, build_graph, intrinsic_split, load_interactions, meta_split
from coldstart.evaluate import ndcg_at_k, rank_items, recall_at_k, sampling_benchmark
from coldstart.finetune import build_plan, encode_node, fusion_init, infer_fused, load_store, relevance
from coldstart.paths import MaskedPath, augment_path, augment_subgraph, generate_paths, generate_positioned_paths
from coldstart.pretraining import (GroundTruth, bpr_loss, contrastive_loss,
                                   init_task, pretrain_all, pretrain_targets, reconstruction_loss)
from coldstart.sampling import sample_dynamic, sample_random

ROOT = Path(__file__).resolve().parent.parent
TOY_CFG = ROOT / "configs" / "toy.cfg"
TOY_TSV = ROOT / "data" / "toy.tsv"


# ---------------------------------------------------------------------------
# shared fixtures-by-hand


def nine_node_graph():
    """4 users x 5 items, every user degree 3, every item degree >= 2."""
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3),
             (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 0)]
    return build_graph([(u, i, ts) for ts, (u, i) in enumerate(pairs)], 4, 5)


def rng_ground_truth(graph, d, seed=5):
    """Fixed reference tables; gradient checks only need constant targets."""
    r = np.random.default_rng(seed)
    return GroundTruth(
        (r.normal(size=(graph.n_users, d)), r.normal(size=(graph.n_items, d))),
        (r.normal(size=(graph.n_users, d)), r.normal(size=(graph.n_items, d))))


def write_block_corpus(path):
    """30x20 two-block corpus: 20 dense users (degree 10), 10 sparse (degree 4)."""
    lines, ts = [], 0
    for u in range(20):
        for i in range(10 * (u % 2), 10 * (u % 2) + 10):
            lines.append(f"{u}\t{i}\t{ts}\n")
            ts += 1
    for u in range(20, 30):
        for j in range(4):
            lines.append(f"{u}\t{10 * (u % 2) + (u + j) % 10}\t{ts}\n")
            ts += 1
    path.write_text("".join(lines))


SMALL_CFG = """\
d=4
lr=0.02
layers=2
path_len=3
k_intrinsic=2
k_extrinsic=2
user_threshold=8
item_threshold=10
c_frac=0.2
k_eval=5
seed=11
gt_epochs=3
pretrain_epochs=2
finetune_epochs=2
recon_batch=16
contrast_batch=8
finetune_batch=8
blocks=1
heads=2
"""


def run_pipeline(cfg_path, out, extra=()):
    for stage in ("ingest", "split", "groundtruth", "pretrain", "finetune", "eval"):
        rc = main([stage, "--config", str(cfg_path), "--out", str(out)] + list(extra))
        assert rc == 0, f"stage {stage} failed with {extra}"


def read_report(out):
    rows = {}
    for line in (Path(out) / "eval" / "report.tsv").read_text().splitlines():
        name, value, stderr = line.split("\t")
        rows[name] = (float(value), float(stderr))
    return rows


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1():
    g = nine_node_graph()
    d, layers, k, t_len = 4, 2, 2, 3
    cfg = ExperimentConfig(d=d, layers=layers, path_len=t_len, k_intrinsic=k, pretrain_epochs=0,
                           recon_batch=8, contrast_batch=8, blocks=1, heads=2, lr=0.02)
    gt = rng_ground_truth(g, d)
    targets = [(USER, 0), (ITEM, 2)]
    report = []

    # Rg: tree readout regressed onto the reference embedding
    st = init_task("Rg", g, cfg, seed=11)
    trees = {t: sample_random(g, t, k, layers, 100 + j) for j, t in enumerate(targets)}

    def rg_loss():
        tape = ad.Tape()
        preds = [enc.gnn_forward(tape, st.store, "Rg", trees[t], layers, g.n_users)
                 for t in targets]
        return tape, reconstruction_loss(tape, preds, [gt.target_vec(*t) for t in targets])

    report += ad.grad_check(rg_loss, st.store, step=1e-5, tol=1e-4)

    # Cg: two augmented views per target, projected, NT-Xent
    st = init_task("Cg", g, cfg, seed=12)
    view_subs = []
    for j, t in enumerate(targets):
        tree = sample_random(g, t, k, layers, 200 + j)
        for v in (0, 1):
            seed = 300 + 10 * j + v
            while True:  # skip the rare degenerate augmentation, deterministically
                aug = augment_subgraph(tree, g, "delete", 0.2, seed)
                try:
                    enc.gnn_forward(ad.Tape(), st.store, "Cg", aug, layers, g.n_users)
                    break
                except ValueError:
                    seed += 1000
            view_subs.append(aug)

    def cg_loss():
        tape = ad.Tape()
        views = [enc.project(tape, st.store, "Cg",
                             enc.gnn_forward(tape, st.store, "Cg", s, layers, g.n_users))
                 for s in view_subs]
        return tape, contrastive_loss(tape, views, cfg.tau)

    report += ad.grad_check(cg_loss, st.store, step=1e-5, tol=1e-4)

    # Rp: masked positional read-outs averaged per target
    st = init_task("Rp", g, cfg, seed=13)
    path_sets = {}
    for j, t in enumerate(targets):
        tree = sample_random(g, t, k, layers, 400 + j)
        path_sets[t] = generate_positioned_paths(tree, t, t_len, 500 + j)
        assert path_sets[t], "walk generation came back empty"

    def rp_loss():
        tape = ad.Tape()
        preds = []
        for t in targets:
            reads = [enc.encode_masked_path(tape, st.store, "Rp", mp, g.n_users,
                                            g.n_items, 1, 2) for mp in path_sets[t]]
            preds.append(ad.mean(tape, ad.stack_rows(tape, reads), axis=0))
        return tape, reconstruction_loss(tape, preds, [gt.target_vec(*t) for t in targets])

    report += ad.grad_check(rp_loss, st.store, step=1e-5, tol=1e-4)

    # Cp: augmented walks read at the protected target position
    st = init_task("Cp", g, cfg, seed=14)
    walk_views = []
    for j, t in enumerate(targets):
        tree = sample_random(g, t, k, layers, 600 + j)
        walk = generate_paths(tree, t, t_len, 1, 700 + j)[0]
        assert len(walk.nodes) >= 2
        for v in (0, 1):
            aug = augment_path(walk.nodes, "delete", 0.2, 800 + 10 * j + v,
                               graph=g, protect=0)
            walk_views.append((aug.nodes, aug.kept_from.index(0)))

    def cp_loss():
        tape = ad.Tape()
        views = [enc.project(tape, st.store, "Cp",
                             enc.encode_path_at(tape, st.store, "Cp", nodes, pos,
                                                g.n_users, g.n_items, 1, 2))
                 for nodes, pos in walk_views]
        return tape, contrastive_loss(tape, views, cfg.tau)

    report += ad.grad_check(cp_loss, st.store, step=1e-5, tol=1e-4)

    # fused ranking path: all four encoders -> W -> score -> pairwise loss
    res = pretrain_all(g, targets, gt, cfg, 15, "gate")
    assert not res.failed
    store, enabled = load_store(res.checkpoint)
    store.register("fuse/w", fusion_init(d, len(enabled)))
    icfg = ExperimentConfig(d=d, layers=layers, path_len=t_len, k_extrinsic=k, sampler="random",
                            blocks=1, heads=2, lr=0.02, finetune_epochs=1, finetune_batch=8)
    plans = {n: build_plan(g, n, store, enabled, icfg, 16)
             for n in [(USER, 0), (ITEM, 1), (ITEM, 4)]}
    assert all(a.data.dtype == np.float64 for a in store.params.values())

    def fused_bpr_loss():
        tape = ad.Tape()
        fused = {n: infer_fused(tape, store, encode_node(tape, store, plans[n], enabled,
                                                         icfg, g.n_users, g.n_items))
                 for n in plans}
        one = ad.Tensor(np.ones(1))
        pos = ad.smul(tape, one, relevance(tape, fused[(USER, 0)], fused[(ITEM, 1)]))
        neg = ad.smul(tape, one, relevance(tape, fused[(USER, 0)], fused[(ITEM, 4)]))
        return tape, bpr_loss(tape, pos, neg)

    report += ad.grad_check(fused_bpr_loss, store, step=1e-5, tol=1e-4)

    bad = [e for e in report if not e.passed]
    worst = max(e.max_rel_err for e in report)
    assert not bad, bad
    print(f"criterion 1: PASS  {len(report)} parameter tensors, "
          f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. ranking metrics vs. brute force


def test_criterion_2():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(100):
        n_users = int(rng.integers(1, 101))
        n_items = int(rng.integers(5, 201))
        k = int(rng.integers(1, 31))
        scores = np.round(rng.normal(size=(n_users, n_items)), 1)  # force ties
        ids = np.arange(n_items)
        for u in range(n_users):
            relevant = set(rng.choice(n_items, size=int(rng.integers(1, min(9, n_items + 1))),
                                      replace=False).tolist())
            ranked = rank_items(scores[u], ids)

            # full sort, top-k scan, textbook definitions
            oracle_rank = sorted(range(n_items), key=lambda i: (-scores[u][i], i))
            hits = [r + 1 for r, i in enumerate(oracle_rank[:k]) if i in relevant]
            oracle_recall = len(hits) / len(relevant)
            dcg = 0.0
            for r in hits:
                dcg += 1.0 / math.log2(r + 1)
            idcg = sum(1.0 / math.log2(r + 1)
                       for r in range(1, min(k, len(relevant)) + 1))

            assert list(ranked) == oracle_rank
            assert recall_at_k(list(ranked), relevant, k) == oracle_recall
            assert ndcg_at_k(list(ranked), relevant, k) == dcg / idcg
            checked += 1
    print(f"criterion 2: PASS  exact match on 100 instances ({checked} users)")


# ---------------------------------------------------------------------------
# 3. contrastive loss vs. double loop


def double_loop_nt_xent(z, tau):
    n2 = len(z)

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    total = 0.0
    for m in range(n2):
        p = m + 1 if m % 2 == 0 else m - 1
        denom = sum(math.exp(cos(z[m], z[j]) / tau) for j in range(n2) if j != m)
        total += -cos(z[m], z[p]) / tau + math.log(denom)
    return total / n2


def test_criterion_3():
    rng = np.random.default_rng(3)
    taus = (0.1, 0.2, 1.0)
    worst = 0.0
    for trial in range(100):
        n_pairs = int(rng.integers(2, 9))  # 2N in 4..16
        d = int(rng.integers(2, 9))
        tau = taus[trial % 3]
        z = [rng.normal(size=d) for _ in range(2 * n_pairs)]
        got = float(contrastive_loss(ad.Tape(), [ad.Tensor(v) for v in z], tau).data)
        diff = abs(got - double_loop_nt_xent(z, tau))
        worst = max(worst, diff)
        assert diff <= 1e-9, (trial, tau, diff)
    print(f"criterion 3: PASS  100 batches, worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. dynamic sampler vs. exhaustive reference


def exhaustive_dynamic(graph, target, k, l_max, meta, cur):
    """Score every reachable candidate, sort, truncate; no shortcuts."""
    side, node = target
    nu = graph.n_users

    def row(table, s, n):
        return table[n if s == USER else nu + n]

    def vec(s, n):
        return np.concatenate([row(meta, s, n), row(cur, s, n)])

    tvec = vec(side, node)
    tnorm = np.linalg.norm(tvec) + 1e-12
    flip = {USER: ITEM, ITEM: USER}
    kept = [(side, node, -1)]
    out = [kept]
    for l in range(1, l_max + 1):
        child = flip[kept[0][0]]
        pool, parent_of = [], {}
        for pi, (s, n, _) in enumerate(kept):
            for c in graph.neighbors(s, n):
                c = int(c)
                if c not in parent_of:
                    parent_of[c] = pi
                    pool.append(c)
        scored = []
        for c in sorted(pool):
            cv = vec(child, c)
            scored.append((float(cv @ tvec / ((np.linalg.norm(cv) + 1e-12) * tnorm)), c))
        scored.sort(key=lambda t: (-t[0], t[1]))
        kept = [(child, c, parent_of[c]) for _, c in scored[:min(k ** l, len(scored))]]
        out.append(kept)
    return out


def test_criterion_4():
    rng = np.random.default_rng(4)
    tie_trials = 0
    for trial in range(100):
        n_users = int(rng.integers(2, 51))
        n_items = int(rng.integers(2, 51))  # <= 100 nodes total
        inter, ts = [], 0
        for u in range(n_users):
            for i in rng.choice(n_items, size=int(rng.integers(1, min(5, n_items + 1))),
                                replace=False):
                inter.append((u, int(i), ts))
                ts += 1
        g = build_graph(inter, n_users, n_items)
        for i in range(n_items):  # no isolated items
            if g.degree(ITEM, i) == 0:
                inter.append((int(rng.integers(n_users)), i, ts))
                ts += 1
        g = build_graph(inter, n_users, n_items)

        d = 3
        if trial % 3 == 2:
            # coarse grid => massive exact score ties, exercising the id tie-break
            meta = rng.integers(-1, 2, size=(n_users + n_items, d)) / 2.0
            cur = rng.integers(-1, 2, size=(n_users + n_items, d)) / 2.0
            meta[(meta == 0).all(axis=1)] = 0.5
            cur[(cur == 0).all(axis=1)] = 0.5
            tie_trials += 1
        else:
            meta = rng.normal(size=(n_users + n_items, d))
            cur = rng.normal(size=(n_users + n_items, d))

        side = USER if rng.integers(2) == 0 else ITEM
        node = int(rng.integers(g.n_nodes(side)))
        k = int(rng.integers(1, 5))
        l_max = int(rng.integers(1, 4))

        sub = sample_dynamic(g, (side, node), k, l_max, meta, cur)
        want = exhaustive_dynamic(g, (side, node), k, l_max, meta, cur)
        got = [[(tn.side, tn.node, tn.parent) for tn in layer] for layer in sub.layers]
        assert got == want, (trial, side, node, k, l_max)
    print(f"criterion 4: PASS  100 graphs ({tie_trials} tie-heavy), "
          f"selection and ordering identical")


# ---------------------------------------------------------------------------
# 5. structural invariances


def test_criterion_5():
    rng = np.random.default_rng(55)
    g = nine_node_graph()
    d = 4

    # (a) neighbor permutation leaves the aggregated embedding unchanged
    store = ad.ParamStore()
    enc.init_meta_params(store, "m", d, seed=1)
    w = [store[f"m/meta/{name}"].data for name in ("wq", "wk", "wv")]
    drift = 0.0
    for n in (1, 2, 5, 8):
        neigh = rng.normal(size=(n, d))
        base = enc.meta_aggregate(neigh, *w)
        for _ in range(3):
            perm = enc.meta_aggregate(neigh[rng.permutation(n)], *w)
            drift = max(drift, float(np.abs(base - perm).max()))
    assert drift <= 1e-10, drift

    # (b) the masked read-out cannot see the held-out identity
    cfg = ExperimentConfig(d=d, layers=2, path_len=3, k_intrinsic=2, pretrain_epochs=0,
                           recon_batch=8, contrast_batch=8, blocks=1, heads=2, lr=0.02)
    st = init_task("Rp", g, cfg, seed=2)
    nodes_a = [(USER, 0), (ITEM, 1), (USER, 2)]
    nodes_b = [(USER, 0), (ITEM, 4), (USER, 2)]  # only the masked slot differs
    ha = enc.encode_masked_path(ad.Tape(), st.store, "Rp",
                                MaskedPath(nodes_a, 1, nodes_a[1]), g.n_users,
                                g.n_items, 1, 2).data
    hb = enc.encode_masked_path(ad.Tape(), st.store, "Rp",
                                MaskedPath(nodes_b, 1, nodes_b[1]), g.n_users,
                                g.n_items, 1, 2).data
    assert np.array_equal(ha, hb)

    # (c) every attention row is a distribution
    tokens = enc.path_tokens(nodes_a, g.n_users, g.n_items)
    _, attns = enc.transformer_forward(ad.Tape(), st.store, "Rp", tokens, 1, 2,
                                       collect_attn=True)
    assert len(attns) == 1 * 2
    row_err = max(float(np.abs(a.data.sum(axis=1) - 1.0).max()) for a in attns)
    assert row_err <= 1e-10, row_err

    # (d) cosine of a vector with itself, across embedding-scale norms
    cos_err = 0.0
    for scale in (0.1, 1.0, 1e3):
        v = ad.Tensor(rng.normal(size=6) * scale)
        cos_err = max(cos_err, abs(float(ad.cosine_sim(ad.Tape(), v, v).data) - 1.0))
    assert cos_err <= 1e-10, cos_err

    # (e) rankings ignore positive monotone rescoring
    ids = np.arange(40)
    for _ in range(20):
        s = rng.integers(-30, 31, size=40) / 10.0  # grid scores, many ties
        base = rank_items(s, ids)
        for f in (lambda x: 3.0 * x + 7.0, np.exp, np.tanh, lambda x: x ** 3):
            assert np.array_equal(base, rank_items(f(s), ids))

    print(f"criterion 5: PASS  permutation drift {drift:.1e}, "
          f"attention row error {row_err:.1e}, cosine error {cos_err:.1e}")


# ---------------------------------------------------------------------------
# 7. ablation coverage (single-task and leave-one-out)


def test_criterion_7(tmp_path):
    data = tmp_path / "corpus.tsv"
    write_block_corpus(data)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"dataset_path={data}\n" + SMALL_CFG)

    codes = ["Rg", "Cg", "Rp", "Cp"]
    variants = [[c] for c in codes]
    variants += [[c for c in codes if c != drop] for drop in codes]
    table = {}
    for tasks in variants:
        name = ",".join(tasks)
        out = tmp_path / f"run_{name.replace(',', '-')}"
        run_pipeline(cfg_path, out, ["--tasks", name])
        rows = read_report(out)
        for metric in ("recall_at_5", "ndcg_at_5"):
            assert metric in rows and math.isfinite(rows[metric][0]), (name, metric)
        table[name] = rows["recall_at_5"][0]

    assert len(table) == 8
    listing = "  ".join(f"{n}={v:.3f}" for n, v in table.items())
    print(f"criterion 7: PASS  8 variants reported  {listing}")


# ---------------------------------------------------------------------------
# 8. sampling cost stays comparable


def test_criterion_8():
    inter, _, _ = load_interactions(str(TOY_TSV), "tsv")
    g = build_graph(inter)
    user_meta = meta_split(g, USER, 12)
    item_meta = meta_split(g, ITEM, 15)
    targets = pretrain_targets(intrinsic_split(user_meta, 0.7, 9),
                               intrinsic_split(item_meta, 0.7, 9))
    cfg = ExperimentConfig(d=16, layers=2, path_len=4, k_intrinsic=3, pretrain_epochs=1,
                           recon_batch=64, contrast_batch=32, blocks=2, heads=2, lr=0.02)
    gt = rng_ground_truth(g, 16, seed=8)
    _, summaries = sampling_benchmark(g, targets, gt, cfg, seed=9, epochs=10,
                                      strategies=("random", "dynamic"))
    by = {s.strategy: s for s in summaries}
    ratio = by["dynamic"].sample_mean / by["random"].sample_mean
    assert ratio <= 10.0, ratio
    print(f"criterion 8: PASS  per-epoch sampling over 10 epochs: "
          f"random {by['random'].sample_mean * 1e3:.1f}±{by['random'].sample_std * 1e3:.1f} ms, "
          f"dynamic {by['dynamic'].sample_mean * 1e3:.1f}±{by['dynamic'].sample_std * 1e3:.1f} ms "
          f"({ratio:.1f}x)")


# ---------------------------------------------------------------------------
# 9. bit-identical reruns


def test_criterion_9(tmp_path):
    data = tmp_path / "corpus.tsv"
    write_block_corpus(data)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"dataset_path={data}\n" + SMALL_CFG)

    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_pipeline(cfg_path, out)
    files = ["groundtruth/gt.ckpt", "pretrain/checkpoint.ckpt",
             "finetune/model.ckpt", "eval/report.txt", "eval/report.tsv"]
    for rel in files:
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    print(f"criterion 9: PASS  {len(files)} artifacts byte-identical across reruns")


# ---------------------------------------------------------------------------
# 6. cold-start lift on the bundled corpus (slowest check, kept last)


@pytest.mark.slow
def test_criterion_6(tmp_path):
    variants = {"full": [], "init": ["--set", "pretrain_epochs=0"], "rg": ["--tasks", "Rg"]}
    seeds = (21, 22, 23)
    recalls = {name: [] for name in variants}
    t0 = time.monotonic()
    for seed in seeds:
        for name, extra in variants.items():
            out = tmp_path / f"{name}_{seed}"
            run_pipeline(TOY_CFG, out, ["--set", f"seed={seed}"] + extra)
            recalls[name].append(read_report(out)["recall_at_20"][0])
    elapsed = time.monotonic() - t0
    means = {name: float(np.mean(v)) for name, v in recalls.items()}

    assert means["full"] > means["init"], (means, recalls)
    assert means["full"] > means["rg"], (means, recalls)
    assert elapsed <= 1800.0, elapsed
    print(f"criterion 6: PASS  mean Recall@20 over seeds {seeds}: "
          f"pretrained+fine-tuned {means['full']:.4f} > random-init {means['init']:.4f}, "
          f"> single-reconstruction {means['rg']:.4f}  ({elapsed:.0f}s)")
