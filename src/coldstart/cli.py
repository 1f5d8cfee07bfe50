"""Command-line pipeline: ingest -> split -> groundtruth -> pretrain ->
finetune -> eval, plus bench.

Every stage writes its artifacts under --out/<stage>/ together with a
meta.json carrying the config fingerprint; downstream stages refuse to chain
onto artifacts built under a different configuration. Writes are atomic
(temp file + rename) so an interrupted run never leaves a truncated artifact
that a later stage would accept.
"""

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, build_config, parse_config_file
from .data import (ITEM, USER, ExtrinsicSplit, IntrinsicSplit, build_graph, extrinsic_split,
                   intrinsic_split, load_interactions, meta_split, remove_test_edges)
from .evaluate import eval_extrinsic, eval_intrinsic_side, sampling_benchmark
from .finetune import FinetunedModel, build_plans, finetune, load_store, model_checkpoint
from .pretraining import (GroundTruth, ground_truth_pairs, masked_test_neighborhoods,
                          pretrain_all, pretrain_targets, train_ground_truth)
from .rng import derive_seed

log = logging.getLogger("coldstart")

STAGES = ("ingest", "split", "groundtruth", "pretrain", "finetune", "eval", "bench")


def _setup_logging():
    level = os.environ.get("COLDSTART_LOG", "info").lower()
    logging.basicConfig(
        level=logging.DEBUG if level == "debug" else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.parent / (path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def atomic_save_checkpoint(path: Path, ckpt: Checkpoint) -> None:
    tmp = path.parent / (path.name + ".tmp")
    save_checkpoint(tmp, ckpt)
    os.replace(tmp, path)


def _stage_dir(out: Path, stage: str) -> Path:
    d = out / stage
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_meta(out: Path, stage: str, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    meta = {"stage": stage, "fingerprint": cfg.fingerprint(), **(extra or {})}
    atomic_write_text(out / stage / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _require_stage(out: Path, stage: str, cfg: ExperimentConfig) -> dict:
    meta_path = out / stage / "meta.json"
    if not meta_path.exists():
        raise SystemExit(
            f"missing artifacts for stage '{stage}': run `coldstart {stage}` first")
    meta = json.loads(meta_path.read_text())
    if meta.get("fingerprint") != cfg.fingerprint():
        raise SystemExit(
            f"artifacts for stage '{stage}' were built under a different config "
            f"(fingerprint mismatch); re-run `coldstart {stage}` with this config")
    return meta


# ---------------------------------------------------------------------------
# stage loaders


def _load_canonical(out: Path):
    inter_path = out / "ingest" / "interactions.tsv"
    interactions, _, _ = load_interactions(inter_path, "tsv")
    return build_graph(interactions)


def _load_partitions(out: Path, side: str) -> IntrinsicSplit:
    path = out / "split" / f"{side}_partition.tsv"
    parts = {"train_t": [], "test_t": [], "cold": []}
    for line in path.read_text().splitlines():
        sid, part = line.split("\t")
        parts[part].append(int(sid))
    return IntrinsicSplit(side, np.array(sorted(parts["train_t"]), dtype=np.int64),
                          np.array(sorted(parts["test_t"]), dtype=np.int64))


def _load_extrinsic(out: Path):
    ext = ExtrinsicSplit()
    for name, book in (("extrinsic_train.tsv", ext.train), ("extrinsic_test.tsv", ext.test)):
        for line in (out / "split" / name).read_text().splitlines():
            u, i, ts = (int(x) for x in line.split("\t"))
            book.setdefault(u, []).append((i, ts))
    meta = json.loads((out / "split" / "meta.json").read_text())
    ext.dropped = int(meta.get("extrinsic_dropped", 0))
    return ext


_CHECKPOINTS = {"groundtruth": "gt.ckpt", "pretrain": "checkpoint.ckpt", "finetune": "model.ckpt"}


def _checkpoint_path(out: Path, stage: str) -> Path:
    return out / stage / _CHECKPOINTS[stage]


def _load_stage_checkpoint(out: Path, stage: str, cfg: ExperimentConfig) -> Checkpoint:
    """A stage's checkpoint, refused unless it was written under cfg."""
    ckpt = load_checkpoint(_checkpoint_path(out, stage))
    if ckpt.fingerprint != cfg.fingerprint():
        raise SystemExit(f"{stage} checkpoint fingerprint mismatch; re-run `coldstart {stage}`")
    return ckpt


def _load_ground_truth(out: Path, cfg: ExperimentConfig) -> GroundTruth:
    a = _load_stage_checkpoint(out, "groundtruth", cfg).arrays
    return GroundTruth((a["gtu/user"], a["gtu/item"]), (a["gti/user"], a["gti/item"]))


def _load_pretrain_inputs(out: Path, cfg: ExperimentConfig):
    """Graph, ground truth and training targets of the pretrain and bench stages."""
    graph = _load_canonical(out)
    gt = _load_ground_truth(out, cfg)
    targets = pretrain_targets(_load_partitions(out, USER), _load_partitions(out, ITEM))
    return graph, gt, targets


def _write_loss_csv(path: Path, losses) -> None:
    atomic_write_text(path, "epoch,loss\n" + "".join(f"{e},{v!r}\n" for e, v in enumerate(losses)))


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg: ExperimentConfig, out: Path) -> None:
    interactions, user_remap, item_remap = load_interactions(cfg.dataset_path, cfg.dataset_format)
    stage = _stage_dir(out, "ingest")
    atomic_write_text(stage / "interactions.tsv",
                      "".join(f"{u}\t{i}\t{ts}\n" for u, i, ts in interactions))
    for name, remap in (("user_remap.tsv", user_remap), ("item_remap.tsv", item_remap)):
        atomic_write_text(stage / name,
                          "".join(f"{orig}\t{dense}\n" for orig, dense in sorted(remap.items())))
    n_users, n_items = len(user_remap), len(item_remap)
    _write_meta(out, "ingest", cfg, {
        "n_users": n_users, "n_items": n_items, "n_interactions": len(interactions)})
    log.info("ingest: %d users, %d items, %d interactions",
             n_users, n_items, len(interactions))


def cmd_split(cfg: ExperimentConfig, out: Path) -> None:
    _require_stage(out, "ingest", cfg)
    graph = _load_canonical(out)
    stage = _stage_dir(out, "split")
    counts, cold = {}, {}
    for side, threshold in ((USER, cfg.user_threshold), (ITEM, cfg.item_threshold)):
        meta = meta_split(graph, side, threshold)
        cold[side] = meta.cold
        intr = intrinsic_split(meta, cfg.intrinsic_ratio, cfg.seed)
        parts = ([(int(n), "train_t") for n in intr.train]
                 + [(int(n), "test_t") for n in intr.test]
                 + [(int(n), "cold") for n in meta.cold])
        parts.sort()
        atomic_write_text(stage / f"{side}_partition.tsv",
                          "".join(f"{n}\t{p}\n" for n, p in parts))
        counts[side] = {"train_t": len(intr.train), "test_t": len(intr.test),
                        "cold": len(meta.cold)}
    ext = extrinsic_split(graph, cold[USER], cfg.c_frac)
    for name, book in (("extrinsic_train.tsv", ext.train), ("extrinsic_test.tsv", ext.test)):
        atomic_write_text(stage / name, "".join(
            f"{u}\t{i}\t{ts}\n" for u in sorted(book) for i, ts in book[u]))
    _write_meta(out, "split", cfg, {
        "user": counts[USER], "item": counts[ITEM], "extrinsic_dropped": ext.dropped})
    log.info("split: user %s, item %s, extrinsic dropped %d",
             counts[USER], counts[ITEM], ext.dropped)


def cmd_groundtruth(cfg: ExperimentConfig, out: Path) -> None:
    _require_stage(out, "split", cfg)
    graph = _load_canonical(out)
    arrays, traces = {}, {}
    for side, tag in ((USER, "gtu"), (ITEM, "gti")):
        split = _load_partitions(out, side)
        masked = masked_test_neighborhoods(graph, split, cfg.k_intrinsic, cfg.layers, cfg.seed)
        pairs = ground_truth_pairs(graph, split, masked)
        P, Q, losses = train_ground_truth(
            graph.n_users, graph.n_items, pairs, cfg.d, cfg.lr, cfg.gt_epochs,
            derive_seed(cfg.seed, "gtrun", side))
        arrays[f"{tag}/user"] = P
        arrays[f"{tag}/item"] = Q
        traces[tag] = losses
    stage = _stage_dir(out, "groundtruth")
    atomic_save_checkpoint(_checkpoint_path(out, "groundtruth"), Checkpoint(cfg.fingerprint(), arrays))
    for tag, losses in traces.items():
        _write_loss_csv(stage / f"loss_{tag}.csv", losses)
    _write_meta(out, "groundtruth", cfg)
    log.info("groundtruth: trained both protocol sides")


def cmd_pretrain(cfg: ExperimentConfig, out: Path) -> int:
    _require_stage(out, "groundtruth", cfg)
    graph, gt, targets = _load_pretrain_inputs(out, cfg)
    result = pretrain_all(graph, targets, gt, cfg, cfg.seed,
                          cfg.fingerprint(), tasks=cfg.task_list())
    stage = _stage_dir(out, "pretrain")
    atomic_save_checkpoint(_checkpoint_path(out, "pretrain"), result.checkpoint)
    atomic_write_text(stage / "train_log.tsv", "".join(
        f"{l.task}\t{l.epoch}\t{l.loss!r}\t{l.wall_ms:.3f}\t{l.skipped}\n" for l in result.logs))
    for code in cfg.task_list():
        _write_loss_csv(stage / f"loss_{code}.csv", [l.loss for l in result.logs if l.task == code])
    _write_meta(out, "pretrain", cfg, {"failed_tasks": list(result.failed),
                                       "failure_reasons": result.failed})
    if result.failed:
        log.error("pretrain: diverged tasks %s; checkpoint marked partial", list(result.failed))
        return 1
    log.info("pretrain: %d tasks trained", len(cfg.task_list()))
    return 0


def cmd_finetune(cfg: ExperimentConfig, out: Path) -> None:
    _require_stage(out, "pretrain", cfg)
    ckpt = _load_stage_checkpoint(out, "pretrain", cfg)
    if ckpt.partial:
        raise SystemExit("pretrain checkpoint is partial (a task diverged); not fine-tuning")
    ext = _load_extrinsic(out)
    graph_ft = remove_test_edges(_load_canonical(out), ext)
    model = finetune(graph_ft, ext, ckpt, cfg, cfg.seed)
    stage = _stage_dir(out, "finetune")
    atomic_save_checkpoint(_checkpoint_path(out, "finetune"), model_checkpoint(model, cfg.fingerprint()))
    _write_loss_csv(stage / "loss.csv", model.loss_trace)
    _write_meta(out, "finetune", cfg)
    log.info("finetune: %d epochs over %d cold users", cfg.finetune_epochs, len(ext.train))


def _rebuild_finetuned(cfg: ExperimentConfig, out: Path) -> FinetunedModel:
    """Reload the fine-tuned model together with the inputs it is rebuilt from."""
    pre_store, enabled = load_store(_load_stage_checkpoint(out, "pretrain", cfg))
    return _finetuned_model(cfg, out, _load_canonical(out), _load_extrinsic(out),
                            pre_store, enabled)


def _finetuned_model(cfg: ExperimentConfig, out: Path, graph, ext, pre_store,
                     enabled) -> FinetunedModel:
    """Reload the fine-tuned parameters and rebuild the inference plans from
    already loaded inputs. By default plans were sampled before fine-tuning
    moved the embeddings, so they are rebuilt from the pre-train tables; with
    replan_each_epoch the model follows its moving tables, so plans come from
    the fine-tuned ones."""
    fin_store, _ = load_store(_load_stage_checkpoint(out, "finetune", cfg))
    graph_ft = remove_test_edges(graph, ext)
    plan_store = fin_store if cfg.replan_each_epoch else pre_store
    plans = build_plans(graph_ft, sorted(ext.train), plan_store, enabled, cfg, cfg.seed)
    return FinetunedModel(fin_store, enabled, cfg, graph_ft.n_users, graph_ft.n_items, plans)


def cmd_eval(cfg: ExperimentConfig, out: Path) -> None:
    _require_stage(out, "finetune", cfg)
    graph = _load_canonical(out)
    gt = _load_ground_truth(out, cfg)
    ext = _load_extrinsic(out)
    pre_store, enabled = load_store(_load_stage_checkpoint(out, "pretrain", cfg))

    metrics: dict[str, float] = {}
    for side in (USER, ITEM):
        split = _load_partitions(out, side)
        masked = masked_test_neighborhoods(graph, split, cfg.k_intrinsic, cfg.layers, cfg.seed)
        rep = eval_intrinsic_side(graph, split, masked, pre_store, enabled, gt, cfg, cfg.seed)
        metrics[f"intrinsic_cosine_{side}"] = rep.fused
        for code, val in rep.per_task.items():
            metrics[f"intrinsic_cosine_{side}_{code}"] = val

    model = _finetuned_model(cfg, out, graph, ext, pre_store, enabled)
    er = eval_extrinsic(model, ext, cfg.k_eval)
    metrics[f"recall_at_{cfg.k_eval}"] = er.recall
    metrics[f"ndcg_at_{cfg.k_eval}"] = er.ndcg
    stderr = {f"recall_at_{cfg.k_eval}": er.recall_stderr,
              f"ndcg_at_{cfg.k_eval}": er.ndcg_stderr}
    counters = {"extrinsic_users": er.n_users, "extrinsic_excluded": er.excluded}

    stage = _stage_dir(out, "eval")
    lines = [f"{k}={metrics[k]!r}\n" for k in sorted(metrics)]
    lines += [f"{k}={v}\n" for k, v in sorted(counters.items())]
    atomic_write_text(stage / "report.txt", "".join(lines))
    atomic_write_text(stage / "report.tsv", "".join(
        f"{k}\t{metrics[k]!r}\t{stderr.get(k, 0.0)!r}\n" for k in sorted(metrics)))
    _write_meta(out, "eval", cfg)
    for k in sorted(metrics):
        log.info("eval: %s = %.6f", k, metrics[k])


def cmd_bench(cfg: ExperimentConfig, out: Path, epochs: int = 10) -> None:
    _require_stage(out, "groundtruth", cfg)
    graph, gt, targets = _load_pretrain_inputs(out, cfg)
    rows, summaries = sampling_benchmark(graph, targets, gt, cfg, cfg.seed, epochs=epochs)
    stage = _stage_dir(out, "bench")
    atomic_write_text(stage / "timings.tsv", "strategy\tepoch\tsample_s\ttrain_s\n" + "".join(
        f"{r.strategy}\t{r.epoch}\t{r.sample_s:.6f}\t{r.train_s:.6f}\n" for r in rows))
    atomic_write_text(stage / "summary.tsv",
                      "strategy\tsample_mean\tsample_std\ttrain_mean\ttrain_std\n" + "".join(
                          f"{s.strategy}\t{s.sample_mean:.6f}\t{s.sample_std:.6f}"
                          f"\t{s.train_mean:.6f}\t{s.train_std:.6f}\n" for s in summaries))
    _write_meta(out, "bench", cfg)
    for s in summaries:
        log.info("bench: %s sampling %.4fs +/- %.4fs per epoch",
                 s.strategy, s.sample_mean, s.sample_std)


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coldstart",
        description="Cold-start recommendation pre-training pipeline")
    p.add_argument("command", choices=STAGES)
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    p.add_argument("--out", type=str, default="runs/default", help="artifact directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tasks", type=str, default=None,
                   help="comma-joined subset of Rg,Cg,Rp,Cp")
    p.add_argument("--sampler", type=str, default=None,
                   choices=("random", "importance", "dynamic"))
    p.add_argument("--aug", type=str, default=None,
                   choices=("delete", "substitute", "both"))
    p.add_argument("--k-eval", type=int, default=None, dest="k_eval")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key")
    return p


def _config_from_args(args) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides: dict[str, str] = {}
    for kv in args.set:
        if "=" not in kv:
            raise SystemExit(f"--set expects KEY=VALUE, got {kv!r}")
        key, val = kv.split("=", 1)
        overrides[key.strip()] = val.strip()
    for key in ("seed", "tasks", "sampler", "aug", "k_eval"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = str(val)
    try:
        return build_config(file_values, overrides)
    except (KeyError, ValueError) as e:
        raise SystemExit(f"bad configuration: {e}") from e


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    cfg = _config_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    # looked up at call time, so a rebound module attribute is the one that runs
    rc = globals()[f"cmd_{args.command}"](cfg, out) or 0
    log.debug("%s finished in %.2fs", args.command, time.perf_counter() - t0)
    return rc


if __name__ == "__main__":
    sys.exit(main())
