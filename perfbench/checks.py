"""Output checks on one pipeline run directory.

Each check either recomputes a figure apart from the program (from the corpus
and the split files) or tests a property the method guarantees. A check
returns a list of failure messages; an empty list means it passed.
"""

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12


def read_pairs(path) -> dict[int, list[int]]:
    """user -> items of a split file (user<TAB>item<TAB>ts lines)."""
    book: dict[int, list[int]] = {}
    for line in Path(path).read_text().splitlines():
        u, i, _ = line.split("\t")
        book.setdefault(int(u), []).append(int(i))
    return book


def read_report(out) -> dict[str, float]:
    rows = {}
    for line in (Path(out) / "eval" / "report.tsv").read_text().splitlines():
        name, value, _ = line.split("\t")
        rows[name] = float(value)
    return rows


def read_counters(out) -> dict[str, str]:
    return dict(line.split("=", 1) for line in
                (Path(out) / "eval" / "report.txt").read_text().splitlines())


def user_degrees(rows) -> dict[int, int]:
    """Degree per user after collapsing repeated (user, item) pairs."""
    deg: dict[int, int] = {}
    for u, _ in {(u, i) for u, i, _ in rows}:
        deg[u] = deg.get(u, 0) + 1
    return deg


def expected_eval_users(rows, user_threshold: int, c_frac: float) -> int:
    """Cold users (degree <= threshold) whose chronological cut leaves both a
    training and a test part."""
    return sum(1 for d in user_degrees(rows).values()
               if d <= user_threshold and math.ceil(c_frac * d) < d)


def candidate_items(out) -> list[int]:
    """Items with at least one interaction outside the held-out test pairs."""
    test = {(u, i) for u, items in read_pairs(Path(out) / "split" / "extrinsic_test.tsv").items()
            for i in items}
    cand = set()
    for line in (Path(out) / "ingest" / "interactions.tsv").read_text().splitlines():
        u, i, _ = (int(x) for x in line.split("\t"))
        if (u, i) not in test:
            cand.add(i)
    return sorted(cand)


def full_sort(scores, items) -> list[int]:
    """Items by score descending, then item id ascending."""
    return [i for _, i in sorted(zip((-float(s) for s in scores), items))]


def recall_ndcg(ranked, relevant: set, k: int) -> tuple[float, float]:
    top = ranked[:k]
    hits = [r for r, item in enumerate(top, start=1) if item in relevant]
    dcg = sum(1.0 / math.log2(r + 1) for r in hits)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(relevant)) + 1))
    return len(hits) / len(relevant), dcg / idcg


def extrinsic_from_vectors(user_vec, item_vec, train, test, cand, k):
    """Macro Recall@k and NDCG@k over users with both a train and a test part,
    ranking every candidate the user did not train on."""
    cand_arr = np.array(cand, dtype=np.int64)
    item_mat = np.stack([item_vec(i) for i in cand])
    recalls, ndcgs = [], []
    for u in sorted(test):
        if u not in train:
            continue
        seen = set(train[u])
        keep = np.array([i not in seen for i in cand])
        scores = item_mat[keep] @ user_vec(u)
        r, n = recall_ndcg(full_sort(scores, cand_arr[keep].tolist()), set(test[u]), k)
        recalls.append(r)
        ndcgs.append(n)
    return math.fsum(recalls) / len(recalls), math.fsum(ndcgs) / len(ndcgs)


def random_recall(train, test, cand, k) -> float:
    """Expected macro Recall@k of a uniformly random ranking of the same
    per-user candidate sets."""
    cset = set(cand)
    vals = []
    for u in sorted(test):
        if u not in train:
            continue
        n = len(cset - set(train[u]))
        reachable = len(cset & set(test[u])) / len(test[u])
        vals.append(reachable * min(k, n) / n)
    return math.fsum(vals) / len(vals)


def check_extrinsic(cfg, out, model) -> tuple[list[str], float]:
    """Recompute Recall/NDCG from the model's fused vectors; also returns the
    random-ranking expectation for the same candidates."""
    split = Path(out) / "split"
    train = read_pairs(split / "extrinsic_train.tsv")
    test = read_pairs(split / "extrinsic_test.tsv")
    cand = candidate_items(out)
    recall, ndcg = extrinsic_from_vectors(
        lambda u: model.fused_vec(("user", u)), lambda i: model.fused_vec(("item", i)),
        train, test, cand, cfg.k_eval)
    report = read_report(out)
    problems = []
    for name, mine in ((f"recall_at_{cfg.k_eval}", recall), (f"ndcg_at_{cfg.k_eval}", ndcg)):
        if abs(report[name] - mine) > TOL:
            problems.append(f"{out}: {name} {report[name]!r} != recomputed {mine!r}")
    return problems, random_recall(train, test, cand, cfg.k_eval)


def _losses(path) -> list[float]:
    lines = Path(path).read_text().splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines]


def check_run(cfg, out, rows) -> list[str]:
    """Per-round checks: loss traces, failed tasks, evaluated-user count."""
    out = Path(out)
    problems = []
    bounds = {"Rg": (0.0, 2.0), "Rp": (0.0, 2.0), "Cg": (0.0, math.inf), "Cp": (0.0, math.inf)}
    traces = [(out / "groundtruth" / f"loss_{tag}.csv", (0.0, math.inf)) for tag in ("gtu", "gti")]
    traces += [(out / "pretrain" / f"loss_{code}.csv", bounds[code]) for code in cfg.task_list()]
    traces.append((out / "finetune" / "loss.csv", (0.0, math.inf)))
    for path, (lo, hi) in traces:
        losses = _losses(path)
        if not losses:
            problems.append(f"{path}: no epochs logged")
        # reconstruction may touch 0 exactly; the other losses must be positive
        strict = hi == math.inf
        for e, v in enumerate(losses):
            if not math.isfinite(v) or v > hi or v < lo or (strict and v <= lo):
                problems.append(f"{path}: epoch {e} loss {v!r} outside its bound")
    failed = json.loads((out / "pretrain" / "meta.json").read_text()).get("failed_tasks")
    if failed:
        problems.append(f"{out}: pretrain lists failed tasks {failed}")
    want = expected_eval_users(rows, cfg.user_threshold, cfg.c_frac)
    got = int(read_counters(out)["extrinsic_users"])
    if got != want:
        problems.append(f"{out}: report evaluates {got} users, corpus implies {want}")
    return problems


def expected_finetune_steps(cfg, out) -> int:
    """finetune_epochs * ceil(positives / finetune_batch), positives being the
    training pairs whose item is a candidate."""
    cand = set(candidate_items(out))
    train = read_pairs(Path(out) / "split" / "extrinsic_train.tsv")
    positives = sum(1 for items in train.values() for i in items if i in cand)
    return cfg.finetune_epochs * math.ceil(positives / cfg.finetune_batch)
