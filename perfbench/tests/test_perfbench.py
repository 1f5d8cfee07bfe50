"""Tests of the benchmark itself: corpus generation, the ranking-metric
recomputation, the tracer and the result line.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from corpus import degree, is_abundant, make_corpus  # noqa: E402
from speed import REF_S, SpeedProbe  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import ABLATION_CORPUS, GNN_CORPUS, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("spec", [GNN_CORPUS, ABLATION_CORPUS])
def test_corpus_is_deterministic_per_seed(spec):
    assert make_corpus(spec, 5) == make_corpus(spec, 5)
    assert make_corpus(spec, 5) != make_corpus(spec, 6)


# (spec, interactions, abundant users) as the README states them
MAKEUP = [(GNN_CORPUS, 7164, 160), (ABLATION_CORPUS, 334, 12)]


@pytest.mark.parametrize("spec,n_rows,n_abundant", MAKEUP)
@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_degree_makeup(spec, n_rows, n_abundant, seed):
    rows = make_corpus(spec, seed)
    assert len(rows) == n_rows
    assert len({(u, i) for u, i, _ in rows}) == n_rows, "repeated (user, item) pair"
    assert [ts for _, _, ts in rows] == sorted(ts for _, _, ts in rows)
    degs = checks.user_degrees(rows)
    assert sorted(degs) == list(range(spec.n_users))
    assert sum(is_abundant(spec, u) for u in degs) == n_abundant
    upb, ipb = spec.n_users // spec.n_blocks, spec.n_items // spec.n_blocks
    for u, d in degs.items():
        lo, hi = spec.abundant_degree if is_abundant(spec, u) else spec.cold_degree
        assert lo <= d <= hi and d == degree(spec, u)
        block = u // upb
        in_block = sum(1 for v, i, _ in rows if v == u and i // ipb == block)
        assert in_block == min(max(1, round(d * spec.in_share)), ipb)
    for lo_hi, abundant in ((spec.abundant_degree, True), (spec.cold_degree, False)):
        seen = {d for u, d in degs.items() if is_abundant(spec, u) == abundant}
        assert seen == set(range(lo_hi[0], lo_hi[1] + 1))


def test_full_sort_breaks_ties_by_item_id():
    assert checks.full_sort([0.5, 0.9, 0.5, 0.1], [9, 2, 5, 7]) == [2, 5, 9, 7]


def test_recall_ndcg_hand_worked_with_ties():
    # user 0 trains on item 1; candidates 0..4 minus item 1 score
    #   item 0: 1.0, item 2: 2.0, item 3: 1.0, item 4: 3.0
    # ranking: 4, 2, then the tie 0 before 3; test items {3, 0}
    # k=3: hit at rank 3 (item 0); recall 1/2, NDCG (1/log2 4) / (1 + 1/log2 3)
    # user 1 trains on item 4; candidates 0..3 all score 0.0, so ids decide:
    # ranking 0, 1, 2, 3; test item {2}
    # k=3: hit at rank 3; recall 1, NDCG (1/log2 4) / 1
    items = {0: [1.0], 1: [5.0], 2: [2.0], 3: [1.0], 4: [3.0]}
    users = {0: [1.0], 1: [0.0]}
    train = {0: [1], 1: [4]}
    test = {0: [3, 0], 1: [2]}
    recall, ndcg = checks.extrinsic_from_vectors(
        lambda u: np.array(users[u]),
        lambda i: np.array(items[i]),
        train, test, [0, 1, 2, 3, 4], 3)
    assert recall == pytest.approx((0.5 + 1.0) / 2, abs=1e-15)
    want_ndcg = (0.5 / (1.0 + 1.0 / math.log2(3)) + 0.5) / 2
    assert ndcg == pytest.approx(want_ndcg, abs=1e-15)
    # k=2 misses every test item
    assert checks.extrinsic_from_vectors(
        lambda u: np.array(users[u]),
        lambda i: np.array(items[i]),
        train, test, [0, 1, 2, 3, 4], 2) == (0.0, 0.0)


def test_random_recall_counts_unreachable_test_items():
    # user 0: 4 candidates after training, one of two test items reachable
    assert checks.random_recall({0: [1]}, {0: [2, 9]}, [0, 1, 2, 3, 4], 2) == 0.5 * 2 / 4


def test_speed_correction_scales_by_the_kernel_time():
    p = SpeedProbe()
    p.ends = [1.0, 2.0, 3.0]
    p.durations = [0.01, 0.01, 0.01]
    p.warm = [2 * REF_S, 2 * REF_S, 4 * REF_S]
    # two samples inside: their handler time is removed, the CPU ran at half speed
    assert p.corrected(0.5, 2.5) == pytest.approx((2.0 - 0.02) / 2)
    # none inside: the speed of the latest sample before the interval
    assert p.corrected(3.1, 3.3) == pytest.approx(0.2 / 4)
    assert p.corrected(0.1, 0.3) == pytest.approx(0.2 / 2)


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_result_line_names_every_metric_in_benchmark_json():
    spec = _bench_spec()
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == run.per_layer_units()
    assert set(run.layer_metrics(Tracer())) | {"trace.overhead"} == {n for n, _ in layers}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for units in (e2e, layers):
        line = json.loads(run.result_line(True, 6, 0, {n: 1.5 for n, _ in units}, units))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in units}


def test_traced_pipeline_counts_and_uninstalls(tmp_path):
    """One small traced chain: spans nest, finetune steps match the split,
    tracing leaves the outputs unchanged and uninstall restores every binding."""
    from coldstart import cli, config, finetune, pretraining

    wl = WORKLOADS["ablation-sweep"]
    cfg_path, rows = wl.prepare(ROOT, tmp_path, seed=3)
    before = (cli.main, cli.finetune, finetune.sample_dynamic, pretraining.sample_dynamic)
    cfg = config.build_config(config.parse_config_file(cfg_path), {"tasks": "Rg,Rp"})

    def chain(out):
        for stage in run.STAGES:
            assert cli.main([stage, "--config", str(cfg_path), "--out", str(out),
                             "--set=tasks=Rg,Rp"]) == 0

    chain(tmp_path / "plain")
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        chain(tmp_path / "traced")
    finally:
        uninstall()
    assert (cli.main, cli.finetune, finetune.sample_dynamic, pretraining.sample_dynamic) == before

    m = run.layer_metrics(tracer)
    assert m["finetune.steps"] == checks.expected_finetune_steps(cfg, tmp_path / "traced") > 0
    assert m["encoders.transformer_forward_calls"] > m["encoders.transformer_forward_untaped_calls"] > 0
    assert m["sampling.dynamic_calls"] > 0 and m["pretraining.task_s.Cg"] == 0
    assert m["autodiff.tape_ops"] == sum(v for k, v in m.items() if k.startswith("autodiff.tape_ops."))
    parents = {name for name, _, _, parent in tracer.spans if parent == -1}
    assert parents == {"cli.ingest", "cli.split", "cli.groundtruth", "cli.pretrain",
                       "cli.finetune", "cli.eval"}
    for rel in ("eval/report.txt", "finetune/model.ckpt"):
        assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "traced" / rel).read_bytes()
    assert checks.check_run(cfg, tmp_path / "traced", rows) == []
