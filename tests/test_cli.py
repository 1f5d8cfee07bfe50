"""End-to-end pipeline through the command-line entry point: stage chaining,
fingerprint guards, artifact shapes, and re-run determinism."""

import json
import shutil

import numpy as np
import pytest

from coldstart import cli
from coldstart.checkpoint import load_checkpoint
from coldstart.cli import main


def write_corpus(path):
    """Deterministic 30x20 corpus: users 0..19 take all 10 items of their
    block (degree 10), users 20..29 take 4 round-robin items (degree 4), so
    every item ends with degree 12."""
    lines = []
    ts = 0
    for u in range(20):
        for i in range(10 * (u % 2), 10 * (u % 2) + 10):
            lines.append(f"{u}\t{i}\t{ts}\n")
            ts += 1
    for u in range(20, 30):
        for j in range(4):
            i = 10 * (u % 2) + (u + j) % 10
            lines.append(f"{u}\t{i}\t{ts}\n")
            ts += 1
    path.write_text("".join(lines))


CFG = """\
d=4
lr=0.02
layers=2
path_len=3
k_intrinsic=2
k_extrinsic=2
user_threshold=8
item_threshold=10
intrinsic_ratio=0.7
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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run of every stage; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "corpus.tsv"
    write_corpus(data)
    cfg_path = root / "run.cfg"
    cfg_path.write_text(f"dataset_path={data}\n" + CFG)
    out = root / "artifacts"
    base = ["--config", str(cfg_path), "--out", str(out)]
    for stage in ("ingest", "split", "groundtruth", "pretrain", "finetune",
                  "eval", "bench"):
        assert main([stage] + base) == 0, stage
    return out, cfg_path, base


class TestArtifacts:
    def test_every_stage_has_meta_with_one_fingerprint(self, pipeline):
        out, _, _ = pipeline
        fps = set()
        for stage in ("ingest", "split", "groundtruth", "pretrain", "finetune",
                      "eval", "bench"):
            meta = json.loads((out / stage / "meta.json").read_text())
            assert meta["stage"] == stage
            fps.add(meta["fingerprint"])
        assert len(fps) == 1

    def test_ingest_outputs(self, pipeline):
        out, _, _ = pipeline
        rows = (out / "ingest" / "interactions.tsv").read_text().splitlines()
        assert len(rows) == 240  # 20*10 + 10*4
        assert all(len(r.split("\t")) == 3 for r in rows)
        meta = json.loads((out / "ingest" / "meta.json").read_text())
        assert (meta["n_users"], meta["n_items"]) == (30, 20)

    def test_split_partitions(self, pipeline):
        out, _, _ = pipeline
        parts = {}
        for line in (out / "split" / "user_partition.tsv").read_text().splitlines():
            sid, part = line.split("\t")
            parts.setdefault(part, []).append(int(sid))
        assert sorted(parts["cold"]) == list(range(20, 30))  # degree 4 <= 8
        assert len(parts["train_t"]) == 14 and len(parts["test_t"]) == 6
        train = (out / "split" / "extrinsic_train.tsv").read_text().splitlines()
        test = (out / "split" / "extrinsic_test.tsv").read_text().splitlines()
        # ceil(0.2 * 4) = 1 train, 3 test, for each of the 10 cold users
        assert len(train) == 10 and len(test) == 30

    def test_groundtruth_outputs(self, pipeline):
        out, _, _ = pipeline
        ckpt = load_checkpoint(out / "groundtruth" / "gt.ckpt")
        assert set(ckpt.arrays) == {"gtu/user", "gtu/item", "gti/user", "gti/item"}
        assert ckpt.arrays["gtu/user"].shape == (30, 4)
        trace = (out / "groundtruth" / "loss_gtu.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss" and len(trace) == 4  # header + 3 epochs

    def test_pretrain_outputs(self, pipeline):
        out, _, _ = pipeline
        ckpt = load_checkpoint(out / "pretrain" / "checkpoint.ckpt")
        assert not ckpt.partial
        codes = {n.split("/")[0] for n in ckpt.arrays}
        assert codes == {"Rg", "Cg", "Rp", "Cp"}
        for code in codes:
            trace = (out / "pretrain" / f"loss_{code}.csv").read_text().splitlines()
            assert trace[0] == "epoch,loss" and len(trace) == 3
        log_rows = (out / "pretrain" / "train_log.tsv").read_text().splitlines()
        assert len(log_rows) == 8  # 4 tasks x 2 epochs
        for row in log_rows:  # task, epoch, loss, wall_ms, skipped
            fields = row.split("\t")
            assert len(fields) == 5, row
            assert int(fields[4]) >= 0, row

    def test_finetune_outputs(self, pipeline):
        out, _, _ = pipeline
        ckpt = load_checkpoint(out / "finetune" / "model.ckpt")
        assert "fuse/w" in ckpt.arrays
        assert ckpt.arrays["fuse/w"].shape == (16, 4)  # 4 tasks x d=4
        trace = (out / "finetune" / "loss.csv").read_text().splitlines()
        assert len(trace) == 3
        losses = [float(r.split(",")[1]) for r in trace[1:]]
        assert all(np.isfinite(v) for v in losses)

    def test_eval_report(self, pipeline):
        out, _, _ = pipeline
        report = dict(line.split("=", 1) for line in
                      (out / "eval" / "report.txt").read_text().splitlines())
        assert 0.0 <= float(report["recall_at_5"]) <= 1.0
        assert 0.0 <= float(report["ndcg_at_5"]) <= 1.0
        for side in ("user", "item"):
            assert f"intrinsic_cosine_{side}" in report
            for code in ("Rg", "Cg", "Rp", "Cp"):
                assert f"intrinsic_cosine_{side}_{code}" in report
        assert report["extrinsic_users"] == "10"
        tsv = [r.split("\t") for r in
               (out / "eval" / "report.tsv").read_text().splitlines()]
        assert all(len(r) == 3 for r in tsv)
        assert {r[0] for r in tsv} == {k for k in report
                                       if not k.startswith("extrinsic_")}

    def test_bench_outputs(self, pipeline):
        out, _, _ = pipeline
        rows = (out / "bench" / "timings.tsv").read_text().splitlines()
        assert rows[0] == "strategy\tepoch\tsample_s\ttrain_s"
        assert len(rows) == 1 + 3 * 10  # three strategies, ten epochs each
        summary = (out / "bench" / "summary.tsv").read_text().splitlines()
        assert len(summary) == 4
        assert [r.split("\t")[0] for r in summary[1:]] == ["random", "importance", "dynamic"]

    def test_no_temp_files_left(self, pipeline):
        out, _, _ = pipeline
        assert list(out.rglob("*.tmp")) == []


class TestChaining:
    def test_missing_upstream_stage(self, pipeline, tmp_path):
        _, cfg_path, _ = pipeline
        with pytest.raises(SystemExit, match="run `coldstart ingest` first"):
            main(["split", "--config", str(cfg_path), "--out", str(tmp_path / "x")])

    def test_fingerprint_mismatch(self, pipeline):
        out, cfg_path, base = pipeline
        with pytest.raises(SystemExit, match="fingerprint mismatch"):
            main(["split"] + base + ["--seed", "999"])

    def test_unknown_config_key(self, pipeline):
        _, _, base = pipeline
        with pytest.raises(SystemExit, match="unknown config key"):
            main(["ingest"] + base + ["--set", "warp_factor=9"])

    def test_malformed_set(self, pipeline):
        _, _, base = pipeline
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main(["ingest"] + base + ["--set", "no_equals_sign"])

    def test_bad_config_value(self, pipeline):
        _, _, base = pipeline
        with pytest.raises(SystemExit, match="bad configuration: .*'c_frac'"):
            main(["ingest"] + base + ["--set", "c_frac=1.5"])

    def test_eval_refuses_foreign_pretrain_checkpoint(self, pipeline, tmp_path, monkeypatch):
        """A pretrain checkpoint built under another seed is refused before
        any evaluation work starts."""
        out, cfg_path, _ = pipeline
        run = tmp_path / "run"
        shutil.copytree(out, run)
        other = tmp_path / "other"
        for stage in ("ingest", "split", "groundtruth", "pretrain"):
            assert main([stage, "--config", str(cfg_path), "--out", str(other),
                         "--seed", "12"]) == 0, stage
        shutil.copy(other / "pretrain" / "checkpoint.ckpt", run / "pretrain" / "checkpoint.ckpt")

        def must_not_run(*args, **kwargs):
            raise AssertionError("intrinsic evaluation ran on an unchecked checkpoint")

        monkeypatch.setattr(cli, "eval_intrinsic_side", must_not_run)
        with pytest.raises(SystemExit, match="fingerprint mismatch"):
            main(["eval", "--config", str(cfg_path), "--out", str(run)])


class TestEvalInputs:
    def test_eval_loads_each_input_once(self, pipeline, monkeypatch):
        """The intrinsic and the extrinsic evaluation share one read of the
        interactions and of each checkpoint."""
        out, _, base = pipeline
        loads = []
        real_interactions, real_checkpoint = cli.load_interactions, cli.load_checkpoint

        def load_interactions(*args):
            loads.append("interactions")
            return real_interactions(*args)

        def load_checkpoint(path):
            loads.append(path.name)
            return real_checkpoint(path)

        monkeypatch.setattr(cli, "load_interactions", load_interactions)
        monkeypatch.setattr(cli, "load_checkpoint", load_checkpoint)
        assert main(["eval"] + base) == 0
        assert sorted(loads) == ["checkpoint.ckpt", "gt.ckpt", "interactions", "model.ckpt"]


class TestDeterminism:
    def test_rerun_finetune_eval_bit_identical(self, pipeline):
        out, _, base = pipeline
        model = (out / "finetune" / "model.ckpt").read_bytes()
        report = (out / "eval" / "report.txt").read_bytes()
        assert main(["finetune"] + base) == 0
        assert main(["eval"] + base) == 0
        assert (out / "finetune" / "model.ckpt").read_bytes() == model
        assert (out / "eval" / "report.txt").read_bytes() == report

    def test_rerun_pretrain_bit_identical(self, pipeline):
        out, _, base = pipeline
        ckpt = (out / "pretrain" / "checkpoint.ckpt").read_bytes()
        assert main(["pretrain"] + base) == 0
        assert (out / "pretrain" / "checkpoint.ckpt").read_bytes() == ckpt


class TestAblationRuns:
    def test_task_subset_pipeline(self, tmp_path):
        """A leave-one-out ablation is just the same pipeline under --tasks;
        it must train, fine-tune, and report with the reduced task set."""
        data = tmp_path / "corpus.tsv"
        write_corpus(data)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"dataset_path={data}\n" + CFG)
        out = tmp_path / "ablate"
        base = ["--config", str(cfg_path), "--out", str(out), "--tasks", "Rg,Cp"]
        for stage in ("ingest", "split", "groundtruth", "pretrain", "finetune", "eval"):
            assert main([stage] + base) == 0, stage
        ckpt = load_checkpoint(out / "pretrain" / "checkpoint.ckpt")
        codes = {n.split("/")[0] for n in ckpt.arrays}
        assert codes == {"Rg", "Cp"}
        model = load_checkpoint(out / "finetune" / "model.ckpt")
        assert model.arrays["fuse/w"].shape == (8, 4)  # 2 tasks x d=4
        report = dict(line.split("=", 1) for line in
                      (out / "eval" / "report.txt").read_text().splitlines())
        assert "recall_at_5" in report and "intrinsic_cosine_user_Cp" in report
        assert "intrinsic_cosine_user_Cg" not in report


class TestFinetuneFlags:
    @pytest.mark.parametrize("key", ["freeze_encoders", "replan_each_epoch"])
    def test_flag_pipeline_reports(self, tmp_path, key):
        """Both fine-tune variants run end to end and report metrics; the flag
        is a semantic config change, so the fingerprint must move too."""
        data = tmp_path / "corpus.tsv"
        write_corpus(data)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"dataset_path={data}\n" + CFG)
        out = tmp_path / "flagged"
        base = ["--config", str(cfg_path), "--out", str(out), "--set", f"{key}=true"]
        for stage in ("ingest", "split", "groundtruth", "pretrain", "finetune", "eval"):
            assert main([stage] + base) == 0, stage
        report = dict(line.split("=", 1) for line in
                      (out / "eval" / "report.txt").read_text().splitlines())
        assert "recall_at_5" in report and "ndcg_at_5" in report
        meta = json.loads((out / "eval" / "meta.json").read_text())
        from coldstart.config import build_config, parse_config_file

        plain = build_config(parse_config_file(cfg_path), {})
        assert meta["fingerprint"] != plain.fingerprint()


class TestDivergedTask:
    def test_diverged_task_is_recorded_and_refused(self, tmp_path):
        """Deleting every node empties each Cg view, so Cg diverges: pretrain
        fails, names the task and its reason, writes a partial checkpoint,
        and finetune refuses that checkpoint."""
        data = tmp_path / "corpus.tsv"
        write_corpus(data)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"dataset_path={data}\n" + CFG)
        out = tmp_path / "diverged"
        base = ["--config", str(cfg_path), "--out", str(out), "--tasks", "Rg,Cg",
                "--set", "pretrain_epochs=1", "--set", "delete_ratio=1.0"]
        for stage in ("ingest", "split", "groundtruth"):
            assert main([stage] + base) == 0, stage
        assert main(["pretrain"] + base) == 1
        meta = json.loads((out / "pretrain" / "meta.json").read_text())
        assert meta["failed_tasks"] == ["Cg"]
        assert list(meta["failure_reasons"]) == ["Cg"]
        assert "skipped" in meta["failure_reasons"]["Cg"]
        assert load_checkpoint(out / "pretrain" / "checkpoint.ckpt").partial
        with pytest.raises(SystemExit, match="partial"):
            main(["finetune"] + base)
