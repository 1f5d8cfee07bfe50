"""Pipeline benchmark: times each coldstart stage end to end and, traced,
splits the time by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy-full --seed 1 --seconds 20 --trace 0

It imports the program from ./src, writes the workload's corpus and config
under ./.perfbench, and drives ingest -> split -> groundtruth -> pretrain ->
finetune -> eval through `coldstart.cli.main`, in one process with BLAS held
to one thread. It repeats whole rounds (every variant's six stages) until
--seconds have passed, at least two, and reports per-round medians of the
stage times, corrected for the CPU's speed while they ran (speed.py). With
--trace 1 one untraced round is followed by traced rounds, and the per-layer
metrics come from those. Every metric is printed with its unit; the last line
of standard output is a JSON result.
"""

import os
import sys
import time

_T0 = time.perf_counter()
if __name__ == "__main__":
    # before anything imports numpy
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_S, SpeedProbe  # noqa: E402

STAGES = ("ingest", "split", "groundtruth", "pretrain", "finetune", "eval")

END_TO_END = (
    ("setup_s", "s"), ("pipeline_s", "s"), ("groundtruth_s", "s"), ("pretrain_s", "s"),
    ("finetune_s", "s"), ("eval_s", "s"), ("peak_rss_mb", "MB"), ("cold_recall", "fraction"),
)


def _age_at_start() -> float:
    """Seconds between process start and _T0, from /proc (10 ms clock ticks);
    0 where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    age = now - start_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - _T0)
    return max(age, 0.0)


def _unit(name: str) -> str:
    if name.endswith("bytes"):
        return "bytes"
    return "s" if name.endswith("_s") or "_s." in name else "count"


def per_layer_units() -> list[tuple[str, str]]:
    from tracing import Tracer

    names = list(layer_metrics(Tracer())) + ["trace.overhead"]
    return [(n, "fraction" if n == "trace.overhead" else _unit(n)) for n in names]


def layer_metrics(t) -> dict[str, float]:
    """Per-layer figures of one traced round. Times are self times, except
    the per-task and ingest/split totals, which include their child spans."""
    from tracing import OPS

    m = {"autodiff.tape_ops": sum(t.tape_ops.values())}
    m.update({f"autodiff.tape_ops.{op}": t.tape_ops[op] for op in OPS})
    m.update({f"autodiff.op_s.{op}": t.op_self_s[op] for op in OPS})
    m["autodiff.backward_calls"] = t.calls["autodiff.backward"]
    m["autodiff.backward_s"] = t.self_s["autodiff.backward"]
    m["autodiff.optimizer_step_s"] = t.self_s["autodiff.optimizer_step"]
    for name in ("encoders.transformer_forward", "encoders.gnn_forward"):
        m[f"{name}_calls"] = t.calls[name]
        m[f"{name}_s"] = t.self_s[name]
    m["encoders.transformer_forward_untaped_calls"] = t.untaped_transformer_calls
    m["encoders.meta_table_s"] = t.self_s["encoders.meta_table"]
    for name in ("sampling.dynamic", "sampling.random", "paths.positioned"):
        m[f"{name}_calls"] = t.calls[name]
        m[f"{name}_s"] = t.self_s[name]
    m["paths.augment_s"] = t.self_s["paths.augment"]
    m["pretraining.ground_truth_s"] = t.self_s["pretraining.ground_truth"]
    for code in ("Rg", "Cg", "Rp", "Cp"):
        m[f"pretraining.task_s.{code}"] = t.total_s[f"pretraining.task.{code}"]
    m["finetune.steps"] = t.finetune_steps
    for name in ("finetune.build_plan", "finetune.encode_node"):
        m[f"{name}_calls"] = t.calls[name]
        m[f"{name}_s"] = t.self_s[name]
    for name in ("evaluate.extrinsic", "evaluate.intrinsic", "evaluate.intrinsic_fusion",
                 "checkpoint.save", "checkpoint.load", "data.load_interactions"):
        m[f"{name}_s"] = t.self_s[name]
    m["checkpoint.bytes"] = t.checkpoint_bytes
    m["data.build_graph_calls"] = t.calls["data.build_graph"]
    m["cli.ingest_s"] = t.total_s["cli.ingest"]
    m["cli.split_s"] = t.total_s["cli.split"]
    return m


def result_line(correct: bool, attempted: int, failed: int, values: dict, units) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


class ProgramMissing(RuntimeError):
    pass


def import_program(root: Path):
    """The coldstart package of this checkout, never one installed elsewhere."""
    src = root / "src"
    if not (src / "coldstart" / "cli.py").is_file():
        raise ProgramMissing(f"no coldstart sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import coldstart
    from coldstart import cli, config

    if Path(coldstart.__file__).resolve().parent != (src / "coldstart").resolve():
        raise ProgramMissing(f"imported coldstart from {coldstart.__file__}, not from {src}")
    return cli, config


class Runner:
    def __init__(self, cli, config, workload, cfg_path: Path, rows, work: Path, probe):
        self.cli = cli
        self.probe = probe
        self.workload = workload
        self.cfg_path = cfg_path
        self.rows = rows
        self.work = work
        file_values = config.parse_config_file(cfg_path)
        self.cfgs = {name: config.build_config(file_values, dict(overrides))
                     for name, overrides in workload.variants}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[str, bytes] = {}
        self.n_rounds = 0

    def round(self, tracer=None) -> dict:
        """One round: the six stages of every variant, timed stage by stage
        in speed-corrected seconds."""
        rdir = self.work / f"round{self.n_rounds}"
        self.n_rounds += 1
        stage_s = dict.fromkeys(STAGES, 0.0)
        t0 = time.perf_counter()
        for name, overrides in self.workload.variants:
            args = ["--config", str(self.cfg_path), "--out", str(rdir / name)]
            args += [f"--set={k}={v}" for k, v in overrides]
            self.attempted += len(STAGES)
            for n, stage in enumerate(STAGES):
                ts = time.perf_counter()
                try:
                    rc = self.cli.main([stage] + args)
                except (Exception, SystemExit):
                    traceback.print_exc()
                    rc = 1
                stage_s[stage] += self.probe.corrected(ts, time.perf_counter())
                if rc != 0:
                    self.failed += len(STAGES) - n
                    self.problems.append(f"{name}: stage {stage} failed")
                    break
        wall_s = time.perf_counter() - t0
        recall = self._check_round(rdir, tracer)
        return {"pipeline_s": sum(stage_s.values()), "wall_s": wall_s, "cold_recall": recall,
                **{f"{s}_s": v for s, v in stage_s.items() if s not in ("ingest", "split")},
                "dir": rdir}

    def _check_round(self, rdir: Path, tracer) -> float:
        from checks import check_run, expected_finetune_steps, read_report

        recalls, steps = [], 0
        for name, cfg in self.cfgs.items():
            out = rdir / name
            report = out / "eval" / "report.txt"
            if not report.is_file():
                continue
            data = report.read_bytes()
            if self.reports.setdefault(name, data) != data:
                self.problems.append(f"{name}: report.txt differs from the first round's")
            self.problems += check_run(cfg, out, self.rows)
            recalls.append(read_report(out)[f"recall_at_{cfg.k_eval}"])
            steps += expected_finetune_steps(cfg, out)
        if tracer is not None and tracer.finetune_steps != steps:
            self.problems.append(
                f"finetune.steps {tracer.finetune_steps} != epochs x batches {steps}")
        return sum(recalls) / len(recalls) if recalls else float("nan")

    def check_ranking(self, rdir: Path) -> None:
        """Recompute Recall/NDCG with the benchmark's own sort, and compare
        cold_recall with a random ranking where the workload demands it."""
        from checks import check_extrinsic, read_report

        for name, cfg in self.cfgs.items():
            out = rdir / name
            if not (out / "eval" / "report.tsv").is_file():
                continue
            model = self.cli._rebuild_finetuned(cfg, out)
            problems, floor = check_extrinsic(cfg, out, model)
            self.problems += problems
            recall = read_report(out)[f"recall_at_{cfg.k_eval}"]
            if self.workload.beats_random and not recall > floor:
                self.problems.append(
                    f"{name}: Recall@{cfg.k_eval} {recall!r} does not beat random ranking {floor!r}")

    def report_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.reports):
            h.update(self.reports[name])
        return h.hexdigest()


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def measure(runner: Runner, seconds: float, trace: bool, spans_path: Path):
    """Rounds until `seconds` have passed; returns (metric values, last round dir)."""
    rounds = []
    t_loop = time.perf_counter()
    if not trace:
        while len(rounds) < 2 or time.perf_counter() - t_loop < seconds:
            rounds.append(runner.round())
            if len(rounds) > 1:
                shutil.rmtree(rounds[-2]["dir"], ignore_errors=True)
        values = {k: _median(rounds, k) for k in
                  ("pipeline_s", "groundtruth_s", "pretrain_s", "finetune_s", "eval_s")}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["cold_recall"] = rounds[0]["cold_recall"]
        print("round wall seconds, uncorrected: "
              + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
        return values, rounds[-1]["dir"]

    from tracing import Tracer, install, write_spans

    baseline = runner.round()
    traced, layers, tracer = [], [], None
    while not traced or time.perf_counter() - t_loop < seconds:
        shutil.rmtree((traced[-1] if traced else baseline)["dir"], ignore_errors=True)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced.append(runner.round(tracer))
        finally:
            uninstall()
        layers.append(layer_metrics(tracer))
    values = {}
    for name in layers[0]:
        if name.endswith(("_calls", "steps", "bytes")) or ".tape_ops" in name:
            values[name] = layers[0][name]
            if len({m[name] for m in layers}) != 1:
                runner.problems.append(f"{name} differs between traced rounds")
        else:
            values[name] = statistics.median(m[name] for m in layers)
    values["trace.overhead"] = _median(traced, "pipeline_s") / baseline["pipeline_s"] - 1.0
    write_spans(tracer, spans_path)
    return values, traced[-1]["dir"]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    try:
        cli, config = import_program(root)
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = root / ".perfbench"
    work = base / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = SpeedProbe()
    try:
        cfg_path, rows = workload.prepare(root, work, args.seed)
        logging.getLogger("coldstart").setLevel(logging.WARNING)
        runner = Runner(cli, config, workload, cfg_path, rows, work, probe)
        setup_s = _age_at_start() + time.perf_counter() - _T0
        spans_path = base / f"spans-{args.workload}-s{args.seed}.tsv"
        probe.start()
        try:
            values, last_dir = measure(runner, args.seconds, bool(args.trace), spans_path)
        finally:
            probe.stop()
        runner.check_ranking(last_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
    else:
        values["setup_s"] = setup_s
        units = END_TO_END
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    import numpy

    print(f"workload {args.workload} seed {args.seed}: {runner.n_rounds} rounds, "
          f"report sha256 {runner.report_digest()}")
    print(f"host: nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {numpy.__version__}; "
          f"speed kernel median {statistics.median(probe.warm) * 1e6:.1f} us "
          f"over {len(probe.warm)} samples, reference {REF_S * 1e6:.1f} us")
    for name, unit in units:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(result_line(not runner.problems, runner.attempted, runner.failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
