"""Span tracing of the coldstart layers, installed from outside the program.

`install` swaps each traced function for a wrapper at every place a coldstart
module binds it (modules import functions by name, so `finetune.sample_dynamic`
and `pretraining.sample_dynamic` are separate bindings of one function), and
returns a callable that puts the originals back.

Layer calls become spans (name, start, end, parent), kept in memory and written
out by `write_spans`. A span's self time is its duration minus the time its
child spans cover. Autodiff ops run millions of times, so they are aggregated
per op name instead: a call count and a self time (duration minus nested op
calls), plus the per-name count of ops recorded on a tape.
"""

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# primitive autodiff ops, each recorded on the tape under this name
OPS = ("add", "sub", "mul", "div", "add_scalar", "mul_scalar", "smul", "add_n",
       "matmul", "transpose", "concat", "stack_rows", "embed_lookup", "row",
       "mean", "sum", "sigmoid", "log", "exp", "powf", "softmax", "layer_norm")
OP_FUNCS = {"sum": "sum_"}  # op name -> function name where they differ

# (module, function, span name); the span name is also the metric prefix
SPANS = (
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "optimizer_step", "autodiff.optimizer_step"),
    ("encoders", "transformer_forward", "encoders.transformer_forward"),
    ("encoders", "gnn_forward", "encoders.gnn_forward"),
    ("encoders", "compute_meta_table", "encoders.meta_table"),
    ("sampling", "sample_dynamic", "sampling.dynamic"),
    ("sampling", "sample_random", "sampling.random"),
    ("paths", "generate_positioned_paths", "paths.positioned"),
    ("paths", "augment_subgraph", "paths.augment"),
    ("paths", "augment_path", "paths.augment"),
    ("pretraining", "train_ground_truth", "pretraining.ground_truth"),
    ("pretraining", "train_task", "pretraining.task"),
    ("finetune", "finetune", "finetune.finetune"),
    ("finetune", "build_plan", "finetune.build_plan"),
    ("finetune", "encode_node", "finetune.encode_node"),
    ("evaluate", "eval_extrinsic", "evaluate.extrinsic"),
    ("evaluate", "eval_intrinsic_side", "evaluate.intrinsic"),
    ("evaluate", "train_intrinsic_fusion", "evaluate.intrinsic_fusion"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("data", "load_interactions", "data.load_interactions"),
    ("data", "build_graph", "data.build_graph"),
    ("cli", "cmd_ingest", "cli.ingest"),
    ("cli", "cmd_split", "cli.split"),
    ("cli", "cmd_groundtruth", "cli.groundtruth"),
    ("cli", "cmd_pretrain", "cli.pretrain"),
    ("cli", "cmd_finetune", "cli.finetune"),
    ("cli", "cmd_eval", "cli.eval"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []  # (span index, [child seconds])
        self._open_names = Counter()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._op_child = [0.0]
        self.op_calls = Counter()
        self.op_self_s = defaultdict(float)
        self.tape_ops = Counter()
        self.untaped_transformer_calls = 0
        self.finetune_steps = 0
        self.checkpoint_bytes = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append((len(self.spans) - 1, [0.0]))
        self._open_names[name] += 1

    def _exit(self, name):
        idx, child = self._open.pop()
        self._open_names[name] -= 1
        span = self.spans[idx]
        span[2] = end = perf_counter()
        dur = end - span[1]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child[0]
        if self._open:
            self._open[-1][1][0] += dur

    def inside(self, name) -> bool:
        return self._open_names[name] > 0

    def span_wrapper(self, name, fn, on_call=None, name_of=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            n = name_of(args) if name_of else name
            if on_call:
                on_call(args, kwargs)
            self._enter(n)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(n)
        return wrapped

    # -- autodiff ops ----------------------------------------------------------

    def op_wrapper(self, name, fn):
        child = self._op_child

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                nested = child.pop()
                child[-1] += dur
                self.op_calls[name] += 1
                self.op_self_s[name] += dur - nested
        return wrapped

    def record_wrapper(self, fn):
        tape_ops = self.tape_ops

        @functools.wraps(fn)
        def wrapped(tape, op, *args):
            tape_ops[op] += 1
            return fn(tape, op, *args)
        return wrapped


def _rebind(original, replacement, undo):
    """Point every coldstart module binding of original at replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "coldstart" or mod_name.startswith("coldstart.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def install(tracer: Tracer):
    """Wrap the traced layers; returns a callable that removes the wrappers."""
    import importlib

    undo = []
    mod = {m: importlib.import_module(f"coldstart.{m}")
           for m in ("autodiff", "encoders", "sampling", "paths", "pretraining",
                     "finetune", "evaluate", "checkpoint", "data", "cli")}
    for op in OPS:
        fn = getattr(mod["autodiff"], OP_FUNCS.get(op, op))
        _rebind(fn, tracer.op_wrapper(op, fn), undo)

    def on_transformer(args, kwargs):
        if args[0] is None:
            tracer.untaped_transformer_calls += 1

    def on_backward(args, kwargs):
        if tracer.inside("finetune.finetune"):
            tracer.finetune_steps += 1

    hooks = {"encoders.transformer_forward": on_transformer,
             "autodiff.backward": on_backward}
    for m, fname, name in SPANS:
        fn = getattr(mod[m], fname)
        name_of = (lambda args: f"pretraining.task.{args[0]}") if name == "pretraining.task" else None
        wrapped = tracer.span_wrapper(name, fn, hooks.get(name), name_of)
        if name == "checkpoint.save":
            wrapped = _counting_bytes(tracer, wrapped)
        _rebind(fn, wrapped, undo)

    tape_cls = mod["autodiff"].Tape
    original_record = tape_cls.record
    tape_cls.record = tracer.record_wrapper(original_record)
    undo.append((tape_cls, "record", original_record))

    def uninstall():
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
    return uninstall


def _counting_bytes(tracer, save):
    @functools.wraps(save)
    def wrapped(path, ckpt):
        save(path, ckpt)
        tracer.checkpoint_bytes += os.path.getsize(path)
    return wrapped


def write_spans(tracer: Tracer, path) -> None:
    """Spans as TSV: index, parent, name, start and end in seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
