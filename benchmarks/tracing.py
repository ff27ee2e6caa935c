"""Spans around calls into gradprune, recorded from outside the package.

A ``Tracer`` keeps every span in memory as ``[name, start, end, parent,
run_id, counts]``: ``parent`` is the index of the enclosing span (or None),
``run_id`` names the unit of work the span belongs to, and ``counts`` holds
numbers measured at that boundary (rows, tape nodes, bytes, ...).

``instrument`` replaces the package's functions, at the module or class
attributes their callers resolve, with wrappers that record one span per
call, and puts the originals back on exit. Nothing inside ``src/`` changes.
``layer_metrics`` folds the spans into the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

MATMUL_KINDS = ("qkvo", "attention", "ffn_expand", "ffn_reduce", "head")
FORWARD_ROLES = ("train", "eval", "teacher")

# Every per-layer metric, with its unit, in the order they are printed.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("tasks.generate_task.s", "s"),
    ("recipes.compile_timeline.s", "s"),
    ("recipes.prune_events", "count"),
    ("recipes.eval_steps", "count"),
    ("tensor.backward.calls", "count"),
    ("tensor.backward.s", "s"),
    ("tensor.tape_nodes", "nodes"),
    ("tensor.embedding.s", "s"),
    ("tensor.layer_norm.s", "s"),
    ("tensor.softmax.s", "s"),
    ("tensor.gelu.s", "s"),
    *((f"tensor.matmul.{kind}.s", "s") for kind in MATMUL_KINDS),
    *(
        (f"models.forward.{role}.{field}", unit)
        for role in FORWARD_ROLES
        for field, unit in (("calls", "count"), ("rows", "rows"), ("s", "s"))
    ),
    ("models.forward.self_s", "s"),
    ("models.evaluate.calls", "count"),
    ("models.evaluate.s", "s"),
    ("models.eval_rows_per_train_row", "ratio"),
    ("models.train_teacher.s", "s"),
    ("models.train_teacher.self_s", "s"),
    ("optim.step.calls", "count"),
    ("optim.step.s", "s"),
    ("distillation.teacher_logits.calls", "count"),
    ("distillation.teacher_logits.s", "s"),
    ("distillation.teacher_cache_hit_ratio", "ratio"),
    ("distillation.kd_loss_terms.s", "s"),
    ("pruning.magnitude_prune.calls", "count"),
    ("pruning.magnitude_prune.s", "s"),
    ("pruning.apply_masks.s", "s"),
    ("pruning.zero_masked_grads.s", "s"),
    ("pruning.masks_subset_of.s", "s"),
    ("checkpoint.save.s", "s"),
    ("checkpoint.save.bytes", "B"),
    ("checkpoint.load.s", "s"),
    ("harness.run.s", "s"),
    ("harness.run.self_s", "s"),
    ("harness.trace_overhead", "ratio"),
)


class Tracer:
    """An in-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, 0.0, 0.0, parent, self.run_id, None])
        self._open.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        if self._open.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]!r} closed out of order")

    def open_names(self):
        """Names of the open spans, innermost first."""
        return (self.spans[sid][0] for sid in reversed(self._open))


def traced(tracer: Tracer | None, fn, name, counts=None):
    """``fn`` wrapped to record a span per call; ``fn`` itself when untraced.

    ``name`` is a string or a function of the call's positional arguments;
    ``counts`` maps (args, result) to a dict of numbers kept on the span.
    """
    if tracer is None:
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name if isinstance(name, str) else name(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if counts is not None:
            tracer.spans[sid][5] = counts(args, out)
        return out

    return wrapper


def classify_matmul(a_shape, b_shape, hidden_dim: int, ffn_dim: int) -> str:
    """Which encoder matmul an operand pair belongs to, from shapes alone.

    Attention products are batched (4-D); the projections multiply a 2-D
    activation by a weight whose shape names the layer.
    """
    if len(a_shape) > 2 or len(b_shape) > 2:
        return "attention"
    b_shape = tuple(b_shape)
    if b_shape == (hidden_dim, hidden_dim):
        return "qkvo"
    if b_shape == (hidden_dim, ffn_dim):
        return "ffn_expand"
    if b_shape == (ffn_dim, hidden_dim):
        return "ffn_reduce"
    if b_shape[0] == hidden_dim:
        return "head"
    raise ValueError(f"unrecognized matmul operands {tuple(a_shape)} @ {b_shape}")


def saved_bytes(args, _result) -> dict:
    """Span counts for ``save_checkpoint(ckpt, directory)``: bytes written."""
    return {"bytes": sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(args[1])
        for f in files
    )}


@contextlib.contextmanager
def instrument(tracer: Tracer, hidden_dim: int, ffn_dim: int):
    """Record spans around the package's layer boundaries while active."""
    from gradprune import distillation, harness, models, optim, tensor

    def forward_role(args) -> str:
        for name in tracer.open_names():
            if name == "models.evaluate":
                return "models.forward.eval"
            if name == "distillation.teacher_logits":
                return "models.forward.teacher"
        return "models.forward.train"

    def matmul_kind(args) -> str:
        kind = classify_matmul(args[0].shape, args[1].shape, hidden_dim, ffn_dim)
        return "tensor.matmul." + kind

    points = [
        (harness, "compile_timeline", "recipes.compile_timeline",
         lambda a, t: {"prune_events": len(t.prune_events),
                       "eval_steps": len(t.eval_steps)}),
        (tensor.Tape, "backward", "tensor.backward",
         lambda a, _: {"tape_nodes": len(a[0])}),
        (models, "embedding", "tensor.embedding", None),
        (models, "layer_norm", "tensor.layer_norm", None),
        (models, "softmax", "tensor.softmax", None),
        (models, "gelu", "tensor.gelu", None),
        (models, "matmul", matmul_kind, None),
        (models.TinyEncoder, "forward", forward_role,
         lambda a, _: {"rows": len(a[1])}),
        (models, "evaluate", "models.evaluate", None),
        (harness, "evaluate", "models.evaluate", None),
        (optim.Adam, "step", "optim.step", None),
        (distillation.TeacherHandle, "logits", "distillation.teacher_logits", None),
        (harness, "kd_loss_terms", "distillation.kd_loss_terms", None),
        (harness, "magnitude_prune", "pruning.magnitude_prune", None),
        (harness, "apply_masks", "pruning.apply_masks", None),
        (harness, "zero_masked_grads", "pruning.zero_masked_grads", None),
        (harness, "masks_subset_of", "pruning.masks_subset_of", None),
        (harness, "save_checkpoint", "checkpoint.save", saved_bytes),
    ]
    originals = []
    try:
        for owner, attr, name, counts in points:
            fn = vars(owner)[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, traced(tracer, fn, name, counts))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[sid]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, trace_overhead: float) -> dict[str, float]:
    """The per-layer table (every name in LAYER_METRICS) from a span list."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        for key, value in (span[5] or {}).items():
            counts[name, key] += value

    teacher_misses = sum(
        1 for span in spans
        if span[0] == "models.forward.teacher" and span[3] is not None
        and spans[span[3]][0] == "distillation.teacher_logits"
    )
    lookups = calls["distillation.teacher_logits"]
    train_rows = counts["models.forward.train", "rows"]
    backward_calls = calls["tensor.backward"]

    m: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "s":
            m[name] = total[base]
        elif field == "self_s":
            m[name] = own[base]
        elif field == "calls":
            m[name] = calls[base]
        elif field in ("rows", "bytes"):
            m[name] = counts[base, field]
    m["recipes.prune_events"] = counts["recipes.compile_timeline", "prune_events"]
    m["recipes.eval_steps"] = counts["recipes.compile_timeline", "eval_steps"]
    m["tensor.tape_nodes"] = (
        counts["tensor.backward", "tape_nodes"] / backward_calls if backward_calls else 0.0
    )
    m["models.forward.self_s"] = sum(own[f"models.forward.{r}"] for r in FORWARD_ROLES)
    m["models.eval_rows_per_train_row"] = (
        counts["models.forward.eval", "rows"] / train_rows if train_rows else 0.0
    )
    m["distillation.teacher_cache_hit_ratio"] = (
        (lookups - teacher_misses) / lookups if lookups else 0.0
    )
    m["harness.trace_overhead"] = trace_overhead
    return {name: m[name] for name, _ in LAYER_METRICS}
