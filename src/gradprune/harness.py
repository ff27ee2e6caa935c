"""Training harness: the training step, teacher training, single runs,
field sweeps, and schedule dumps.

Every model trains through one step: forward on a tape, distillation loss,
backward, masked Adam step, mask re-application. A dense teacher is the
case with hardness 0, no masks and a constant learning rate. A run takes a
recipe, a task, a seed, and (usually) a teacher checkpoint, and follows
the compiled timeline step by step: its prune events, and evaluation at
epoch ends and prune events. Runs are deterministic: the same inputs
produce byte-identical metrics and checkpoints.

A run does not wait for its evaluations. Each goes to the evaluation pool
(``models.Evaluations``, one worker per CPU) as a copy of the student's
parameters while training goes on, and the accuracies are filled into the
metrics rows in step order after the loop. Nothing in training reads them,
and ``evaluate`` draws no randomness, so the bytes are those of evaluating
in line, which is what one CPU does. A worker's error is raised when the
run collects that evaluation, at the latest after the loop; a run that
stops early cancels the evaluations no worker has started.

Output directories get a ``.incomplete`` sentinel file on entry that is
removed only when the run finishes, so an aborted run is recognizable by
its leftovers.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .checkpoint import Checkpoint, _dump_json, save_checkpoint
from .distillation import KDConfig, TeacherHandle, kd_loss_terms
from .models import (
    Evaluations,
    TinyEncoder,
    TinyEncoderConfig,
    encoder_from_checkpoint,
    evaluate,
    prunable_parameter_names,
)
from .optim import Adam
from .pruning import (
    apply_masks,
    fresh_masks,
    magnitude_prune,
    mask_sparsity,
    masks_subset_of,
    zero_masked_grads,
)
from .recipes import Recipe, compile_timeline, override_field, recipe_hash
from .tasks import Split, TaskData, iterate_batches, steps_per_epoch
from .tensor import Tape

SENTINEL = ".incomplete"

METRICS_COLUMNS = (
    "step", "epoch", "lr", "target_sparsity", "achieved_sparsity",
    "train_loss", "ce_term", "kl_term", "val_accuracy",
)
TABLE_COLUMNS = ("value", "mean_accuracy", "std_accuracy", "num_ok", "num_seeds")
SCHEDULE_COLUMNS = ("step", "lr", "target_sparsity")

# The teacher's loss: hardness 0 is plain cross-entropy on the labels.
TEACHER_KD = KDConfig(hardness=0.0)


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; the step is recorded on the exception."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}: non-finite loss")
        self.step = step


@dataclass
class RunResult:
    recipe: Recipe
    seed: int
    rows: list[dict]
    summary: dict
    checkpoint: Checkpoint


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(rows: list[dict], columns: tuple[str, ...],
              path: str | None = None) -> None:
    """Rows under a header line, floats at full precision; stdout when
    ``path`` is None."""
    lines = [columns] + [[_fmt(row[c]) for c in columns] for row in rows]
    text = "".join(",".join(line) + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _place_sentinel(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SENTINEL)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run in progress or aborted\n")
    return path


def _check_classes(config: TinyEncoderConfig, data: TaskData) -> None:
    if config.num_classes != data.task.num_classes:
        raise ValueError(
            f"model num_classes {config.num_classes} does not match "
            f"task num_classes {data.task.num_classes}"
        )


def _batches(rng: np.random.Generator, n: int, batch_size: int, epochs: int):
    """(step, row indices) over every epoch's reshuffled full batches."""
    return enumerate(chain.from_iterable(
        iterate_batches(rng, n, batch_size) for _ in range(epochs)))


def _train_step(model: TinyEncoder, opt: Adam, split: Split, idx: np.ndarray,
                teacher_logits: np.ndarray | None, kd: KDConfig, lr: float,
                step: int, params: dict, masks: dict) -> tuple[float, float, float]:
    """One optimizer step on the batch ``idx``: the loss and its (ce, kl) terms.

    ``teacher_logits`` holds the teacher's logits of every row of ``split``
    (None without distillation). Masked entries get no gradient and are
    zeroed again after the update, so pruned weights stay exactly 0.0.
    Non-finite logits or a non-finite loss raise TrainingDiverged before any
    parameter changes.
    """
    targets = teacher_logits[idx] if teacher_logits is not None else None
    with Tape() as tape:
        logits = model.forward(split.tokens[idx])
        if not np.all(np.isfinite(logits.data)):
            raise TrainingDiverged(step)
        loss, ce_term, kl_term = kd_loss_terms(logits, targets, split.labels[idx], kd)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingDiverged(step)
    tape.backward(loss)
    zero_masked_grads(params, masks)
    opt.step(lr)
    apply_masks(params, masks)
    return loss_value, ce_term, kl_term


def train_teacher(data: TaskData, config: TinyEncoderConfig | None = None, *,
                  epochs: int = 5, lr: float = 1e-3, batch_size: int = 32,
                  seed: int = 0) -> Checkpoint:
    """Train a dense teacher with plain cross-entropy and a constant lr.

    Returns a checkpoint whose metadata records the final validation
    accuracy. Divergence (non-finite logits or loss) raises TrainingDiverged
    immediately rather than letting garbage propagate into downstream runs.
    """
    if config is None:
        config = TinyEncoderConfig(num_classes=data.task.num_classes, seed=seed)
    _check_classes(config, data)
    n_train = data.train.tokens.shape[0]
    spe = steps_per_epoch(n_train, batch_size)
    model = TinyEncoder.build(config)
    opt = Adam(model.params, weight_decay=0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    for step, idx in _batches(rng, n_train, batch_size, epochs):
        _train_step(model, opt, data.train, idx, None, TEACHER_KD, lr, step, {}, {})
    return model.to_checkpoint(metadata={
        "role": "teacher",
        "epochs": epochs,
        "lr": lr,
        "batch_size": batch_size,
        "seed": seed,
        "steps": epochs * spe,
        "val_accuracy": evaluate(model, data.val.tokens, data.val.labels),
    })


def _init_student(recipe: Recipe, data: TaskData, seed: int,
                  teacher: Checkpoint | None, init: Checkpoint | None):
    """The student, its prunable tensors, and their starting masks (the init
    checkpoint's, else all ones), already applied."""
    if recipe.stage == "upstream-finetune" and init is None:
        raise ValueError(
            "upstream-finetune runs need an init checkpoint (the mask source)"
        )
    if init is not None:
        source = init.metadata.get("recipe")
        if recipe.mask_source is not None and source != recipe.mask_source:
            raise ValueError(
                f"recipe mask_source {recipe.mask_source!r} does not match the "
                f"init checkpoint's recipe {source!r}"
            )
        student = encoder_from_checkpoint(init, requires_grad=True)
    elif teacher is not None:
        student = encoder_from_checkpoint(teacher, requires_grad=True)
    else:
        student = TinyEncoder.build(
            TinyEncoderConfig(num_classes=data.task.num_classes, seed=seed))
    _check_classes(student.config, data)

    prunable = {
        name: student.params[name]
        for name in prunable_parameter_names(student.params)
    }
    masks = fresh_masks({n: p.data for n, p in prunable.items()})
    if init is not None:
        for name, mask in (init.masks or {}).items():
            if name not in masks:
                raise ValueError(f"init checkpoint masks a non-prunable tensor {name!r}")
            masks[name] = mask.copy()
    apply_masks(prunable, masks)
    return student, prunable, masks


def _prune_event(step: int, target: float, params: dict, masks: dict,
                 policy: str) -> dict:
    """Prune ``params`` to ``target`` at ``step`` and return the new masks;
    a mask that shrank raises. (``compile_timeline`` checks that targets
    never decrease.)"""
    weights = {n: p.data for n, p in params.items()}
    new_masks = magnitude_prune(weights, masks, target, policy)
    if not masks_subset_of(masks, new_masks):
        raise RuntimeError(f"mask shrank at step {step}")
    apply_masks(params, new_masks)
    return new_masks


def _summary(recipe: Recipe, seed: int, spe: int, timeline, rows: list[dict],
             masks: dict) -> dict:
    accs = [r["val_accuracy"] for r in rows]
    return {
        "recipe": recipe.name,
        "recipe_hash": recipe_hash(recipe),
        "stage": recipe.stage,
        "seed": seed,
        "steps_per_epoch": spe,
        "total_steps": timeline.total_steps,
        "num_prune_events": len(timeline.prune_events),
        "final_val_accuracy": accs[-1],
        "best_val_accuracy": max(accs),
        "final_target_sparsity": float(timeline.target[-1]),
        "achieved_sparsity": mask_sparsity(masks),
        "kd_hardness": recipe.kd.hardness,
        "kd_temperature": recipe.kd.temperature,
        "kd_scale_by_t_squared": recipe.kd.scale_kl_by_t_squared,
    }


def _persist(out_dir: str, rows: list[dict], summary: dict, ckpt: Checkpoint) -> None:
    write_csv(rows, METRICS_COLUMNS, os.path.join(out_dir, "metrics.csv"))
    _dump_json(summary, os.path.join(out_dir, "summary.json"))
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint"))
    os.remove(os.path.join(out_dir, SENTINEL))


def run(
    recipe: Recipe,
    data: TaskData,
    *,
    seed: int,
    teacher: Checkpoint | None = None,
    init: Checkpoint | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Execute one training run of a recipe on a task.

    Student initialization, in order of precedence: ``init`` checkpoint
    (which also supplies fixed masks, as in the upstream-finetune stage, and
    must come from the recipe's ``mask_source`` when it names one), else the
    teacher's weights (the desk-scale stand-in for starting from a
    pretrained model), else fresh random parameters of the default
    architecture, seeded by ``seed``.
    """
    if out_dir is not None:
        _place_sentinel(out_dir)
    n_train = data.train.tokens.shape[0]
    spe = steps_per_epoch(n_train, recipe.batch_size)
    timeline = compile_timeline(recipe, spe)
    student, prunable, masks = _init_student(recipe, data, seed, teacher, init)
    if recipe.kd.hardness > 0.0 and teacher is None:
        raise ValueError("recipe has kd.hardness > 0 but no teacher was given")
    # The teacher runs once, over the whole training split; each step takes
    # its batch's rows of the table, bitwise what a forward of the batch
    # alone gives.
    teacher_logits = (TeacherHandle(teacher).logits(data.train.tokens)
                      if recipe.kd.hardness > 0.0 else None)
    policy = recipe.sparsity.policy if recipe.sparsity is not None else "uniform"
    opt = Adam(student.params, weight_decay=recipe.weight_decay)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows: list[dict] = []
    evaluations = Evaluations(data.val.tokens, data.val.labels)
    try:
        for step, idx in _batches(rng, n_train, recipe.batch_size, recipe.total_epochs):
            lr = float(timeline.lr[step])
            target = float(timeline.target[step])
            loss, ce_term, kl_term = _train_step(student, opt, data.train, idx,
                                                 teacher_logits, recipe.kd, lr, step,
                                                 prunable, masks)
            if timeline.prune[step]:
                masks = _prune_event(step, target, prunable, masks, policy)
            if timeline.evaluate[step]:
                evaluations.submit(student)
                rows.append({
                    "step": step,
                    "epoch": (step + 1) / spe,
                    "lr": lr,
                    "target_sparsity": target,
                    "achieved_sparsity": mask_sparsity(masks),
                    "train_loss": loss,
                    "ce_term": ce_term,
                    "kl_term": kl_term,
                    "val_accuracy": None,
                })
        for row, accuracy in zip(rows, evaluations.accuracies()):
            row["val_accuracy"] = accuracy
    finally:
        evaluations.cancel()

    summary = _summary(recipe, seed, spe, timeline, rows, masks)
    has_any_mask = any(not m.all() for m in masks.values())
    ckpt = student.to_checkpoint(masks=masks if has_any_mask else None,
                                 metadata={"role": "student", **summary})
    if out_dir is not None:
        _persist(out_dir, rows, summary, ckpt)
    return RunResult(recipe=recipe, seed=seed, rows=rows, summary=summary,
                     checkpoint=ckpt)


@dataclass
class SweepResult:
    field: str
    rows: list[dict]                 # one per value: mean/std over seeds
    runs: dict[str, RunResult]       # "<value>/<seed>" -> result (ok runs only)
    errors: dict[str, str]           # "<value>/<seed>" -> error message


def sweep(
    recipe: Recipe,
    field: str,
    values,
    seeds,
    data: TaskData,
    *,
    teacher: Checkpoint | None = None,
    init: Checkpoint | None = None,
    out_dir: str | None = None,
) -> SweepResult:
    """Run the recipe once per (value, seed), overriding one dotted field.

    A diverged child run is recorded and skipped in the aggregate; it does
    not take down the rest of the sweep. Any other error propagates. The
    summary table has one row per value: mean and population std of final
    validation accuracy over the seeds that finished.
    """
    seeds = list(seeds)
    sentinel = _place_sentinel(out_dir) if out_dir is not None else None
    rows = []
    runs: dict[str, RunResult] = {}
    errors: dict[str, str] = {}
    for value in values:
        variant = override_field(recipe, field, value)
        accs = []
        for seed in seeds:
            key = f"{value}/{seed}"
            child_dir = None
            if out_dir is not None:
                child_dir = os.path.join(out_dir, f"value={value}", f"seed={seed}")
            try:
                result = run(variant, data, seed=seed, teacher=teacher, init=init,
                             out_dir=child_dir)
            except TrainingDiverged as exc:
                errors[key] = str(exc)
                continue
            runs[key] = result
            accs.append(result.summary["final_val_accuracy"])
        rows.append({
            "value": value,
            "mean_accuracy": float(np.mean(accs)) if accs else float("nan"),
            "std_accuracy": float(np.std(accs)) if accs else float("nan"),
            "num_ok": len(accs),
            "num_seeds": len(seeds),
        })
    result = SweepResult(field=field, rows=rows, runs=runs, errors=errors)
    if out_dir is not None:
        write_csv(rows, TABLE_COLUMNS, os.path.join(out_dir, "table.csv"))
        _dump_json(errors, os.path.join(out_dir, "errors.json"))
        os.remove(sentinel)
    return result


def emit_schedule(recipe: Recipe, steps_per_epoch: int) -> list[dict]:
    """Per-step (step, lr, target_sparsity) rows for plotting or inspection."""
    timeline = compile_timeline(recipe, steps_per_epoch)
    return [{"step": step, "lr": float(lr), "target_sparsity": float(target)}
            for step, (lr, target) in enumerate(zip(timeline.lr, timeline.target))]
