"""Training harness: single runs, field sweeps, and schedule dumps.

A run takes a recipe, a task, a seed, and (usually) a teacher checkpoint,
and executes the full loop: forward on a tape, distillation loss, backward,
masked Adam step, mask re-application, prune events from the compiled
timeline, and evaluation at epoch ends and prune events. Runs are
deterministic: the same inputs produce byte-identical metrics and
checkpoints.

Output directories get a ``.incomplete`` sentinel file on entry that is
removed only when the run finishes, so an aborted run is recognizable by
its leftovers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .distillation import TeacherHandle, kd_loss_terms
from .models import (
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
from .tasks import TaskData, iterate_batches, steps_per_epoch
from .tensor import Tape

SENTINEL = ".incomplete"

METRICS_COLUMNS = (
    "step", "epoch", "lr", "target_sparsity", "achieved_sparsity",
    "train_loss", "ce_term", "kl_term", "val_accuracy",
)


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


def _write_metrics_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in METRICS_COLUMNS) + "\n")


def _place_sentinel(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SENTINEL)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run in progress or aborted\n")
    return path


def run(
    recipe: Recipe,
    data: TaskData,
    *,
    seed: int,
    teacher: Checkpoint | None = None,
    init: Checkpoint | None = None,
    model_config: TinyEncoderConfig | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Execute one training run of a recipe on a task.

    Student initialization, in order of precedence: ``init`` checkpoint
    (which also supplies fixed masks, as in the upstream-finetune stage),
    else the teacher's weights (the desk-scale stand-in for starting from a
    pretrained model), else fresh random parameters seeded by ``seed``.
    """
    sentinel = _place_sentinel(out_dir) if out_dir is not None else None

    n_train = data.train.tokens.shape[0]
    spe = steps_per_epoch(n_train, recipe.batch_size)
    if spe < 1:
        raise ValueError(
            f"batch_size {recipe.batch_size} exceeds training set size {n_train}"
        )
    timeline = compile_timeline(recipe, spe)

    if recipe.stage == "upstream-finetune" and init is None:
        raise ValueError(
            "upstream-finetune runs need an init checkpoint (the mask source)"
        )
    if init is not None:
        student = encoder_from_checkpoint(init, requires_grad=True)
        source_masks = init.masks or {}
    elif teacher is not None:
        student = encoder_from_checkpoint(teacher, requires_grad=True)
        source_masks = {}
    else:
        if model_config is None:
            model_config = TinyEncoderConfig(num_classes=data.task.num_classes)
        student = TinyEncoder.build(replace(model_config, seed=seed))
        source_masks = {}
    if student.config.num_classes != data.task.num_classes:
        raise ValueError(
            f"model num_classes {student.config.num_classes} does not match "
            f"task num_classes {data.task.num_classes}"
        )

    prunable = {
        name: student.params[name]
        for name in prunable_parameter_names(student.parameter_names())
    }
    masks = fresh_masks({n: p.data for n, p in prunable.items()})
    for name, mask in source_masks.items():
        if name not in masks:
            raise ValueError(f"init checkpoint masks a non-prunable tensor {name!r}")
        masks[name] = mask.copy()
    policy = recipe.sparsity.policy if recipe.sparsity is not None else "uniform"

    needs_teacher = recipe.kd.hardness > 0.0
    if needs_teacher and teacher is None:
        raise ValueError("recipe has kd.hardness > 0 but no teacher was given")
    handle = TeacherHandle(teacher) if needs_teacher else None

    opt = Adam(student.params, weight_decay=recipe.weight_decay)
    rng = np.random.Generator(np.random.PCG64(seed))
    events = dict(timeline.prune_events)
    eval_at = set(timeline.eval_steps)

    apply_masks(prunable, masks)
    weight_views = {n: p.data for n, p in prunable.items()}
    rows: list[dict] = []
    current_target = 0.0
    step = 0
    for _ in range(recipe.total_epochs):
        for idx in iterate_batches(rng, n_train, recipe.batch_size):
            tokens = data.train.tokens[idx]
            labels = data.train.labels[idx]
            teacher_logits = handle.logits(tokens) if handle is not None else None
            with Tape() as tape:
                logits = student.forward(tokens)
                if not np.all(np.isfinite(logits.data)):
                    raise TrainingDiverged(step)
                loss, ce_term, kl_term = kd_loss_terms(
                    logits, teacher_logits, labels, recipe.kd
                )
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingDiverged(step)
            tape.backward(loss)
            zero_masked_grads(prunable, masks)
            opt.step(float(timeline.lr[step]))
            apply_masks(prunable, masks)

            if step in events:
                target = events[step]
                if target < current_target:
                    raise RuntimeError(
                        f"prune target regressed at step {step}: "
                        f"{target} after {current_target}"
                    )
                new_masks = magnitude_prune(weight_views, masks, target, policy)
                if not masks_subset_of(masks, new_masks):
                    raise RuntimeError(f"mask shrank at step {step}")
                masks = new_masks
                apply_masks(prunable, masks)
                current_target = target

            if step in eval_at:
                rows.append({
                    "step": step,
                    "epoch": (step + 1) / spe,
                    "lr": float(timeline.lr[step]),
                    "target_sparsity": current_target,
                    "achieved_sparsity": mask_sparsity(masks),
                    "train_loss": loss_value,
                    "ce_term": ce_term,
                    "kl_term": kl_term,
                    "val_accuracy": evaluate(student, data.val.tokens, data.val.labels),
                })
            step += 1

    accs = [r["val_accuracy"] for r in rows]
    summary = {
        "recipe": recipe.name,
        "recipe_hash": recipe_hash(recipe),
        "stage": recipe.stage,
        "seed": seed,
        "steps_per_epoch": spe,
        "total_steps": timeline.total_steps,
        "num_prune_events": len(timeline.prune_events),
        "final_val_accuracy": accs[-1],
        "best_val_accuracy": max(accs),
        "final_target_sparsity": current_target,
        "achieved_sparsity": mask_sparsity(masks),
        "kd_hardness": recipe.kd.hardness,
        "kd_temperature": recipe.kd.temperature,
        "kd_scale_by_t_squared": recipe.kd.scale_kl_by_t_squared,
    }
    has_any_mask = any(not m.all() for m in masks.values())
    ckpt = student.to_checkpoint(
        masks=masks if has_any_mask else None,
        metadata={"role": "student", **summary},
    )
    result = RunResult(recipe=recipe, seed=seed, rows=rows, summary=summary,
                       checkpoint=ckpt)

    if out_dir is not None:
        _write_metrics_csv(rows, os.path.join(out_dir, "metrics.csv"))
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint"))
        os.remove(sentinel)
    return result


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
        table = os.path.join(out_dir, "table.csv")
        with open(table, "w", encoding="utf-8", newline="") as fh:
            fh.write("value,mean_accuracy,std_accuracy,num_ok,num_seeds\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in
                                  ("value", "mean_accuracy", "std_accuracy",
                                   "num_ok", "num_seeds")) + "\n")
        if errors:
            with open(os.path.join(out_dir, "errors.json"), "w", encoding="utf-8") as fh:
                json.dump(errors, fh, sort_keys=True, indent=2)
                fh.write("\n")
        os.remove(sentinel)
    return result


def emit_schedule(recipe: Recipe, steps_per_epoch: int) -> list[dict]:
    """Per-step (step, lr, target_sparsity) rows for plotting or inspection."""
    timeline = compile_timeline(recipe, steps_per_epoch)
    events = dict(timeline.prune_events)
    rows = []
    target = 0.0
    for step in range(timeline.total_steps):
        if step in events:
            target = events[step]
        rows.append({
            "step": step,
            "lr": float(timeline.lr[step]),
            "target_sparsity": target,
        })
    return rows


def write_schedule_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,lr,target_sparsity\n")
        for row in rows:
            fh.write(f"{row['step']},{_fmt(row['lr'])},{_fmt(row['target_sparsity'])}\n")
