"""Command-line interface.

Subcommands:

    train-teacher    train a dense teacher on a synthetic task, save it
    run              execute one recipe run (teacher-initialized by default)
    sweep            run a recipe across values of one dotted field
    emit-schedule    dump per-step lr and target sparsity as CSV
    teacher-stats    softened-distribution stats of a saved teacher
    validate-recipe  parse a recipe, report its audit against the reference

Failures print a one-line JSON error record to stderr and exit nonzero, so
scripted callers can tell what went wrong without scraping tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .distillation import (
    DEFAULT_TEMPERATURES,
    TeacherHandle,
    teacher_distribution_stats,
)
from .harness import (
    SCHEDULE_COLUMNS,
    TrainingDiverged,
    emit_schedule,
    run,
    sweep,
    train_teacher,
    write_csv,
)
from .recipes import (
    RecipeError,
    audit_recipe,
    load_bundled,
    parse_recipe,
    recipe_hash,
    REFERENCE_SETTINGS,
)
from .tasks import SyntheticTask, generate_task


def _add_task_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("task")
    group.add_argument("--task-classes", type=int, default=SyntheticTask.num_classes)
    group.add_argument("--task-seq-len", type=int, default=SyntheticTask.sequence_length)
    group.add_argument("--task-vocab", type=int, default=SyntheticTask.vocab_size)
    group.add_argument("--train-size", type=int, default=SyntheticTask.train_size)
    group.add_argument("--val-size", type=int, default=SyntheticTask.val_size)
    group.add_argument("--task-seed", type=int, default=SyntheticTask.seed)


def _task_from_args(args) -> SyntheticTask:
    return SyntheticTask(
        num_classes=args.task_classes,
        sequence_length=args.task_seq_len,
        vocab_size=args.task_vocab,
        train_size=args.train_size,
        val_size=args.val_size,
        seed=args.task_seed,
    )


def _load_recipe(spec: str):
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_recipe(fh.read())
    return load_bundled(spec)


def _parse_values(text: str) -> list:
    """Comma-separated JSON scalars, e.g. '0.0,0.5,1.0' or 'true,false'."""
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            values.append(json.loads(part))
        except json.JSONDecodeError:
            values.append(part)  # bare strings are allowed
    return values


def _cmd_train_teacher(args) -> int:
    data = generate_task(_task_from_args(args))
    ckpt = train_teacher(data, epochs=args.epochs, lr=args.lr,
                         batch_size=args.batch_size, seed=args.seed)
    save_checkpoint(ckpt, args.out)
    print(json.dumps({
        "out": args.out,
        "val_accuracy": ckpt.metadata["val_accuracy"],
        "epochs": args.epochs,
        "seed": args.seed,
    }))
    return 0


def _cmd_run(args) -> int:
    recipe = _load_recipe(args.recipe)
    data = generate_task(_task_from_args(args))
    teacher = load_checkpoint(args.teacher) if args.teacher else None
    init = load_checkpoint(args.init) if args.init else None
    seed = args.seed if args.seed is not None else recipe.seeds[0]
    result = run(recipe, data, seed=seed, teacher=teacher, init=init,
                 out_dir=args.out)
    print(json.dumps(result.summary, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    recipe = _load_recipe(args.recipe)
    data = generate_task(_task_from_args(args))
    teacher = load_checkpoint(args.teacher) if args.teacher else None
    init = load_checkpoint(args.init) if args.init else None
    seeds = ([int(s) for s in args.seeds.split(",")]
             if args.seeds else list(recipe.seeds))
    values = _parse_values(args.values)
    result = sweep(recipe, args.field, values, seeds, data,
                   teacher=teacher, init=init, out_dir=args.out)
    print(json.dumps({"field": args.field, "rows": result.rows,
                      "errors": result.errors}, sort_keys=True))
    return 0


def _cmd_emit_schedule(args) -> int:
    recipe = _load_recipe(args.recipe)
    rows = emit_schedule(recipe, args.steps_per_epoch)
    write_csv(rows, SCHEDULE_COLUMNS, args.out)
    if args.out:
        print(json.dumps({"out": args.out, "rows": len(rows)}))
    return 0


def _cmd_teacher_stats(args) -> int:
    handle = TeacherHandle(load_checkpoint(args.teacher))
    data = generate_task(_task_from_args(args))
    logits = handle.logits(data.val.tokens[:args.limit])
    temperatures = ([float(t) for t in args.temperatures.split(",")]
                    if args.temperatures else list(DEFAULT_TEMPERATURES))
    rows = teacher_distribution_stats(logits, temperatures)
    write_csv(rows, ("sample_id", "temperature", "max_prob", "entropy"), args.out)
    return 0


def _cmd_validate_recipe(args) -> int:
    recipe = _load_recipe(args.recipe)
    report = {
        "name": recipe.name,
        "stage": recipe.stage,
        "valid": True,
        "hash": recipe_hash(recipe),
    }
    diffs = []
    if recipe.name in REFERENCE_SETTINGS:
        diffs = audit_recipe(recipe)
        report["audited"] = True
        report["diffs"] = [
            {"path": d.path, "expected": d.expected, "actual": d.actual}
            for d in diffs
        ]
    else:
        report["audited"] = False
    print(json.dumps(report, sort_keys=True))
    return 2 if diffs else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradprune",
        description="Gradual magnitude pruning with distillation, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="train and save a dense teacher")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    _add_task_args(p)
    p.set_defaults(func=_cmd_train_teacher)

    p = sub.add_parser("run", help="execute one recipe run")
    p.add_argument("--recipe", required=True,
                   help="bundled recipe name or path to a recipe JSON")
    p.add_argument("--teacher", help="teacher checkpoint directory")
    p.add_argument("--init", help="init checkpoint directory (mask source)")
    p.add_argument("--seed", type=int, default=None,
                   help="default: first seed listed in the recipe")
    p.add_argument("--out", help="output directory for metrics and checkpoint")
    _add_task_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep one recipe field across values")
    p.add_argument("--recipe", required=True)
    p.add_argument("--field", required=True,
                   help="dotted path, e.g. kd.hardness or sparsity.initial_step")
    p.add_argument("--values", required=True,
                   help="comma-separated JSON scalars, e.g. 0.0,0.5,1.0")
    p.add_argument("--seeds", help="comma-separated ints; default: recipe seeds")
    p.add_argument("--teacher")
    p.add_argument("--init")
    p.add_argument("--out")
    _add_task_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("emit-schedule", help="dump per-step lr and sparsity")
    p.add_argument("--recipe", required=True)
    p.add_argument("--steps-per-epoch", type=int, required=True)
    p.add_argument("--out", help="CSV path; stdout if omitted")
    p.set_defaults(func=_cmd_emit_schedule)

    p = sub.add_parser("teacher-stats", help="softened teacher distribution stats")
    p.add_argument("--teacher", required=True)
    p.add_argument("--limit", type=int, default=32)
    p.add_argument("--temperatures", help="comma-separated, default 1.0,2.0,5.5")
    p.add_argument("--out", help="CSV path; stdout if omitted")
    _add_task_args(p)
    p.set_defaults(func=_cmd_teacher_stats)

    p = sub.add_parser("validate-recipe",
                       help="parse a recipe and audit it against the reference")
    p.add_argument("--recipe", required=True)
    p.set_defaults(func=_cmd_validate_recipe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(json.dumps({"error": "training-diverged", "step": exc.step,
                          "detail": str(exc)}), file=sys.stderr)
        return 1
    except RecipeError as exc:
        print(json.dumps({"error": "invalid-recipe", "detail": str(exc)}),
              file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
