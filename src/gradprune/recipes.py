"""Training recipes: JSON in, validated dataclasses and step timelines out.

A recipe file pins every knob of a run: stage, epochs, batch size, learning
rate schedule, sparsity schedule (or null for dense), distillation settings,
and weight decay. The dataclasses ``Recipe``, ``LRSpec``, ``SparsitySpec``
and ``distillation.KDConfig`` are the format's schema: ``parse_recipe`` takes
each object's exact key set and each value's type from their fields and
annotations, then ``_check_rules`` applies every enum, range and cross-field
rule. Each error names its JSON path, and a bad recipe fails before any
training starts.

``compile_timeline`` turns a recipe plus a steps-per-epoch figure into the
concrete per-step plan (lr value for every step, prune events with targets,
eval points). ``audit_recipe`` compares a recipe against the reference
settings table embedded here, field by field; the bundled recipe files must
audit clean, which guards them against silent edits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .checkpoint import _value, canonical_json
from .distillation import KDConfig
from .pruning import POLICIES
from .schedules import cyclic_lr, event_targets, linear_decay, prune_event_steps

STAGES = ("downstream", "upstream", "upstream-finetune")
LR_KINDS = ("cyclic", "linear")


class RecipeError(ValueError):
    """A recipe failed validation; the message names the offending path."""


@dataclass(frozen=True)
class LRSpec:
    kind: str
    initial: float
    final: float | None = None
    cycle_length_epochs: float | None = None


@dataclass(frozen=True)
class SparsitySpec:
    initial_step: float
    final: float
    head_freeze_epochs: int
    tail_freeze_epochs: int
    prune_frequency_per_epoch: int
    policy: str


@dataclass(frozen=True)
class Recipe:
    name: str
    stage: str
    total_epochs: int
    batch_size: int
    weight_decay: float
    seeds: tuple[int, ...]
    lr: LRSpec
    sparsity: SparsitySpec | None
    kd: KDConfig
    mask_source: str | None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["seeds"] = list(self.seeds)
        out["lr"] = {k: v for k, v in out["lr"].items() if v is not None}
        return out


def _fail(path: str, message: str):
    raise RecipeError(f"{path}: {message}")


def _at_least(path: str, value: int, minimum: int) -> None:
    if value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")


def _check_rules(recipe: Recipe) -> None:
    """Every enum, range and cross-field rule of a well-typed recipe."""
    stage, total_epochs = recipe.stage, recipe.total_epochs
    if stage not in STAGES:
        _fail("recipe.stage", f"unknown stage {stage!r}, expected one of {STAGES}")
    _at_least("recipe.total_epochs", total_epochs, 1)
    _at_least("recipe.batch_size", recipe.batch_size, 1)
    if recipe.weight_decay < 0.0:
        _fail("recipe.weight_decay", f"must be >= 0, got {recipe.weight_decay}")
    if len(set(recipe.seeds)) != len(recipe.seeds):
        _fail("recipe.seeds", "seeds must be distinct")

    lr = recipe.lr
    if lr.kind not in LR_KINDS:
        _fail("recipe.lr.kind", f"unknown kind {lr.kind!r}, expected one of {LR_KINDS}")
    # a cyclic schedule needs both of these keys, a linear one neither
    for key in ("cycle_length_epochs", "final"):
        if lr.kind == "cyclic" and getattr(lr, key) is None:
            _fail("recipe.lr", f"missing key {key!r}")
        if lr.kind == "linear" and getattr(lr, key) is not None:
            _fail("recipe.lr", f"unknown key {key!r}")
    if lr.kind == "cyclic":
        cycle = lr.cycle_length_epochs
        if not lr.initial > lr.final > 0.0:
            _fail("recipe.lr", f"need initial > final > 0, got {lr.initial} and {lr.final}")
        if cycle <= 0.0:
            _fail("recipe.lr.cycle_length_epochs", f"must be > 0, got {cycle}")
        ratio = total_epochs / cycle
        if abs(ratio - round(ratio)) > 1e-9:
            _fail("recipe.lr.cycle_length_epochs",
                  f"{cycle} does not divide total_epochs {total_epochs}")
    elif lr.initial <= 0.0:
        _fail("recipe.lr.initial", f"must be > 0, got {lr.initial}")

    sp = recipe.sparsity
    if sp is not None:
        head, tail, freq = (sp.head_freeze_epochs, sp.tail_freeze_epochs,
                            sp.prune_frequency_per_epoch)
        _at_least("recipe.sparsity.head_freeze_epochs", head, 0)
        _at_least("recipe.sparsity.tail_freeze_epochs", tail, 0)
        _at_least("recipe.sparsity.prune_frequency_per_epoch", freq, 1)
        if sp.policy not in POLICIES:
            _fail("recipe.sparsity.policy",
                  f"unknown policy {sp.policy!r}, expected one of {POLICIES}")
        if not 0.0 <= sp.initial_step < 1.0:
            _fail("recipe.sparsity.initial_step", f"must be in [0, 1), got {sp.initial_step}")
        if not 0.0 < sp.final <= 1.0:
            _fail("recipe.sparsity.final", f"must be in (0, 1], got {sp.final}")
        if sp.initial_step >= sp.final:
            _fail("recipe.sparsity",
                  f"initial_step {sp.initial_step} must be below final {sp.final}")
        if head + tail >= total_epochs:
            _fail("recipe.sparsity",
                  f"freeze windows ({head} head + {tail} tail) leave no epochs "
                  f"out of {total_epochs} for pruning")
        num_events = freq * (total_epochs - head - tail)
        if num_events < 2:
            _fail("recipe.sparsity",
                  f"the cubic ramp needs at least 2 prune events, got {num_events}")

    if stage == "upstream-finetune":
        if recipe.mask_source is None:
            _fail("recipe.mask_source", "required for the upstream-finetune stage")
        if sp is not None:
            _fail("recipe.sparsity", "must be null for the upstream-finetune stage "
                                     "(masks come from mask_source and stay fixed)")
        if lr.kind != "linear":
            _fail("recipe.lr.kind", "upstream-finetune uses a one-shot linear decay")
    elif recipe.mask_source is not None:
        _fail("recipe.mask_source", f"only valid for upstream-finetune, not {stage}")


def parse_recipe(source) -> Recipe:
    """Parse a recipe from a JSON string or an already-decoded dict."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise RecipeError(f"recipe: invalid JSON ({exc})") from None
    try:
        recipe = _value(Recipe, source, "recipe")
    except ValueError as exc:
        raise RecipeError(str(exc)) from None
    _check_rules(recipe)
    return recipe


def serialize_recipe(recipe: Recipe) -> str:
    """The recipe's canonical JSON text, which ``recipe_hash`` hashes."""
    return canonical_json(recipe.to_dict())


def recipe_hash(recipe: Recipe) -> str:
    return hashlib.sha256(serialize_recipe(recipe).encode("utf-8")).hexdigest()


def override_field(recipe: Recipe, path: str, value) -> Recipe:
    """A copy of the recipe with one dotted field replaced, revalidated from
    scratch; used by sweeps. Example: override_field(r, "kd.hardness", 0.6)."""
    obj = recipe.to_dict()
    parts = path.split(".")
    node = obj
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise RecipeError(f"recipe has no field {path!r}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise RecipeError(f"recipe has no field {path!r}")
    node[parts[-1]] = value
    return parse_recipe(obj)


def bundled_recipe_names() -> list[str]:
    root = resources.files("gradprune").joinpath("data")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> Recipe:
    root = resources.files("gradprune").joinpath("data")
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        raise RecipeError(
            f"no bundled recipe {name!r}; available: {bundled_recipe_names()}"
        )
    return parse_recipe(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Timeline:
    """A recipe made concrete for a particular steps-per-epoch.

    ``lr``, ``target``, ``prune`` and ``evaluate`` hold one entry per step:
    the learning rate, the target sparsity in force after the step, whether
    a prune event ends the step (a ramp from 0.0 starts with an event that
    leaves the target as it was), and whether an evaluation follows it.
    ``prune_events`` and ``eval_steps`` list the same events and evaluations
    by step."""
    total_steps: int
    lr: np.ndarray
    target: np.ndarray
    prune: np.ndarray
    evaluate: np.ndarray
    prune_events: tuple[tuple[int, float], ...]
    eval_steps: tuple[int, ...]
    num_lr_cycles: int


def compile_timeline(recipe: Recipe, steps_per_epoch: int) -> Timeline:
    """Lay the recipe out on the global step axis.

    Needs steps_per_epoch because the recipe speaks in epochs; the result
    is the plan of every step (see ``Timeline``), with evaluations at epoch
    ends and after every prune event. The recipe is already valid; this
    checks only the rules that depend on steps_per_epoch.
    """
    if steps_per_epoch < 1:
        raise ValueError(f"steps_per_epoch must be >= 1, got {steps_per_epoch}")
    total_steps = recipe.total_epochs * steps_per_epoch

    if recipe.lr.kind == "cyclic":
        cycle_exact = recipe.lr.cycle_length_epochs * steps_per_epoch
        cycle_steps = round(cycle_exact)
        if abs(cycle_exact - cycle_steps) > 1e-9:
            raise ValueError(
                f"cycle of {recipe.lr.cycle_length_epochs} epochs is not a whole "
                f"number of steps at {steps_per_epoch} steps/epoch"
            )
        if cycle_steps < 2:
            raise ValueError(
                f"cycle_steps must be >= 2, got {cycle_steps} at "
                f"{steps_per_epoch} steps/epoch"
            )
        # parse_recipe made the cycle divide total_epochs, so it divides
        # total_steps too
        lr = cyclic_lr(recipe.lr.initial, recipe.lr.final, cycle_steps, total_steps)
        num_cycles = total_steps // cycle_steps
    else:
        lr = linear_decay(recipe.lr.initial, total_steps)
        num_cycles = 0

    events: tuple[tuple[int, float], ...] = ()
    if recipe.sparsity is not None:
        sp = recipe.sparsity
        if steps_per_epoch < sp.prune_frequency_per_epoch:
            raise ValueError(
                f"steps_per_epoch {steps_per_epoch} cannot fit "
                f"{sp.prune_frequency_per_epoch} prune events per epoch"
            )
        prunable_epochs = recipe.total_epochs - sp.head_freeze_epochs - sp.tail_freeze_epochs
        num_events = sp.prune_frequency_per_epoch * prunable_epochs
        steps = prune_event_steps(sp.head_freeze_epochs * steps_per_epoch,
                                  prunable_epochs * steps_per_epoch, num_events)
        targets = event_targets(sp.initial_step, sp.final, num_events)
        if np.any(np.diff(steps) <= 0):
            raise AssertionError("prune events must be distinct and increasing")
        if np.any(np.diff(targets) < 0):
            raise AssertionError("prune targets must never decrease")
        events = tuple((int(s), float(t)) for s, t in zip(steps, targets))

    target = np.zeros(total_steps)
    prune = np.zeros(total_steps, dtype=bool)
    for step, value in events:
        target[step:] = value
        prune[step] = True
    evaluate = prune.copy()
    evaluate[steps_per_epoch - 1::steps_per_epoch] = True
    return Timeline(
        total_steps=total_steps,
        lr=lr,
        target=target,
        prune=prune,
        evaluate=evaluate,
        prune_events=events,
        eval_steps=tuple(int(s) for s in np.flatnonzero(evaluate)),
        num_lr_cycles=num_cycles,
    )


@dataclass(frozen=True)
class FieldDiff:
    path: str
    expected: object
    actual: object


def _flatten(obj: dict, prefix: str = "") -> dict:
    flat = {}
    for key, val in obj.items():
        path = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, path + "."))
        else:
            flat[path] = val
    return flat


# Reference settings for the bundled recipes, spelled out independently of
# the JSON files so either side catches a silent edit of the other.
REFERENCE_SETTINGS: dict[str, dict] = {
    "downstream-10ep": {
        "name": "downstream-10ep",
        "stage": "downstream",
        "total_epochs": 10,
        "batch_size": 32,
        "weight_decay": 0.0,
        "seeds": [1, 2, 3],
        "lr": {"kind": "cyclic", "initial": 1e-4, "final": 1e-6,
               "cycle_length_epochs": 2},
        "sparsity": {"initial_step": 0.7, "final": 0.9,
                     "head_freeze_epochs": 2, "tail_freeze_epochs": 2,
                     "prune_frequency_per_epoch": 10, "policy": "uniform"},
        "kd": {"hardness": 1.0, "temperature": 5.5, "scale_kl_by_t_squared": True},
        "mask_source": None,
    },
    "downstream-30ep": {
        "name": "downstream-30ep",
        "stage": "downstream",
        "total_epochs": 30,
        "batch_size": 32,
        "weight_decay": 0.0,
        "seeds": [1, 2, 3],
        "lr": {"kind": "cyclic", "initial": 1e-4, "final": 1e-6,
               "cycle_length_epochs": 2},
        "sparsity": {"initial_step": 0.7, "final": 0.97,
                     "head_freeze_epochs": 2, "tail_freeze_epochs": 2,
                     "prune_frequency_per_epoch": 10, "policy": "uniform"},
        "kd": {"hardness": 1.0, "temperature": 5.5, "scale_kl_by_t_squared": True},
        "mask_source": None,
    },
    "upstream-3ep": {
        "name": "upstream-3ep",
        "stage": "upstream",
        "total_epochs": 3,
        "batch_size": 256,
        "weight_decay": 0.01,
        "seeds": [1, 2, 3],
        "lr": {"kind": "cyclic", "initial": 5e-4, "final": 5e-6,
               "cycle_length_epochs": 0.5},
        "sparsity": {"initial_step": 0.7, "final": 0.9,
                     "head_freeze_epochs": 0, "tail_freeze_epochs": 1,
                     "prune_frequency_per_epoch": 100, "policy": "uniform"},
        "kd": {"hardness": 1.0, "temperature": 5.5, "scale_kl_by_t_squared": True},
        "mask_source": None,
    },
    "upstream-finetune-8ep": {
        "name": "upstream-finetune-8ep",
        "stage": "upstream-finetune",
        "total_epochs": 8,
        "batch_size": 32,
        "weight_decay": 0.0,
        "seeds": [1, 2, 3],
        "lr": {"kind": "linear", "initial": 1.5e-5},
        "sparsity": None,
        "kd": {"hardness": 1.0, "temperature": 5.5, "scale_kl_by_t_squared": True},
        "mask_source": "upstream-3ep",
    },
}


def audit_recipe(recipe: Recipe) -> list[FieldDiff]:
    """Field-by-field diff of a recipe against the reference settings table.

    An empty list means the recipe matches the reference exactly. Unknown
    recipe names are an error, not an empty diff.
    """
    if recipe.name not in REFERENCE_SETTINGS:
        raise RecipeError(
            f"no reference settings for recipe {recipe.name!r}; known: "
            f"{sorted(REFERENCE_SETTINGS)}"
        )
    expected = _flatten(REFERENCE_SETTINGS[recipe.name])
    actual = _flatten(recipe.to_dict())
    diffs = []
    for path in sorted(set(expected) | set(actual)):
        exp = expected.get(path, "<absent>")
        act = actual.get(path, "<absent>")
        if exp != act:
            diffs.append(FieldDiff(path=path, expected=exp, actual=act))
    return diffs
