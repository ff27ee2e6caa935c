"""Gradual magnitude pruning with knowledge distillation, at desk scale.

The package trains tiny transformer classifiers on synthetic tasks while
pruning them on a cubic sparsity schedule (with a large first step), cycling
the learning rate, and distilling from a dense teacher. Everything runs in
float64 and is deterministic given its seeds.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .distillation import KDConfig, TeacherHandle, kd_loss_terms
from .harness import RunResult, TrainingDiverged, run, sweep, train_teacher
from .models import TinyEncoder, TinyEncoderConfig, evaluate
from .pruning import apply_masks, fresh_masks, magnitude_prune, mask_sparsity
from .recipes import (
    Recipe,
    RecipeError,
    audit_recipe,
    compile_timeline,
    load_bundled,
    parse_recipe,
)
from .schedules import cubic_sparsity
from .tasks import SyntheticTask, TaskData, generate_task
from .tensor import Tape, Tensor

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "KDConfig", "TeacherHandle", "kd_loss_terms",
    "RunResult", "TrainingDiverged", "run", "sweep", "train_teacher",
    "TinyEncoder", "TinyEncoderConfig", "evaluate",
    "apply_masks", "fresh_masks", "magnitude_prune", "mask_sparsity",
    "Recipe", "RecipeError", "audit_recipe", "compile_timeline",
    "load_bundled", "parse_recipe",
    "cubic_sparsity",
    "SyntheticTask", "TaskData", "generate_task",
    "Tape", "Tensor",
    "__version__",
]
