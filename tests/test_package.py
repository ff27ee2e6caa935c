"""The package's public namespace, and what importing and running it loads."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gradprune
from gradprune import optim, pruning
from gradprune.models import encoder_from_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from gradprune import *", namespace)
    assert set(gradprune.__all__) <= set(namespace)


def test_training_and_predicting_load_no_scipy():
    # numpy is the only dependency; scipy's import alone costs ~25 MB RSS
    code = textwrap.dedent("""
        import sys
        import gradprune
        from gradprune.models import encoder_from_checkpoint, predict
        data = gradprune.generate_task(gradprune.SyntheticTask(
            num_classes=3, sequence_length=8, vocab_size=16,
            train_size=64, val_size=64, seed=3))
        teacher = gradprune.train_teacher(data, epochs=1, batch_size=16)
        predict(encoder_from_checkpoint(teacher), data.val.tokens)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def imported_names(module) -> set[str]:
    """Every dotted name that ``module``'s imports name, relative ones
    without their leading dots (``from .tensor import Tensor`` gives
    ``tensor.Tensor``)."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names.update(prefix + alias.name for alias in node.names)
    return names


def test_training_state_is_plain_arrays():
    # Adam and the mask helpers take name -> ndarray dicts, so neither
    # module needs the autodiff Tensor; a loaded encoder has one form
    for module in (optim, pruning):
        assert not any("tensor" in name.split(".") for name in imported_names(module)), \
            module.__name__
    assert list(inspect.signature(encoder_from_checkpoint).parameters) == ["ckpt"]
