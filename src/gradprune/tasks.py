"""Synthetic sequence-classification tasks with known structure.

The task ("marker-sum") hides two marker tokens at random positions
in a filler sequence; the label is the sum of their values modulo the class
count. The label is a deterministic function of the sequence, so a perfect
model exists (Bayes accuracy 1.0), and class balance is exact by
construction.

Half of the samples (``EASY_FRACTION``, a constant of every task) draw the
second marker's value as zero, which makes the first marker alone moderately
predictive. Without that first-order signal the pure mod-sum task has an
XOR-like loss plateau and a tiny model needs many epochs to escape it; with
the signal, a dense model saturates in a few epochs, while full accuracy
still requires composing both markers. That composition is exactly what
heavy pruning damages first, which keeps accuracy differences between
pruning regimes measurable.

``label_noise`` corrupts a fraction of *training* labels (validation labels
stay clean): within each class, that fraction of rows is relabeled to the
next class modulo C. Relabeling per class keeps the counts exactly balanced,
every corrupted label is genuinely wrong, and the corruption is consistent
(class c always masquerades as c+1), which makes it a real pull on the
loss rather than zero-mean shuffle noise. Tokens are never touched, and the
noise draws happen after both splits are generated, so two tasks differing
only in label_noise share identical train tokens and an identical validation
set. Noisy hard labels are the setting where distillation earns its keep:
the soft teacher targets are a cleaner training signal than the corrupted
labels.

Token layout: ids 0 and 1 are reserved, ids [2, 2+C) encode the first marker,
ids [2+C, 2+2C) the second, and everything from 2+2C up is filler. Everything
is generated from a seeded PCG64 stream, so the same spec always produces the
same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Share of samples whose second marker is zero (see the module docstring).
EASY_FRACTION = 0.5


@dataclass(frozen=True)
class SyntheticTask:
    num_classes: int = 4
    sequence_length: int = 16
    vocab_size: int = 64
    train_size: int = 2048
    val_size: int = 512
    label_noise: float = 0.0
    seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.sequence_length < 2:
            raise ValueError(f"sequence_length must be >= 2, got {self.sequence_length}")
        min_vocab = 2 + 2 * self.num_classes + 1
        if self.vocab_size < min_vocab:
            raise ValueError(
                f"vocab_size {self.vocab_size} too small for {self.num_classes} "
                f"classes; need at least {min_vocab}"
            )
        if self.train_size < self.num_classes or self.val_size < self.num_classes:
            raise ValueError("train_size and val_size must each cover every class")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError(f"label_noise must be in [0, 1), got {self.label_noise}")


@dataclass(frozen=True)
class Split:
    tokens: np.ndarray  # int64 [n, sequence_length]
    labels: np.ndarray  # int64 [n]


@dataclass(frozen=True)
class TaskData:
    task: SyntheticTask
    train: Split
    val: Split


def _generate_split(task: SyntheticTask, rng: np.random.Generator, n: int) -> Split:
    c = task.num_classes
    length = task.sequence_length
    filler_lo = 2 + 2 * c
    # Round-robin labels give exact balance, then a shuffle mixes the order.
    labels = np.arange(n, dtype=np.int64) % c
    tokens = rng.integers(filler_lo, task.vocab_size, size=(n, length), dtype=np.int64)
    easy = rng.random(n) < EASY_FRACTION
    b = np.where(easy, 0, rng.integers(0, c, size=n))
    a = (labels - b) % c
    pos_a = rng.integers(0, length, size=n)
    offset = rng.integers(1, length, size=n)
    pos_b = (pos_a + offset) % length  # distinct from pos_a by construction
    rows = np.arange(n)
    tokens[rows, pos_a] = 2 + a
    tokens[rows, pos_b] = 2 + c + b
    perm = rng.permutation(n)
    return Split(tokens=tokens[perm], labels=labels[perm])


def generate_task(task: SyntheticTask) -> TaskData:
    """Materialize train and val splits for a task spec."""
    rng = np.random.Generator(np.random.PCG64(task.seed))
    train = _generate_split(task, rng, task.train_size)
    val = _generate_split(task, rng, task.val_size)
    if task.label_noise > 0.0:
        c = task.num_classes
        labels = train.labels.copy()
        for cls in range(c):
            rows = np.flatnonzero(train.labels == cls)
            n_noisy = int(math.floor(task.label_noise * rows.size + 0.5))
            picked = rng.choice(rows, size=n_noisy, replace=False)
            labels[picked] = (cls + 1) % c
        train = Split(tokens=train.tokens, labels=labels)
    return TaskData(task=task, train=train, val=val)


def iterate_batches(rng: np.random.Generator, n: int, batch_size: int):
    """Yield index arrays for one epoch: a fresh permutation, chopped into
    full batches. A trailing partial batch is dropped so every step sees the
    same batch shape."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    for start in range(0, n - batch_size + 1, batch_size):
        yield perm[start:start + batch_size]


def steps_per_epoch(n: int, batch_size: int) -> int:
    """How many optimizer steps one epoch of ``n`` training rows yields
    (partial batch dropped); a batch larger than the split, which would
    train no step at all, is an error."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds training set size {n}")
    return n // batch_size
