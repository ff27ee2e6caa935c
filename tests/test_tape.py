"""The training step off the tape, pinned bitwise to the tape, and bounded in
memory, as is one inference batch of the same lean forward.

``harness._train_step`` runs the encoder through ``models._lean_forward``
with a cache and ``models._lean_backward``; only the loss is on a tape, with
the logits as its leaf. The oracle is the whole step on the tape:
``TinyEncoder.forward``, ``kd_loss_terms`` and ``Tape.backward``. Both run
here, on the same BLAS, so the pins compare bytes with the oracle rather
than with digests recorded on one build.
"""

import functools
import gc
import tracemalloc

import numpy as np
import pytest

from gradprune import KDConfig, TinyEncoder, TinyEncoderConfig
from gradprune.distillation import kd_loss_terms
from gradprune.harness import TEACHER_KD, _prune_event, _train_step
from gradprune.models import _lean_backward, _lean_forward, predict, prunable_parameter_names
from gradprune.optim import Adam
from gradprune.pruning import apply_masks, fresh_masks, magnitude_prune, zero_masked_grads
from gradprune.tasks import SyntheticTask, generate_task
from gradprune.tensor import Tape, Tensor

KD = KDConfig(hardness=1.0, temperature=5.5)
LOSSES = {"ce": TEACHER_KD, "kd": KD, "kd-half": KDConfig(hardness=0.5, temperature=5.5)}
# nodes on the loss tape: cross-entropy, the KL term alone, and their blend
LOSS_NODES = {"ce": 4, "kd": 8, "kd-half": 14}
DEFAULT = TinyEncoderConfig()
SMALL = TinyEncoderConfig(hidden_dim=16, num_heads=2, num_layers=1, ffn_dim=16)
# bytes; the step peaks at 50.4 MiB with a cache of only what the backward
# reads (68.3 MiB with norm outputs and GELU's input and cdf cached too)
STEP_PEAK_BOUND = 60 * 2**20
# bytes; a 64-row batch peaks at 4.5 MiB when it frees each temporary where
# it dies (7.1 MiB with q, k, v, scores and ctx held to the layer's end)
PREDICT_BATCH_PEAK_BOUND = 5.5 * 2**20


@functools.cache
def task_split():
    return generate_task(SyntheticTask(train_size=256, val_size=4)).train


def step_inputs(kd: KDConfig, masked: bool = True, config: TinyEncoderConfig = DEFAULT):
    """An encoder and its parameter arrays, a 256-row training split, teacher
    logits of its rows from a second encoder (for KD), and uniform 0.7 masks
    already applied (when ``masked``; else an empty dict)."""
    split = task_split()
    model = TinyEncoder.build(config)
    arrays = {name: p.data for name, p in model.params.items()}
    teacher_logits = (None if kd is TEACHER_KD else
                      predict(TinyEncoder.build(TinyEncoderConfig(seed=1)), split.tokens))
    if not masked:
        return model, arrays, split, teacher_logits, {}
    weights = {n: arrays[n] for n in prunable_parameter_names(arrays)}
    masks = magnitude_prune(weights, fresh_masks(weights), 0.7, "uniform")
    apply_masks(arrays, masks)
    return model, arrays, split, teacher_logits, masks


def tape_pass(model, tokens, targets, labels, kd):
    """The oracle: forward and loss on one tape, then its backward."""
    with Tape() as tape:
        logits = model.forward(tokens)
        loss, ce, kl = kd_loss_terms(logits, targets, labels, kd)
    tape.backward(loss)
    grads = {name: p.grad for name, p in model.params.items()}
    return logits.data, loss.data, (ce, kl), grads


def lean_pass(model, tokens, targets, labels, kd):
    """The step's path: the lean forward with a cache, the loss on a tape
    from the logits, then the lean backward. Also the loss tape's length."""
    arrays = {name: p.data for name, p in model.params.items()}
    cache = []
    logits = _lean_forward(model.config, arrays, tokens, None, cache)
    leaf = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        loss, ce, kl = kd_loss_terms(leaf, targets, labels, kd)
    tape.backward(loss)
    grads = _lean_backward(model.config, arrays, tokens, leaf.grad, cache)
    assert cache == []
    return logits, loss.data, (ce, kl), grads, len(tape)


PINS = [(DEFAULT, batch, loss, masked)
        for batch in (1, 2, 32, 256) for loss in LOSSES for masked in (False, True)]
PINS += [(SMALL, batch, loss, True) for batch in (2, 32) for loss in LOSSES]


@pytest.mark.parametrize("config, batch, loss, masked", PINS, ids=[
    f"{'default' if c is DEFAULT else 'small'}-batch{b}-{loss}-{'masked' if m else 'dense'}"
    for c, b, loss, m in PINS])
def test_lean_step_is_bitwise_the_tape(config, batch, loss, masked):
    kd = LOSSES[loss]
    model, _, split, teacher_logits, _ = step_inputs(kd, masked, config)
    tokens, labels = split.tokens[:batch], split.labels[:batch]
    targets = None if teacher_logits is None else teacher_logits[:batch]
    logits, value, terms, grads, nodes = lean_pass(model, tokens, targets, labels, kd)
    ref_logits, ref_value, ref_terms, ref_grads = tape_pass(model, tokens, targets, labels, kd)
    assert nodes == LOSS_NODES[loss]
    assert logits.tobytes() == ref_logits.tobytes()
    assert value.tobytes() == ref_value.tobytes()
    assert terms == ref_terms
    assert sorted(grads) == sorted(ref_grads)
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert grads[name].tobytes() == ref.tobytes(), name


def tape_step(model, arrays, opt, split, idx, teacher_logits, kd, lr, masks):
    """``_train_step`` as it was with the whole step on the tape: the
    gradients are what ``Tape.backward`` leaves on the parameters."""
    targets = teacher_logits[idx] if teacher_logits is not None else None
    with Tape() as tape:
        logits = model.forward(split.tokens[idx])
        loss, ce_term, kl_term = kd_loss_terms(logits, targets, split.labels[idx], kd)
    tape.backward(loss)
    grads = {name: p.grad for name, p in model.params.items()}
    zero_masked_grads(grads, masks)
    opt.step(lr, grads)
    apply_masks(arrays, masks)
    return float(loss.data), ce_term, kl_term


@pytest.mark.parametrize("loss", list(LOSSES))
def test_steps_and_prune_events_match_the_tape_step(loss, monkeypatch):
    kd = LOSSES[loss]
    nodes = []
    backward = Tape.backward

    def counting(tape, value):
        nodes.append(len(tape))
        backward(tape, value)

    monkeypatch.setattr(Tape, "backward", counting)
    sides = []
    for _ in range(2):
        model, arrays, split, teacher_logits, masks = step_inputs(kd)
        sides.append([model, arrays, Adam(arrays, weight_decay=0.01), masks])
    rng = np.random.Generator(np.random.PCG64(3))
    for step, target in enumerate((0.8, 0.9, None)):
        idx = rng.permutation(split.tokens.shape[0])[:32]
        (student, arrays, opt, masks), (ref, ref_arrays, ref_opt, ref_masks) = sides
        terms = _train_step(student.config, arrays, opt, split, idx, teacher_logits, kd,
                            1e-2, step, masks)
        ref_terms = tape_step(ref, ref_arrays, ref_opt, split, idx, teacher_logits, kd,
                              1e-2, ref_masks)
        assert terms == ref_terms
        for name in ref.params:
            assert student.params[name].data.tobytes() == ref.params[name].data.tobytes()
            assert opt._m[name].tobytes() == ref_opt._m[name].tobytes()
            assert opt._v[name].tobytes() == ref_opt._v[name].tobytes()
        assert {n: m.tobytes() for n, m in masks.items()} == \
            {n: m.tobytes() for n, m in ref_masks.items()}
        if target is not None:
            for side in sides:
                side[3] = _prune_event(step, target, side[1], side[3], "uniform")
    # every shipped step's backward ran on the loss tape alone
    assert nodes[0::2] == [LOSS_NODES[loss]] * 3


def traced_peak(call) -> int:
    """The most bytes ``call()`` held at once beyond what was live before it,
    under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_kd_step_peak_memory_is_bounded():
    model, arrays, split, teacher_logits, masks = step_inputs(KD)
    opt = Adam(arrays)
    idx = np.arange(256)
    peak = traced_peak(lambda: _train_step(model.config, arrays, opt, split, idx,
                                           teacher_logits, KD, 1e-3, 0, masks))
    assert peak < STEP_PEAK_BOUND, f"step peak {peak / 2**20:.1f} MiB"


def test_predict_batch_peak_memory_is_bounded():
    # one of predict's 64-row batches, without the layer-0 table
    model = TinyEncoder.build(DEFAULT)
    arrays = {name: p.data for name, p in model.params.items()}
    tokens = task_split().tokens[:64]
    peak = traced_peak(lambda: _lean_forward(DEFAULT, arrays, tokens, None))
    assert peak < PREDICT_BATCH_PEAK_BOUND, f"batch peak {peak / 2**20:.2f} MiB"
