"""One training step of the default encoder, pinned bitwise and in memory.

The digests below are sha256 over every leaf gradient (name and bytes, in
parameter order) after one forward/backward. They were taken from the tape
that kept every forward intermediate alive, so they pin the leaner tape to
the arithmetic and accumulation order of the old one. The bytes depend on
the BLAS build: they were recorded with numpy 2.4 and OpenBLAS 0.3.31 on
x86-64 (Haswell kernels).
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from gradprune import KDConfig, TinyEncoder, TinyEncoderConfig
from gradprune.distillation import kd_loss_terms
from gradprune.harness import TEACHER_KD, _train_step
from gradprune.models import predict, prunable_parameter_names
from gradprune.optim import Adam
from gradprune.pruning import apply_masks, fresh_masks, magnitude_prune, zero_masked_grads
from gradprune.tasks import SyntheticTask, generate_task
from gradprune.tensor import Tape

KD = KDConfig(hardness=1.0, temperature=5.5)
CE_DIGEST = "d5cb1082c226e26767033ecb91c032015f6b036267b3fb20b8f984e6c4527ecc"
KD_DIGEST = "54868722a719e715ff4217ad7f44bfa62396a996188e1ad455d2b390bcb295a9"
STEP_PEAK_BOUND = 110 * 2**20  # bytes; the whole-forward tape needed 235 MiB


def step_inputs(batch: int, kd: KDConfig):
    """The default encoder, a batch of task rows, teacher logits from a second
    encoder (for KD), and uniform 0.7 masks already applied (for KD)."""
    split = generate_task(SyntheticTask(train_size=batch, val_size=4)).train
    model = TinyEncoder.build(TinyEncoderConfig())
    if kd is TEACHER_KD:
        return model, split, None, {}, {}
    teacher = TinyEncoder.build(TinyEncoderConfig(seed=1))
    prunable = {n: model.params[n] for n in prunable_parameter_names(model.params)}
    weights = {n: p.data for n, p in prunable.items()}
    masks = magnitude_prune(weights, fresh_masks(weights), 0.7, "uniform")
    apply_masks(prunable, masks)
    return model, split, predict(teacher, split.tokens), prunable, masks


def grad_digest(model: TinyEncoder) -> str:
    h = hashlib.sha256()
    for name, p in model.params.items():
        h.update(name.encode())
        h.update(p.grad.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("batch, kd, nodes, digest", [
    (32, TEACHER_KD, 105, CE_DIGEST),
    (256, KD, 109, KD_DIGEST),
], ids=["ce-batch32", "kd-batch256"])
def test_leaf_gradients_are_pinned_bitwise(batch, kd, nodes, digest):
    model, split, teacher_logits, prunable, masks = step_inputs(batch, kd)
    with Tape() as tape:
        logits = model.forward(split.tokens)
        loss = kd_loss_terms(logits, teacher_logits, split.labels, kd)[0]
    tape.backward(loss)
    zero_masked_grads(prunable, masks)
    assert len(tape) == nodes
    assert grad_digest(model) == digest


def test_kd_step_peak_memory_is_bounded():
    model, split, teacher_logits, prunable, masks = step_inputs(256, KD)
    opt = Adam(model.params)
    idx = np.arange(256)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _train_step(model, opt, split, idx, teacher_logits, KD, 1e-3, 0,
                    prunable, masks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_BOUND, f"step peak {peak / 2**20:.1f} MiB"
