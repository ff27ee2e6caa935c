"""The benchmark's tracer still fits the package.

``benchmarks/tracing.instrument`` wraps package attributes by name (for
example ``distillation.TeacherHandle.logits`` and ``models.evaluate``), so
renaming one breaks ``bench.py --trace 1``. Entering and leaving it here
catches that in the main suite. Its ``tensor.tape_nodes`` reads ``len(tape)``
at backward. A training step keeps only its loss on a tape (the encoder
runs off it), so a KD step at hardness 1 must count that loss's 8 nodes.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from gradprune import (KDConfig, SyntheticTask, TeacherHandle, TinyEncoder,
                       TinyEncoderConfig, generate_task, harness, models)
from gradprune.optim import Adam

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_package():
    tracing = load_tracing()
    config = TinyEncoderConfig()
    encoder = TinyEncoder.build(config)
    ckpt = encoder.to_checkpoint()
    tokens = np.arange(4 * 16).reshape(4, 16) % config.vocab_size

    def wrapped():
        return (models.evaluate, harness.evaluate, TeacherHandle.logits,
                TinyEncoder.forward)

    originals = wrapped()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, config.hidden_dim, config.ffn_dim):
        models.evaluate(encoder, tokens, np.zeros(4, dtype=np.int64))
        TeacherHandle(ckpt).logits(tokens)
        encoder.forward(tokens)
    assert wrapped() == originals
    names = [span[0] for span in tracer.spans]
    assert names.count("models.evaluate") == 1
    assert names.count("distillation.teacher_logits") == 1
    # predict runs its own forward, not TinyEncoder.forward, so the tracer
    # sees a forward span for the training forward only
    assert names.count("models.forward.train") == 1
    assert names.count("models.forward.eval") == 0
    assert names.count("models.forward.teacher") == 0


def test_backward_span_counts_the_nodes_of_a_kd_step():
    tracing = load_tracing()
    config = TinyEncoderConfig()
    split = generate_task(SyntheticTask(train_size=8, val_size=4)).train
    student = TinyEncoder.build(config)
    teacher = TinyEncoder.build(replace(config, seed=1))
    teacher_logits = models.predict(teacher, split.tokens)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, config.hidden_dim, config.ffn_dim):
        harness._train_step(student, Adam(student.params), split, np.arange(8),
                            teacher_logits, KDConfig(hardness=1.0, temperature=5.5),
                            1e-3, 0, {}, {})
    counts = [span[5] for span in tracer.spans if span[0] == "tensor.backward"]
    assert counts == [{"tape_nodes": 8}]
