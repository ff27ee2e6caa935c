"""The benchmark's tracer still fits the package.

``benchmarks/tracing.instrument`` wraps package attributes by name (for
example ``distillation.TeacherHandle.logits`` and ``models.evaluate``), so
renaming one breaks ``bench.py --trace 1``. Entering and leaving it here
catches that in the main suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gradprune import TeacherHandle, TinyEncoder, TinyEncoderConfig, harness, models

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
    assert wrapped() == originals
    names = [span[0] for span in tracer.spans]
    assert names.count("models.forward.eval") == 1
    assert names.count("models.forward.teacher") == 1
    assert names.count("distillation.teacher_logits") == 1
