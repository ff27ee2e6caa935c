"""Tiny encoder: construction, forward invariants, teacher training."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from gradprune import models
from gradprune.checkpoint import load_checkpoint, save_checkpoint
from gradprune.distillation import TeacherHandle
from gradprune.harness import TrainingDiverged, _batches, train_teacher
from gradprune.models import (
    TinyEncoder,
    TinyEncoderConfig,
    encoder_from_checkpoint,
    evaluate,
    init_parameters,
    parameter_shapes,
    predict,
    prunable_parameter_names,
)
from gradprune.tasks import SyntheticTask, generate_task

SMALL = TinyEncoderConfig(vocab_size=16, max_sequence_length=8, hidden_dim=32,
                          num_layers=2, num_heads=4, ffn_dim=64, num_classes=3)


def closed_form_param_count(cfg):
    d, f = cfg.hidden_dim, cfg.ffn_dim
    per_layer = (
        2 * d                    # norm1
        + 4 * (d * d + d)        # attention projections
        + 2 * d                  # norm2
        + d * f + f              # ffn expand
        + f * d + d              # ffn reduce
    )
    return (
        cfg.vocab_size * d
        + cfg.max_sequence_length * d
        + cfg.num_layers * per_layer
        + 2 * d                  # head norm
        + d * cfg.num_classes + cfg.num_classes
    )


# ---------------------------------------------------------------------------
# construction


def test_parameter_count_matches_closed_form():
    shapes = parameter_shapes(SMALL)
    total = sum(int(np.prod(s)) for s in shapes.values())
    assert total == closed_form_param_count(SMALL)


def test_default_model_size():
    cfg = TinyEncoderConfig()
    total = sum(int(np.prod(s)) for s in parameter_shapes(cfg).values())
    assert total == closed_form_param_count(cfg)
    assert 50_000 <= total <= 150_000  # desk scale: big enough to prune, small enough to train in seconds


def test_parameter_names_partition_into_three_groups():
    names = list(parameter_shapes(SMALL))
    groups = {n.split(".", 1)[0] for n in names}
    assert groups == {"embedding", "encoder", "head"}


def test_prunable_set_is_encoder_weights_only():
    names = list(parameter_shapes(SMALL))
    prunable = prunable_parameter_names(names)
    assert len(prunable) == 6 * SMALL.num_layers
    for n in prunable:
        assert n.startswith("encoder.") and n.endswith(".weight")
    excluded = set(names) - set(prunable)
    for n in excluded:
        assert (n.startswith("embedding.") or n.startswith("head.")
                or n.endswith(".bias") or n.endswith(".gain"))


def test_same_seed_is_bitwise_identical():
    a = init_parameters(SMALL)
    b = init_parameters(SMALL)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes()
    c = init_parameters(TinyEncoderConfig(**{**SMALL.to_dict(), "seed": 1}))
    assert any(a[n].data.tobytes() != c[n].data.tobytes() for n in a)


def test_init_respects_parameter_roles():
    params = init_parameters(SMALL)
    for name, p in params.items():
        if name.endswith(".gain"):
            assert np.all(p.data == 1.0)
        elif name.endswith(".bias"):
            assert np.all(p.data == 0.0)
        else:
            assert p.data.std() > 0


def test_config_validation_names_the_field():
    with pytest.raises(ValueError, match="hidden_dim"):
        TinyEncoderConfig(hidden_dim=30, num_heads=4)
    with pytest.raises(ValueError, match="num_layers"):
        TinyEncoderConfig(num_layers=0)


def test_build_validates_names_and_shapes():
    params = init_parameters(SMALL)
    broken = dict(params)
    del broken["head.classifier.bias"]
    with pytest.raises(ValueError):
        TinyEncoder(SMALL, broken)
    bad_shape = dict(params)
    bad_shape["head.classifier.bias"] = init_parameters(
        TinyEncoderConfig(**{**SMALL.to_dict(), "num_classes": 2}))["head.classifier.bias"]
    with pytest.raises(ValueError):
        TinyEncoder(SMALL, bad_shape)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_shape_and_finite_on_zero_tokens():
    model = TinyEncoder.build(SMALL)
    logits = model.forward(np.zeros((1, SMALL.max_sequence_length), dtype=np.int64))
    assert logits.shape == (1, SMALL.num_classes)
    assert np.all(np.isfinite(logits.data))


def test_forward_is_batch_permutation_equivariant():
    rng = np.random.default_rng(0)
    model = TinyEncoder.build(SMALL)
    tokens = rng.integers(0, SMALL.vocab_size, size=(16, SMALL.max_sequence_length))
    perm = rng.permutation(16)
    base = model.forward(tokens).data
    shuffled = model.forward(tokens[perm]).data
    assert np.abs(base[perm] - shuffled).max() <= 1e-12


def test_forward_rejects_bad_tokens():
    model = TinyEncoder.build(SMALL)
    with pytest.raises(ValueError):
        model.forward(np.full((1, SMALL.max_sequence_length), SMALL.vocab_size))
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, SMALL.max_sequence_length + 1), dtype=np.int64))


# ---------------------------------------------------------------------------
# teacher training


@pytest.fixture(scope="module")
def teacher_setup():
    task = SyntheticTask()
    data = generate_task(task)
    ckpt = train_teacher(data, epochs=5, seed=0)
    return task, data, ckpt


def test_dense_five_epoch_ceiling(teacher_setup):
    _, _, ckpt = teacher_setup
    assert ckpt.metadata["val_accuracy"] >= 0.95


def test_teacher_reload_reproduces_accuracy(teacher_setup, tmp_path):
    _, data, ckpt = teacher_setup
    path = str(tmp_path / "teacher")
    save_checkpoint(ckpt, path)
    reloaded = load_checkpoint(path)
    model = encoder_from_checkpoint(reloaded)
    acc = evaluate(model, data.val.tokens, data.val.labels)
    assert acc == ckpt.metadata["val_accuracy"]


def test_teacher_loads_frozen(teacher_setup):
    _, _, ckpt = teacher_setup
    model = encoder_from_checkpoint(ckpt, requires_grad=False)
    assert all(not p.requires_grad for p in model.params.values())
    model = encoder_from_checkpoint(ckpt)
    assert all(p.requires_grad for p in model.params.values())


def test_teacher_divergence_reports_step():
    task = SyntheticTask(train_size=64, val_size=16)
    data = generate_task(task)
    cfg = TinyEncoderConfig(num_classes=task.num_classes, hidden_dim=16,
                            num_heads=2, ffn_dim=16, num_layers=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="step") as info:
            train_teacher(data, cfg, epochs=5, lr=1e200, batch_size=32, seed=0)
    assert info.value.step >= 1


def test_batch_larger_than_the_training_split_is_an_error():
    # it used to train 0 steps and return the random init as a teacher
    data = generate_task(SyntheticTask(train_size=64, val_size=64))
    with pytest.raises(ValueError, match="batch_size 128 exceeds"):
        train_teacher(data, epochs=3, batch_size=128)


def test_teacher_table_rows_are_bitwise_the_batch_forward(teacher_setup):
    # run() computes the teacher's logits once per training split and indexes
    # them by batch rows; that must be exactly the forward of the batch alone
    _, data, ckpt = teacher_setup
    assert ckpt.metadata["steps"] > 0
    init = TinyEncoder.build(TinyEncoderConfig(**ckpt.config))
    assert not np.array_equal(ckpt.params["encoder.layer0.ffn.expand.weight"],
                              init.params["encoder.layer0.ffn.expand.weight"].data)
    split = data.train
    table = TeacherHandle(ckpt).logits(split.tokens)
    encoder = encoder_from_checkpoint(ckpt, requires_grad=False)
    for batch_size in (32, 256):
        rng = np.random.Generator(np.random.PCG64(batch_size))
        for _, idx in _batches(rng, split.tokens.shape[0], batch_size, 1):
            assert (table[idx].tobytes()
                    == encoder.forward(split.tokens[idx]).data.tobytes())


def test_evaluate_validates_lengths():
    model = TinyEncoder.build(SMALL)
    with pytest.raises(ValueError):
        evaluate(model, np.zeros((4, SMALL.max_sequence_length), dtype=np.int64),
                 np.zeros(3, dtype=np.int64))


def test_forward_rows_do_not_depend_on_batch():
    # predict's batch size is a speed choice only: a row's logits must be
    # bitwise the same whichever rows share its batch
    data = generate_task(SyntheticTask(train_size=64, val_size=1024))
    model = TinyEncoder.build(TinyEncoderConfig(num_classes=data.task.num_classes,
                                                seed=3))
    tokens = data.val.tokens

    def chunked(size):
        return np.concatenate([model.forward(tokens[i:i + size]).data
                               for i in range(0, tokens.shape[0], size)])

    ref = chunked(256)
    for size in (64, 32, 17):
        assert chunked(size).tobytes() == ref.tobytes()


def reference_logits(params: dict, cfg: TinyEncoderConfig,
                     tokens: np.ndarray) -> np.ndarray:
    """TinyEncoder.forward in bare numpy: the same operations in the same
    order, with no Tensor, tape or op-level check in between."""
    batch, seq = tokens.shape
    head_dim = cfg.hidden_dim // cfg.num_heads
    scale = 1.0 / math.sqrt(head_dim)

    def linear(x, name):
        lead = x.shape[:-1]
        flat = x.reshape((int(np.prod(lead)), x.shape[-1]))
        y = flat @ params[name + ".weight"] + params[name + ".bias"]
        return y.reshape(lead + (y.shape[-1],))

    def norm(x, name):
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + 1e-5)
        return xc * inv * params[name + ".gain"] + params[name + ".bias"]

    def split_heads(x):
        return x.reshape((batch, seq, cfg.num_heads, head_dim)).transpose((0, 2, 1, 3))

    x = params["embedding.token.weight"][tokens]
    x = x + params["embedding.position.weight"][np.arange(seq)]
    for i in range(cfg.num_layers):
        pre = f"encoder.layer{i}."
        h = norm(x, pre + "norm1")
        q, k, v = (split_heads(linear(h, pre + f"attention.{proj}"))
                   for proj in ("query", "key", "value"))
        scores = (q @ k.transpose((0, 1, 3, 2))) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = (attn @ v).transpose((0, 2, 1, 3)).reshape((batch, seq, cfg.hidden_dim))
        x = x + linear(ctx, pre + "attention.output")
        h = linear(norm(x, pre + "norm2"), pre + "ffn.expand")
        h = h * ((erf(h / math.sqrt(2.0)) + 1.0) * 0.5)
        x = x + linear(h, pre + "ffn.reduce")
    pooled = norm(x, "head.norm").mean(axis=1)
    return pooled @ params["head.classifier.weight"] + params["head.classifier.bias"]


def test_predict_is_bitwise_the_bare_numpy_forward(teacher_setup):
    # a portable pin: it holds on any BLAS build, unlike stored digests
    _, _, ckpt = teacher_setup
    tokens = generate_task(SyntheticTask(val_size=1024)).val.tokens
    model = encoder_from_checkpoint(ckpt, requires_grad=False)
    expected = reference_logits(ckpt.params, model.config, tokens)
    assert predict(model, tokens).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# predict's process pool: one share of the batches per CPU (``cpus`` forces
# the count; see conftest.py)


@pytest.fixture(scope="module")
def val_rows():
    data = generate_task(SyntheticTask(train_size=64, val_size=1024))
    model = TinyEncoder.build(TinyEncoderConfig(num_classes=data.task.num_classes,
                                                seed=3))
    return model, data.val


def serial_logits(model, tokens):
    """predict's loop before the pool: every 64-row batch in the caller."""
    return np.concatenate([model.forward(tokens[i:i + 64]).data
                           for i in range(0, tokens.shape[0], 64)])


def pool_children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.mark.parametrize("count", [2, 3])
def test_pool_predict_is_bitwise_the_serial_loop(cpus, val_rows, count):
    # one worker per CPU; the caller takes the first share, so count - 1
    # workers share the rest
    model, split = val_rows
    cpus(1)
    serial_accuracy = evaluate(model, split.tokens, split.labels)
    cpus(count)
    for rows in (1, 63, 64, 65, 129, 1000, 1024):
        tokens = split.tokens[:rows]
        assert predict(model, tokens).tobytes() == serial_logits(model, tokens).tobytes()
    assert models._pool[1] == count
    assert evaluate(model, split.tokens, split.labels) == serial_accuracy


def test_predict_on_one_cpu_starts_no_worker(cpus, val_rows):
    model, split = val_rows
    cpus(1)
    before = pool_children()
    predict(model, split.tokens)
    assert models._pool is None
    assert pool_children() == before


def test_worker_exception_is_raised_in_the_caller(cpus, val_rows):
    model, split = val_rows
    cpus(2)
    tokens = split.tokens[:128].copy()
    tokens[-1, 0] = model.config.vocab_size  # in the worker's share only
    with pytest.raises(ValueError, match="ids out of range"):
        predict(model, tokens)
    tokens = split.tokens[:128]
    assert predict(model, tokens).tobytes() == serial_logits(model, tokens).tobytes()


def test_non_finite_parameters_give_the_same_logits_on_every_cpu_count(cpus, val_rows):
    # the caller's loop checks no parameter, and neither may a worker: one
    # inf weight gives the same NaN logits on any CPU count, never an error
    # on some counts only
    model, split = val_rows
    broken = encoder_from_checkpoint(model.to_checkpoint(), requires_grad=False)
    broken.params["encoder.layer0.ffn.expand.weight"].data[0, 0] = np.inf
    tokens = split.tokens[:256]
    logits = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for count in (1, 2, 3):
            cpus(count)
            logits[count] = predict(broken, tokens)
    assert np.isnan(logits[1]).any()
    assert logits[1].tobytes() == logits[2].tobytes() == logits[3].tobytes()


def test_workers_ignore_sigint(cpus, val_rows):
    # Ctrl-C reaches the whole process group; only the caller may raise
    # KeyboardInterrupt, so an interrupted run prints one traceback
    model, split = val_rows
    cpus(2)
    before = pool_children()
    expected = predict(model, split.tokens)
    workers = [p for p in multiprocessing.active_children() if p.pid not in before]
    assert len(workers) == 2
    for worker in workers:
        os.kill(worker.pid, signal.SIGINT)
    for worker in workers:
        worker.join(timeout=0.5)
        assert worker.is_alive()
    assert predict(model, split.tokens).tobytes() == expected.tobytes()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter with 2 CPUs forced and return its
    stdout split on whitespace; a hang fails the test after 120 s."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("predict shares batches on Linux only")
    prelude = textwrap.dedent("""
        import os
        os.sched_getaffinity = lambda pid: {0, 1}
        import multiprocessing
        import numpy as np
        from gradprune import models
        model = models.TinyEncoder.build(models.TinyEncoderConfig())
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_the_pool_runs_openblas_on_one_thread():
    # two BLAS threads each in the caller and a worker made the shared
    # evaluation slower than the serial loop
    out = run_python("""
        import ctypes
        models.predict(model, np.zeros((128, 8), dtype=np.int64))
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\\n") for line in fh}
        for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
            lib = ctypes.CDLL(path)
            for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "scipy_openblas_get_num_threads64_"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    print(getter())
                    break
    """)
    if not out:
        pytest.skip("numpy loaded no OpenBLAS")
    assert out == ["1"] * len(out)


def test_killed_worker_raises_and_the_next_call_starts_a_fresh_pool():
    out = run_python("""
        from concurrent.futures.process import BrokenProcessPool
        tokens = np.zeros((128, 8), dtype=np.int64)
        expected = models.predict(model, tokens)
        worker, _ = multiprocessing.active_children()
        os.kill(worker.pid, 9)
        worker.join(timeout=10)
        assert not worker.is_alive()
        try:
            models.predict(model, tokens)
        except BrokenProcessPool:
            print("raised")
        print(models.predict(model, tokens).tobytes() == expected.tobytes())
    """)
    assert out == ["raised", "True"]


def assert_exited(pids: list[int]) -> None:
    """Every pid ends within 10 s."""
    def alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    deadline = time.monotonic() + 10
    while any(map(alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(alive, pids))


def test_evaluating_process_leaves_no_child_alive():
    out = run_python("""
        from gradprune.tasks import SyntheticTask, generate_task
        val = generate_task(SyntheticTask(train_size=64, val_size=1024)).val
        models.evaluate(model, val.tokens, val.labels)
        print(*[p.pid for p in multiprocessing.active_children()])
    """)
    pids = [int(pid) for pid in out]
    assert len(pids) == 2
    assert_exited(pids)


def test_training_process_leaves_no_child_alive():
    # run() hands its evaluations to the pool and exits with none pending
    out = run_python("""
        from gradprune.harness import run
        from gradprune.recipes import override_field, load_bundled
        from gradprune.tasks import SyntheticTask, generate_task
        data = generate_task(SyntheticTask(train_size=64, val_size=128))
        recipe = override_field(load_bundled("downstream-10ep"), "total_epochs", 6)
        recipe = override_field(recipe, "kd.hardness", 0.0)
        recipe = override_field(recipe, "sparsity.prune_frequency_per_epoch", 1)
        result = run(recipe, data, seed=0)
        assert len(result.rows) == 8
        print(*[p.pid for p in multiprocessing.active_children()])
    """)
    pids = [int(pid) for pid in out]
    assert len(pids) == 2
    assert_exited(pids)
