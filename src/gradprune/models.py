"""A tiny transformer encoder classifier, small enough to train in seconds.

Parameter naming is load-bearing: pruning policies and checkpoints address
parameters by these names, so the scheme is fixed and tested. Names partition
into three groups:

    embedding.*   token and position tables
    encoder.*     per-layer attention / norm / feed-forward parameters
    head.*        final norm and classifier

Only encoder weight *matrices* (names starting with ``encoder.`` and ending
in ``.weight``) are eligible for pruning; biases, norms, embeddings, and the
head stay dense.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import math
import multiprocessing
import os
import signal
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import Checkpoint, _value
from .tensor import (
    Tensor,
    embedding,
    gelu,
    layer_norm,
    matmul,
    softmax,
    _unchecked,
)


@dataclass(frozen=True)
class TinyEncoderConfig:
    vocab_size: int = 64
    max_sequence_length: int = 32
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    num_classes: int = 4
    init_scale: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for field in ("vocab_size", "max_sequence_length", "hidden_dim",
                      "num_layers", "num_heads", "ffn_dim", "num_classes"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} must be divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.init_scale <= 0.0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")

    def to_dict(self) -> dict:
        return asdict(self)


def parameter_shapes(config: TinyEncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name and its shape, in canonical (construction) order."""
    d = config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {
        "embedding.token.weight": (config.vocab_size, d),
        "embedding.position.weight": (config.max_sequence_length, d),
    }
    for i in range(config.num_layers):
        pre = f"encoder.layer{i}."
        shapes[pre + "norm1.gain"] = (d,)
        shapes[pre + "norm1.bias"] = (d,)
        for proj in ("query", "key", "value", "output"):
            shapes[pre + f"attention.{proj}.weight"] = (d, d)
            shapes[pre + f"attention.{proj}.bias"] = (d,)
        shapes[pre + "norm2.gain"] = (d,)
        shapes[pre + "norm2.bias"] = (d,)
        shapes[pre + "ffn.expand.weight"] = (d, config.ffn_dim)
        shapes[pre + "ffn.expand.bias"] = (config.ffn_dim,)
        shapes[pre + "ffn.reduce.weight"] = (config.ffn_dim, d)
        shapes[pre + "ffn.reduce.bias"] = (d,)
    shapes["head.norm.gain"] = (d,)
    shapes["head.norm.bias"] = (d,)
    shapes["head.classifier.weight"] = (d, config.num_classes)
    shapes["head.classifier.bias"] = (config.num_classes,)
    return shapes


def prunable_parameter_names(names) -> list[str]:
    """Encoder weight matrices, in the given order; everything else is dense."""
    return [n for n in names if n.startswith("encoder.") and n.endswith(".weight")]


def init_parameters(config: TinyEncoderConfig) -> dict[str, Tensor]:
    """Fresh parameters: N(0, init_scale) weights, unit gains, zero biases.

    Draws happen in canonical name order from a PCG64 stream seeded with
    config.seed, so the same config always yields the same bytes.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, config.init_scale, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


class TinyEncoder:
    """Pre-norm transformer encoder with mean pooling and a linear classifier."""

    def __init__(self, config: TinyEncoderConfig, params: dict[str, Tensor]):
        expected = parameter_shapes(config)
        if set(params.keys()) != set(expected.keys()):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ValueError(
                f"parameter names do not match config (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})"
            )
        for name, shape in expected.items():
            if params[name].data.shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {params[name].data.shape}, "
                    f"expected {shape}"
                )
        self.config = config
        # canonical order regardless of the caller's dict order (checkpoints,
        # for instance, store tensors sorted by name)
        self.params = {name: params[name] for name in expected}

    @classmethod
    def build(cls, config: TinyEncoderConfig) -> "TinyEncoder":
        return cls(config, init_parameters(config))

    def _linear(self, x: Tensor, name: str) -> Tensor:
        w = self.params[name + ".weight"]
        b = self.params[name + ".bias"]
        lead = x.shape[:-1]
        flat = x.reshape((int(np.prod(lead)), x.shape[-1]))
        y = matmul(flat, w) + b
        return y.reshape(lead + (w.shape[1],))

    def _norm(self, x: Tensor, name: str) -> Tensor:
        return layer_norm(x) * self.params[name + ".gain"] + self.params[name + ".bias"]

    def forward(self, tokens: np.ndarray) -> Tensor:
        """tokens [batch, seq] of ids -> logits [batch, num_classes]."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [batch, seq], got shape {tokens.shape}")
        batch, seq = tokens.shape
        if seq > self.config.max_sequence_length:
            raise ValueError(
                f"sequence length {seq} exceeds maximum "
                f"{self.config.max_sequence_length}"
            )
        cfg = self.config
        head_dim = cfg.hidden_dim // cfg.num_heads
        scale = 1.0 / math.sqrt(head_dim)

        x = embedding(self.params["embedding.token.weight"], tokens)
        pos = embedding(self.params["embedding.position.weight"], np.arange(seq))
        x = x + pos

        for i in range(cfg.num_layers):
            pre = f"encoder.layer{i}."
            h = self._norm(x, pre + "norm1")
            q = self._linear(h, pre + "attention.query")
            k = self._linear(h, pre + "attention.key")
            v = self._linear(h, pre + "attention.value")
            # [batch, seq, hidden] -> [batch, heads, seq, head_dim]
            split = (batch, seq, cfg.num_heads, head_dim)
            q = q.reshape(split).transpose((0, 2, 1, 3))
            k = k.reshape(split).transpose((0, 2, 1, 3))
            v = v.reshape(split).transpose((0, 2, 1, 3))
            scores = matmul(q, k.transpose((0, 1, 3, 2))) * scale
            attn = softmax(scores)
            ctx = matmul(attn, v)
            ctx = ctx.transpose((0, 2, 1, 3)).reshape((batch, seq, cfg.hidden_dim))
            x = x + self._linear(ctx, pre + "attention.output")

            h = self._norm(x, pre + "norm2")
            h = gelu(self._linear(h, pre + "ffn.expand"))
            x = x + self._linear(h, pre + "ffn.reduce")

        h = self._norm(x, "head.norm")
        pooled = h.mean(axis=1)
        flatb = self.params["head.classifier.bias"]
        logits = matmul(pooled, self.params["head.classifier.weight"]) + flatb
        return logits

    def to_checkpoint(self, masks: dict[str, np.ndarray] | None = None,
                      metadata: dict | None = None) -> Checkpoint:
        arrays = {n: p.data.copy() for n, p in self.params.items()}
        return Checkpoint(
            config=self.config.to_dict(),
            params=arrays,
            masks=None if masks is None else {n: m.copy() for n, m in masks.items()},
            metadata=dict(metadata or {}),
        )


def encoder_from_checkpoint(ckpt: Checkpoint, requires_grad: bool = True) -> TinyEncoder:
    """The encoder a checkpoint holds, its config checked field by field."""
    config = _value(TinyEncoderConfig, ckpt.config, "config")
    params = {
        name: Tensor(arr.copy(), requires_grad=requires_grad)
        for name, arr in ckpt.params.items()
    }
    return TinyEncoder(config, params)


# predict's batches of 64 rows keep a layer's activations within a core's L2
# cache: ~28% faster than 256 on a 2-vCPU Xeon (1024 rows, default config).
_PREDICT_BATCH = 64

# This process's evaluation pool as (pid, workers, executor), made on first
# use. A forked child sees a pid that is not its own and makes its own pool.
_pool: tuple[int, int, ProcessPoolExecutor] | None = None


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_init(parent: int) -> None:
    """Leave Ctrl-C to the caller, and exit when the caller dies, even by a
    signal that runs none of its exit handlers. (Linux sends the signal when
    the thread that made the pool ends: a pool made on a short-lived thread
    breaks with it, and the next call starts a fresh one.)"""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    pr_set_pdeathsig = 1
    prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _one_blas_thread() -> None:
    """Set each OpenBLAS this process loaded to one thread; a no-op for
    another BLAS.

    The encoder's matrices are too small for a second BLAS thread to pay,
    and an idle OpenBLAS thread spins on a core that a pool worker needs:
    with two BLAS threads each in the caller and its worker, 1024 rows took
    0.35-0.9 s against 0.28 s serial on a 2-vCPU host (0.15 s with one)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in fh}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _executor() -> ProcessPoolExecutor:
    """The pool of one worker per CPU, made now if this process has none of
    that size. Forking costs no import, and a worker reads only the
    arguments of each call; it inherits the one BLAS thread set here. The
    pool shuts down when the interpreter exits."""
    global _pool
    key = (os.getpid(), _cpu_count())
    if _pool is None or _pool[:2] != key:
        if _pool is not None and _pool[0] == key[0]:
            _pool[2].shutdown()
        _one_blas_thread()
        _pool = (*key, ProcessPoolExecutor(
            key[1], mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init, initargs=(key[0],)))
    return _pool[2]


@contextlib.contextmanager
def _resetting_a_broken_pool():
    """Let BrokenProcessPool through, and make the next use start a fresh
    pool: a worker that died breaks the whole pool."""
    global _pool
    try:
        yield
    except BrokenProcessPool:
        _pool = None
        raise


def _predict_batches(model: TinyEncoder, tokens: np.ndarray) -> np.ndarray:
    """The serial loop: each 64-row batch's forward, in order."""
    out = np.empty((tokens.shape[0], model.config.num_classes))
    for start in range(0, tokens.shape[0], _PREDICT_BATCH):
        rows = slice(start, start + _PREDICT_BATCH)
        out[rows] = model.forward(tokens[rows]).data
    return out


def _predict_share(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                   tokens: np.ndarray) -> np.ndarray:
    """A pool worker's share of the rows, from its arguments alone. The
    arrays are wrapped as the caller holds them, with no finiteness check
    the caller's own loop would not make."""
    model = TinyEncoder(config, {n: _unchecked(a) for n, a in params.items()})
    return _predict_batches(model, tokens)


def _submit(config: TinyEncoderConfig, params: dict[str, np.ndarray],
            tokens: np.ndarray) -> Future:
    """``_predict_share`` of ``tokens`` in the pool. The arrays are pickled
    later, on the pool's feeder thread: they must not change until the
    future is done."""
    with _resetting_a_broken_pool():
        return _executor().submit(_predict_share, config, params, tokens)


def _result(future: Future) -> np.ndarray:
    """The logits of a ``_submit`` future, or its worker's exception."""
    with _resetting_a_broken_pool():
        return future.result()


def predict(model: TinyEncoder, tokens: np.ndarray) -> np.ndarray:
    """Logits [rows, num_classes] as a plain array, computed in batches.

    Call it off-tape: nothing here is differentiated. Each row's logits do
    not depend on the batch it is in, so the result is bitwise the forward
    of any subset of the rows.

    The 64-row batches are split into contiguous shares, one for each CPU
    the process may run on (``os.sched_getaffinity``). The caller computes
    the first share; each other share goes to a worker of the pool, which
    has one worker per CPU (so one sits idle here; ``Evaluations`` keeps it
    busy) and runs the same loop on the same batches, so the bytes do not
    depend on the CPU count. One CPU, or a single batch, runs the serial
    loop and starts no process: ``taskset -c 0`` gives the serial path. A
    worker's exception is raised here; a worker that died raises
    BrokenProcessPool, and the next call starts a fresh pool."""
    tokens = np.asarray(tokens)
    n = tokens.shape[0]
    batches = -(-n // _PREDICT_BATCH)
    shares = min(_cpu_count(), batches)
    if shares < 2:
        return _predict_batches(model, tokens)
    cuts = [_PREDICT_BATCH * (batches * i // shares) for i in range(shares)] + [n]
    params = {name: p.data for name, p in model.params.items()}
    futures = [_submit(model.config, params, tokens[lo:hi])
               for lo, hi in zip(cuts[1:], cuts[2:])]
    head = _predict_batches(model, tokens[:cuts[1]])
    return np.concatenate([head] + [_result(f) for f in futures])


def _checked_rows(tokens, labels) -> tuple[np.ndarray, np.ndarray]:
    tokens = np.asarray(tokens)
    labels = np.asarray(labels)
    if tokens.shape[0] != labels.shape[0]:
        raise ValueError(
            f"tokens and labels disagree: {tokens.shape[0]} vs {labels.shape[0]} rows"
        )
    return tokens, labels


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """The share of rows whose argmax logit is the label."""
    return int((logits.argmax(axis=-1) == labels).sum()) / labels.shape[0]


def evaluate(model: TinyEncoder, tokens: np.ndarray, labels: np.ndarray) -> float:
    """Plain accuracy: the share of rows whose argmax logit is the label."""
    tokens, labels = _checked_rows(tokens, labels)
    return _accuracy(predict(model, tokens), labels)


class Evaluations:
    """``evaluate`` of snapshots of a model on one split, run while the
    caller goes on, and collected in the order they were submitted.

    On more than one CPU, ``submit`` copies the parameters (the caller goes
    on changing them in place) and hands the whole split to one pool worker.
    At most one evaluation per worker is pending: a further ``submit`` first
    waits for the oldest. Each accuracy comes from the worker's logits
    through the helper ``evaluate`` uses, so the values equal its values.
    On one CPU, ``submit`` evaluates inline and starts no process.

    A worker's exception is raised when its evaluation is collected: by
    ``accuracies``, or by a ``submit`` that waits for it. ``cancel`` drops
    the evaluations no worker has started; a caller that leaves early calls
    it, and the pool stays usable."""

    def __init__(self, tokens: np.ndarray, labels: np.ndarray):
        self.tokens, self.labels = _checked_rows(tokens, labels)
        self._workers = _cpu_count()
        self._done: list[float] = []
        self._pending: collections.deque[Future] = collections.deque()

    def submit(self, model: TinyEncoder) -> None:
        if self._workers < 2:
            self._done.append(evaluate(model, self.tokens, self.labels))
            return
        if len(self._pending) >= self._workers:
            self._collect_oldest()
        snapshot = {name: p.data.copy() for name, p in model.params.items()}
        self._pending.append(_submit(model.config, snapshot, self.tokens))

    def _collect_oldest(self) -> None:
        logits = _result(self._pending[0])
        self._pending.popleft()
        self._done.append(_accuracy(logits, self.labels))

    def accuracies(self) -> list[float]:
        """Every submitted evaluation's accuracy, in submission order."""
        while self._pending:
            self._collect_oldest()
        return self._done

    def cancel(self) -> None:
        for future in self._pending:
            future.cancel()
        self._pending.clear()
