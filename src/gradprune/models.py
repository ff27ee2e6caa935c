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
from scipy.special import erf

from .checkpoint import Checkpoint, _value
from .tensor import (
    Tensor,
    embedding,
    gelu,
    layer_norm,
    matmul,
    softmax,
    _INV_SQRT_2PI,
    _SQRT2,
    _checked_ids,
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
        tokens = _checked_shape(self.config, tokens)
        batch, seq = tokens.shape
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


# predict's batch of 64 rows. On the lean forward, 1,024 rows of the desk
# teacher took 0.125 s at 32 and at 64 rows and 0.129 s at 128 (medians of
# 15, one process on a shared 2-vCPU host). The size also fixes the bytes:
# a batch of one row takes another BLAS path (see ``predict``).
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


def _checked_shape(config: TinyEncoderConfig, tokens) -> np.ndarray:
    """``tokens`` as an array, after ``TinyEncoder.forward``'s checks: 2-D,
    no longer than ``max_sequence_length``."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    if tokens.shape[1] > config.max_sequence_length:
        raise ValueError(
            f"sequence length {tokens.shape[1]} exceeds maximum "
            f"{config.max_sequence_length}"
        )
    return tokens


def _checked_tokens(config: TinyEncoderConfig, tokens) -> np.ndarray:
    """``tokens`` after the checks ``forward`` makes and then ``embedding``
    makes of the ids, with their messages. The lean forward checks nothing:
    ``predict`` and ``Evaluations`` check the tokens on the way in."""
    return _checked_ids(_checked_shape(config, tokens), config.vocab_size)


# The lean forward below is ``TinyEncoder.forward`` in plain numpy: the same
# ufuncs and matmuls on the same operands, in the same order, most of them in
# place on arrays it owns (IEEE + and x are commutative, so ``x += y`` gives
# the bytes of ``x + y``). Activations stay 2-D, [rows * seq, features], as
# ``_linear`` flattens them. What keeps the bytes: GELU divides by sqrt(2)
# (multiplying by its reciprocal rounds differently); layer norm keeps
# ``layer_norm``'s order (mean, subtract, mean of squares, + 1e-5, sqrt,
# reciprocal, multiply) before gain and bias; scores are (q @ k^T) * scale on
# the transposed views the tape forward passes to matmul.
#
# The lean backward does what ``Tape.backward`` does to the tape of that
# forward, op by op in reverse, with the tape ops' formulas on the same
# operands (the same transposed views into each matmul, at the same row
# counts), in place where it owns the array. Every gradient sum has two
# terms, whose order does not change the bits, except at norm1's output,
# which the tape sums as (value + key) + query. Two kinds of array it reads
# are made elsewhere, by the same ops in the same order: the forward forms
# GELU's derivative, cdf + u * pdf, with the tape backward's ops, and the
# backward recomputes each norm1 and norm2 output from its cached ``y`` as
# the forward made it (``y * gain``, then ``+= bias``).

def _lean_linear(params: dict[str, np.ndarray], x: np.ndarray, name: str) -> np.ndarray:
    y = x @ params[name + ".weight"]
    y += params[name + ".bias"]
    return y


def _lean_norm(params: dict[str, np.ndarray], x: np.ndarray, name: str,
               cache: list | None = None) -> np.ndarray:
    """``layer_norm`` then gain and bias, in ``layer_norm``'s order; with a
    ``cache``, it appends the normalized ``y`` and ``inv``."""
    xc = x - x.mean(axis=-1, keepdims=True)
    sq = xc * xc
    inv = sq.mean(axis=-1, keepdims=True)
    del sq
    inv += 1e-5
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xc *= inv
    if cache is None:
        xc *= params[name + ".gain"]
    else:
        cache += (xc, inv)
        xc = xc * params[name + ".gain"]
    xc += params[name + ".bias"]
    return xc


def _lean_qkv(params: dict[str, np.ndarray], x: np.ndarray, pre: str,
              cache: list | None = None) -> list[np.ndarray]:
    """norm1 and the query, key and value projections of a layer; with a
    ``cache``, it appends norm1's ``y`` and ``inv``."""
    h = _lean_norm(params, x, pre + "norm1", cache)
    return [_lean_linear(params, h, pre + f"attention.{proj}")
            for proj in ("query", "key", "value")]


def _pair_ids(config: TinyEncoderConfig, tokens: np.ndarray) -> np.ndarray:
    """Each token's (position, token) pair as ``position * vocab_size +
    token``."""
    seq = tokens.shape[1]
    return tokens.astype(np.intp) + np.arange(seq, dtype=np.intp) * config.vocab_size


def _table_pairs(config: TinyEncoderConfig, tokens: np.ndarray) -> np.ndarray | None:
    """The distinct pairs of a call's checked tokens, sorted: the rows of its
    layer-0 table. None where the call gets no table: for length-1
    sequences, and where the pair space (``seq * vocab_size``) exceeds the
    call's tokens, so the presence mask and the table stay within the call."""
    n, seq = tokens.shape
    if seq < 2 or config.vocab_size > n:
        return None
    present = np.zeros(seq * config.vocab_size, dtype=bool)
    present[_pair_ids(config, tokens)] = True
    return np.flatnonzero(present)


def _layer0_table(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                  pairs: np.ndarray,
                  tokens: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Layer 0 up to attention (the embedding sum, norm1, then q, k and v)
    depends on a token's (position, token) pair only: q, k and v for each
    of the call's ``pairs`` (``_table_pairs``), and the row in them of each
    of ``tokens``, a share of that call. Every row of the call holds
    positions 0 and 1, so the table has at least two rows."""
    vocab = config.vocab_size
    row_of = np.empty(tokens.shape[1] * vocab, dtype=np.intp)
    row_of[pairs] = np.arange(pairs.size)
    x = (params["embedding.token.weight"][pairs % vocab]
         + params["embedding.position.weight"][pairs // vocab])
    return _lean_qkv(params, x, "encoder.layer0."), row_of[_pair_ids(config, tokens)]


def _lean_forward(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                  tokens: np.ndarray, layer0: list[np.ndarray] | None,
                  cache: list | None = None) -> np.ndarray:
    """Logits of one batch of checked tokens; ``layer0`` holds the batch's
    rows of the layer-0 table (q, k and v, gathered [rows * seq, hidden]),
    or is None.

    With ``cache`` a list (training passes one, with ``layer0`` None), the
    forward appends, in forward order, only the arrays ``_lean_backward``
    reads: each norm's ``y`` and ``inv``; each layer's attention views
    ``q4``, ``kT`` and ``v4``, the softmax probabilities and ``ctx``, then
    GELU's derivative and its output; and ``pooled``. The backward
    recomputes the norm outputs from ``y``, so the forward scales a cached
    ``y`` into a new array where ``predict`` scales it in place. Both paths
    write the GELU output in place over its input, and both drop each
    temporary once its last reader has run."""
    batch, seq = tokens.shape
    heads = config.num_heads
    head_dim = config.hidden_dim // heads
    scale = 1.0 / math.sqrt(head_dim)
    split = (batch, seq, heads, head_dim)
    x = params["embedding.token.weight"][tokens]
    x += params["embedding.position.weight"][:seq]
    x = x.reshape((batch * seq, config.hidden_dim))
    for i in range(config.num_layers):
        pre = f"encoder.layer{i}."
        if i == 0 and layer0 is not None:
            q, k, v = layer0
        else:
            q, k, v = _lean_qkv(params, x, pre, cache)
        q, k, v = (a.reshape(split).transpose((0, 2, 1, 3)) for a in (q, k, v))
        k = k.transpose((0, 1, 3, 2))
        scores = q @ k
        scores *= scale
        # the row max, one key column at a time: exact, as max does not
        # round, and several times faster than max(axis=-1) on 16-wide rows
        top = scores[..., 0].copy()
        for j in range(1, seq):
            np.maximum(top, scores[..., j], out=top)
        scores -= top[..., None]
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx = (scores @ v).transpose((0, 2, 1, 3)).reshape((batch * seq, config.hidden_dim))
        if cache is not None:
            cache += (q, k, v, scores, ctx)
        del q, k, v, scores
        x += _lean_linear(params, ctx, pre + "attention.output")
        del ctx

        h = _lean_norm(params, x, pre + "norm2", cache)
        h = _lean_linear(params, h, pre + "ffn.expand")
        cdf = h / _SQRT2
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        if cache is not None:
            # GELU's derivative, cdf + u * pdf, by the tape backward's ops
            dgelu = -0.5 * h
            dgelu *= h
            np.exp(dgelu, out=dgelu)
            dgelu *= _INV_SQRT_2PI
            dgelu *= h
            dgelu += cdf
            cache.append(dgelu)
        h *= cdf
        del cdf
        if cache is not None:
            cache.append(h)
        x += _lean_linear(params, h, pre + "ffn.reduce")

    h = _lean_norm(params, x, "head.norm", cache)
    pooled = h.reshape((batch, seq, config.hidden_dim)).mean(axis=1)
    if cache is not None:
        cache.append(pooled)
    return _lean_linear(params, pooled, "head.classifier")


def _linear_backward(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                     name: str, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A linear layer's weight and bias gradients, into ``grads``, from its
    input ``x`` and output gradient ``g``; returns the input's gradient."""
    grads[name + ".weight"] = np.swapaxes(x, -1, -2) @ g
    grads[name + ".bias"] = g.sum(axis=(0,))
    return g @ np.swapaxes(params[name + ".weight"], -1, -2)


def _norm_backward(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   name: str, cache: list, g: np.ndarray, batch: int) -> np.ndarray:
    """A norm's gain and bias gradients, into ``grads``, from its output
    gradient ``g`` [rows * seq, hidden], which it overwrites with the
    input's gradient and returns. It pops ``inv`` and ``y`` off ``cache``.
    Gain and bias sum over the [rows, seq, hidden] shape the tape sums."""
    inv, y = cache.pop(), cache.pop()
    shape = (batch, g.shape[0] // batch, g.shape[1])
    grads[name + ".bias"] = g.reshape(shape).sum(axis=(0, 1))
    gy = g * y
    grads[name + ".gain"] = gy.reshape(shape).sum(axis=(0, 1))
    g *= params[name + ".gain"]
    np.multiply(g, y, out=gy)
    gym = gy.mean(axis=-1, keepdims=True)
    g -= g.mean(axis=-1, keepdims=True)
    np.multiply(y, gym, out=gy)
    g -= gy
    g *= inv
    return g


def _norm_output(params: dict[str, np.ndarray], cache: list, name: str) -> np.ndarray:
    """A norm's output, recomputed by the forward's two ops from the ``y``
    that ``_lean_norm`` cached, now under ``inv`` at the end of ``cache``."""
    h = cache[-2] * params[name + ".gain"]
    h += params[name + ".bias"]
    return h


def _lean_backward(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                   tokens: np.ndarray, g_logits: np.ndarray,
                   cache: list) -> dict[str, np.ndarray]:
    """Every parameter's gradient, by name, from the loss's gradient in the
    logits and the ``cache`` that ``_lean_forward`` filled on the same
    ``tokens`` and ``params``: bitwise what ``Tape.backward`` assigns to
    the leaves of ``TinyEncoder.forward``'s tape. It pops each cache entry
    as it reads it and drops each array after its last read, so activations
    are freed as the backward goes, and leaves the cache empty. A batch-256
    KD step peaks at 50.4 MiB under ``tracemalloc``; the cache holds 46.3
    MiB of that after the forward."""
    batch, seq = tokens.shape
    d = config.hidden_dim
    heads = config.num_heads
    split = (batch, seq, heads, d // heads)
    scale = 1.0 / math.sqrt(d // heads)
    grads: dict[str, np.ndarray] = {}

    g = _linear_backward(params, grads, "head.classifier", cache.pop(), g_logits)
    g = np.broadcast_to(np.expand_dims(g, 1) / seq, (batch, seq, d)).copy()
    g = _norm_backward(params, grads, "head.norm", cache, g.reshape((batch * seq, d)), batch)
    for i in reversed(range(config.num_layers)):
        pre = f"encoder.layer{i}."
        act, dgelu = cache.pop(), cache.pop()
        gu = _linear_backward(params, grads, pre + "ffn.reduce", act, g)
        del act
        gu *= dgelu  # GELU: g * (cdf + u * pdf), formed by the forward
        del dgelu
        gh = _linear_backward(params, grads, pre + "ffn.expand",
                              _norm_output(params, cache, pre + "norm2"), gu)
        del gu
        g += _norm_backward(params, grads, pre + "norm2", cache, gh, batch)

        ctx, p, v, k, q = (cache.pop() for _ in range(5))
        gc = _linear_backward(params, grads, pre + "attention.output", ctx, g)
        del ctx
        gc = gc.reshape(split).transpose((0, 2, 1, 3))
        gp = gc @ np.swapaxes(v, -1, -2)
        gv = np.swapaxes(p, -1, -2) @ gc
        del gc
        # softmax: p * (g - (g * p).sum(-1)), then the score scale
        gpp = gp * p
        gp -= gpp.sum(axis=-1, keepdims=True)
        del gpp
        gp *= p
        del p
        gp *= scale
        gq = gp @ np.swapaxes(k, -1, -2)
        gk = np.swapaxes(q, -1, -2) @ gp
        del gp
        rows = (batch * seq, d)
        gq = gq.transpose((0, 2, 1, 3)).reshape(rows)
        gk = gk.transpose((0, 3, 1, 2)).reshape(rows)
        gv = gv.transpose((0, 2, 1, 3)).reshape(rows)
        h = _norm_output(params, cache, pre + "norm1")
        gh = _linear_backward(params, grads, pre + "attention.value", h, gv)
        gh += _linear_backward(params, grads, pre + "attention.key", h, gk)
        gh += _linear_backward(params, grads, pre + "attention.query", h, gq)
        del gq, gk, gv, h
        g += _norm_backward(params, grads, pre + "norm1", cache, gh, batch)

    g = g.reshape((batch, seq, d))
    gpos = np.zeros(params["embedding.position.weight"].shape)
    gpos[:seq] += g.sum(axis=(0,))
    grads["embedding.position.weight"] = gpos
    # bincount sums each bin in index order from 0.0, as the tape's row-wise
    # add.at does: the same bytes, several times faster than a flat add.at
    table = params["embedding.token.weight"]
    flat = tokens.astype(np.intp)[..., None] * d + np.arange(d)
    grads["embedding.token.weight"] = np.bincount(
        flat.ravel(), weights=g.ravel(), minlength=table.size).reshape(table.shape)
    return grads


def _predict_share(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                   tokens: np.ndarray, pairs: np.ndarray | None) -> np.ndarray:
    """Logits of checked ``tokens``, 64-row batch by 64-row batch, from the
    arrays alone: the lean forward of each batch. A pool worker runs it on
    its share of a call, and the caller on its own. ``pairs`` are the whole
    call's ``_table_pairs``, so every share builds the same layer-0 table,
    of the same row count, at any CPU count; with None, layer 0 runs batch
    by batch as the rest does.

    It checks nothing: ``predict`` and ``Evaluations`` check the tokens
    first. Like ``forward``, it makes no finiteness check of the parameters.
    It records nothing on any tape.

    Bitwise rules. Every matmul from layer 0's attention on runs on the
    64-row batches ``forward`` would, so its row counts do not depend on the
    CPU count or on the table. The table's Q/K/V matmuls run on the call's
    distinct pairs, 2 or more rows, where ``forward`` runs its batch's
    tokens: equal bytes there rest on BLAS giving a row the same bits at
    any row count of 2 or more. On numpy's OpenBLAS 0.3.31 (x86-64 Xeon,
    Haswell kernels, 1 and 2 threads) that holds for 16-, 32-, 64- and
    128-wide projections at 2 to 4,096 rows, and for 64-wide ones at up to
    65,536; one row takes another path and differs. It is no general rule:
    a 64 x 4 matmul, the head's shape, changes path at 3,907 rows.
    Length-1 sequences get no table: there a batch of one row must take the
    1-row path, and a table of one distinct token must not."""
    n = tokens.shape[0]
    out = np.empty((n, config.num_classes))
    table, index = ((None, None) if pairs is None
                    else _layer0_table(config, params, pairs, tokens))
    for start in range(0, n, _PREDICT_BATCH):
        rows = slice(start, start + _PREDICT_BATCH)
        layer0 = (None if table is None
                  else [a[index[rows].ravel()] for a in table])
        out[rows] = _lean_forward(config, params, tokens[rows], layer0)
    return out


def _submit(config: TinyEncoderConfig, params: dict[str, np.ndarray],
            tokens: np.ndarray, pairs: np.ndarray | None) -> Future:
    """``_predict_share`` of ``tokens`` in the pool. The arrays are pickled
    later, on the pool's feeder thread: they must not change until the
    future is done."""
    with _resetting_a_broken_pool():
        return _executor().submit(_predict_share, config, params, tokens, pairs)


def _result(future: Future) -> np.ndarray:
    """The logits of a ``_submit`` future, or its worker's exception."""
    with _resetting_a_broken_pool():
        return future.result()


def predict(model: TinyEncoder, tokens: np.ndarray) -> np.ndarray:
    """Logits [rows, num_classes] as a plain array, computed in batches of
    64 rows by the lean forward (``_predict_share``): bitwise
    ``model.forward`` of each batch, with no tape, and the same checks and
    messages on the tokens. It records nothing on an active tape.

    A row's logits do not depend on the other rows of its batch as long as
    the batch has two or more rows; a batch of one row takes another BLAS
    path and may differ in the last bits. So ``predict(model, tokens[:n])``
    equals ``predict(model, tokens)[:n]`` unless ``n`` leaves a last batch
    of one row (n = 1, 65, 129, ...). Calls of ``vocab_size`` rows or more
    with sequences of 2 or more tokens compute layer 0's Q/K/V once per
    distinct (position, token) pair of the call; that this equals the
    batch's own rows rests on the BLAS rule ``_predict_share`` names.

    The 64-row batches are split into contiguous shares, one for each CPU
    the process may run on (``os.sched_getaffinity``). The caller computes
    the first share; each other share goes to a worker of the pool, which
    has one worker per CPU (so one sits idle here; ``Evaluations`` keeps it
    busy) and runs the same loop on the same batches with the same layer-0
    table, so the bytes do not depend on the CPU count. One CPU, or a
    single batch, runs the serial loop and starts no process:
    ``taskset -c 0`` gives the serial path. A
    worker's exception is raised here; a worker that died raises
    BrokenProcessPool, and the next call starts a fresh pool."""
    config = model.config
    tokens = _checked_tokens(config, tokens)
    params = {name: p.data for name, p in model.params.items()}
    pairs = _table_pairs(config, tokens)
    n = tokens.shape[0]
    batches = -(-n // _PREDICT_BATCH)
    shares = min(_cpu_count(), batches)
    if shares < 2:
        return _predict_share(config, params, tokens, pairs)
    cuts = [_PREDICT_BATCH * (batches * i // shares) for i in range(shares)] + [n]
    futures = [_submit(config, params, tokens[lo:hi], pairs)
               for lo, hi in zip(cuts[1:], cuts[2:])]
    head = _predict_share(config, params, tokens[:cuts[1]], pairs)
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

    ``submit`` checks the tokens as ``predict`` does, so a bad token raises
    there. On more than one CPU, it copies the parameters (the caller goes
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
        tokens = _checked_tokens(model.config, self.tokens)
        if len(self._pending) >= self._workers:
            self._collect_oldest()
        snapshot = {name: p.data.copy() for name, p in model.params.items()}
        self._pending.append(_submit(model.config, snapshot, tokens,
                                     _table_pairs(model.config, tokens)))

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
