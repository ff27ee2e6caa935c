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
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import pool
from .checkpoint import Checkpoint, _value
from .tensor import (
    Tensor,
    embedding,
    gelu,
    layer_norm,
    matmul,
    softmax,
    _checked_ids,
    _gelu_cdf,
    _gelu_slope,
    _gelu_tanh,
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


def encoder_from_checkpoint(ckpt: Checkpoint) -> TinyEncoder:
    """The encoder a checkpoint holds, its config checked field by field.
    Its parameters are copies, as trainable as a built encoder's."""
    config = _value(TinyEncoderConfig, ckpt.config, "config")
    params = {name: Tensor(arr.copy(), requires_grad=True)
              for name, arr in ckpt.params.items()}
    return TinyEncoder(config, params)


def _arrays(model: TinyEncoder) -> dict[str, np.ndarray]:
    """The model's parameter arrays by name: the buffers its Tensors hold,
    so what changes them in place changes the model."""
    return {name: p.data for name, p in model.params.items()}


# predict's batch of 64 rows. On the lean forward, 1,024 rows of the desk
# teacher took 0.125 s at 32 and at 64 rows and 0.129 s at 128 (medians of
# 15, one process on a shared 2-vCPU host). The size also fixes the bytes:
# a batch of one row takes another BLAS path (see ``predict``).
_PREDICT_BATCH = 64


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
# ``_linear`` flattens them. What keeps the bytes: GELU calls the tape op's
# own helpers (``_gelu_tanh``: ``u * u * u * a + u``, ``* c``, tanh; then
# ``_gelu_cdf``: ``(t + 1) * 0.5``; then ``u * cdf``); layer norm keeps
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
# GELU's derivative with the tape backward's helpers (``_gelu_slope``:
# ``1 - t * t``, ``* u``, ``* c``, ``* (1 + 3a * u**2)``, ``* 0.5``; then
# ``+= cdf``), and the backward recomputes each norm1 and norm2 output from
# its cached ``y`` as the forward made it (``y * gain``, then ``+= bias``).

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


def _layer0_table(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                  tokens: np.ndarray) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """Layer 0 up to attention (the embedding sum, norm1, then q, k and v)
    depends on a token's (position, token) pair only: q, k and v for every
    pair of the call's positions, row ``position * vocab_size + token``,
    and each of the checked ``tokens``' row in them. (None, None) where the
    call gets no table: for length-1 sequences, and where the pair space
    (``seq * vocab_size`` rows, 2 or more) exceeds the call's tokens, so
    the table stays within the call."""
    n, seq = tokens.shape
    vocab = config.vocab_size
    if seq < 2 or vocab > n:
        return None, None
    x = (params["embedding.token.weight"]
         + params["embedding.position.weight"][:seq, None]).reshape(
             seq * vocab, config.hidden_dim)
    ids = tokens.astype(np.intp) + np.arange(seq, dtype=np.intp) * vocab
    return _lean_qkv(params, x, "encoder.layer0."), ids


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
    temporary once its last reader has run. In the FFN, ``predict`` holds two
    FFN-wide arrays, the input and ``t`` turned into the CDF in place;
    training holds up to two more while it forms the derivative, which it
    keeps, and ``1 + 3a * u**2``, which it drops."""
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
        t = _gelu_tanh(h)
        if cache is None:
            cdf = _gelu_cdf(t, out=t)
        else:
            # GELU's derivative, by the tape backward's ops
            dgelu = _gelu_slope(h, t)
            cdf = _gelu_cdf(t, out=t)
            dgelu += cdf
            cache.append(dgelu)
        h *= cdf
        del t, cdf
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
    KD step peaks at 54.3 MiB under ``tracemalloc``, at the last layer's
    GELU; the cache holds 46.3 MiB after the forward."""
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
        gu *= dgelu  # GELU: g times its derivative, formed by the forward
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


def _predict_rows(config: TinyEncoderConfig, params: dict[str, np.ndarray],
                  tokens: np.ndarray) -> np.ndarray:
    """Logits of checked ``tokens``, 64-row batch by 64-row batch, from the
    arrays alone: the lean forward of each batch, with layer 0 up to
    attention gathered from the call's ``_layer0_table`` where it has one.
    ``predict`` runs it, and so does an ``Evaluations`` worker.

    It checks nothing: ``predict`` and ``Evaluations`` check the tokens
    first. Like ``forward``, it makes no finiteness check of the parameters.
    It records nothing on any tape.

    Bitwise rules. Every matmul from layer 0's attention on runs on the
    64-row batches ``forward`` would, so its row counts do not depend on the
    table. The table's Q/K/V matmuls run on every (position, token) pair of
    the call's positions, 2 or more rows, where ``forward`` runs its batch's
    tokens: equal bytes there rest on BLAS giving a row the same bits at any
    row count of 2 or more.
    On numpy's OpenBLAS 0.3.31 (x86-64 Xeon, Haswell kernels, 1 and 2
    threads) that holds for 16-, 32-, 64- and 128-wide projections at 2 to
    4,096 rows, and for 64-wide ones at up to 65,536; one row takes another
    path and differs. It is no general rule: a 64 x 4 matmul, the head's
    shape, changes path at 3,907 rows. Length-1 sequences get no table:
    there a batch of one row must take the 1-row path, which a table's
    matmul of ``vocab_size`` rows does not."""
    n = tokens.shape[0]
    out = np.empty((n, config.num_classes))
    table, index = _layer0_table(config, params, tokens)
    for start in range(0, n, _PREDICT_BATCH):
        rows = slice(start, start + _PREDICT_BATCH)
        layer0 = (None if table is None
                  else [a[index[rows].ravel()] for a in table])
        out[rows] = _lean_forward(config, params, tokens[rows], layer0)
    return out


def predict(model: TinyEncoder, tokens: np.ndarray) -> np.ndarray:
    """Logits [rows, num_classes] as a plain array, computed in batches of
    64 rows by the lean forward (``_predict_rows``): bitwise
    ``model.forward`` of each batch, with no tape, and the same checks and
    messages on the tokens. It records nothing on an active tape and starts
    no process.

    A row's logits do not depend on the other rows of its batch as long as
    the batch has two or more rows; a batch of one row takes another BLAS
    path and may differ in the last bits. So ``predict(model, tokens[:n])``
    equals ``predict(model, tokens)[:n]`` unless ``n`` leaves a last batch
    of one row (n = 1, 65, 129, ...). Calls of ``vocab_size`` rows or more
    with sequences of 2 or more tokens compute layer 0's Q/K/V once per
    (position, token) pair of the call's positions; that this equals the
    batch's own rows rests on the BLAS rule ``_predict_rows`` names."""
    tokens = _checked_tokens(model.config, tokens)
    return _predict_rows(model.config, _arrays(model), tokens)


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
        self._workers = pool.cpu_count()
        self._done: list[float] = []
        self._pending: collections.deque = collections.deque()

    def submit(self, model: TinyEncoder) -> None:
        if self._workers < 2:
            self._done.append(evaluate(model, self.tokens, self.labels))
            return
        tokens = _checked_tokens(model.config, self.tokens)
        if len(self._pending) >= self._workers:
            self._collect_oldest()
        snapshot = {name: p.data.copy() for name, p in model.params.items()}
        self._pending.append(pool.submit(_predict_rows, model.config, snapshot, tokens))

    def _collect_oldest(self) -> None:
        logits = pool.result(self._pending[0])
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
