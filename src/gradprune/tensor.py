"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Everything here is double precision on purpose: the point of this package is
desk-scale experiments whose results can be checked bit-for-bit, so we trade
speed for exactness. Operations record themselves on the active ``Tape`` in
execution order, and ``backward`` replays that list in reverse.

Every op computes its output and hands it to one recorder, ``_output``, with
its inputs and a gradient function. A recorded op is one tape node: targets
plus gradient function. The targets say where each input's gradient goes;
the gradient function maps the output's gradient to one gradient per input
and keeps only what that formula reads: a few arrays and the shapes it
un-broadcasts to. It never keeps its input or output Tensors, so an
activation no backward reads is freed as soon as the forward pass moves on.
Gradients reach ``.grad`` on leaves only (tensors the loss depends on that
the tape did not produce) and are *assigned* (not accumulated) there at the
end of a backward pass, so calling ``backward`` twice from the same tape
state yields bitwise-identical gradients.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np


def _keep_freed_arrays_mapped() -> bool:
    """Serve the 1-8 MB activation arrays from a heap glibc does not trim.

    With glibc's defaults, a training step's freed activations are trimmed
    from the heap top (or unmapped), so the next evaluation page-faults the
    same memory back in; that costs about a quarter of a ``downstream-10ep``
    run. Arrays under 32 MiB now come from the heap, and up to 256 MiB of
    free heap top is kept. Peak RSS is unchanged. A no-op off glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 256 << 20))


_keep_freed_arrays_mapped()

# GELU's tanh form, as BERT computes it (Hendrycks & Gimpel 2016):
# gelu(u) = 0.5 * u * (1 + tanh(c * (u + a * u**3))), c = sqrt(2 / pi)
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# The tape currently recording operations, if any. Exactly one may be active;
# training code owns one tape per step.
_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """A float64 ndarray plus a gradient slot.

    ``data`` is always a float64 ndarray (scalars become 0-d arrays). ``grad``
    is ``None`` until a backward pass assigns it, which it does for leaves
    only. Tensors are created eagerly; whether an op is recorded depends on
    the active tape and ``requires_grad`` of the inputs. An op output that was
    recorded knows its tape and its node index there.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_index")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: Tape | None = None
        self._index = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all the real work lives in module-level functions.

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def sum(self) -> "Tensor":
        return reduce_sum(self)

    def mean(self, axis: int) -> "Tensor":
        return reduce_mean(self, axis)


class Tape:
    """Ordered record of operations for one forward pass.

    Use as a context manager around the forward computation:

        with Tape() as tape:
            loss = ...
        backward(loss)

    Only one tape may be active at a time; nesting is a bug and raises.
    Each recorded op is one node: targets plus gradient function. A target
    is where one input's gradient goes: the node index of an output of this
    tape, the Tensor itself for a leaf, or None when it needs no gradient.
    Gradients pass between ops by node index, so the only Tensors the tape
    holds are leaves.
    """

    def __init__(self):
        self._nodes: list[tuple[tuple, Callable]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Run reverse-mode accumulation from ``loss`` back to the leaves.

        ``loss`` must be a scalar produced while this tape was active. Each
        gradient is summed over all its uses in a fixed order. Leaves, the
        tensors the loss depends on that this tape did not produce, get their
        sum assigned to ``.grad``; repeating the call reproduces the same
        bytes. Intermediates get no ``.grad``: each one's gradient is freed as
        soon as its node has run.
        """
        if loss.data.ndim != 0:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        if loss._tape is not self:
            raise ValueError("loss was not produced on this tape")
        # running gradients, keyed by node index (intermediates) or Tensor (leaves)
        grads: dict = {loss._index: np.asarray(1.0)}
        for index in range(loss._index, -1, -1):
            if index not in grads:  # this output does not influence the loss
                continue
            targets, grad_fn = self._nodes[index]
            for target, g in zip(targets, grad_fn(grads.pop(index))):
                if target is None:
                    continue
                grads[target] = grads[target] + g if target in grads else g
        # Every node index has been popped: what is left are the leaves.
        for leaf, g in grads.items():
            leaf.grad = g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _unchecked(data) -> Tensor:
    """A Tensor around ``data`` without the finiteness check, off any tape."""
    out = object.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    out._tape = None
    out._index = -1
    return out


def _output(data, inputs: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    """The op's output, recorded on the active tape if an input needs a
    gradient. ``grad_fn(g)`` returns one gradient per input, in input order,
    and None for an input that needs none; off the tape it is dropped unused.

    Skips the finiteness check, so a diverging run is caught at the loss
    (with a step index) rather than deep inside the forward pass."""
    out = _unchecked(data)
    tape = _ACTIVE_TAPE
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    targets = tuple(
        (t._index if t._tape is tape else t) if t.requires_grad else None
        for t in inputs
    )
    out.requires_grad = True
    out._tape = tape
    out._index = len(tape._nodes)
    tape._nodes.append((targets, grad_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(
            f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None
    a_shape, b_shape = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    return _output(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a_shape) if need_a else None,
        _unbroadcast(g, b_shape) if need_b else None,
    ))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(
            f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None
    a_shape, b_shape = a.data.shape, b.data.shape
    # each input's gradient reads the other input
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    return _output(a.data * b.data, (a, b), lambda g: (
        None if b_data is None else _unbroadcast(g * b_data, a_shape),
        None if a_data is None else _unbroadcast(g * a_data, b_shape),
    ))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul: operands must be at least 2-D, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions disagree, {a.data.shape} @ {b.data.shape}"
        )
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise ValueError(
            f"matmul: batch dimensions do not broadcast, {a.data.shape} @ {b.data.shape}"
        ) from None
    a_shape, b_shape = a.data.shape, b.data.shape
    # each input's gradient reads the other input
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    return _output(out_data, (a, b), lambda g: (
        None if b_data is None
        else _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape),
        None if a_data is None
        else _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape),
    ))


def _gelu_tanh(u: np.ndarray) -> np.ndarray:
    """t = tanh(c * (u + a * u**3)), in a new array."""
    t = u * u
    t *= u
    t *= _GELU_A
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_cdf(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The CDF term 0.5 * (1 + t), into ``out`` (``t`` itself, in place)
    or a new array."""
    cdf = np.add(t, 1.0, out=out)
    cdf *= 0.5
    return cdf


def _gelu_slope(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's derivative less its CDF term, 0.5 * u * (1 - t**2) * c *
    (1 + 3a * u**2), in a new array, with one FFN-wide temporary (the last
    factor)."""
    d = t * t
    np.subtract(1.0, d, out=d)
    d *= u
    d *= _GELU_C
    w = u * u
    w *= 3.0 * _GELU_A
    w += 1.0
    d *= w
    d *= 0.5
    return d


def gelu(x: Tensor) -> Tensor:
    """GELU in BERT's tanh form: u * 0.5 * (1 + t), t = tanh(c * (u + a *
    u**3)), c = sqrt(2 / pi), a = 0.044715. It is within 4.73e-4 of the
    exact u * Phi(u) (the largest gap, near u = -2.70). The derivative is
    ``_gelu_slope`` plus the CDF term, the sum the lean training forward
    caches."""
    x = _as_tensor(x)
    u = x.data
    t = _gelu_tanh(u)

    def grad_fn(g):
        d = _gelu_slope(u, t)
        d += _gelu_cdf(t)
        return (g * d,)

    return _output(u * _gelu_cdf(t), (x,), grad_fn)


def layer_norm(x: Tensor) -> Tensor:
    """Normalize over the last axis: (x - mean) / sqrt(var + 1e-5).

    Affine gain/bias are separate parameters applied by the caller, which
    keeps this primitive easy to check against finite differences.
    """
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("layer_norm: input must have at least one axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = xc * inv

    def grad_fn(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _output(y, (x,), grad_fn)


def softmax(x: Tensor) -> Tensor:
    """Numerically-stable softmax over the last axis."""
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("softmax: input must have at least one axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    return _output(y, (x,), lambda g: (
        y * (g - (g * y).sum(axis=-1, keepdims=True)),
    ))


def log_softmax(x: Tensor) -> Tensor:
    """Numerically-stable log-softmax over the last axis."""
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("log_softmax: input must have at least one axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse
    return _output(y, (x,), lambda g: (
        g - np.exp(y) * g.sum(axis=-1, keepdims=True),
    ))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.data.size:
        raise ValueError(
            f"reshape: cannot reshape {x.data.shape} into {shape}"
        )
    x_shape = x.data.shape
    return _output(x.data.reshape(shape), (x,), lambda g: (g.reshape(x_shape),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(
            f"transpose: {axes} is not a permutation of axes for shape {x.data.shape}"
        )
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _output(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def _checked_ids(ids, rows: int) -> np.ndarray:
    """``ids`` as an array, after ``embedding``'s checks: integers in
    ``[0, rows)``. Numpy indexing would wrap a negative id silently."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ValueError(
            f"embedding: ids out of range [0, {rows}), "
            f"got min {ids.min()} max {ids.max()}"
        )
    return ids


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise ValueError(f"embedding: table must be 2-D, got {table.data.shape}")
    ids = _checked_ids(ids, table.data.shape[0])
    table_shape = table.data.shape

    def grad_fn(g):
        gt = np.zeros(table_shape)
        np.add.at(gt, ids, g)
        return (gt,)

    return _output(table.data[ids], (table,), grad_fn)


def reduce_sum(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    x_shape = x.data.shape
    return _output(x.data.sum(), (x,), lambda g: (np.full(x_shape, float(g)),))


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    x = _as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"mean: axis {axis} out of range for shape {x.data.shape}")
    x_shape = x.data.shape
    count = x.data.shape[axis]

    def grad_fn(g):
        scaled = np.expand_dims(g, axis) / count
        return (np.broadcast_to(scaled, x_shape).copy(),)

    return _output(x.data.mean(axis=axis), (x,), grad_fn)
