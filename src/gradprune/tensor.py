"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Everything here is double precision on purpose: the point of this package is
desk-scale experiments whose results can be checked bit-for-bit, so we trade
speed for exactness. Operations record themselves on the active ``Tape`` in
execution order, and ``backward`` replays that list in reverse.

A recorded op keeps only what its backward formula reads: a few arrays, the
shapes it un-broadcasts to, and where each input's gradient goes. It never
keeps its input or output Tensors, so an activation no backward reads is
freed as soon as the forward pass moves on. Gradients reach ``.grad`` on
leaves only (tensors the loss depends on that the tape did not produce) and
are *assigned* (not accumulated) there at the end of a backward pass, so
calling ``backward`` twice from the same tape state yields bitwise-identical
gradients.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf


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

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        """Internal constructor for op outputs: skips the finiteness check so
        a diverging run is caught at the loss (with a step index) rather than
        deep inside the forward pass."""
        out = object.__new__(cls)
        out.data = np.asarray(data, dtype=np.float64)
        out.grad = None
        out.requires_grad = False
        out._tape = None
        out._index = -1
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all the real work lives in module-level functions.

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_as_tensor(other), -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis: int | None = None) -> "Tensor":
        return reduce_sum(self, axis)

    def mean(self, axis: int | None = None) -> "Tensor":
        return reduce_mean(self, axis)


class Tape:
    """Ordered record of operations for one forward pass.

    Use as a context manager around the forward computation:

        with Tape() as tape:
            loss = ...
        backward(loss)

    Only one tape may be active at a time; nesting is a bug and raises.
    The tape holds one backward callable per recorded op. Gradients pass
    between ops by node index, so the tape holds no Tensors of its own.
    """

    def __init__(self):
        self._nodes: list[Callable] = []

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

    def _target(self, t: Tensor):
        """Where an op input's gradient goes: its node index if this tape
        produced it, the Tensor itself for a leaf, None if it needs none."""
        if not t.requires_grad:
            return None
        return t._index if t._tape is self else t

    def _record(self, out: Tensor, backward_fn: Callable) -> Tensor:
        out.requires_grad = True
        out._tape = self
        out._index = len(self._nodes)
        self._nodes.append(backward_fn)
        return out

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

        def accumulate(target, g: np.ndarray) -> None:
            if target in grads:
                grads[target] = grads[target] + g
            else:
                grads[target] = g

        for index in range(loss._index, -1, -1):
            if index in grads:  # else this output does not influence the loss
                self._nodes[index](grads.pop(index), accumulate)
        # Every node index has been popped: what is left are the leaves.
        for leaf, g in grads.items():
            leaf.grad = g


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _recording(*inputs: Tensor) -> Tape | None:
    """The active tape if it records an op on ``inputs``, else None: off the
    tape, an op builds no backward closure."""
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        return tape
    return None


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
    out = Tensor._wrap(a.data + b.data)
    tape = _recording(a, b)
    if tape is None:
        return out
    ta, tb = tape._target(a), tape._target(b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g, accumulate):
        if ta is not None:
            accumulate(ta, _unbroadcast(g, a_shape))
        if tb is not None:
            accumulate(tb, _unbroadcast(g, b_shape))

    return tape._record(out, bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ValueError(
            f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None
    out = Tensor._wrap(a.data * b.data)
    tape = _recording(a, b)
    if tape is None:
        return out
    ta, tb = tape._target(a), tape._target(b)
    # each input's gradient reads the other input
    a_data = a.data if tb is not None else None
    b_data = b.data if ta is not None else None
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g, accumulate):
        if ta is not None:
            accumulate(ta, _unbroadcast(g * b_data, a_shape))
        if tb is not None:
            accumulate(tb, _unbroadcast(g * a_data, b_shape))

    return tape._record(out, bwd)


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
    out = Tensor._wrap(out_data)
    tape = _recording(a, b)
    if tape is None:
        return out
    ta, tb = tape._target(a), tape._target(b)
    # each input's gradient reads the other input
    a_data = a.data if tb is not None else None
    b_data = b.data if ta is not None else None
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g, accumulate):
        if ta is not None:
            accumulate(ta, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape))
        if tb is not None:
            accumulate(tb, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape))

    return tape._record(out, bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU: x * Phi(x)."""
    x = _as_tensor(x)
    cdf = x.data / _SQRT2
    erf(cdf, out=cdf)  # in place: erf dominates the forward pass
    cdf += 1.0
    cdf *= 0.5
    out = Tensor._wrap(x.data * cdf)
    tape = _recording(x)
    if tape is None:
        return out
    tx, x_data = tape._target(x), x.data

    def bwd(g, accumulate):
        pdf = np.exp(-0.5 * x_data * x_data) * _INV_SQRT_2PI
        accumulate(tx, g * (cdf + x_data * pdf))

    return tape._record(out, bwd)


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis: (x - mean) / sqrt(var + eps).

    Affine gain/bias are separate parameters applied by the caller, which
    keeps this primitive easy to check against finite differences.
    """
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("layer_norm: input must have at least one axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = Tensor._wrap(y)
    tape = _recording(x)
    if tape is None:
        return out
    tx = tape._target(x)

    def bwd(g, accumulate):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        accumulate(tx, inv * (g - gm - y * gym))

    return tape._record(out, bwd)


def softmax(x: Tensor) -> Tensor:
    """Numerically-stable softmax over the last axis."""
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("softmax: input must have at least one axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(y)
    tape = _recording(x)
    if tape is None:
        return out
    tx = tape._target(x)

    def bwd(g, accumulate):
        dot = (g * y).sum(axis=-1, keepdims=True)
        accumulate(tx, y * (g - dot))

    return tape._record(out, bwd)


def log_softmax(x: Tensor) -> Tensor:
    """Numerically-stable log-softmax over the last axis."""
    x = _as_tensor(x)
    if x.data.ndim < 1:
        raise ValueError("log_softmax: input must have at least one axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse
    out = Tensor._wrap(y)
    tape = _recording(x)
    if tape is None:
        return out
    tx = tape._target(x)

    def bwd(g, accumulate):
        p = np.exp(y)
        accumulate(tx, g - p * g.sum(axis=-1, keepdims=True))

    return tape._record(out, bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.data.size:
        raise ValueError(
            f"reshape: cannot reshape {x.data.shape} into {shape}"
        )
    out = Tensor._wrap(x.data.reshape(shape))
    tape = _recording(x)
    if tape is None:
        return out
    tx, x_shape = tape._target(x), x.data.shape

    def bwd(g, accumulate):
        accumulate(tx, g.reshape(x_shape))

    return tape._record(out, bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(
            f"transpose: {axes} is not a permutation of axes for shape {x.data.shape}"
        )
    out = Tensor._wrap(x.data.transpose(axes))
    tape = _recording(x)
    if tape is None:
        return out
    tx = tape._target(x)
    inverse = tuple(int(i) for i in np.argsort(axes))

    def bwd(g, accumulate):
        accumulate(tx, g.transpose(inverse))

    return tape._record(out, bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ValueError(f"embedding: table must be 2-D, got {table.data.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"embedding: ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding: ids out of range [0, {table.data.shape[0]}), "
            f"got min {ids.min()} max {ids.max()}"
        )
    out = Tensor._wrap(table.data[ids])
    tape = _recording(table)
    if tape is None:
        return out
    tt, table_shape = tape._target(table), table.data.shape

    def bwd(g, accumulate):
        gt = np.zeros(table_shape)
        np.add.at(gt, ids, g)
        accumulate(tt, gt)

    return tape._record(out, bwd)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"sum: axis {axis} out of range for shape {x.data.shape}")
    out = Tensor._wrap(x.data.sum(axis=axis))
    tape = _recording(x)
    if tape is None:
        return out
    tx, x_shape = tape._target(x), x.data.shape

    def bwd(g, accumulate):
        if axis is None:
            accumulate(tx, np.full(x_shape, float(g)))
        else:
            accumulate(tx, np.broadcast_to(np.expand_dims(g, axis), x_shape).copy())

    return tape._record(out, bwd)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"mean: axis {axis} out of range for shape {x.data.shape}")
    out = Tensor._wrap(x.data.mean(axis=axis))
    tape = _recording(x)
    if tape is None:
        return out
    tx, x_shape = tape._target(x), x.data.shape
    count = x.data.size if axis is None else x.data.shape[axis]

    def bwd(g, accumulate):
        if axis is None:
            accumulate(tx, np.full(x_shape, float(g) / count))
        else:
            scaled = np.expand_dims(g, axis) / count
            accumulate(tx, np.broadcast_to(scaled, x_shape).copy())

    return tape._record(out, bwd)
