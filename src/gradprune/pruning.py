"""Magnitude pruning with cumulative boolean masks.

Every function here takes plain arrays: masks map parameter name -> boolean
array (True = keep), and weights, parameters and gradients map name ->
float64 array. Pruning is cumulative: an entry that is masked once stays
masked, and each prune event only removes however many additional weights
are needed to reach the target quota. The uniform policy rounds each
tensor's quota half-up on target * size; the global policy floors target *
total for its single pool.
Ties in magnitude are broken deterministically: lower flat index first
within a tensor, and dict order across tensors for the global policy.

Two policies:

    uniform  every tensor is pruned to the target fraction independently
    global   one pool: the smallest surviving magnitudes anywhere are removed
             until the aggregate quota is met
"""

from __future__ import annotations

import math

import numpy as np

POLICIES = ("uniform", "global")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def fresh_masks(weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """All-ones masks matching the given arrays."""
    return {name: np.ones(arr.shape, dtype=bool) for name, arr in weights.items()}


def _check_aligned(weights: dict[str, np.ndarray], masks: dict[str, np.ndarray]) -> None:
    if list(weights.keys()) != list(masks.keys()):
        raise ValueError(
            f"weights and masks disagree on names: {sorted(weights)} vs {sorted(masks)}"
        )
    for name in weights:
        if weights[name].shape != masks[name].shape:
            raise ValueError(
                f"mask {name} has shape {masks[name].shape}, weights have "
                f"shape {weights[name].shape}"
            )


def _drop_smallest(values: np.ndarray, alive: np.ndarray, quota: int,
                   target: float, where: str) -> np.ndarray:
    """A copy of the flat ``alive`` mask of one pool with enough of its
    smallest surviving magnitudes masked to leave ``quota`` zeros; ties go
    to the lower flat index."""
    masked = alive.size - int(alive.sum())
    needed = quota - masked
    if needed < 0:
        raise ValueError(
            f"target {target} asks for {quota} zeros{where} but {masked} are "
            f"already masked; masks never shrink"
        )
    new = alive.copy()
    if needed > 0:
        alive_idx = np.flatnonzero(alive)
        order = np.argsort(np.abs(values[alive_idx]), kind="stable")
        new[alive_idx[order[:needed]]] = False
    return new


def magnitude_prune(
    weights: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
    target: float,
    policy: str = "uniform",
) -> dict[str, np.ndarray]:
    """Return new masks meeting the target sparsity; never unmasks anything.

    ``weights`` supplies magnitudes only (values under existing zeros are
    ignored). The input masks are not modified.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target sparsity must be in [0, 1], got {target}")
    if not weights:
        raise ValueError("nothing to prune: empty weight dict")
    _check_aligned(weights, masks)

    if policy == "uniform":
        return {
            name: _drop_smallest(w.ravel(), masks[name].ravel(),
                                 _round_half_up(target * w.size), target,
                                 f" in {name}").reshape(w.shape)
            for name, w in weights.items()
        }
    names = list(weights.keys())
    values = np.concatenate([weights[n].ravel() for n in names])
    alive = np.concatenate([masks[n].ravel() for n in names])
    new = _drop_smallest(values, alive, int(math.floor(target * values.size)),
                         target, "")
    new_masks = {}
    offset = 0
    for name in names:
        size = weights[name].size
        new_masks[name] = new[offset:offset + size].reshape(weights[name].shape)
        offset += size
    return new_masks


def apply_masks(params: dict[str, np.ndarray], masks: dict[str, np.ndarray]) -> None:
    """Zero out the masked entries of the named parameter arrays in place."""
    for name, mask in masks.items():
        if name not in params:
            raise ValueError(f"mask {name!r} does not match any parameter")
        data = params[name]
        if data.shape != mask.shape:
            raise ValueError(
                f"mask {name} has shape {mask.shape}, parameter has shape {data.shape}"
            )
        data[~mask] = 0.0


def zero_masked_grads(grads: dict[str, np.ndarray], masks: dict[str, np.ndarray]) -> None:
    """Zero the gradients of masked entries in place, so the optimizer
    cannot revive them."""
    for name, mask in masks.items():
        if name not in grads:
            raise ValueError(f"parameter {name} has no gradient to mask")
        grads[name][~mask] = 0.0


def mask_sparsity(masks: dict[str, np.ndarray]) -> float:
    """Aggregate fraction of masked (zeroed) entries across all tensors."""
    total = sum(m.size for m in masks.values())
    if total == 0:
        raise ValueError("mask set is empty")
    zeros = sum(int(m.size - m.sum()) for m in masks.values())
    return zeros / total


def sparsity_report(masks: dict[str, np.ndarray]) -> dict:
    """Aggregate sparsity (``mask_sparsity``), per-tensor sparsity and raw
    counts."""
    return {
        "aggregate": mask_sparsity(masks),
        "per_tensor": {
            name: float((m.size - m.sum()) / m.size) for name, m in masks.items()
        },
        "total_prunable": sum(m.size for m in masks.values()),
        "total_masked": sum(int(m.size - m.sum()) for m in masks.values()),
    }


def masks_subset_of(old: dict[str, np.ndarray], new: dict[str, np.ndarray]) -> bool:
    """True when every entry masked in ``old`` is still masked in ``new``."""
    if set(old) != set(new):
        return False
    return all(bool(np.all(new[n] <= old[n])) for n in old)
