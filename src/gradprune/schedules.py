"""Sparsity and learning-rate schedules.

Sparsity follows a cubic ramp from an initial step (often a large one) to the
final target across a fixed number of prune events, with freeze windows at
the head and tail of training where no pruning happens. The learning rate
repeats short linear-decay cycles: it resets to the initial value at the top
of every cycle and decays linearly to the final value by the cycle's last
step. A plain one-shot linear decay is also provided for fixed-mask runs.

Boundary values are special-cased so that, for example, the first event's
target is exactly the configured initial step, not the formula's rounding of
it.

These are plain functions of plain numbers. They check no recipe rules:
``parse_recipe`` validates the recipe and ``compile_timeline`` the rules
that depend on steps per epoch, before anything here is called.
"""

from __future__ import annotations

import numpy as np


def cubic_sparsity(initial: float, final: float, k: int, num_events: int) -> float:
    """Target sparsity at event ``k`` of ``num_events``.

    s(k) = final + (initial - final) * (1 - k/(num_events-1))^3, with the
    endpoints pinned to ``initial`` and ``final`` exactly.
    """
    if num_events < 2:
        raise ValueError(f"num_events must be >= 2, got {num_events}")
    if not 0 <= k < num_events:
        raise ValueError(f"event index {k} out of range [0, {num_events})")
    if k == 0:
        return initial
    if k == num_events - 1:
        return final
    frac = 1.0 - k / (num_events - 1)
    return final + (initial - final) * frac * frac * frac


def prune_event_steps(window_start: int, window_steps: int, num_events: int) -> np.ndarray:
    """Global step of each prune event, spread by the floor rule over the
    ``window_steps`` steps from ``window_start``; strictly increasing when
    ``window_steps >= num_events``."""
    k = np.arange(num_events, dtype=np.int64)
    return window_start + (k * window_steps) // num_events


def event_targets(initial: float, final: float, num_events: int) -> np.ndarray:
    """Target sparsity of each prune event (cubic ramp, endpoints exact)."""
    return np.array([cubic_sparsity(initial, final, k, num_events)
                     for k in range(num_events)])


def cyclic_lr(initial: float, final: float, cycle_steps: int, total_steps: int) -> np.ndarray:
    """Learning rate at every step under recurring linear-decay cycles.

    Position 0 of every cycle is exactly ``initial`` and the last position is
    exactly ``final``; in between the decay is linear in the position.
    """
    pos = np.arange(total_steps) % cycle_steps
    last = cycle_steps - 1
    lr = initial + (final - initial) * (pos / last)
    lr[pos == 0] = initial
    lr[pos == last] = final
    return lr


def linear_decay(initial: float, total_steps: int) -> np.ndarray:
    """One-shot linear decay from ``initial`` at step 0 towards 0 at
    ``total_steps`` (the last step's rate is still positive)."""
    return initial * (1.0 - np.arange(total_steps) / total_steps)
