"""Adam with decoupled weight decay.

The learning rate is not stored on the optimizer; callers pass it to every
``step`` so schedules stay in one place. Moment decay rates and epsilon are
fixed package-wide constants.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer over a named parameter dict.

    Parameters are visited in the order of the dict passed in (insertion
    order), which together with float64 state makes updates reproducible.
    Weight decay is decoupled: it is added to the update, not to the
    gradient, so it does not leak into the moment estimates.
    """

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.0):
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if not params:
            raise ValueError("Adam needs at least one parameter")
        self._names = list(params.keys())
        self._params = dict(params)
        self.weight_decay = float(weight_decay)
        self._m = {n: np.zeros_like(params[n].data) for n in self._names}
        self._v = {n: np.zeros_like(params[n].data) for n in self._names}
        self._step_count = 0

    def step(self, lr: float) -> None:
        """Apply one update with the given learning rate and clear gradients."""
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        # every gradient is checked before any state changes
        for name in self._names:
            if self._params[name].grad is None:
                raise ValueError(f"parameter {name} has no gradient; run backward first")
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for name in self._names:
            p = self._params[name]
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + EPS)
            if self.weight_decay != 0.0:
                update = update + self.weight_decay * p.data
            p.data -= lr * update
            p.grad = None
