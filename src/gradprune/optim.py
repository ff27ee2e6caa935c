"""Adam with decoupled weight decay, over a dict of float64 arrays.

The optimizer holds the parameter arrays it was built with and updates them
in place; each ``step`` takes the gradients as a dict by the same names.
The learning rate is not stored on the optimizer; callers pass it to every
``step`` so schedules stay in one place. Moment decay rates and epsilon are
fixed package-wide constants.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer over a named dict of parameter arrays.

    Parameters are visited in the order of the dict passed in (insertion
    order), which together with float64 state makes updates reproducible.
    Weight decay is decoupled: it is added to the update, not to the
    gradient, so it does not leak into the moment estimates.
    """

    def __init__(self, params: dict[str, np.ndarray], weight_decay: float = 0.0):
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if not params:
            raise ValueError("Adam needs at least one parameter")
        self._params = dict(params)
        self.weight_decay = float(weight_decay)
        self._m = {n: np.zeros_like(p) for n, p in self._params.items()}
        self._v = {n: np.zeros_like(p) for n, p in self._params.items()}
        self._step_count = 0

    def step(self, lr: float, grads: dict[str, np.ndarray]) -> None:
        """Update every parameter in place from its gradient in ``grads``."""
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        # every gradient is checked before any state changes
        for name in self._params:
            if name not in grads:
                raise ValueError(f"parameter {name} has no gradient; run backward first")
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for name, p in self._params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + EPS)
            if self.weight_decay != 0.0:
                update = update + self.weight_decay * p
            p -= lr * update
