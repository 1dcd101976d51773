"""Adam optimizer over named parameter dictionaries.

Parameters are updated in place, so every holder of a model's parameter
dict sees the step.
"""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, lr: float = 5e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One adaptive-moment update. A tensor without a gradient is skipped,
        moments included, so a frozen tensor stays fixed."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def add_grads(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    """Add one block's gradients into ``total``, keyed alike; a name not yet
    in ``total`` takes the block's array as it is."""
    for name, g in part.items():
        total[name] = total[name] + g if name in total else g
