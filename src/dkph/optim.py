"""Adam optimizer over named parameter dictionaries.

Parameters are updated in place, so every holder of a model's parameter
dict sees the step. The learning rate, ``RunConfig.learn_rate``, is the
one setting; the moment decays and the epsilon are fixed constants.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One adaptive-moment update. A tensor without a gradient is skipped,
        moments included, so a frozen tensor stays fixed."""
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m, v = self._m[name], self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)


def add_grads(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    """Add one block's gradients into ``total``, keyed alike, in place; a name
    not yet in ``total`` takes the block's array as it is, and later blocks
    add into that array."""
    for name, g in part.items():
        if name in total:
            total[name] += g
        else:
            total[name] = g
