"""Adam, the epoch loop both models train in, and the training-log format.

Parameters are updated in place, so every holder of a model's parameter
dict sees the step. The learning rate, ``RunConfig.learn_rate``, is the
one setting; the moment decays and the epsilon are fixed constants.

The loop. :func:`train_epochs` runs the teacher's and the student's
training alike: each epoch draws one permutation of the training videos
and cuts it into batches of ``RunConfig.batch_size``; a model's step
returns a batch's losses and gradients, and the loop checks that every
loss is finite before one Adam step and a ``Params.version`` bump. An
epoch's row is ``epoch`` and each loss's mean over its batches.

The log. :func:`write_log` writes one line per row, ``key=value`` pairs
in row order separated by spaces: integers as they are, ``share_*``
values to 4 significant digits and every other float to 10.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .config import RunConfig
from .exceptions import TrainingError

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


def optimizer_steps(n: int, epochs: int, cfg: RunConfig) -> int:
    """The Adam steps of :func:`train_epochs` over ``n`` videos for
    ``epochs`` epochs: one per batch, ceil(n / batch_size) per epoch."""
    return epochs * -(-n // cfg.batch_size)


def train_epochs(params, n: int, epochs: int, cfg: RunConfig,
                 rng: np.random.Generator, step, model: str) -> list[dict]:
    """Train ``params`` (an ``encoder.Params``) in place for ``epochs`` epochs
    over ``n`` videos in batches of ``cfg.batch_size`` at ``cfg.learn_rate``
    (module docstring, The loop); returns one row per epoch, ``epoch`` then
    the mean of each of ``step``'s losses, in ``step``'s order. It takes
    :func:`optimizer_steps` steps.

    ``rng`` draws each epoch's permutation; ``step`` may draw from it too.
    ``step(batch)`` takes an index array of videos and returns the batch's
    ``(losses, grads)``: losses by name, gradients keyed like ``params``.
    A non-finite loss raises ``TrainingError`` with the epoch, naming
    ``model``, before its batch is applied.
    """
    opt = Adam(cfg.learn_rate)
    starts = range(0, n, cfg.batch_size)
    history: list[dict] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums: Counter = Counter()  # each loss summed left to right, in first-seen order
        for start in starts:
            losses, grads = step(order[start:start + cfg.batch_size])
            if not np.isfinite(list(losses.values())).all():
                raise TrainingError(f"{model} loss non-finite at epoch {epoch}", epoch)
            opt.step(params, grads)
            params.version += 1
            sums.update(losses)
        history.append({"epoch": epoch, **{key: sums[key] / len(starts) for key in sums}})
    return history


def _field(key: str, value) -> str:
    spec = "" if isinstance(value, int) else ".4g" if key.startswith("share_") else ".10g"
    return f"{key}={value:{spec}}"


def write_log(path, rows: list[dict]) -> None:
    """One line of ``key=value`` pairs per row (module docstring, The log)."""
    with open(path, "w") as f:
        for row in rows:
            f.write(" ".join(_field(key, value) for key, value in row.items()) + "\n")
