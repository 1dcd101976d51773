"""Adam, the epoch loop both models train in, and the training-log format.

The learning rate, ``RunConfig.learn_rate``, is the one setting; the
moment decays and the epsilon are fixed constants.

Flat buffers. :class:`Adam` keeps four arrays of a model's size, each
one contiguous buffer in checkpoint order: the parameters, the gradient
and the two moments. It moves the parameters into theirs and makes every
``params[name]`` a reshaped view of it, so the dict and every holder of it
see each step. :meth:`Adam.step` concatenates a step's gradient dict into
its buffer, then updates the whole model in one pass, in place, over
chunks of the buffers from ``numerics.block_slices`` at the bytes of the
six arrays a chunk touches (parameters, gradient, both moments and two
scratch rows), so a chunk stays in cache. Each element goes through the
same operations in the same order as the textbook per-tensor update, so
the result does not depend on the chunks. Every tensor needs a gradient in
the parameters' dtype: a missing one, or one of another dtype, raises
before anything changes. A frozen tensor gets a zero one, so its moments
stay zero, its update is exactly 0.0 and it stays fixed bit for bit.

The loop. :func:`train_epochs` runs the teacher's and the student's
training alike: its one :class:`Adam` packs the parameters, then each
epoch draws one permutation of the training videos and cuts it into
batches of ``RunConfig.batch_size``; a model's step returns a batch's
losses and gradients, and the loop checks that every loss is finite
before one Adam step and a ``Params.version`` bump. An epoch's row is
``epoch`` and each loss's mean over its batches.

The log. :func:`write_log` writes one line per row, ``key=value`` pairs
in row order separated by spaces: integers as they are, ``share_*``
values to 4 significant digits and every other float to 10.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .config import RunConfig
from .exceptions import TrainingError
from .numerics import block_slices

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _views(flat: np.ndarray, like: dict) -> dict:
    """Views of ``flat`` keyed and shaped like ``like``'s tensors, laid end
    to end in the dict's order."""
    views, at = {}, 0
    for name, t in like.items():
        views[name] = flat[at:at + t.size].reshape(t.shape)
        at += t.size
    return views


class Adam:
    """Adam over a parameter dict, in place. It copies the tensors into one
    flat buffer ``p`` in the dict's order and makes every ``params[name]``
    a view of it; ``g`` holds a step's gradient and ``m`` and ``v`` the
    moments, buffers of its shape (module docstring, Flat buffers)."""

    def __init__(self, params, lr: float):
        self.p = np.concatenate([t.ravel() for t in params.values()])
        params.update(_views(self.p, params))
        self._names = list(params)
        self.lr = lr
        self.t = 0
        self.g = np.empty_like(self.p)
        self.m = np.zeros_like(self.p)
        self.v = np.zeros_like(self.p)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One adaptive-moment update by ``grads``, keyed like the parameters
        and in their dtype, chunk by chunk. The comments give the per-tensor
        expressions computed; the chunk keeps their operations and order (a
        commuted operand of one * is the same IEEE result), so the two agree
        bit for bit."""
        np.concatenate([grads[name] for name in self._names], axis=None, out=self.g,
                       casting="no")
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        p, grad, m, v = self.p, self.g, self.m, self.v
        chunks = block_slices(p.size, 6 * p.itemsize)
        scratch = np.empty((2, chunks[0].stop), dtype=p.dtype)
        for c in chunks:
            g, mc, vc = grad[c], m[c], v[c]
            num, den = scratch[:, :len(g)]
            # m = m * b1 + (1 - b1) * g;  v = v * b2 + (1 - b2) * g * g
            mc *= b1
            np.multiply(g, 1.0 - b1, out=num)
            mc += num
            vc *= b2
            np.multiply(g, 1.0 - b2, out=num)
            num *= g
            vc += num
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(mc, bias1, out=num)
            num *= self.lr
            np.divide(vc, bias2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            num /= den
            p[c] -= num


def add_grads(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    """Add one block's gradients into ``total``, keyed alike, in place; a name
    not yet in ``total`` takes the block's array as it is, and later blocks
    add into that array. A block of another dtype raises ``TypeError``."""
    for name, g in part.items():
        if name in total:
            np.add(total[name], g, out=total[name], casting="no")
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
    ``(losses, grads)``: losses by name, a gradient for every tensor of
    ``params`` by name. A non-finite loss raises ``TrainingError`` with the
    epoch, naming ``model``, before its batch is applied.
    """
    opt = Adam(params, cfg.learn_rate)
    starts = range(0, n, cfg.batch_size)
    history: list[dict] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums: Counter = Counter()  # each loss summed left to right, in first-seen order
        for start in starts:
            losses, grads = step(order[start:start + cfg.batch_size])
            if not np.isfinite(list(losses.values())).all():
                raise TrainingError(f"{model} loss non-finite at epoch {epoch}", epoch)
            opt.step(grads)
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
