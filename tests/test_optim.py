"""Gradient accumulation over blocks."""

import numpy as np

from dkph.optim import add_grads


def test_add_grads_is_the_left_to_right_sum_and_writes_only_the_first_part():
    rng = np.random.default_rng(0)
    parts = [{"w": rng.normal(size=(3, 4)).astype(np.float32),
              "b": rng.normal(size=4).astype(np.float32)} for _ in range(4)]
    later = [{name: g.copy() for name, g in part.items()} for part in parts[1:]]
    want = {name: parts[0][name] + parts[1][name] + parts[2][name] + parts[3][name]
            for name in parts[0]}
    total = {}
    for part in parts:
        add_grads(total, part)
    assert list(total) == ["w", "b"]
    for name, g in total.items():
        assert g.dtype == np.float32 and np.array_equal(g, want[name])
        assert g is parts[0][name]  # the first block's array, accumulated in place
    for part, copy in zip(parts[1:], later):
        for name, g in part.items():
            assert np.array_equal(g, copy[name])
