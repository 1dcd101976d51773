"""Adam steps and gradient accumulation over blocks."""

import numpy as np

from dkph.optim import BETA1, BETA2, EPS, Adam, add_grads


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


def test_adam_moments_keep_their_identity_and_a_tensor_without_gradient_gets_none():
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(3, 4)).astype(np.float32),
              "frozen": rng.normal(size=5).astype(np.float32)}
    frozen = params["frozen"].copy()
    want = params["w"].copy()
    m_ref = np.zeros_like(want)
    v_ref = np.zeros_like(want)
    opt = Adam(lr=0.01)
    moments = None
    for t in range(1, 4):
        g = rng.normal(size=(3, 4)).astype(np.float32)
        opt.step(params, {"w": g})
        # the update written out, in the optimizer's order of operations
        m_ref *= BETA1
        m_ref += (1.0 - BETA1) * g
        v_ref *= BETA2
        v_ref += (1.0 - BETA2) * g * g
        want -= 0.01 * (m_ref / (1.0 - BETA1 ** t)) / (np.sqrt(v_ref / (1.0 - BETA2 ** t)) + EPS)
        assert np.array_equal(params["w"], want)
        if moments is None:
            moments = opt._m["w"], opt._v["w"]
        assert opt._m["w"] is moments[0] and opt._v["w"] is moments[1]
        assert list(opt._m) == list(opt._v) == ["w"]
    assert np.array_equal(params["frozen"], frozen)
