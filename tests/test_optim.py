"""Adam steps, gradient accumulation over blocks, the epoch loop and the log."""

import numpy as np
import pytest

from dkph.config import RunConfig
from dkph.encoder import Params
from dkph.exceptions import TrainingError
from dkph.optim import (
    BETA1,
    BETA2,
    EPS,
    Adam,
    add_grads,
    optimizer_steps,
    train_epochs,
    write_log,
)


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


class FakeStep:
    """A step over 4 videos in batches of 2: fixed losses and one gradient
    per call, a NaN loss at call ``nan_at`` (1-based)."""

    def __init__(self, nan_at=None):
        self.nan_at = nan_at
        self.batches = []
        self.losses = [{"a": 1.0, "b": 10.0}, {"a": 2.0, "b": 30.0},
                       {"a": 0.5, "b": 4.0}, {"a": 0.25, "b": 8.0}]

    def __call__(self, batch):
        self.batches.append(batch)
        losses = dict(self.losses[len(self.batches) - 1])
        if len(self.batches) == self.nan_at:
            losses["b"] = float("nan")
        return losses, {"w": np.full(3, float(len(self.batches)))}


LOOP_CFG = RunConfig(batch_size=2, learn_rate=0.1)


def test_train_epochs_rows_are_the_epoch_then_each_loss_mean():
    params = Params(w=np.zeros(3))
    step = FakeStep()
    history = train_epochs(params, 4, 2, LOOP_CFG, np.random.default_rng(0), step, "toy")
    assert history == [{"epoch": 0, "a": (1.0 + 2.0) / 2, "b": (10.0 + 30.0) / 2},
                       {"epoch": 1, "a": (0.5 + 0.25) / 2, "b": (4.0 + 8.0) / 2}]
    assert [list(row) for row in history] == [["epoch", "a", "b"]] * 2
    assert params.version == 4
    # each epoch's two batches are one permutation of the videos
    for epoch in range(2):
        assert sorted(np.concatenate(step.batches[2 * epoch:2 * epoch + 2])) == [0, 1, 2, 3]


@pytest.mark.parametrize("n, batch_size, epochs", [(4, 2, 2), (5, 2, 3), (3, 8, 2), (7, 7, 0)])
def test_train_epochs_takes_one_step_per_batch_of_every_epoch(n, batch_size, epochs):
    params = Params(w=np.zeros(3))
    cfg = RunConfig(batch_size=batch_size)

    def step(batch):
        return {"a": 1.0}, {"w": np.ones(3)}

    train_epochs(params, n, epochs, cfg, np.random.default_rng(0), step, "toy")
    assert params.version == optimizer_steps(n, epochs, cfg) == epochs * -(-n // batch_size)


def test_train_epochs_stops_at_a_non_finite_loss_before_applying_its_batch():
    params = Params(w=np.zeros(3))
    with pytest.raises(TrainingError, match=r"^toy loss non-finite at epoch 1$") as exc:
        train_epochs(params, 4, 2, LOOP_CFG, np.random.default_rng(0), FakeStep(nan_at=3), "toy")
    assert exc.value.epoch == 1
    assert params.version == 2
    want = {"w": np.zeros(3)}
    opt = Adam(LOOP_CFG.learn_rate)
    for call in (1, 2):
        opt.step(want, {"w": np.full(3, float(call))})
    np.testing.assert_array_equal(params["w"], want["w"])


def test_write_log_writes_each_row_in_order(tmp_path):
    # the teacher's log: eval_before, one row per epoch, eval_after; floats
    # to 10 significant digits, integers as they are
    path = tmp_path / "teacher_log.txt"
    write_log(path, [{"eval_before": 1.23456789012345}, {"epoch": 0, "recon": 0.5},
                     {"epoch": 1, "recon": 2.0 / 3.0}, {"eval_after": 1e-12}])
    assert path.read_text() == ("eval_before=1.23456789\n"
                                "epoch=0 recon=0.5\n"
                                "epoch=1 recon=0.6666666667\n"
                                "eval_after=1e-12\n")
