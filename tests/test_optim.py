"""Adam steps, gradient accumulation over blocks, the epoch loop and the log."""

from dataclasses import replace

import numpy as np
import pytest

from dkph import numerics, optim, serial
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
from dkph.student import train_student
from dkph.teacher import train_teacher
from test_student import TOY, K, two_class_setup


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


@pytest.mark.parametrize("first, later", [(np.float32, np.float64), (np.float64, np.float32)])
def test_add_grads_refuses_a_block_of_another_dtype(first, later):
    total = {"w": np.ones(3, dtype=first)}
    with pytest.raises(TypeError):
        add_grads(total, {"w": np.ones(3, dtype=later)})
    assert np.array_equal(total["w"], np.ones(3))


def written_out_step(p, g, m, v, t, lr):
    """The update written out for one tensor, in the optimizer's order of
    operations; ``p``, ``m`` and ``v`` change in place."""
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    p -= lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)


def test_adam_moments_keep_their_identity_and_a_tensor_without_gradient_gets_none():
    # the moments are two flat buffers, one slot per parameter; a tensor
    # whose gradient is zero (frozen) keeps zero moments and its values, and
    # a step missing a tensor's gradient, or given one of another dtype,
    # raises before it changes anything
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(3, 4)).astype(np.float32),
              "frozen": rng.normal(size=5).astype(np.float32)}
    frozen = params["frozen"].copy()
    want = params["w"].copy()
    m_ref = np.zeros_like(want)
    v_ref = np.zeros_like(want)
    opt = Adam(params, lr=0.01)
    moments = opt.m, opt.v
    assert opt.p.shape == opt.g.shape == opt.m.shape == opt.v.shape == (17,)
    for t in range(1, 4):
        g = rng.normal(size=(3, 4)).astype(np.float32)
        opt.step({"w": g, "frozen": np.zeros(5, dtype=np.float32)})
        written_out_step(want, g, m_ref, v_ref, t, 0.01)
        assert np.array_equal(params["w"], want)
        assert opt.m is moments[0] and opt.v is moments[1]
        assert np.array_equal(opt.m[:12], m_ref.ravel()) and np.array_equal(opt.v[:12],
                                                                          v_ref.ravel())
        assert not opt.m[12:].any() and not opt.v[12:].any()
    assert np.array_equal(params["frozen"], frozen)
    assert params["w"].base is opt.p and params["frozen"].base is opt.p
    state = [a.copy() for a in (opt.p, opt.m, opt.v)]
    for bad in ({"w": g}, {"w": g.astype(np.float64), "frozen": np.zeros(5, dtype=np.float32)}):
        with pytest.raises((KeyError, TypeError)):
            opt.step(bad)
        assert opt.t == 3
        for got, before in zip((opt.p, opt.m, opt.v), state):
            assert np.array_equal(got, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_step_is_the_per_tensor_update_bit_for_bit(monkeypatch, dtype):
    # 33 parameters in chunks of 8: five chunks, the last one of 1
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 8 * 6 * np.dtype(dtype).itemsize)
    chunks = numerics.block_slices(33, 6 * np.dtype(dtype).itemsize)
    assert len(chunks) == 5 and chunks[-1] == slice(32, 33)
    rng = np.random.default_rng(2)
    shapes = {"w": (5, 4), "b": (4,), "frozen": (3,), "u": (2, 3)}
    params = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    ref = {name: t.copy() for name, t in params.items()}
    moments = {name: (np.zeros_like(t), np.zeros_like(t)) for name, t in ref.items()}
    opt = Adam(params, lr=0.05)
    for t in range(1, 5):
        grads = {name: np.zeros(shape, dtype) if name == "frozen"
                 else rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        opt.step(grads)
        for name in shapes:
            written_out_step(ref[name], grads[name], *moments[name], t, 0.05)
            assert params[name].dtype == dtype
            assert np.array_equal(params[name], ref[name]), (name, t)
    assert np.array_equal(params["frozen"], ref["frozen"])
    assert not opt.m[24:27].any() and not opt.v[24:27].any()


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
    opt = Adam(want, LOOP_CFG.learn_rate)
    for call in (1, 2):
        opt.step({"w": np.full(3, float(call))})
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


class ReferenceAdam:
    """The per-tensor optimizer: :func:`written_out_step` on each tensor of
    the unpacked dict, by name."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}

    def step(self, grads):
        self.t += 1
        for name, p in self.params.items():
            written_out_step(p, grads[name], *self.moments[name], self.t, self.lr)


@pytest.mark.parametrize("dual_stream", [True, False])
def test_training_matches_the_per_tensor_optimizer(monkeypatch, tmp_path, dual_stream):
    # 6 videos in batches of 2 (three steps per epoch); a small block budget
    # runs the models' passes one video per block and the fused update in
    # chunks of 12 parameters, the last one short (730 teacher and 986
    # student parameters)
    feats, graph, anchors = two_class_setup(4)
    feats = feats.astype(np.float32)
    cfg = replace(TOY, teacher_epochs=2, student_epochs=2, batch_size=2, teacher_bits=8,
                  learn_rate=0.01, train_seed=3)
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 300)

    def train():
        t = train_teacher(feats, cfg)
        s = train_student(feats, cfg, graph, anchors, code_bits=K, dual_stream=dual_stream)
        return t, s

    got = train()
    with monkeypatch.context() as m:
        m.setattr(optim, "Adam", ReferenceAdam)
        want = train()
    for mine, ref in zip(got, want):
        assert mine.history == ref.history
        assert list(mine.params) == list(ref.params)
        for name, t in mine.params.items():
            assert t.dtype == np.float32 and np.array_equal(t, ref.params[name]), name
        serial.save_checkpoint(tmp_path / "fused.ckpt", mine.params)
        serial.save_checkpoint(tmp_path / "reference.ckpt", ref.params)
        assert (tmp_path / "fused.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()
    assert got[0].eval_after == want[0].eval_after
