"""Precision rule: training and encoding compute in the features' dtype.

Parameters are built in np.result_type(features, np.float32), and every pass
runs in the parameters' dtype: float32 features stay float32 end to end,
float64 and int64 features compute in float64.
"""

import dataclasses

import numpy as np
import pytest

from dkph import numerics, optim, pipeline, student, teacher
from dkph.config import RunConfig
from dkph.encoder import cast_params, factor_grads
from dkph.graph import sample_pairs
from dkph.student import batch_gradients, init_student, student_forward, train_student
from dkph.teacher import (
    draw_mask,
    init_teacher,
    masked_eval_loss,
    teacher_backward,
    teacher_forward,
    teacher_recon_loss,
    train_teacher,
)
from test_encoder import assert_rel_close
from test_student import (
    TOY,
    K,
    oracle_batch_gradients,
    oracle_student,
    toy_student,
    two_class_setup,
)
from test_teacher import oracle_teacher

# float32 agreement bound, fixed from the dtype before measuring: 2**10 ulps
# of float32 (1.2e-4) relative to each tensor's largest entry. A gradient is
# a chain of about a dozen dependent layers forward and back, each summing at
# most M * model_dim = 32 products, so rounding may compound over ~2**9
# steps; float64 error is 2**29 times smaller and does not count.
AGREEMENT_TOL = 2**10 * np.finfo(np.float32).eps


def float_dtypes(obj) -> set:
    """The dtypes of every floating array reachable from ``obj`` through
    dataclass fields, dict values, lists and tuples."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return {obj.dtype} if obj.dtype.kind == "f" else set()
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return set().union(*map(float_dtypes, obj))
    return set()


@pytest.fixture
def record(monkeypatch):
    """Wraps module functions and Adam.step; returns the floating dtypes
    each produced, by name."""
    seen: dict[str, set] = {}

    def add(name, obj):
        seen.setdefault(name, set()).update(float_dtypes(obj))

    def wrap(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            add(name, out)
            return out

        monkeypatch.setattr(module, name, wrapped)

    step = optim.Adam.step

    def recorded_step(self, grads):
        step(self, grads)
        add("Adam.params", self.p)
        add("Adam.grads", grads)  # the dict the model produced, not Adam's buffer
        add("Adam.moments", (self.m, self.v))

    monkeypatch.setattr(optim.Adam, "step", recorded_step)

    def start(*targets):
        for module, name in targets:
            wrap(module, name)
        return seen

    return start


def float32_features():
    feats, graph, anchors = two_class_setup(3)
    return feats.astype(np.float32), graph, anchors


def test_teacher_training_and_eval_stay_float32(record):
    feats, _, _ = float32_features()
    seen = record((teacher, "teacher_forward"), (teacher, "teacher_backward"),
                  (teacher, "teacher_recon_loss"))
    result = train_teacher(feats, dataclasses.replace(TOY, teacher_epochs=2, teacher_bits=16,
                                                      batch_size=4, train_seed=0))
    assert float_dtypes(result.params) == {np.dtype(np.float32)}
    masked_eval_loss(feats, result.params, np.ones(feats.shape[:2], dtype=bool))
    assert set(seen) == {"teacher_forward", "teacher_backward", "teacher_recon_loss",
                         "Adam.params", "Adam.grads", "Adam.moments"}
    assert seen == {name: {np.dtype(np.float32)} for name in seen}


def test_student_training_and_encoding_stay_float32(record):
    # the anchor centres are float64, as the pipeline loads them
    feats, graph, anchors = float32_features()
    assert anchors.dtype == np.float64
    seen = record((student, "student_forward"), (student, "encode_backward"),
                  (student, "batch_gradients"), (pipeline, "encode_forward"),
                  (pipeline, "student_code"))
    cfg = dataclasses.replace(TOY, student_epochs=2, batch_size=3, train_seed=0)
    result = train_student(feats, cfg, graph, anchors, code_bits=K)
    assert float_dtypes(result.params) == {np.dtype(np.float32)}
    pipeline.encode_split(feats, result.params)
    assert set(seen) == {"student_forward", "encode_backward", "batch_gradients",
                         "encode_forward", "student_code", "Adam.params", "Adam.grads",
                         "Adam.moments"}
    assert seen == {name: {np.dtype(np.float32)} for name in seen}


@pytest.mark.parametrize("model, backward", [(teacher, "teacher_backward"),
                                             (student, "encode_backward")])
@pytest.mark.parametrize("bad_call", [0, 1])
def test_a_float64_block_gradient_fails_float32_training(monkeypatch, model, backward,
                                                         bad_call):
    # one video per block: the first block's gradients become the sum, later
    # ones are added to it and Adam copies the sum into its float32 buffer;
    # a block whose backward slipped into float64 is refused, not cast back
    monkeypatch.setattr(numerics, "BLOCK_BYTES", 1)
    feats, graph, anchors = float32_features()
    fn, calls = getattr(model, backward), []

    def slipped(*args, **kwargs):
        grads = fn(*args, **kwargs)
        calls.append(len(calls))
        if calls[-1] == bad_call:
            grads = {name: g.astype(np.float64) for name, g in grads.items()}
        return grads

    monkeypatch.setattr(model, backward, slipped)
    cfg = dataclasses.replace(TOY, teacher_epochs=1, student_epochs=1, teacher_bits=16,
                              batch_size=3, train_seed=0)
    with pytest.raises(TypeError):
        if model is teacher:
            train_teacher(feats, cfg)
        else:
            train_student(feats, cfg, graph, anchors, code_bits=K)
    assert bad_call in calls


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_integer_and_float64_features_compute_in_float64(dtype):
    feats, graph, anchors = two_class_setup(4)
    feats = np.round(3 * feats).astype(dtype)
    wide = feats.astype(np.float64)
    teacher_cfg = dataclasses.replace(TOY, teacher_epochs=1, teacher_bits=16, batch_size=4,
                                      train_seed=1)
    student_cfg = dataclasses.replace(TOY, student_epochs=1, batch_size=3, train_seed=1)
    t = train_teacher(feats, teacher_cfg)
    t64 = train_teacher(wide, teacher_cfg)
    s = train_student(feats, student_cfg, graph, anchors, code_bits=K)
    s64 = train_student(wide, student_cfg, graph, anchors, code_bits=K)
    for got, want in ((t.params, t64.params), (s.params, s64.params)):
        assert float_dtypes(got) == {np.dtype(np.float64)}
        for name, arr in got.items():
            np.testing.assert_array_equal(arr, want[name])


def test_cast_params_to_own_dtype_shares_every_tensor():
    p = toy_student(2)
    same = cast_params(p, np.float64)
    for name, arr in same.items():
        assert np.shares_memory(arr, p[name]), name


def test_float32_batch_gradients_agree_with_float64():
    # relaxed binarization keeps the objective smooth, so a last-ulp change
    # in a pre-activation cannot flip a code bit between the two runs
    feats, graph, anchors = float32_features()
    p32 = cast_params(toy_student(6), np.float32)
    p64 = cast_params(p32, np.float64)  # the same values, widened exactly
    batch = [0, 1, 2, 3, 4, 5]
    pairs = sample_pairs(graph, batch, count=8, seed=7)
    l32, g32 = batch_gradients(feats, batch, pairs, p32, TOY, anchors, binarize="relaxed")
    l64, g64 = batch_gradients(feats.astype(np.float64), batch, pairs, p64, TOY,
                               anchors, binarize="relaxed")
    for name in l64:
        assert abs(l32[name] - l64[name]) <= AGREEMENT_TOL * abs(l64[name]), name
    for name, want in g64.items():
        got = g32[name]
        assert got.dtype == np.float32
        err = np.abs(got - want).max()
        assert err <= AGREEMENT_TOL * np.abs(want).max(), (name, err)


def test_float64_anchor_centres_are_narrowed_to_the_student_dtype():
    # the pipeline's anchors come from a float64 checkpoint; the pair terms
    # must use them in float32, exactly as if they had been stored so
    feats, graph, anchors = float32_features()
    p32 = cast_params(toy_student(8), np.float32)
    batch = [0, 1, 2, 3, 4, 5]
    pairs = sample_pairs(graph, batch, count=8, seed=9)
    l64, g64 = batch_gradients(feats, batch, pairs, p32, TOY, anchors)
    l32, g32 = batch_gradients(feats, batch, pairs, p32, TOY, anchors.astype(np.float32))
    assert l64 == l32
    for name, arr in g32.items():
        np.testing.assert_array_equal(g64[name], arr)


# The small model of the benchmark's retrieval fixture: 4 frames of 64
# features, model_dim 8 and FFN width 16, where the encoder's reductions run
# on rows 8 or 16 wide
RETRIEVAL_SHAPES = RunConfig(frames=4, feat_dim=64, model_dim=8)
# the encoder's float32 oracle bound: 2**8 float32 ulps (3.1e-5) of each
# tensor's largest entry, fixed from the dtype
ORACLE_TOL = 2**8 * np.finfo(np.float32).eps


def float32_and_widened(params):
    p32 = cast_params(params, np.float32)
    return p32, cast_params(p32, np.float64)


@pytest.mark.parametrize("bits", [16, 64])
def test_float32_teacher_pass_at_retrieval_shapes_matches_the_float64_oracle(bits):
    # relaxed binarization, so that a last-ulp change cannot flip a code bit
    cfg = dataclasses.replace(RETRIEVAL_SHAPES, teacher_bits=bits)
    rng = np.random.default_rng(70 + bits)
    p32, p64 = float32_and_widened(init_teacher(cfg, rng))
    x = rng.normal(size=(6, cfg.frames, cfg.feat_dim)).astype(np.float32)
    masked = draw_mask(rng, cfg.frames, cfg.masked_frames(), len(x))
    fwd = teacher_forward(x, p32, masked, binarize="relaxed")
    losses = teacher_recon_loss(x, fwd.recon, masked)
    grads = factor_grads(teacher_backward(x, fwd, p32), p32)
    want = [oracle_teacher(xb, p64, tuple(np.flatnonzero(mk)), binarize="relaxed")
            for xb, mk in zip(x.astype(np.float64), masked)]
    assert fwd.recon.dtype == losses.dtype == np.float32
    assert_rel_close(fwd.recon, np.concatenate([rows for _, _, rows in want]), ORACLE_TOL)
    assert_rel_close(losses, [loss for loss, _, _ in want], ORACLE_TOL)
    assert list(grads) == list(p32)
    for name, got in grads.items():
        assert got.dtype == np.float32
        assert_rel_close(got, sum(g[name] for _, g, _ in want), ORACLE_TOL)


@pytest.mark.parametrize("bits", [16, 64])
def test_float32_student_pass_at_retrieval_shapes_matches_the_float64_oracle(bits):
    cfg = RETRIEVAL_SHAPES
    feats, graph, anchors = two_class_setup(72, feat_dim=cfg.feat_dim)
    x = feats.astype(np.float32)
    p32, p64 = float32_and_widened(init_student(cfg, np.random.default_rng(73), bits))
    fwd = student_forward(x, p32, binarize="relaxed")
    want_fwd = [oracle_student(xb, p64, binarize="relaxed") for xb in x.astype(np.float64)]
    assert fwd.recon.dtype == np.float32
    assert_rel_close(fwd.act, np.stack([o[1] for o in want_fwd]), ORACLE_TOL)
    assert_rel_close(fwd.recon, np.stack([o[4] for o in want_fwd]), ORACLE_TOL)

    batch = [0, 1, 3]
    pairs = sample_pairs(graph, batch, count=8, seed=74)
    losses, grads = batch_gradients(x, batch, pairs, p32, cfg, anchors, binarize="relaxed")
    want_losses, want = oracle_batch_gradients(x.astype(np.float64), batch, pairs, p64, cfg,
                                               anchors, binarize="relaxed")
    for name, value in want_losses.items():
        assert abs(losses[name] - value) <= ORACLE_TOL * abs(value), name
    assert set(grads) == set(want)
    for name, got in grads.items():
        assert got.dtype == np.float32
        assert_rel_close(got, want[name], ORACLE_TOL)
