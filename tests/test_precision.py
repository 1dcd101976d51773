"""Precision rule: training and encoding compute in the features' dtype.

Parameters are built in np.result_type(features, np.float32), and every pass
runs in the parameters' dtype: float32 features stay float32 end to end,
float64 and int64 features compute in float64.
"""

import dataclasses

import numpy as np
import pytest

from dkph import optim, pipeline, student, teacher
from dkph.encoder import cast_params
from dkph.graph import sample_pairs
from dkph.student import LossWeights, batch_gradients, train_student
from dkph.teacher import masked_eval_loss, train_teacher
from test_student import TOY, K, toy_student, two_class_setup

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

    def recorded_step(self, params, grads):
        step(self, params, grads)
        add("Adam.params", params)
        add("Adam.grads", grads)
        add("Adam.moments", (self._m, self._v))

    monkeypatch.setattr(optim.Adam, "step", recorded_step)

    def start(*targets):
        for module, name in targets:
            wrap(module, name)
        return seen

    return start


def float32_features():
    feats, graph, anchor_of = two_class_setup(3)
    return feats.astype(np.float32), graph, anchor_of


def test_teacher_training_and_eval_stay_float32(record):
    feats, _, _ = float32_features()
    seen = record((teacher, "teacher_forward"), (teacher, "teacher_backward"),
                  (teacher, "teacher_recon_loss"))
    result = train_teacher(feats, TOY, epochs=2, code_bits=16, batch_size=4, seed=0)
    assert float_dtypes(result.params) == {np.dtype(np.float32)}
    masked_eval_loss(feats, result.params, result.eval_masks)
    assert set(seen) == {"teacher_forward", "teacher_backward", "teacher_recon_loss",
                         "Adam.params", "Adam.grads", "Adam.moments"}
    assert seen == {name: {np.dtype(np.float32)} for name in seen}


def test_student_training_and_encoding_stay_float32(record):
    # the anchor centres are float64, as the pipeline loads them
    feats, graph, anchor_of = float32_features()
    assert anchor_of(0).dtype == np.float64
    seen = record((student, "student_forward"), (student, "batch_gradients"),
                  (pipeline, "student_forward"))
    result = train_student(feats, TOY, graph, anchor_of, LossWeights(), code_bits=K,
                           epochs=2, batch_size=3, seed=0)
    assert float_dtypes(result.params) == {np.dtype(np.float32)}
    pipeline.encode_split(feats, result.params)
    assert set(seen) == {"student_forward", "batch_gradients",
                         "Adam.params", "Adam.grads", "Adam.moments"}
    assert seen == {name: {np.dtype(np.float32)} for name in seen}


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_integer_and_float64_features_compute_in_float64(dtype):
    feats, graph, anchor_of = two_class_setup(4)
    feats = np.round(3 * feats).astype(dtype)
    wide = feats.astype(np.float64)
    t = train_teacher(feats, TOY, epochs=1, code_bits=16, batch_size=4, seed=1)
    t64 = train_teacher(wide, TOY, epochs=1, code_bits=16, batch_size=4, seed=1)
    s = train_student(feats, TOY, graph, anchor_of, LossWeights(), code_bits=K,
                      epochs=1, batch_size=3, seed=1)
    s64 = train_student(wide, TOY, graph, anchor_of, LossWeights(), code_bits=K,
                        epochs=1, batch_size=3, seed=1)
    for got, want in ((t.params, t64.params), (s.params, s64.params)):
        assert float_dtypes(got) == {np.dtype(np.float64)}
        for name, arr in got.as_dict().items():
            np.testing.assert_array_equal(arr, want.as_dict()[name])


def test_cast_params_to_own_dtype_shares_every_tensor():
    p = toy_student(2)
    same = cast_params(p, np.float64)
    for name, arr in same.as_dict().items():
        assert np.shares_memory(arr, p.as_dict()[name]), name


def test_float32_batch_gradients_agree_with_float64():
    # relaxed binarization keeps the objective smooth, so a last-ulp change
    # in a pre-activation cannot flip a code bit between the two runs
    feats, graph, anchor_of = float32_features()
    p32 = cast_params(toy_student(6), np.float32)
    p64 = cast_params(p32, np.float64)  # the same values, widened exactly
    batch = [0, 1, 2, 3, 4, 5]
    pairs = sample_pairs(graph, batch, count=8, seed=7)
    weights = LossWeights()
    l32, g32 = batch_gradients(feats, batch, pairs, p32, weights, anchor_of,
                               binarize="relaxed")
    l64, g64 = batch_gradients(feats.astype(np.float64), batch, pairs, p64, weights,
                               anchor_of, binarize="relaxed")
    for name in l64:
        assert abs(l32[name] - l64[name]) <= AGREEMENT_TOL * abs(l64[name]), name
    for name, want in g64.as_dict().items():
        got = g32.as_dict()[name]
        assert got.dtype == np.float32
        err = np.abs(got - want).max()
        assert err <= AGREEMENT_TOL * np.abs(want).max(), (name, err)


def test_float64_anchor_centres_are_narrowed_to_the_student_dtype():
    # the pipeline's anchors come from a float64 checkpoint; the pair terms
    # must use them in float32, exactly as if they had been stored so
    feats, graph, anchor_of = float32_features()
    p32 = cast_params(toy_student(8), np.float32)
    batch = [0, 1, 2, 3, 4, 5]
    pairs = sample_pairs(graph, batch, count=8, seed=9)
    l64, g64 = batch_gradients(feats, batch, pairs, p32, LossWeights(), anchor_of)
    l32, g32 = batch_gradients(feats, batch, pairs, p32, LossWeights(),
                               lambda v: anchor_of(v).astype(np.float32))
    assert l64 == l32
    for name, arr in g32.as_dict().items():
        np.testing.assert_array_equal(g64.as_dict()[name], arr)
