"""Transformer encoder block: forward oracle, backward gradient checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dkph import encoder, numerics
from dkph.config import RunConfig
from dkph.encoder import (
    Params,
    attention_products,
    encode_backward,
    encode_forward,
    factor_grads,
    init_encoder,
)
from dkph.exceptions import ShapeError, StaleCacheError
from dkph.numerics import finite_diff_check
from dkph.teacher import draw_mask

TOY = RunConfig(frames=4, feat_dim=6, model_dim=8, ffn_dim=12)
# encoder.blocks' bytes per TOY video: 4 frames x FFN width 12 x float64
TOY_VIDEO_BYTES = 4 * 12 * 8


def toy_params(seed=0):
    return init_encoder(TOY, np.random.default_rng(seed))


def encoder_tensors(params):
    """The ``encoder.*`` tensors of a flat parameter dict, by short name."""
    return {name[len("encoder."):]: t for name, t in params.items()
            if name.startswith("encoder.")}


def oracle_forward(x, params, mask=(), mask_embed=None):
    """Straight-line re-implementation of the block, kept free of any
    shared helper so it can disagree with the library."""
    p = encoder_tensors(params)
    eps = 1e-5
    c = math.sqrt(2.0 / math.pi)

    def ln(z, gain, bias):
        mu = z.mean(axis=1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
        return (z - mu) / np.sqrt(var + eps) * gain + bias

    h = x @ p["w_in"] + p["b_in"]
    for i in mask:
        h[i] = mask_embed
    h0 = h + p["e_pos"]
    n1 = ln(h0, p["ln1_g"], p["ln1_b"])
    q, k, v = n1 @ p["w_q"], n1 @ p["w_k"], n1 @ p["w_v"]
    s = q @ k.T / math.sqrt(p["w_q"].shape[1])
    e = np.exp(s - s.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    h1 = h0 + (a @ v) @ p["w_o"] + p["b_o"]
    n2 = ln(h1, p["ln2_g"], p["ln2_b"])
    f1 = n2 @ p["w_f1"] + p["b_f1"]
    g1 = 0.5 * f1 * (1.0 + np.tanh(c * (f1 + 0.044715 * f1 ** 3)))
    return h1 + g1 @ p["w_f2"] + p["b_f2"]


def oracle_backward(x, params, grad_out, mask=(), mask_embed=None):
    """Straight-line gradients of sum(grad_out * out) for one video.

    Recomputes the forward; shares no helper with the library. Returns
    (dict of parameter gradients by short name, grad_x, grad_mask_embed or
    None)."""
    p = encoder_tensors(params)
    eps = 1e-5
    c, a = math.sqrt(2.0 / math.pi), 0.044715

    def ln(z, gain, bias):
        mu = z.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(((z - mu) ** 2).mean(axis=1, keepdims=True) + eps)
        zhat = (z - mu) * inv
        return zhat * gain + bias, zhat, inv

    def ln_back(dy, gain, zhat, inv):
        dz = dy * gain
        dx = inv * (dz - dz.mean(axis=1, keepdims=True)
                    - zhat * (dz * zhat).mean(axis=1, keepdims=True))
        return dx, (dy * zhat).sum(axis=0), dy.sum(axis=0)

    rows = list(mask)
    h = x @ p["w_in"] + p["b_in"]
    for i in rows:
        h[i] = mask_embed
    h0 = h + p["e_pos"]
    n1, z1, i1 = ln(h0, p["ln1_g"], p["ln1_b"])
    q, k, v = n1 @ p["w_q"], n1 @ p["w_k"], n1 @ p["w_v"]
    root = math.sqrt(p["w_q"].shape[1])
    s = q @ k.T / root
    e = np.exp(s - s.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    ctx = att @ v
    h1 = h0 + ctx @ p["w_o"] + p["b_o"]
    n2, z2, i2 = ln(h1, p["ln2_g"], p["ln2_b"])
    f1 = n2 @ p["w_f1"] + p["b_f1"]
    t = np.tanh(c * (f1 + a * f1 ** 3))
    g1 = 0.5 * f1 * (1.0 + t)

    g = {"w_f2": g1.T @ grad_out, "b_f2": grad_out.sum(axis=0)}
    df1 = (grad_out @ p["w_f2"].T) * (0.5 * (1.0 + t)
                                       + 0.5 * f1 * (1.0 - t ** 2) * c * (1.0 + 3.0 * a * f1 ** 2))
    g["w_f1"], g["b_f1"] = n2.T @ df1, df1.sum(axis=0)
    dx2, g["ln2_g"], g["ln2_b"] = ln_back(df1 @ p["w_f1"].T, p["ln2_g"], z2, i2)
    dh1 = grad_out + dx2
    g["w_o"], g["b_o"] = ctx.T @ dh1, dh1.sum(axis=0)
    dctx = dh1 @ p["w_o"].T
    datt = dctx @ v.T
    dv = att.T @ dctx
    ds = att * (datt - (datt * att).sum(axis=1, keepdims=True)) / root
    dq, dk = ds @ k, ds.T @ q
    g["w_q"], g["w_k"], g["w_v"] = n1.T @ dq, n1.T @ dk, n1.T @ dv
    dx1, g["ln1_g"], g["ln1_b"] = ln_back(dq @ p["w_q"].T + dk @ p["w_k"].T + dv @ p["w_v"].T,
                                          p["ln1_g"], z1, i1)
    dh0 = dh1 + dx1
    g["e_pos"] = dh0.copy()
    grad_me = dh0[rows].sum(axis=0) if rows else None
    dh0[rows] = 0.0
    g["w_in"], g["b_in"] = x.T @ dh0, dh0.sum(axis=0)
    return g, dh0 @ p["w_in"].T, grad_me


def assert_rel_close(got, want, tol=1e-12):
    """Largest deviation within tol times the largest entry of want."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), (
        np.max(np.abs(got - want)), np.max(np.abs(want)))


def masked_params(seed):
    """Toy parameters with a mask embedding, as the teacher's carry."""
    p = toy_params(seed)
    p["mask_embed"] = np.random.default_rng(seed + 1000).normal(size=8)
    return p


def oracle_masked_rows(x, params, masks):
    """The oracle forward of each video of a batch, its masked rows only,
    stacked in ``x[masked]`` order."""
    me = params["mask_embed"]
    return np.concatenate([oracle_forward(xb, params, mask=mk, mask_embed=me)[list(mk)]
                           for xb, mk in zip(x, masks)])


def oracle_masked_backward(x, params, grad_rows, masks):
    """The oracle gradients of a batch summed over its videos, keyed like
    the parameters, for a gradient on the masked rows only (zero on the
    others); ``mask_embed`` sums over the videos with a masked frame."""
    grads, start = {}, 0
    for xb, mk in zip(x, masks):
        go = np.zeros((len(xb), grad_rows.shape[1]))
        go[list(mk)] = grad_rows[start:start + len(mk)]
        start += len(mk)
        enc, _, d_me = oracle_backward(xb, params, go, mask=mk, mask_embed=params["mask_embed"])
        part = {"encoder." + name: g for name, g in enc.items()}
        part["mask_embed"] = np.zeros(8) if d_me is None else d_me
        for name, g in part.items():
            grads[name] = grads.get(name, 0.0) + g
    return grads


class TestForward:
    def test_zero_input_zero_weights_passes_positional_rows_through(self):
        p = Params({name: np.zeros_like(t) for name, t in toy_params().items()})
        p["encoder.ln1_g"][:] = 1.0
        p["encoder.ln2_g"][:] = 1.0
        e_pos = p["encoder.e_pos"]
        e_pos[:] = np.random.default_rng(1).normal(size=e_pos.shape)
        frames, _ = encode_forward(np.zeros((1, 4, 6)), p)
        np.testing.assert_allclose(frames[0], e_pos, atol=1e-12)

    def test_full_mask_output_independent_of_features(self):
        p = masked_params(2)
        rng = np.random.default_rng(4)
        masked = np.ones((1, 4), dtype=bool)
        frames_a, _ = encode_forward(rng.normal(size=(1, 4, 6)), p, masked=masked)
        frames_b, _ = encode_forward(rng.normal(size=(1, 4, 6)), p, masked=masked)
        assert frames_a.shape == (4, 8)
        np.testing.assert_array_equal(frames_a, frames_b)

    def test_matches_straight_line_oracle(self):
        p = toy_params(5)
        x = np.random.default_rng(6).normal(size=(1, 4, 6))
        frames, _ = encode_forward(x, p)
        np.testing.assert_allclose(frames[0], oracle_forward(x[0], p), atol=1e-12)

    def test_masked_matches_oracle(self):
        p = masked_params(7)
        x = np.random.default_rng(9).normal(size=(1, 4, 6))
        frames, _ = encode_forward(x, p, masked=np.array([[False, True, False, True]]))
        assert frames.shape == (2, 8)  # the masked rows only
        np.testing.assert_allclose(frames, oracle_masked_rows(x, p, [(1, 3)]), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        p = toy_params(12)
        x = np.random.default_rng(13).normal(size=(1, 4, 6))
        _, cache = encode_forward(x, p)
        assert np.all(cache.attn >= 0)
        np.testing.assert_allclose(cache.attn.sum(axis=2), 1.0, atol=1e-12)

    def test_permutation_equivariance_with_matched_positional_rows(self):
        p = toy_params(14)
        x = np.random.default_rng(15).normal(size=(1, 4, 6))
        frames, _ = encode_forward(x, p)

        perm = [2, 0, 3, 1]
        p_perm = Params(p)
        p_perm["encoder.e_pos"] = p["encoder.e_pos"][perm]
        frames_perm, _ = encode_forward(x[:, perm], p_perm)
        np.testing.assert_allclose(frames_perm[0], frames[0][perm], atol=1e-10)

    def test_bit_identical_across_runs(self):
        a, _ = encode_forward(np.random.default_rng(16).normal(size=(1, 4, 6)), toy_params(16))
        b, _ = encode_forward(np.random.default_rng(16).normal(size=(1, 4, 6)), toy_params(16))
        assert np.array_equal(a, b)

    def test_shape_errors(self):
        p = masked_params(0)
        with pytest.raises(ShapeError):
            encode_forward(np.zeros((1, 5, 6)), p)
        with pytest.raises(ShapeError):
            encode_forward(np.zeros((1, 4, 6)), p, masked=np.zeros((1, 5), dtype=bool))
        with pytest.raises(ValueError, match="mask_embed"):  # the parameters have none
            encode_forward(np.zeros((1, 4, 6)), toy_params(0),
                           masked=np.array([[True, False, False, False]]))


class TestBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        p = toy_params(20)
        _, cache = encode_forward(np.random.default_rng(21).normal(size=(1, 4, 6)), p)
        grads = factor_grads(encode_backward(np.zeros((1, 4, 8)), cache), p)
        for name in p:
            assert not np.any(grads[name])

    def test_backward_is_linear_in_grad_out(self):
        p = toy_params(22)
        x = np.random.default_rng(23).normal(size=(1, 4, 6))
        _, cache = encode_forward(x, p)
        go = np.random.default_rng(24).normal(size=(1, 4, 8))
        g1 = factor_grads(encode_backward(go, cache), p)
        g2 = factor_grads(encode_backward(2.0 * go, cache), p)
        for name in p:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_finite_difference_check_sum_loss(self):
        p = masked_params(25)
        x = np.random.default_rng(26).normal(size=(1, 4, 6))
        masked = np.array([[False, True, False, False]])

        # weighted sum keeps the loss sensitive to every output entry
        w = np.random.default_rng(28).normal(size=(1, 8))

        def loss(_):
            frames, _c = encode_forward(x, p, masked=masked)
            return float((w * frames).sum())

        _, cache = encode_forward(x, p, masked=masked)
        grads = factor_grads(encode_backward(w, cache), p)
        assert list(grads) == list(p)

        # every tensor, mask_embed included
        report = finite_diff_check(loss, list(p.values()), [grads[n] for n in p], step=1e-5)
        assert report.max_rel_error < 1e-5, report

    def test_masked_rows_pass_no_gradient_to_input(self):
        p = masked_params(29)
        x = np.random.default_rng(30).normal(size=(1, 4, 6))
        masked = np.array([[True, False, True, False]])
        _, cache = encode_forward(x, p, masked=masked)
        grads = encode_backward(np.ones((2, 8)), cache)
        assert grads["mask_embed"].shape == (8,)
        # the features of masked frames reach neither the outputs nor the gradients
        y = x.copy()
        y[masked] = 100.0
        _, cache_y = encode_forward(y, p, masked=masked)
        for name, g in encode_backward(np.ones((2, 8)), cache_y).items():
            np.testing.assert_array_equal(g, grads[name])

    def test_stale_cache_rejected(self):
        p = toy_params(31)
        _, cache = encode_forward(np.zeros((1, 4, 6)), p)
        p.version += 1
        with pytest.raises(StaleCacheError):
            encode_backward(np.zeros((1, 4, 8)), cache)


# the frames masked in each video of a batch: two each, at distinct positions
MASKS = [(0, 1), (2, 3), (1, 3), (0, 2), (0, 3)]
MASKED = np.array([[i in mk for i in range(4)] for mk in MASKS])  # (5, 4) bool


class TestBatched:
    def batch(self, seed):
        return masked_params(seed), np.random.default_rng(seed).normal(size=(5, 4, 6))

    def test_forward_equals_stacked_per_video_oracle(self):
        p, x = self.batch(40)
        frames, cache = encode_forward(x, p, masked=MASKED)
        assert frames.shape == (MASKED.sum(), 8)
        np.testing.assert_allclose(frames, oracle_masked_rows(x, p, MASKS), rtol=0, atol=1e-12)
        # attention rows for the masked frames only: c = 2 per video
        assert cache.attn.shape == (5, 2, 4)
        np.testing.assert_allclose(cache.attn.sum(axis=2), 1.0, atol=1e-12)

    def test_unmasked_forward_equals_stacked_per_video_oracle(self):
        p, x = self.batch(48)
        frames, _ = encode_forward(x, p)
        assert frames.shape == (5, 4, 8)
        want = np.stack([oracle_forward(xb, p) for xb in x])
        np.testing.assert_allclose(frames, want, rtol=0, atol=1e-12)

    def test_oracle_backward_matches_single_video_library(self):
        p, x = self.batch(41)
        go = np.random.default_rng(42).normal(size=(2, 8))
        _, cache = encode_forward(x[:1], p, masked=np.array([[False, True, True, False]]))
        grads = factor_grads(encode_backward(go, cache), p)
        want = oracle_masked_backward(x[:1], p, go, [(1, 2)])
        assert list(grads) == list(p)
        for name in p:
            assert_rel_close(grads[name], want[name])

    def test_backward_equals_summed_per_video_oracle(self):
        p, x = self.batch(43)
        go = np.random.default_rng(44).normal(size=(MASKED.sum(), 8))
        _, cache = encode_forward(x, p, masked=MASKED)
        grads = factor_grads(encode_backward(go, cache), p)
        want = oracle_masked_backward(x, p, go, MASKS)
        for name in p:
            assert_rel_close(grads[name], want[name])

    def test_finite_difference_check_on_masked_rows(self):
        p, x = self.batch(53)
        w = np.random.default_rng(54).normal(size=(MASKED.sum(), 8))

        def loss(_):
            rows, _c = encode_forward(x, p, masked=MASKED)
            return float((w * rows).sum())

        _, cache = encode_forward(x, p, masked=MASKED)
        grads = factor_grads(encode_backward(w, cache), p)
        report = finite_diff_check(loss, list(p.values()), [grads[n] for n in p], step=1e-5)
        assert report.max_rel_error < 1e-5, report

    def test_unmasked_batch_has_no_mask_embedding_gradient(self):
        p, x = self.batch(45)
        _, cache = encode_forward(x, p)
        grads = factor_grads(encode_backward(np.ones((5, 4, 8)), cache), p)
        assert list(grads) == [name for name in p if name.startswith("encoder.")]

    def test_batch_shape_errors(self):
        p, x = self.batch(46)
        with pytest.raises(ShapeError):
            encode_forward(np.zeros((5, 3, 6)), p)
        with pytest.raises(ShapeError):
            encode_forward(x, p, masked=MASKED[:4])
        with pytest.raises(ValueError, match="mask_embed"):  # the parameters have none
            encode_forward(x, toy_params(46), masked=MASKED)
        _, cache = encode_forward(x, p)
        with pytest.raises(ShapeError):
            encode_backward(np.zeros((4, 8)), cache)

    def test_grad_out_must_have_one_row_per_masked_frame(self):
        p, x = self.batch(55)
        _, cache = encode_forward(x, p, masked=MASKED)
        n_rows = MASKED.sum()
        for shape in ((n_rows + 1, 8), (n_rows - 1, 8), (5, 4, 8)):
            with pytest.raises(ShapeError):
                encode_backward(np.zeros(shape), cache)

    def test_blocks_cover_range_in_bounded_runs(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 * TOY_VIDEO_BYTES)
        p = toy_params(0)
        assert encoder.blocks(7, p) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert encoder.blocks(6, p) == [slice(0, 3), slice(3, 6)]
        assert encoder.blocks(0, p) == []
        # a budget below one video still runs one video per block
        monkeypatch.setattr(numerics, "BLOCK_BYTES", TOY_VIDEO_BYTES - 1)
        assert encoder.blocks(3, p) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_blocks_size_by_the_widest_layer_and_the_itemsize(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 8 * TOY_VIDEO_BYTES)
        p = toy_params(0)
        assert encoder.blocks(20, p)[0] == slice(0, 8)
        assert encoder.blocks(20, encoder.cast_params(p, np.float32))[0] == slice(0, 16)
        # masked: the all-frame rows at model width (4 x 8) outweigh 2 masked
        # rows at FFN width (2 x 12); all 4 masked rows outweigh them
        assert encoder.blocks(20, p, MASKED.repeat(4, axis=0))[0] == slice(0, 12)
        assert encoder.blocks(20, p, np.ones((20, 4), dtype=bool))[0] == slice(0, 8)
        # the input width counts when it is the widest
        wide_in = init_encoder(replace(TOY, feat_dim=24), np.random.default_rng(0))
        assert encoder.blocks(20, wide_in)[0] == slice(0, 4)

    def test_forward_blocks_forms_the_products_once_and_slices_per_video_arrays(
            self, monkeypatch):
        # a masked TOY video holds 4 frames x model width 8 and, after
        # attention, 2 masked rows x FFN width 12: 3 videos fit the budget
        # of 2 unmasked ones
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 2 * TOY_VIDEO_BYTES)
        formed = []

        def counted(params):
            formed.append(attention_products(params))
            return formed[-1]

        monkeypatch.setattr(encoder, "attention_products", counted)
        p = toy_params(0)
        x = np.random.default_rng(1).normal(size=(5, 4, 6))
        calls = []

        def forward(xb, params, *per_video, products=None, tag=None):
            calls.append((xb, per_video, products, tag))
            return len(xb)

        out = list(encoder.forward_blocks(forward, x, p, MASKED, tag="t"))
        assert len(formed) == 1
        assert [blk for blk, _ in out] == [slice(0, 3), slice(3, 5)]
        assert [n for _, n in out] == [3, 2]
        for (blk, _), (xb, (masks_b,), products, tag) in zip(out, calls):
            np.testing.assert_array_equal(xb, x[blk])
            np.testing.assert_array_equal(masks_b, MASKED[blk])
            assert products is formed[0] and tag == "t"
        # a second pass forms its own products; unmasked, it passes no mask
        del calls[:]
        out = list(encoder.forward_blocks(forward, x, p))
        assert len(formed) == 2
        assert [blk for blk, _ in out] == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert [per_video for _, per_video, _, _ in calls] == [()] * 3

    @pytest.mark.parametrize("cfg, videos, masked_videos", [
        # paper default: 25 x 512 x 4 B; masked, 25 x 256 x 4 B (4 x 512 after attention)
        (RunConfig(), 20, 40),
        (RunConfig(frames=8, model_dim=64), 256, 512),      # 8 x 128; 8 x 64 x 4 B
        (RunConfig(frames=4, model_dim=8), 1024, 1024),     # 4 x 64 x 4 B; the input width
    ], ids=["default", "wide", "tiny"])
    def test_default_budget_block_sizes(self, cfg, videos, masked_videos):
        p = encoder.cast_params(init_encoder(cfg, np.random.default_rng(0)), np.float32)
        assert encoder.blocks(5000, p)[0] == slice(0, videos)
        masks = draw_mask(np.random.default_rng(1), cfg.frames, cfg.masked_frames(), 5000)
        assert encoder.blocks(5000, p, masks)[0] == slice(0, masked_videos)


class TestSelectedRows:
    """A masked forward computes only its masked rows. They equal the rows
    of an unmasked full pass whose masked frames hold an input ``u`` that
    projects onto the mask embedding; an input wider than the model width
    has such a ``u`` exactly."""

    def batch(self, seed):
        p = init_encoder(replace(TOY, feat_dim=10), np.random.default_rng(seed))
        p["mask_embed"] = np.random.default_rng(seed + 1000).normal(size=8)
        enc = encoder_tensors(p)
        u, *_ = np.linalg.lstsq(enc["w_in"].T, p["mask_embed"] - enc["b_in"], rcond=None)
        x = np.random.default_rng(seed).normal(size=(5, 4, 10))
        x_full = x.copy()
        x_full[MASKED] = u
        return p, x, x_full, u

    @pytest.mark.parametrize("at", [MASKED], ids=["masked"])
    def test_forward_equals_the_full_pass_at_the_selected_rows(self, at):
        p, x, x_full, _ = self.batch(50)
        full, _ = encode_forward(x_full, p)
        rows, _ = encode_forward(x, p, masked=at)
        assert rows.shape == (at.sum(), 8)
        np.testing.assert_allclose(rows, full[at], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("at", [MASKED], ids=["masked"])
    def test_backward_equals_the_full_backward_with_zero_unselected_gradient(self, at):
        p, x, x_full, u = self.batch(51)
        go = np.random.default_rng(52).normal(size=(5, 4, 8))
        go[~at] = 0.0
        _, full_cache = encode_forward(x_full, p)
        want = encode_backward(go, full_cache)
        _, cache = encode_forward(x, p, masked=at)
        grads = encode_backward(go[at], cache)
        # the full pass sends the masked rows' gradient through u and the
        # input projection; the masked pass sends it to the mask embedding
        g_me = grads["mask_embed"]
        assert_rel_close(grads["encoder.w_in"] + np.outer(u, g_me), want["encoder.w_in"])
        assert_rel_close(grads["encoder.b_in"] + g_me, want["encoder.b_in"])
        for name in want:
            if name not in ("encoder.w_in", "encoder.b_in"):
                assert_rel_close(grads[name], want[name])


class _RecordingWeight(np.ndarray):
    """A weight that records every matrix product it takes part in (its
    transposes included): the names of the recording operands and the
    shapes of both operands, one entry per product."""

    def __array_finalize__(self, obj):
        self.name, self.log = getattr(obj, "name", None), getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [a.view(np.ndarray) if isinstance(a, _RecordingWeight) else a for a in inputs]
        if ufunc is np.matmul:
            names = sorted(a.name for a in inputs if isinstance(a, _RecordingWeight))
            self.log.append((names, tuple(np.shape(a) for a in plain)))
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
def test_attention_weights_meet_only_d_by_d_operands(masked):
    # W_q, W_k, W_v and W_o enter a step only through attention_products
    # (W_q W_k^T and W_v W_o, 2 products) and factor_grads (4 products);
    # the forward and backward never multiply a row by any of them
    d = 8
    p = init_encoder(replace(TOY, frames=6), np.random.default_rng(56))
    p["mask_embed"] = np.random.default_rng(57).normal(size=d)
    log = []
    for name in ("w_q", "w_k", "w_v", "w_o"):
        w = p["encoder." + name].view(_RecordingWeight)
        w.name, w.log = name, log
        p["encoder." + name] = w
    mask = None
    if masked:
        mask = np.zeros((3, 6), dtype=bool)
        mask[[0, 0, 1, 1, 2, 2], [0, 3, 1, 2, 2, 5]] = True  # 2 of 6 frames per video
    x = np.random.default_rng(58).normal(size=(3, 6, 6))

    products = attention_products(p)
    assert log == [(["w_k", "w_q"], ((d, d), (d, d))), (["w_o", "w_v"], ((d, d), (d, d)))]
    del log[:]
    rows, cache = encode_forward(x, p, masked=mask, products=products)
    grads = encode_backward(np.ones_like(rows), cache)
    assert log == []
    assert {"encoder.w_qk", "encoder.w_vo"} <= set(grads)
    factored = factor_grads(grads, p)
    assert sorted(names for names, _ in log) == [["w_k"], ["w_o"], ["w_q"], ["w_v"]]
    assert all(shapes == ((d, d), (d, d)) for _, shapes in log)
    assert {"encoder.w_q", "encoder.w_k", "encoder.w_v", "encoder.w_o"} <= set(factored)
    assert not {"encoder.w_qk", "encoder.w_vo"} & set(factored)


def test_float32_masked_pass_at_paper_default_shapes_matches_the_float64_oracle():
    # forward and backward against the float64 oracle; tolerance fixed from
    # the dtype before measuring: 2**8 float32 ulps (3.1e-5) of each
    # tensor's largest entry
    tol = 2**8 * np.finfo(np.float32).eps
    rng = np.random.default_rng(59)
    cfg = RunConfig()
    masked = draw_mask(rng, cfg.frames, cfg.masked_frames(), 4)
    p32 = encoder.cast_params(init_encoder(cfg, rng), np.float32)
    p32["mask_embed"] = rng.normal(size=cfg.model_dim).astype(np.float32)
    p64 = encoder.cast_params(p32, np.float64)
    x = rng.normal(size=(len(masked), cfg.frames, cfg.feat_dim)).astype(np.float32)
    masks = [tuple(np.flatnonzero(row)) for row in masked]
    rows, cache = encode_forward(x, p32, masked=masked)
    go = rng.normal(size=rows.shape).astype(np.float32)
    grads = factor_grads(encode_backward(go, cache), p32)
    assert rows.dtype == np.float32
    assert_rel_close(rows, oracle_masked_rows(x.astype(np.float64), p64, masks), tol)
    want = oracle_masked_backward(x.astype(np.float64), p64, go.astype(np.float64), masks)
    for name in p32:
        assert grads[name].dtype == np.float32
        assert_rel_close(grads[name], want[name], tol)


def test_float32_unmasked_pass_at_paper_default_shapes_matches_the_float64_oracle():
    # the student's pass: every row through both attention products, and the
    # factored gradients; the same tolerance as the masked pass, 2**8 float32
    # ulps (3.1e-5) of each tensor's largest entry, fixed from the dtype
    tol = 2**8 * np.finfo(np.float32).eps
    cfg = RunConfig()
    rng = np.random.default_rng(60)
    p32 = encoder.cast_params(init_encoder(cfg, rng), np.float32)
    p64 = encoder.cast_params(p32, np.float64)
    x = rng.normal(size=(4, cfg.frames, cfg.feat_dim)).astype(np.float32)
    frames, cache = encode_forward(x, p32)
    go = rng.normal(size=frames.shape).astype(np.float32)
    grads = factor_grads(encode_backward(go, cache), p32)
    assert frames.dtype == np.float32
    x64, go64 = x.astype(np.float64), go.astype(np.float64)
    assert_rel_close(frames, np.stack([oracle_forward(xb, p64) for xb in x64]), tol)
    want = {}
    for xb, gb in zip(x64, go64):
        for name, g in oracle_backward(xb, p64, gb)[0].items():
            want["encoder." + name] = want.get("encoder." + name, 0.0) + g
    assert list(grads) == list(p32)
    for name in p32:
        assert grads[name].dtype == np.float32
        assert_rel_close(grads[name], want[name], tol)


def test_only_batches_and_bool_masks_are_accepted():
    p = masked_params(47)
    with pytest.raises(ShapeError):  # one video must be a batch of one
        encode_forward(np.zeros((4, 6)), p)
    with pytest.raises(ShapeError):  # frame indices are not a mask
        encode_forward(np.zeros((1, 4, 6)), p, masked=np.array([[1, 3]]))
    with pytest.raises(ShapeError):
        encode_forward(np.zeros((1, 4, 6)), p, masked=np.ones((1, 4), dtype=np.int64))


# Magnitude-relative bounds for the reduction helpers, fixed from the dtypes
# before measuring: 4 float32 ulps, and 1e-12 in float64, of the mean (row
# means) or the sum (column sums) of the reduced entries' magnitudes. The
# helpers and numpy sum the same entries in different orders, so each is
# within a few ulps of that scale of the exact result.
REDUCTION_TOL = {np.float32: 4 * np.finfo(np.float32).eps, np.float64: 1e-12}


@pytest.mark.parametrize("width", [1, 8, 64, 256])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestReductions:
    def test_row_means_equal_numpy_within_a_few_ulps(self, dtype, width):
        x = (3.0 * np.random.default_rng(width).normal(size=(300, width))).astype(dtype)
        got = encoder._row_mean(x)
        assert got.dtype == dtype and got.shape == (300, 1)
        scale = np.abs(x).mean(axis=1, keepdims=True)
        assert np.all(np.abs(got - x.mean(axis=1, keepdims=True)) <= REDUCTION_TOL[dtype] * scale)

    def test_column_sums_equal_numpy_within_a_few_ulps(self, dtype, width):
        x = (3.0 * np.random.default_rng(width + 1).normal(size=(300, width))).astype(dtype)
        got = encoder._col_sum(x)
        assert got.dtype == dtype and got.shape == (width,)
        assert np.all(np.abs(got - x.sum(axis=0)) <= REDUCTION_TOL[dtype] * np.abs(x).sum(axis=0))

    def test_small_integers_reduce_exactly(self, dtype, width):
        # every product and partial sum is a small multiple of 1/width, a
        # power of two here, so no step rounds
        x = np.random.default_rng(width + 2).integers(-8, 9, size=(300, width)).astype(dtype)
        assert np.array_equal(encoder._row_mean(x), x.mean(axis=1, keepdims=True))
        assert np.array_equal(encoder._col_sum(x), x.sum(axis=0))

    def test_column_sums_over_zero_rows_are_zero(self, dtype, width):
        got = encoder._col_sum(np.zeros((0, width), dtype=dtype))
        assert got.dtype == dtype and np.array_equal(got, np.zeros(width))


# The elementwise kernels as plain expressions: each temporary a fresh array,
# and LayerNorm's means and sums taken by the encoder's reduction helpers, as
# the kernels take them (their own tests are TestReductions). The in-place
# kernels must give these results bit for bit.
def plain_ln_forward(x, gain, bias):
    mu = encoder._row_mean(x)
    xc = x - mu
    var = encoder._row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def plain_ln_backward(dy, gain, ln_cache):
    xhat, inv = ln_cache
    d_gain = encoder._col_sum(dy * xhat)
    d_bias = encoder._col_sum(dy)
    dxhat = dy * gain
    m1 = encoder._row_mean(dxhat)
    m2 = encoder._row_mean(dxhat * xhat)
    return inv * (dxhat - m1 - xhat * m2), d_gain, d_bias


GELU_C, GELU_A = math.sqrt(2.0 / math.pi), 0.044715


def plain_gelu_forward(x):
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def plain_gelu_backward(dy, x, t):
    du = GELU_C * (1.0 + 3.0 * GELU_A * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows, width", [(7, 13), (500, 512)])
class TestInPlaceKernels:
    def inputs(self, dtype, rows, width):
        rng = np.random.default_rng(rows * width)
        x = 3.0 * rng.normal(size=(rows, width))
        gain, bias, dy = rng.normal(size=width), rng.normal(size=width), rng.normal(size=x.shape)
        return tuple(a.astype(dtype) for a in (x, gain, bias, dy))

    def test_layer_norm_equals_the_plain_expressions(self, dtype, rows, width):
        x, gain, bias, dy = self.inputs(dtype, rows, width)
        x_before, dy_before = x.copy(), dy.copy()
        want, want_cache = plain_ln_forward(x, gain, bias)
        got, cache = encoder._ln_forward(x, gain, bias)
        for a, b in zip((got, *cache), (want, *want_cache)):
            assert a.dtype == dtype and np.array_equal(a, b)
        for a, b in zip(encoder._ln_backward(dy, gain, cache),
                        plain_ln_backward(dy, gain, want_cache)):
            assert a.dtype == dtype and np.array_equal(a, b)
        # the inputs are read, never written
        assert np.array_equal(x, x_before) and np.array_equal(dy, dy_before)

    def test_gelu_equals_the_plain_expressions(self, dtype, rows, width):
        x, _, _, dy = self.inputs(dtype, rows, width)
        x_before, dy_before = x.copy(), dy.copy()
        want, want_t = plain_gelu_forward(x)
        got, t = encoder._gelu_forward(x)
        assert got.dtype == t.dtype == dtype
        assert np.array_equal(got, want) and np.array_equal(t, want_t)
        got_dx = encoder._gelu_backward(dy, x, t)
        assert got_dx.dtype == dtype
        assert np.array_equal(got_dx, plain_gelu_backward(dy, x, want_t))
        assert np.array_equal(x, x_before) and np.array_equal(dy, dy_before)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                        (np.float32, 2**8 * np.finfo(np.float32).eps)])
def test_frame_means_equal_the_mean_of_the_forward_outputs(dtype, tol):
    # the means take the FFN output product after averaging, so they equal
    # the averaged outputs up to float summation order
    cfg = RunConfig(frames=25, feat_dim=64, model_dim=32)
    p = encoder.cast_params(init_encoder(cfg, np.random.default_rng(62)), dtype)
    x = np.random.default_rng(63).normal(size=(6, 25, 64)).astype(dtype)
    means = encoder.encode_means(x, p)
    assert means.dtype == dtype
    assert_rel_close(means, encode_forward(x, p)[0].mean(axis=1), tol)
