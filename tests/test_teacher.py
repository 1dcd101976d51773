"""Teacher model: cloze forward/backward, code averaging, warm-up training."""

from dataclasses import replace

import numpy as np
import pytest

from dkph import encoder, numerics
from dkph.config import RunConfig
from dkph.encoder import factor_grads
from dkph.exceptions import ShapeError, TrainingError
from dkph.numerics import finite_diff_check
from dkph.teacher import (
    batch_gradients,
    draw_mask,
    init_teacher,
    masked_eval_loss,
    teacher_backward,
    teacher_forward,
    teacher_recon_loss,
    train_teacher,
    video_code_from_frames,
)
from test_encoder import TOY_VIDEO_BYTES, assert_rel_close, oracle_backward, oracle_forward

BITS = 16
TOY = RunConfig(frames=4, feat_dim=6, model_dim=8, ffn_dim=12, teacher_bits=BITS)


def toy_teacher(seed=0):
    return init_teacher(TOY, np.random.default_rng(seed))


def bool_masks(masks, m_frames=4):
    """The (B, M) bool mask of B frame-index sets."""
    return np.array([[i in mk for i in range(m_frames)] for mk in masks])


class TestForward:
    def test_positive_hash_outputs_give_all_plus_one_codes(self):
        p = toy_teacher(1)
        p["w_hash"][:] = 0.0
        p["b_hash"][:] = 0.5
        fwd = teacher_forward(np.random.default_rng(2).normal(size=(1, 4, 6)), p,
                              mask=bool_masks([{0}]))
        assert np.all(fwd.frame_codes == 1.0)

    def test_zero_decoder_reconstruction_is_zero_and_loss_is_mean_square(self):
        p = toy_teacher(3)
        p["w_dec"][:] = 0.0
        p["b_dec"][:] = 0.0
        x = np.random.default_rng(4).normal(size=(1, 4, 6))
        mask = (1, 3)
        fwd = teacher_forward(x, p, mask=bool_masks([mask]))
        assert np.array_equal(fwd.recon, np.zeros((2, 6)))  # the masked rows only
        expected = (x[0][list(mask)] ** 2).sum() / (6 * 2)
        assert teacher_recon_loss(x, fwd.recon, bool_masks([mask]))[0] == pytest.approx(
            expected, rel=1e-15)

    def test_matches_straight_line_oracle(self):
        p = toy_teacher(5)
        x = np.random.default_rng(6).normal(size=(1, 4, 6))
        mask = (2,)
        fwd = teacher_forward(x, p, mask=bool_masks([mask]))

        frames = oracle_forward(x[0], p, mask=mask, mask_embed=p["mask_embed"])
        z = frames @ p["w_hash"] + p["b_hash"]
        codes = np.where(np.tanh(z) >= 0, 1.0, -1.0)
        recon = codes @ p["w_dec"] + p["b_dec"]
        np.testing.assert_array_equal(fwd.frame_codes, codes[list(mask)])
        np.testing.assert_allclose(fwd.recon, recon[list(mask)], atol=1e-12)

    def test_codes_always_exactly_pm_one(self):
        p = toy_teacher(7)
        rng = np.random.default_rng(8)
        for _ in range(50):
            fwd = teacher_forward(rng.normal(size=(1, 4, 6)) * 10, p, mask=bool_masks([{0}]))
            assert np.all(np.abs(fwd.frame_codes) == 1.0)

    def test_decoder_sees_codes_only(self):
        # scaling the hash layer perturbs activations but flips no signs,
        # so the reconstruction must be bit-identical
        p = toy_teacher(9)
        x = np.random.default_rng(10).normal(size=(1, 4, 6))
        fwd_a = teacher_forward(x, p, mask=bool_masks([{1}]))
        p["w_hash"] *= 2.0
        p["b_hash"] *= 2.0
        fwd_b = teacher_forward(x, p, mask=bool_masks([{1}]))
        assert np.array_equal(fwd_a.frame_codes, fwd_b.frame_codes)
        assert np.array_equal(fwd_a.recon, fwd_b.recon)


class TestReconLoss:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 6))
        mask = bool_masks([(0, 2)])
        assert teacher_recon_loss(x, x[mask].copy(), mask)[0] == 0.0

    def test_constant_offset_gives_offset_squared(self):
        x = np.random.default_rng(1).normal(size=(1, 4, 6))
        one, three = bool_masks([(0,)]), bool_masks([(1, 2, 3)])
        assert teacher_recon_loss(x, x[one] + 1.0, one)[0] == pytest.approx(1.0, rel=1e-12)
        assert teacher_recon_loss(x, x[three] - 0.5, three)[0] == pytest.approx(
            0.25, rel=1e-12)

    def test_matches_scalar_summation_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 5, 3))
        recon = rng.normal(size=(1, 5, 3))
        mask = (0, 4)
        total = 0.0
        for m in mask:
            for j in range(3):
                total += (x[0, m, j] - recon[0, m, j]) ** 2
        rows = bool_masks([mask], 5)
        assert teacher_recon_loss(x, recon[rows], rows)[0] == pytest.approx(
            total / (3 * 2), rel=1e-14
        )

    def test_empty_mask_rejected(self):
        x = np.zeros((1, 4, 6))
        with pytest.raises(ValueError):
            teacher_recon_loss(x, x, bool_masks([()]))


class TestVideoCodeFromFrames:
    def test_identical_frames_are_idempotent(self):
        code = np.tile([1.0, -1.0, 1.0, -1.0], (5, 1))
        out, ties = video_code_from_frames(code)
        assert np.array_equal(out.bits, [1, -1, 1, -1])
        assert ties == 0

    def test_opposite_frames_tie_everywhere_and_resolve_to_plus_one(self):
        row = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        out, ties = video_code_from_frames(np.stack([row, -row]))
        assert np.all(out.bits == 1)
        assert ties == 8

    def test_majority_wins(self):
        frames = np.array([[1.0], [1.0], [-1.0]])
        out, ties = video_code_from_frames(frames)
        assert out.bits[0] == 1 and ties == 0
        out, _ = video_code_from_frames(-frames)
        assert out.bits[0] == -1

    def test_never_emits_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            frames = np.where(rng.random((4, 16)) > 0.5, 1.0, -1.0)
            out, _ = video_code_from_frames(frames)
            assert np.all(np.abs(out.bits) == 1)


class TestBackward:
    def test_full_gradient_check_relaxed_mode(self):
        p = toy_teacher(11)
        x = np.random.default_rng(12).normal(size=(1, 4, 6))
        mask = bool_masks([(0, 3)])

        def loss(_):
            fwd = teacher_forward(x, p, mask=mask, binarize="relaxed")
            return float(teacher_recon_loss(x, fwd.recon, mask)[0])

        fwd = teacher_forward(x, p, mask=mask, binarize="relaxed")
        grads = factor_grads(teacher_backward(x, fwd, p), p)

        names = list(p)
        report = finite_diff_check(
            loss, [p[n] for n in names], [grads[n] for n in names], step=1e-5
        )
        assert report.max_rel_error < 1e-5, (report, names[report.worst_index[0]])


class TestTraining:
    def make_features(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        protos = rng.normal(size=(3, 4, 6))
        return protos[rng.integers(0, 3, n)] + 0.3 * rng.normal(size=(n, 4, 6))

    def test_zero_epochs_returns_initialized_params(self):
        feats = self.make_features()
        result = train_teacher(feats, replace(TOY, teacher_epochs=0, train_seed=42, batch_size=4))
        init_ss = np.random.SeedSequence(42).spawn(3)[0]
        fresh = init_teacher(TOY, np.random.default_rng(init_ss))
        for name, arr in result.params.items():
            np.testing.assert_array_equal(arr, fresh[name])
        assert result.eval_before == result.eval_after

    def test_training_is_deterministic_under_seed(self):
        feats = self.make_features()
        a = train_teacher(feats, replace(TOY, teacher_epochs=3, train_seed=7, batch_size=4))
        b = train_teacher(feats, replace(TOY, teacher_epochs=3, train_seed=7, batch_size=4))
        for name, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[name])
        assert a.history == b.history

    def test_loss_does_not_increase_over_training(self):
        feats = self.make_features(n=20, seed=1)
        result = train_teacher(feats, replace(TOY, teacher_epochs=10, train_seed=3, batch_size=5))
        assert result.eval_after <= result.eval_before

    def test_masked_loss_halves_on_toy_corpus(self):
        # 200 videos, 50 epochs, frames correlated within a class like real
        # video; measured ratio 0.176, threshold frozen at the stated 0.5
        rng = np.random.default_rng(11)
        base = rng.normal(size=(10, 1, 6))
        protos = base + 0.3 * rng.normal(size=(10, 4, 6))
        feats = protos[rng.integers(0, 10, 200)] + 0.2 * rng.normal(size=(200, 4, 6))
        result = train_teacher(feats, replace(TOY, teacher_epochs=50, train_seed=5, batch_size=8))
        assert result.eval_after <= 0.5 * result.eval_before, (
            result.eval_before, result.eval_after,
        )

    def test_nan_features_raise_training_error_with_epoch(self):
        # poison every frame so whichever frame is masked hits the NaN;
        # binarization alone would launder NaN activations into codes
        feats = self.make_features()
        feats[0, :, 0] = np.nan
        with pytest.raises(TrainingError) as exc:
            train_teacher(feats, replace(TOY, teacher_epochs=2, train_seed=0, batch_size=4))
        assert exc.value.epoch == 0

    def test_draw_mask_bounds(self):
        rng = np.random.default_rng(0)
        for m, count in ((1, 1), (4, 1), (4, 4), (25, 4)):
            mask = draw_mask(rng, m, count, 3)
            assert mask.shape == (3, m) and mask.dtype == bool
            np.testing.assert_array_equal(mask.sum(axis=1), count)

    @pytest.mark.parametrize("ratio", [0.0, 0.15, 0.5, 0.9, 1.0])
    def test_draw_mask_marks_exactly_count_frames_per_row(self, ratio):
        rng = np.random.default_rng(1)
        for m in range(1, 31):
            count = max(1, round(ratio * m))
            mask = draw_mask(rng, m, count, 40)
            np.testing.assert_array_equal(mask.sum(axis=1), count)

    def test_draw_mask_frame_marginals_are_count_over_m(self):
        n, m = 20_000, 10
        mask = draw_mask(np.random.default_rng(2), m, 3, n)
        p = 3 / m
        assert np.abs(mask.mean(axis=0) - p).max() <= 4.5 * np.sqrt(p * (1 - p) / n)

    def test_draw_mask_marks_the_count_smallest_keys_of_one_draw(self):
        # one random((n, M)) draw, so seeded streams advance by n * M doubles
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for m in (3, 4, 25):
            count = max(1, round(0.15 * m))
            mask = draw_mask(a, m, count, 5)
            keys = b.random((5, m))
            want = np.zeros((5, m), dtype=bool)
            for r in range(5):
                want[r, np.argsort(keys[r])[:count]] = True
            np.testing.assert_array_equal(mask, want)
        assert a.random() == b.random()

    def test_eval_loss_uses_fixed_masks(self):
        feats = self.make_features()
        p = toy_teacher(0)
        masks = bool_masks([(0,)] * len(feats))
        a = masked_eval_loss(feats, p, masks)
        b = masked_eval_loss(feats, p, masks)
        assert a == b


def oracle_teacher(x, p, mask, binarize="hard"):
    """Straight-line masked loss, gradients and masked reconstruction rows
    of one video, from the encoder oracles; straight-through past the sign."""
    frames = oracle_forward(x, p, mask=mask, mask_embed=p["mask_embed"])
    act = np.tanh(frames @ p["w_hash"] + p["b_hash"])
    codes = np.where(act >= 0, 1.0, -1.0) if binarize == "hard" else act
    recon = codes @ p["w_dec"] + p["b_dec"]
    rows = list(mask)
    scale = x.shape[1] * len(rows)
    loss = ((x[rows] - recon[rows]) ** 2).sum() / scale
    d_recon = np.zeros_like(recon)
    d_recon[rows] = 2.0 * (recon[rows] - x[rows]) / scale
    d_z = (d_recon @ p["w_dec"].T) * (1.0 - act ** 2)
    enc, _, d_me = oracle_backward(x, p, d_z @ p["w_hash"].T, mask=mask,
                                   mask_embed=p["mask_embed"])
    grads = {f"encoder.{n}": g for n, g in enc.items()}
    grads.update(mask_embed=d_me, w_hash=frames.T @ d_z, b_hash=d_z.sum(axis=0),
                 w_dec=codes.T @ d_recon, b_dec=d_recon.sum(axis=0))
    return loss, grads, recon[rows]


BATCH_MASKS = [(0, 1), (1, 3), (0, 2)]  # two frames each, at distinct positions


class TestBatched:
    def test_forward_loss_and_backward_equal_per_video_oracle(self):
        p = toy_teacher(30)
        x = np.random.default_rng(31).normal(size=(3, 4, 6))
        fwd = teacher_forward(x, p, mask=bool_masks(BATCH_MASKS))
        n_masked = sum(map(len, BATCH_MASKS))
        assert fwd.recon.shape == (n_masked, 6) and fwd.frame_codes.shape == (n_masked, BITS)
        losses = teacher_recon_loss(x, fwd.recon, bool_masks(BATCH_MASKS))
        grads = factor_grads(teacher_backward(x, fwd, p), p)
        per_video = [oracle_teacher(x[b], p, BATCH_MASKS[b]) for b in range(3)]
        np.testing.assert_allclose(fwd.recon, np.concatenate([r for _, _, r in per_video]),
                                   atol=1e-12)
        np.testing.assert_allclose(losses, [loss for loss, _, _ in per_video], rtol=1e-12)
        for name, g in grads.items():
            assert_rel_close(g, sum(pv[name] for _, pv, _ in per_video))

    def test_finite_difference_check_three_videos_distinct_masks(self):
        p = toy_teacher(32)
        x = np.random.default_rng(33).normal(size=(3, 4, 6))

        def loss(_):
            fwd = teacher_forward(x, p, mask=bool_masks(BATCH_MASKS), binarize="relaxed")
            return float(teacher_recon_loss(x, fwd.recon, bool_masks(BATCH_MASKS)).sum())

        fwd = teacher_forward(x, p, mask=bool_masks(BATCH_MASKS), binarize="relaxed")
        grads = factor_grads(teacher_backward(x, fwd, p), p)
        names = list(p)
        report = finite_diff_check(loss, [p[n] for n in names], [grads[n] for n in names],
                                   step=1e-5)
        assert report.max_rel_error < 1e-4, (report, names[report.worst_index[0]])

    def test_batch_gradients_finite_difference_check_across_blocks(self, monkeypatch):
        # one video per block, so the attention weights' gradients are
        # factored from a sum of 3 blocks; the loss is the batch mean
        monkeypatch.setattr(numerics, "BLOCK_BYTES", TOY_VIDEO_BYTES)
        p = toy_teacher(37)
        x = np.random.default_rng(38).normal(size=(3, 4, 6))
        masks = bool_masks(BATCH_MASKS)
        assert len(encoder.blocks(3, p)) == 3

        def loss(_):
            return batch_gradients(x, masks, p, binarize="relaxed")[0]

        mean_loss, grads = batch_gradients(x, masks, p, binarize="relaxed")
        fwd = teacher_forward(x, p, mask=masks, binarize="relaxed")
        assert mean_loss == pytest.approx(teacher_recon_loss(x, fwd.recon, masks).mean(),
                                          rel=1e-12)
        assert list(grads) == list(p)
        report = finite_diff_check(loss, list(p.values()), [grads[n] for n in p], step=1e-5)
        assert report.max_rel_error < 1e-4, (report, list(p)[report.worst_index[0]])

    def refuses(self, masks):
        """encode_forward, teacher_forward and encoder.blocks each raise
        ShapeError for the frame-index sets ``masks``."""
        p = toy_teacher(34)
        x = np.random.default_rng(35).normal(size=(len(masks), 4, 6))
        mask = bool_masks(masks)
        for call in (lambda: encoder.encode_forward(x, p, masked=mask),
                     lambda: teacher_forward(x, p, mask=mask),
                     lambda: encoder.blocks(len(x), p, mask)):
            with pytest.raises(ShapeError, match="same count >= 1"):
                call()

    def test_a_mask_with_rows_of_different_counts_is_refused(self):
        self.refuses([(0,), (1, 3)])
        self.refuses([(0, 1), (0, 1), (0, 1, 2, 3)])

    def test_a_mask_with_a_row_that_hides_no_frame_is_refused(self):
        self.refuses([(0, 2), ()])
        self.refuses([(), ()])  # the same count in every row, but none

    def test_backward_of_a_forward_without_a_mask_raises_shape_error(self):
        p = toy_teacher(34)
        x = np.random.default_rng(35).normal(size=(2, 4, 6))
        fwd = teacher_forward(x, p, mask=None)
        with pytest.raises(ShapeError, match="bool mask"):
            teacher_backward(x, fwd, p)

    def test_eval_loss_is_mean_of_per_video_losses(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 2 * TOY_VIDEO_BYTES)
        feats = TestTraining().make_features(n=5)
        p = toy_teacher(36)
        masks = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        want = np.mean([oracle_teacher(x, p, m)[0] for x, m in zip(feats, masks)])
        assert masked_eval_loss(feats, p, bool_masks(masks)) == pytest.approx(want, rel=1e-12)

    def test_training_in_small_blocks_matches_default_blocks(self, monkeypatch):
        # same masks in the same order, so blocking only reorders float sums
        feats = TestTraining().make_features(n=12)
        a = train_teacher(feats, replace(TOY, teacher_epochs=2, train_seed=9, batch_size=8))
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 * TOY_VIDEO_BYTES)
        b = train_teacher(feats, replace(TOY, teacher_epochs=2, train_seed=9, batch_size=8))
        for name, arr in a.params.items():
            assert_rel_close(b.params[name], arr, tol=1e-9)
        assert [row["epoch"] for row in b.history] == [row["epoch"] for row in a.history]
        np.testing.assert_allclose([row["recon"] for row in b.history],
                                   [row["recon"] for row in a.history], rtol=1e-12)
