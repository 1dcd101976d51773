"""Dual-stream student: forward oracle, loss values, training step."""

import numpy as np
import pytest

from collections import defaultdict
from dataclasses import replace

from dkph import encoder, numerics, student
from dkph.codes import unpack_bits, pack_bits
from dkph.config import RunConfig
from dkph.exceptions import TrainingError
from dkph.graph import PairSample, sample_pairs
from dkph.gradcheck import student_gradient_check, teacher_gradient_check
from dkph.optim import write_log
from dkph.student import (
    PROBE_MODES,
    batch_gradients,
    init_student,
    loss_shares,
    probe_reconstruction,
    student_code,
    student_forward,
    student_recon_loss,
    student_step,
    train_student,
)
from dkph.teacher import init_teacher, teacher_forward
from test_encoder import TOY_VIDEO_BYTES, assert_rel_close, oracle_backward, oracle_forward
from test_graph import graph_from_rows

TOY = RunConfig(frames=4, feat_dim=6, model_dim=8, ffn_dim=12)
K = 8


def toy_student(seed=0):
    return init_student(TOY, np.random.default_rng(seed), code_bits=K)


class TestForward:
    @pytest.mark.parametrize("binarize", ["hard", "relaxed"])
    def test_student_code_is_the_forward_code(self, binarize):
        p = toy_student(7)
        x = np.random.default_rng(8).normal(size=(5, 4, 6))
        fwd = student_forward(x, p, binarize=binarize)
        act, code = student_code(encoder.encode_forward(x, p)[0], p, binarize)
        assert np.array_equal(act, fwd.act) and np.array_equal(code, fwd.code)

    def test_zero_hash_layer_gives_all_plus_one_by_tie_rule(self):
        p = toy_student(1)
        p["w_hash"][:] = 0.0
        p["b_hash"][:] = 0.0
        fwd = student_forward(np.random.default_rng(2).normal(size=(1, 4, 6)), p)
        assert np.all(fwd.code == 1.0)

    def test_zero_temporal_layer_makes_all_frames_reconstruct_identically(self):
        p = toy_student(3)
        p["w_temp"][:] = 0.0
        fwd = student_forward(np.random.default_rng(4).normal(size=(1, 4, 6)), p)
        for m in range(1, 4):
            np.testing.assert_array_equal(fwd.recon[0, m], fwd.recon[0, 0])

    def test_matches_straight_line_oracle(self):
        p = toy_student(5)
        x = np.random.default_rng(6).normal(size=(1, 4, 6))
        fwd = student_forward(x, p)

        frames = oracle_forward(x[0], p)
        t_hat = frames.reshape(-1) @ p["w_hash"] + p["b_hash"]
        code = np.where(np.tanh(t_hat) >= 0, 1.0, -1.0)
        latent = frames @ p["w_temp"] + p["b_temp"]
        recon = (latent + code) @ p["w_dec"] + p["b_dec"]
        np.testing.assert_array_equal(fwd.code[0], code)
        np.testing.assert_allclose(fwd.latent[0], latent, atol=1e-12)
        np.testing.assert_allclose(fwd.recon[0], recon, atol=1e-12)

    def test_codes_always_pm_one_and_pack_roundtrip(self):
        p = toy_student(7)
        rng = np.random.default_rng(8)
        for _ in range(50):
            fwd = student_forward(rng.normal(size=(1, 4, 6)) * 5, p)
            assert np.all(np.abs(fwd.code) == 1.0)
            bits = fwd.code.astype(np.int8)
            assert np.array_equal(unpack_bits(pack_bits(bits), K), bits)

    def test_teacher_and_student_reject_an_unknown_binarize_mode(self):
        x = np.random.default_rng(11).normal(size=(1, 4, 6))
        with pytest.raises(ValueError, match="unknown binarize mode 'soft'"):
            student_forward(x, toy_student(11), binarize="soft")
        teacher = init_teacher(replace(TOY, teacher_bits=K), np.random.default_rng(12))
        with pytest.raises(ValueError, match="unknown binarize mode 'soft'"):
            teacher_forward(x, teacher, mask=np.ones((1, 4), dtype=bool), binarize="soft")

    def test_sign_preserving_perturbation_leaves_hard_path_unchanged(self):
        # recon-only invariance: scaling the hash head flips no signs, so
        # codes and reconstruction are bit-identical
        p = toy_student(9)
        x = np.random.default_rng(10).normal(size=(1, 4, 6))
        a = student_forward(x, p)
        p["w_hash"] *= 3.0
        p["b_hash"] *= 3.0
        b = student_forward(x, p)
        assert np.array_equal(a.code, b.code)
        assert np.array_equal(a.recon, b.recon)


class TestReconLoss:
    def test_zero_for_perfect_reconstruction(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        assert student_recon_loss(x, x.copy()) == 0.0

    def test_constant_offset_squares(self):
        x = np.random.default_rng(1).normal(size=(4, 6))
        assert student_recon_loss(x, x + 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_matches_scalar_oracle_on_batch(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 6))
        recon = rng.normal(size=(3, 4, 6))
        total = 0.0
        for i in range(3):
            for m in range(4):
                for d in range(6):
                    total += (x[i, m, d] - recon[i, m, d]) ** 2
        assert student_recon_loss(x, recon) == pytest.approx(total / 72, rel=1e-13)


def one_pair(i: int, j: int, label: int) -> PairSample:
    return PairSample(np.array([i]), np.array([j]), np.array([label]))


def bsim_loss(pairs: PairSample, codes: dict[int, np.ndarray]) -> float:
    """Pairwise code-similarity loss on real-valued code relaxations.

    Mean over pairs of |label| * (label - <c_i, c_j>/K)^2. Hard {-1,+1}
    codes are valid inputs; training feeds tanh(t_hat) so the term stays
    differentiable. A per-pair loop, the oracle of ``batch_gradients``.
    """
    if not len(pairs.label):
        raise ValueError("bsim needs at least one pair")
    total = 0.0
    for i, j, label in zip(pairs.i, pairs.j, pairs.label):
        ci, cj = codes[i], codes[j]
        sim = float(ci @ cj) / ci.size
        total += abs(label) * (label - sim) ** 2
    return total / len(pairs.label)


def tsim_loss(pairs: PairSample, means: dict[int, np.ndarray],
              anchors: np.ndarray, eta: float, beta: float) -> float:
    """Embedding-alignment loss against frozen teacher anchor centers.

    Every sampled pair pulls the anchor video's mean embedding toward its
    own 1-NN teacher center; hard negatives add a hinge pushing it closer
    to that center than to the partner's center by margin beta. For
    positive pairs the hinge coefficient |label|*(1-label) vanishes. A
    per-pair loop, the oracle of ``batch_gradients``.
    """
    if not len(pairs.label):
        raise ValueError("tsim needs at least one pair")
    total = 0.0
    for i, j, label in zip(pairs.i, pairs.j, pairs.label):
        ti = means[i]
        pull = float(((ti - anchors[i]) ** 2).sum())
        coeff = abs(label) * (1 - label)
        term = pull
        if coeff:
            push = float(((ti - anchors[j]) ** 2).sum())
            term += eta * coeff * max(0.0, pull - push + beta)
        total += term
    return total / len(pairs.label)


class TestBsimLoss:
    def test_identical_codes_positive_pair_is_zero(self):
        c = np.ones(K)
        pairs = one_pair(0, 1, 1)
        assert bsim_loss(pairs, {0: c, 1: c.copy()}) == 0.0

    def test_opposite_codes_positive_pair_is_four(self):
        c = np.ones(K)
        pairs = one_pair(0, 1, 1)
        assert bsim_loss(pairs, {0: c, 1: -c}) == pytest.approx(4.0)

    def test_orthogonal_codes_negative_pair_is_one(self):
        a = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        b = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        assert float(a @ b) == 0.0
        assert bsim_loss(one_pair(0, 1, -1), {0: a, 1: b}) == pytest.approx(1.0)

    def test_symmetric_in_pair_order(self):
        rng = np.random.default_rng(3)
        a, b = np.tanh(rng.normal(size=K)), np.tanh(rng.normal(size=K))
        lhs = bsim_loss(one_pair(0, 1, -1), {0: a, 1: b})
        rhs = bsim_loss(one_pair(1, 0, -1), {0: a, 1: b})
        assert lhs == pytest.approx(rhs, rel=1e-15)


class TestTsimLoss:
    def centers(self):
        return np.stack([np.zeros(8), np.full(8, 0.5)])

    def test_on_center_positive_pair_is_zero(self):
        c = self.centers()
        pairs = one_pair(0, 1, 1)
        assert tsim_loss(pairs, {0: c[0].copy()}, c, eta=0.1, beta=1.0) == 0.0

    def test_inactive_hinge_negative_pair_is_zero(self):
        # anchor on its own center; partner center at squared distance 2
        ci = np.zeros(8)
        cj = np.full(8, 0.5)  # ||ci - cj||^2 = 8 * 0.25 = 2
        pairs = one_pair(0, 1, -1)
        val = tsim_loss(pairs, {0: ci.copy()}, np.stack([ci, cj]), eta=0.1, beta=1.0)
        assert val == 0.0

    def test_active_hinge_scalar_oracle(self):
        # pull = 0, push = 0.5, beta = 1 -> eta * 2 * (0 - 0.5 + 1) = 0.1
        ci = np.zeros(8)
        cj = np.zeros(8)
        cj[0] = np.sqrt(0.5)
        pairs = one_pair(0, 1, -1)
        val = tsim_loss(pairs, {0: ci.copy()}, np.stack([ci, cj]), eta=0.1, beta=1.0)
        assert val == pytest.approx(0.1, rel=1e-12)

    def test_hinge_term_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ti = rng.normal(size=8)
            ci, cj = rng.normal(size=8), rng.normal(size=8)
            val = tsim_loss(one_pair(0, 1, -1), {0: ti}, np.stack([ci, cj]), eta=0.3, beta=1.0)
            pull = float(((ti - ci) ** 2).sum())
            assert val >= pull - 1e-12


def two_class_setup(seed=0, feat_dim=6):
    """Six videos of 4 frames in two clusters plus a hand graph over them."""
    rng = np.random.default_rng(seed)
    base = np.stack([rng.normal(size=(4, feat_dim)), 3.0 + rng.normal(size=(4, feat_dim))])
    feats = np.stack([base[i % 2] + 0.1 * rng.normal(size=(4, feat_dim)) for i in range(6)])
    evens, odds = [0, 2, 4], [1, 3, 5]
    pos = [np.array([v for v in (evens if i % 2 == 0 else odds) if v != i]) for i in range(6)]
    neg = [np.array(odds if i % 2 == 0 else evens) for i in range(6)]
    graph = graph_from_rows(pos, neg)
    anchors = np.stack([np.zeros(8), np.ones(8)])[np.arange(6) % 2]
    return feats, graph, anchors


class TestStep:
    def test_zero_gamma_step_is_reconstruction_only_bit_exact(self):
        feats, graph, anchors = two_class_setup()
        w0 = replace(TOY, gamma1=0.0, gamma2=0.0)

        rng_a = np.random.default_rng(0)
        parts, grads_a = student_step(feats, [0, 1, 2], toy_student(11), graph, anchors, w0,
                                      rng_a)
        assert parts["bsim"] == 0.0 and parts["tsim"] == 0.0
        # no pairs were sampled: the rng state is untouched
        assert rng_a.random() == np.random.default_rng(0).random()

        # reference: pure reconstruction gradients
        losses, grads = batch_gradients(feats, [0, 1, 2], None, toy_student(11), w0, None)
        assert losses["total"] == parts["recon"]
        assert list(grads_a) == list(grads)
        for name, g in grads.items():
            np.testing.assert_array_equal(grads_a[name], g)

    def test_step_returns_all_components_and_a_gradient_per_unfrozen_tensor(self):
        feats, graph, anchors = two_class_setup()
        params = toy_student(12)
        before = {k: v.copy() for k, v in params.items()}
        parts, grads = student_step(feats, [0, 1, 2, 3], params, graph, anchors,
                                    TOY, np.random.default_rng(1))
        assert set(parts) == {"recon", "bsim", "tsim", "total"}
        assert parts["total"] == pytest.approx(
            parts["recon"] + 0.11 * parts["bsim"] + 0.9 * parts["tsim"])
        assert list(grads) == list(params)
        # the step only computes: the optimizer of optim.train_epochs applies it
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])
        # a frozen tensor's gradient is zero, so the optimizer leaves it as it is
        _, frozen = student_step(feats, [0, 1, 2, 3], params, graph, anchors,
                                 TOY, np.random.default_rng(1), freeze=("w_temp", "b_temp"))
        assert list(frozen) == list(params)
        for name, g in frozen.items():
            if name in ("w_temp", "b_temp"):
                assert not g.any()
            else:
                np.testing.assert_array_equal(g, grads[name])

    def test_full_loss_gradient_check_toy(self):
        report = student_gradient_check(seed=0)
        assert report.max_rel_error < 1e-4, report

    def test_gradient_checks_sweep_every_tensor_of_the_init_dict(self):
        # the gradcheck defaults: 4 frames, 6 features, model width 8, 8 bits
        cfg = RunConfig(frames=4, feat_dim=6, model_dim=8, teacher_bits=8)
        rng = np.random.default_rng(0)
        for check, params, want in ((teacher_gradient_check, init_teacher(cfg, rng), 798),
                                    (student_gradient_check, init_student(cfg, rng, 8), 1054)):
            size = sum(t.size for t in params.values())
            assert check(seed=0).param_count == size == want, check.__name__

    def test_training_descends_and_is_deterministic(self):
        feats, graph, anchors = two_class_setup()
        cfg = replace(TOY, learn_rate=2e-3, student_epochs=12, batch_size=3, train_seed=5)
        a = train_student(feats, cfg, graph, anchors, code_bits=K)
        b = train_student(feats, cfg, graph, anchors, code_bits=K)
        assert a.history[-1]["total"] < a.history[0]["total"]
        for name, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[name])
        assert a.history == b.history

    def test_without_the_dual_stream_the_temporal_head_stays_zero_and_the_rest_trains(self):
        # 6 videos in batches of 4: two steps per epoch, over 3 epochs
        feats, graph, anchors = two_class_setup()
        cfg = replace(TOY, student_epochs=3, batch_size=4, train_seed=2)
        init_ss, _ = np.random.SeedSequence(cfg.train_seed).spawn(2)
        before = init_student(cfg, np.random.default_rng(init_ss), K)
        result = train_student(feats, cfg, graph, anchors, code_bits=K, dual_stream=False)
        assert list(result.params) == list(before)
        for name, arr in result.params.items():
            if name in ("w_temp", "b_temp"):
                assert np.array_equal(arr, np.zeros_like(arr)), name
            else:
                assert not np.array_equal(arr, before[name]), name

    def test_nan_features_raise_training_error_with_epoch(self):
        # every frame of video 0 is poisoned, and each epoch's batches cover it
        feats, graph, anchors = two_class_setup()
        feats[0, :, 0] = np.nan
        cfg = replace(TOY, student_epochs=2, batch_size=3, train_seed=0)
        with pytest.raises(TrainingError) as exc:
            train_student(feats, cfg, graph, anchors, code_bits=K)
        assert exc.value.epoch == 0

    @pytest.mark.parametrize("shape", [(0, 4, 6), (6, 4)], ids=["no-videos", "2-d"])
    def test_features_not_a_nonempty_batch_raise_value_error(self, shape):
        _, graph, anchors = two_class_setup()
        with pytest.raises(ValueError, match=r"^features must be a nonempty \(N, M, D\) array$"):
            train_student(np.zeros(shape), TOY, graph, anchors, code_bits=K)

    def test_training_log_lines(self, tmp_path):
        # by hand, at gamma1 = 0.11 and gamma2 = 0.9: total = 0.5 + 0.11 + 0.45
        # = 1.06, and the shares are 0.5, 0.11 and 0.45 over 1.06
        history = [{"epoch": 0, "recon": 0.5, "bsim": 1.0, "tsim": 0.5, "total": 1.06,
                    "share_recon": 0.4716981132, "share_bsim": 0.1037735849,
                    "share_tsim": 0.4245283019}]
        path = tmp_path / "log.txt"
        write_log(path, history)
        line = path.read_text().strip()
        assert line == ("epoch=0 recon=0.5 bsim=1 tsim=0.5 total=1.06 share_recon=0.4717 "
                        "share_bsim=0.1038 share_tsim=0.4245")
        # perfbench reads the last token that starts with total=
        assert [t for t in line.split() if t.startswith("total")] == ["total=1.06"]

    def test_loss_shares_are_weighted_terms_over_the_total(self):
        shares = loss_shares({"recon": 0.5, "bsim": 1.0, "tsim": 0.5, "total": 1.06}, TOY)
        assert shares == pytest.approx({"share_recon": 0.5 / 1.06, "share_bsim": 0.11 / 1.06,
                                        "share_tsim": 0.45 / 1.06}, rel=1e-12)
        zero = {"recon": 0.0, "bsim": 0.0, "tsim": 0.0, "total": 0.0}
        assert loss_shares(zero, TOY) == {"share_recon": 0.0, "share_bsim": 0.0,
                                          "share_tsim": 0.0}

    def test_training_history_carries_the_loss_shares(self):
        feats, graph, anchors = two_class_setup()
        cfg = replace(TOY, student_epochs=2, batch_size=3, train_seed=5)
        for row in train_student(feats, cfg, graph, anchors, code_bits=K).history:
            assert {k: row[k] for k in ("share_recon", "share_bsim", "share_tsim")} == \
                loss_shares(row, cfg)
            assert sum(loss_shares(row, cfg).values()) == pytest.approx(1.0, rel=1e-9)

    def test_batch_gradients_finite_difference_check_across_blocks(self, monkeypatch):
        # the gradient check's toy batch in blocks of 2 videos (4 frames x
        # FFN width 16 x float64 each), so the attention weights' gradients
        # are factored from a sum of 3 blocks
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 2 * 4 * 16 * 8)
        cfg = RunConfig(frames=4, feat_dim=6, model_dim=8, teacher_bits=8)
        params = init_student(cfg, np.random.default_rng(0), 8)
        assert len(encoder.blocks(6, params)) == 3
        report = student_gradient_check(seed=0)
        assert report.max_rel_error < 1e-4, report


def oracle_student(x, p, binarize="hard"):
    """Straight-line forward of one video: frames, act, code, latent, recon;
    the code is tanh itself under ``binarize="relaxed"``."""
    frames = oracle_forward(x, p)
    act = np.tanh(frames.reshape(-1) @ p["w_hash"] + p["b_hash"])
    code = np.where(act >= 0, 1.0, -1.0) if binarize == "hard" else act
    latent = frames @ p["w_temp"] + p["b_temp"]
    return frames, act, code, latent, (latent + code) @ p["w_dec"] + p["b_dec"]


def oracle_batch_gradients(features, batch, pairs, p, w, anchors, binarize="hard"):
    """Per-video, per-pair loops over the straight-line oracles;
    straight-through past the sign."""
    k = p["w_hash"].shape[1]
    m, d_in = features.shape[1:]
    batch = [int(v) for v in batch]
    need = sorted(set(batch) | {int(v) for v in pairs.i} | {int(v) for v in pairs.j})
    fw = {v: oracle_student(features[v], p, binarize) for v in need}
    batch = sorted(set(batch))
    rs = 1.0 / (len(batch) * m * d_in)
    l_recon = rs * sum(((fw[v][4] - features[v]) ** 2).sum() for v in batch)
    d_act = {v: np.zeros(k) for v in need}
    d_mean = {v: np.zeros(p["w_temp"].shape[0]) for v in need}
    l_bsim = l_tsim = 0.0
    n = len(pairs.label)
    for i, j, label in zip(pairs.i.tolist(), pairs.j.tolist(), pairs.label.tolist()):
        ui, uj = fw[i][1], fw[j][1]
        resid = label - ui @ uj / k
        l_bsim += abs(label) * resid ** 2
        d_sim = w.gamma1 * -2.0 * abs(label) * resid / (n * k)
        d_act[i] += d_sim * uj
        d_act[j] += d_sim * ui
        ti = fw[i][0].mean(axis=0)
        di = ti - anchors[i]
        pull = di @ di
        l_tsim += pull
        d_mean[i] += w.gamma2 * 2.0 * di / n
        coeff = abs(label) * (1 - label)
        dj = ti - anchors[j]
        hinge = pull - dj @ dj + w.beta
        if coeff and hinge > 0:
            l_tsim += w.eta * coeff * hinge
            d_mean[i] += w.gamma2 * w.eta * coeff * 2.0 * (di - dj) / n

    g = defaultdict(float)
    for v in need:
        frames, act, code, latent, recon = fw[v]
        d_frames = np.zeros_like(frames)
        d_code = np.zeros(k)
        if v in batch:
            d_recon = 2.0 * rs * (recon - features[v])
            g["w_dec"] += (latent + code).T @ d_recon
            g["b_dec"] += d_recon.sum(axis=0)
            d_mix = d_recon @ p["w_dec"].T
            g["w_temp"] += frames.T @ d_mix
            g["b_temp"] += d_mix.sum(axis=0)
            d_frames += d_mix @ p["w_temp"].T
            d_code += d_mix.sum(axis=0)
        d_that = (d_code + d_act[v]) * (1.0 - act ** 2)
        g["w_hash"] += np.outer(frames.reshape(-1), d_that)
        g["b_hash"] += d_that
        d_frames += (p["w_hash"] @ d_that).reshape(frames.shape) + d_mean[v] / m
        enc, _, _ = oracle_backward(features[v], p, d_frames)
        for name, grad in enc.items():
            g[f"encoder.{name}"] += grad
    losses = {"recon": l_recon, "bsim": l_bsim / n, "tsim": l_tsim / n}
    return losses, g


class TestBatched:
    def test_forward_equals_stacked_per_video_oracle(self):
        p = toy_student(20)
        x = np.random.default_rng(21).normal(size=(3, 4, 6))
        fwd = student_forward(x, p)
        want = [oracle_student(x[b], p) for b in range(3)]
        assert fwd.code.shape == (3, K) and fwd.recon.shape == (3, 4, 6)
        np.testing.assert_array_equal(fwd.code, np.stack([o[2] for o in want]))
        np.testing.assert_allclose(fwd.act, np.stack([o[1] for o in want]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(fwd.recon, np.stack([o[4] for o in want]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [2, 64])
    def test_batch_gradients_equal_per_video_oracle(self, monkeypatch, block):
        # the batch is a subset, and pairs reach videos outside it
        monkeypatch.setattr(numerics, "BLOCK_BYTES", block * TOY_VIDEO_BYTES)
        feats, graph, anchors = two_class_setup(22)
        p = toy_student(23)
        batch = [0, 1, 3]
        pairs = sample_pairs(graph, batch, count=8, seed=24)
        assert set(pairs.j.tolist()) - set(batch)
        losses, grads = batch_gradients(feats, batch, pairs, p, TOY, anchors)
        want_losses, want = oracle_batch_gradients(feats, batch, pairs, p, TOY, anchors)
        for name in ("recon", "bsim", "tsim"):
            assert losses[name] == pytest.approx(want_losses[name], rel=1e-12)
        assert set(grads) == set(want)
        for name, g in grads.items():
            assert_rel_close(g, want[name])

    def test_a_video_twice_in_an_array_batch_counts_once(self):
        # reconstruction covers the distinct videos of the batch, as
        # sorted(set(batch)) does in the oracle
        feats, graph, anchors = two_class_setup(30)
        p = toy_student(31)
        batch = np.array([3, 0, 1, 3])
        pairs = sample_pairs(graph, [0, 1, 3], count=8, seed=32)
        losses, grads = batch_gradients(feats, batch, pairs, p, TOY, anchors)
        want_losses, want = oracle_batch_gradients(feats, batch, pairs, p, TOY, anchors)
        for name in ("recon", "bsim", "tsim"):
            assert losses[name] == pytest.approx(want_losses[name], rel=1e-12)
        for name, g in grads.items():
            assert_rel_close(g, want[name])
        once, once_grads = batch_gradients(feats, [0, 1, 3], pairs, p, TOY, anchors)
        assert once == losses
        for name, g in grads.items():
            np.testing.assert_array_equal(g, once_grads[name])

    @pytest.mark.parametrize("binarize", ["hard", "relaxed"])
    def test_pair_losses_equal_per_pair_loops(self, binarize):
        feats, graph, anchors = two_class_setup(27)
        p = toy_student(28)
        pairs = sample_pairs(graph, [0, 1, 3], count=8, seed=29)
        losses, _ = batch_gradients(feats, [0, 1, 3], pairs, p, TOY, anchors,
                                    binarize=binarize)
        fwd = {v: student_forward(feats[v:v + 1], p, binarize=binarize)
               for v in range(len(feats))}
        acts = {v: f.act[0] for v, f in fwd.items()}
        means = {v: f.frames[0].mean(axis=0) for v, f in fwd.items()}
        assert losses["bsim"] == pytest.approx(bsim_loss(pairs, acts), rel=1e-12)
        assert losses["tsim"] == pytest.approx(
            tsim_loss(pairs, means, anchors, eta=TOY.eta, beta=TOY.beta), rel=1e-12)

    @pytest.mark.parametrize("mode", PROBE_MODES)
    def test_probe_reconstruction_equals_per_video_oracle(self, monkeypatch, mode):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 2 * TOY_VIDEO_BYTES)
        feats, _, _ = two_class_setup(25)
        p = toy_student(26)
        total = 0.0
        for x in feats:
            _, _, code, latent, _ = oracle_student(x, p)
            mix = {"intact": latent + code, "drop_code": latent,
                   "drop_latent": np.tile(code, (4, 1)),
                   "mean_latent": np.tile(latent.mean(axis=0) + code, (4, 1))}[mode]
            total += ((x - (mix @ p["w_dec"] + p["b_dec"])) ** 2).mean()
        assert probe_reconstruction(feats, p)[mode] == pytest.approx(total / len(feats),
                                                                     rel=1e-12)

    def test_probe_reconstruction_runs_one_forward_per_block(self, monkeypatch):
        # 5 videos in blocks of 2: every mode from the same 3 forwards
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 2 * TOY_VIDEO_BYTES)
        calls = []

        def counted(x, params, binarize="hard", products=None):
            calls.append(len(x))
            return student_forward(x, params, binarize, products)

        monkeypatch.setattr(student, "student_forward", counted)
        feats, _, _ = two_class_setup(25)
        errors = probe_reconstruction(feats[:5], toy_student(26))
        assert list(errors) == list(PROBE_MODES)
        assert calls == [2, 2, 1]
