"""Dual-stream student: one hash code per video plus per-frame latents.

Two parallel heads read the shared encoder output:

    hash head      t_hat = H(concat of all M frame embeddings)   -> K values
                   code  = sign(tanh(t_hat))                      (video level)
    temporal head  l[m]  = T(frame embedding m)                   (M x K)

The decoder reconstructs every frame from the additive mix l[m] + code, so
the per-frame latents are free to absorb temporal detail while the code is
pulled toward video-level semantics by two pair losses over a signed
neighbor graph:

    bsim   (label - <u_i, u_j>/K)^2 on the tanh relaxation u = tanh(t_hat)
    tsim   ||mean_i - c_i||^2 plus, for hard negatives, a margin hinge
           against the partner's center

Binarization gradients: the stored retrieval code is hard; the
reconstruction path uses the straight-through rule (sign treated as
identity behind tanh); bsim consumes the tanh relaxation directly, so its
gradient is exact. The "relaxed" forward mode bypasses the sign everywhere,
making the entire objective smooth for finite-difference verification; the
sign layer itself is the one piece finite differences cannot see.

Batches. ``student_forward`` takes a (B, M, D) batch, as the encoder does;
every output has a leading B axis (the code is (B, K)). ``batch_gradients``,
``probe_reconstruction`` and the pipeline's encoding run the videos they need
in blocks of ``encoder.BLOCK_VIDEOS``; the student never masks frames.

Precision. Every pass computes in the dtype of the parameters, as the
encoder does; the anchor centres, pair labels and gradient buffers of
:func:`batch_gradients` take that dtype too. :func:`train_student` builds
its parameters in ``np.result_type(features, np.float32)``: float32
features (what the feature files hold) train in float32, float64 or int64
features in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import binarize_tanh
from .encoder import (
    EncoderConfig,
    Params,
    blocks,
    cast_params,
    encode_backward,
    encode_forward,
    init_encoder,
)
from .encoder import _uniform
from .exceptions import TrainingError
from .graph import PairSample, SignedGraph, sample_pairs
from .optim import Adam, add_grads


@dataclass
class LossWeights:
    """Scalar hyperparameters of the training objective."""

    gamma1: float = 0.11     # weight of the code-similarity loss
    gamma2: float = 0.9      # weight of the embedding-alignment loss
    eta: float = 0.1         # hinge weight inside tsim
    beta: float = 1.0        # hinge margin
    learn_rate: float = 5e-4

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "eta", "beta", "learn_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def init_student(cfg: EncoderConfig, rng: np.random.Generator, code_bits: int) -> Params:
    """The encoder's tensors, then the hash head over all M frames (``w_hash``,
    ``b_hash``), the temporal head and the decoder, both shared across frames
    (``w_temp``, ``b_temp``, ``w_dec``, ``b_dec``), in checkpoint order."""
    d, m = cfg.model_dim, cfg.frame_count
    params = init_encoder(cfg, rng)
    params.update(
        w_hash=_uniform(rng, (m * d, code_bits), m * d),
        b_hash=_uniform(rng, code_bits, m * d),
        w_temp=_uniform(rng, (d, code_bits), d),
        b_temp=_uniform(rng, code_bits, d),
        w_dec=_uniform(rng, (code_bits, cfg.input_dim), code_bits),
        b_dec=_uniform(rng, cfg.input_dim, code_bits),
    )
    return params


@dataclass
class StudentForward:
    code: np.ndarray      # (B, K) hard {-1,+1}, or tanh values in relaxed mode
    act: np.ndarray       # (B, K) tanh(t_hat)
    latent: np.ndarray    # (B, M, K)
    recon: np.ndarray     # (B, M, D)
    frames: np.ndarray    # (B, M, model_dim) encoder outputs
    enc_cache: object


def student_forward(x: np.ndarray, params: Params,
                    binarize: str = "hard") -> StudentForward:
    frames, cache = encode_forward(x, params)
    t_hat = frames.reshape(len(frames), -1) @ params["w_hash"] + params["b_hash"]
    act = np.tanh(t_hat)
    code = binarize_tanh(act, binarize)
    latent = frames @ params["w_temp"] + params["b_temp"]
    recon = (latent + code[:, None, :]) @ params["w_dec"] + params["b_dec"]
    return StudentForward(code=code, act=act, latent=latent, recon=recon,
                          frames=frames, enc_cache=cache)


def student_recon_loss(x: np.ndarray, recon: np.ndarray) -> float:
    """Mean squared error over every scalar (all frames, all videos)."""
    x = np.asarray(x, dtype=recon.dtype)
    diff = x - recon
    return float((diff * diff).sum() / diff.size)


def batch_gradients(features: np.ndarray, batch, pairs: list[PairSample],
                    params: Params, weights: LossWeights, anchor_of=None,
                    binarize: str = "hard"):
    """Losses and gradients of recon + gamma1*bsim + gamma2*tsim.

    One forward and one backward per distinct video, in blocks:
    reconstruction covers ``batch``, the pair losses cover the videos named
    in ``pairs`` (both sides of a pair receive bsim gradient; only the
    anchor side receives tsim gradient). Returns (losses dict, gradients
    keyed like ``params``); the reported loss components are unweighted.
    """
    m_frames, d_model = params["encoder.e_pos"].shape
    k, d_in = params["w_dec"].shape
    dtype = params["w_hash"].dtype
    batch = sorted(set(int(b) for b in batch))
    need = sorted(set(batch) | {s.i for s in pairs} | {s.j for s in pairs})
    row = {v: r for r, v in enumerate(need)}
    x = np.asarray(features)[need].astype(dtype, copy=False)
    fwds = [(blk, student_forward(x[blk], params, binarize=binarize))
            for blk in blocks(len(need))]

    in_batch = np.zeros(len(need), dtype=bool)
    in_batch[[row[v] for v in batch]] = True
    recon_scale = 1.0 / (len(batch) * m_frames * d_in) if batch else 0.0
    l_recon = 0.0
    for blk, fwd in fwds:
        diff = fwd.recon - x[blk]
        l_recon += float((diff * diff).sum(axis=(1, 2))[in_batch[blk]].sum())
    l_recon *= recon_scale

    d_act = np.zeros((len(need), k), dtype=dtype)
    d_mean = np.zeros((len(need), d_model), dtype=dtype)
    l_bsim = 0.0
    l_tsim = 0.0
    if pairs:
        n = len(pairs)
        g1, g2 = weights.gamma1, weights.gamma2
        act = np.concatenate([fwd.act for _, fwd in fwds])
        means = np.concatenate([fwd.frames.mean(axis=1) for _, fwd in fwds])
        i = np.array([row[s.i] for s in pairs])
        j = np.array([row[s.j] for s in pairs])
        label = np.array([s.label for s in pairs], dtype=dtype)
        weight = np.abs(label)

        ui, uj = act[i], act[j]
        resid = label - (ui * uj).sum(axis=1) / k
        l_bsim = float((weight * resid * resid).sum()) / n
        d_sim = (g1 * (-2.0) / (n * k)) * weight * resid
        np.add.at(d_act, i, d_sim[:, None] * uj)
        np.add.at(d_act, j, d_sim[:, None] * ui)

        ti = means[i]
        delta_i = ti - np.stack([anchor_of(s.i) for s in pairs]).astype(dtype, copy=False)
        delta_j = ti - np.stack([anchor_of(s.j) for s in pairs]).astype(dtype, copy=False)
        pull = (delta_i * delta_i).sum(axis=1)
        hinge = pull - (delta_j * delta_j).sum(axis=1) + weights.beta
        coeff = weight * (1 - label)
        push = np.where((coeff != 0) & (hinge > 0.0), weights.eta * coeff, 0.0)
        l_tsim = float((pull + push * hinge).sum()) / n
        np.add.at(d_mean, i, (g2 * 2.0 / n) * (delta_i + push[:, None] * (delta_i - delta_j)))

    grads: dict[str, np.ndarray] = {}
    for blk, fwd in fwds:
        frames = fwd.frames
        d_recon = np.where(in_batch[blk, None, None], 2.0 * recon_scale * (fwd.recon - x[blk]), 0.0)
        d_mix = d_recon @ params["w_dec"].T
        # straight-through into the code, plus the pair terms on tanh(t_hat)
        d_that = (d_mix.sum(axis=1) + d_act[blk]) * (1.0 - fwd.act * fwd.act)
        d_frames = (d_mix @ params["w_temp"].T
                    + (d_that @ params["w_hash"].T).reshape(frames.shape)
                    + d_mean[blk, None, :] / m_frames)
        part, _ = encode_backward(d_frames, fwd.enc_cache)
        mix = fwd.latent + fwd.code[:, None, :]
        part.update(
            w_dec=mix.reshape(-1, k).T @ d_recon.reshape(-1, d_in),
            b_dec=d_recon.sum(axis=(0, 1)),
            w_temp=frames.reshape(-1, d_model).T @ d_mix.reshape(-1, k),
            b_temp=d_mix.sum(axis=(0, 1)),
            w_hash=frames.reshape(len(frames), -1).T @ d_that,
            b_hash=d_that.sum(axis=0),
        )
        add_grads(grads, part)

    total = l_recon + weights.gamma1 * l_bsim + weights.gamma2 * l_tsim
    losses = {"recon": l_recon, "bsim": l_bsim, "tsim": l_tsim, "total": total}
    return losses, grads


def student_step(features: np.ndarray, batch, params: Params,
                 graph: SignedGraph, anchor_of, weights: LossWeights,
                 opt: Adam, pair_rng, freeze: tuple = ()) -> dict:
    """One Adam update of the weighted objective; returns the loss breakdown.

    One pair is sampled per video of ``batch``. With gamma1 = gamma2 = 0 no
    pairs are sampled and the update is exactly the reconstruction-only
    gradient step. Tensors named in ``freeze`` keep their current values
    (used by architecture ablations).
    """
    pairs: list[PairSample] = []
    if weights.gamma1 or weights.gamma2:
        pairs = sample_pairs(graph, batch, count=len(batch), seed=pair_rng)
    losses, grads = batch_gradients(features, batch, pairs, params, weights, anchor_of)
    if not np.isfinite(losses["total"]):
        raise TrainingError("student loss non-finite", epoch=-1)
    for name in freeze:
        grads.pop(name, None)
    opt.step(params, grads)
    params.version += 1
    return losses


@dataclass
class StudentTrainResult:
    params: Params
    history: list[dict]  # one row per epoch: epoch, recon, bsim, tsim, total


def train_student(features: np.ndarray, cfg: EncoderConfig, graph: SignedGraph,
                  anchor_of, weights: LossWeights, *, code_bits: int,
                  epochs: int, batch_size: int = 256, seed: int = 0,
                  dual_stream: bool = True) -> StudentTrainResult:
    """Train the student against a frozen graph and teacher anchors.

    ``dual_stream=False`` removes the temporal head: its tensors start at
    zero and stay frozen, so the decoder reconstructs from the code alone.
    Parameters and all the math are in ``np.result_type(features, np.float32)``.
    """
    features = np.asarray(features)
    dtype = np.result_type(features, np.float32)
    features = features.astype(dtype, copy=False)
    n = features.shape[0]
    init_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
    params = cast_params(init_student(cfg, np.random.default_rng(init_ss), code_bits), dtype)
    freeze: tuple = ()
    if not dual_stream:
        params["w_temp"][:] = 0.0
        params["b_temp"][:] = 0.0
        freeze = ("w_temp", "b_temp")
    opt = Adam(lr=weights.learn_rate)
    rng = np.random.default_rng(train_ss)

    history: list[dict] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums = {"recon": 0.0, "bsim": 0.0, "tsim": 0.0, "total": 0.0}
        batches = 0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size].tolist()
            try:
                parts = student_step(features, batch, params, graph, anchor_of,
                                     weights, opt, rng, freeze=freeze)
            except TrainingError as err:
                raise TrainingError(f"student loss non-finite at epoch {epoch}", epoch) from err
            for key in sums:
                sums[key] += parts[key]
            batches += 1
        row = {key: val / batches for key, val in sums.items()}
        row["epoch"] = epoch
        history.append(row)
    return StudentTrainResult(params=params, history=history)


PROBE_MODES = ("intact", "drop_code", "drop_latent", "mean_latent")


def probe_reconstruction(features: np.ndarray, params: Params) -> dict[str, float]:
    """Reconstruction error under each of PROBE_MODES, each with one stream
    ablated at evaluation time, from one forward per block of videos.

    intact        decoder(l + b)       the trained path
    drop_code     decoder(l)           code contribution removed
    drop_latent   decoder(b)           temporal detail removed
    mean_latent   decoder(mean_m l + b)  latents frozen to their per-video mean
    """
    features = np.asarray(features)
    totals = dict.fromkeys(PROBE_MODES, 0.0)
    for blk in blocks(features.shape[0]):
        x = features[blk]
        fwd = student_forward(x, params)
        code = fwd.code[:, None, :]
        shape = fwd.latent.shape
        mixes = {"intact": fwd.latent + code,
                 "drop_code": fwd.latent,
                 "drop_latent": np.broadcast_to(code, shape),
                 "mean_latent": np.broadcast_to(fwd.latent.mean(axis=1, keepdims=True) + code,
                                                shape)}
        for mode, mix in mixes.items():
            totals[mode] += student_recon_loss(x, mix @ params["w_dec"] + params["b_dec"]) * len(x)
    return {mode: total / features.shape[0] for mode, total in totals.items()}


def write_training_log(path, history: list[dict]) -> None:
    """Line-oriented records: epoch, recon, bsim, tsim, total."""
    with open(path, "w") as f:
        for row in history:
            f.write("epoch={epoch} recon={recon:.10g} bsim={bsim:.10g} "
                    "tsim={tsim:.10g} total={total:.10g}\n".format(**row))
