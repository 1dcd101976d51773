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

Settings. The loss weights (``gamma1``, ``gamma2``, ``eta``, ``beta``), the
sizes and the training schedule are read from a :class:`RunConfig`, whose
defaults are the only ones; an ablation variant is that config with some
weights set to zero.

Batches. ``student_forward`` takes a (B, M, D) batch, as the encoder does;
every output has a leading B axis (the code is (B, K)). ``batch_gradients``,
``probe_reconstruction`` and the pipeline's encoding run the videos they need
through ``encoder.forward_blocks``, in blocks sized by bytes per video; the
student never masks frames. :func:`train_student` runs the epochs of
``optim.train_epochs`` on :func:`student_step`, which returns one batch's
losses and gradients. Encoding reads the code alone, so it runs the encoder
and :func:`student_code`, the hash head, without the temporal head and the
decoder. Pairs stay index arrays from the sampler to the gradients:
``batch_gradients`` maps their videos to rows of its forward with
``np.searchsorted`` over the sorted distinct videos it needs, and reads
their anchor centres from the (N_train, model_dim) ``anchors`` array, whose
row v is video v's teacher anchor centre.

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
from .config import RunConfig
from .encoder import (
    Params,
    cast_params,
    encode_backward,
    encode_forward,
    factor_grads,
    forward_blocks,
    init_encoder,
    training_features,
)
from .encoder import _col_sum, _uniform
from .graph import PairSample, SignedGraph, sample_pairs
from .optim import add_grads, train_epochs


def init_student(cfg: RunConfig, rng: np.random.Generator, code_bits: int) -> Params:
    """The encoder's tensors, then the hash head over all M frames (``w_hash``,
    ``b_hash``), the temporal head and the decoder, both shared across frames
    (``w_temp``, ``b_temp``, ``w_dec``, ``b_dec``), in checkpoint order."""
    d, m = cfg.model_dim, cfg.frames
    params = init_encoder(cfg, rng)
    params.update(
        w_hash=_uniform(rng, (m * d, code_bits), m * d),
        b_hash=_uniform(rng, code_bits, m * d),
        w_temp=_uniform(rng, (d, code_bits), d),
        b_temp=_uniform(rng, code_bits, d),
        w_dec=_uniform(rng, (code_bits, cfg.feat_dim), code_bits),
        b_dec=_uniform(rng, cfg.feat_dim, code_bits),
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


def student_code(frames: np.ndarray, params: Params,
                 binarize: str = "hard") -> tuple[np.ndarray, np.ndarray]:
    """The hash head on (B, M, model_dim) encoder outputs: ``(act, code)``,
    tanh(t_hat) and the (B, K) code."""
    t_hat = frames.reshape(len(frames), -1) @ params["w_hash"] + params["b_hash"]
    act = np.tanh(t_hat)
    return act, binarize_tanh(act, binarize)


def student_forward(x: np.ndarray, params: Params,
                    binarize: str = "hard", products=None) -> StudentForward:
    """Encode, hash, and decode every frame from its latent plus the code;
    ``products`` is passed on to ``encoder.encode_forward``."""
    frames, cache = encode_forward(x, params, products=products)
    act, code = student_code(frames, params, binarize)
    latent = frames @ params["w_temp"] + params["b_temp"]
    recon = (latent + code[:, None, :]) @ params["w_dec"] + params["b_dec"]
    return StudentForward(code=code, act=act, latent=latent, recon=recon,
                          frames=frames, enc_cache=cache)


def student_recon_loss(x: np.ndarray, recon: np.ndarray) -> float:
    """Mean squared error over every scalar (all frames, all videos)."""
    x = np.asarray(x, dtype=recon.dtype)
    diff = x - recon
    return float((diff * diff).sum() / diff.size)


def batch_gradients(features: np.ndarray, batch, pairs: PairSample | None,
                    params: Params, cfg: RunConfig, anchors: np.ndarray | None = None,
                    binarize: str = "hard"):
    """Losses and gradients of recon + gamma1*bsim + gamma2*tsim, with the
    weights (and tsim's hinge weight ``eta`` and margin ``beta``) of ``cfg``.

    One forward and one backward per distinct video, in the blocks of
    ``encoder.forward_blocks``; the attention weights' gradients are mapped
    from the block sum by ``encoder.factor_grads``.
    Reconstruction covers the distinct videos of ``batch``, the pair losses
    cover the videos named in ``pairs`` (both sides of a pair receive bsim
    gradient; only the anchor side receives tsim gradient). ``pairs=None``
    drops both pair terms, and then ``anchors`` may be None too. Returns
    (losses dict, gradients keyed like ``params``); the reported loss
    components are unweighted. Pair gradients reach their videos' rows
    through one product with each side's one-hot incidence matrix.
    """
    m_frames, d_model = params["encoder.e_pos"].shape
    k, d_in = params["w_dec"].shape
    dtype = params["w_hash"].dtype
    batch = np.unique(np.asarray(batch, dtype=np.int64))
    need = batch if pairs is None else np.union1d(batch, np.union1d(pairs.i, pairs.j))
    x = np.asarray(features)[need].astype(dtype, copy=False)
    fwds = list(forward_blocks(student_forward, x, params, binarize=binarize))

    in_batch = np.zeros(len(need), dtype=bool)
    in_batch[np.searchsorted(need, batch)] = True
    recon_scale = 1.0 / (len(batch) * m_frames * d_in) if len(batch) else 0.0

    d_act = np.zeros((len(need), k), dtype=dtype)
    d_mean = np.zeros((len(need), d_model), dtype=dtype)
    l_bsim = 0.0
    l_tsim = 0.0
    if pairs is not None:
        n = len(pairs.label)
        g1, g2 = cfg.gamma1, cfg.gamma2
        act = np.concatenate([fwd.act for _, fwd in fwds])
        means = np.concatenate([fwd.frames.mean(axis=1) for _, fwd in fwds])
        i = np.searchsorted(need, pairs.i)
        j = np.searchsorted(need, pairs.j)
        label = pairs.label.astype(dtype)

        # (len(need), n) one-hot incidence of each side: a product with it
        # sums the per-pair rows into their videos' rows
        rows = np.arange(len(need))[:, None]
        at_i = (rows == i).astype(dtype)
        at_j = (rows == j).astype(dtype)

        ui, uj = act[i], act[j]
        resid = label - (ui * uj).sum(axis=1) / k
        l_bsim = float((resid * resid).sum()) / n
        d_sim = (g1 * (-2.0) / (n * k)) * resid
        d_act = at_i @ (d_sim[:, None] * uj) + at_j @ (d_sim[:, None] * ui)

        ti = means[i]
        delta_i = ti - anchors[pairs.i].astype(dtype, copy=False)
        delta_j = ti - anchors[pairs.j].astype(dtype, copy=False)
        pull = (delta_i * delta_i).sum(axis=1)
        hinge = pull - (delta_j * delta_j).sum(axis=1) + cfg.beta
        coeff = 1 - label
        push = np.where((coeff != 0) & (hinge > 0.0), cfg.eta * coeff, 0.0)
        l_tsim = float((pull + push * hinge).sum()) / n
        d_mean = at_i @ ((g2 * 2.0 / n) * (delta_i + push[:, None] * (delta_i - delta_j)))

    grads: dict[str, np.ndarray] = {}
    l_recon = 0.0
    for blk, fwd in fwds:
        frames = fwd.frames
        diff = fwd.recon - x[blk]
        l_recon += float((diff * diff).sum(axis=(1, 2))[in_batch[blk]].sum())
        d_recon = np.where(in_batch[blk, None, None], 2.0 * recon_scale * diff, 0.0)
        d_mix = d_recon @ params["w_dec"].T
        # straight-through into the code, plus the pair terms on tanh(t_hat)
        d_that = (d_mix.sum(axis=1) + d_act[blk]) * (1.0 - fwd.act * fwd.act)
        d_frames = (d_mix @ params["w_temp"].T
                    + (d_that @ params["w_hash"].T).reshape(frames.shape)
                    + d_mean[blk, None, :] / m_frames)
        part = encode_backward(d_frames, fwd.enc_cache)
        mix = fwd.latent + fwd.code[:, None, :]
        part.update(
            w_dec=mix.reshape(-1, k).T @ d_recon.reshape(-1, d_in),
            b_dec=_col_sum(d_recon.reshape(-1, d_in)),
            w_temp=frames.reshape(-1, d_model).T @ d_mix.reshape(-1, k),
            b_temp=_col_sum(d_mix.reshape(-1, k)),
            w_hash=frames.reshape(len(frames), -1).T @ d_that,
            b_hash=_col_sum(d_that),
        )
        add_grads(grads, part)
    grads = factor_grads(grads, params)
    l_recon *= recon_scale

    total = l_recon + cfg.gamma1 * l_bsim + cfg.gamma2 * l_tsim
    losses = {"recon": l_recon, "bsim": l_bsim, "tsim": l_tsim, "total": total}
    return losses, grads


def student_step(features: np.ndarray, batch, params: Params,
                 graph: SignedGraph, anchors: np.ndarray, cfg: RunConfig,
                 pair_rng, freeze: tuple = ()) -> tuple[dict, dict]:
    """The loss breakdown and the gradients of one training batch of the
    weighted objective, as ``(losses, grads)`` for ``optim.train_epochs``.

    One pair is sampled per video of ``batch``. With gamma1 = gamma2 = 0 no
    pairs are sampled and the gradients are exactly the reconstruction-only
    ones. Tensors named in ``freeze`` get no gradient, so the optimizer
    keeps their current values (used by architecture ablations).
    """
    pairs = None
    if cfg.gamma1 or cfg.gamma2:
        pairs = sample_pairs(graph, batch, count=len(batch), seed=pair_rng)
    losses, grads = batch_gradients(features, batch, pairs, params, cfg, anchors)
    for name in freeze:
        grads.pop(name, None)
    return losses, grads


def loss_shares(losses: dict, cfg: RunConfig) -> dict[str, float]:
    """Each weighted term's share of ``losses["total"]``: ``share_recon``,
    ``share_bsim`` and ``share_tsim`` are recon, gamma1 * bsim and
    gamma2 * tsim over the total, and all 0 when the total is 0."""
    total = losses["total"]
    weights = {"recon": 1.0, "bsim": cfg.gamma1, "tsim": cfg.gamma2}
    return {f"share_{name}": w * losses[name] / total if total else 0.0
            for name, w in weights.items()}


@dataclass
class StudentTrainResult:
    params: Params
    # one row per epoch: epoch, recon, bsim, tsim, total and the shares of
    # the total (share_recon, share_bsim, share_tsim)
    history: list[dict]


def train_student(features: np.ndarray, cfg: RunConfig, graph: SignedGraph,
                  anchors: np.ndarray, *, code_bits: int,
                  dual_stream: bool = True) -> StudentTrainResult:
    """Train the student against a frozen graph and teacher anchor centres
    (``anchors``, one row per training video), for
    ``cfg.student_epochs`` epochs of ``cfg.batch_size`` videos at
    ``cfg.learn_rate``, deterministic under ``cfg.train_seed``.

    ``dual_stream=False`` removes the temporal head: its tensors start at
    zero and stay frozen, so the decoder reconstructs from the code alone.
    Parameters and all the math are in ``np.result_type(features, np.float32)``;
    anything but a nonempty (N, M, D) feature array raises ValueError.
    """
    features = training_features(features)
    init_ss, train_ss = np.random.SeedSequence(cfg.train_seed).spawn(2)
    params = cast_params(init_student(cfg, np.random.default_rng(init_ss), code_bits),
                         features.dtype)
    freeze: tuple = ()
    if not dual_stream:
        params["w_temp"][:] = 0.0
        params["b_temp"][:] = 0.0
        freeze = ("w_temp", "b_temp")
    rng = np.random.default_rng(train_ss)

    def step(batch):
        return student_step(features, batch, params, graph, anchors, cfg, rng, freeze)

    history = train_epochs(params, len(features), cfg.student_epochs, cfg, rng, step, "student")
    for row in history:
        row.update(loss_shares(row, cfg))
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
    for blk, fwd in forward_blocks(student_forward, features, params):
        x = features[blk]
        code = fwd.code[:, None, :]
        shape = fwd.latent.shape
        mixes = {"drop_code": fwd.latent,
                 "drop_latent": np.broadcast_to(code, shape),
                 "mean_latent": np.broadcast_to(fwd.latent.mean(axis=1, keepdims=True) + code,
                                                shape)}
        totals["intact"] += student_recon_loss(x, fwd.recon) * len(x)  # the trained path
        for mode, mix in mixes.items():
            totals[mode] += student_recon_loss(x, mix @ params["w_dec"] + params["b_dec"]) * len(x)
    return {mode: total / features.shape[0] for mode, total in totals.items()}
