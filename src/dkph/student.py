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

Batches. ``student_forward`` takes one video (M, D) or a batch (B, M, D),
as the encoder does; for a batch every output gains a leading B axis (the
code is (B, K)). ``batch_gradients``, ``probe_reconstruction`` and the
pipeline's encoding run the videos they need in blocks of
``encoder.BLOCK_VIDEOS``; the student never masks frames.

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

from .codes import sign_pm1
from .encoder import (
    EncoderConfig,
    EncoderParams,
    VisualEmbeddings,
    blocks,
    cast_params,
    encode_backward,
    encode_forward,
)
from .encoder import _uniform
from .exceptions import TrainingError
from .graph import PairSample, SignedGraph, sample_pairs
from .optim import Adam


@dataclass
class LossWeights:
    """Scalar hyperparameters of the training objective."""

    gamma1: float = 0.11     # weight of the code-similarity loss
    gamma2: float = 0.9      # weight of the embedding-alignment loss
    eta: float = 0.1         # hinge weight inside tsim
    beta: float = 1.0        # hinge margin
    lambda1: float = 2.0     # positive-threshold factor (graph building)
    lambda2: float = 1.0     # negative-threshold factor
    alpha: float = 0.0       # affinity bandwidth; 0 = data-driven default
    learn_rate: float = 5e-4
    mask_ratio: float = 0.15

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "eta", "beta", "lambda1", "lambda2",
                     "alpha", "learn_rate", "mask_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class StudentParams:
    encoder: EncoderParams
    w_hash: np.ndarray     # (M * model_dim, K)
    b_hash: np.ndarray     # (K,)
    w_temp: np.ndarray     # (model_dim, K), shared across frames
    b_temp: np.ndarray     # (K,)
    w_dec: np.ndarray      # (K, input_dim), shared across frames
    b_dec: np.ndarray      # (input_dim,)

    EXTRA_FIELDS = ("w_hash", "b_hash", "w_temp", "b_temp", "w_dec", "b_dec")

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator, code_bits: int) -> "StudentParams":
        d, m = cfg.model_dim, cfg.frame_count
        return cls(
            encoder=EncoderParams.init(cfg, rng),
            w_hash=_uniform(rng, (m * d, code_bits), m * d),
            b_hash=_uniform(rng, code_bits, m * d),
            w_temp=_uniform(rng, (d, code_bits), d),
            b_temp=_uniform(rng, code_bits, d),
            w_dec=_uniform(rng, (code_bits, cfg.input_dim), code_bits),
            b_dec=_uniform(rng, cfg.input_dim, code_bits),
        )

    @property
    def code_bits(self) -> int:
        return self.w_hash.shape[1]

    def as_dict(self) -> dict[str, np.ndarray]:
        d = self.encoder.as_dict(prefix="encoder.")
        for name in self.EXTRA_FIELDS:
            d[name] = getattr(self, name)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, np.ndarray]) -> "StudentParams":
        kwargs = {"encoder": EncoderParams.from_dict(d, prefix="encoder.")}
        for name in cls.EXTRA_FIELDS:
            arr = np.asarray(d[name])
            kwargs[name] = arr if name.startswith("w_") else arr.reshape(-1)
        return cls(**kwargs)


@dataclass
class StudentForward:
    code: np.ndarray      # (K,) hard {-1,+1}, or tanh values in relaxed mode; (B, K) for a batch
    act: np.ndarray       # (K,) tanh(t_hat)
    latent: np.ndarray    # (M, K)
    recon: np.ndarray     # (M, D)
    embeddings: VisualEmbeddings
    enc_cache: object


def student_forward(x: np.ndarray, params: StudentParams,
                    binarize: str = "hard") -> StudentForward:
    emb, cache = encode_forward(x, params.encoder)
    frames = emb.per_frame
    t_hat = frames.reshape(*frames.shape[:-2], -1) @ params.w_hash + params.b_hash
    act = np.tanh(t_hat)
    if binarize == "hard":
        code = sign_pm1(act)
    elif binarize == "relaxed":
        code = act
    else:
        raise ValueError(f"unknown binarize mode {binarize!r}")
    latent = frames @ params.w_temp + params.b_temp
    recon = (latent + code[..., None, :]) @ params.w_dec + params.b_dec
    return StudentForward(code=code, act=act, latent=latent, recon=recon,
                          embeddings=emb, enc_cache=cache)


def student_recon_loss(x: np.ndarray, recon: np.ndarray) -> float:
    """Mean squared error over every scalar (all frames, all videos)."""
    x = np.asarray(x, dtype=recon.dtype)
    diff = x - recon
    return float((diff * diff).sum() / diff.size)


def bsim_loss(pairs: list[PairSample], codes: dict[int, np.ndarray]) -> float:
    """Pairwise code-similarity loss on real-valued code relaxations.

    Mean over pairs of |label| * (label - <c_i, c_j>/K)^2. Hard {-1,+1}
    codes are valid inputs; training feeds tanh(t_hat) so the term stays
    differentiable.
    """
    if not pairs:
        raise ValueError("bsim needs at least one pair")
    total = 0.0
    for s in pairs:
        ci, cj = codes[s.i], codes[s.j]
        sim = float(ci @ cj) / ci.size
        total += abs(s.label) * (s.label - sim) ** 2
    return total / len(pairs)


def tsim_loss(pairs: list[PairSample], means: dict[int, np.ndarray],
              anchor_of, eta: float, beta: float) -> float:
    """Embedding-alignment loss against frozen teacher anchor centers.

    Every sampled pair pulls the anchor video's mean embedding toward its
    own 1-NN teacher center; hard negatives add a hinge pushing it closer
    to that center than to the partner's center by margin beta. For
    positive pairs the hinge coefficient |label|*(1-label) vanishes.
    """
    if not pairs:
        raise ValueError("tsim needs at least one pair")
    total = 0.0
    for s in pairs:
        ti = means[s.i]
        pull = float(((ti - anchor_of(s.i)) ** 2).sum())
        coeff = abs(s.label) * (1 - s.label)
        term = pull
        if coeff:
            push = float(((ti - anchor_of(s.j)) ** 2).sum())
            term += eta * coeff * max(0.0, pull - push + beta)
        total += term
    return total / len(pairs)


def batch_gradients(features: np.ndarray, batch, pairs: list[PairSample],
                    params: StudentParams, weights: LossWeights, anchor_of=None,
                    binarize: str = "hard"):
    """Losses and gradients of recon + gamma1*bsim + gamma2*tsim.

    One forward and one backward per distinct video, in blocks:
    reconstruction covers ``batch``, the pair losses cover the videos named
    in ``pairs`` (both sides of a pair receive bsim gradient; only the
    anchor side receives tsim gradient). Returns (losses dict, StudentParams
    of gradients); the reported loss components are unweighted.
    """
    cfg = params.encoder.config()
    k = params.code_bits
    dtype = params.w_hash.dtype
    batch = sorted(set(int(b) for b in batch))
    need = sorted(set(batch) | {s.i for s in pairs} | {s.j for s in pairs})
    row = {v: r for r, v in enumerate(need)}
    x = np.asarray(features)[need].astype(dtype, copy=False)
    fwds = [(blk, student_forward(x[blk], params, binarize=binarize))
            for blk in blocks(len(need))]

    in_batch = np.zeros(len(need), dtype=bool)
    in_batch[[row[v] for v in batch]] = True
    recon_scale = 1.0 / (len(batch) * cfg.frame_count * cfg.input_dim) if batch else 0.0
    l_recon = 0.0
    for blk, fwd in fwds:
        diff = fwd.recon - x[blk]
        l_recon += float((diff * diff).sum(axis=(1, 2))[in_batch[blk]].sum())
    l_recon *= recon_scale

    d_act = np.zeros((len(need), k), dtype=dtype)
    d_mean = np.zeros((len(need), cfg.model_dim), dtype=dtype)
    l_bsim = 0.0
    l_tsim = 0.0
    if pairs:
        n = len(pairs)
        g1, g2 = weights.gamma1, weights.gamma2
        act = np.concatenate([fwd.act for _, fwd in fwds])
        means = np.concatenate([fwd.embeddings.mean for _, fwd in fwds])
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
        frames = fwd.embeddings.per_frame
        d_recon = np.where(in_batch[blk, None, None], 2.0 * recon_scale * (fwd.recon - x[blk]), 0.0)
        d_mix = d_recon @ params.w_dec.T
        # straight-through into the code, plus the pair terms on tanh(t_hat)
        d_that = (d_mix.sum(axis=1) + d_act[blk]) * (1.0 - fwd.act * fwd.act)
        d_frames = (d_mix @ params.w_temp.T
                    + (d_that @ params.w_hash.T).reshape(frames.shape)
                    + d_mean[blk, None, :] / cfg.frame_count)
        enc_grads, _, _ = encode_backward(d_frames, fwd.enc_cache)
        mix = fwd.latent + fwd.code[:, None, :]
        part = enc_grads.as_dict(prefix="encoder.")
        part.update(
            w_dec=mix.reshape(-1, k).T @ d_recon.reshape(-1, cfg.input_dim),
            b_dec=d_recon.sum(axis=(0, 1)),
            w_temp=frames.reshape(-1, cfg.model_dim).T @ d_mix.reshape(-1, k),
            b_temp=d_mix.sum(axis=(0, 1)),
            w_hash=frames.reshape(len(frames), -1).T @ d_that,
            b_hash=d_that.sum(axis=0),
        )
        for name, g in part.items():
            grads[name] = grads[name] + g if name in grads else g

    total = l_recon + weights.gamma1 * l_bsim + weights.gamma2 * l_tsim
    losses = {"recon": l_recon, "bsim": l_bsim, "tsim": l_tsim, "total": total}
    return losses, StudentParams.from_dict(grads)


def student_step(features: np.ndarray, batch, params: StudentParams,
                 graph: SignedGraph, anchor_of, weights: LossWeights,
                 opt: Adam, pair_rng, pair_count: int | None = None,
                 freeze: tuple = ()) -> dict:
    """One Adam update of the weighted objective; returns the loss breakdown.

    With gamma1 = gamma2 = 0 no pairs are sampled and the update is exactly
    the reconstruction-only gradient step. Tensors named in ``freeze`` keep
    their current values (used by architecture ablations).
    """
    pairs: list[PairSample] = []
    if weights.gamma1 or weights.gamma2:
        count = pair_count if pair_count is not None else len(batch)
        pairs = sample_pairs(graph, batch, count=count, seed=pair_rng)
    losses, grads = batch_gradients(features, batch, pairs, params, weights, anchor_of)
    if not np.isfinite(losses["total"]):
        raise TrainingError("student loss non-finite", epoch=-1)
    grad_dict = grads.as_dict()
    for name in freeze:
        grad_dict.pop(name, None)
    opt.step(params.as_dict(), grad_dict)
    params.encoder.version += 1
    return losses


@dataclass
class StudentTrainResult:
    params: StudentParams
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
    params = cast_params(StudentParams.init(cfg, np.random.default_rng(init_ss), code_bits),
                         dtype)
    freeze: tuple = ()
    if not dual_stream:
        params.w_temp[:] = 0.0
        params.b_temp[:] = 0.0
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


def probe_reconstruction(features: np.ndarray, params: StudentParams,
                         mode: str = "intact") -> float:
    """Reconstruction error with one stream ablated at evaluation time.

    intact        decoder(l + b)       the trained path
    drop_code     decoder(l)           code contribution removed
    drop_latent   decoder(b)           temporal detail removed
    mean_latent   decoder(mean_m l + b)  latents frozen to their per-video mean
    """
    if mode not in PROBE_MODES:
        raise ValueError(f"unknown probe mode {mode!r}")
    features = np.asarray(features)
    total = 0.0
    for blk in blocks(features.shape[0]):
        x = features[blk]
        fwd = student_forward(x, params)
        code = fwd.code[:, None, :]
        if mode == "intact":
            mix = fwd.latent + code
        elif mode == "drop_code":
            mix = fwd.latent
        elif mode == "drop_latent":
            mix = np.broadcast_to(code, fwd.latent.shape)
        else:
            mix = np.broadcast_to(fwd.latent.mean(axis=1, keepdims=True) + code,
                                  fwd.latent.shape)
        total += student_recon_loss(x, mix @ params.w_dec + params.b_dec) * len(x)
    return total / features.shape[0]


def write_training_log(path, history: list[dict]) -> None:
    """Line-oriented records: epoch, recon, bsim, tsim, total."""
    with open(path, "w") as f:
        for row in history:
            f.write("epoch={epoch} recon={recon:.10g} bsim={bsim:.10g} "
                    "tsim={tsim:.10g} total={total:.10g}\n".format(**row))
