"""Teacher model: masked-frame reconstruction over frame-level binary codes.

The teacher encodes M frames, hashes each frame embedding to a fixed-width
binary code (128 bits by default), and reconstructs the original frame
features from the codes alone. Training masks a fraction of the frames
(cloze style) and scores reconstruction on the masked positions only, so
the codes must carry inter-frame context.

Binarization is sign(tanh(z)) with sign(0) = +1. The backward pass uses the
straight-through rule: the sign is treated as identity, so gradients flow
through tanh unchanged. The "relaxed" forward mode bypasses the sign (codes
= tanh(z)); in that mode the implemented backward is the exact gradient,
which is what the finite-difference harness verifies.

Averaging the frame codes into one video code (`video_code_from_frames`)
reproduces the baseline whose failure mode motivates the student: bitwise
frame-code means can land on exact zero, which {-1,+1} codes cannot
represent; the tie rule resolves those to +1 and the tie count is reported.

Batches. The forward, the loss and the backward take one video (M, D) or a
batch (B, M, D), as the encoder does: for a batch ``mask`` is a sequence of
B frame-index sets, the loss is one value per video, and the backward
returns the gradient of the summed per-video losses. Training and
evaluation run in blocks of ``encoder.BLOCK_VIDEOS`` videos.

Precision. Every pass computes in the dtype of the parameters, as the
encoder does, and the loss in the dtype of the reconstruction.
:func:`train_teacher` builds its parameters in
``np.result_type(features, np.float32)``: float32 features (what the
feature files hold) train in float32, float64 or int64 features in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import BinaryCode, sign_pm1
from .encoder import (
    EncoderConfig,
    EncoderParams,
    VisualEmbeddings,
    blocks,
    cast_params,
    encode_backward,
    encode_forward,
)
from .encoder import _mask_rows, _uniform
from .exceptions import ShapeError, TrainingError
from .optim import Adam

DEFAULT_TEACHER_BITS = 128
DEFAULT_MASK_RATIO = 0.15


@dataclass
class TeacherParams:
    encoder: EncoderParams
    mask_embed: np.ndarray  # (model_dim,)
    w_hash: np.ndarray      # (model_dim, code_bits)
    b_hash: np.ndarray      # (code_bits,)
    w_dec: np.ndarray       # (code_bits, input_dim)
    b_dec: np.ndarray       # (input_dim,)

    EXTRA_FIELDS = ("mask_embed", "w_hash", "b_hash", "w_dec", "b_dec")

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator,
             code_bits: int = DEFAULT_TEACHER_BITS) -> "TeacherParams":
        d = cfg.model_dim
        return cls(
            encoder=EncoderParams.init(cfg, rng),
            mask_embed=_uniform(rng, d, d),
            w_hash=_uniform(rng, (d, code_bits), d),
            b_hash=_uniform(rng, code_bits, d),
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
    def from_dict(cls, d: dict[str, np.ndarray]) -> "TeacherParams":
        kwargs = {"encoder": EncoderParams.from_dict(d, prefix="encoder.")}
        for name in cls.EXTRA_FIELDS:
            arr = np.asarray(d[name])
            kwargs[name] = arr if arr.ndim == 2 and name.startswith("w_") else arr.reshape(-1)
        return cls(**kwargs)


@dataclass
class TeacherForward:
    frame_codes: np.ndarray   # (..., M, code_bits) in {-1,+1} (hard) or tanh values (relaxed)
    recon: np.ndarray         # (..., M, input_dim)
    embeddings: VisualEmbeddings
    act: np.ndarray           # tanh(pre-binarization)
    enc_cache: object


def teacher_forward(x: np.ndarray, params: TeacherParams, mask=None,
                    binarize: str = "hard") -> TeacherForward:
    """Encode, hash each frame, decode from codes only.

    ``binarize="relaxed"`` skips the sign so the whole pass is smooth; used
    by the gradient checker.
    """
    emb, cache = encode_forward(x, params.encoder, mask=mask, mask_embed=params.mask_embed)
    z = emb.per_frame @ params.w_hash + params.b_hash
    act = np.tanh(z)
    if binarize == "hard":
        codes = sign_pm1(act)
    elif binarize == "relaxed":
        codes = act
    else:
        raise ValueError(f"unknown binarize mode {binarize!r}")
    recon = codes @ params.w_dec + params.b_dec
    return TeacherForward(frame_codes=codes, recon=recon, embeddings=emb,
                          act=act, enc_cache=cache)


def teacher_recon_loss(x: np.ndarray, recon: np.ndarray, mask):
    """Squared error on masked positions, averaged over D * |mask| scalars.

    A float for one video; for a batch, one loss per video (``mask`` is a
    sequence of B index sets), in the dtype of ``recon``.
    """
    x = np.asarray(x, dtype=recon.dtype)
    if x.shape != recon.shape:
        raise ShapeError(f"shapes differ: {x.shape} vs {recon.shape}")
    if x.ndim == 2:
        return float(_video_losses(x[None], recon[None], [mask])[0])
    return _video_losses(x, recon, mask)


def _video_losses(x: np.ndarray, recon: np.ndarray, masks) -> np.ndarray:
    """Masked loss of each video of a (B, M, D) batch."""
    rows = _mask_rows(masks, x.shape[0], x.shape[1])
    if not rows.any(axis=1).all():
        raise ValueError("teacher reconstruction loss needs a nonempty mask")
    diff = x - recon
    per_frame = np.where(rows, (diff * diff).sum(axis=2), 0.0)
    return per_frame.sum(axis=1) / (x.shape[2] * rows.sum(axis=1)).astype(x.dtype)


def teacher_backward(x: np.ndarray, fwd: TeacherForward, params: TeacherParams) -> TeacherParams:
    """Gradients of the masked reconstruction loss for every teacher tensor,
    summed over the videos of a batch.

    Straight-through: d(code)/d(pre-activation) is taken as tanh', whether
    the forward binarized or not.
    """
    cache = fwd.enc_cache
    if not cache.masked.any(axis=1).all():
        raise ValueError("teacher backward needs the masked forward")
    x = np.asarray(x, dtype=fwd.recon.dtype)
    if x.shape != fwd.recon.shape:
        raise ShapeError(f"shapes differ: {x.shape} vs {fwd.recon.shape}")
    b, m_frames = cache.masked.shape
    d_in, bits = x.shape[-1], params.code_bits
    rows = cache.masked.astype(x.dtype)
    scale = rows / (d_in * rows.sum(axis=1, keepdims=True))

    d_recon = (2.0 * scale.reshape(-1, 1)) * (fwd.recon - x).reshape(-1, d_in)
    codes = fwd.frame_codes.reshape(-1, bits)
    act = fwd.act.reshape(-1, bits)
    frames = fwd.embeddings.per_frame.reshape(b * m_frames, -1)
    d_z = (d_recon @ params.w_dec.T) * (1.0 - act * act)
    d_frames = d_z @ params.w_hash.T

    enc_grads, _, d_me = encode_backward(d_frames.reshape(fwd.embeddings.per_frame.shape), cache)
    return TeacherParams(
        encoder=enc_grads,
        mask_embed=d_me,
        w_hash=frames.T @ d_z,
        b_hash=d_z.sum(axis=0),
        w_dec=codes.T @ d_recon,
        b_dec=d_recon.sum(axis=0),
    )


def video_code_from_frames(frame_codes: np.ndarray, tie_rule: str = "plus_one"):
    """Average frame codes bitwise, then re-sign; ties resolve to +1.

    Returns ``(BinaryCode, tie_count)`` where tie_count is the number of
    bits whose frame votes cancelled exactly.
    """
    if tie_rule != "plus_one":
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    fc = np.asarray(frame_codes, dtype=np.float64)
    if not np.all(np.abs(fc) == 1):
        raise ValueError("frame codes must be in {-1,+1}")
    sums = fc.sum(axis=0)  # exact: small-integer arithmetic in float64
    tie_count = int(np.count_nonzero(sums == 0))
    return BinaryCode(sign_pm1(sums).astype(np.int8)), tie_count


def draw_mask(rng: np.random.Generator, frame_count: int,
              ratio: float = DEFAULT_MASK_RATIO) -> tuple[int, ...]:
    """At least one frame, otherwise round(ratio * M), chosen uniformly."""
    count = max(1, int(round(ratio * frame_count)))
    return tuple(sorted(rng.choice(frame_count, size=count, replace=False).tolist()))


@dataclass
class TeacherTrainResult:
    params: TeacherParams
    epoch_losses: list[float]  # mean training-batch loss per epoch
    eval_before: float         # fixed-mask loss at initialization
    eval_after: float
    eval_masks: list[tuple[int, ...]]


def masked_eval_loss(features: np.ndarray, params: TeacherParams, masks) -> float:
    """Mean masked-reconstruction loss over a dataset with fixed masks."""
    features = np.asarray(features)
    total = 0.0
    for blk in blocks(len(features)):
        fwd = teacher_forward(features[blk], params, mask=masks[blk])
        total += float(teacher_recon_loss(features[blk], fwd.recon, masks[blk]).sum())
    return total / len(features)


def train_teacher(features: np.ndarray, cfg: EncoderConfig, *,
                  epochs: int, code_bits: int = DEFAULT_TEACHER_BITS,
                  batch_size: int = 256, learn_rate: float = 5e-4,
                  mask_ratio: float = DEFAULT_MASK_RATIO,
                  seed: int = 0) -> TeacherTrainResult:
    """Adam warm-up of the teacher on (N, M, D) features.

    Deterministic under ``seed``; raises TrainingError with the epoch index
    if the loss goes non-finite. ``epochs=0`` returns the freshly
    initialized parameters untouched. Parameters and all the math are in
    ``np.result_type(features, np.float32)``.
    """
    features = np.asarray(features)
    if features.ndim != 3 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty (N, M, D) array")
    dtype = np.result_type(features, np.float32)
    features = features.astype(dtype, copy=False)
    n = features.shape[0]

    init_ss, train_ss, eval_ss = np.random.SeedSequence(seed).spawn(3)
    params = cast_params(TeacherParams.init(cfg, np.random.default_rng(init_ss), code_bits),
                         dtype)
    eval_rng = np.random.default_rng(eval_ss)
    eval_masks = [draw_mask(eval_rng, cfg.frame_count, mask_ratio) for _ in range(n)]
    eval_before = masked_eval_loss(features, params, eval_masks)

    opt = Adam(lr=learn_rate)
    flat = params.as_dict()
    rng = np.random.default_rng(train_ss)
    epoch_losses: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            masks = [draw_mask(rng, cfg.frame_count, mask_ratio) for _ in batch]
            grads: dict[str, np.ndarray] = {}
            batch_loss = 0.0
            for blk in blocks(len(batch)):
                x = features[batch[blk]]
                fwd = teacher_forward(x, params, mask=masks[blk])
                batch_loss += float(teacher_recon_loss(x, fwd.recon, masks[blk]).sum())
                for name, g in teacher_backward(x, fwd, params).as_dict().items():
                    grads[name] = grads[name] + g if name in grads else g
            if not np.isfinite(batch_loss):
                raise TrainingError(f"teacher loss non-finite at epoch {epoch}", epoch)
            scale = 1.0 / len(batch)
            opt.step(flat, {name: g * scale for name, g in grads.items()})
            params.encoder.version += 1
            epoch_total += batch_loss * scale
        epoch_losses.append(epoch_total / ((n + batch_size - 1) // batch_size))

    eval_after = masked_eval_loss(features, params, eval_masks)
    return TeacherTrainResult(params=params, epoch_losses=epoch_losses,
                              eval_before=eval_before, eval_after=eval_after,
                              eval_masks=eval_masks)
