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

Batches. The forward, the loss and the backward take a (B, M, D) batch, as
the encoder does: ``mask`` is a (B, M) bool array with at least one True per
row, the loss is one value per video, and the backward returns the gradient
of the summed per-video losses. Training and evaluation run in blocks of
``encoder.BLOCK_VIDEOS`` videos.

Precision. Every pass computes in the dtype of the parameters, as the
encoder does, and the loss in the dtype of the reconstruction.
:func:`train_teacher` builds its parameters in
``np.result_type(features, np.float32)``: float32 features (what the
feature files hold) train in float32, float64 or int64 features in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import BinaryCode, binarize_tanh, sign_pm1
from .encoder import (
    EncoderConfig,
    Params,
    blocks,
    cast_params,
    check_mask,
    encode_backward,
    encode_forward,
    init_encoder,
)
from .encoder import _uniform
from .exceptions import ShapeError, TrainingError
from .optim import Adam, add_grads

DEFAULT_TEACHER_BITS = 128
DEFAULT_MASK_RATIO = 0.15


def init_teacher(cfg: EncoderConfig, rng: np.random.Generator,
                 code_bits: int = DEFAULT_TEACHER_BITS) -> Params:
    """The encoder's tensors, then ``mask_embed``, the hash head (``w_hash``,
    ``b_hash``) and the decoder (``w_dec``, ``b_dec``), in checkpoint order."""
    d = cfg.model_dim
    params = init_encoder(cfg, rng)
    params.update(
        mask_embed=_uniform(rng, d, d),
        w_hash=_uniform(rng, (d, code_bits), d),
        b_hash=_uniform(rng, code_bits, d),
        w_dec=_uniform(rng, (code_bits, cfg.input_dim), code_bits),
        b_dec=_uniform(rng, cfg.input_dim, code_bits),
    )
    return params


@dataclass
class TeacherForward:
    frame_codes: np.ndarray   # (B, M, code_bits) in {-1,+1} (hard) or tanh values (relaxed)
    recon: np.ndarray         # (B, M, input_dim)
    frames: np.ndarray        # (B, M, model_dim) encoder outputs
    act: np.ndarray           # tanh(pre-binarization)
    enc_cache: object


def teacher_forward(x: np.ndarray, params: Params, mask: np.ndarray | None = None,
                    binarize: str = "hard") -> TeacherForward:
    """Encode, hash each frame, decode from codes only.

    ``binarize="relaxed"`` skips the sign so the whole pass is smooth; used
    by the gradient checker.
    """
    frames, cache = encode_forward(x, params, masked=mask, mask_embed=params["mask_embed"])
    z = frames @ params["w_hash"] + params["b_hash"]
    act = np.tanh(z)
    codes = binarize_tanh(act, binarize)
    recon = codes @ params["w_dec"] + params["b_dec"]
    return TeacherForward(frame_codes=codes, recon=recon, frames=frames,
                          act=act, enc_cache=cache)


def teacher_recon_loss(x: np.ndarray, recon: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Squared error on masked positions, averaged over D * |mask| scalars:
    one loss per video of a (B, M, D) batch, in the dtype of ``recon``."""
    x = np.asarray(x, dtype=recon.dtype)
    if x.shape != recon.shape or x.ndim != 3:
        raise ShapeError(f"expected equal (B, M, D) shapes, got {x.shape} and {recon.shape}")
    check_mask(mask, x.shape[:2])
    if not mask.any(axis=1).all():
        raise ValueError("teacher reconstruction loss needs a nonempty mask")
    diff = x - recon
    per_frame = np.where(mask, (diff * diff).sum(axis=2), 0.0)
    return per_frame.sum(axis=1) / (x.shape[2] * mask.sum(axis=1)).astype(x.dtype)


def teacher_backward(x: np.ndarray, fwd: TeacherForward, params: Params) -> dict:
    """Gradients of the masked reconstruction loss for every teacher tensor,
    summed over the videos of a batch, keyed like ``params``.

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
    d_in, bits = x.shape[-1], params["w_hash"].shape[1]
    rows = cache.masked.astype(x.dtype)
    scale = rows / (d_in * rows.sum(axis=1, keepdims=True))

    d_recon = (2.0 * scale.reshape(-1, 1)) * (fwd.recon - x).reshape(-1, d_in)
    codes = fwd.frame_codes.reshape(-1, bits)
    act = fwd.act.reshape(-1, bits)
    frames = fwd.frames.reshape(b * m_frames, -1)
    d_z = (d_recon @ params["w_dec"].T) * (1.0 - act * act)
    d_frames = d_z @ params["w_hash"].T

    grads, d_me = encode_backward(d_frames.reshape(fwd.frames.shape), cache)
    grads.update(
        mask_embed=d_me,
        w_hash=frames.T @ d_z,
        b_hash=d_z.sum(axis=0),
        w_dec=codes.T @ d_recon,
        b_dec=d_recon.sum(axis=0),
    )
    return grads


def video_code_from_frames(frame_codes: np.ndarray):
    """Average frame codes bitwise, then re-sign; ties resolve to +1.

    Returns ``(BinaryCode, tie_count)`` where tie_count is the number of
    bits whose frame votes cancelled exactly.
    """
    fc = np.asarray(frame_codes, dtype=np.float64)
    if not np.all(np.abs(fc) == 1):
        raise ValueError("frame codes must be in {-1,+1}")
    sums = fc.sum(axis=0)  # exact: small-integer arithmetic in float64
    tie_count = int(np.count_nonzero(sums == 0))
    return BinaryCode(sign_pm1(sums).astype(np.int8)), tie_count


def draw_mask(rng: np.random.Generator, frame_count: int,
              ratio: float = DEFAULT_MASK_RATIO) -> np.ndarray:
    """A bool row over the M frames, True at the masked ones: at least one
    frame, otherwise round(ratio * M), chosen uniformly."""
    count = max(1, int(round(ratio * frame_count)))
    row = np.zeros(frame_count, dtype=bool)
    row[rng.choice(frame_count, size=count, replace=False)] = True
    return row


@dataclass
class TeacherTrainResult:
    params: Params
    epoch_losses: list[float]  # mean training-batch loss per epoch
    eval_before: float         # fixed-mask loss at initialization
    eval_after: float
    eval_masks: np.ndarray     # (N, M) bool


def masked_eval_loss(features: np.ndarray, params: Params, masks: np.ndarray) -> float:
    """Mean masked-reconstruction loss over a dataset with fixed (N, M) masks."""
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
    params = cast_params(init_teacher(cfg, np.random.default_rng(init_ss), code_bits), dtype)
    eval_rng = np.random.default_rng(eval_ss)
    eval_masks = np.stack([draw_mask(eval_rng, cfg.frame_count, mask_ratio) for _ in range(n)])
    eval_before = masked_eval_loss(features, params, eval_masks)

    opt = Adam(lr=learn_rate)
    rng = np.random.default_rng(train_ss)
    epoch_losses: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            masks = np.stack([draw_mask(rng, cfg.frame_count, mask_ratio) for _ in batch])
            grads: dict[str, np.ndarray] = {}
            batch_loss = 0.0
            for blk in blocks(len(batch)):
                x = features[batch[blk]]
                fwd = teacher_forward(x, params, mask=masks[blk])
                batch_loss += float(teacher_recon_loss(x, fwd.recon, masks[blk]).sum())
                add_grads(grads, teacher_backward(x, fwd, params))
            if not np.isfinite(batch_loss):
                raise TrainingError(f"teacher loss non-finite at epoch {epoch}", epoch)
            scale = 1.0 / len(batch)
            opt.step(params, {name: g * scale for name, g in grads.items()})
            params.version += 1
            epoch_total += batch_loss * scale
        epoch_losses.append(epoch_total / ((n + batch_size - 1) // batch_size))

    eval_after = masked_eval_loss(features, params, eval_masks)
    return TeacherTrainResult(params=params, epoch_losses=epoch_losses,
                              eval_before=eval_before, eval_after=eval_after,
                              eval_masks=eval_masks)
