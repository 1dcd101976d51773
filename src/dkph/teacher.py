"""Teacher model: masked-frame reconstruction over frame-level binary codes.

The teacher encodes M frames, hashes each frame embedding to a fixed-width
binary code of ``teacher_bits`` bits, and reconstructs the original frame
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

Settings. :func:`init_teacher` and :func:`train_teacher` read their
sizes and training hyperparameters from a :class:`RunConfig`, whose
defaults are the only ones (``teacher_bits``, ``mask_ratio``,
``teacher_epochs``, ``batch_size``, ``learn_rate``, ``train_seed``).

Batches. The forward, the loss and the backward take a (B, M, D) batch, as
the encoder does: ``mask`` is a (B, M) bool array that masks the same count
c >= 1 of frames in every row (``encoder.check_mask``; :func:`draw_mask`
draws such masks), the loss is one value per video, and the backward
returns the gradient of the summed per-video losses. Training
(:func:`batch_gradients`, which ``train_teacher`` steps on and the
gradient check differentiates) and evaluation run their videos through
``encoder.forward_blocks`` with their masks, in blocks sized by the bytes
of the rows a masked video holds, with the encoder's attention products
formed once per pass. :func:`train_teacher` runs the epochs of
``optim.train_epochs``, one masked batch per step.

Masked rows only. The forward passes its mask to the encoder, which
replaces the masked frames' content by ``mask_embed`` and computes only
their outputs, the rows the loss reads: the encoder's rows after
attention, the hash head and the decoder run on the masked frames only,
and ``frame_codes``, ``act``, ``frames`` and ``recon`` are (B * c,
width) arrays in ``x[mask]`` order. Attention still reads every frame,
but only as the keys and values of its products, whose rows are the
masked frames: (B, c, M) scores, not (B, M, M). The encoder never
projects keys or values, so its row products run on the masked frames
only.

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
from .config import RunConfig
from .encoder import (
    Params,
    cast_params,
    check_mask,
    encode_backward,
    encode_forward,
    factor_grads,
    forward_blocks,
    init_encoder,
    training_features,
)
from .encoder import _col_sum, _uniform
from .exceptions import ShapeError
from .optim import add_grads, train_epochs


def init_teacher(cfg: RunConfig, rng: np.random.Generator) -> Params:
    """The encoder's tensors, then ``mask_embed``, the hash head (``w_hash``,
    ``b_hash``) and the decoder (``w_dec``, ``b_dec``), in checkpoint order."""
    d, bits = cfg.model_dim, cfg.teacher_bits
    params = init_encoder(cfg, rng)
    params.update(
        mask_embed=_uniform(rng, d, d),
        w_hash=_uniform(rng, (d, bits), d),
        b_hash=_uniform(rng, bits, d),
        w_dec=_uniform(rng, (bits, cfg.feat_dim), bits),
        b_dec=_uniform(rng, cfg.feat_dim, bits),
    )
    return params


@dataclass
class TeacherForward:
    """The masked rows, in ``x[mask]`` order."""

    frame_codes: np.ndarray   # (B * c, code_bits) in {-1,+1} (hard) or tanh values (relaxed)
    recon: np.ndarray         # (B * c, feat_dim)
    frames: np.ndarray        # (B * c, model_dim) encoder outputs
    act: np.ndarray           # tanh(pre-binarization)
    enc_cache: object


def teacher_forward(x: np.ndarray, params: Params, mask: np.ndarray,
                    binarize: str = "hard", products=None) -> TeacherForward:
    """Encode, hash each masked frame, decode from codes only.

    ``binarize="relaxed"`` skips the sign so the whole pass is smooth; used
    by the gradient checker. ``products`` is passed on to
    ``encoder.encode_forward``.
    """
    frames, cache = encode_forward(x, params, masked=mask, products=products)
    z = frames @ params["w_hash"] + params["b_hash"]
    act = np.tanh(z)
    codes = binarize_tanh(act, binarize)
    recon = codes @ params["w_dec"] + params["b_dec"]
    return TeacherForward(frame_codes=codes, recon=recon, frames=frames,
                          act=act, enc_cache=cache)


def _masked_target(x: np.ndarray, mask, recon: np.ndarray):
    """``(x[mask], c)``: the masked rows of a (B, M, D) batch in the dtype
    of ``recon``, which must hold as many, and the count c of frames that
    ``mask`` hides in every video (``check_mask``)."""
    x = np.asarray(x, dtype=recon.dtype)
    if x.ndim != 3:
        raise ShapeError(f"expected a (B, M, D) batch, got {x.shape}")
    count = check_mask(mask, x.shape[:2])
    target = x[mask]
    if recon.shape != target.shape:
        raise ShapeError(f"expected the {target.shape} masked rows, got {recon.shape}")
    return target, count


def teacher_recon_loss(x: np.ndarray, recon: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Squared error on masked positions, averaged over D * |mask| scalars:
    one loss per video of a (B, M, D) batch, in the dtype of ``recon``.
    ``recon`` holds the masked rows, (B * c, D) in ``x[mask]`` order."""
    target, count = _masked_target(x, mask, recon)
    diff = target - recon
    per_frame = np.zeros(mask.shape, dtype=recon.dtype)
    per_frame[mask] = (diff * diff).sum(axis=1)
    return per_frame.sum(axis=1) / recon.dtype.type(target.shape[1] * count)


def teacher_backward(x: np.ndarray, fwd: TeacherForward, params: Params) -> dict:
    """Gradients of the masked reconstruction loss for every teacher tensor,
    summed over the videos of a batch, keyed like ``params`` except for the
    attention weights, which ``encoder.w_qk`` and ``encoder.w_vo`` stand
    for until ``encoder.factor_grads`` maps them (see :func:`batch_gradients`).

    Straight-through: d(code)/d(pre-activation) is taken as tanh', whether
    the forward binarized or not.
    """
    target, count = _masked_target(x, fwd.enc_cache.masked, fwd.recon)
    scale = 1.0 / target.dtype.type(target.shape[1] * count)

    d_recon = (2.0 * scale) * (fwd.recon - target)
    d_z = (d_recon @ params["w_dec"].T) * (1.0 - fwd.act * fwd.act)
    d_frames = d_z @ params["w_hash"].T

    grads = encode_backward(d_frames, fwd.enc_cache)
    grads.update(
        w_hash=fwd.frames.T @ d_z,
        b_hash=_col_sum(d_z),
        w_dec=fwd.frame_codes.T @ d_recon,
        b_dec=_col_sum(d_recon),
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


def draw_mask(rng: np.random.Generator, frame_count: int, count: int,
              n: int) -> np.ndarray:
    """(n, M) bool masks, True at the masked frames. Each row masks
    ``count`` frames (``RunConfig.masked_frames``), chosen uniformly: its
    count smallest keys of one ``rng.random((n, M))`` draw. ``argpartition``
    picks exactly count of them, so a tie cannot mark an extra frame."""
    keys = rng.random((n, frame_count))
    masks = np.zeros((n, frame_count), dtype=bool)
    np.put_along_axis(masks, np.argpartition(keys, count - 1, axis=1)[:, :count], True, axis=1)
    return masks


@dataclass
class TeacherTrainResult:
    params: Params
    history: list[dict]        # one row per epoch: epoch, recon (mean training-batch loss)
    eval_before: float         # fixed-mask loss at initialization
    eval_after: float


def masked_eval_loss(features: np.ndarray, params: Params, masks: np.ndarray) -> float:
    """Mean masked-reconstruction loss over a dataset with fixed (N, M) masks."""
    features = np.asarray(features)
    total = 0.0
    for blk, fwd in forward_blocks(teacher_forward, features, params, masks):
        total += float(teacher_recon_loss(features[blk], fwd.recon, masks[blk]).sum())
    return total / len(features)


def batch_gradients(x: np.ndarray, masks: np.ndarray, params: Params,
                    binarize: str = "hard") -> tuple[float, dict]:
    """The mean masked-reconstruction loss of a (B, M, D) batch under its
    (B, M) ``masks``, and its gradient for every teacher tensor, keyed like
    ``params``.

    One forward and one backward per block of ``encoder.forward_blocks``;
    the attention weights' gradients are mapped from the block sum by
    ``encoder.factor_grads``.
    """
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for blk, fwd in forward_blocks(teacher_forward, x, params, masks, binarize=binarize):
        total += float(teacher_recon_loss(x[blk], fwd.recon, masks[blk]).sum())
        add_grads(grads, teacher_backward(x[blk], fwd, params))
    scale = 1.0 / len(x)
    return total * scale, {name: g * scale for name, g in factor_grads(grads, params).items()}


def train_teacher(features: np.ndarray, cfg: RunConfig) -> TeacherTrainResult:
    """Adam warm-up of the teacher on (N, M, D) features, for
    ``cfg.teacher_epochs`` epochs of ``cfg.batch_size`` videos, masking
    ``cfg.masked_frames()`` frames of each video.

    Deterministic under ``cfg.train_seed``; raises TrainingError with the
    epoch index if the loss goes non-finite. ``teacher_epochs = 0`` returns
    the freshly initialized parameters untouched. Parameters and all the
    math are in ``np.result_type(features, np.float32)``.
    """
    features = training_features(features)
    init_ss, train_ss, eval_ss = np.random.SeedSequence(cfg.train_seed).spawn(3)
    params = cast_params(init_teacher(cfg, np.random.default_rng(init_ss)), features.dtype)
    eval_rng = np.random.default_rng(eval_ss)
    eval_masks = draw_mask(eval_rng, cfg.frames, cfg.masked_frames(), len(features))
    eval_before = masked_eval_loss(features, params, eval_masks)

    rng = np.random.default_rng(train_ss)

    def step(batch):
        masks = draw_mask(rng, cfg.frames, cfg.masked_frames(), len(batch))
        loss, grads = batch_gradients(features[batch], masks, params)
        return {"recon": loss}, grads

    history = train_epochs(params, len(features), cfg.teacher_epochs, cfg, rng, step, "teacher")
    eval_after = masked_eval_loss(features, params, eval_masks)
    return TeacherTrainResult(params=params, history=history,
                              eval_before=eval_before, eval_after=eval_after)
