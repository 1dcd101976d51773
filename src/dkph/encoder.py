"""Single-block, single-head transformer encoder with explicit backward.

Maps an M x D matrix of per-frame features to M visual embeddings of width
``model_dim``. Architecture, per video:

    h   = proj(x)                      # D -> model_dim, per frame
    h   = mask_embed at masked rows    # cloze mode only; replaces content
    h0  = h + pos_embed
    h1  = h0 + W_o(softmax(Q K^T / sqrt(d)) V)     on LN(h0)
    out = h1 + FFN(LN(h1))             # FFN = W2 gelu(W1 .)

Pre-norm residuals; attention rows are a probability simplex; the embedding
mean is the plain row average. Forward caches every intermediate needed by
:func:`encode_backward`, and the backward is verified against central finite
differences in the test suite.

Batches. Both passes run on a (B, M, D) batch of videos: the per-frame
layers as one matrix product over all B * M rows, attention as B stacked
M x M products. The backward returns parameter gradients summed over the
batch. A 2-D (M, D) input is a batch of one, squeezed on return. For a batch,
``mask`` is a sequence of B frame-index sets (None or empty: unmasked);
for one video it is a single set. Callers run large sets of videos in
blocks of :data:`BLOCK_VIDEOS` (see :func:`blocks`).

Precision. Both passes compute in the dtype of the parameters and cast
their inputs to it; no dtype is fixed here. Trainers build parameters in
``np.result_type(features, np.float32)``: float32 for the float32 features
the feature files hold, float64 for float64 or int64 features, which is
what the finite-difference checks use. :func:`cast_params` narrows a
float64 initialization or checkpoint to the features' dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeError, StaleCacheError

_LN_EPS = 1e-5
BLOCK_VIDEOS = 64  # videos per pass; bounds the forward cache at any N
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass
class EncoderConfig:
    frame_count: int
    input_dim: int
    model_dim: int = 256
    ffn_dim: int | None = None

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 2 * self.model_dim
        for name in ("frame_count", "input_dim", "model_dim", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class EncoderParams:
    """All learnable tensors of the encoder block.

    Gradients come back in the same class. ``version`` is bumped by trainers
    after each in-place optimizer step so that stale forward caches can be
    rejected.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    e_pos: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w_f1: np.ndarray
    b_f1: np.ndarray
    w_f2: np.ndarray
    b_f2: np.ndarray
    version: int = 0

    TENSOR_FIELDS = (
        "w_in", "b_in", "e_pos", "w_q", "w_k", "w_v", "w_o", "b_o",
        "ln1_g", "ln1_b", "ln2_g", "ln2_b", "w_f1", "b_f1", "w_f2", "b_f2",
    )

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator) -> "EncoderParams":
        m, d_in, d, f = cfg.frame_count, cfg.input_dim, cfg.model_dim, cfg.ffn_dim
        return cls(
            w_in=_uniform(rng, (d_in, d), d_in),
            b_in=_uniform(rng, d, d_in),
            e_pos=_uniform(rng, (m, d), d),
            w_q=_uniform(rng, (d, d), d),
            w_k=_uniform(rng, (d, d), d),
            w_v=_uniform(rng, (d, d), d),
            w_o=_uniform(rng, (d, d), d),
            b_o=_uniform(rng, d, d),
            ln1_g=np.ones(d),
            ln1_b=np.zeros(d),
            ln2_g=np.ones(d),
            ln2_b=np.zeros(d),
            w_f1=_uniform(rng, (d, f), d),
            b_f1=_uniform(rng, f, d),
            w_f2=_uniform(rng, (f, d), f),
            b_f2=_uniform(rng, d, f),
        )

    @classmethod
    def zeros(cls, cfg: EncoderConfig) -> "EncoderParams":
        m, d_in, d, f = cfg.frame_count, cfg.input_dim, cfg.model_dim, cfg.ffn_dim
        z = np.zeros
        return cls(
            w_in=z((d_in, d)), b_in=z(d), e_pos=z((m, d)),
            w_q=z((d, d)), w_k=z((d, d)), w_v=z((d, d)),
            w_o=z((d, d)), b_o=z(d),
            ln1_g=z(d), ln1_b=z(d), ln2_g=z(d), ln2_b=z(d),
            w_f1=z((d, f)), b_f1=z(f), w_f2=z((f, d)), b_f2=z(d),
        )

    def config(self) -> EncoderConfig:
        return EncoderConfig(
            frame_count=self.e_pos.shape[0],
            input_dim=self.w_in.shape[0],
            model_dim=self.w_in.shape[1],
            ffn_dim=self.w_f1.shape[1],
        )

    def as_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {prefix + name: getattr(self, name) for name in self.TENSOR_FIELDS}

    @classmethod
    def from_dict(cls, d: dict[str, np.ndarray], prefix: str = "") -> "EncoderParams":
        kwargs = {}
        for name in cls.TENSOR_FIELDS:
            arr = np.asarray(d[prefix + name])
            kwargs[name] = arr.reshape(-1) if name.startswith(("b_", "ln")) else arr
        return cls(**kwargs)

    def copy(self) -> "EncoderParams":
        kwargs = {name: getattr(self, name).copy() for name in self.TENSOR_FIELDS}
        return EncoderParams(**kwargs, version=self.version)


def cast_params(params, dtype):
    """``params`` (encoder, teacher or student) with every tensor in ``dtype``.

    Tensors already in ``dtype`` are shared, not copied, so a float64 set
    cast to float64 is the same numbers. The version restarts at 0.
    """
    return type(params).from_dict(
        {name: t.astype(dtype, copy=False) for name, t in params.as_dict().items()})


@dataclass
class VisualEmbeddings:
    """Per-frame encoder outputs plus their row average."""

    per_frame: np.ndarray  # (M, model_dim), or (B, M, model_dim)
    mean: np.ndarray       # (model_dim,), or (B, model_dim)

    @classmethod
    def from_frames(cls, per_frame: np.ndarray) -> "VisualEmbeddings":
        return cls(per_frame=per_frame, mean=per_frame.mean(axis=-2))


@dataclass
class EncoderCache:
    """Forward intermediates. Row arrays are flat, (B * M, width); q, k, v
    are (B, M, model_dim); attn has the input's leading shape."""

    params: EncoderParams
    version: int
    single: bool
    x: np.ndarray
    masked: np.ndarray     # (B, M) bool
    ln1: tuple
    n1: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray
    ctx: np.ndarray
    ln2: tuple
    n2: np.ndarray
    f1_pre: np.ndarray
    gelu_t: np.ndarray
    g1: np.ndarray


def blocks(n: int) -> list[slice]:
    """Slices of ``range(n)`` in runs of at most BLOCK_VIDEOS videos."""
    return [slice(s, min(s + BLOCK_VIDEOS, n)) for s in range(0, n, BLOCK_VIDEOS)]


def _ln_forward(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def _ln_backward(dy, gain, ln_cache):
    xhat, inv = ln_cache
    d_gain = (dy * xhat).sum(axis=0)
    d_bias = dy.sum(axis=0)
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, d_gain, d_bias


def _gelu_forward(x):
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_backward(dy, x, t):
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def _mask_rows(mask, batch: int, m_frames: int) -> np.ndarray:
    """The (B, M) boolean mask of B per-video index sets (None: no mask)."""
    masks = mask if mask is not None else [None] * batch
    if len(masks) != batch:
        raise ShapeError(f"expected {batch} masks, got {len(masks)}")
    masked = np.zeros((batch, m_frames), dtype=bool)
    for row, mk in enumerate(masks):
        idx = [int(i) for i in mk] if mk else []
        if idx and (min(idx) < 0 or max(idx) >= m_frames):
            raise ShapeError(f"mask indices out of range for M={m_frames}")
        masked[row, idx] = True
    return masked


def encode_forward(
    x: np.ndarray,
    params: EncoderParams,
    mask=None,
    mask_embed: np.ndarray | None = None,
) -> tuple[VisualEmbeddings, EncoderCache]:
    """Run the block on one video (M, D) or a batch (B, M, D).

    ``mask`` is an optional set of frame indices, or for a batch a sequence
    of B such sets; masked frames have their projected content replaced by
    ``mask_embed`` before the positional rows are added, so no feature
    content leaks through. Attention still runs over all M positions.
    """
    x = np.asarray(x, dtype=params.w_in.dtype)
    single = x.ndim == 2
    if single:
        x, mask = x[None], [mask]
    m_frames, d_in = params.e_pos.shape[0], params.w_in.shape[0]
    if x.ndim != 3 or x.shape[1:] != (m_frames, d_in):
        shape = x.shape[1:] if single else x.shape
        raise ShapeError(f"expected features of shape (B, {m_frames}, {d_in}) "
                         f"or ({m_frames}, {d_in}), got {shape}")
    b = x.shape[0]
    masked = _mask_rows(mask, b, m_frames)
    rows = masked.reshape(-1)
    if rows.any() and mask_embed is None:
        raise ValueError("mask given but no mask embedding")

    xf = x.reshape(b * m_frames, d_in)
    h_proj = xf @ params.w_in + params.b_in
    if rows.any():
        h_proj[rows] = mask_embed
    d = h_proj.shape[1]
    h0 = (h_proj.reshape(b, m_frames, d) + params.e_pos).reshape(-1, d)

    n1, ln1 = _ln_forward(h0, params.ln1_g, params.ln1_b)
    q = (n1 @ params.w_q).reshape(b, m_frames, d)
    k = (n1 @ params.w_k).reshape(b, m_frames, d)
    v = (n1 @ params.w_v).reshape(b, m_frames, d)
    scores = (q @ k.transpose(0, 2, 1)) / math.sqrt(d)
    scores -= scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=2, keepdims=True)
    ctx = (attn @ v).reshape(-1, d)
    h1 = h0 + ctx @ params.w_o + params.b_o

    n2, ln2 = _ln_forward(h1, params.ln2_g, params.ln2_b)
    f1_pre = n2 @ params.w_f1 + params.b_f1
    g1, gelu_t = _gelu_forward(f1_pre)
    out = (h1 + g1 @ params.w_f2 + params.b_f2).reshape(b, m_frames, d)

    cache = EncoderCache(
        params=params, version=params.version, single=single, x=xf, masked=masked,
        ln1=ln1, n1=n1, q=q, k=k, v=v, attn=attn[0] if single else attn, ctx=ctx,
        ln2=ln2, n2=n2, f1_pre=f1_pre, gelu_t=gelu_t, g1=g1,
    )
    return VisualEmbeddings.from_frames(out[0] if single else out), cache


def encode_backward(grad_out: np.ndarray, cache: EncoderCache):
    """Gradients of a scalar loss w.r.t. params, input, and mask embedding.

    ``grad_out`` is the loss gradient w.r.t. the per-frame outputs, shaped
    like them; a gradient on the embedding *mean* must be folded in by the
    caller (add grad_mean / M to every row). Returns
    ``(param_grads, grad_x, grad_mask_embed)``: parameter gradients summed
    over the batch, grad_x shaped like the input, and grad_mask_embed None
    when no frame was masked.
    """
    p = cache.params
    if cache.version != p.version:
        raise StaleCacheError(
            f"cache from params version {cache.version}, params now at {p.version}"
        )
    b, m_frames = cache.masked.shape
    d = p.w_in.shape[1]
    out_shape = (m_frames, d) if cache.single else (b, m_frames, d)
    grad_out = np.asarray(grad_out, dtype=p.w_in.dtype)
    if grad_out.shape != out_shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != output shape {out_shape}")
    grad_out = grad_out.reshape(b * m_frames, d)

    # out = h1 + g1 @ w_f2 + b_f2
    w_f2 = cache.g1.T @ grad_out
    b_f2 = grad_out.sum(axis=0)
    d_f1 = _gelu_backward(grad_out @ p.w_f2.T, cache.f1_pre, cache.gelu_t)
    w_f1 = cache.n2.T @ d_f1
    b_f1 = d_f1.sum(axis=0)
    dx2, ln2_g, ln2_b = _ln_backward(d_f1 @ p.w_f1.T, p.ln2_g, cache.ln2)
    d_h1 = grad_out + dx2

    # h1 = h0 + ctx @ w_o + b_o
    w_o = cache.ctx.T @ d_h1
    b_o = d_h1.sum(axis=0)
    d_ctx = (d_h1 @ p.w_o.T).reshape(b, m_frames, d)
    attn = cache.attn.reshape(b, m_frames, m_frames)
    d_attn = d_ctx @ cache.v.transpose(0, 2, 1)
    d_v = (attn.transpose(0, 2, 1) @ d_ctx).reshape(-1, d)
    inner = (d_attn * attn).sum(axis=2, keepdims=True)
    d_scores = attn * (d_attn - inner)
    inv_sqrt = 1.0 / math.sqrt(d)
    d_q = ((d_scores @ cache.k) * inv_sqrt).reshape(-1, d)
    d_k = ((d_scores.transpose(0, 2, 1) @ cache.q) * inv_sqrt).reshape(-1, d)
    w_q = cache.n1.T @ d_q
    w_k = cache.n1.T @ d_k
    w_v = cache.n1.T @ d_v
    d_n1 = d_q @ p.w_q.T + d_k @ p.w_k.T + d_v @ p.w_v.T
    dx1, ln1_g, ln1_b = _ln_backward(d_n1, p.ln1_g, cache.ln1)
    d_h0 = d_h1 + dx1

    # h0 = (proj with mask rows replaced) + e_pos
    e_pos = d_h0.reshape(b, m_frames, d).sum(axis=0)
    rows = cache.masked.reshape(-1)
    grad_mask_embed = None
    if rows.any():
        grad_mask_embed = d_h0[rows].sum(axis=0)
        d_h0[rows] = 0.0
    w_in = cache.x.T @ d_h0
    b_in = d_h0.sum(axis=0)
    grad_x = (d_h0 @ p.w_in.T).reshape(b, m_frames, -1)
    grads = EncoderParams(
        w_in=w_in, b_in=b_in, e_pos=e_pos, w_q=w_q, w_k=w_k, w_v=w_v,
        w_o=w_o, b_o=b_o, ln1_g=ln1_g, ln1_b=ln1_b, ln2_g=ln2_g, ln2_b=ln2_b,
        w_f1=w_f1, b_f1=b_f1, w_f2=w_f2, b_f2=b_f2,
    )
    return grads, grad_x[0] if cache.single else grad_x, grad_mask_embed
