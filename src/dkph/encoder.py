"""One-block, one-head transformer encoder with explicit backward.

Maps each video's M x D matrix of per-frame features to M visual embeddings
of width ``model_dim``. Architecture, per video:

    h   = proj(x)                      # D -> model_dim, per frame
    h   = mask_embed at masked rows    # cloze mode only; replaces content
    h0  = h + pos_embed
    h1  = h0 + W_o(softmax(Q K^T / sqrt(d)) V)     on LN(h0)
    out = h1 + FFN(LN(h1))             # FFN = W2 gelu(W1 .)

Pre-norm residuals; attention rows are a probability simplex. Forward caches
every intermediate needed by :func:`encode_backward`, and the backward is
verified against central finite differences in the test suite.

Batches. Both passes take only a (B, M, D) batch of videos (one video is a
batch of one): the per-frame layers run as one matrix product over all
B * M rows, attention as B stacked M x M products. ``masked`` is a (B, M)
bool array, True at the masked frames. The backward returns parameter
gradients summed over the batch. Callers run large sets of videos in blocks
of :data:`BLOCK_VIDEOS` (see :func:`blocks`) and take frame means where they
need them.

Parameters. A model's parameters are one flat dict (:class:`Params`) keyed
by checkpoint name: the encoder's ``encoder.*`` tensors, then the head's.
Both passes read only the ``encoder.*`` keys; the backward returns its
gradients under them, for the head to add its own to.

Precision. Both passes compute in the dtype of the parameters and cast
their inputs to it; no dtype is fixed here. Trainers build parameters in
``np.result_type(features, np.float32)``: float32 for the float32 features
the feature files hold, float64 for float64 or int64 features, which is
what the finite-difference checks use. :func:`cast_params` casts an
initialization or a checkpoint to the features' dtype.
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
_PREFIX = "encoder."


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


class Params(dict):
    """Tensors by checkpoint name. Trainers bump ``version`` after each
    in-place optimizer step, so that stale forward caches can be rejected."""

    version = 0


def init_encoder(cfg: EncoderConfig, rng: np.random.Generator) -> Params:
    """The encoder's tensors, under ``encoder.*`` keys; heads extend the dict."""
    m, d_in, d, f = cfg.frame_count, cfg.input_dim, cfg.model_dim, cfg.ffn_dim
    return Params({
        "encoder.w_in": _uniform(rng, (d_in, d), d_in),
        "encoder.b_in": _uniform(rng, d, d_in),
        "encoder.e_pos": _uniform(rng, (m, d), d),
        "encoder.w_q": _uniform(rng, (d, d), d),
        "encoder.w_k": _uniform(rng, (d, d), d),
        "encoder.w_v": _uniform(rng, (d, d), d),
        "encoder.w_o": _uniform(rng, (d, d), d),
        "encoder.b_o": _uniform(rng, d, d),
        "encoder.ln1_g": np.ones(d),
        "encoder.ln1_b": np.zeros(d),
        "encoder.ln2_g": np.ones(d),
        "encoder.ln2_b": np.zeros(d),
        "encoder.w_f1": _uniform(rng, (d, f), d),
        "encoder.b_f1": _uniform(rng, f, d),
        "encoder.w_f2": _uniform(rng, (f, d), f),
        "encoder.b_f2": _uniform(rng, d, f),
    })


def cast_params(params, dtype) -> Params:
    """``params`` (an init dict or a loaded checkpoint) with every tensor in
    ``dtype``. Tensors already in ``dtype`` are shared, not copied, so a
    float64 set cast to float64 is the same numbers. The version restarts
    at 0.
    """
    return Params({name: np.asarray(t).astype(dtype, copy=False) for name, t in params.items()})


@dataclass
class EncoderCache:
    """Forward intermediates. Row arrays are flat, (B * M, width); q, k, v
    are (B, M, model_dim) and attn is (B, M, M)."""

    params: Params
    version: int
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


def _tensors(params) -> dict:
    """The ``encoder.*`` tensors of a parameter dict, by their short names."""
    return {name[len(_PREFIX):]: t for name, t in params.items() if name.startswith(_PREFIX)}


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


def check_mask(masked, shape: tuple) -> None:
    """Raise ShapeError unless ``masked`` is a bool array of ``shape``."""
    if not (isinstance(masked, np.ndarray) and masked.dtype == bool and masked.shape == shape):
        got = (masked.dtype, masked.shape) if isinstance(masked, np.ndarray) else type(masked)
        raise ShapeError(f"expected a bool mask of shape {shape}, got {got}")


def encode_forward(
    x: np.ndarray,
    params: Params,
    masked: np.ndarray | None = None,
    mask_embed: np.ndarray | None = None,
) -> tuple[np.ndarray, EncoderCache]:
    """Run the block on a batch (B, M, D); returns the (B, M, model_dim)
    per-frame outputs and the cache for :func:`encode_backward`.

    ``masked`` is an optional (B, M) bool array; masked frames have their
    projected content replaced by ``mask_embed`` before the positional rows
    are added, so no feature content leaks through. Attention still runs
    over all M positions. Only the ``encoder.*`` tensors of ``params`` are
    read.
    """
    p = _tensors(params)
    x = np.asarray(x, dtype=p["w_in"].dtype)
    m_frames, d_in = p["e_pos"].shape[0], p["w_in"].shape[0]
    if x.ndim != 3 or x.shape[1:] != (m_frames, d_in):
        raise ShapeError(f"expected features of shape (B, {m_frames}, {d_in}), got {x.shape}")
    b = x.shape[0]
    if masked is None:
        masked = np.zeros((b, m_frames), dtype=bool)
    check_mask(masked, (b, m_frames))
    rows = masked.reshape(-1)
    if rows.any() and mask_embed is None:
        raise ValueError("mask given but no mask embedding")

    xf = x.reshape(b * m_frames, d_in)
    h_proj = xf @ p["w_in"] + p["b_in"]
    if rows.any():
        h_proj[rows] = mask_embed
    d = h_proj.shape[1]
    h0 = (h_proj.reshape(b, m_frames, d) + p["e_pos"]).reshape(-1, d)

    n1, ln1 = _ln_forward(h0, p["ln1_g"], p["ln1_b"])
    q = (n1 @ p["w_q"]).reshape(b, m_frames, d)
    k = (n1 @ p["w_k"]).reshape(b, m_frames, d)
    v = (n1 @ p["w_v"]).reshape(b, m_frames, d)
    scores = (q @ k.transpose(0, 2, 1)) / math.sqrt(d)
    scores -= scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=2, keepdims=True)
    ctx = (attn @ v).reshape(-1, d)
    h1 = h0 + ctx @ p["w_o"] + p["b_o"]

    n2, ln2 = _ln_forward(h1, p["ln2_g"], p["ln2_b"])
    f1_pre = n2 @ p["w_f1"] + p["b_f1"]
    g1, gelu_t = _gelu_forward(f1_pre)
    out = (h1 + g1 @ p["w_f2"] + p["b_f2"]).reshape(b, m_frames, d)

    cache = EncoderCache(
        params=params, version=params.version, x=xf, masked=masked,
        ln1=ln1, n1=n1, q=q, k=k, v=v, attn=attn, ctx=ctx,
        ln2=ln2, n2=n2, f1_pre=f1_pre, gelu_t=gelu_t, g1=g1,
    )
    return out, cache


def encode_backward(grad_out: np.ndarray, cache: EncoderCache):
    """Gradients of a scalar loss w.r.t. params and mask embedding.

    ``grad_out`` is the loss gradient w.r.t. the (B, M, model_dim) per-frame
    outputs; a gradient on a frame *mean* must be folded in by the caller
    (add grad_mean / M to every row). Returns
    ``(param_grads, grad_mask_embed)``: parameter gradients summed over the
    batch, and grad_mask_embed None when no frame was masked. The parameter
    gradients are keyed like the parameters, ``encoder.w_in`` ...
    ``encoder.b_f2``.
    """
    version = cache.params.version
    if cache.version != version:
        raise StaleCacheError(
            f"cache from params version {cache.version}, params now at {version}"
        )
    p = _tensors(cache.params)
    b, m_frames = cache.masked.shape
    d = p["w_in"].shape[1]
    out_shape = (b, m_frames, d)
    grad_out = np.asarray(grad_out, dtype=p["w_in"].dtype)
    if grad_out.shape != out_shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != output shape {out_shape}")
    grad_out = grad_out.reshape(b * m_frames, d)

    # out = h1 + g1 @ w_f2 + b_f2
    w_f2 = cache.g1.T @ grad_out
    b_f2 = grad_out.sum(axis=0)
    d_f1 = _gelu_backward(grad_out @ p["w_f2"].T, cache.f1_pre, cache.gelu_t)
    w_f1 = cache.n2.T @ d_f1
    b_f1 = d_f1.sum(axis=0)
    dx2, ln2_g, ln2_b = _ln_backward(d_f1 @ p["w_f1"].T, p["ln2_g"], cache.ln2)
    d_h1 = grad_out + dx2

    # h1 = h0 + ctx @ w_o + b_o
    w_o = cache.ctx.T @ d_h1
    b_o = d_h1.sum(axis=0)
    d_ctx = (d_h1 @ p["w_o"].T).reshape(b, m_frames, d)
    attn = cache.attn
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
    d_n1 = d_q @ p["w_q"].T + d_k @ p["w_k"].T + d_v @ p["w_v"].T
    dx1, ln1_g, ln1_b = _ln_backward(d_n1, p["ln1_g"], cache.ln1)
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
    grads = dict(
        w_in=w_in, b_in=b_in, e_pos=e_pos, w_q=w_q, w_k=w_k, w_v=w_v,
        w_o=w_o, b_o=b_o, ln1_g=ln1_g, ln1_b=ln1_b, ln2_g=ln2_g, ln2_b=ln2_b,
        w_f1=w_f1, b_f1=b_f1, w_f2=w_f2, b_f2=b_f2,
    )
    return {_PREFIX + name: g for name, g in grads.items()}, grad_mask_embed
