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
B * M rows, attention as B stacked c x M products (c = M without a mask;
Masked rows). The backward returns parameter gradients summed over the
batch. Callers run large sets of videos through :func:`forward_blocks`, in
the blocks of :func:`blocks`. A block holds as many videos as fit the
shared work-block budget ``numerics.BLOCK_BYTES`` at the largest row set
a video holds: its M frames at the wider of ``feat_dim`` and
``model_dim``, and its c rows after attention at the FFN width. Each
elementwise pass (LayerNorm, GELU, bias and residual adds) reads and
writes (rows, width) temporaries; at this budget each is at most half a
2 MB L2 cache, so a pass works mostly in cache instead of streaming
through memory (a fixed 64 videos made them 3.2 MB).
The budget follows the model and the mask: the paper-default model runs
20 videos per block, and 40 when it masks 4 of its 25 frames; a 64-wide
model 256, and 512 masked; a tiny one all its videos at once. Per-row
outputs of the forward do not depend on the block; gradients summed over
blocks do, in the last ulp. The elementwise kernels (LayerNorm and GELU)
work in place on a few buffers per pass, in the same operations and
operand order as their plain expressions, so their results are
bit-identical to them.

Reductions. Every mean along the rows and every sum down the columns of a
(rows, width) array in the passes is a BLAS product with a constant
vector: :func:`_row_mean` is ``x`` times a column of 1/width, and
:func:`_col_sum` is a row of ones times ``x``. They take LayerNorm's means
forward and backward and its gain and bias gradients, the softmax
denominator and the backward's ``inner`` row sums (M times a row mean),
and the bias, positional and ``mask_embed`` gradients; the teacher's and
the student's head-bias gradients use :func:`_col_sum` too. Row maxima and
the per-video frame means of :func:`encode_means` stay numpy reductions.
On one Intel Xeon core with OpenBLAS, a float32 numpy row mean costs 5-11
times the product at widths 256 down to 8, and a column sum 3-9 times. The
products sum in another order than numpy's reductions, so they agree with
them to a few ulps, and exactly on small integers at power-of-two widths.

Attention products. W_q and W_k enter attention only through their product
w_qk = W_q W_k^T, and W_v and W_o only through w_vo = W_v W_o:

    scores = (n1_sel w_qk) n1^T / sqrt(d),  h1 = (attn n1)_sel w_vo + h0_sel + b_o

with n1 the LayerNorm-1 rows and ``_sel`` the rows whose outputs are
computed (every row without a mask). So a row meets two d x d products
forward and four backward, not four and eight, and keys and values are
never projected. :func:`attention_products` forms the two products, at d^3
each, and :func:`forward_blocks` forms them once per pass: every block of
the pass receives them, and a one-call user passes none and lets the
forward form them. The backward returns gradients for ``encoder.w_qk`` and
``encoder.w_vo`` in place of the four weights', and :func:`factor_grads`
maps their sum over a step's blocks onto W_q, W_k, W_v and W_o (four more
d^3 products). Parameters, checkpoints and optimizer moments keep the four
weights; the products are never stored.

Masked rows. ``masked`` is an optional (B, M) bool array, True at the
frames the cloze teacher masks; the student never masks. Every row masks
the same count c >= 1 of frames, as ``teacher.draw_mask`` draws them, and
:func:`check_mask` refuses any other mask. A masked frame's projected
content is replaced by ``mask_embed``, so no feature content leaks
through, and the masked frames are the only outputs computed, since the
teacher's loss reads no other: ``_sel`` above is the masked rows. Only the
input projection, LayerNorm 1 and the keys and values of the attention
products (n1^T in scores and in attn n1) touch every frame, because every
frame is attended to. The attention rows are the masked frames' only:
``scores`` and ``attn`` are (B, c, M) and ``attn n1`` is (B, c, d), in
place of (B, M, M) and (B, M, d). The products with w_qk and w_vo,
LayerNorm 2 and the FFN run on the masked rows only, and the output is a
(B * c, model_dim) array in ``x[masked]`` order. The backward then takes
a gradient for those rows only, and its row products with d x d matrices
run on them too. Without a mask the same statements run over all rows
with c = M, nothing is replaced, and the output is (B, M, model_dim).

Frame means. :func:`encode_means` gives each video's mean output over its
frames, the teacher embedding the anchor graph is built on, from the
unmasked pass's body: mean(h1) + mean(g1) W_f2 + b_f2, which is the mean
of the outputs h1 + g1 W_f2 + b_f2 up to float summation order, with the
FFN's output product on one row per video instead of M.

Sizes. :func:`init_encoder` reads ``frames``, ``feat_dim``, ``model_dim``
and ``ffn_dim`` from a :class:`RunConfig`; ``ffn_dim = 0`` means
2 * ``model_dim``.

Parameters. A model's parameters are one flat dict (:class:`Params`) keyed
by checkpoint name: the encoder's ``encoder.*`` tensors, then the head's.
Both passes read the ``encoder.*`` keys, and ``mask_embed`` when masking;
the backward returns its gradients under the same keys (the attention
weights' as ``w_qk`` and ``w_vo``, above), for the head to add its own to.

Precision. Both passes compute in the dtype of the parameters and cast
their inputs to it; no dtype is fixed here. Trainers build parameters in
``np.result_type(features, np.float32)``: float32 for the float32 features
the feature files hold, float64 for float64 or int64 features, which is
what the finite-difference checks use. :func:`cast_params` casts an
initialization or a checkpoint to the features' dtype. Block sizes read the
parameters' itemsize, so float64 parameters run blocks half the float32
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .exceptions import ShapeError, StaleCacheError
from .numerics import block_slices

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_PREFIX = "encoder."


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Params(dict):
    """Tensors by checkpoint name. Trainers bump ``version`` after each
    in-place optimizer step, so that stale forward caches can be rejected."""

    version = 0


def init_encoder(cfg: RunConfig, rng: np.random.Generator) -> Params:
    """The encoder's tensors, under ``encoder.*`` keys; heads extend the dict."""
    m, d_in, d = cfg.frames, cfg.feat_dim, cfg.model_dim
    f = cfg.ffn_dim or 2 * d
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


def training_features(features) -> np.ndarray:
    """``features`` in the trainers' dtype, ``np.result_type(features,
    np.float32)`` (module docstring, Precision). Anything but a nonempty
    (N, M, D) array raises ValueError."""
    features = np.asarray(features)
    if features.ndim != 3 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty (N, M, D) array")
    return features.astype(np.result_type(features, np.float32), copy=False)


@dataclass
class EncoderCache:
    """Forward intermediates. ``x``, ``ln1`` and ``n1`` are flat, (B * M,
    width); ``mix`` (= attn n1) and the rows after attention (``ln2`` to
    ``g1``) are (B * c, width), and ``qk`` (= n1_sel w_qk) is (B, c,
    model_dim) and ``attn`` (B, c, M): c = M rows per video without a
    mask, and with one the c masked frames of each video (module
    docstring, Masked rows). ``products`` is the forward's (w_qk, w_vo),
    which the backward reuses (module docstring, Attention products)."""

    params: Params
    version: int
    x: np.ndarray
    products: tuple  # (w_qk, w_vo)
    masked: np.ndarray | None  # (B, M) bool, or None for an unmasked forward
    ln1: tuple
    n1: np.ndarray
    qk: np.ndarray
    attn: np.ndarray
    mix: np.ndarray
    ln2: tuple
    n2: np.ndarray
    f1_pre: np.ndarray
    gelu_t: np.ndarray
    g1: np.ndarray


def blocks(n: int, params, masked: np.ndarray | None = None) -> list[slice]:
    """``numerics.block_slices`` of ``range(n)``: runs of as many videos as
    fit ``numerics.BLOCK_BYTES`` at the largest row set a video holds, in
    elements of the parameters' dtype, and at least one (module docstring,
    Batches): its frames x max(feat_dim, model_dim), and its rows after
    attention x the FFN width, which are its frames without ``masked`` and
    the count c of :func:`check_mask` with the (n, M) bool ``masked``."""
    m_frames, d = params["encoder.e_pos"].shape
    w_in, w_f1 = params["encoder.w_in"], params["encoder.w_f1"]
    rows = m_frames if masked is None else check_mask(masked, (n, m_frames))
    per_video = max(m_frames * max(w_in.shape[0], d), rows * w_f1.shape[1])
    return block_slices(n, per_video * w_in.dtype.itemsize)


def _tensors(params) -> dict:
    """The ``encoder.*`` tensors of a parameter dict, by their short names."""
    return {name[len(_PREFIX):]: t for name, t in params.items() if name.startswith(_PREFIX)}


def _row_mean(x):
    """The (rows, 1) row means of a (rows, width) array, as its product with
    a column of 1/width (module docstring, Reductions)."""
    width = x.shape[1]
    return x @ np.full((width, 1), 1.0 / width, dtype=x.dtype)


def _col_sum(x):
    """The (width,) column sums of a (rows, width) array, as the product of
    a row of ones with it (module docstring, Reductions)."""
    return np.ones(len(x), dtype=x.dtype) @ x


# The four elementwise kernels below run in place on two or three (rows,
# width) buffers. Each comment gives the plain expression a kernel computes,
# with its means and sums taken by the two helpers above; the kernel keeps
# its operations and their order (a commuted operand of one + or * is the
# same IEEE result), so the two agree bit for bit.


def _ln_forward(x, gain, bias):
    # xhat = (x - mu) / sqrt(var + eps);  out = xhat * gain + bias
    mu = _row_mean(x)
    xhat = x - mu
    out = xhat * xhat
    var = _row_mean(out)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, (xhat, inv)


def _ln_backward(dy, gain, ln_cache):
    # dxhat = dy * gain;  dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    xhat, inv = ln_cache
    tmp = dy * xhat
    d_gain = _col_sum(tmp)
    d_bias = _col_sum(dy)
    dx = dy * gain
    m1 = _row_mean(dx)
    np.multiply(dx, xhat, out=tmp)
    m2 = _row_mean(tmp)
    dx -= m1
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx, d_gain, d_bias


def _gelu_forward(x):
    # t = tanh(C * (x + A * x^3));  out = 0.5 * x * (1 + t)
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def _gelu_backward(dy, x, t):
    # du = C * (1 + 3A * x^2);  dx = dy * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * du)
    du = (3.0 * _GELU_A) * x
    du *= x
    du += 1.0
    du *= _GELU_C
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    half_x = 0.5 * x
    half_x *= dx
    half_x *= du
    np.add(t, 1.0, out=dx)
    dx *= 0.5
    dx += half_x
    dx *= dy
    return dx


def check_mask(masked, shape: tuple) -> int:
    """The count c >= 1 of frames that every row of ``masked`` hides (module
    docstring, Masked rows). Raise ShapeError unless ``masked`` is a bool
    array of ``shape`` whose rows all hide the same c frames."""
    if not (isinstance(masked, np.ndarray) and masked.dtype == bool and masked.shape == shape):
        got = (masked.dtype, masked.shape) if isinstance(masked, np.ndarray) else type(masked)
        raise ShapeError(f"expected a bool mask of shape {shape}, got {got}")
    counts = masked.sum(axis=1)
    c = int(counts.max(initial=1))
    if not (counts == c).all():
        raise ShapeError("every row of a mask must hide the same count >= 1 of frames, "
                         f"got counts {np.unique(counts).tolist()}")
    return c


def attention_products(params) -> tuple[np.ndarray, np.ndarray]:
    """``(w_qk, w_vo)`` = (W_q W_k^T, W_v W_o), the two d x d products
    through which attention reads its four weights (module docstring,
    Attention products); :func:`forward_blocks` forms them once per pass."""
    p = _tensors(params)
    return p["w_q"] @ p["w_k"].T, p["w_v"] @ p["w_o"]


def forward_blocks(forward, x: np.ndarray, params: Params, masked=None, **options):
    """One pass of ``forward`` over the videos of ``x``, block by block
    (module docstring, Batches): yields ``(blk, forward(x[blk], params,
    products=products, **options))`` for each slice of
    ``blocks(len(x), params, masked)``, with the :func:`attention_products`
    formed once for the whole pass. ``forward`` is :func:`encode_forward`,
    :func:`encode_means` or a model's forward over the encoder. A masked
    pass's (N, M) bool ``masked`` also reaches ``forward``, as the block's
    rows of it after ``params``."""
    products = attention_products(params)
    for blk in blocks(len(x), params, masked):
        per_video = () if masked is None else (masked[blk],)
        yield blk, forward(x[blk], params, *per_video, products=products, **options)


def _encode(x: np.ndarray, params: Params, masked, products):
    """The block up to the FFN output product, shared by :func:`encode_forward`
    and :func:`encode_means`: ``(h1, g1, cache)``, the rows after attention
    and the FFN's GELU rows, both (B * M, width) without a mask and
    (B * c, width) with one."""
    p = _tensors(params)
    x = np.asarray(x, dtype=p["w_in"].dtype)
    m_frames, d_in = p["e_pos"].shape[0], p["w_in"].shape[0]
    if x.ndim != 3 or x.shape[1:] != (m_frames, d_in):
        raise ShapeError(f"expected features of shape (B, {m_frames}, {d_in}), got {x.shape}")
    b = x.shape[0]
    sel = slice(None)
    c = m_frames   # attention rows per video
    if masked is not None:
        c = check_mask(masked, (b, m_frames))
        if "mask_embed" not in params:
            raise ValueError("a mask needs the parameters' mask_embed; they have none")
        sel = masked.reshape(-1)
    if products is None:
        products = attention_products(params)
    w_qk, w_vo = products

    xf = x.reshape(b * m_frames, d_in)
    h0 = xf @ p["w_in"]
    h0 += p["b_in"]
    if masked is not None:
        h0[sel] = params["mask_embed"]
    d = h0.shape[1]
    positions = h0.reshape(b, m_frames, d)
    positions += p["e_pos"]

    # scores = (n1_sel w_qk) n1^T and h1 = (attn n1)_sel w_vo + h0_sel + b_o:
    # one d x d product per side, on the selected rows only (module
    # docstring, Attention products), and attention rows for them only
    # (Masked rows)
    n1, ln1 = _ln_forward(h0, p["ln1_g"], p["ln1_b"])
    frames = n1.reshape(b, m_frames, d)
    qk = (n1[sel] @ w_qk).reshape(b, c, d)
    scores = (qk @ frames.transpose(0, 2, 1)) / math.sqrt(d)
    scores -= scores.max(axis=2, keepdims=True)
    e = np.exp(scores)
    attn = e / (m_frames * _row_mean(e.reshape(-1, m_frames))).reshape(b, c, 1)
    mix = (attn @ frames).reshape(-1, d)
    h1 = mix @ w_vo
    h1 += h0[sel]
    h1 += p["b_o"]

    n2, ln2 = _ln_forward(h1, p["ln2_g"], p["ln2_b"])
    f1_pre = n2 @ p["w_f1"]
    f1_pre += p["b_f1"]
    g1, gelu_t = _gelu_forward(f1_pre)
    cache = EncoderCache(
        params=params, version=params.version, products=products, x=xf, masked=masked,
        ln1=ln1, n1=n1, qk=qk, attn=attn, mix=mix, ln2=ln2, n2=n2,
        f1_pre=f1_pre, gelu_t=gelu_t, g1=g1,
    )
    return h1, g1, cache


def encode_forward(
    x: np.ndarray, params: Params, masked: np.ndarray | None = None, products=None,
) -> tuple[np.ndarray, EncoderCache]:
    """Run the block on a batch (B, M, D); returns the per-frame outputs and
    the cache for :func:`encode_backward`.

    Without ``masked`` the outputs are (B, M, model_dim). ``masked`` is a
    (B, M) bool array that masks the same count c >= 1 of frames in every
    row (:func:`check_mask`): the masked frames' projected content is
    replaced by ``params["mask_embed"]`` before the positional rows are
    added, and only their outputs are computed, returned as a (B * c,
    model_dim) array in ``x[masked]`` order (module docstring, Masked
    rows). Attention still reads all M positions, through c x M products
    per video only. Only the ``encoder.*`` tensors of ``params`` are read,
    and ``mask_embed`` when masking. ``products`` is
    :func:`attention_products` of ``params``; without it the call forms
    them itself.
    """
    h1, g1, cache = _encode(x, params, masked, products)
    out = g1 @ params[_PREFIX + "w_f2"]
    out += h1
    out += params[_PREFIX + "b_f2"]
    return (out if masked is not None else out.reshape(len(cache.qk), -1, out.shape[1])), cache


def encode_means(x: np.ndarray, params: Params, products=None) -> np.ndarray:
    """Each video's frame mean of the unmasked :func:`encode_forward`
    outputs, (B, model_dim): mean(h1) + mean(g1) W_f2 + b_f2, so the FFN's
    output product runs on one row per video (module docstring, Frame
    means). ``products`` is as for :func:`encode_forward`."""
    h1, g1, cache = _encode(x, params, None, products)
    b = len(cache.qk)
    out = g1.reshape(b, -1, g1.shape[1]).mean(axis=1) @ params[_PREFIX + "w_f2"]
    out += h1.reshape(b, -1, h1.shape[1]).mean(axis=1)
    out += params[_PREFIX + "b_f2"]
    return out


def encode_backward(grad_out: np.ndarray, cache: EncoderCache) -> dict:
    """Gradients of a scalar loss w.r.t. the parameters, summed over the
    batch and keyed like them: ``encoder.w_in`` ... ``encoder.b_f2``, and
    ``mask_embed`` when the forward masked, except that ``encoder.w_qk``
    and ``encoder.w_vo`` stand for the four attention weights; sum them
    over blocks, then map them with :func:`factor_grads`.

    ``grad_out`` is the loss gradient w.r.t. the outputs of the forward:
    (B, M, model_dim), or (B * c, model_dim) when it masked. A gradient
    on a frame *mean* must be folded in by the caller (add grad_mean / M to
    every row).
    """
    version = cache.params.version
    if cache.version != version:
        raise StaleCacheError(
            f"cache from params version {cache.version}, params now at {version}"
        )
    p = _tensors(cache.params)
    b, c, d = cache.qk.shape
    m_frames = len(cache.n1) // b
    masked = cache.masked
    sel = slice(None) if masked is None else masked.reshape(-1)
    out_shape = (b, m_frames, d) if masked is None else cache.n2.shape
    grad_out = np.asarray(grad_out, dtype=p["w_in"].dtype)
    if grad_out.shape != out_shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != output shape {out_shape}")
    grad_out = grad_out.reshape(-1, d)

    # out = h1 + g1 @ w_f2 + b_f2, on the masked rows (every row unmasked)
    w_f2 = cache.g1.T @ grad_out
    b_f2 = _col_sum(grad_out)
    d_f1 = _gelu_backward(grad_out @ p["w_f2"].T, cache.f1_pre, cache.gelu_t)
    w_f1 = cache.n2.T @ d_f1
    b_f1 = _col_sum(d_f1)
    d_h1, ln2_g, ln2_b = _ln_backward(d_f1 @ p["w_f1"].T, p["ln2_g"], cache.ln2)
    d_h1 += grad_out

    # h1 = h0 + mix @ w_vo + b_o, on the selected rows
    w_qk, w_vo = cache.products
    g_vo = cache.mix.T @ d_h1
    b_o = _col_sum(d_h1)

    # mix = attn n1 and scores = (n1[sel] w_qk) n1^T / sqrt(d), c rows per video
    d_mix = (d_h1 @ w_vo.T).reshape(b, c, d)
    attn = cache.attn
    frames = cache.n1.reshape(b, m_frames, d)
    d_attn = d_mix @ frames.transpose(0, 2, 1)
    inner = (m_frames * _row_mean((d_attn * attn).reshape(-1, m_frames))).reshape(b, c, 1)
    d_scores = attn * (d_attn - inner)
    d_scores *= 1.0 / math.sqrt(d)
    d_qk = (d_scores @ frames).reshape(-1, d)
    g_qk = cache.n1[sel].T @ d_qk
    d_n1 = (d_scores.transpose(0, 2, 1) @ cache.qk).reshape(-1, d)
    d_n1 += (attn.transpose(0, 2, 1) @ d_mix).reshape(-1, d)
    d_n1[sel] += d_qk @ w_qk.T
    d_h0, ln1_g, ln1_b = _ln_backward(d_n1, p["ln1_g"], cache.ln1)
    d_h0[sel] += d_h1

    # h0 = (proj with masked rows replaced) + e_pos
    e_pos = _col_sum(d_h0.reshape(b, m_frames * d)).reshape(m_frames, d)
    extra = {}
    if masked is not None:
        extra["mask_embed"] = _col_sum(d_h0[sel])
        d_h0[sel] = 0.0
    w_in = cache.x.T @ d_h0
    b_in = _col_sum(d_h0)
    grads = dict(
        w_in=w_in, b_in=b_in, e_pos=e_pos, w_qk=g_qk, w_vo=g_vo, b_o=b_o,
        ln1_g=ln1_g, ln1_b=ln1_b, ln2_g=ln2_g, ln2_b=ln2_b,
        w_f1=w_f1, b_f1=b_f1, w_f2=w_f2, b_f2=b_f2,
    )
    return {**{_PREFIX + name: g for name, g in grads.items()}, **extra}


def factor_grads(grads: dict, params) -> dict:
    """``grads`` with the ``encoder.w_qk`` and ``encoder.w_vo`` gradients of
    :func:`encode_backward` (summed over any number of blocks) mapped onto
    the four attention weights, keyed and ordered like ``params``:

        dW_q = g_qk W_k,  dW_k = g_qk^T W_q,  dW_v = g_vo W_o^T,  dW_o = W_v^T g_vo

    The map is linear, so it runs once per summed gradient, not per block."""
    p = _tensors(params)
    g_qk, g_vo = grads[_PREFIX + "w_qk"], grads[_PREFIX + "w_vo"]
    factors = {"w_q": g_qk @ p["w_k"], "w_k": g_qk.T @ p["w_q"],
               "w_v": g_vo @ p["w_o"].T, "w_o": p["w_v"].T @ g_vo}
    merged = {**grads, **{_PREFIX + name: g for name, g in factors.items()}}
    return {name: merged[name] for name in params if name in merged}
