"""End-to-end finite-difference verification of both training objectives.

The checks run the full losses in "relaxed" binarization mode, where
sign(tanh(z)) is replaced by tanh(z). In that mode the implemented backward
passes are the exact gradients, so central differences must agree to
~1e-4 in double precision. The sign layer itself is excluded by
construction: its true derivative is zero almost everywhere, and training
deliberately substitutes the straight-through estimator for it, so finite
differences can neither see it nor certify it. Everything else - encoder,
both heads, decoder, and all three loss terms - is covered.

Both checks run one fixed toy model, :data:`CHECK_CONFIG` (4 frames of 6
features, model width 8) with :data:`CHECK_BITS`-bit codes; the student's
batch holds :data:`CHECK_VIDEOS` videos. Only the seed and the difference
step vary.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .graph import build_affinity, build_signed_graph, kmeans, sample_pairs
from .numerics import GradCheckReport, finite_diff_check
from .student import batch_gradients, init_student
from .teacher import batch_gradients as teacher_batch_gradients
from .teacher import init_teacher

CHECK_BITS = 8  # the teacher's frame codes and the student's video codes
CHECK_CONFIG = RunConfig(frames=4, feat_dim=6, model_dim=8, teacher_bits=CHECK_BITS)
CHECK_VIDEOS = 6


def student_gradient_check(seed: int = 0, step: float = 1e-5) -> GradCheckReport:
    """Check d(recon + gamma1*bsim + gamma2*tsim)/d(theta) for every tensor.

    The pair set and anchor centers come from a real graph build over the
    toy features, then stay frozen while the parameters are swept.
    """
    cfg = CHECK_CONFIG
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(CHECK_VIDEOS, cfg.frames, cfg.feat_dim))
    params = init_student(cfg, rng, CHECK_BITS)

    # frozen supervision: anchors and signed pairs over the raw feature means
    points = features.mean(axis=1) @ rng.normal(size=(cfg.feat_dim, cfg.model_dim))
    anchor_set = kmeans(points, 3, seed=seed)
    z = build_affinity(points, anchor_set, p=2)
    graph = build_signed_graph(z, lambda1=0.5, lambda2=2.0)
    batch = np.arange(CHECK_VIDEOS)
    pairs = sample_pairs(graph, batch, count=CHECK_VIDEOS, seed=seed + 1)
    anchors = anchor_set.centers[anchor_set.assignments]

    def loss(_):
        losses, _g = batch_gradients(features, batch, pairs, params, cfg,
                                     anchors, binarize="relaxed")
        return losses["total"]

    _, grads = batch_gradients(features, batch, pairs, params, cfg,
                               anchors, binarize="relaxed")
    return finite_diff_check(loss, list(params.values()), [grads[n] for n in params], step=step)


def teacher_gradient_check(seed: int = 0, step: float = 1e-5) -> GradCheckReport:
    """Check the masked-reconstruction gradient for every teacher tensor, on
    a batch of two videos that mask two frames each at different positions:
    the first two frames of one, the first and last frames of the other.
    The loss and gradients are those ``train_teacher`` steps on
    (``teacher.batch_gradients``), so they run through the gather of masked
    rows, their attention rows per video and the factoring of the attention
    weights."""
    cfg = CHECK_CONFIG
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, cfg.frames, cfg.feat_dim))
    params = init_teacher(cfg, rng)
    mask = np.zeros((2, cfg.frames), dtype=bool)
    mask[0, [0, 1]] = True
    mask[1, [0, -1]] = True

    def loss(_):
        return teacher_batch_gradients(x, mask, params, binarize="relaxed")[0]

    _, grads = teacher_batch_gradients(x, mask, params, binarize="relaxed")
    return finite_diff_check(loss, list(params.values()), [grads[n] for n in params], step=step)
