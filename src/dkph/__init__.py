"""Dual-stream knowledge-preserving hashing for video retrieval.

A from-scratch NumPy implementation: a teacher transformer trained on
masked-frame reconstruction, a Gaussian-adaptive anchor similarity graph
distilled from its embeddings, a dual-stream student whose hash head emits
one binary code per video while a temporal head absorbs reconstruction
detail, and a packed-bit Hamming retrieval/evaluation harness. Every
backward pass is hand-written and gated by finite-difference checks.
"""

from .codes import BinaryCode, pack_bits, unpack_bits
from .config import RunConfig
from .encoder import (
    Params,
    encode_backward,
    encode_forward,
    encode_means,
    factor_grads,
    forward_blocks,
    init_encoder,
)
from .graph import (
    AnchorSet,
    PairSample,
    SignedGraph,
    SparseAffinity,
    build_affinity,
    build_signed_graph,
    kmeans,
    sample_pairs,
)
from .numerics import GradCheckReport, finite_diff_check
from .pipeline import ablation_suite, run_pipeline
from .retrieval import CodeIndex, RankedList, evaluate, map_at_k, pr_curve, query_topk
from .student import init_student, student_forward, student_recon_loss, train_student
from .synth import generate_synthetic
from .teacher import (
    init_teacher,
    teacher_forward,
    teacher_recon_loss,
    train_teacher,
    video_code_from_frames,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "BinaryCode", "CodeIndex", "GradCheckReport", "PairSample", "Params",
    "RankedList", "RunConfig", "SignedGraph", "SparseAffinity", "ablation_suite",
    "build_affinity", "build_signed_graph", "encode_backward", "encode_forward",
    "encode_means", "evaluate", "factor_grads", "finite_diff_check", "forward_blocks",
    "generate_synthetic", "init_encoder", "init_student", "init_teacher", "kmeans", "map_at_k",
    "pack_bits", "pr_curve", "query_topk", "run_pipeline", "sample_pairs", "student_forward",
    "student_recon_loss", "teacher_forward", "teacher_recon_loss", "train_student",
    "train_teacher", "unpack_bits", "video_code_from_frames",
]
