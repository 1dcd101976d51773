"""Flat key=value run configuration with a content hash.

The file format is deliberately rigid: one ``key = value`` per line, ``#``
comments, and *unknown keys are errors* - a silently ignored typo in a
hyperparameter name is the main reproducibility hazard.

``config_hash`` covers every hyperparameter (not the workspace paths), so
moving a work directory does not invalidate its artifacts.

Values are range-checked when a config is built: a value that would only
fail deep inside a stage (more anchors than training videos, say) raises
ConfigError naming its key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .encoder import EncoderConfig
from .exceptions import ConfigError
from .retrieval import MAP_KS
from .student import LossWeights
from .synth import SPLIT_FRACTIONS, SynthConfig


@dataclass
class RunConfig:
    # synthetic corpus
    num_classes: int = 10
    videos_per_class: int = 40
    frames: int = 25
    feat_dim: int = 64
    intra_class_noise: float = 0.3
    temporal_drift: float = 0.5
    data_seed: int = 0
    # model
    model_dim: int = 256
    ffn_dim: int = 0            # 0 = 2 * model_dim
    teacher_bits: int = 128
    code_bits: tuple = (16, 32, 64)
    # training
    teacher_epochs: int = 60
    student_epochs: int = 48
    batch_size: int = 256
    learn_rate: float = 5e-4
    mask_ratio: float = 0.15
    train_seed: int = 0
    # graph
    num_anchors: int = 40
    anchor_neighbors: int = 10  # p nearest centers kept per video
    bandwidth: float = 0.0      # 0 = mean distance to the p-th nearest center
    lambda1: float = 2.0
    lambda2: float = 1.0
    # loss weights
    eta: float = 0.1
    beta: float = 1.0
    gamma1: float = 0.11
    gamma2: float = 0.9
    # workspace paths (excluded from the config hash)
    work_dir: str = "work"

    UNHASHED = ("work_dir",)

    def __post_init__(self):
        per_class = [int(round(f * self.videos_per_class)) for f in SPLIT_FRACTIONS]
        n_train = self.num_classes * per_class[0]
        n_database = self.num_classes * (self.videos_per_class - sum(per_class))
        positive = ("num_classes", "frames", "feat_dim", "model_dim", "teacher_bits",
                    "batch_size")
        non_negative = ("intra_class_noise", "temporal_drift", "ffn_dim", "teacher_epochs",
                        "student_epochs", "learn_rate", "bandwidth", "eta", "beta",
                        "gamma1", "gamma2")
        checks = (
            *[(key, getattr(self, key) >= 1, "must be >= 1") for key in positive],
            *[(key, getattr(self, key) >= 0, "must be >= 0") for key in non_negative],
            ("videos_per_class", min(per_class) >= 1 and sum(per_class) < self.videos_per_class,
             "must give each class at least one train, query and database video"),
            ("videos_per_class", n_database >= min(MAP_KS),
             f"{n_database} database videos, fewer than the smallest mAP cutoff {min(MAP_KS)}"),
            ("num_anchors", self.num_anchors <= n_train,
             f"more anchors than the {n_train} training videos "
             f"(num_classes x round({SPLIT_FRACTIONS[0]} x videos_per_class))"),
            ("anchor_neighbors", 1 <= self.anchor_neighbors <= self.num_anchors,
             "must lie in [1, num_anchors]"),
            ("code_bits", 0 < len(set(self.code_bits)) == len(self.code_bits)
             and all(b > 0 for b in self.code_bits),
             "must be a nonempty list of distinct positive widths"),
            ("mask_ratio", 0.0 < self.mask_ratio < 1.0, "must lie strictly between 0 and 1"),
        )
        for key, ok, why in checks:
            if not ok:
                raise ConfigError(f"{key} = {_format_value(getattr(self, key))}: {why}")

    def loss_weights(self) -> LossWeights:
        return LossWeights(gamma1=self.gamma1, gamma2=self.gamma2, eta=self.eta,
                           beta=self.beta, learn_rate=self.learn_rate)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(frame_count=self.frames, input_dim=self.feat_dim,
                             model_dim=self.model_dim,
                             ffn_dim=self.ffn_dim if self.ffn_dim else None)

    def synth_config(self) -> SynthConfig:
        return SynthConfig(num_classes=self.num_classes,
                           videos_per_class=self.videos_per_class,
                           frames=self.frames, feat_dim=self.feat_dim,
                           intra_class_noise=self.intra_class_noise,
                           temporal_drift=self.temporal_drift, seed=self.data_seed)

    def canonical_text(self, include_paths: bool = True) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if not include_paths and f.name in self.UNHASHED:
                continue
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}\n")
        return "".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text(include_paths=False).encode()).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text(self.canonical_text())

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_text(Path(path).read_text(), source=str(path))

    @classmethod
    def from_text(cls, text: str, source: str = "<string>") -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            values[key] = _parse_value(key, val, known[key].type, source, lineno)
        return cls(**values)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(key: str, val: str, ftype, source: str, lineno: int):
    try:
        if ftype in ("int", int):
            return int(val)
        if ftype in ("float", float):
            return float(val)
        if ftype in ("str", str):
            return val
        if ftype in ("tuple", tuple):
            return tuple(int(v) for v in val.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {err}") from None
    raise ConfigError(f"{source}:{lineno}: unsupported field type for {key!r}")
