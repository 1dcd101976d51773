"""Flat key=value run configuration with a content hash.

:class:`RunConfig` is the one configuration type: the corpus generator,
the encoder, teacher and student, the graph stage and the optimizer all
read their hyperparameters from it, and its field defaults are the only
defaults of those values.

The file format is deliberately rigid: one ``key = value`` per line, blank
lines, comment lines whose first non-blank character is ``#``, and *unknown
keys are errors* - a silently ignored typo in a hyperparameter name is the
main reproducibility hazard. A ``#`` after a key is part of the value, so a
``work_dir`` that contains one saves and loads unchanged. Each malformed
line raises ConfigError naming ``source:line``.

``config_hash`` covers every hyperparameter (not the workspace paths), so
moving a work directory does not invalidate its artifacts.

Values are range-checked when a config is built: a value that would only
fail deep inside a stage (more anchors than training videos, say) raises
ConfigError naming its key, as does a non-finite float, a float or a bool
where an integer belongs, or a bool where a float belongs. A float key is
kept as a float, so ``learn_rate=1`` equals, hashes and saves as
``learn_rate=1.0``. ``code_bits`` is kept as a tuple of ints, whatever
sequence it was given as; a scalar or a string raises. ``work_dir`` must be
a nonempty string without a line break or leading or trailing whitespace,
which a saved config could not give back.

A config is frozen: assigning a field raises
``dataclasses.FrozenInstanceError``, so no value can skip the checks. Build
a changed config with ``dataclasses.replace``, which checks it again.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

from .exceptions import ConfigError
from .retrieval import MAP_KS

SPLIT_FRACTIONS = (0.5, 0.1)  # train, query; the rest is the database


@dataclass(frozen=True)
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
    lambda1: float = 2.0
    lambda2: float = 1.0
    # loss weights
    eta: float = 0.1            # hinge weight inside tsim
    beta: float = 1.0           # hinge margin of tsim
    gamma1: float = 0.11        # weight of the code-similarity loss (bsim)
    gamma2: float = 0.9         # weight of the embedding-alignment loss (tsim)
    # workspace paths (excluded from the config hash)
    work_dir: str = "work"

    UNHASHED = ("work_dir",)

    def split_sizes(self) -> tuple[int, int, int]:
        """(train, query, database) videos per class: round(f x videos_per_class)
        for each of SPLIT_FRACTIONS, and the rest for the database."""
        train, query = (int(round(f * self.videos_per_class)) for f in SPLIT_FRACTIONS)
        return train, query, self.videos_per_class - train - query

    def masked_frames(self) -> int:
        """Frames the teacher masks per video: max(1, round(mask_ratio x frames))."""
        return max(1, int(round(self.mask_ratio * self.frames)))

    def __post_init__(self):
        if not isinstance(self.work_dir, str) or not self.work_dir:
            raise ConfigError(f"work_dir = {self.work_dir!r}: must be a string and not empty")
        if self.work_dir.strip().splitlines() != [self.work_dir]:
            raise ConfigError(f"work_dir = {self.work_dir!r}: must have no line break "
                              "and no leading or trailing whitespace")
        if isinstance(self.code_bits, (str, bytes)) or not hasattr(self.code_bits, "__iter__"):
            raise ConfigError(f"code_bits = {self.code_bits!r}: "
                              "must be a sequence of integer widths")
        integers = {f.name: (getattr(self, f.name),) for f in fields(self) if f.type == "int"}
        # frozen: the normalised values are set through object.__setattr__
        object.__setattr__(self, "code_bits", tuple(self.code_bits))
        integers["code_bits"] = self.code_bits
        for key, values in integers.items():
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                       for v in values):
                raise ConfigError(f"{key} = {_format_value(getattr(self, key))}: "
                                  "must be integral, not a float or a bool")
        object.__setattr__(self, "code_bits", tuple(map(int, self.code_bits)))
        floats = [f.name for f in fields(self) if f.type == "float"]
        for key in floats:
            value = getattr(self, key)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{key} = {value!r}: must be a real number, not a bool")
            # an int is stored as its float, so that it hashes and saves as one
            object.__setattr__(self, key, float(value))
        per_class = self.split_sizes()
        n_train = self.num_classes * per_class[0]
        n_database = self.num_classes * per_class[2]
        positive = ("num_classes", "frames", "feat_dim", "model_dim", "teacher_bits",
                    "batch_size")
        non_negative = ("intra_class_noise", "temporal_drift", "ffn_dim", "teacher_epochs",
                        "student_epochs", "learn_rate", "eta", "beta",
                        "gamma1", "gamma2", "lambda1", "data_seed", "train_seed")
        checks = (
            *[(key, math.isfinite(getattr(self, key)), "must be finite") for key in floats],
            *[(key, getattr(self, key) >= 1, "must be >= 1") for key in positive],
            *[(key, getattr(self, key) >= 0, "must be >= 0") for key in non_negative],
            ("videos_per_class", min(per_class) >= 1,
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
            # the cloze teacher must see some frame's content in every video
            ("mask_ratio", 0.0 < self.mask_ratio < 1.0 and self.masked_frames() < self.frames,
             f"must lie strictly between 0 and 1 and leave one of {self.frames} frames unmasked"),
            # at 0 the negative band (mu - lambda2 * eps, mu) of every row is empty
            ("lambda2", self.lambda2 > 0, "must be > 0"),
        )
        for key, ok, why in checks:
            if not ok:
                raise ConfigError(f"{key} = {_format_value(getattr(self, key))}: {why}")

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
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as err:
            reason = getattr(err, "strerror", None) or err
            # an empty path reads the current directory; show it as ''
            raise ConfigError(f"cannot read config {str(path) or repr('')}: {reason}") from None
        return cls.from_text(text, source=str(path))

    @classmethod
    def from_text(cls, text: str, source: str = "<string>") -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
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


# the field types as strings, which ``from __future__ import annotations`` makes them
_PARSERS = {"int": int, "float": float, "str": str}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(key: str, val: str, ftype: str, source: str, lineno: int):
    try:
        if ftype == "tuple":
            return tuple(int(v) for v in val.split(",") if v.strip())
        return _PARSERS[ftype](val)
    except ValueError as err:
        raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {err}") from None
