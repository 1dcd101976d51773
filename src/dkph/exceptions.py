"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DeterminismError(RuntimeError):
    """A function that must be deterministic returned different values."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss). Carries the epoch index."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class StaleCacheError(RuntimeError):
    """A backward pass was given a cache from a superseded forward pass."""


class DegenerateAnchorError(RuntimeError):
    """An anchor center has zero total affinity mass. Carries the center index."""

    def __init__(self, center: int):
        super().__init__(f"anchor center {center} has zero total affinity mass")
        self.center = center


class SamplingError(RuntimeError):
    """Pair sampling found no usable positive or negative edges in the batch."""


class ConfigError(ValueError):
    """Malformed configuration file or unknown configuration key."""


class PipelineError(RuntimeError):
    """A pipeline stage failed. Carries the stage name."""

    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
