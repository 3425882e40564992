"""Exception types shared across the package."""


class PicardoptError(Exception):
    """Base class for all package errors."""


class ConfigError(PicardoptError):
    """Invalid or inconsistent run configuration. Carries the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class ArgumentError(ValueError):
    """A setting that cannot be used; ``argument`` names it, for ``config``."""

    def __init__(self, argument: str, message: str):
        self.argument = argument
        super().__init__(message)


class DimensionError(PicardoptError):
    """Vector lengths disagree and no schedule action explains the gap."""


class ScheduleError(PicardoptError):
    """A dimension-change action references an out-of-range point index."""


class ObjectiveError(PicardoptError):
    """Objective evaluation hit a degenerate configuration."""


class PoisonedDrift(PicardoptError):
    """A drift (or the state update it produced) came out non-finite."""

    def __init__(self, step: int, seed: int, detail: str = ""):
        self.step = step
        self.seed = seed
        msg = f"non-finite numerics at step {step} (seed {seed})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InternalConsistencyError(PicardoptError):
    """Telemetry invariants violated; indicates an engine bug, not user error."""
