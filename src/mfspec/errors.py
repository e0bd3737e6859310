"""Exception types raised by the estimators and the CLI."""

from __future__ import annotations


class MfspecError(Exception):
    """Base class for all package-specific errors."""


class EnumerationLimitError(MfspecError):
    """Requested word enumeration exceeds the word cap (2^24 words)."""

    def __init__(self, m: int, n: int, cap: int):
        self.m, self.n, self.cap = m, n, cap
        super().__init__(
            f"enumerating {m}^{n} words exceeds the cap of {cap} words; "
            f"lower the depth"
        )


class DegenerateCylinderError(MfspecError):
    """A cylinder interval collapsed to zero diameter in floating point."""

    def __init__(self, word):
        self.word = word
        super().__init__(f"cylinder of word {word} has zero diameter")


class InsufficientDepthError(MfspecError):
    """The geometric potential needs at least one suffix symbol."""


class NotContractingError(MfspecError):
    """Some cylinder diameter is >= 1; the Moran equation has no root yet."""


class NoCylindersError(MfspecError):
    """The word filter left no cylinders to cover with."""


class InfeasibleAlphaError(MfspecError):
    """alpha lies outside the achievable word-average range at this depth."""

    def __init__(self, alpha: float, achievable: tuple[float, float]):
        self.alpha = alpha
        self.achievable = achievable
        super().__init__(
            f"alpha={alpha:g} outside achievable depth-n range "
            f"[{achievable[0]:.6g}, {achievable[1]:.6g}]"
        )


class SolverError(MfspecError):
    """The fractional-programming solver failed to converge."""


class InvalidScheduleError(MfspecError):
    """Alternating-block schedule violates k_i * eps_i -> 0 monotonicity."""


class ConfigError(MfspecError):
    """A run configuration failed schema validation."""
