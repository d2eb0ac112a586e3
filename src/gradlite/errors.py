"""Exception types shared across the package."""


class GradLiteError(Exception):
    """Base class for all package errors."""


class DimError(GradLiteError):
    """Operands have incompatible shapes."""


class RankError(GradLiteError):
    """Requested rank is outside 1..min(m, d)."""


class NumError(GradLiteError):
    """Non-finite values where finite ones are required."""


class SpdError(GradLiteError):
    """Matrix is not symmetric positive definite."""


class DataError(GradLiteError):
    """Dataset contents violate a problem's preconditions."""


class ConfigError(GradLiteError):
    """Invalid run or optimizer configuration."""


class DivergedError(GradLiteError):
    """An iterate became non-finite or exceeded the magnitude cap.

    `run`, when given, names the run of several that diverged.
    """

    def __init__(self, step: int, what: str = "theta", run: str | None = None):
        self.step = step
        self.what = what
        self.run = run
        where = f"{run}: " if run else ""
        super().__init__(f"{where}diverged at step {step}: non-finite or oversized {what}")


class EmptyRunError(GradLiteError):
    """Averaging requested before any step has been taken."""


class NonPositiveGapError(GradLiteError):
    """Rate fitting needs a problem whose optimal loss is known."""
