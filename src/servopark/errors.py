"""Exception taxonomy shared by every module in the package, and the finiteness check."""

from math import isfinite


class ServoparkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(ServoparkError):
    """A parameter violates its stated constraint (sign, range, or count)."""


class ZeroAnchorDepth(ServoparkError):
    """The anchor feature height is zero, so the error scaling is undefined."""


class DegenerateFeature(ServoparkError):
    """A feature's vertical normalized coordinate is too close to zero to divide by."""


class InsufficientFeatures(ServoparkError):
    """Fewer matched features than the estimator needs."""


class DegenerateGeometry(ServoparkError):
    """The feature configuration leaves the pose unobservable."""


class NumericalFailure(ServoparkError):
    """Iterative refinement failed to reach its required tolerance."""


class EstimatorStarvation(ServoparkError):
    """A closed-loop run went too long without a usable pose estimate.

    ``log`` is the run's trajectory log up to and including the aborting
    step, and ``summary`` is ``summarize(log, scenario)``, as for any run.
    """

    def __init__(self, message: str, log, summary) -> None:
        super().__init__(message)
        self.log = log
        self.summary = summary

    def __reduce__(self):  # pickle and copy rebuild it with its log and summary
        return type(self), (str(self), self.log, self.summary)


class EmptyLog(ServoparkError):
    """A summary was requested for an empty trajectory log."""


class ConfigError(ServoparkError):
    """Malformed scenario file or command-line configuration."""


def require_finite(message: str, *values: float) -> None:
    """Raise InvalidParams(message) unless every value is finite.

    An ``int`` beyond the float range counts as not finite, where
    ``isfinite`` alone would raise ``OverflowError``.
    """
    for value in values:
        try:
            if isfinite(value):
                continue
        except OverflowError:
            pass
        raise InvalidParams(message)
