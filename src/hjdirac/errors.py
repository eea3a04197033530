"""Error types shared across the package.

Every guard that a caller can trip deliberately gets its own class so that
callers (and the CLI) can distinguish bad input (usage) from failed checks.
"""


class HJDiracError(Exception):
    """Base class for all package errors."""


class UsageError(HJDiracError):
    """Malformed configuration or arguments (CLI exit code 2)."""


class NullVector(HJDiracError):
    """Minkowski square |v.v| within the null tolerance; spectral pairing degenerates."""


class BadSignature(HJDiracError):
    """Metric eigenvalue signs are not (+, -, ..., -) at the sampled point."""


class SingularMetric(HJDiracError):
    """Metric matrix numerically singular (condition number above guard);
    point is the flat index of the point it names in a stack of points, 0
    for a single point."""

    def __init__(self, message, point=0):
        super().__init__(message)
        self.point = point


class SingularJacobian(HJDiracError):
    """Chart Jacobian numerically singular at the sampled point."""


class NonTimelikeSeparation(HJDiracError):
    """Separation from the base point is null or spacelike; no real proper time."""


class OffShell(HJDiracError):
    """Momentum violates p.p = m0^2 beyond tolerance."""


class StepRejected(HJDiracError):
    """Integrator produced a non-finite state component."""


class TooLarge(HJDiracError):
    """Occupation enumeration bounds exceeded."""


class DegeneratePartition(HJDiracError):
    """Partition sum underflowed to zero or overflowed; probabilities undefined."""


class DegenerateData(HJDiracError):
    """Data set carries no usable information (e.g. fewer than two samples)."""
