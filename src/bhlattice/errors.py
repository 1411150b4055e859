"""Exception types, and the value tests of the config checks, shared
across the package."""

import numbers


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class BhLatticeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BhLatticeError):
    """Invalid experiment or solver configuration."""


class StepTooLarge(ConfigError):
    """Raised when the requested time step exceeds the contraction-safe cap;
    a configuration error, so the command line exits 2 for it."""


class DissipativityViolation(BhLatticeError):
    """Raised when the damping coefficient does not exceed the dissipativity
    threshold, so none of the contraction/absorption guarantees apply."""


class NoConvergence(BhLatticeError):
    """Fixed-point solve failed to reach the residual tolerance."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"fixed-point iteration did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class NonFinite(BhLatticeError):
    """A state component overflowed or became NaN during integration."""


class NotStabilized(BhLatticeError):
    """Cloud evolution exhausted its round budget before stabilizing.

    The last cloud is attached so callers can still inspect it.
    """

    def __init__(self, last_distance, cloud):
        self.last_distance = last_distance
        self.cloud = cloud
        super().__init__(
            f"cloud not stabilized: last inter-round distance {last_distance:.3e}"
        )


class SpaceMismatch(BhLatticeError):
    """Point clouds live in different spaces and cannot be compared directly."""


class HorizonTooShort(BhLatticeError):
    """The sampled noise path does not reach far enough into the past for the
    requested quadrature tolerance."""
