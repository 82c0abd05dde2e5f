"""Exception types shared across the package.

Each numerical stage raises a specific error so that callers (and the
command line driver) can distinguish usage problems, parameter-window
violations and genuine numerical failures.
"""


class WavemotilError(Exception):
    """Base class for all package-specific errors."""


class SpeedBelowMinimal(WavemotilError):
    """Requested wave speed lies below the minimal admissible speed 2*sqrt(a)."""


class EtaUndefined(WavemotilError):
    """The ceiling quadratic has no real root for these parameters."""


class WindowViolation(WavemotilError):
    """Parameters lie outside the admissible (b, c) window for certification."""


class CertificateFailed(WavemotilError):
    """No plateau level delta made every certificate inequality hold."""

    def __init__(self, message: str, failing_check: str = "", delta: float = float("nan")):
        super().__init__(message)
        self.failing_check = failing_check
        self.delta = delta


class NonFiniteTail(WavemotilError):
    """A source term was passed without a usable tail description."""


class BlowUp(WavemotilError):
    """Auxiliary march left the invariant interval [0, 2*eta]."""


class NonMonotone(WavemotilError):
    """Auxiliary march violated monotone decrease beyond the allowed slack."""


class NoConvergence(WavemotilError):
    """Time marching failed to reach the increment tolerance before t_max."""


class PicardStalled(WavemotilError):
    """Outer fixed-point iteration stopped contracting."""


class NegativeDensity(WavemotilError):
    """A density field dropped below the clipping tolerance."""


class NonFiniteState(WavemotilError):
    """A time step produced a NaN or infinite density."""


class StabilityViolation(WavemotilError):
    """Requested time step exceeds the advective stability bound."""


class NoCrossing(WavemotilError):
    """Profile never crosses the requested level."""


class InsufficientSamples(WavemotilError):
    """Too few samples remain in the fit window."""


class WindowTooSmall(WavemotilError):
    """Tail fit window contains too few usable points."""


class NoRing(WavemotilError):
    """Azimuthally averaged profile never crosses the requested level."""


class ConfigError(WavemotilError):
    """Malformed configuration file or unknown key (usage error)."""
