"""Exception types shared across the package.

Each numerical stage raises a specific error so that callers (and the
command line driver) can distinguish usage problems, parameter-window
violations and genuine numerical failures.
"""

__all__ = [
    "WavemotilError",
    "SpeedBelowMinimal",
    "EtaUndefined",
    "WindowViolation",
    "CertificateFailed",
    "NonFiniteTail",
    "BlowUp",
    "NonMonotone",
    "NoConvergence",
    "PicardStalled",
    "NegativeDensity",
    "NonFiniteState",
    "NoCrossing",
    "InsufficientSamples",
    "WindowTooSmall",
    "NoRing",
    "ConfigError",
]


class WavemotilError(Exception):
    """Base class for all package-specific errors."""


class SpeedBelowMinimal(WavemotilError):
    """Requested wave speed lies below the minimal admissible speed 2*sqrt(a)."""


class EtaUndefined(WavemotilError):
    """The ceiling quadratic has no positive finite root for these parameters."""


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
    """A frozen-field rest-state solve, the relaxation march or Newton's
    method, left the invariant interval [0, 2*eta]."""


class NonMonotone(WavemotilError):
    """A frozen-field rest-state solve rose beyond the allowed slack: a
    march checkpoint above its predecessor, or an upward Newton correction."""


class NoConvergence(WavemotilError):
    """An iteration failed to reach its tolerance within its budget (a time
    horizon, an outer-iteration limit or a solver iteration cap)."""


class PicardStalled(WavemotilError):
    """Outer fixed-point iteration stopped contracting."""


class NegativeDensity(WavemotilError):
    """A density field dropped below the clipping tolerance."""


class NonFiniteState(WavemotilError):
    """A solve produced or met an unusable state: a NaN or infinite field in
    a time step, a failed LAPACK factorization or solve, a frame grid too
    coarse for the drift (h |A1| / 2 >= 1), a negative chemical field, or a
    linearization at coexistence whose entries overflow."""


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
