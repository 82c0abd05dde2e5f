"""Numerical toolkit for the density-suppressed motility reaction-diffusion
system: closed-form wave quantities, super/sub-solution certificates, a
constructive traveling-wave solver and 1-D/2-D pattern experiments."""

from . import analysis, certificates, errors, frontmetrics, model, pde, waveode
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .analysis import *  # noqa: F403
from .certificates import *  # noqa: F403
from .waveode import *  # noqa: F403
from .frontmetrics import *  # noqa: F403
from .pde import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = [
    name
    for module in (errors, model, analysis, certificates, waveode, frontmetrics, pde)
    for name in module.__all__
] + ["__version__"]
