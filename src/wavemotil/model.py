"""Model parameters and motility laws for the density-suppressed motility system.

The system couples a cell density u and a chemical concentration v through

    u_t = (gamma(v) u)_xx + u (a - b u),
    v_t = v_xx + u - v,

where the motility gamma is a positive, strictly decreasing function of v.
Three closed-form motility families are supported; each returns gamma and its
first two derivatives exactly, which downstream certificate computations rely
on.  The time stepper needs gamma alone, which each family's ``gamma``
method computes through the same expressions.  Arbitrary user callables
are deliberately not accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Union

import numpy as np

__all__ = [
    "PowerMotility",
    "ExponentialMotility",
    "SigmoidMotility",
    "MotilityFamily",
    "ModelParams",
]


def _as_checked_array(v):
    arr = np.asarray(v, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() < np.inf):
        raise ValueError("motility is only defined for finite v >= 0")
    return arr


def _maybe_scalar(scalar_input: bool, *arrays):
    if scalar_input:
        return tuple(float(a) for a in arrays)
    return arrays


class _Family:
    """Evaluation shared by the families: ``_terms`` yields gamma, gamma'
    and gamma'' in turn, so asking for gamma alone computes gamma alone."""

    def _first(self, v, count: int):
        terms = self._terms(_as_checked_array(v))
        return _maybe_scalar(np.isscalar(v), *islice(terms, count))

    def eval(self, v):
        """(gamma, gamma', gamma'') at v >= 0."""
        return self._first(v, 3)

    def gamma(self, v):
        """gamma at v >= 0, by the expression ``eval`` uses."""
        return self._first(v, 1)[0]


@dataclass(frozen=True)
class PowerMotility(_Family):
    """gamma(v) = (1 + v)^(-m) with m > 0.

    Bounds used throughout: 0 < gamma <= 1, -m < gamma' < 0 and
    0 < gamma'' <= m (m + 1) on v >= 0.
    """

    m: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("power exponent m must be positive")

    def _terms(self, arr):
        base = 1.0 + arr
        yield base ** (-self.m)
        yield -self.m * base ** (-(self.m + 1.0))
        yield self.m * (self.m + 1.0) * base ** (-(self.m + 2.0))


@dataclass(frozen=True)
class ExponentialMotility(_Family):
    """gamma(v) = exp(-chi v) with chi > 0."""

    chi: float

    def __post_init__(self):
        if not self.chi > 0:
            raise ValueError("exponential rate chi must be positive")

    def _terms(self, arr):
        g = np.exp(-self.chi * arr)
        yield g
        yield -self.chi * g
        yield self.chi**2 * g


@dataclass(frozen=True)
class SigmoidMotility(_Family):
    """gamma(v) = 1 - (v - v0) / sqrt(eps + (v - v0)^2) with eps > 0.

    A smoothed switch: gamma stays near 2 well below v0, near 0 well above
    it, and changes convexity at v = v0.
    """

    eps: float = 0.1
    v0: float = 1.0

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("smoothing parameter eps must be positive")

    def _terms(self, arr):
        w = arr - self.v0
        s = np.sqrt(self.eps + w**2)
        yield 1.0 - w / s
        yield -self.eps / s**3
        yield 3.0 * self.eps * w / s**5


MotilityFamily = Union[PowerMotility, ExponentialMotility, SigmoidMotility]


@dataclass(frozen=True)
class ModelParams:
    """Reaction rates and motility law.

    a is the intrinsic growth rate, b the intraspecific competition rate;
    both must be positive.  The coexistence state of the reaction part is
    (u, v) = (a/b, a/b), and a/b must be a positive finite float.
    """

    a: float
    b: float
    motility: MotilityFamily

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("both rates a and b must be positive")
        if not 0.0 < self.a / self.b < np.inf:
            raise ValueError(
                f"coexistence level a/b = {self.a / self.b!r} is not a positive finite float"
            )

    @property
    def equilibrium(self) -> float:
        return self.a / self.b

