"""Closed-form wave quantities: decay rates, admissible speed window, theta
functions and linearizations.

For the density-suppressed motility system with power-law motility
gamma(v) = (1+v)^(-m), a traveling front of speed c >= 2 sqrt(a) decays like
exp(-lambda x) ahead of the front, where lambda is the smaller root of
lambda^2 - c lambda + a = 0.  The chemical equation contributes the pair
lambda_1 < 0 < lambda_2, roots of lambda^2 + c lambda - 1 = 0, satisfying
lambda_1 lambda_2 = -1.

The admissible window of speeds is non-empty once the competition rate b
exceeds a threshold b_star(m, a); its right endpoint is c_star(a, b, m).
Certificates additionally use a slowly varying decay exponent theta_1(x),
obtained by solving phi(x)^(-m) theta^2 - c theta + a = 0 with
phi(x) = 1 + exp(-lambda x)/(1+a), together with a shifted companion
theta_2 = theta_1 + lambda/4 (minimal speed) or theta_1 + lambda/k0
(strictly supercritical speed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EtaUndefined, NonFiniteState, SpeedBelowMinimal, WindowViolation
from .model import ModelParams, PowerMotility

__all__ = [
    "WaveContext",
    "ThetaBundle",
    "LinearizationReport",
    "lambda_decay",
    "lambda12",
    "b_star",
    "c_star",
    "kappa",
    "speed_window",
    "in_speed_window",
    "theta_bundle",
    "linearize",
    "oscillation_condition",
    "leading_edge_speed",
]

_REL_TOL = 1e-12


def lambda_decay(c: float, a: float) -> float:
    """Smaller root of lambda^2 - c lambda + a = 0, the front decay rate.

    Real only for c >= 2 sqrt(a); slightly smaller c (within relative
    rounding tolerance) is clamped to the minimal speed.  Uses the
    cancellation-free form 2a / (c + sqrt(c^2 - 4a)).
    """
    if not a > 0:
        raise ValueError("growth rate a must be positive")
    c_min = 2.0 * math.sqrt(a)
    if c < c_min * (1.0 - _REL_TOL):
        raise SpeedBelowMinimal(f"speed c={c} below minimal speed 2*sqrt(a)={c_min}")
    disc = max(c * c - 4.0 * a, 0.0)
    return 2.0 * a / (c + math.sqrt(disc))


def lambda12(c: float) -> tuple[float, float]:
    """Roots lambda_1 < 0 < lambda_2 of lambda^2 + c lambda - 1 = 0.

    Their product is exactly -1 and their sum -c.  Both are computed in
    cancellation-free form.
    """
    s = math.hypot(c, 2.0)
    q = c + s if c >= 0.0 else 4.0 / (s - c)
    return -0.5 * q, 2.0 / q


def b_star(m: float, a: float) -> float:
    """Threshold competition rate above which the speed window is non-empty."""
    if not (m > 0 and a > 0):
        raise ValueError("m and a must be positive")
    return 3.0 * m * (1.0 + 2.0 * math.sqrt(a / (1.0 + a)) * (2.0 + math.sqrt(1.0 + 1.0 / m)))


def c_star(a: float, b: float, m: float) -> float:
    """Right endpoint of the admissible speed window [2 sqrt(a), c_star]."""
    if not (m > 0 and a > 0):
        raise ValueError("m and a must be positive")
    return (b - 3.0 * m) * math.sqrt(1.0 + a) / (3.0 * m) - 2.0 * math.sqrt(a) * (
        1.0 + math.sqrt(1.0 + 1.0 / m)
    )


def kappa(m: float, a: float) -> float:
    """Tail-limit constant; the wave settles at a/b on the left when < 1."""
    if not (m > 0 and a > 0):
        raise ValueError("m and a must be positive")
    r = math.sqrt(a * (1.0 + a) / (m * (m + 1.0)))
    try:
        return m * r * (r + 1.0) ** m
    except OverflowError:  # beyond every float
        return math.inf


@dataclass(frozen=True)
class WaveContext:
    """Derived quantities for one (params, c) pair with power-law motility.

    lam is the front decay rate and eta the plateau ceiling: the smaller
    root of

        m (m+1)/(1+a) eta^2 + m (1 + c/sqrt(1+a)) eta + a - b eta = 0.

    in_window records whether b >= b_star(m, a) and 2 sqrt(a) <= c <= c_star.
    """

    c: float
    a: float
    b: float
    m: float
    lam: float
    eta: float
    in_window: bool

    @property
    def c_min(self) -> float:
        return 2.0 * math.sqrt(self.a)

    @property
    def is_critical(self) -> bool:
        """True when c sits at the minimal speed (up to rounding)."""
        return self.c - self.c_min <= _REL_TOL * max(1.0, self.c_min)


def _eta_smaller_root(a: float, b: float, m: float, c: float) -> float:
    quad = m * (m + 1.0) / (1.0 + a)
    lin = m * (1.0 + c / math.sqrt(1.0 + a)) - b
    disc = lin * lin - 4.0 * quad * a
    if disc < 0.0:
        raise EtaUndefined(
            f"ceiling quadratic has no real root (a={a}, b={b}, m={m}, c={c})"
        )
    # smaller root via the product of roots; avoids cancellation.  With
    # lin >= 0 both roots are negative, and an overflowing lin^2 rounds the
    # root to 0: neither is a positive finite eta.
    denom = -lin + math.sqrt(disc)
    eta = 2.0 * a / denom if denom > 0.0 else math.nan
    if not 0.0 < eta < math.inf:
        raise EtaUndefined(
            f"ceiling quadratic has no positive finite root (a={a}, b={b}, m={m}, c={c})"
        )
    return eta


def speed_window(params: ModelParams, c: float) -> WaveContext:
    """Assemble the WaveContext for power-law motility at speed c.

    Raises SpeedBelowMinimal for c < 2 sqrt(a) and EtaUndefined when the
    ceiling quadratic has no positive finite root.  Membership of the (b, c)
    window is reported, not enforced.
    """
    if not isinstance(params.motility, PowerMotility):
        raise WindowViolation("speed window analysis requires the power motility family")
    a, b, m = params.a, params.b, params.motility.m
    lam = lambda_decay(c, a)
    eta = _eta_smaller_root(a, b, m, c)
    return WaveContext(
        c=float(c), a=a, b=b, m=m, lam=lam, eta=eta,
        in_window=in_speed_window(a, b, m, c),
    )


def in_speed_window(a: float, b: float, m: float, c: float) -> bool:
    """Whether b >= b_star(m, a) and 2 sqrt(a) <= c <= c_star(a, b, m), each
    up to a relative rounding tolerance."""
    c_max = c_star(a, b, m)
    return bool(
        b >= b_star(m, a) * (1.0 - _REL_TOL)
        and c >= 2.0 * math.sqrt(a) * (1.0 - _REL_TOL)
        and c <= c_max + _REL_TOL * max(1.0, abs(c_max))
    )


@dataclass(frozen=True)
class ThetaBundle:
    """Slowly varying decay exponents theta_1 < theta_2 and their envelopes.

    theta1(x) solves phi(x)^(-m) t^2 - c t + a = 0 (smaller root) with
    phi(x) = 1 + exp(-lambda x)/(1+a); it increases to lambda as x grows.
    theta2 = theta1 + shift with shift = lambda/4 at the minimal speed and
    lambda/k0 above it, where k0 = 1 + 2 max(2 lambda/(c - 2 lambda), 2).

    K1 bounds the derivative at minimal speed (0 < theta1' <= 2 K1
    exp(-lambda x / 2)), K2 above it (0 < theta1' <= 2 K2 exp(-lambda x)).
    All evaluators accept scalars or arrays and are safe far into the tail
    (computed through expm1/log1p in the small quantity exp(-lambda x)).
    """

    ctx: WaveContext
    K1: float
    K2: float
    k0: float
    shift: float
    is_critical: bool

    # -- internals -------------------------------------------------------
    def _pieces(self, x):
        """Return (t, log phi, rho) with t = e^{-lam x}/(1+a) and phi = 1 + t."""
        ctx = self.ctx
        x = np.asarray(x, dtype=float)
        t = np.exp(-ctx.lam * x) / (1.0 + ctx.a)
        log_phi = np.log1p(t)
        # 1 - phi^{-m}, accurate when t is tiny
        one_minus = -np.expm1(-ctx.m * log_phi)
        d0 = max(ctx.c * ctx.c - 4.0 * ctx.a, 0.0)
        rho = np.sqrt(d0 + 4.0 * ctx.a * one_minus)
        return t, log_phi, rho

    def _slope_pieces(self, x):
        """Return (t, rho, phi^{m+1}) for the derivative evaluators.

        Where t is below the smallest normal float, e^{-lambda x} has
        underflowed and the slopes take their t -> 0 limit, 0: t is set to 0
        there and rho, which vanishes with t at the minimal speed, to 1, so
        that no 0/0 or overflowing 1/rho^2 arises.
        """
        t, log_phi, rho = self._pieces(x)
        flat = t < np.finfo(float).tiny
        return (
            np.where(flat, 0.0, t),
            np.where(flat, 1.0, rho),
            np.exp((self.ctx.m + 1.0) * log_phi),
        )

    def theta1(self, x):
        ctx = self.ctx
        _, _, rho = self._pieces(x)
        out = 2.0 * ctx.a / (ctx.c + rho)
        return float(out) if np.isscalar(x) else out

    def dtheta1(self, x):
        ctx = self.ctx
        t, rho, phi_pow_m1 = self._slope_pieces(x)
        out = 4.0 * ctx.a**2 * ctx.m * ctx.lam * t / (rho * (ctx.c + rho) ** 2 * phi_pow_m1)
        return float(out) if np.isscalar(x) else out

    def d2theta1(self, x):
        ctx = self.ctx
        a, m, lam, c = ctx.a, ctx.m, ctx.lam, ctx.c
        t, rho, phi_pow_m1 = self._slope_pieces(x)
        phi = 1.0 + t
        # d/dphi of log(-h'(phi)) for h(phi) = 2a/(c + rho(phi))
        dlog = (
            -4.0 * a * m / (rho * (c + rho) * phi_pow_m1)
            - 2.0 * a * m / (rho**2 * phi_pow_m1)
            - (m + 1.0) / phi
        )
        out = (
            -4.0 * a**2 * m * lam**2 * t
            / (rho * (c + rho) ** 2 * phi_pow_m1)
            * (1.0 + dlog * t)
        )
        return float(out) if np.isscalar(x) else out

    def theta2(self, x):
        out = np.asarray(self.theta1(x)) + self.shift
        return float(out) if np.isscalar(x) else out


def theta_bundle(ctx: WaveContext) -> ThetaBundle:
    """Build the theta evaluators and envelope constants for a context."""
    a, c, m, lam = ctx.a, ctx.c, ctx.m, ctx.lam
    critical = ctx.is_critical
    K1 = 0.5 * a * math.sqrt(m / (1.0 + a))
    if critical:
        K2 = math.inf
        k0 = math.inf
        shift = lam / 4.0
    else:
        root = math.sqrt(c * c - 4.0 * a)
        K2 = 4.0 * a**2 * m * lam / ((c + root) ** 2 * root * (1.0 + a))
        k0 = 1.0 + 2.0 * max(2.0 * lam / (c - 2.0 * lam), 2.0)
        shift = lam / k0
    return ThetaBundle(ctx=ctx, K1=K1, K2=K2, k0=k0, shift=shift, is_critical=critical)


@dataclass(frozen=True)
class LinearizationReport:
    """Eigen-structure of the first-order traveling-wave system at a state.

    The wave profile (U, U', V, V') satisfies a 4x4 first-order system; its
    linearization at the trivial state (origin) or the coexistence state
    (a/b, a/b) governs monotone versus oscillatory approach.  spiral is only
    classified at the origin (complex pair from the U-block when
    c < 2 sqrt(gamma(0) a)).  hopf_omega is the frequency of a purely
    imaginary eigenvalue pair of the c = 0 problem at coexistence, when one
    exists.  residual is the largest |p(lambda)| / max(1, |lambda|)^4 over
    the eigenvalues lambda, with p the characteristic polynomial, and inf
    when p or an eigenvalue overflows.
    """

    at: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    char_poly: np.ndarray
    residual: float
    spiral: bool | None
    hopf_omega: float | None


def _char_residual(coeffs: np.ndarray, eigs: np.ndarray) -> float:
    """max |p(lambda)| / s^n with s = max(1, |lambda|), by Horner's rule in
    lambda / s, so no power of a large eigenvalue overflows."""
    if not (np.isfinite(coeffs).all() and np.isfinite(eigs).all()):
        return math.inf  # the polynomial overflows in floating point
    scale = np.maximum(1.0, np.abs(eigs))
    z = eigs / scale
    vals = np.zeros_like(eigs)
    weight = np.ones_like(scale)  # s^-k for the k-th coefficient
    for coeff in coeffs:
        vals = vals * z + coeff * weight
        weight = weight / scale
    return float(np.max(np.abs(vals)))


def _hopf_omega(a: float, b: float, sigma1: float, sigma2: float) -> float | None:
    """Real frequency omega with omega^4 - p omega^2 + q = 0, where
    p = a(b+s2)/(s1 b) + 1 and q = a/s1.

    p is scaled into [1/4, 1) by an even power of two first.  That is
    exact, so the result is that of the unscaled formula, but p^2 cannot
    overflow.
    """
    p = a * (b + sigma2) / (sigma1 * b) + 1.0
    q = a / sigma1
    if not p > 0.0:
        return None
    half = (math.frexp(p)[1] + 1) // 2
    p, q = math.ldexp(p, -2 * half), math.ldexp(q, -4 * half)
    disc = p * p - 4.0 * q
    if disc < 0.0:
        return None
    return math.ldexp(math.sqrt(0.5 * (p + math.sqrt(disc))), half)


def linearize(params: ModelParams, c: float, at: str = "origin") -> LinearizationReport:
    """Linearize the traveling-wave system at 'origin' or 'coexistence'.

    Raises NonFiniteState at coexistence when gamma(a/b) is so small that
    the matrix cannot be formed in floating point.
    """
    a, b = params.a, params.b
    if at == "origin":
        g0 = params.motility.gamma(0.0)
        matrix = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-a / g0, -c / g0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-1.0, 0.0, 1.0, -c],
            ]
        )
        spiral = c < 2.0 * math.sqrt(g0 * a) * (1.0 - _REL_TOL)
        hopf = None
    elif at == "coexistence":
        # gamma and gamma' alone: gamma'' can be inf * 0 where they are not
        s1, s2 = params.motility._first(params.equilibrium, 2)
        if s1 * b > 0.0:
            matrix = np.array(
                [
                    [0.0, 1.0, 0.0, 0.0],
                    [
                        a * (b + s2) / (s1 * b),
                        -c / s1,
                        -a * s2 / (b * s1),
                        a * s2 * c / (b * s1),
                    ],
                    [0.0, 0.0, 0.0, 1.0],
                    [-1.0, 0.0, 1.0, -c],
                ]
            )
        if not (s1 * b > 0.0 and np.isfinite(matrix).all()):
            raise NonFiniteState(
                f"gamma(a/b) = {s1:.3g}: the linearization at coexistence "
                "overflows in floating point"
            )
        spiral = None
        hopf = _hopf_omega(a, b, s1, s2)
    else:
        raise ValueError("at must be 'origin' or 'coexistence'")
    eigs = np.linalg.eigvals(matrix)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    matrix.setflags(write=False)
    eigs.setflags(write=False)
    coeffs = np.poly(matrix)
    coeffs.setflags(write=False)
    return LinearizationReport(
        at=at,
        matrix=matrix,
        eigenvalues=eigs,
        char_poly=coeffs,
        residual=_char_residual(coeffs, eigs),
        spiral=spiral,
        hopf_omega=hopf,
    )


def oscillation_condition(params: ModelParams) -> tuple[bool, float, float]:
    """Condition for a purely imaginary eigenvalue pair at coexistence (c = 0).

    Returns (holds, lhs, rhs) with the condition lhs < rhs.  For the power
    family this is sqrt(m) < sqrt((1+t)/t) |sqrt(a (1+t)^m) - 1| with
    t = a/b; in general |gamma'(a/b)| < (b/a) gamma(a/b)
    (sqrt(a/gamma(a/b)) - 1)^2.
    """
    a, b = params.a, params.b
    if isinstance(params.motility, PowerMotility):
        m = params.motility.m
        t = a / b
        lhs = math.sqrt(m)
        try:  # sqrt(a (1+t)^m) in log space
            root = math.exp(0.5 * (math.log(a) + m * math.log1p(t)))
        except OverflowError:  # beyond every float, and so is rhs
            root = math.inf
        rhs = math.sqrt((1.0 + t) / t) * abs(root - 1.0)
    else:
        eq = params.equilibrium
        s1, s2, _ = params.motility.eval(eq)
        lhs = abs(s2)
        # gamma (sqrt(a/gamma) - 1)^2 without the division, which fails
        # where gamma(a/b) underflows to 0
        rhs = (b / a) * (math.sqrt(a) - math.sqrt(s1)) ** 2
    return lhs < rhs, lhs, rhs


def leading_edge_speed(lambda0: float, a: float, gamma0: float = 1.0) -> float:
    """Asymptotic front speed selected by an initial tail exp(-lambda0 x).

    A tail flatter than the dispersion minimizer sqrt(a / gamma0) keeps its
    own speed gamma0 lambda0 + a / lambda0; a steeper one is overtaken by
    the pulled front at the minimal speed 2 sqrt(gamma0 a) (van Saarloos,
    Phys. Rep. 386 (2003)).
    """
    if not lambda0 > 0:
        raise ValueError("decay rate lambda0 must be positive")
    if lambda0 < math.sqrt(a / gamma0):
        return gamma0 * lambda0 + a / lambda0
    return 2.0 * math.sqrt(gamma0 * a)
