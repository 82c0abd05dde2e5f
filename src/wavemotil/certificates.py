"""Super/sub-solution certificates for the frozen-chemical elliptic operator.

The operator under certification is

    L(U) = gamma(V) U'' + (2 gamma'(V) V' + c) U'
           + (gamma''(V) (V')^2 + gamma'(V) (V - U - c V') + a) U - b U^2,

where V solves V'' + c V' + u - V = 0 for a source u between the candidate
sub- and super-solutions.  The super-solution is min{e^{-lambda x}, eta}; the
sub-solution is a plateau delta glued at x_delta to the two-rate tail
d_n e^{-theta1(x) x} + d0 e^{-theta2(x) x}.  All sign checks are evaluated
with the worst-case envelopes of V and V' over the whole sandwich class, so a
passing report certifies every admissible source at once, not one sample.

The plateau height delta is found by adaptive halving: each candidate fixes
the junction x_delta (rightmost root of the matching equation: the rightmost
sign-change cell of a scan, resampled and narrowed until it is narrower than
1e-12 + 4 eps |x|) and all margins are re-evaluated on a dense grid around
it.  The halving range, the grid size and the two slacks are module
constants.

Every check is a ``CheckRecord`` built from per-point margins by one rule:
the worst point is kept and the check passes iff margin > -slack, so a NaN
margin fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    ThetaBundle,
    WaveContext,
    b_star,
    lambda12,
    speed_window,
    theta_bundle,
)
from .errors import CertificateFailed, NonFiniteTail, WindowViolation
from .model import ModelParams, PowerMotility, motility_eval

__all__ = [
    "SubSolutionSpec",
    "VSolution",
    "CheckRecord",
    "CertificateReport",
    "super_solution",
    "sub_solution",
    "locate_junction",
    "solve_v",
    "residual_l",
    "certify_pair",
]

_MATCHING_TOL = 1e-10
# junction root: absolute and relative width of the final bracket, and the
# samples each refinement of the bracket takes
_ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_REFINE_POINTS = 33
# plateau heights tried by halving, from the start down to the floor
_DELTA_START = 1e-2
_DELTA_FLOOR = 1e-18
# points of the margin grid around the junction and of the chemical solve
_GRID_POINTS = 40_000
# slack of the analytic sign checks and relative slack of the V envelopes
_MARGIN_SLACK = 1e-12
_V_REL_SLACK = 1e-5


@dataclass(frozen=True)
class SubSolutionSpec:
    """Parameters of one glued sub-solution candidate.

    d_n = 1 - 1/n scales the slow-rate part of the tail; d0 is +1 at the
    minimal speed and -1 above it; delta is the plateau height and x_delta
    the junction where the tail formula equals delta.
    """

    n: int
    d_n: float
    d0: float
    delta: float
    x_delta: float

    def __post_init__(self):
        if not (self.n >= 2):
            raise ValueError("index n must be at least 2")
        if not (0.0 < self.d_n < 1.0):
            raise ValueError("amplitude d_n must lie in (0, 1)")
        if self.d0 not in (-1.0, 1.0):
            raise ValueError("d0 must be +1 or -1")
        if not (self.delta > 0.0):
            raise ValueError("plateau height delta must be positive")
        if not (self.x_delta > 0.0):
            raise ValueError("junction x_delta must be positive")


@dataclass(frozen=True)
class VSolution:
    """Chemical field V and derivative V' on a uniform grid, at speed c."""

    grid: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    c: float


@dataclass(frozen=True)
class CheckRecord:
    """One sign check: pass iff margin > -slack, so a NaN margin fails
    (margin counts into the required side; location is the grid point
    attaining the worst margin)."""

    name: str
    margin: float
    location: float
    slack: float
    passed: bool

    @classmethod
    def worst_of(cls, name: str, margins, locations, slack: float = 0.0) -> CheckRecord:
        """Keep the worst of per-point margins (scalars count as one point)."""
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        locations = np.atleast_1d(np.asarray(locations, dtype=float))
        i = int(np.argmin(margins))
        margin = float(margins[i])
        return cls(name, margin, float(locations[i]), slack, bool(margin > -slack))

    def to_dict(self) -> dict:
        def _clean(value: float):
            return None if math.isnan(value) else value

        return {
            "name": self.name,
            "margin": _clean(self.margin),
            "location": _clean(self.location),
            "slack": self.slack,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of certify_pair: accepted plateau, junction and all margins."""

    a: float
    b: float
    m: float
    c: float
    n: int
    d_n: float
    d0: float
    delta: float
    x_delta: float
    sign_changes: int
    grid_lo: float
    grid_hi: float
    grid_points: int
    passed: bool
    checks: tuple[CheckRecord, ...]

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "m": self.m,
            "c": self.c,
            "n": self.n,
            "d_n": self.d_n,
            "d0": self.d0,
            "delta": self.delta,
            "x_delta": self.x_delta,
            "sign_changes": self.sign_changes,
            "grid_lo": self.grid_lo,
            "grid_hi": self.grid_hi,
            "grid_points": self.grid_points,
            "passed": self.passed,
            "checks": [ch.to_dict() for ch in self.checks],
        }


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------
def super_solution(ctx: WaveContext, x):
    """min{e^{-lambda x}, eta}: exponential ahead of the knee, flat behind."""
    xa = np.asarray(x, dtype=float)
    out = np.exp(np.minimum(-ctx.lam * xa, math.log(ctx.eta)))
    return float(out) if np.ndim(x) == 0 else out


def _tail(bundle: ThetaBundle, d_n: float, d0: float, x):
    """Two-rate tail d_n e^{-theta1(x) x} + d0 e^{-theta2(x) x} at x."""
    th1 = np.asarray(bundle.theta1(x))
    return d_n * np.exp(-th1 * x) + d0 * np.exp(-(th1 + bundle.shift) * x)


def sub_solution(ctx: WaveContext, bundle: ThetaBundle, spec: SubSolutionSpec, x):
    """Plateau delta for x <= x_delta, two-rate tail beyond it."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xa.shape, spec.delta, dtype=float)
    mask = xa > spec.x_delta
    if np.any(mask):
        out[mask] = _tail(bundle, spec.d_n, spec.d0, xa[mask])
    return float(out[0]) if np.ndim(x) == 0 else out


def locate_junction(
    bundle: ThetaBundle, d_n: float, d0: float, delta: float
) -> tuple[float, int]:
    """Rightmost root of d_n e^{-theta1 x} + d0 e^{-theta2 x} = delta.

    Returns (x_delta, sign_change_count), the count taken on a 4097-point
    scan of [0, x_max].  With d0 = -1 the matching function typically
    changes sign twice (it starts negative, rises, then decays); the
    rightmost root lies on the decreasing branch, which is the one the
    plateau must glue to.  The rightmost sign-change cell of the scan is
    resampled on _REFINE_POINTS points and narrowed to its rightmost
    sign-change cell until it is narrower than 1e-12 + 4 eps |x|; x_delta
    is its midpoint.  Raises CertificateFailed when the scan finds no sign
    change, which simply means this plateau height is too large.
    """
    if not delta > 0.0:
        raise ValueError("plateau height delta must be positive")
    lam = bundle.ctx.lam
    x_max = 10.0 / lam * (1.0 + abs(math.log(delta)))
    xs = np.linspace(0.0, x_max, 4097)
    sign = np.sign(_tail(bundle, d_n, d0, xs) - delta)
    brackets = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    if len(brackets) == 0:
        raise CertificateFailed(
            f"matching equation has no root for plateau height {delta!r}",
            failing_check="junction_matching",
            delta=delta,
        )
    i = int(brackets[-1])
    lo, hi, right = xs[i], xs[i + 1], sign[i + 1]
    while hi - lo >= _ROOT_XTOL + _ROOT_RTOL * hi:
        xs = np.linspace(lo, hi, _REFINE_POINTS)
        sign = np.sign(_tail(bundle, d_n, d0, xs) - delta)
        # the left end is a root or has the other sign, so j exists and the
        # new cell still holds a root
        j = int(np.nonzero(sign != right)[0][-1])
        lo, hi = xs[j], xs[j + 1]
    return float(0.5 * (lo + hi)), int(len(brackets))


# ---------------------------------------------------------------------------
# chemical field
# ---------------------------------------------------------------------------
def solve_v(
    grid,
    u,
    c: float,
    *,
    u_left: float | None = None,
    tail_amplitude: float | None = None,
    tail_rate: float | None = None,
) -> VSolution:
    """Solve V'' + c V' + u - V = 0 on the whole line by the integral kernel.

    The source is the sampled u on the uniform grid, extended by u == u_left
    for x < grid[0] and u == tail_amplitude * e^{-tail_rate x} for
    x > grid[-1].  The two one-sided integrals are accumulated by marching
    composite-Simpson recurrences (the exponential kernel factors out of each
    panel), seeded by the closed-form tail integrals; V' comes from the
    differentiated kernel, so no numerical differentiation is involved.
    """
    grid = np.asarray(grid, dtype=float)
    u = np.asarray(u, dtype=float)
    if grid.ndim != 1 or grid.shape != u.shape:
        raise ValueError("grid and u must be 1-D arrays of equal length")
    if grid.size < 5:
        raise ValueError("need at least 5 samples")
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniformly spaced")
    for name, value in (("u_left", u_left), ("tail_amplitude", tail_amplitude),
                        ("tail_rate", tail_rate)):
        if value is None or not math.isfinite(value):
            raise NonFiniteTail(f"tail description incomplete: {name}={value!r}")
    if not np.all(np.isfinite(u)):
        raise NonFiniteTail("source samples must be finite")

    lam1, lam2 = lambda12(c)
    if lam2 + tail_rate <= 0.0:
        raise NonFiniteTail(
            f"right tail e^(-{tail_rate!r} x) decays too slowly for the kernel rate {lam2!r}"
        )

    n = grid.size
    # leftward integral: I1(x) = int_{-inf}^{x} e^{lam1 (x - s)} u(s) ds
    e1 = math.exp(lam1 * h)
    e1sq = e1 * e1
    e1inv = math.exp(-lam1 * h)
    i1 = np.empty(n)
    i1[0] = u_left / (-lam1)
    i1[1] = e1 * i1[0] + (h / 12.0) * (5.0 * e1 * u[0] + 8.0 * u[1] - e1inv * u[2])
    for k in range(2, n):
        i1[k] = e1sq * i1[k - 2] + (h / 3.0) * (
            e1sq * u[k - 2] + 4.0 * e1 * u[k - 1] + u[k]
        )

    # rightward integral: I2(x) = int_{x}^{+inf} e^{lam2 (x - s)} u(s) ds
    e2 = math.exp(-lam2 * h)
    e2sq = e2 * e2
    e2inv = math.exp(lam2 * h)
    i2 = np.empty(n)
    i2[n - 1] = tail_amplitude * math.exp(-tail_rate * grid[n - 1]) / (lam2 + tail_rate)
    i2[n - 2] = e2 * i2[n - 1] + (h / 12.0) * (
        -e2inv * u[n - 3] + 8.0 * u[n - 2] + 5.0 * e2 * u[n - 1]
    )
    for k in range(n - 3, -1, -1):
        i2[k] = e2sq * i2[k + 2] + (h / 3.0) * (
            u[k] + 4.0 * e2 * u[k + 1] + e2sq * u[k + 2]
        )

    denom = lam2 - lam1
    values = (i1 + i2) / denom
    dvalues = (lam1 * i1 + lam2 * i2) / denom
    for arr in (values, dvalues):
        arr.setflags(write=False)
    out_grid = grid.copy()
    out_grid.setflags(write=False)
    return VSolution(grid=out_grid, values=values, dvalues=dvalues, c=float(c))


def residual_l(U, Up, Upp, V, Vp, params: ModelParams, c: float):
    """Evaluate L(U) pointwise from values and derivatives of U and V."""
    g, gp, gpp = motility_eval(params.motility, V)
    return (
        g * Upp
        + (2.0 * gp * Vp + c) * Up
        + (gpp * np.asarray(Vp) ** 2 + gp * (V - U - c * Vp) + params.a) * U
        - params.b * np.asarray(U) ** 2
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------
def _caps(ctx: WaveContext, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case envelopes of V and |V'| over the sandwich class."""
    log_eta = math.log(ctx.eta)
    v_cap = np.exp(np.minimum(-ctx.lam * x - math.log1p(ctx.a), log_eta))
    dv_cap = np.exp(np.minimum(-ctx.lam * x, log_eta)) / math.sqrt(1.0 + ctx.a)
    return v_cap, dv_cap


def _analytic_checks(
    ctx: WaveContext,
    tb: ThetaBundle,
    n: int,
    d_n: float,
    d0: float,
    delta: float,
    x_delta: float,
    grid: np.ndarray,
) -> list[CheckRecord]:
    a, b, m, c, lam, eta = ctx.a, ctx.b, ctx.m, ctx.c, ctx.lam, ctx.eta
    sqa = math.sqrt(a)
    r1a = math.sqrt(1.0 + a)
    slack = _MARGIN_SLACK
    checks: list[CheckRecord] = []

    def record(name, margins, locations, use_slack):
        checks.append(CheckRecord.worst_of(name, margins, locations, use_slack))

    # L at the flat branch of the super-solution: the worst-case chain
    # collapses to the defining quadratic of eta, which vanishes identically.
    quad = m * (m + 1.0) / (1.0 + a)
    lin = m * (1.0 + c / r1a) - b
    record("super_plateau_branch", -(quad * eta * eta + lin * eta + a) * eta,
           math.nan, slack)

    # L at the exponential branch: (lam^2 - c lam + a) e^{-lam x} cancels and
    # the e^{-2 lam x} coefficient must be nonpositive.
    coef = 2.0 * m * lam / r1a + quad * eta + c * m / r1a + m - b
    bound = (lam * lam - c * lam + a) * np.exp(-lam * grid) + coef * np.exp(
        -2.0 * lam * grid
    )
    record("super_exp_branch", -bound, grid, slack)

    # L at the plateau of the sub-solution
    record("sub_plateau", a - b * delta - m * eta * (1.0 + c / r1a), math.nan, 0.0)

    xr = grid[grid > x_delta]
    th1 = np.asarray(tb.theta1(xr))
    th2 = th1 + tb.shift
    shift = tb.shift

    # shifted-rate quadratics with the worst-case gamma(V)
    v_cap, _ = _caps(ctx, xr)
    gamma_cap = np.exp(-m * np.log1p(v_cap))
    q1 = gamma_cap * th1 * th1 - c * th1 + a
    record("theta1_quadratic", q1, xr, slack)
    if tb.is_critical:
        q2 = gamma_cap * th2 * th2 - c * th2 + a - a / 64.0
        record("theta2_quadratic", q2, xr, slack)
    else:
        reserve = lam * (c - 2.0 * lam) / (4.0 * tb.k0)
        q2 = -(th2 * th2 - c * th2 + a) - reserve
        record("theta2_quadratic", q2, xr, slack)

    # L at the two-rate tail, bounded below exactly as the worst-case chain
    e_b = b * (
        d_n * d_n * np.exp((shift - th1) * xr)
        + np.exp(-th2 * xr)
        + (2.0 * d_n * np.exp(-th1 * xr) if d0 > 0 else 0.0)
    )
    if tb.is_critical:
        poly = tb.K1 * (4.0 + 4.0 * sqa * xr + 4.0 * m * eta * xr / r1a)
        tail_margin = (
            a / 64.0
            - poly * (np.exp(-0.5 * lam * xr) + d_n * np.exp((shift - 0.5 * lam) * xr))
            - (4.0 * m * sqa / r1a + m / (1.0 + a))
            * (np.exp(-lam * xr) + d_n * np.exp((shift - lam) * xr))
            - (m * sqa / (2.0 * r1a)) * np.exp(-lam * xr)
            - e_b
        )
    else:
        k2, k0 = tb.K2, tb.k0
        reserve = lam * (c - 2.0 * lam) / (4.0 * k0)
        e_lam = np.exp(-lam * xr)
        d1 = (
            4.0 * k2
            + 2.0 * c * xr * k2
            + (2.0 * m / r1a) * (2.0 * k2 * xr * e_lam + sqa)
            + m * (1.0 / (1.0 + a) + c / r1a)
        )
        d2 = (
            (2.0 * k2 * xr) ** 2 * e_lam
            + 4.0 * k2 * (sqa + lam / k0) * xr
            + 2.0 * lam * k2 * xr
            + (2.0 * m / r1a) * (2.0 * k2 * xr * e_lam + sqa + lam / k0)
            + quad * e_lam
            + c * m / r1a
        )
        tail_margin = (
            reserve - e_b - d1 * d_n * np.exp((shift - lam) * xr) - d2 * e_lam
        )
    record("sub_tail", tail_margin, xr, 0.0)

    # junction matching residual
    resid = float(_tail(tb, d_n, d0, x_delta)) - delta
    record("junction_matching", _MATCHING_TOL - abs(resid), x_delta, 0.0)

    # strict ordering 0 < lower < upper on the whole grid
    spec = SubSolutionSpec(n=n, d_n=d_n, d0=d0, delta=delta, x_delta=x_delta)
    lower = sub_solution(ctx, tb, spec, grid)
    upper = super_solution(ctx, grid)
    margin = min(float(np.min(lower)), float(np.min(upper - lower)))
    record("sandwich_ordering", margin, grid[int(np.argmin(upper - lower))], 0.0)
    return checks


def _v_checks(ctx: WaveContext, grid: np.ndarray) -> list[CheckRecord]:
    """Envelope checks on the numerically solved chemical field at the
    largest admissible source (monotonicity of the kernel covers the rest)."""
    x_knee = -math.log(ctx.eta) / ctx.lam
    lo = min(float(grid[0]), x_knee - 10.0)
    vx = np.linspace(lo, float(grid[-1]), _GRID_POINTS)
    u = super_solution(ctx, vx)
    sol = solve_v(vx, u, ctx.c, u_left=ctx.eta, tail_amplitude=1.0, tail_rate=ctx.lam)
    v_cap, dv_cap = _caps(ctx, vx)
    v = sol.values
    return [
        CheckRecord.worst_of("v_positive", v, vx),
        CheckRecord.worst_of("v_upper_bound", (v_cap - v) / v_cap, vx, _V_REL_SLACK),
        CheckRecord.worst_of(
            "dv_bound", (dv_cap - np.abs(sol.dvalues)) / dv_cap, vx, _V_REL_SLACK
        ),
    ]


def certify_pair(
    params: ModelParams,
    c: float,
    n: int = 2,
) -> CertificateReport:
    """Certify min{e^{-lambda x}, eta} and the glued plateau/tail pair as
    super- and sub-solutions of L over the whole sandwich class.

    The plateau height is halved from _DELTA_START until every sign check
    passes; each candidate re-locates the junction and re-evaluates all
    margins.  Raises WindowViolation outside b >= b_threshold or c outside
    [2 sqrt(a), c_max]; raises CertificateFailed (naming the first failing
    check) if no plateau height above _DELTA_FLOOR works.
    """
    if n < 2:
        raise ValueError("sub-solution index n must be at least 2")
    ctx = speed_window(params, c)
    if not ctx.in_window:
        raise WindowViolation(
            f"(b={ctx.b}, c={c}) outside the admissible window: need "
            f"b >= {b_star(ctx.m, ctx.a)!r} and c in [{ctx.c_min!r}, {ctx.c_max!r}]"
        )
    tb = theta_bundle(ctx)
    d_n = 1.0 - 1.0 / n
    d0 = 1.0 if ctx.is_critical else -1.0

    delta = _DELTA_START
    last_fail: tuple[str, float] | None = None
    while delta >= _DELTA_FLOOR:
        try:
            x_delta, crossings = locate_junction(tb, d_n, d0, delta)
        except CertificateFailed:
            last_fail = ("junction_matching", delta)
            delta *= 0.5
            continue
        lo = x_delta - 20.0 / ctx.lam
        hi = x_delta + 200.0 / ctx.lam
        grid = np.linspace(lo, hi, _GRID_POINTS)
        checks = _analytic_checks(ctx, tb, n, d_n, d0, delta, x_delta, grid)
        failing = [ch for ch in checks if not ch.passed]
        if failing:
            last_fail = (failing[0].name, delta)
            delta *= 0.5
            continue
        checks = checks + _v_checks(ctx, grid)
        failing = [ch for ch in checks if not ch.passed]
        if failing:
            # the chemical-field envelopes do not depend on the plateau
            # height, so shrinking it further cannot help
            raise CertificateFailed(
                f"chemical-field envelope check {failing[0].name!r} failed "
                f"(margin {failing[0].margin!r})",
                failing_check=failing[0].name,
                delta=delta,
            )
        return CertificateReport(
            a=ctx.a,
            b=ctx.b,
            m=ctx.m,
            c=ctx.c,
            n=n,
            d_n=d_n,
            d0=d0,
            delta=delta,
            x_delta=x_delta,
            sign_changes=crossings,
            grid_lo=lo,
            grid_hi=hi,
            grid_points=_GRID_POINTS,
            passed=True,
            checks=tuple(checks),
        )
    name = last_fail[0] if last_fail else "junction_matching"
    bad_delta = last_fail[1] if last_fail else _DELTA_START
    raise CertificateFailed(
        f"no plateau height in [{_DELTA_FLOOR!r}, {_DELTA_START!r}] passes; "
        f"first failing check {name!r} at delta={bad_delta!r}",
        failing_check=name,
        delta=bad_delta,
    )
