"""Super/sub-solution certificates for the frozen-chemical elliptic operator.

The operator under certification is

    L(U) = gamma(V) U'' + (2 gamma'(V) V' + c) U'
           + (gamma''(V) (V')^2 + gamma'(V) (V - U - c V') + a) U - b U^2,

where V solves V'' + c V' + u - V = 0 for a source u between the candidate
sub- and super-solutions.  ``solve_v`` evaluates V through the whole-line
kernel of that equation: two composite-Simpson recurrences, each solved
by LAPACK ``dtbtrs`` as unit triangular banded systems of _BLOCK nodes, a
block seeded by the two values solved next to it, which gives the bits of
one solve over the whole grid.  The super-solution is
min{e^{-lambda x}, eta}; the sub-solution is a plateau delta glued at
x_delta to the two-rate tail d_n e^{-theta1(x) x} + d0 e^{-theta2(x) x}.
All sign checks are evaluated with the worst-case envelopes of V and V' over
the whole sandwich class, so a passing report certifies every admissible
source at once, not one sample.

The plateau height delta is found by adaptive halving: each candidate fixes
the junction x_delta (rightmost root of the matching equation: the rightmost
sign-change cell of one scan shared by every candidate, bisected until it
is narrower than 1e-12 + 4 eps |x|) and a dense grid around it.  The
junctions of all candidates are located together, each bit for bit as on
its own.  A candidate is screened on the tail margin at the first
_SCREEN_POINTS grid points past x_delta, computed without the grid; one
that fails there is rejected, since by the worst-point rule below a failing
subset fails the whole grid.  Only a candidate that passes the screen gets
the grid and every margin on it.  The halving range, the grid and screen
sizes and the two slacks are module constants.

Every check is a ``CheckRecord`` built from per-point margins by one rule:
the worst point is kept and the check passes iff margin > -slack, so a NaN
margin fails.  Grid checks are evaluated in blocks of _BLOCK points, each
block keeping its worst point per check; the worst of those is the worst
of the whole grid, so the records are those of one evaluation on the whole
grid while no transient is longer than a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._compiled import dtbtrs
from .analysis import (
    ThetaBundle,
    WaveContext,
    b_star,
    c_star,
    in_speed_window,
    lambda12,
    speed_window,
    theta_bundle,
)
from .errors import (
    CertificateFailed,
    EtaUndefined,
    NonFiniteState,
    NonFiniteTail,
    WindowViolation,
)
from .model import ModelParams

__all__ = [
    "VSolution",
    "CheckRecord",
    "CertificateReport",
    "super_solution",
    "sub_solution",
    "solve_v",
    "residual_l",
    "certify_pair",
]

_MATCHING_TOL = 1e-10
# junction root: absolute and relative width of the final bracket
_ROOT_XTOL = 1e-12
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# plateau heights tried by halving, from the start down to the floor
_DELTA_START = 1e-2
_DELTA_FLOOR = 1e-18
# points of the margin grid around the junction and of the chemical solve
_GRID_POINTS = 40_000
# points per block of the sign checks, the input checks and the chemical
# recurrences, which bounds their transients whatever the grid length
_BLOCK = 4096
# leading grid points past the junction on which a plateau height is screened
_SCREEN_POINTS = 64
# slack of the analytic sign checks and relative slack of the V envelopes
_MARGIN_SLACK = 1e-12
_V_REL_SLACK = 1e-5


@dataclass(frozen=True)
class VSolution:
    """Chemical field V and derivative V' on the grid it was solved on."""

    values: np.ndarray
    dvalues: np.ndarray


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


def sub_solution(bundle: ThetaBundle, report: CertificateReport, x):
    """Plateau delta for x <= x_delta, two-rate tail beyond it, with d_n,
    d0, delta and x_delta read from a certificate report."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xa.shape, report.delta, dtype=float)
    mask = xa > report.x_delta
    if np.any(mask):
        out[mask] = _tail(bundle, report.d_n, report.d0, xa[mask])
    return float(out[0]) if np.ndim(x) == 0 else out


def _scan_end(ctx: WaveContext) -> float:
    """Right end of the junction scan, 10 (1 + |log _DELTA_FLOOR|) / lambda."""
    return 10.0 / ctx.lam * (1.0 + abs(math.log(_DELTA_FLOOR)))


def _locate_junctions(
    bundle: ThetaBundle, d_n: float, d0: float, deltas
) -> tuple[np.ndarray, np.ndarray]:
    """Junctions of plateau heights, all located on one scan.

    The junction of a height delta is the rightmost root of
    d_n e^{-theta1 x} + d0 e^{-theta2 x} = delta.  With d0 = -1 the
    matching function typically changes sign twice (it starts negative,
    rises, then decays); the rightmost root lies on the decreasing branch.
    The tail is sampled once on 4097 points of [0, _scan_end(ctx)], and
    each height counts its sign changes on that scan.  The rightmost
    sign-change cell of each height is then bisected until it is narrower
    than 1e-12 + 4 eps |x|; x_delta is its midpoint.  The scan does not
    depend on the heights and the bisection works elementwise, so every
    junction is bit for bit the search of its height alone.  Returns
    (x_delta, sign_change_count) per height, NaN and 0 for a height the
    scan never crosses.
    """
    deltas = np.asarray(deltas, dtype=float)
    xs = np.linspace(0.0, _scan_end(bundle.ctx), 4097)
    tail = _tail(bundle, d_n, d0, xs)
    above = tail > deltas[:, None]
    below = tail < deltas[:, None]
    # a sign change of tail - delta: one end above delta, the other below
    cells = (above[:, :-1] & below[:, 1:]) | (below[:, :-1] & above[:, 1:])
    crossings = np.count_nonzero(cells, axis=1)
    found = np.flatnonzero(crossings)
    # the rightmost sign-change cell of each height with a root
    i = cells.shape[1] - 1 - np.argmax(cells[found, ::-1], axis=1)
    lo, hi, right = xs[i], xs[i + 1], above[found, i + 1]
    heights = deltas[found]
    wide = hi - lo >= _ROOT_XTOL + _ROOT_RTOL * hi
    while wide.any():
        mid = 0.5 * (lo + hi)
        # the left end is a root or on the other side, so the half whose
        # right end is on the side of hi still holds a root
        value = _tail(bundle, d_n, d0, mid)
        up = np.where(right, value > heights, value < heights)
        # a bracket already narrow enough stays, as it would on its own
        hi = np.where(wide & up, mid, hi)
        lo = np.where(wide & ~up, mid, lo)
        wide = hi - lo >= _ROOT_XTOL + _ROOT_RTOL * hi
    x_delta = np.full(deltas.size, math.nan)
    x_delta[found] = 0.5 * (lo + hi)
    return x_delta, crossings


# ---------------------------------------------------------------------------
# chemical field
# ---------------------------------------------------------------------------
def _blocks(stop: int, start: int = 0):
    """Slices of range(start, stop), _BLOCK points each but the last."""
    return [slice(k, min(k + _BLOCK, stop)) for k in range(start, stop, _BLOCK)]


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
    x > grid[-1].  Each of the two one-sided integrals obeys a two-step
    composite-Simpson recurrence y[k] = r y[k -/+ 2] + s[k] (the exponential
    kernel factors out of each panel), seeded by the closed-form tail
    integrals.  The recurrences run in blocks of _BLOCK nodes: a block's
    sources s go into a work array behind (leftward integral) or ahead of
    (rightward one) the two values already solved next to it, and LAPACK
    dtbtrs solves that array as a unit triangular banded system of
    bandwidth 2 (lower for the leftward integral, upper for the rightward
    one).  The two known values are its unit rows, so every node gets the
    arithmetic of one solve over the whole grid, and so its bits.  The
    integrals are solved into the two output arrays and combined there
    block by block, so the transients stay one block long.  V' comes from
    the differentiated kernel, so no numerical differentiation is involved.
    """
    grid = np.asarray(grid, dtype=float)
    u = np.asarray(u, dtype=float)
    if grid.ndim != 1 or grid.shape != u.shape:
        raise ValueError("grid and u must be 1-D arrays of equal length")
    if grid.size < 5:
        raise ValueError("need at least 5 samples")
    n = grid.size
    h = float(grid[1] - grid[0])
    # every step within 1e-9 |h| of the first (np.allclose(steps, h,
    # rtol=1e-9, atol=0), which no NaN or infinite step passes)
    tol = 1e-9 * abs(h)
    if not all(
        np.all(np.abs(np.diff(grid[k.start : k.stop + 1]) - h) <= tol)
        for k in _blocks(n - 1)
    ):
        raise ValueError("grid must be uniformly spaced")
    for name, value in (("u_left", u_left), ("tail_amplitude", tail_amplitude),
                        ("tail_rate", tail_rate)):
        if value is None or not math.isfinite(value):
            raise NonFiniteTail(f"tail description incomplete: {name}={value!r}")
    if not all(np.isfinite(u[k]).all() for k in _blocks(n)):
        raise NonFiniteTail("source samples must be finite")

    lam1, lam2 = lambda12(c)
    if lam2 + tail_rate <= 0.0:
        raise NonFiniteTail(
            f"right tail e^(-{tail_rate!r} x) decays too slowly for the kernel rate {lam2!r}"
        )

    # the seed rows weight u by e^{-lam1 h} and e^{lam2 h}, which must stay
    # finite floats
    rate = h * max(-lam1, lam2)
    if not rate < math.log(np.finfo(float).max):
        raise NonFiniteTail(
            f"grid step h = {h!r} too coarse for the kernel: e^({rate!r}) overflows"
        )

    e1 = math.exp(lam1 * h)
    e1sq = e1 * e1
    e1inv = math.exp(-lam1 * h)
    e2 = math.exp(-lam2 * h)
    e2sq = e2 * e2
    e2inv = math.exp(lam2 * h)
    # In LAPACK band storage (kd = 2, the layout BLAS uses too) the coupling
    # -r sits in row 2 of the lower band and in row 0 of the upper band;
    # each solve's unit diagonal is not referenced and is the other's
    # coupling row, so one array serves both.
    band = np.zeros((3, _BLOCK + 2), order="F")
    band[0], band[2] = -e2sq, -e1sq
    work = np.empty(_BLOCK + 2)

    def solve(m: int, uplo: str) -> np.ndarray:
        # work[: m + 2], solved in place
        x, info = dtbtrs(band[:, : m + 2], work[: m + 2], uplo=uplo, diag="U", overwrite_b=1)
        if info != 0:
            raise NonFiniteState(f"kernel recurrence failed (LAPACK info {info})")
        return x

    i1 = np.empty(n)  # becomes V
    i2 = np.empty(n)  # becomes V'

    # leftward integral: I1(x) = int_{-inf}^{x} e^{lam1 (x - s)} u(s) ds
    i1[0] = u_left / (-lam1)
    i1[1] = e1 * i1[0] + (h / 12.0) * (5.0 * e1 * u[0] + 8.0 * u[1] - e1inv * u[2])
    for k in _blocks(n, 2):
        m, lo = k.stop - k.start, k.start - 2
        work[:2] = i1[lo : k.start]
        work[2 : m + 2] = (h / 3.0) * (
            e1sq * u[lo : k.stop - 2] + 4.0 * e1 * u[lo + 1 : k.stop - 1] + u[k]
        )
        i1[k] = solve(m, "L")[2:]

    # rightward integral: I2(x) = int_{x}^{+inf} e^{lam2 (x - s)} u(s) ds
    i2[n - 1] = tail_amplitude * math.exp(-tail_rate * grid[n - 1]) / (lam2 + tail_rate)
    i2[n - 2] = e2 * i2[n - 1] + (h / 12.0) * (
        -e2inv * u[n - 3] + 8.0 * u[n - 2] + 5.0 * e2 * u[n - 1]
    )
    for k in reversed(_blocks(n - 2)):
        m, hi = k.stop - k.start, k.stop + 2
        work[m : m + 2] = i2[k.stop : hi]
        work[:m] = (h / 3.0) * (
            u[k] + 4.0 * e2 * u[k.start + 1 : hi - 1] + e2sq * u[k.start + 2 : hi]
        )
        i2[k] = solve(m, "U")[:m]

    denom = lam2 - lam1
    for k in _blocks(n):
        v = (i1[k] + i2[k]) / denom
        i2[k] = (lam1 * i1[k] + lam2 * i2[k]) / denom
        i1[k] = v
    for arr in (i1, i2):
        arr.setflags(write=False)
    return VSolution(values=i1, dvalues=i2)


def residual_l(U, Up, Upp, V, Vp, params: ModelParams, c: float):
    """Evaluate L(U) pointwise from values and derivatives of U and V."""
    g, gp, gpp = params.motility.eval(V)
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


def _sub_tail_margin(
    ctx: WaveContext,
    tb: ThetaBundle,
    d_n: float,
    d0: float,
    xr: np.ndarray,
    th1: np.ndarray,
) -> np.ndarray:
    """Lower bound of L at the two-rate tail on the points xr beyond the
    junction, bounded below exactly as the worst-case chain (th1 is
    theta1 at xr)."""
    a, b, m, c, lam, eta = ctx.a, ctx.b, ctx.m, ctx.c, ctx.lam, ctx.eta
    sqa = math.sqrt(a)
    r1a = math.sqrt(1.0 + a)
    shift = tb.shift
    e_lam = np.exp(-lam * xr)
    e_b = b * (
        d_n * d_n * np.exp((shift - th1) * xr)
        + np.exp(-(th1 + shift) * xr)
        + (2.0 * d_n * np.exp(-th1 * xr) if d0 > 0 else 0.0)
    )
    if tb.is_critical:
        poly = tb.K1 * (4.0 + 4.0 * sqa * xr + 4.0 * m * eta * xr / r1a)
        return (
            a / 64.0
            - poly * (np.exp(-0.5 * lam * xr) + d_n * np.exp((shift - 0.5 * lam) * xr))
            - (4.0 * m * sqa / r1a + m / (1.0 + a))
            * (e_lam + d_n * np.exp((shift - lam) * xr))
            - (m * sqa / (2.0 * r1a)) * e_lam
            - e_b
        )
    k2, k0 = tb.K2, tb.k0
    reserve = lam * (c - 2.0 * lam) / (4.0 * k0)
    quad = m * (m + 1.0) / (1.0 + a)
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
    return reserve - e_b - d1 * d_n * np.exp((shift - lam) * xr) - d2 * e_lam


def _worst_points(n: int, margins_of) -> dict[str, tuple[list, list]]:
    """Per-block worst points of sign checks evaluated in blocks.

    ``margins_of(k)`` returns ``{name: (margins, locations)}`` on the points
    of the slice k of range(n); each block keeps each check's
    ``CheckRecord.worst_of`` point.  ``CheckRecord.worst_of`` over a check's
    kept points is then its record over all points: the first NaN if there
    is one (no earlier block has a NaN), else the first least margin (each
    earlier block's worst is larger).
    """
    kept: dict[str, tuple[list, list]] = {}
    for k in _blocks(n):
        for name, (margins, locations) in margins_of(k).items():
            if margins.size:
                i = int(np.argmin(margins))
                worst = kept.setdefault(name, ([], []))
                worst[0].append(margins[i])
                worst[1].append(locations[i])
    return kept


def _analytic_checks(
    ctx: WaveContext,
    tb: ThetaBundle,
    d_n: float,
    d0: float,
    delta: float,
    x_delta: float,
    grid: np.ndarray,
) -> list[CheckRecord]:
    """The analytic sign checks of one candidate in report order, those on
    the grid evaluated in blocks of _BLOCK points."""
    a, b, m, c, lam, eta = ctx.a, ctx.b, ctx.m, ctx.c, ctx.lam, ctx.eta
    r1a = math.sqrt(1.0 + a)
    slack = _MARGIN_SLACK
    quad = m * (m + 1.0) / (1.0 + a)
    lin = m * (1.0 + c / r1a) - b
    # L at the exponential branch of the super-solution: (lam^2 - c lam + a)
    # e^{-lam x} cancels and the e^{-2 lam x} coefficient must be nonpositive.
    coef = 2.0 * m * lam / r1a + quad * eta + c * m / r1a + m - b
    reserve = 0.0 if tb.is_critical else lam * (c - 2.0 * lam) / (4.0 * tb.k0)

    def margins_of(k):
        x = grid[k]
        bound = (lam * lam - c * lam + a) * np.exp(-lam * x) + coef * np.exp(-2.0 * lam * x)
        tail = x > x_delta
        xr = x[tail]
        th1 = np.asarray(tb.theta1(xr))
        th2 = th1 + tb.shift
        # shifted-rate quadratics with the worst-case gamma(V)
        v_cap, _ = _caps(ctx, xr)
        gamma_cap = np.exp(-m * np.log1p(v_cap))
        if tb.is_critical:
            q2 = gamma_cap * th2 * th2 - c * th2 + a - a / 64.0
        else:
            q2 = -(th2 * th2 - c * th2 + a) - reserve
        # the sub-solution: plateau delta, then the two-rate tail of _tail
        lower = np.full(x.shape, delta)
        lower[tail] = d_n * np.exp(-th1 * xr) + d0 * np.exp(-th2 * xr)
        return {
            "super_exp_branch": (-bound, x),
            "theta1_quadratic": (gamma_cap * th1 * th1 - c * th1 + a, xr),
            "theta2_quadratic": (q2, xr),
            # L at the two-rate tail
            "sub_tail": (_sub_tail_margin(ctx, tb, d_n, d0, xr, th1), xr),
            "lower": (lower, x),
            "ordering": (super_solution(ctx, x) - lower, x),
        }

    kept = _worst_points(grid.size, margins_of)

    def worst(name, use_slack):
        return CheckRecord.worst_of(name, *kept[name], use_slack)

    ordering = worst("ordering", 0.0)
    return [
        # L at the flat branch of the super-solution: the worst-case chain
        # collapses to the defining quadratic of eta, which vanishes
        # identically.
        CheckRecord.worst_of(
            "super_plateau_branch", -(quad * eta * eta + lin * eta + a) * eta, math.nan, slack
        ),
        worst("super_exp_branch", slack),
        # L at the plateau of the sub-solution
        CheckRecord.worst_of(
            "sub_plateau", a - b * delta - m * eta * (1.0 + c / r1a), math.nan, 0.0
        ),
        worst("theta1_quadratic", slack),
        worst("theta2_quadratic", slack),
        worst("sub_tail", 0.0),
        # junction matching residual
        CheckRecord.worst_of(
            "junction_matching",
            _MATCHING_TOL - abs(float(_tail(tb, d_n, d0, x_delta)) - delta),
            x_delta,
            0.0,
        ),
        # strict ordering 0 < lower < upper on the whole grid
        CheckRecord.worst_of(
            "sandwich_ordering",
            min(float(np.min(kept["lower"][0])), ordering.margin),
            ordering.location,
            0.0,
        ),
    ]


def _v_checks(ctx: WaveContext, grid: np.ndarray) -> list[CheckRecord]:
    """Envelope checks on the numerically solved chemical field at the
    largest admissible source (monotonicity of the kernel covers the rest),
    evaluated in blocks of _BLOCK points."""
    x_knee = -math.log(ctx.eta) / ctx.lam
    lo = min(float(grid[0]), x_knee - 10.0)
    vx = np.linspace(lo, float(grid[-1]), _GRID_POINTS)
    u = super_solution(ctx, vx)
    sol = solve_v(vx, u, ctx.c, u_left=ctx.eta, tail_amplitude=1.0, tail_rate=ctx.lam)

    def margins_of(k):
        x, v = vx[k], sol.values[k]
        v_cap, dv_cap = _caps(ctx, x)
        return {
            "v_positive": (v, x),
            "v_upper_bound": ((v_cap - v) / v_cap, x),
            "dv_bound": ((dv_cap - np.abs(sol.dvalues[k])) / dv_cap, x),
        }

    kept = _worst_points(vx.size, margins_of)
    return [
        CheckRecord.worst_of("v_positive", *kept["v_positive"]),
        CheckRecord.worst_of("v_upper_bound", *kept["v_upper_bound"], _V_REL_SLACK),
        CheckRecord.worst_of("dv_bound", *kept["dv_bound"], _V_REL_SLACK),
    ]


def _margin_span(ctx: WaveContext, x_delta: float) -> tuple[float, float]:
    """Ends of the margin grid around a junction."""
    return x_delta - 20.0 / ctx.lam, x_delta + 200.0 / ctx.lam


def _screen_points(lo: float, hi: float, x_delta: float) -> np.ndarray:
    """The first _SCREEN_POINTS points past x_delta of the margin grid
    ``np.linspace(lo, hi, _GRID_POINTS)``.

    Each point is lo + i step, the arithmetic of ``np.linspace``, so these
    are the grid's own bits without building the grid.
    """
    step = (hi - lo) / (_GRID_POINTS - 1)
    # a few points on either side of the estimated first index, which
    # rounding can miss by one
    first = max(0, int((x_delta - lo) / step) - 2)
    idx = np.arange(first, min(first + _SCREEN_POINTS + 5, _GRID_POINTS))
    points = idx * step + lo
    points[idx == _GRID_POINTS - 1] = hi
    return points[points > x_delta][:_SCREEN_POINTS]


def _outside_window(a: float, b: float, m: float, c: float) -> str:
    return (
        f"(b={b}, c={c}) outside the admissible window: need b >= {b_star(m, a)!r} "
        f"and c in [{2.0 * math.sqrt(a)!r}, {c_star(a, b, m)!r}]"
    )


def certify_pair(
    params: ModelParams,
    c: float,
    n: int = 2,
) -> CertificateReport:
    """Certify min{e^{-lambda x}, eta} and the glued plateau/tail pair as
    super- and sub-solutions of L over the whole sandwich class.

    The plateau height is halved from _DELTA_START until every sign check
    passes.  The junctions of all heights down to _DELTA_FLOOR are located
    by one call of ``_locate_junctions``, on one shared scan, each bit for
    bit the search of that height alone.  Each candidate then screens the
    ``sub_tail`` margin on the first _SCREEN_POINTS points of its margin
    grid past the junction, computed as linspace computes them, without
    the grid: a height that fails there is rejected on that slice alone,
    and only a height that passes it gets the grid, every analytic check
    on it and then the chemical-field envelopes.  A margin that fails on a
    slice fails on the whole grid, so the accepted height, and so the
    report, is the one a full evaluation of every candidate would accept.
    Raises WindowViolation outside b >= b_threshold or c outside
    [2 sqrt(a), c_star], or for a lambda so small that the lengths, which
    scale as 1/lambda, overflow; raises EtaUndefined inside the window
    when the plateau ceiling eta has no positive finite value; raises
    CertificateFailed if no plateau height above _DELTA_FLOOR works,
    naming the first check a full evaluation fails at the last height
    tried (``junction_matching`` when its matching equation has no root).
    """
    if n < 2:
        raise ValueError("sub-solution index n must be at least 2")
    try:
        ctx = speed_window(params, c)
    except EtaUndefined:
        # below b* the ceiling quadratic can lose its positive root; the
        # window is then what the caller has to change
        if in_speed_window(params.a, params.b, params.motility.m, c):
            raise
        raise WindowViolation(_outside_window(params.a, params.b, params.motility.m, c))
    if not ctx.in_window:
        raise WindowViolation(_outside_window(ctx.a, ctx.b, ctx.m, c))
    # every length of the certificate scales as 1/lambda, and lambda =
    # 2a / (c + sqrt(c^2 - 4a)) rounds to 0 once c^2 overflows: the scan and
    # the margin grid of its farthest junction must end at a finite x
    if not (ctx.lam > 0.0 and _margin_span(ctx, _scan_end(ctx))[1] < math.inf):
        raise WindowViolation(
            f"decay rate lambda = {ctx.lam!r} at (a={ctx.a!r}, c={c!r}) is too "
            "small for the certificate's lengths, which scale as 1/lambda"
        )
    tb = theta_bundle(ctx)
    d_n = 1.0 - 1.0 / n
    d0 = 1.0 if ctx.is_critical else -1.0

    heights = []
    delta = _DELTA_START
    while delta >= _DELTA_FLOOR:
        heights.append(delta)
        delta *= 0.5
    junctions, crossings = _locate_junctions(tb, d_n, d0, heights)
    for delta, x_delta, count in zip(heights, junctions.tolist(), crossings.tolist()):
        if count == 0:
            continue
        # too large a height fails the tail margin already on the first
        # points past the junction, so those points alone can reject it;
        # only a height that passes them gets the grid and every check
        lo, hi = _margin_span(ctx, x_delta)
        xs = _screen_points(lo, hi, x_delta)
        screen = CheckRecord.worst_of(
            "sub_tail", _sub_tail_margin(ctx, tb, d_n, d0, xs, tb.theta1(xs)), xs
        )
        if not screen.passed:
            continue
        grid = np.linspace(lo, hi, _GRID_POINTS)
        checks = _analytic_checks(ctx, tb, d_n, d0, delta, x_delta, grid)
        if not all(ch.passed for ch in checks):
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
            sign_changes=count,
            grid_lo=lo,
            grid_hi=hi,
            grid_points=_GRID_POINTS,
            passed=True,
            checks=tuple(checks),
        )
    # every height failed: name the first check a full evaluation fails at
    # the last one, or the matching when its equation has no root
    name, bad_delta, x_delta = "junction_matching", heights[-1], float(junctions[-1])
    if crossings[-1]:
        grid = np.linspace(*_margin_span(ctx, x_delta), _GRID_POINTS)
        checks = _analytic_checks(ctx, tb, d_n, d0, bad_delta, x_delta, grid)
        name = next(ch.name for ch in checks if not ch.passed)
    raise CertificateFailed(
        f"no plateau height in [{_DELTA_FLOOR!r}, {_DELTA_START!r}] passes; "
        f"first failing check {name!r} at delta={bad_delta!r}",
        failing_check=name,
        delta=bad_delta,
    )
