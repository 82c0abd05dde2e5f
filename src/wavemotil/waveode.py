"""Constructive traveling-wave solver.

In the moving frame z = x - c t, a wave profile (U, V) of the
density-suppressed motility system solves

    (gamma(V) U)'' + c U' + U (a - b U) = 0,
    V'' + c V' + U - V = 0,

with U decreasing from the plateau a/b to 0 and both tails behaving like
e^{-lam z}, where lam is the slow decay rate at the leading edge.

The profile is built exactly the way its existence is certified:

1. the chemical field V is solved for a given density u (``solve_v``),
2. with V frozen, the density equation is relaxed in artificial time,

       U_t = U'' + A1(z) U' + A2(z) U - A3(z) U^2,

   starting from the certified upper envelope, until it settles
   (``solve_auxiliary`` / ``u_map``), and
3. the map u -> settled U is iterated to its fixed point
   (``traveling_wave``), which stays pinched inside the certified
   corridor at every stage.

``verify_profile`` re-checks a finished profile against the original
wave system with independent finite differences.  Each of its checks
follows the ``CheckRecord`` rule (pass iff margin > -slack, so a NaN margin
fails), except the two plateau checks, which are informational passes when
the invasion index is at least one.

Each relaxation march factors its implicit tridiagonal matrix once with
LAPACK ``dgttrf`` and takes every step as one ``dgttrs`` solve.  The
checkpoint length, the settling tolerance and time cap of the profile map,
the Picard tolerance and cap, and the verification tolerances are module
constants, not options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .analysis import WaveContext, kappa, speed_window
from .certificates import (
    CheckRecord,
    VSolution,
    certify_pair,
    residual_l,
    solve_v,
    super_solution,
)
from .errors import BlowUp, NoConvergence, NonFiniteState, NonMonotone, PicardStalled
from .model import ModelParams, PowerMotility, motility_eval

__all__ = [
    "AuxiliaryRun",
    "WaveProfile",
    "VerificationReport",
    "default_wave_grid",
    "solve_auxiliary",
    "u_map",
    "traveling_wave",
    "verify_profile",
]

_CORRIDOR_FLOOR = -1e-12
_VISIBLE_TAIL = 1e-12
# artificial time between two relaxation snapshots, and the rise a snapshot
# may show over its predecessor before the march counts as non-monotone
_CHECKPOINT_DT = 1.0
_MONOTONE_SLACK = 1e-9
# The profile map stops relaxing once the sup-norm change per checkpoint is
# below _TOL_LIMIT, and gives up at _T_MAX.  At the minimal speed the
# truncated domain supports a spurious slowly-varying mode in the weighted
# tail amplitude U e^{lam z}: the exact steady state of the truncated
# problem ramps that amplitude linearly toward the pinned right boundary
# instead of holding the infinite-domain limit 1.  The artifact only
# develops on the long diffusive timescale of the domain, so this tolerance
# stops the march after the front has equilibrated but before the ramp
# forms, which is the more faithful answer; a tolerance below ~1e-7 trades
# front accuracy for tail-amplitude contamination.
_TOL_LIMIT = 1e-6
_T_MAX = 1e4
# the Picard iteration of the profile map stops at this sup-norm change
_PICARD_TOL = 1e-6
_PICARD_MAX = 200
# verify_profile: residual bound, relative error of the plateau and tail
# limits, and the largest slope allowed at either end
_RESIDUAL_TOL = 1e-4
_LIMIT_RTOL = 0.02
_SLOPE_TOL = 1e-4


def default_wave_grid(params: ModelParams, c: float, h: float = 0.05) -> np.ndarray:
    """Uniform frame grid wide enough for both tails.

    The left end resolves the approach to the plateau (width scales like
    1/sqrt(a)), the right end resolves the e^{-lam z} tail down to far
    below the fitting threshold.
    """
    ctx = speed_window(params, c)
    z_min = -40.0 / math.sqrt(params.a)
    z_max = 40.0 / ctx.lam
    n = int(round((z_max - z_min) / h)) + 1
    return z_min + h * np.arange(n)


# --------------------------------------------------------------------------
# frozen-field relaxation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxiliaryRun:
    """Checkpointed relaxation history in a frozen chemical field.

    ``snapshots[k]`` is the state at ``times[k]``; successive snapshots are
    pointwise nonincreasing (the run starts at an upper envelope), and
    ``final_increment`` is the sup-norm change over the last checkpoint.
    """

    times: np.ndarray
    snapshots: np.ndarray
    max_monotone_violation: float
    final_increment: float


class _FrozenField:
    """Coefficients and solver state for one relaxation march.

    The linear part (diffusion, drift, linear reaction) is treated
    implicitly — the off-diagonal entries of the implicit tridiagonal
    matrix keep a fixed sign as long as h |A1| / 2 <= 1, which makes each
    step order-preserving and the descent from the upper envelope
    structurally monotone — while the quadratic saturation term stays
    explicit.  The resting state solves the centered-difference wave
    equation regardless of the step size, so the step only controls how
    fast the march settles.  The matrix is factored once per march.
    """

    def __init__(
        self, u, params: ModelParams, c: float, grid, u_left_bc: float | None = None
    ):
        u = np.asarray(u, dtype=float)
        grid = np.asarray(grid, dtype=float)
        if u.shape != grid.shape or u.ndim != 1:
            raise ValueError("density and grid must be matching 1-D arrays")
        ctx = speed_window(params, c)
        h = float(grid[1] - grid[0])
        lam = ctx.lam
        vsol = _chemical_field(grid, u, c, lam)
        V = vsol.values
        Vp = vsol.dvalues
        g, gp, gpp = motility_eval(params.motility, V)
        a1 = ((2.0 * gp * Vp + c) / g)[1:-1]
        a2 = ((gpp * Vp**2 + gp * (V - c * Vp) + params.a) / g)[1:-1]
        a3 = ((gp + params.b) / g)[1:-1]

        steps = max(1, math.ceil(_CHECKPOINT_DT / 0.25))
        dt = _CHECKPOINT_DT / steps
        lower = 1.0 / h**2 - a1 / (2.0 * h)
        upper = 1.0 / h**2 + a1 / (2.0 * h)
        main = -2.0 / h**2 + a2
        *factor, info = dgttrf(-dt * lower[1:], 1.0 - dt * main, -dt * upper[:-1])
        if info != 0:
            raise NonFiniteState(f"frozen-field factorization failed (LAPACK info {info})")
        self.ctx = ctx
        self.vsol = vsol
        self.grid = grid
        self.h = h
        self.dt = dt
        self.steps_per_checkpoint = steps
        self.a3 = a3
        self.factor = factor
        self.u_left = (
            _plateau_value(params, float(V[0])) if u_left_bc is None else u_left_bc
        )
        self.u_right = math.exp(min(-lam * grid[-1], math.log(ctx.eta)))
        self.bc_left = lower[0] * self.u_left
        self.bc_right = upper[-1] * self.u_right

    def initial_state(self) -> np.ndarray:
        return np.asarray(super_solution(self.ctx, self.grid), dtype=float)

    def advance_checkpoint(self, state: np.ndarray) -> np.ndarray:
        dt = self.dt
        U = state
        for _ in range(self.steps_per_checkpoint):
            ui = U[1:-1]
            rhs = ui - dt * self.a3 * ui * ui
            rhs[0] += dt * self.bc_left
            rhs[-1] += dt * self.bc_right
            new = np.empty_like(U)
            new[0] = self.u_left
            new[-1] = self.u_right
            new[1:-1], info = dgttrs(*self.factor, rhs)
            if info != 0:
                raise NonFiniteState(f"frozen-field solve failed (LAPACK info {info})")
            U = new
        return U

    def corridor_check(self, state: np.ndarray) -> None:
        ceiling = 2.0 * self.ctx.eta
        if (
            not np.all(np.isfinite(state))
            or float(np.min(state)) < _CORRIDOR_FLOOR
            or float(np.max(state)) > ceiling * (1.0 + 1e-9)
        ):
            raise BlowUp(
                f"relaxation state left the corridor [0, {ceiling:.6e}]"
            )


def _plateau_value(params: ModelParams, v_left: float) -> float:
    """Flat-state density consistent with a frozen chemical level.

    Solves A2 u = A3 u^2 at zero slope; when the chemical level equals the
    density this reduces exactly to a/b.
    """
    _, gp, _ = motility_eval(params.motility, v_left)
    den = params.b + gp
    if den <= 0.0:
        return params.equilibrium
    return (params.a + gp * v_left) / den


def _chemical_field(grid, u, c: float, lam: float) -> VSolution:
    """V of the density u, extended by its left value and by the tail
    u[-1] e^{-lam (z - z_end)} beyond the right end."""
    return solve_v(
        grid,
        u,
        c,
        u_left=float(u[0]),
        tail_amplitude=float(u[-1] * math.exp(lam * grid[-1])),
        tail_rate=lam,
    )


def _march(field: _FrozenField, state: np.ndarray, t_end: float):
    """Relax ``state`` checkpoint by checkpoint up to ``t_end``.

    Yields each new snapshot with its rise over the previous one.  Raises
    ``BlowUp`` if a state leaves [0, 2 eta] and ``NonMonotone`` if a
    snapshot rises above its predecessor by more than _MONOTONE_SLACK.
    """
    field.corridor_check(state)
    for k in range(1, max(1, math.ceil(t_end / _CHECKPOINT_DT - 1e-12)) + 1):
        new = field.advance_checkpoint(state)
        field.corridor_check(new)
        rise = float(np.max(new - state))
        if rise > _MONOTONE_SLACK:
            raise NonMonotone(
                f"relaxation rose by {rise:.3e} at t={k * _CHECKPOINT_DT:g}"
            )
        yield new, rise
        state = new


def solve_auxiliary(
    u,
    params: ModelParams,
    c: float,
    t_end: float,
    grid,
    *,
    initial=None,
    u_left_bc: float | None = None,
) -> AuxiliaryRun:
    """Relax the density in the chemical field of ``u`` for a fixed horizon.

    The field V(z; u) is frozen, the state starts at the certified upper
    envelope (or at ``initial``), and snapshots are recorded every
    checkpoint (one unit of artificial time).  The left boundary is
    pinned at ``u_left_bc`` when given, otherwise at the flat-state
    density consistent with the frozen chemical level there.  Raises
    ``BlowUp`` if the state leaves [0, 2 eta] and ``NonMonotone`` if a
    snapshot rises above its predecessor by more than the monotone slack.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    field = _FrozenField(u, params, c, grid, u_left_bc)
    state = (
        field.initial_state()
        if initial is None
        else np.array(initial, dtype=float, copy=True)
    )
    snapshots = [state]
    worst = 0.0
    for state, rise in _march(field, state, t_end):
        worst = max(worst, rise)
        snapshots.append(state)
    final_increment = float(np.max(np.abs(snapshots[-1] - snapshots[-2])))
    return AuxiliaryRun(
        times=_CHECKPOINT_DT * np.arange(len(snapshots)),
        snapshots=np.asarray(snapshots),
        max_monotone_violation=worst,
        final_increment=final_increment,
    )


def u_map(
    u,
    params: ModelParams,
    c: float,
    grid,
    *,
    u_left_bc: float | None = None,
) -> np.ndarray:
    """One application of the profile map: relax in the field of ``u`` to rest.

    Marches the frozen-field relaxation from the upper envelope until the
    sup-norm change per checkpoint drops below the settling tolerance
    (see _TOL_LIMIT for why it is not tighter); raises ``NoConvergence``
    if that does not happen by the time cap.
    """
    field = _FrozenField(u, params, c, grid, u_left_bc)
    state = field.initial_state()
    for new, _ in _march(field, state, _T_MAX):
        increment = float(np.max(np.abs(new - state)))
        state = new
        if increment < _TOL_LIMIT:
            state.setflags(write=False)
            return state
    raise NoConvergence(
        f"relaxation did not settle to {_TOL_LIMIT:g} within t={_T_MAX:g}"
    )


# --------------------------------------------------------------------------
# fixed point and verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveProfile:
    """Converged wave profile with its measured asymptotics.

    ``tail_ratio_U`` and ``tail_ratio_V`` are the fitted limits of
    U e^{lam z} and V e^{lam z} over the last visible decade of the tail
    (targets 1 and 1/(1+a)); the left limits are plateau averages
    (target a/b); the residuals are sup-norms of the frozen-field wave
    equation and of the chemical equation on interior nodes.
    """

    grid: np.ndarray
    U: np.ndarray
    V: np.ndarray
    Uprime: np.ndarray
    Vprime: np.ndarray
    c: float
    lam: float
    left_limit_U: float
    left_limit_V: float
    tail_ratio_U: float
    tail_ratio_V: float
    ode_residual_l: float
    ode_residual_v: float
    picard_iterations: int
    picard_change: float

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("z,U,V,Uprime,Vprime\n")
            for row in zip(self.grid, self.U, self.V, self.Uprime, self.Vprime):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")

    def to_dict(self) -> dict:
        """The profile's scalars, with NaN and infinities written as null."""
        out = {
            "c": float(self.c),
            "lam": float(self.lam),
            "z_min": float(self.grid[0]),
            "z_max": float(self.grid[-1]),
            "n_points": int(self.grid.size),
            "h": float(self.grid[1] - self.grid[0]),
            "left_limit_U": float(self.left_limit_U),
            "left_limit_V": float(self.left_limit_V),
            "tail_ratio_U": float(self.tail_ratio_U),
            "tail_ratio_V": float(self.tail_ratio_V),
            "ode_residual_l": float(self.ode_residual_l),
            "ode_residual_v": float(self.ode_residual_v),
            "picard_iterations": int(self.picard_iterations),
            "picard_change": float(self.picard_change),
        }
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in out.items()
        }


def _fit_tail_ratio(grid, values, lam: float) -> float:
    """Fitted limit of values * e^{lam z} over the last visible decade.

    Uses the rightmost stretch where the values sit within a factor of ten
    of the smallest value still above the visibility floor; values at or
    below the floor carry no reliable tail information.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    visible = values > _VISIBLE_TAIL
    if not np.any(visible):
        return math.nan
    idx_hi = int(np.flatnonzero(visible)[-1])
    floor = values[idx_hi]
    window = visible & (values <= 10.0 * floor)
    if int(np.count_nonzero(window)) < 10:
        window = np.zeros_like(visible)
        window[np.flatnonzero(visible)[-10:]] = True
    logs = np.log(values[window]) + lam * grid[window]
    return float(np.exp(np.mean(logs)))


def _left_mean(values) -> float:
    values = np.asarray(values, dtype=float)
    n = max(1, values.size // 10)
    return float(np.mean(values[:n]))


def _profile_residuals(grid, U, V, params: ModelParams, c: float):
    """Sup-norm interior residuals of the frozen-field and chemical equations."""
    h = float(grid[1] - grid[0])
    up = (U[2:] - U[:-2]) / (2.0 * h)
    upp = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / h**2
    vp = (V[2:] - V[:-2]) / (2.0 * h)
    vpp = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / h**2
    res_l = residual_l(U[1:-1], up, upp, V[1:-1], vp, params, c)
    res_v = vpp + c * vp + U[1:-1] - V[1:-1]
    return float(np.max(np.abs(res_l))), float(np.max(np.abs(res_v)))


def traveling_wave(params: ModelParams, c: float, *, h: float = 0.05) -> WaveProfile:
    """Construct the wave profile at speed c by iterating the profile map.

    The run starts by certifying the envelope pair for (params, c), which
    raises ``WindowViolation`` outside the admissible window; the iteration
    then starts at the upper envelope of ``default_wave_grid(params, c, h)``
    and applies the profile map until the sup-norm change drops below
    _PICARD_TOL.  Raises ``PicardStalled`` when the changes stop decreasing
    for five consecutive iterations and ``NoConvergence`` after
    _PICARD_MAX iterations.
    """
    certify_pair(params, c)
    ctx = speed_window(params, c)
    grid = default_wave_grid(params, c, h)
    u = np.asarray(super_solution(ctx, grid), dtype=float)
    changes: list[float] = []
    converged = False
    for k in range(_PICARD_MAX):
        # the first sweep pins the left end at the envelope plateau eta;
        # later sweeps use the self-consistent flat-state value
        u_new = u_map(u, params, c, grid, u_left_bc=ctx.eta if k == 0 else None)
        change = float(np.max(np.abs(u_new - u)))
        changes.append(change)
        u = np.asarray(u_new, dtype=float)
        if change < _PICARD_TOL:
            converged = True
            break
        if len(changes) >= 6 and all(
            changes[-j] >= changes[-j - 1] * (1.0 - 1e-12) for j in range(1, 6)
        ):
            raise PicardStalled(
                f"profile-map changes stopped decreasing at {change:.3e}"
            )
    if not converged:
        raise NoConvergence(
            f"profile map did not reach {_PICARD_TOL:g} in {_PICARD_MAX} iterations"
        )

    lam = ctx.lam
    vsol = _chemical_field(grid, u, c, lam)
    V = vsol.values
    res_l, res_v = _profile_residuals(grid, u, V, params, c)
    return WaveProfile(
        grid=grid,
        U=u,
        V=V,
        Uprime=np.gradient(u, grid, edge_order=2),
        Vprime=vsol.dvalues.copy(),
        c=float(c),
        lam=lam,
        left_limit_U=_left_mean(u),
        left_limit_V=_left_mean(V),
        tail_ratio_U=_fit_tail_ratio(grid, u, lam),
        tail_ratio_V=_fit_tail_ratio(grid, V, lam),
        ode_residual_l=res_l,
        ode_residual_v=res_v,
        picard_iterations=len(changes),
        picard_change=changes[-1] if changes else 0.0,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Independent re-check of a finished profile."""

    checks: tuple[CheckRecord, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [ch.to_dict() for ch in self.checks]}


def _slope(grid, values) -> float:
    return float(np.polyfit(grid, values, 1)[0])


def verify_profile(profile: WaveProfile, params: ModelParams) -> VerificationReport:
    """Re-check a profile against the original wave system.

    All quantities are recomputed from the stored arrays with independent
    finite differences: sup-norm residuals of (gamma(V) U)'' + c U' +
    U (a - b U) and V'' + c V' + U - V, plateau limits, tail ratios, end
    flatness, and positivity.  The plateau target a/b applies when the
    invasion index of the power family is below one; otherwise the
    plateau checks are recorded as informational passes.  Every other
    check passes iff its margin exceeds minus its slack, so a NaN margin
    (say, a tail with no visible values) fails.
    """
    grid, U, V = profile.grid, profile.U, profile.V
    c, lam = profile.c, profile.lam
    h = float(grid[1] - grid[0])
    checks: list[CheckRecord] = []

    def record(name, margins, locations):
        checks.append(CheckRecord.worst_of(name, margins, locations))

    g = motility_eval(params.motility, V)[0]
    W = g * U
    wpp = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / h**2
    up = (U[2:] - U[:-2]) / (2.0 * h)
    ui = U[1:-1]
    res_u = wpp + c * up + ui * (params.a - params.b * ui)
    record("residual_u_equation", _RESIDUAL_TOL - np.abs(res_u), grid[1:-1])

    vpp = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / h**2
    vp = (V[2:] - V[:-2]) / (2.0 * h)
    res_v = vpp + c * vp + ui - V[1:-1]
    record("residual_v_equation", _RESIDUAL_TOL - np.abs(res_v), grid[1:-1])

    enforce_plateau = isinstance(params.motility, PowerMotility) and (
        kappa(params.motility.m, params.a) < 1.0
    )
    eq = params.equilibrium
    for name, values in (("left_limit_u", U), ("left_limit_v", V)):
        if enforce_plateau:
            record(name, _LIMIT_RTOL * eq - abs(_left_mean(values) - eq), grid[0])
        else:
            checks.append(CheckRecord(name, math.nan, math.nan, 0.0, True))

    ratio_u = _fit_tail_ratio(grid, U, lam)
    record("tail_ratio_u", _LIMIT_RTOL - abs(ratio_u - 1.0), grid[-1])
    ratio_v = _fit_tail_ratio(grid, V, lam)
    target_v = 1.0 / (1.0 + params.a)
    record("tail_ratio_v", _LIMIT_RTOL * target_v - abs(ratio_v - target_v), grid[-1])

    n_end = max(2, grid.size // 10)
    for name, values in (("flat_ends_u", U), ("flat_ends_v", V)):
        worst = max(
            abs(_slope(grid[:n_end], values[:n_end])),
            abs(_slope(grid[-n_end:], values[-n_end:])),
        )
        record(name, _SLOPE_TOL - worst, grid[-1])

    low = min(float(np.min(U)), float(np.min(V)))
    record("positivity", low, grid[int(np.argmin(U))])

    return VerificationReport(
        checks=tuple(checks), passed=all(ch.passed for ch in checks)
    )
