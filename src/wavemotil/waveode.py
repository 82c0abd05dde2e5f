"""Constructive traveling-wave solver.

In the moving frame z = x - c t, a wave profile (U, V) of the
density-suppressed motility system solves

    (gamma(V) U)'' + c U' + U (a - b U) = 0,
    V'' + c V' + U - V = 0,

with U decreasing from the plateau a/b to 0 and both tails behaving like
e^{-lam z}, where lam is the slow decay rate at the leading edge.

The profile is built exactly the way its existence is certified:

1. the chemical field V is solved for a given density u (``solve_v``),
2. with V frozen, the density equation

       U_t = U'' + A1(z) U' + A2(z) U - A3(z) U^2

   is brought to its rest state from the certified upper envelope
   (``u_map``), and
3. the map u -> rest state U is iterated to its fixed point
   (``traveling_wave``), which stays pinched inside the certified
   corridor at every stage.

``verify_profile`` re-checks a finished profile against the original
wave system with independent finite differences.  Each of its checks
follows the ``CheckRecord`` rule (pass iff margin > -slack, so a NaN margin
fails), except the two plateau checks, which are informational passes when
the invasion index is at least one.  The ``wave`` command saves a profile
as ``pde.save_field`` saves a snapshot: a float64 binary with a JSON
header (see ``WaveProfile``).

Above the minimal speed the rest state is the maximal solution of the
centred-difference equation T U + A2 U - A3 U^2 = 0 with two Dirichlet
ends, and Newton's method from the upper envelope reaches it with
monotonically decreasing iterates, one ``dgtsv`` solve each.  At
c = 2 sqrt(a) the profile map still marches the relaxation in artificial
time and stops on a settling tolerance, until the critical profile is
defined by something other than when the march stops.  Each march
symmetrizes its implicit tridiagonal matrix by a diagonal scaling, factors
it once with LAPACK ``pttrf`` and takes every step as one ``pttrs`` solve.
Its step size comes from the comparison principle it discretizes: a
checkpoint is split into the fewest equal steps for which each step is
order-preserving on the corridor [0, 2 eta], that is 4 dt max(A3) eta <= 1
for the explicit quadratic term and dt max(A2) <= 1/2 for the implicit
matrix.  The rest state does not depend on dt.  The default frame step
is ``frame_step(c)``, which ``default_wave_grid`` and the ``wave``
command both take.  Its two bounds, the checkpoint length, the settling
tolerance and time cap of the march, the Newton tolerance and cap, the
Picard tolerance and cap, and the verification tolerances are module
constants, not options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._compiled import dgtsv, dpttrs
from .analysis import WaveContext, kappa, lambda12, speed_window
from .certificates import (
    CheckRecord,
    VSolution,
    certify_pair,
    residual_l,
    solve_v,
    super_solution,
)
from .errors import BlowUp, ConfigError, NoConvergence, NonFiniteState, NonMonotone, PicardStalled
from .frontmetrics import _line_fit
from .model import ModelParams, PowerMotility
from .pde import MAX_RUN_COUNT, spd_tridiagonal_factor

__all__ = [
    "WaveProfile",
    "VerificationReport",
    "frame_step",
    "default_wave_grid",
    "u_map",
    "traveling_wave",
    "verify_profile",
]

_CORRIDOR_FLOOR = -1e-12
# default frame step: at most _FRAME_H, and at most _FRAME_H_DRIFT / |lambda_1|
_FRAME_H = 0.05
_FRAME_H_DRIFT = 0.14
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
# Newton's method for the rest state above the minimal speed stops once the
# sup-norm correction is below _NEWTON_TOL and gives up at _NEWTON_MAX
_NEWTON_TOL = 1e-12
_NEWTON_MAX = 50
# the Picard iteration of the profile map stops at this sup-norm change
_PICARD_TOL = 1e-6
_PICARD_MAX = 200
# verify_profile: residual bound, relative error of the plateau and tail
# limits, and the largest slope allowed at either end
_RESIDUAL_TOL = 1e-4
_LIMIT_RTOL = 0.02
_SLOPE_TOL = 1e-4


def frame_step(c: float) -> float:
    """Default frame step at speed c: min(0.05, 0.14 / |lambda_1|),
    lambda_1 < 0 the kernel rate of V'' + c V' - V = 0, so it shrinks with
    the drift, which grows like c.  It is 0.05 up to c = 2.4428."""
    return min(_FRAME_H, _FRAME_H_DRIFT / abs(lambda12(c)[0]))


def default_wave_grid(
    params: ModelParams, c: float, h: float | None = None
) -> np.ndarray:
    """Uniform frame grid wide enough for both tails.

    The left end resolves the approach to the plateau (width scales like
    1/sqrt(a)), the right end resolves the e^{-lam z} tail down to far
    below the fitting threshold.  The step ``h`` defaults to
    ``frame_step(c)``.  Raises ConfigError, as ``SimConfig`` does, before
    any array exists, for a step that gives fewer than the 5 nodes
    ``solve_v`` needs or more than ``pde.MAX_RUN_COUNT``.
    """
    ctx = speed_window(params, c)
    if h is None:
        h = frame_step(c)
    z_min = -40.0 / math.sqrt(params.a)
    z_max = 40.0 / ctx.lam
    n = float(np.rint((z_max - z_min) / h)) + 1.0
    if not 5 <= n <= MAX_RUN_COUNT:
        raise ConfigError(
            f"frame step {h!r} gives {n:.6g} nodes on [{z_min!r}, {z_max!r}]: "
            f"need at least 5 and at most MAX_RUN_COUNT = {MAX_RUN_COUNT:,}"
        )
    return z_min + h * np.arange(int(n))


# --------------------------------------------------------------------------
# frozen-field relaxation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _FrozenOperator:
    """Centred-difference frozen-field operator on the interior nodes.

    Row i of T U + A2 U - A3 U^2 reads lower_i U_{i-1} + main_i U_i +
    upper_i U_{i+1} - a3_i U_i^2, with lower, upper = 1/h^2 -+ A1 / (2h),
    both positive when h |A1| / 2 < 1, and main = -2/h^2 + A2; the two end
    rows couple to the Dirichlet values u_left and u_right.
    """

    ctx: WaveContext
    grid: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    main: np.ndarray
    u_left: float
    u_right: float


def _frozen_operator(
    u, params: ModelParams, c: float, grid, u_left_bc: float | None = None
) -> _FrozenOperator:
    """The frozen-field operator in the chemical field of ``u``, shared by the
    march and Newton's method; ``NonFiniteState`` if that field is negative
    or not finite, or if h |A1| / 2 >= 1."""
    ctx = speed_window(params, c)
    u = np.asarray(u, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if u.shape != grid.shape or u.ndim != 1:
        raise ValueError("density and grid must be matching 1-D arrays")
    h = float(grid[1] - grid[0])
    lam = ctx.lam
    vsol = _chemical_field(grid, u, c, lam)
    V = vsol.values
    Vp = vsol.dvalues
    if not (np.all(np.isfinite(V)) and float(np.min(V)) >= 0.0):
        raise NonFiniteState(f"chemical field negative or non-finite at h = {h:g}")
    g, gp, gpp = params.motility.eval(V)
    a1 = ((2.0 * gp * Vp + c) / g)[1:-1]
    a2 = ((gpp * Vp**2 + gp * (V - c * Vp) + params.a) / g)[1:-1]
    a3 = ((gp + params.b) / g)[1:-1]
    lower = 1.0 / h**2 - a1 / (2.0 * h)
    upper = 1.0 / h**2 + a1 / (2.0 * h)
    if not np.all(lower * upper > 0.0):
        raise NonFiniteState(f"h |A1| / 2 >= 1 in the frozen field at h = {h:g}")
    return _FrozenOperator(
        ctx=ctx,
        grid=grid,
        a2=a2,
        a3=a3,
        lower=lower,
        upper=upper,
        main=-2.0 / h**2 + a2,
        u_left=_plateau_value(params, float(V[0])) if u_left_bc is None else u_left_bc,
        u_right=math.exp(min(-lam * grid[-1], math.log(ctx.eta))),
    )


def _corridor_check(ctx: WaveContext, state: np.ndarray) -> None:
    ceiling = 2.0 * ctx.eta
    low, high = float(state.min()), float(state.max())
    if (
        not (math.isfinite(low) and math.isfinite(high))
        or low < _CORRIDOR_FLOOR
        or high > ceiling * (1.0 + 1e-9)
    ):
        raise BlowUp(f"relaxation state left the corridor [0, {ceiling:.6e}]")


class _FrozenField:
    """Solver state for one relaxation march of the frozen-field operator ``op``.

    Diffusion, drift and linear reaction are implicit, the quadratic term
    explicit.  The implicit matrix has off-diagonals -dt lower_{i+1} and
    -dt upper_i and interior row sums 1 - dt A2.  A step is order-preserving
    on the corridor [0, 2 eta] when the matrix is an M-matrix,
    dt max(A2) <= 1/2, and the explicit map U -> U - dt A3 U^2 is monotone
    there, 4 dt max(A3) eta <= 1; the checkpoint takes the fewest equal
    steps that meet both, so the descent from the upper envelope is
    structurally monotone.  The similarity s_{i+1} / s_i =
    sqrt(lower_{i+1} / upper_i) (log s centred) makes the matrix symmetric,
    with off-diagonal -dt sqrt(lower upper).  The march steps W = U / s by
    ``pttrs`` with one factor and returns to U once per checkpoint.  At
    c = 2 sqrt(a), the one speed that marches, |log s| stays below 100, so
    s and W stay normal floats.  The resting state solves the
    centered-difference wave equation whatever the step size.
    """

    def __init__(self, op: _FrozenOperator):
        a2, a3, lower, upper = op.a2, op.a3, op.lower, op.upper
        # the fewest equal steps that keep a step order-preserving on
        # [0, 2 eta]: 4 dt max(A3) eta <= 1 and dt max(A2) <= 1/2
        rate = max(4.0 * float(np.max(a3)) * op.ctx.eta, 2.0 * float(np.max(a2)))
        steps = max(1, math.ceil(_CHECKPOINT_DT * rate))
        dt = _CHECKPOINT_DT / steps
        log_s = np.concatenate(([0.0], np.cumsum(0.5 * np.log(lower[1:] / upper[:-1]))))
        self.s = s = np.exp(log_s - (float(np.min(log_s)) + 0.5 * float(np.ptp(log_s))))
        d, e = spd_tridiagonal_factor(
            1.0 - dt * op.main, -dt * np.sqrt(lower[1:] * upper[:-1])
        )
        self.solve = partial(dpttrs, d, e, overwrite_b=1)
        self.op = op
        self.steps_per_checkpoint = steps
        # explicit terms over s: dt a3 U^2 / s = dt a3 s W^2, boundary couplings
        self.dt_a3_s = dt * a3 * s
        self.bc_left = dt * (lower[0] * op.u_left) / s[0]
        self.bc_right = dt * (upper[-1] * op.u_right) / s[-1]

    def advance_checkpoint(self, state: np.ndarray) -> np.ndarray:
        w = state[1:-1] / self.s
        for _ in range(self.steps_per_checkpoint):
            rhs = w - self.dt_a3_s * w * w
            rhs[0] += self.bc_left
            rhs[-1] += self.bc_right
            w, _ = self.solve(rhs)
        U = np.empty_like(state)
        U[0] = self.op.u_left
        U[-1] = self.op.u_right
        np.multiply(self.s, w, out=U[1:-1])
        return U


def _march_rest_state(op: _FrozenOperator) -> tuple[np.ndarray, int, int]:
    """Rest state of the frozen-field operator by the relaxation march.

    Marches ``_FrozenField(op)`` from the upper envelope, one unit of
    artificial time per checkpoint, until the sup-norm change per
    checkpoint drops below _TOL_LIMIT (see there for why it is not
    tighter).  Returns the settled state, the steps per checkpoint and the
    checkpoints taken; raises ``BlowUp`` if a state leaves [0, 2 eta],
    ``NonMonotone`` if a checkpoint rises above its predecessor by more
    than _MONOTONE_SLACK and ``NoConvergence`` if it has not settled by
    _T_MAX.
    """
    field = _FrozenField(op)
    state = np.asarray(super_solution(op.ctx, op.grid), dtype=float)
    _corridor_check(op.ctx, state)
    for k in range(1, math.ceil(_T_MAX / _CHECKPOINT_DT) + 1):
        new = field.advance_checkpoint(state)
        _corridor_check(op.ctx, new)
        change = new - state
        rise = float(change.max())
        if rise > _MONOTONE_SLACK:
            raise NonMonotone(
                f"relaxation rose by {rise:.3e} at t={k * _CHECKPOINT_DT:g}"
            )
        if max(rise, -float(change.min())) < _TOL_LIMIT:
            return new, field.steps_per_checkpoint, k
        state = new
    raise NoConvergence(
        f"relaxation did not settle to {_TOL_LIMIT:g} within t={_T_MAX:g}"
    )


def _newton_rest_state(op: _FrozenOperator) -> tuple[np.ndarray, int]:
    """Maximal rest state of the frozen-field operator by Newton's method.

    Starts from the upper envelope, a super-solution, with the operator's
    Dirichlet ends.  Each iteration solves J U_new = -(A3 U^2 + ends) with
    J = T + diag(A2 - 2 A3 U) by one ``dgtsv``, which is the Newton step
    U_new = U - J^{-1} F(U) for F(U) = T U + A2 U - A3 U^2 + ends.  F is
    concave where A3 >= 0, so the iterates decrease monotonically to the
    maximal solution (Sattinger 1972; Pao 1992).  Returns the rest state and
    the iterations taken; raises ``BlowUp`` if an iterate leaves
    [0, 2 eta], ``NonMonotone`` if a correction rises above
    _MONOTONE_SLACK, ``NonFiniteState`` if ``dgtsv`` fails and
    ``NoConvergence`` if no correction falls below _NEWTON_TOL within
    _NEWTON_MAX iterations.
    """
    U = np.asarray(super_solution(op.ctx, op.grid), dtype=float)
    _corridor_check(op.ctx, U)
    U[0] = op.u_left
    U[-1] = op.u_right
    ends = np.zeros(U.size - 2)
    ends[0] = op.lower[0] * op.u_left
    ends[-1] += op.upper[-1] * op.u_right
    sub, sup = op.lower[1:], op.upper[:-1]
    for k in range(1, _NEWTON_MAX + 1):
        w = U[1:-1]
        *_, new, info = dgtsv(
            sub, op.main - 2.0 * op.a3 * w, sup, -(op.a3 * w * w + ends),
            overwrite_d=1, overwrite_b=1,
        )
        if info != 0:
            raise NonFiniteState(f"Newton step failed (LAPACK info {info})")
        step = new - w
        rise = float(step.max())
        if rise > _MONOTONE_SLACK:
            raise NonMonotone(f"Newton correction rose by {rise:.3e} at iteration {k}")
        U[1:-1] = new
        _corridor_check(op.ctx, U)
        if max(rise, -float(step.min())) < _NEWTON_TOL:
            return U, k
    raise NoConvergence(
        f"Newton's method did not reach {_NEWTON_TOL:g} in {_NEWTON_MAX} iterations"
    )


def _plateau_value(params: ModelParams, v_left: float) -> float:
    """Flat-state density consistent with a frozen chemical level.

    Solves A2 u = A3 u^2 at zero slope; when the chemical level equals the
    density this reduces exactly to a/b.
    """
    _, gp, _ = params.motility.eval(v_left)
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


def u_map(
    u,
    params: ModelParams,
    c: float,
    grid,
    *,
    u_left_bc: float | None = None,
    counts: list | None = None,
) -> np.ndarray:
    """One application of the profile map: the rest state in the field of ``u``.

    The left boundary is pinned at ``u_left_bc`` when given, otherwise at
    the flat-state density of the frozen chemical level there.  The map
    builds the frozen-field operator in the chemical field of ``u`` once.
    Above the minimal speed it finds the rest state by Newton's method from
    the upper envelope (``_newton_rest_state``).  At c = 2 sqrt(a) it
    instead marches the frozen-field relaxation to rest
    (``_march_rest_state``); this second path is temporary and stays only
    until the critical profile is defined by something other than when the
    march stops.  When ``counts`` is given, the map appends one triple to
    it: the march's steps per checkpoint, its checkpoints and the Newton
    iterations, each 0 on the path not taken.
    """
    op = _frozen_operator(u, params, c, grid, u_left_bc)
    if op.ctx.is_critical:
        U, steps, checkpoints = _march_rest_state(op)
        taken = (steps, checkpoints, 0)
    else:
        U, iterations = _newton_rest_state(op)
        taken = (0, 0, iterations)
    if counts is not None:
        counts.append(taken)
    U.setflags(write=False)
    return U


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
    ``march_steps_per_checkpoint`` is the largest step count of any
    frozen-field march of the run and ``checkpoints`` the number of
    checkpoints all its marches took, both 0 when no map marched;
    ``newton_iterations`` is the number of Newton iterations all its maps
    took, 0 at the minimal speed.  The ``wave`` command saves ``grid``,
    ``U``, ``V``, ``Uprime`` and ``Vprime`` as ``wave.bin``, ``n_points``
    little-endian float64 each, in that order, with the scalars in its
    header ``wave.json``.
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
    march_steps_per_checkpoint: int
    checkpoints: int
    newton_iterations: int


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


def _residual_v(h: float, U, V, c: float) -> np.ndarray:
    """Centred-difference residual of V'' + c V' + U - V on interior nodes."""
    vp = (V[2:] - V[:-2]) / (2.0 * h)
    vpp = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / h**2
    return vpp + c * vp + U[1:-1] - V[1:-1]


def _profile_residuals(grid, U, V, params: ModelParams, c: float):
    """Sup-norm interior residuals of the frozen-field and chemical equations."""
    h = float(grid[1] - grid[0])
    up = (U[2:] - U[:-2]) / (2.0 * h)
    upp = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / h**2
    vp = (V[2:] - V[:-2]) / (2.0 * h)
    res_l = residual_l(U[1:-1], up, upp, V[1:-1], vp, params, c)
    res_v = _residual_v(h, U, V, c)
    return float(np.max(np.abs(res_l))), float(np.max(np.abs(res_v)))


def traveling_wave(
    params: ModelParams, c: float, *, h: float | None = None
) -> WaveProfile:
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
    counts: list[tuple[int, int, int]] = []
    for k in range(_PICARD_MAX):
        # the first sweep pins the left end at the envelope plateau eta;
        # later sweeps use the self-consistent flat-state value
        u_new = u_map(
            u, params, c, grid, u_left_bc=ctx.eta if k == 0 else None, counts=counts
        )
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
        march_steps_per_checkpoint=max((steps for steps, _, _ in counts), default=0),
        checkpoints=sum(taken for _, taken, _ in counts),
        newton_iterations=sum(iterations for _, _, iterations in counts),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Independent re-check of a finished profile."""

    passed: bool
    checks: tuple[CheckRecord, ...]


def verify_profile(profile: WaveProfile, params: ModelParams) -> VerificationReport:
    """Re-check a profile against the original wave system.

    All quantities are recomputed from the stored arrays with independent
    finite differences: sup-norm residuals of (gamma(V) U)'' + c U' +
    U (a - b U) and V'' + c V' + U - V, plateau limits, tail ratios, end
    flatness (the least-squares slope over each end tenth of the grid, by
    ``frontmetrics._line_fit``, the fit ``wave_speed`` and ``decay_fit``
    share), and positivity.  The plateau target a/b applies when the
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

    g = params.motility.gamma(V)
    W = g * U
    wpp = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / h**2
    up = (U[2:] - U[:-2]) / (2.0 * h)
    ui = U[1:-1]
    res_u = wpp + c * up + ui * (params.a - params.b * ui)
    record("residual_u_equation", _RESIDUAL_TOL - np.abs(res_u), grid[1:-1])

    res_v = _residual_v(h, U, V, c)
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
        slopes = (
            abs(_line_fit(grid[:n_end], values[:n_end])[0]),
            abs(_line_fit(grid[-n_end:], values[-n_end:])[0]),
        )
        record(name, _SLOPE_TOL - np.array(slopes), (grid[0], grid[-1]))

    record("positivity", np.minimum(U, V), grid)

    return VerificationReport(
        checks=tuple(checks), passed=all(ch.passed for ch in checks)
    )
