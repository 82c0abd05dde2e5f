"""Tests for the constructive traveling-wave solver.

The auxiliary march starts at the super-solution and must decrease in time
while staying inside the certified sandwich; its long-time limit is one
application of the profile map, and Picard iteration of that map produces
the wave.  Above the minimal speed the map takes Newton's method instead,
whose corrections must be nonpositive and whose limit must be the march's.  End-to-end targets: tail ratios U/e^{-lam z} -> 1 and
V/e^{-lam z} -> 1/(1+a), left plateaus a/b, and small residuals of the
original wave system.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrf, dgttrs

import wavemotil.cli as cli
import wavemotil.pde as pde
from wavemotil import (
    BlowUp,
    ConfigError,
    ModelParams,
    NoConvergence,
    NonFiniteState,
    NonMonotone,
    PowerMotility,
    SpeedBelowMinimal,
    decay_fit,
    default_wave_grid,
    front_position,
    residual_l,
    solve_v,
    speed_window,
    super_solution,
    traveling_wave,
    u_map,
    verify_profile,
)
from wavemotil import frontmetrics, waveode
from wavemotil.analysis import b_star, c_star
from wavemotil.cli import _json_tree
from wavemotil.waveode import WaveProfile, _fit_tail_ratio

A, B, M = 0.1, 60.0, 6.0
PARAMS = ModelParams(a=A, b=B, motility=PowerMotility(M))
C_MIN = 2.0 * math.sqrt(A)
# a = 3, where the explicit quadratic term needs 15 steps per checkpoint
A3_PARAMS = ModelParams(a=3.0, b=171.0, motility=PowerMotility(M))
A3_C_MIN = 2.0 * math.sqrt(3.0)


@pytest.fixture(scope="module")
def critical_profile():
    return traveling_wave(PARAMS, C_MIN)


# ------------------------------------------------------------- aux march
def _frozen_field(u, params, c, grid):
    return waveode._FrozenField(waveode._frozen_operator(u, params, c, grid))


def test_relaxation_starts_at_the_super_solution(monkeypatch):
    advance = waveode._FrozenField.advance_checkpoint
    states = []

    def recording(self, state):
        states.append(state.copy())
        return advance(self, state)

    monkeypatch.setattr(waveode._FrozenField, "advance_checkpoint", recording)
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    u_map(u0, PARAMS, C_MIN, grid)
    assert np.array_equal(states[0], u0)


def test_relaxation_checkpoints_decrease_in_time():
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    field = _frozen_field(u0, PARAMS, C_MIN, grid)
    snapshots = [np.asarray(u0, dtype=float)]
    for _ in range(10):
        snapshots.append(field.advance_checkpoint(snapshots[-1]))
    changes = [new - old for old, new in zip(snapshots, snapshots[1:])]
    assert max(float(change.max()) for change in changes) <= 1e-9
    for snap in snapshots:
        assert np.all(snap <= u0 + 1e-9)
        assert np.all(snap >= -1e-12)
    assert np.max(np.abs(changes[-1])) < np.max(np.abs(changes[0]))


def test_auxiliary_raises_when_a_snapshot_rises(monkeypatch):
    # at the default slack: the first checkpoint descends as marched, the
    # second rises by 1e-6 everywhere, inside the corridor
    advance = waveode._FrozenField.advance_checkpoint
    calls = []

    def rising_second_checkpoint(self, state):
        calls.append(None)
        return advance(self, state) if len(calls) == 1 else state + 1e-6

    monkeypatch.setattr(
        waveode._FrozenField, "advance_checkpoint", rising_second_checkpoint
    )
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    with pytest.raises(NonMonotone, match=r"rose by 1\.000e-06 at t=2"):
        u_map(u0, PARAMS, C_MIN, grid)


def test_profile_map_rejects_states_outside_the_corridor(monkeypatch):
    grid = default_wave_grid(PARAMS, C_MIN)
    ctx = speed_window(PARAMS, C_MIN)
    u0 = super_solution(ctx, grid)
    monkeypatch.setattr(
        waveode._FrozenField,
        "advance_checkpoint",
        lambda self, state: np.full_like(state, 2.5 * ctx.eta),
    )
    with pytest.raises(BlowUp, match="left the corridor"):
        u_map(u0, PARAMS, C_MIN, grid)


# the fields of the envelope at the gate's critical and mid-window speeds and
# at a = 3, with the step counts the rule gives on them
_STEP_CASES = {
    "gate-critical": (PARAMS, C_MIN, 1),
    "gate-mid": (PARAMS, 0.88, 1),
    "a3-critical": (A3_PARAMS, A3_C_MIN, 15),
}


@functools.cache
def _envelope_field(case):
    params, c, _ = _STEP_CASES[case]
    grid = default_wave_grid(params, c)
    u0 = super_solution(speed_window(params, c), grid)
    return _frozen_field(u0, params, c, grid)


def _general_lu_checkpoint(u, params, c, grid, state, steps):
    """One checkpoint of ``steps`` frozen-field steps on U itself, with one
    dgttrf factor and one dgttrs solve per step: the oracle for the scaled
    march."""
    ctx = speed_window(params, c)
    h = float(grid[1] - grid[0])
    vsol = waveode._chemical_field(grid, u, c, ctx.lam)
    V, Vp = vsol.values, vsol.dvalues
    g, gp, gpp = params.motility.eval(V)
    a1 = ((2.0 * gp * Vp + c) / g)[1:-1]
    a2 = ((gpp * Vp**2 + gp * (V - c * Vp) + params.a) / g)[1:-1]
    a3 = ((gp + params.b) / g)[1:-1]
    dt = waveode._CHECKPOINT_DT / steps
    lower = 1.0 / h**2 - a1 / (2.0 * h)
    upper = 1.0 / h**2 + a1 / (2.0 * h)
    main = -2.0 / h**2 + a2
    *factor, info = dgttrf(-dt * lower[1:], 1.0 - dt * main, -dt * upper[:-1])
    assert info == 0
    u_left = waveode._plateau_value(params, float(V[0]))
    u_right = math.exp(min(-ctx.lam * grid[-1], math.log(ctx.eta)))
    U = state
    for _ in range(steps):
        ui = U[1:-1]
        rhs = ui - dt * a3 * ui * ui
        rhs[0] += dt * (lower[0] * u_left)
        rhs[-1] += dt * (upper[-1] * u_right)
        new = np.empty_like(U)
        new[0] = u_left
        new[-1] = u_right
        new[1:-1], info = dgttrs(*factor, rhs)
        assert info == 0
        U = new
    return U


def _march_both_ways(field, u, params, c, grid):
    state = oracle = np.asarray(u, dtype=float)
    for _ in range(3):
        state = field.advance_checkpoint(state)
        oracle = _general_lu_checkpoint(
            u, params, c, grid, oracle, field.steps_per_checkpoint
        )
    return state, oracle


def _assert_scaled_march_is_the_general_lu_march(case):
    params, c, _ = _STEP_CASES[case]
    field = _envelope_field(case)
    assert np.ptp(np.log(field.s)) > 60.0  # the similarity is far from the identity
    u0 = super_solution(field.op.ctx, field.op.grid)
    state, oracle = _march_both_ways(field, u0, params, c, field.op.grid)
    assert np.max(np.abs(state - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_scaled_march_agrees_with_the_general_lu_march():
    _assert_scaled_march_is_the_general_lu_march("gate-critical")


def test_scaled_march_at_15_steps_per_checkpoint_agrees_with_the_general_lu_march():
    _assert_scaled_march_is_the_general_lu_march("a3-critical")


def test_fast_wave_at_c_9_5_takes_newton_and_verifies():
    # at c = 9.5 with a = 1 the march's similarity would span about
    # e^{+-1000}; Newton needs none
    params = ModelParams(a=1.0, b=290.0, motility=PowerMotility(6.0))
    prof = traveling_wave(params, 9.5)
    assert prof.picard_iterations == 3
    assert prof.checkpoints == 0 and prof.newton_iterations >= 3
    assert verify_profile(prof, params).passed


# at c = 2 sqrt(a), the one speed that marches, s and W = U / s stay normal
# floats (|log s| below about 700) with a wide margin: over the window's
# corners on the default grid, and at the gate's point for coarse and fine h
_SPAN_CASES = [
    (a, b_factor * b_star(m, a), m, None)
    for a in (0.1, 1.0, 3.0, 20.0)
    for m in (2.0, 6.0)
    for b_factor in (1.5, 5.0)
] + [(A, B, M, h) for h in (0.025, 0.05, 0.5, 2.0)]


@pytest.mark.parametrize(
    "a, b, m, h",
    _SPAN_CASES,
    ids=[f"a{a:g}-b{b:.4g}-m{m:g}-h{h}" for a, b, m, h in _SPAN_CASES],
)
def test_march_similarity_stays_in_the_float_range_at_the_minimal_speed(a, b, m, h):
    params = ModelParams(a=a, b=b, motility=PowerMotility(m))
    c = 2.0 * math.sqrt(a)
    grid = default_wave_grid(params, c, h)
    u0 = super_solution(speed_window(params, c), grid)
    assert 0.5 * np.ptp(np.log(_frozen_field(u0, params, c, grid).s)) < 100.0


@pytest.mark.parametrize(
    "c, h",
    [(C_MIN, 0.05), (0.88, 0.05), (C_MIN, 0.025)],
    ids=["critical", "c0.88", "fine"],
)
def test_picard_counts_are_those_of_the_general_lu_march(c, h):
    assert traveling_wave(PARAMS, c, h=h).picard_iterations == 5


def test_march_factorization_failure_raises_non_finite_state(monkeypatch):
    monkeypatch.setattr(pde, "dpttrf", lambda d, e, **kw: (d, e, 7))
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    with pytest.raises(NonFiniteState, match="LAPACK info 7"):
        u_map(u0, PARAMS, C_MIN, grid)


def test_march_rejects_a_grid_too_coarse_for_the_drift():
    # at c* of b = 200 the drift is about c, so h = 0.25 gives h |A1| / 2 > 1
    params = ModelParams(a=A, b=200.0, motility=PowerMotility(M))
    c = c_star(A, 200.0, M)
    grid = default_wave_grid(params, c, 0.25)
    u0 = super_solution(speed_window(params, c), grid)
    with pytest.raises(NonFiniteState, match=r"h \|A1\| / 2 >= 1 .* h = 0.25"):
        u_map(u0, params, c, grid)


@pytest.mark.parametrize("case", list(_STEP_CASES))
def test_march_step_count_comes_from_the_order_preserving_bounds(case):
    field = _envelope_field(case)
    steps = _STEP_CASES[case][2]
    assert field.steps_per_checkpoint == steps
    # the quadratic term's bound holds and binds: one step fewer breaks it
    bound = 4.0 * float(np.max(field.dt_a3_s / field.s)) * field.op.ctx.eta
    assert bound <= 1.0
    if steps > 1:
        assert bound * steps / (steps - 1) > 1.0


@pytest.mark.parametrize("case", list(_STEP_CASES))
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    floor=st.floats(min_value=0.0, max_value=0.99),
    ties=st.floats(min_value=0.0, max_value=1.0),
)
def test_one_checkpoint_preserves_the_order_of_two_states(case, seed, floor, ties):
    # comparison principle of the discrete march: 0 <= U1 <= U2 <= 2 eta
    # node by node stays ordered after a checkpoint
    field = _envelope_field(case)
    ceiling = 2.0 * field.op.ctx.eta
    rng = np.random.default_rng(seed)
    n = field.op.grid.size
    upper = ceiling * rng.uniform(floor, 1.0, n)
    lower = upper * np.where(rng.random(n) < ties, 1.0, rng.random(n))
    new_lower = field.advance_checkpoint(lower)
    new_upper = field.advance_checkpoint(upper)
    assert np.all(new_lower <= new_upper + 1e-12 * ceiling)


# ----------------------------------------------------------------- u_map
def test_profile_map_output_stays_in_the_sandwich_and_contracts():
    grid = default_wave_grid(PARAMS, C_MIN)
    ctx = speed_window(PARAMS, C_MIN)
    u0 = super_solution(ctx, grid)
    u1 = u_map(u0, PARAMS, C_MIN, grid)
    assert np.all(u1 > 0.0)
    assert np.all(u1 <= u0 + 1e-9)
    change1 = float(np.max(np.abs(u1 - u0)))
    u2 = u_map(u1, PARAMS, C_MIN, grid)
    change2 = float(np.max(np.abs(u2 - u1)))
    assert change2 < change1


def test_profile_map_raises_when_a_snapshot_rises(monkeypatch):
    monkeypatch.setattr(waveode, "_MONOTONE_SLACK", -1.0)
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    with pytest.raises(NonMonotone, match="rose by .* at t=1"):
        u_map(u0, PARAMS, C_MIN, grid)


def test_profile_map_gives_up_at_its_time_cap(monkeypatch):
    monkeypatch.setattr(waveode, "_T_MAX", 2.0)
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    with pytest.raises(NoConvergence, match="within t=2"):
        u_map(u0, PARAMS, C_MIN, grid)


def test_profile_map_limit_satisfies_the_frozen_field_equation():
    grid = default_wave_grid(PARAMS, C_MIN)
    ctx = speed_window(PARAMS, C_MIN)
    u0 = super_solution(ctx, grid)
    u1 = u_map(u0, PARAMS, C_MIN, grid)
    h = grid[1] - grid[0]
    sol = solve_v(
        grid, u0, C_MIN,
        u_left=float(u0[0]),
        tail_amplitude=float(u0[-1] * math.exp(ctx.lam * grid[-1])),
        tail_rate=ctx.lam,
    )
    upp = (u1[2:] - 2.0 * u1[1:-1] + u1[:-2]) / h**2
    up = (u1[2:] - u1[:-2]) / (2.0 * h)
    res = residual_l(
        u1[1:-1], up, upp, sol.values[1:-1], sol.dvalues[1:-1], PARAMS, C_MIN
    )
    assert np.max(np.abs(res)) < 10.0 * (h**2 + 1e-8)


# --------------------------------------------------------- traveling wave
def test_traveling_wave_at_a3_critical_speed_returns_a_profile():
    # the march stays in its corridor; verification at 2 sqrt(a) is the
    # critical tail's open question, not the march's
    prof = traveling_wave(A3_PARAMS, A3_C_MIN)
    assert prof.march_steps_per_checkpoint == 15
    eta = speed_window(A3_PARAMS, A3_C_MIN).eta
    assert np.all(prof.U > 0.0) and np.all(prof.U <= 2.0 * eta)


_SWEEP = [
    (a, m, share)
    for a in (0.1, 0.5, 1.0, 2.0, 3.0)
    for m in (2.0, 6.0)
    for share in (0.25, 0.5)
]


@pytest.mark.parametrize(
    "a, m, share", _SWEEP, ids=[f"a{a:g}-m{m:g}-{share:g}" for a, m, share in _SWEEP]
)
def test_march_returns_a_profile_across_the_window(a, m, share):
    # b = 1.5 b*, c a quarter and half into the window [2 sqrt(a), c*]
    b = 1.5 * b_star(m, a)
    params = ModelParams(a=a, b=b, motility=PowerMotility(m))
    c_min = 2.0 * math.sqrt(a)
    c = c_min + share * (c_star(a, b, m) - c_min)
    prof = traveling_wave(params, c)
    assert np.all(prof.U > 0.0)
    if a <= 1.0:
        report = verify_profile(prof, params)
        assert report.passed, [ch.name for ch in report.checks if not ch.passed]


# ---------------------------------------------------------------- Newton
_NEWTON_CASES = [(A, B, M, 0.88)] + [
    (a, 1.5 * b_star(m, a), m, 2.0 * math.sqrt(a) + share * (
        c_star(a, 1.5 * b_star(m, a), m) - 2.0 * math.sqrt(a)))
    for a, m, share in _SWEEP
]
_NEWTON_IDS = ["gate-0.88"] + [f"a{a:g}-m{m:g}-{share:g}" for a, m, share in _SWEEP]


@functools.cache
def _envelope_operator(case):
    a, b, m, c = case
    params = ModelParams(a=a, b=b, motility=PowerMotility(m))
    grid = default_wave_grid(params, c)
    u0 = super_solution(speed_window(params, c), grid)
    return params, u0, waveode._frozen_operator(u0, params, c, grid)


def _march_to_rest(case):
    """The march of the envelope's field from the envelope, run until a
    checkpoint changes U by less than 1e-15."""
    params, u0, op = _envelope_operator(case)
    field = waveode._FrozenField(op)
    state = np.asarray(u0, dtype=float)
    while True:
        new = field.advance_checkpoint(state)
        if np.max(np.abs(new - state)) < 1e-15:
            return new
        state = new


@pytest.mark.parametrize("case", _NEWTON_CASES, ids=_NEWTON_IDS)
def test_newton_rest_state_is_the_march_run_to_rest(case):
    U, iterations = waveode._newton_rest_state(_envelope_operator(case)[2])
    assert iterations <= 10
    assert np.max(np.abs(U - _march_to_rest(case))) <= 1e-12


@pytest.mark.parametrize("case", _NEWTON_CASES, ids=_NEWTON_IDS)
def test_every_newton_correction_is_nonpositive(case, monkeypatch):
    # the iterates are the dgtsv solutions; the first correction is taken
    # from the upper envelope
    params, u0, op = _envelope_operator(case)
    iterates = [np.asarray(u0)[1:-1]]
    solve = waveode.dgtsv

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        iterates.append(out[3].copy())
        return out

    monkeypatch.setattr(waveode, "dgtsv", recording)
    U, iterations = waveode._newton_rest_state(op)
    assert len(iterates) == iterations + 1
    corrections = [new - old for old, new in zip(iterates, iterates[1:])]
    # nonpositive up to the round-off of one solve
    assert max(float(np.max(step)) for step in corrections) <= 1e-13 * float(np.max(U))
    assert np.max(np.abs(corrections[-1])) < waveode._NEWTON_TOL


def test_newton_raises_on_an_upward_correction(monkeypatch):
    # the first solve comes back 1e-6 above itself everywhere; at the far
    # end, where the envelope is already at rest, that is the whole rise
    solve = waveode.dgtsv

    def lifted(*args, **kwargs):
        *rest, x, info = solve(*args, **kwargs)
        return (*rest, x + 1e-6, info)

    monkeypatch.setattr(waveode, "dgtsv", lifted)
    op = _envelope_operator(_NEWTON_CASES[0])[2]
    with pytest.raises(NonMonotone, match=r"rose by 1\.000e-06 at iteration 1"):
        waveode._newton_rest_state(op)


def test_newton_gives_up_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(waveode, "_NEWTON_MAX", 2)
    grid = default_wave_grid(PARAMS, 0.88)
    u0 = super_solution(speed_window(PARAMS, 0.88), grid)
    with pytest.raises(NoConvergence, match="in 2 iterations"):
        u_map(u0, PARAMS, 0.88, grid)


def test_newton_solve_failure_raises_non_finite_state(monkeypatch):
    solve = waveode.dgtsv

    def singular(*args, **kwargs):
        *rest, _ = solve(*args, **kwargs)
        return (*rest, 3)

    monkeypatch.setattr(waveode, "dgtsv", singular)
    op = _envelope_operator(_NEWTON_CASES[0])[2]
    with pytest.raises(NonFiniteState, match="LAPACK info 3"):
        waveode._newton_rest_state(op)


def test_profile_map_takes_newton_above_and_the_march_at_the_minimal_speed():
    grid = default_wave_grid(PARAMS, 0.88)
    u0 = super_solution(speed_window(PARAMS, 0.88), grid)
    counts = []
    u_map(u0, PARAMS, 0.88, grid, counts=counts)
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    u_map(u0, PARAMS, C_MIN, grid, counts=counts)
    (newton, march) = counts
    assert newton[:2] == (0, 0) and newton[2] > 0
    assert march[0] == 1 and march[1] > 0 and march[2] == 0


def test_wave_above_the_minimal_speed_counts_newton_iterations_and_no_march():
    prof = traveling_wave(PARAMS, 0.88)
    assert prof.march_steps_per_checkpoint == 0 and prof.checkpoints == 0
    assert prof.newton_iterations >= prof.picard_iterations == 5
    side = _json_tree(prof)
    assert (side["march_steps_per_checkpoint"], side["checkpoints"]) == (0, 0)
    assert side["newton_iterations"] == prof.newton_iterations


# ------------------------------------------------ rest state and domain
def _rest_state_front(c, span):
    """Front (U = eta/2) of the Picard sweeps of Newton maps, run until a
    sweep changes U by less than 1e-11, on the frame grid cut at
    z_max = span / lam; the first sweep pins the left end at eta, as in
    ``traveling_wave``."""
    ctx = speed_window(PARAMS, c)
    h = waveode.frame_step(c)
    z_min = -40.0 / math.sqrt(A)
    grid = z_min + h * np.arange(int(round((span / ctx.lam - z_min) / h)) + 1)
    u = super_solution(ctx, grid)
    for k in range(waveode._PICARD_MAX):
        op = waveode._frozen_operator(u, PARAMS, c, grid, ctx.eta if k == 0 else None)
        new, _ = waveode._newton_rest_state(op)
        change = float(np.max(np.abs(new - u)))
        u = new
        if change < 1e-11:
            return front_position(grid, u, 0.5 * ctx.eta)
    raise AssertionError("the Picard sweeps did not come to rest")


@pytest.mark.parametrize(
    "c, fronts",
    [(C_MIN, (2.295, 0.790)), (0.88, (41.284, 41.282))],
    ids=["critical", "c0.88"],
)
def test_rest_state_moves_with_the_domain_only_at_the_minimal_speed(c, fronts):
    # At 2 sqrt(a) the front moves back as the domain grows, the signature
    # of a tail (A z + B) e^{-lam z}; above it the front stays put.
    near, far = _rest_state_front(c, 40.0), _rest_state_front(c, 60.0)
    assert (near, far) == pytest.approx(fronts, abs=1e-3)
    if c == C_MIN:
        assert near - far > 1.0
    else:
        assert abs(near - far) < 0.01


def test_frame_grid_past_the_run_bound_is_refused_before_it_exists(monkeypatch):
    # h = 1e-8 gives 2e10 frame nodes, 160 GB of float64: refused from the
    # node count alone, before np.arange is asked for the grid.
    def no_grid(*args, **kwargs):
        pytest.fail("np.arange asked for a refused frame grid")

    monkeypatch.setattr(waveode.np, "arange", no_grid)
    with pytest.raises(ConfigError, match="at most MAX_RUN_COUNT = 10,000,000"):
        default_wave_grid(PARAMS, 0.88, 1e-8)


# ------------------------------------------------------------- frame step
@pytest.mark.parametrize(
    "params, c",
    [
        (PARAMS, C_MIN),
        (PARAMS, 0.88),
        (PARAMS, 0.5 * (C_MIN + c_star(A, B, M))),
        (PARAMS, c_star(A, B, M)),
    ],
    ids=["critical", "c0.88", "mid", "endpoint"],
)
def test_default_frame_step_is_0_05_at_the_gate_speeds(params, c):
    grid = default_wave_grid(params, c)
    assert np.array_equal(grid, default_wave_grid(params, c, 0.05))


@pytest.mark.parametrize("m", [2.0, 6.0])
def test_frame_step_follows_the_drift_at_a_20(m):
    # at a = 20, b = 5 b*, a quarter into the window, h = 0.05 gives
    # h |A1| / 2 >= 1; the default step follows 1 / |lambda_1| instead
    a = 20.0
    b = 5.0 * b_star(m, a)
    params = ModelParams(a=a, b=b, motility=PowerMotility(m))
    c_min = 2.0 * math.sqrt(a)
    c = c_min + 0.25 * (c_star(a, b, m) - c_min)
    grid = default_wave_grid(params, c)
    assert grid[1] - grid[0] == pytest.approx(0.14 / (0.5 * (c + math.hypot(c, 2.0))))
    prof = traveling_wave(params, c)
    assert np.all(prof.U > 0.0) and prof.newton_iterations > 0
    with pytest.raises(NonFiniteState, match=r"h \|A1\| / 2 >= 1"):
        traveling_wave(params, c, h=0.05)


def test_traveling_wave_rejects_subminimal_speed():
    with pytest.raises(SpeedBelowMinimal):
        traveling_wave(PARAMS, 0.5 * C_MIN)


def test_traveling_wave_gives_up_at_its_picard_cap(monkeypatch):
    monkeypatch.setattr(waveode, "_PICARD_MAX", 1)
    with pytest.raises(NoConvergence, match="in 1 iterations"):
        traveling_wave(PARAMS, C_MIN, h=0.2)


def test_traveling_wave_converges_to_the_advertised_asymptotics(critical_profile):
    prof = critical_profile
    assert prof.c == pytest.approx(C_MIN)
    assert abs(prof.tail_ratio_U - 1.0) < 0.02
    assert abs(prof.tail_ratio_V - 1.0 / (1.0 + A)) < 0.02 / (1.0 + A)
    eq = A / B
    assert abs(prof.left_limit_U - eq) < 0.02 * eq
    assert abs(prof.left_limit_V - eq) < 0.02 * eq
    assert prof.ode_residual_l < 1e-4
    assert prof.ode_residual_v < 1e-4
    assert np.all(prof.U > 0.0)
    assert np.all(prof.V > 0.0)


def test_traveling_wave_profile_is_monotone_front(critical_profile):
    # the certified corridor forces a monotone decreasing connection
    U = critical_profile.U
    assert np.all(np.diff(U) <= 1e-10)


def test_verification_report_passes_for_the_converged_wave(critical_profile):
    report = verify_profile(critical_profile, PARAMS)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    names = {c.name for c in report.checks}
    assert {
        "residual_u_equation",
        "residual_v_equation",
        "left_limit_u",
        "left_limit_v",
        "tail_ratio_u",
        "tail_ratio_v",
        "flat_ends_u",
        "flat_ends_v",
        "positivity",
    } <= names


def _line_fits_of(profile, monkeypatch):
    """The (x, y) of every line fit ``decay_fit`` and ``verify_profile``
    make on ``profile``: the tail of U, then each field's two end tenths."""
    fits = []
    line_fit = frontmetrics._line_fit

    def spy(x, y):
        fits.append((x.copy(), y.copy()))
        return line_fit(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(frontmetrics, "_line_fit", spy)
        patch.setattr(waveode, "_line_fit", spy)
        decay_fit(profile.grid, profile.U)
        verify_profile(profile, PARAMS)
    assert len(fits) == 5
    return fits


def test_line_fit_agrees_with_polyfit_on_decay_and_verification_inputs(
    critical_profile, monkeypatch
):
    # Slopes and intercepts match np.polyfit's within 1e-12 relative.  On
    # the plateau ends a slope of 2e-10 sits on values of 1.7e-3, where
    # one rounding of the values moves any fitted slope by about
    # eps |y| / span; polyfit's slope is off by up to 0.6 of that (1e-11
    # relative) and is matched to within 4 such roundings.
    eps = np.finfo(float).eps
    for x, y in _line_fits_of(critical_profile, monkeypatch):
        slope, intercept, _, _ = frontmetrics._line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        rounding = 4.0 * eps * np.max(np.abs(y)) / (x[-1] - x[0])
        assert abs(slope - ref_slope) <= 1e-12 * abs(ref_slope) + rounding
        assert intercept == pytest.approx(ref_intercept, rel=1e-12, abs=0.0)


def test_line_fit_is_the_exact_least_squares_line_of_its_inputs(
    critical_profile, monkeypatch
):
    # Against the least-squares line in exact rational arithmetic, the
    # plateau ends included, both coefficients agree within 1e-12 relative.
    for x, y in _line_fits_of(critical_profile, monkeypatch):
        xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        sxy = sum((p - x_mean) * (q - y_mean) for p, q in zip(xs, ys))
        sxx = sum((p - x_mean) ** 2 for p in xs)
        slope, intercept, _, _ = frontmetrics._line_fit(x, y)
        assert slope == pytest.approx(float(sxy / sxx), rel=1e-12, abs=0.0)
        exact_intercept = float(y_mean - sxy / sxx * x_mean)
        assert intercept == pytest.approx(exact_intercept, rel=1e-12, abs=0.0)


def test_verification_flags_a_constant_pair_as_not_a_front():
    grid = default_wave_grid(PARAMS, C_MIN)
    eq = A / B
    n = grid.size
    prof = WaveProfile(
        grid=grid,
        U=np.full(n, eq),
        V=np.full(n, eq),
        Uprime=np.zeros(n),
        Vprime=np.zeros(n),
        c=C_MIN,
        lam=speed_window(PARAMS, C_MIN).lam,
        left_limit_U=eq,
        left_limit_V=eq,
        tail_ratio_U=math.nan,
        tail_ratio_V=math.nan,
        ode_residual_l=0.0,
        ode_residual_v=0.0,
        picard_iterations=0,
        picard_change=0.0,
        march_steps_per_checkpoint=0,
        checkpoints=0,
        newton_iterations=0,
    )
    report = verify_profile(prof, PARAMS)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["residual_u_equation"].passed
    assert by_name["residual_v_equation"].passed
    assert not by_name["tail_ratio_u"].passed


def _invisible_profile() -> WaveProfile:
    """A flat pair below the visibility floor: no tail to fit, NaN ratios."""
    grid = np.linspace(-40.0, 40.0, 1601)
    n = grid.size
    return WaveProfile(
        grid=grid,
        U=np.full(n, 1e-13),
        V=np.full(n, 1e-13),
        Uprime=np.zeros(n),
        Vprime=np.zeros(n),
        c=2.0,
        lam=1.0,
        left_limit_U=1e-13,
        left_limit_V=1e-13,
        tail_ratio_U=math.nan,
        tail_ratio_V=math.nan,
        ode_residual_l=0.0,
        ode_residual_v=0.0,
        picard_iterations=0,
        picard_change=0.0,
        march_steps_per_checkpoint=0,
        checkpoints=0,
        newton_iterations=0,
    )


def test_verification_fails_a_tail_with_no_visible_values():
    # A flat pair below the visibility floor leaves no tail to fit: the
    # ratios are NaN, and a NaN margin must fail.  With kappa >= 1 the
    # plateau checks are informational, so nothing else flags the pair.
    params = ModelParams(a=1.0, b=1.0, motility=PowerMotility(4.0))
    report = verify_profile(_invisible_profile(), params)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"tail_ratio_u", "tail_ratio_v"}
    checks = {c["name"]: c for c in _json_tree(report)["checks"]}
    assert checks["tail_ratio_u"]["margin"] is None
    assert checks["left_limit_u"]["passed"] is True


def test_verification_locates_the_worse_end_and_the_lower_field():
    # U tilts only at its left end, V only at its right end, and V dips
    # below the minimum of U at z = 0, away from where U is lowest
    base = _invisible_profile()
    grid = base.grid
    U = 1.0 + 1e-3 * np.maximum(-30.0 - grid, 0.0)
    V = 1.0 - 0.5 * np.exp(-(grid**2)) + 1e-3 * np.maximum(grid - 30.0, 0.0)
    prof = dataclasses.replace(base, U=U, V=V)
    params = ModelParams(a=1.0, b=1.0, motility=PowerMotility(4.0))
    checks = {c.name: c for c in verify_profile(prof, params).checks}
    assert checks["flat_ends_u"].location == grid[0]
    assert checks["flat_ends_u"].margin == pytest.approx(1e-4 - 1e-3)
    assert checks["flat_ends_v"].location == grid[-1]
    assert checks["flat_ends_v"].margin == pytest.approx(1e-4 - 1e-3)
    assert checks["positivity"].location == 0.0
    assert checks["positivity"].margin == 0.5


def test_profile_dict_writes_non_finite_values_as_null():
    payload = _json_tree(_invisible_profile())
    assert payload["tail_ratio_U"] is None and payload["tail_ratio_V"] is None
    assert payload["c"] == 2.0
    scalars = {k: v for k, v in payload.items() if np.ndim(v) == 0}
    json.dumps(scalars, allow_nan=False)  # raises on a bare NaN token


def test_verification_flags_an_injected_perturbation(critical_profile):
    rng = np.random.default_rng(7)
    noisy_u = critical_profile.U + 1e-3 * rng.standard_normal(critical_profile.U.size)
    prof = dataclasses.replace(critical_profile, U=noisy_u)
    report = verify_profile(prof, PARAMS)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["residual_u_equation"].passed


def test_tail_fit_recovers_a_pure_exponential():
    lam = 0.25
    grid = np.arange(0.0, 160.0 + 1e-12, 0.05)
    values = 0.8 * np.exp(-lam * grid)
    ratio = _fit_tail_ratio(grid, values, lam)
    assert ratio == pytest.approx(0.8, rel=1e-10)


def test_profile_serialization_round_trips(critical_profile, tmp_path, monkeypatch):
    # The wave command saves z, U, V, U' and V' as n_points float64 each, in
    # the order its header lists them; they read back bit for bit.
    monkeypatch.setattr(cli, "traveling_wave", lambda params, c, h: critical_profile)
    raw = {"a": repr(A), "b": repr(B), "m": repr(M), "c": repr(C_MIN)}
    assert cli.cmd_wave(cli.resolve_config("wave", raw), tmp_path)[1] == [
        "wave.bin", "wave.json"
    ]
    header = json.loads((tmp_path / "wave.json").read_text())
    assert header["arrays"] == ["z", "U", "V", "Uprime", "Vprime"]
    n = header["n_points"]
    assert n == critical_profile.grid.size
    back = np.fromfile(tmp_path / "wave.bin", "<f8").reshape(5, n)
    saved = (
        critical_profile.grid, critical_profile.U, critical_profile.V,
        critical_profile.Uprime, critical_profile.Vprime,
    )
    for column, original in zip(back, saved):
        assert column.tobytes() == original.tobytes()
    side = _json_tree(critical_profile)
    assert side["c"] == critical_profile.c
    assert side["tail_ratio_U"] == critical_profile.tail_ratio_U
    assert side["picard_iterations"] == critical_profile.picard_iterations
    assert side["march_steps_per_checkpoint"] == 1
    assert side["checkpoints"] == critical_profile.checkpoints > 0
    assert side["newton_iterations"] == 0
