"""Tests for the constructive traveling-wave solver.

The auxiliary march starts at the super-solution and must decrease in time
while staying inside the certified sandwich; its long-time limit is one
application of the profile map, and Picard iteration of that map produces
the wave.  End-to-end targets: tail ratios U/e^{-lam z} -> 1 and
V/e^{-lam z} -> 1/(1+a), left plateaus a/b, and small residuals of the
original wave system.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from wavemotil import (
    BlowUp,
    ModelParams,
    NoConvergence,
    NonMonotone,
    PowerMotility,
    SpeedBelowMinimal,
    default_wave_grid,
    residual_l,
    solve_auxiliary,
    solve_v,
    speed_window,
    super_solution,
    traveling_wave,
    u_map,
    verify_profile,
)
from wavemotil import waveode
from wavemotil.waveode import WaveProfile, _fit_tail_ratio

A, B, M = 0.1, 60.0, 6.0
PARAMS = ModelParams(a=A, b=B, motility=PowerMotility(M))
C_MIN = 2.0 * math.sqrt(A)


@pytest.fixture(scope="module")
def critical_profile():
    return traveling_wave(PARAMS, C_MIN)


# ------------------------------------------------------------- aux march
def test_auxiliary_starts_at_the_super_solution():
    grid = default_wave_grid(PARAMS, C_MIN)
    ctx = speed_window(PARAMS, C_MIN)
    u0 = super_solution(ctx, grid)
    run = solve_auxiliary(u0, PARAMS, C_MIN, 3.0, grid)
    assert np.array_equal(run.snapshots[0], u0)
    assert run.times[0] == 0.0


def test_auxiliary_snapshots_decrease_in_time():
    grid = default_wave_grid(PARAMS, C_MIN)
    ctx = speed_window(PARAMS, C_MIN)
    u0 = super_solution(ctx, grid)
    run = solve_auxiliary(u0, PARAMS, C_MIN, 10.0, grid)
    assert run.max_monotone_violation <= 1e-9
    for snap in run.snapshots:
        assert np.all(snap <= u0 + 1e-9)
        assert np.all(snap >= -1e-12)
    assert run.final_increment < np.max(np.abs(run.snapshots[1] - run.snapshots[0])) + 1e-15


def test_auxiliary_raises_when_a_snapshot_rises(monkeypatch):
    # the pinned right end never moves, so every snapshot rises by at least
    # zero, which a negative slack rejects at the first checkpoint
    monkeypatch.setattr(waveode, "_MONOTONE_SLACK", -1.0)
    grid = default_wave_grid(PARAMS, C_MIN)
    u0 = super_solution(speed_window(PARAMS, C_MIN), grid)
    with pytest.raises(NonMonotone, match="rose by .* at t=1"):
        solve_auxiliary(u0, PARAMS, C_MIN, 3.0, grid)


def test_auxiliary_rejects_states_outside_the_corridor():
    grid = default_wave_grid(PARAMS, C_MIN)
    ctx = speed_window(PARAMS, C_MIN)
    u0 = super_solution(ctx, grid)
    bad = np.full_like(grid, 2.5 * ctx.eta)
    with pytest.raises(BlowUp):
        solve_auxiliary(u0, PARAMS, C_MIN, 2.0, grid, initial=bad)


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
    checks = {c["name"]: c for c in report.to_dict()["checks"]}
    assert checks["tail_ratio_u"]["margin"] is None
    assert checks["left_limit_u"]["passed"] is True


def test_profile_dict_writes_non_finite_values_as_null():
    payload = _invisible_profile().to_dict()
    assert payload["tail_ratio_U"] is None and payload["tail_ratio_V"] is None
    assert payload["c"] == 2.0
    json.dumps(payload, allow_nan=False)  # raises on a bare NaN token


def test_verification_flags_an_injected_perturbation(critical_profile):
    rng = np.random.default_rng(7)
    noisy_u = critical_profile.U + 1e-3 * rng.standard_normal(critical_profile.U.size)
    prof = WaveProfile(
        grid=critical_profile.grid,
        U=noisy_u,
        V=critical_profile.V,
        Uprime=critical_profile.Uprime,
        Vprime=critical_profile.Vprime,
        c=critical_profile.c,
        lam=critical_profile.lam,
        left_limit_U=critical_profile.left_limit_U,
        left_limit_V=critical_profile.left_limit_V,
        tail_ratio_U=critical_profile.tail_ratio_U,
        tail_ratio_V=critical_profile.tail_ratio_V,
        ode_residual_l=critical_profile.ode_residual_l,
        ode_residual_v=critical_profile.ode_residual_v,
        picard_iterations=critical_profile.picard_iterations,
        picard_change=critical_profile.picard_change,
    )
    report = verify_profile(prof, PARAMS)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["residual_u_equation"].passed


def test_tail_fit_recovers_a_pure_exponential():
    lam = 0.25
    grid = np.arange(0.0, 160.0 + 1e-12, 0.05)
    values = 0.8 * np.exp(-lam * grid)
    ratio = _fit_tail_ratio(grid, values, lam)
    assert ratio == pytest.approx(0.8, rel=1e-10)


def test_profile_serialization_round_trips(critical_profile, tmp_path):
    path = tmp_path / "wave.csv"
    critical_profile.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z", "U", "V", "Uprime", "Vprime"]
    assert len(rows) == critical_profile.grid.size + 1
    z_back = np.array([float(r[0]) for r in rows[1:]])
    u_back = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(z_back, critical_profile.grid)
    assert np.array_equal(u_back, critical_profile.U)
    side = critical_profile.to_dict()
    assert side["c"] == critical_profile.c
    assert side["tail_ratio_U"] == critical_profile.tail_ratio_U
    assert side["picard_iterations"] == critical_profile.picard_iterations
