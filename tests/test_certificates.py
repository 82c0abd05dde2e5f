"""Tests for the super/sub-solution certificates and the chemical-field solve.

Oracles used here:
  * constant source u == K      -> V == K (equilibrium of V'' + c V' + u - V)
  * whole-line source e^{-lam x} -> V = e^{-lam x} / (1 + a)
  * finite-difference residual of V'' + c V' + u - V at interior nodes
  * closed-form branch values of the super-solution and the matching
    equation of the sub-solution at its junction point
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemotil import (
    CertificateFailed,
    ModelParams,
    NonFiniteTail,
    PowerMotility,
    WindowViolation,
    certify_pair,
    locate_junction,
    residual_l,
    solve_v,
    speed_window,
    sub_solution,
    super_solution,
    theta_bundle,
)
from wavemotil import certificates
from wavemotil.certificates import SubSolutionSpec

A, B, M = 0.1, 60.0, 6.0
PARAMS = ModelParams(a=A, b=B, motility=PowerMotility(M))
C_MIN = 2.0 * math.sqrt(A)


def _ctx(c):
    return speed_window(PARAMS, c)


def _mid_speed():
    from wavemotil import c_star

    return 0.5 * (C_MIN + c_star(A, B, M))


# ----------------------------------------------------------------- solve_v
def test_solve_v_constant_source_returns_constant():
    c = C_MIN
    K = 0.7
    grid = np.arange(0.0, 50.0 + 1e-12, 0.02)
    u = np.full_like(grid, K)
    sol = solve_v(grid, u, c, u_left=K, tail_amplitude=K, tail_rate=0.0)
    assert np.max(np.abs(sol.values - K)) < 1e-6 * K
    assert np.max(np.abs(sol.dvalues)) < 1e-6 * K


def test_solve_v_exponential_source_scales_by_one_plus_a():
    # For u = e^{-lam x} on the whole line, V = e^{-lam x}/(1+a) because
    # lam^2 - c lam - 1 = -(1+a).  The sampled left tail is constant, so the
    # identity is only valid far from the left edge; check x >= 30 where the
    # left-edge influence e^{lam1 (x - x_min)} is below 1e-17.
    for c in (C_MIN, _mid_speed()):
        ctx = _ctx(c)
        lam = ctx.lam
        grid = np.arange(0.0, 60.0 + 1e-12, 0.02)
        u = np.exp(-lam * grid)
        sol = solve_v(grid, u, c, u_left=1.0, tail_amplitude=1.0, tail_rate=lam)
        inner = grid >= 30.0
        expected = np.exp(-lam * grid[inner]) / (1.0 + A)
        rel = np.abs(sol.values[inner] - expected) / expected
        assert np.max(rel) < 1e-6
        dexpected = -lam * expected
        drel = np.abs(sol.dvalues[inner] - dexpected) / np.abs(dexpected)
        assert np.max(drel) < 1e-6


def test_solve_v_satisfies_ode_at_interior_nodes():
    c = _mid_speed()
    ctx = _ctx(c)
    h = 0.05
    grid = np.arange(-10.0, 60.0 + 1e-12, h)
    u = super_solution(ctx, grid)
    sol = solve_v(grid, u, c, u_left=ctx.eta, tail_amplitude=1.0, tail_rate=ctx.lam)
    v = sol.values
    vpp = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    vp = (v[2:] - v[:-2]) / (2.0 * h)
    res = vpp + c * vp + u[1:-1] - v[1:-1]
    assert np.max(np.abs(res)) < 10.0 * h**2 * np.max(u)


def test_solve_v_derivative_matches_finite_differences():
    c = C_MIN
    ctx = _ctx(c)
    h = 0.05
    grid = np.arange(0.0, 40.0 + 1e-12, h)
    u = super_solution(ctx, grid)
    sol = solve_v(grid, u, c, u_left=ctx.eta, tail_amplitude=1.0, tail_rate=ctx.lam)
    fd = (sol.values[2:] - sol.values[:-2]) / (2.0 * h)
    assert np.max(np.abs(fd - sol.dvalues[1:-1])) < 10.0 * h**2 * np.max(u)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.1, max_value=3.0),
    beta=st.floats(min_value=0.1, max_value=3.0),
)
def test_solve_v_is_linear(alpha, beta):
    # the kernel is linear: scaling both sources and tails scales V
    c = 1.0
    grid = np.arange(0.0, 20.0 + 1e-12, 0.05)
    u1 = np.exp(-0.3 * grid)
    u2 = 0.5 + 0.1 * np.cos(grid)
    s1 = solve_v(grid, u1, c, u_left=1.0, tail_amplitude=1.0, tail_rate=0.3)
    s2 = solve_v(grid, alpha * u1, c, u_left=alpha, tail_amplitude=alpha, tail_rate=0.3)
    assert np.max(np.abs(s2.values - alpha * s1.values)) < 1e-13 * alpha * np.max(s1.values)
    # and alpha V1 + beta V2 solves the ODE with the combined source
    s3 = solve_v(
        grid, u2, c, u_left=0.6, tail_amplitude=0.5 + 0.1 * math.cos(20.0), tail_rate=0.0
    )
    v_combo = alpha * s1.values + beta * s3.values
    h = 0.05
    vpp = (v_combo[2:] - 2.0 * v_combo[1:-1] + v_combo[:-2]) / h**2
    vp = (v_combo[2:] - v_combo[:-2]) / (2.0 * h)
    res = vpp + c * vp + (alpha * u1 + beta * u2)[1:-1] - v_combo[1:-1]
    scale = max(1.0, abs(alpha) + abs(beta))
    assert np.max(np.abs(res)) < 10.0 * h**2 * scale


def test_solve_v_is_monotone_in_the_source():
    c = C_MIN
    grid = np.arange(0.0, 30.0 + 1e-12, 0.05)
    u_low = 0.3 * np.exp(-0.5 * (grid - 10.0) ** 2)
    u_high = u_low + 0.2
    lo = solve_v(grid, u_low, c, u_left=u_low[0], tail_amplitude=u_low[-1], tail_rate=0.0)
    hi = solve_v(grid, u_high, c, u_left=u_high[0], tail_amplitude=u_high[-1], tail_rate=0.0)
    assert np.all(hi.values >= lo.values - 1e-14)


def test_solve_v_requires_tail_description():
    grid = np.arange(0.0, 10.0 + 1e-12, 0.1)
    u = np.exp(-grid)
    with pytest.raises(NonFiniteTail):
        solve_v(grid, u, 1.0, u_left=None, tail_amplitude=1.0, tail_rate=1.0)
    with pytest.raises(NonFiniteTail):
        solve_v(grid, u, 1.0, u_left=1.0, tail_amplitude=None, tail_rate=1.0)
    with pytest.raises(NonFiniteTail):
        solve_v(grid, u, 1.0, u_left=1.0, tail_amplitude=1.0, tail_rate=None)
    # a right tail growing faster than the kernel decays is not integrable
    lam2 = (-1.0 + math.sqrt(5.0)) / 2.0
    with pytest.raises(NonFiniteTail):
        solve_v(grid, u, 1.0, u_left=1.0, tail_amplitude=1.0, tail_rate=-2.0 * lam2)
    bad = u.copy()
    bad[3] = np.nan
    with pytest.raises(NonFiniteTail):
        solve_v(grid, bad, 1.0, u_left=1.0, tail_amplitude=1.0, tail_rate=1.0)


# ------------------------------------------------- super / sub evaluation
def test_super_solution_branches_and_monotonicity():
    ctx = _ctx(C_MIN)
    x_knee = -math.log(ctx.eta) / ctx.lam
    assert super_solution(ctx, x_knee + 5.0) == pytest.approx(
        math.exp(-ctx.lam * (x_knee + 5.0)), rel=1e-14
    )
    assert super_solution(ctx, x_knee - 5.0) == pytest.approx(ctx.eta, rel=1e-14)
    x = np.linspace(-30.0, 120.0, 2000)
    vals = super_solution(ctx, x)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals <= ctx.eta + 1e-15)
    assert np.all(vals > 0.0)


@pytest.mark.parametrize("c", [C_MIN, None], ids=["critical", "supercritical"])
def test_sub_solution_matches_at_junction(c):
    c = _mid_speed() if c is None else c
    ctx = _ctx(c)
    tb = theta_bundle(ctx)
    delta = 1e-6
    d0 = 1.0 if ctx.is_critical else -1.0
    x_delta, crossings = locate_junction(tb, d_n=0.5, d0=d0, delta=delta)
    assert x_delta > 0.0
    expected_crossings = 1 if ctx.is_critical else 2
    assert crossings == expected_crossings
    spec = SubSolutionSpec(n=2, d_n=0.5, d0=d0, delta=delta, x_delta=x_delta)
    tail_at_junction = 0.5 * math.exp(-tb.theta1(x_delta) * x_delta) + d0 * math.exp(
        -tb.theta2(x_delta) * x_delta
    )
    assert abs(tail_at_junction - delta) < 1e-10
    # plateau left of the junction, two-rate tail to the right
    assert sub_solution(ctx, tb, spec, x_delta - 3.0) == delta
    x_right = x_delta + 7.0
    got = sub_solution(ctx, tb, spec, x_right)
    single = 0.5 * math.exp(-tb.theta1(x_right) * x_right)
    if ctx.is_critical:
        assert got > single
    else:
        assert got < single
    # continuity across the junction
    eps = 1e-9
    assert sub_solution(ctx, tb, spec, x_delta + eps) == pytest.approx(delta, rel=1e-6)


def test_sub_solution_vectorized_matches_scalar():
    ctx = _ctx(C_MIN)
    tb = theta_bundle(ctx)
    x_delta, _ = locate_junction(tb, d_n=0.5, d0=1.0, delta=1e-6)
    spec = SubSolutionSpec(n=2, d_n=0.5, d0=1.0, delta=1e-6, x_delta=x_delta)
    xs = np.linspace(x_delta - 10.0, x_delta + 50.0, 97)
    vec = sub_solution(ctx, tb, spec, xs)
    scal = np.array([sub_solution(ctx, tb, spec, x) for x in xs])
    assert np.array_equal(vec, scal)


@pytest.mark.parametrize("delta", [1e-4, 1e-7, 1e-10])
@pytest.mark.parametrize("c", [C_MIN, 0.88], ids=["critical", "c0.88"])
def test_locate_junction_matches_scipy_brentq(c, delta):
    # scipy stays the reference here; the package no longer imports it.
    from scipy.optimize import brentq

    tb = theta_bundle(_ctx(c))
    d0 = 1.0 if tb.is_critical else -1.0

    def f(x):
        return (
            0.5 * math.exp(-tb.theta1(x) * x)
            + d0 * math.exp(-tb.theta2(x) * x)
            - delta
        )

    # rightmost sign change of the same 4097-point scan
    xs = np.linspace(0.0, 10.0 / tb.ctx.lam * (1.0 + abs(math.log(delta))), 4097)
    signs = np.sign([f(x) for x in xs])
    i = int(np.nonzero(signs[:-1] * signs[1:] < 0.0)[0][-1])
    want = brentq(f, xs[i], xs[i + 1], xtol=1e-12, rtol=4.0 * np.finfo(float).eps)
    x_delta, _ = locate_junction(tb, d_n=0.5, d0=d0, delta=delta)
    assert abs(x_delta - want) <= 1e-12 + 4.0 * np.finfo(float).eps * abs(want)


# -------------------------------------------------------------- residual_l
def test_residual_l_vanishes_for_trivial_states():
    assert residual_l(0.0, 0.0, 0.0, 0.3, 0.1, PARAMS, 1.0) == 0.0
    eq = A / B
    assert residual_l(eq, 0.0, 0.0, eq, 0.0, PARAMS, 1.0) == pytest.approx(0.0, abs=1e-18)


def test_residual_l_matches_direct_formula():
    U, Up, Upp, V, Vp, c = 0.4, -0.2, 0.05, 0.3, -0.1, 0.9
    g, gp, gpp = PARAMS.motility.eval(V)
    expected = (
        g * Upp
        + (2.0 * gp * Vp + c) * Up
        + (gpp * Vp**2 + gp * (V - U - c * Vp) + A) * U
        - B * U**2
    )
    assert residual_l(U, Up, Upp, V, Vp, PARAMS, c) == pytest.approx(expected, rel=1e-15)


# ------------------------------------------------------------ certify_pair
@pytest.mark.parametrize("which", ["critical", "mid", "endpoint"])
def test_certificate_passes_across_the_speed_window(which):
    from wavemotil import c_star

    speeds = {
        "critical": C_MIN,
        "mid": _mid_speed(),
        "endpoint": c_star(A, B, M),
    }
    report = certify_pair(PARAMS, speeds[which], n=2)
    assert report.passed
    assert all(check.passed for check in report.checks)
    assert 0.0 < report.d_n < 1.0
    assert report.x_delta > 0.0
    assert 0.0 < report.delta <= 1e-2
    names = {check.name for check in report.checks}
    assert {
        "super_plateau_branch",
        "super_exp_branch",
        "sub_plateau",
        "sub_tail",
        "theta1_quadratic",
        "theta2_quadratic",
        "junction_matching",
        "sandwich_ordering",
        "v_positive",
        "v_upper_bound",
        "dv_bound",
    } <= names


@pytest.mark.parametrize(
    "which, halvings, sign_changes",
    [("critical", 45, 1), ("c0.88", 11, 2), ("endpoint", 11, 2)],
)
def test_certificate_accepts_the_pinned_plateau_height(which, halvings, sign_changes):
    from wavemotil import c_star

    speeds = {"critical": C_MIN, "c0.88": 0.88, "endpoint": c_star(A, B, M)}
    report = certify_pair(PARAMS, speeds[which], n=2)
    assert report.delta == 1e-2 * 2.0**-halvings
    assert report.sign_changes == sign_changes


def test_certificate_minimal_speed_keeps_the_reserve_margin():
    report = certify_pair(PARAMS, C_MIN, n=2)
    theta2 = next(c for c in report.checks if c.name == "theta2_quadratic")
    # at the minimal speed the shifted-rate quadratic must clear a/64
    assert theta2.margin >= -1e-12
    assert report.d0 == 1.0


def test_certificate_supercritical_uses_negative_shifted_quadratic():
    report = certify_pair(PARAMS, _mid_speed(), n=2)
    assert report.d0 == -1.0
    theta2 = next(c for c in report.checks if c.name == "theta2_quadratic")
    assert theta2.margin >= -1e-12


def test_certify_rejects_out_of_window_parameters():
    narrow = ModelParams(a=A, b=1.0, motility=PowerMotility(M))
    with pytest.raises(WindowViolation):
        certify_pair(narrow, C_MIN, n=2)
    from wavemotil import c_star

    with pytest.raises(WindowViolation):
        certify_pair(PARAMS, c_star(A, B, M) + 0.5, n=2)


def test_certify_reports_failure_when_plateau_floor_blocks_halving(monkeypatch):
    # at the minimal speed the junction must sit far out (x_delta ~ 1e2), so
    # freezing the plateau height at its starting value cannot succeed
    monkeypatch.setattr(certificates, "_DELTA_FLOOR", 1e-2)
    with pytest.raises(CertificateFailed) as err:
        certify_pair(PARAMS, C_MIN, n=2)
    assert err.value.failing_check != ""


def test_certificate_report_serializes():
    report = certify_pair(PARAMS, _mid_speed(), n=2)
    data = report.to_dict()
    json.dumps(data)  # round-trippable
    assert data["passed"] is True
    assert data["c"] == pytest.approx(_mid_speed())


def test_certificate_junction_matching_is_tight():
    report = certify_pair(PARAMS, _mid_speed(), n=2)
    ctx = speed_window(PARAMS, report.c)
    tb = theta_bundle(ctx)
    resid = (
        report.d_n * math.exp(-tb.theta1(report.x_delta) * report.x_delta)
        + report.d0 * math.exp(-tb.theta2(report.x_delta) * report.x_delta)
        - report.delta
    )
    assert abs(resid) < 1e-10


def test_certificate_sandwich_is_strict_on_the_grid():
    report = certify_pair(PARAMS, C_MIN, n=2)
    ctx = speed_window(PARAMS, report.c)
    tb = theta_bundle(ctx)
    spec = SubSolutionSpec(
        n=report.n, d_n=report.d_n, d0=report.d0,
        delta=report.delta, x_delta=report.x_delta,
    )
    x = np.linspace(report.x_delta - 15.0, report.x_delta + 150.0, 5000)
    lower = sub_solution(ctx, tb, spec, x)
    upper = super_solution(ctx, x)
    assert np.all(lower > 0.0)
    assert np.all(lower < upper)
