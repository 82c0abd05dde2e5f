"""Tests for the super/sub-solution certificates and the chemical-field solve.

Oracles used here:
  * constant source u == K      -> V == K (equilibrium of V'' + c V' + u - V)
  * whole-line source e^{-lam x} -> V = e^{-lam x} / (1 + a)
  * finite-difference residual of V'' + c V' + u - V at interior nodes
  * closed-form branch values of the super-solution and the matching
    equation of the sub-solution at its junction point
"""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtbsv

from wavemotil import (
    CertificateFailed,
    ModelParams,
    NonFiniteTail,
    PowerMotility,
    WindowViolation,
    certify_pair,
    lambda12,
    residual_l,
    solve_v,
    speed_window,
    sub_solution,
    super_solution,
    theta_bundle,
)
from wavemotil import certificates
from wavemotil.certificates import CheckRecord
from wavemotil.cli import _json_tree

A, B, M = 0.1, 60.0, 6.0
PARAMS = ModelParams(a=A, b=B, motility=PowerMotility(M))
C_MIN = 2.0 * math.sqrt(A)


def _ctx(c):
    return speed_window(PARAMS, c)


def _mid_speed():
    from wavemotil import c_star

    return 0.5 * (C_MIN + c_star(A, B, M))


def _one_height_block(tb, d_n, d0, delta):
    """Junction and sign-change count of one height, searched as a block of
    one; CertificateFailed when its scan finds no root."""
    x_delta, crossings = certificates._locate_junctions(tb, d_n, d0, [delta])
    if crossings[0] == 0:
        raise CertificateFailed("no root", failing_check="junction_matching", delta=delta)
    return float(x_delta[0]), int(crossings[0])


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


def _solve_v_by_loops(grid, u, c, u_left, tail_amplitude, tail_rate):
    """Reference: both Simpson recurrences marched one node at a time."""
    lam1, lam2 = lambda12(c)
    n, h = grid.size, float(grid[1] - grid[0])
    e1, e1inv = math.exp(lam1 * h), math.exp(-lam1 * h)
    e1sq = e1 * e1
    i1 = np.empty(n)
    i1[0] = u_left / (-lam1)
    i1[1] = e1 * i1[0] + (h / 12.0) * (5.0 * e1 * u[0] + 8.0 * u[1] - e1inv * u[2])
    for k in range(2, n):
        i1[k] = e1sq * i1[k - 2] + (h / 3.0) * (
            e1sq * u[k - 2] + 4.0 * e1 * u[k - 1] + u[k]
        )
    e2, e2inv = math.exp(-lam2 * h), math.exp(lam2 * h)
    e2sq = e2 * e2
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
    return (i1 + i2) / denom, (lam1 * i1 + lam2 * i2) / denom


@pytest.mark.parametrize("n", [5, 4097, 40001])
@pytest.mark.parametrize("which", ["critical", "mid"])
def test_solve_v_banded_solve_matches_the_simpson_loops(which, n):
    c = C_MIN if which == "critical" else _mid_speed()
    ctx = _ctx(c)
    grid = np.linspace(-30.0, 200.0, n)
    u = super_solution(ctx, grid)
    tail = dict(u_left=ctx.eta, tail_amplitude=1.0, tail_rate=ctx.lam)
    sol = solve_v(grid, u, c, **tail)
    values, dvalues = _solve_v_by_loops(grid, u, c, **tail)
    np.testing.assert_allclose(sol.values, values, rtol=1e-12, atol=0.0)
    dscale = float(np.max(np.abs(dvalues)))
    assert float(np.max(np.abs(sol.dvalues - dvalues))) <= 1e-12 * dscale
    assert not sol.values.flags.writeable and not sol.dvalues.flags.writeable


def _solve_v_in_one_solve(grid, u, c, u_left, tail_amplitude, tail_rate):
    """Reference: each Simpson recurrence as one dtbsv solve over the whole
    grid, its sources built as whole arrays."""
    lam1, lam2 = lambda12(c)
    n, h = grid.size, float(grid[1] - grid[0])
    band = np.zeros((3, n), order="F")
    e1, e1inv = math.exp(lam1 * h), math.exp(-lam1 * h)
    e1sq = e1 * e1
    i1 = np.empty(n)
    i1[0] = u_left / (-lam1)
    i1[1] = e1 * i1[0] + (h / 12.0) * (5.0 * e1 * u[0] + 8.0 * u[1] - e1inv * u[2])
    i1[2:] = (h / 3.0) * (e1sq * u[:-2] + 4.0 * e1 * u[1:-1] + u[2:])
    band[2, : n - 2] = -e1sq
    i1 = dtbsv(2, band, i1, lower=1, diag=1, overwrite_x=1)
    e2, e2inv = math.exp(-lam2 * h), math.exp(lam2 * h)
    e2sq = e2 * e2
    i2 = np.empty(n)
    i2[n - 1] = tail_amplitude * math.exp(-tail_rate * grid[n - 1]) / (lam2 + tail_rate)
    i2[n - 2] = e2 * i2[n - 1] + (h / 12.0) * (
        -e2inv * u[n - 3] + 8.0 * u[n - 2] + 5.0 * e2 * u[n - 1]
    )
    i2[: n - 2] = (h / 3.0) * (u[:-2] + 4.0 * e2 * u[1:-1] + e2sq * u[2:])
    band[0, 2:] = -e2sq
    i2 = dtbsv(2, band, i2, lower=0, diag=1, overwrite_x=1)
    denom = lam2 - lam1
    return (i1 + i2) / denom, (lam1 * i1 + lam2 * i2) / denom


_B = certificates._BLOCK


@pytest.mark.parametrize(
    "block, n",
    [(_B, n) for n in (_B - 1, _B, _B + 1, _B + 2, _B + 3, 2 * _B + 2, 2 * _B + 3)]
    + [(3, n) for n in range(5, 13)],
)
@pytest.mark.parametrize("which", ["critical", "mid"])
def test_blockwise_recurrences_are_one_solve_bit_for_bit(which, block, n):
    # the leftward sweep's blocks start at node 2 and the rightward one's
    # end at node n - 3, so these sizes put a block edge at every offset
    # from the seeds
    c = C_MIN if which == "critical" else _mid_speed()
    ctx = _ctx(c)
    grid = np.linspace(-30.0, 200.0, n)
    u = super_solution(ctx, grid)
    tail = dict(u_left=ctx.eta, tail_amplitude=1.0, tail_rate=ctx.lam)
    with mock.patch.object(certificates, "_BLOCK", block):
        sol = solve_v(grid, u, c, **tail)
    values, dvalues = _solve_v_in_one_solve(grid, u, c, **tail)
    assert sol.values.tobytes() == values.tobytes()
    assert sol.dvalues.tobytes() == dvalues.tobytes()


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


def test_solve_v_rejects_a_step_whose_panel_factor_overflows():
    # at c = 117.5, |lambda_1| h = 940 puts e^{-lambda_1 h} past the float range
    grid = np.arange(0.0, 80.0 + 1e-12, 8.0)
    with pytest.raises(NonFiniteTail, match="too coarse"):
        solve_v(grid, np.exp(-grid), 117.5, u_left=1.0, tail_amplitude=1.0, tail_rate=1.0)


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
    report = certify_pair(PARAMS, c, n=2)
    d0 = report.d0
    assert (report.d_n, d0) == (0.5, 1.0 if ctx.is_critical else -1.0)
    x_delta, crossings = _one_height_block(tb, 0.5, d0, delta)
    assert x_delta > 0.0
    expected_crossings = 1 if ctx.is_critical else 2
    assert crossings == expected_crossings
    spec = dataclasses.replace(report, delta=delta, x_delta=x_delta)
    tail_at_junction = 0.5 * math.exp(-tb.theta1(x_delta) * x_delta) + d0 * math.exp(
        -tb.theta2(x_delta) * x_delta
    )
    assert abs(tail_at_junction - delta) < 1e-10
    # plateau left of the junction, two-rate tail to the right
    assert sub_solution(tb, spec, x_delta - 3.0) == delta
    x_right = x_delta + 7.0
    got = sub_solution(tb, spec, x_right)
    single = 0.5 * math.exp(-tb.theta1(x_right) * x_right)
    if ctx.is_critical:
        assert got > single
    else:
        assert got < single
    # continuity across the junction
    eps = 1e-9
    assert sub_solution(tb, spec, x_delta + eps) == pytest.approx(delta, rel=1e-6)


def test_sub_solution_vectorized_matches_scalar():
    ctx = _ctx(C_MIN)
    tb = theta_bundle(ctx)
    x_delta, _ = _one_height_block(tb, 0.5, 1.0, 1e-6)
    report = certify_pair(PARAMS, C_MIN, n=2)
    spec = dataclasses.replace(report, delta=1e-6, x_delta=x_delta)
    xs = np.linspace(x_delta - 10.0, x_delta + 50.0, 97)
    vec = sub_solution(tb, spec, xs)
    scal = np.array([sub_solution(tb, spec, x) for x in xs])
    assert np.array_equal(vec, scal)


@pytest.mark.parametrize("delta", [1e-4, 1e-7, 1e-10])
@pytest.mark.parametrize("c", [C_MIN, 0.88], ids=["critical", "c0.88"])
def test_one_height_block_matches_scipy_brentq(c, delta):
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

    # rightmost sign change of the 4097-point scan all heights share
    x_max = 10.0 / tb.ctx.lam * (1.0 + abs(math.log(certificates._DELTA_FLOOR)))
    xs = np.linspace(0.0, x_max, 4097)
    signs = np.sign([f(x) for x in xs])
    i = int(np.nonzero(signs[:-1] * signs[1:] < 0.0)[0][-1])
    want = brentq(f, xs[i], xs[i + 1], xtol=1e-12, rtol=4.0 * np.finfo(float).eps)
    x_delta, _ = _one_height_block(tb, 0.5, d0, delta)
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


def test_certificate_minimal_speed_v_envelope_margins_are_rounding_level():
    # the kernel solve is accurate enough that these margins stay far inside
    # the 1e-5 slack; a less accurate recurrence would show here first
    report = certify_pair(PARAMS, C_MIN, n=2)
    margins = {c.name: c.margin for c in report.checks}
    assert margins["v_upper_bound"] > -1e-8
    assert margins["dv_bound"] > -1e-8


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
    # freezing the plateau height at its starting value cannot succeed; the
    # first check a full evaluation fails there is the plateau reserve
    monkeypatch.setattr(certificates, "_DELTA_FLOOR", 1e-2)
    with pytest.raises(CertificateFailed) as err:
        certify_pair(PARAMS, C_MIN, n=2)
    assert err.value.failing_check == "sub_plateau"
    assert err.value.delta == 1e-2
    assert "first failing check 'sub_plateau' at delta=0.01" in str(err.value)


def _junction_of_one_height(tb, d_n, d0, delta):
    """The junction search for one plateau height on its own: the rightmost
    sign-change cell of the 4097-point scan over [0, 10 (1 + |log floor|) /
    lambda], bisected one midpoint at a time until it is narrower than
    1e-12 + 4 eps |x|."""
    x_max = 10.0 / tb.ctx.lam * (1.0 + abs(math.log(certificates._DELTA_FLOOR)))
    xs = np.linspace(0.0, x_max, 4097)
    sign = np.sign(certificates._tail(tb, d_n, d0, xs) - delta)
    brackets = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    if len(brackets) == 0:
        raise CertificateFailed(
            "no root", failing_check="junction_matching", delta=delta
        )
    i = int(brackets[-1])
    lo, hi, right = float(xs[i]), float(xs[i + 1]), sign[i + 1]
    while hi - lo >= 1e-12 + 4.0 * np.finfo(float).eps * hi:
        mid = 0.5 * (lo + hi)
        if np.sign(certificates._tail(tb, d_n, d0, mid) - delta) == right:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), int(len(brackets))


def _certify_by_full_checks(params, c, n=2, junction=_one_height_block):
    """The halving search that evaluates every analytic check at every
    height, one height at a time, as the oracle of the search that screens
    the tail margin and locates the junctions of all heights together."""
    ctx = speed_window(params, c)
    tb = theta_bundle(ctx)
    d_n = 1.0 - 1.0 / n
    d0 = 1.0 if ctx.is_critical else -1.0
    delta = certificates._DELTA_START
    last_fail = None
    while delta >= certificates._DELTA_FLOOR:
        try:
            x_delta, crossings = junction(tb, d_n, d0, delta)
        except CertificateFailed:
            last_fail = ("junction_matching", delta)
            delta *= 0.5
            continue
        lo = x_delta - 20.0 / ctx.lam
        hi = x_delta + 200.0 / ctx.lam
        grid = np.linspace(lo, hi, certificates._GRID_POINTS)
        checks = certificates._analytic_checks(ctx, tb, d_n, d0, delta, x_delta, grid)
        failing = [ch for ch in checks if not ch.passed]
        if failing:
            last_fail = (failing[0].name, delta)
            delta *= 0.5
            continue
        checks = checks + certificates._v_checks(ctx, grid)
        failing = [ch for ch in checks if not ch.passed]
        if failing:
            raise CertificateFailed(
                f"chemical-field envelope check {failing[0].name!r} failed "
                f"(margin {failing[0].margin!r})",
                failing_check=failing[0].name,
                delta=delta,
            )
        return certificates.CertificateReport(
            a=ctx.a, b=ctx.b, m=ctx.m, c=ctx.c, n=n, d_n=d_n, d0=d0,
            delta=delta, x_delta=x_delta, sign_changes=crossings,
            grid_lo=lo, grid_hi=hi, grid_points=certificates._GRID_POINTS,
            passed=True, checks=tuple(checks),
        )
    name, bad_delta = last_fail
    raise CertificateFailed(
        f"no plateau height in [{certificates._DELTA_FLOOR!r}, "
        f"{certificates._DELTA_START!r}] passes; "
        f"first failing check {name!r} at delta={bad_delta!r}",
        failing_check=name,
        delta=bad_delta,
    )


def _outcome(certify, c, params=PARAMS, **kwargs):
    try:
        return _json_tree(certify(params, c, n=2, **kwargs))
    except CertificateFailed as err:
        return (str(err), err.failing_check, err.delta)


def _sweep_case(a, m, share):
    # b = 1.5 b*, c at 2 sqrt(a) or a quarter or half into the window
    # [2 sqrt(a), c*]
    from wavemotil import b_star, c_star

    b = 1.5 * b_star(m, a)
    c_min = 2.0 * math.sqrt(a)
    return ModelParams(a=a, b=b, motility=PowerMotility(m)), c_min + share * (
        c_star(a, b, m) - c_min
    )


_SWEEP = [
    (a, m, share)
    for a in (0.1, 0.5, 1.0, 2.0, 3.0)
    for m in (2.0, 6.0)
    for share in (0.0, 0.25, 0.5)
]


@pytest.mark.parametrize(
    "a, m, share", _SWEEP, ids=[f"a{a:g}-m{m:g}-{share:g}" for a, m, share in _SWEEP]
)
def test_certify_matches_a_search_of_one_height_at_a_time_across_the_window(a, m, share):
    params, c = _sweep_case(a, m, share)
    assert _outcome(certify_pair, c, params) == _outcome(
        _certify_by_full_checks, c, params, junction=_junction_of_one_height
    )


@pytest.mark.parametrize("which", ["critical", "mid", "endpoint"])
def test_certify_matches_a_search_of_one_height_at_a_time_at_the_gate_speeds(which):
    from wavemotil import c_star

    c = {"critical": C_MIN, "mid": _mid_speed(), "endpoint": c_star(A, B, M)}[which]
    assert _outcome(certify_pair, c) == _outcome(
        _certify_by_full_checks, c, junction=_junction_of_one_height
    )


@pytest.mark.parametrize("c", [C_MIN, 0.88, 0.75], ids=["critical", "c0.88", "c0.75"])
def test_one_height_block_is_its_row_of_the_block_search_bit_for_bit(c):
    # all 54 heights from 1e-2 down to the floor, in one search; above the
    # minimal speed the four largest have no root.  At c = 0.75 the heights'
    # brackets fall below the tolerance on different bisection steps, so a
    # bracket narrowed past its own stop would show here.
    tb = theta_bundle(_ctx(c))
    d0 = 1.0 if tb.is_critical else -1.0
    deltas = [1e-2 * 2.0**-k for k in range(54)]
    assert deltas[-1] >= certificates._DELTA_FLOOR > 0.5 * deltas[-1]
    junctions, crossings = certificates._locate_junctions(tb, 0.5, d0, deltas)
    assert np.count_nonzero(crossings == 0) == (0 if tb.is_critical else 4)
    for delta, x_delta, count in zip(deltas, junctions.tolist(), crossings.tolist()):
        if count == 0:
            assert math.isnan(x_delta)
            with pytest.raises(CertificateFailed):
                _one_height_block(tb, 0.5, d0, delta)
        else:
            assert _one_height_block(tb, 0.5, d0, delta) == (x_delta, count)
            assert _junction_of_one_height(tb, 0.5, d0, delta) == (x_delta, count)


@pytest.mark.parametrize("floor", [None, 1e-2, 1e-9], ids=["default", "1e-2", "1e-9"])
@pytest.mark.parametrize("c", [C_MIN, 0.88], ids=["critical", "c0.88"])
def test_certify_matches_the_search_that_evaluates_every_check(monkeypatch, c, floor):
    if floor is not None:
        monkeypatch.setattr(certificates, "_DELTA_FLOOR", floor)
    assert _outcome(certify_pair, c) == _outcome(_certify_by_full_checks, c)


@pytest.mark.parametrize("floor", [None, 1e-2, 1e-9], ids=["default", "1e-2", "1e-9"])
@pytest.mark.parametrize("c", [C_MIN, 0.88], ids=["critical", "c0.88"])
@pytest.mark.parametrize("screen", ["one", "grid"])
def test_certify_matches_the_full_search_at_any_screen_length(monkeypatch, screen, c, floor):
    points = {"one": 1, "grid": certificates._GRID_POINTS}[screen]
    monkeypatch.setattr(certificates, "_SCREEN_POINTS", points)
    if floor is not None:
        monkeypatch.setattr(certificates, "_DELTA_FLOOR", floor)
    assert _outcome(certify_pair, c) == _outcome(_certify_by_full_checks, c)


@pytest.mark.parametrize("which", ["critical", "mid", "c0.88"])
def test_tail_screen_margins_are_the_full_margins_bit_for_bit(which):
    c = {"critical": C_MIN, "mid": _mid_speed(), "c0.88": 0.88}[which]
    ctx = speed_window(PARAMS, c)
    tb = theta_bundle(ctx)
    d_n, d0 = 0.5, (1.0 if ctx.is_critical else -1.0)
    delta, heights = certificates._DELTA_START, 0
    while delta >= certificates._DELTA_FLOOR:
        try:
            x_delta, _ = _one_height_block(tb, d_n, d0, delta)
        except CertificateFailed:
            delta *= 0.5
            continue
        grid = np.linspace(
            x_delta - 20.0 / ctx.lam, x_delta + 200.0 / ctx.lam, certificates._GRID_POINTS
        )
        xr = grid[grid > x_delta]
        full = certificates._sub_tail_margin(ctx, tb, d_n, d0, xr, tb.theta1(xr))
        start = int(np.searchsorted(grid, x_delta, side="right"))
        xs = grid[start : start + certificates._SCREEN_POINTS]
        screen = certificates._sub_tail_margin(ctx, tb, d_n, d0, xs, tb.theta1(xs))
        assert xs.tobytes() == xr[: xs.size].tobytes()
        assert screen.tobytes() == full[: xs.size].tobytes()
        heights += 1
        delta *= 0.5
    assert heights >= 46


def test_certify_evaluates_the_full_tail_margin_only_at_the_accepted_height(monkeypatch):
    points = []
    original = certificates._sub_tail_margin

    def counting(ctx, tb, d_n, d0, xr, th1):
        points.append(xr.size)
        return original(ctx, tb, d_n, d0, xr, th1)

    monkeypatch.setattr(certificates, "_sub_tail_margin", counting)
    report = certify_pair(PARAMS, C_MIN, n=2)
    assert report.delta == 1e-2 * 2.0**-45
    # every height is screened on its first points past the junction; only
    # the accepted one, the last screened, is evaluated on the whole grid
    # past its junction, in blocks (47 full-length margins without the
    # screen)
    grid = np.linspace(report.grid_lo, report.grid_hi, report.grid_points)
    full = int(np.count_nonzero(grid > report.x_delta))
    assert points[:46] == [certificates._SCREEN_POINTS] * 46
    assert sum(points[46:]) == full


def test_certify_runs_the_full_checks_only_at_the_accepted_height(monkeypatch):
    counts = {"_locate_junctions": 0, "_analytic_checks": 0}

    def counting(name):
        original = getattr(certificates, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(certificates, name, counting(name))
    report = certify_pair(PARAMS, C_MIN, n=2)
    assert report.delta == 1e-2 * 2.0**-45
    # every height is located by one search
    assert counts == {"_locate_junctions": 1, "_analytic_checks": 1}


@pytest.mark.parametrize("c", [C_MIN, _mid_speed()], ids=["critical", "mid"])
def test_analytic_checks_evaluate_theta1_once_per_point(monkeypatch, c):
    # theta1 is evaluated once at each grid point past the junction (and
    # once at the junction itself), and the sub-solution the checks build
    # from those values is sub_solution's, bit for bit.
    report = certify_pair(PARAMS, c, n=2)
    ctx = speed_window(PARAMS, c)
    tb = theta_bundle(ctx)
    grid = np.linspace(report.grid_lo, report.grid_hi, report.grid_points)
    points = []
    theta1 = type(tb).theta1

    def counting(self, x):
        points.append(np.size(x))
        return theta1(self, x)

    monkeypatch.setattr(type(tb), "theta1", counting)
    checks = certificates._analytic_checks(
        ctx, tb, report.d_n, report.d0, report.delta, report.x_delta, grid
    )
    monkeypatch.undo()
    assert sum(points) == np.count_nonzero(grid > report.x_delta) + 1
    lower = sub_solution(tb, report, grid)
    ordering = super_solution(ctx, grid) - lower
    (sandwich,) = [ch for ch in checks if ch.name == "sandwich_ordering"]
    assert sandwich.margin == min(float(lower.min()), float(ordering.min()))
    assert sandwich.location == grid[np.argmin(ordering)]


def _merged(margins, locations):
    """CheckRecord of margins evaluated in blocks and merged."""
    kept = certificates._worst_points(
        margins.size, lambda k: {"probe": (margins[k], locations[k])}
    )
    return CheckRecord.worst_of("probe", *kept["probe"], 1e-12)


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0]


@settings(max_examples=300, deadline=None)
@given(
    block=st.integers(1, 6),
    margins=st.lists(st.sampled_from(_SPECIAL) | st.floats(), min_size=1, max_size=30),
)
def test_block_merge_is_worst_of_on_the_whole_array(block, margins):
    # few distinct values, so NaN, infinities and ties fall on every side of
    # the block edges
    margins = np.array(margins)
    locations = np.arange(margins.size, dtype=float)
    with mock.patch.object(certificates, "_BLOCK", block):
        merged = _merged(margins, locations)
    assert repr(merged) == repr(CheckRecord.worst_of("probe", margins, locations, 1e-12))


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([1, _B - 1, _B, _B + 1]),
    specials=st.lists(
        st.tuples(st.sampled_from([0, 1, _B - 2, _B - 1, _B, -1]), st.sampled_from(_SPECIAL)),
        max_size=4,
    ),
)
def test_block_merge_is_worst_of_at_the_block_size(n, specials):
    margins = np.linspace(2.0, 3.0, n)
    for index, value in specials:
        if -n <= index < n:
            margins[index] = value
    locations = np.arange(n, dtype=float)
    merged = _merged(margins, locations)
    assert repr(merged) == repr(CheckRecord.worst_of("probe", margins, locations, 1e-12))


def test_certify_working_set_does_not_grow_with_the_grid():
    # The margin grid, the chemical grid, its source and V, V' are 40,000
    # points each (1.6 MB); every other transient is one block long.
    certify_pair(PARAMS, C_MIN)
    tracemalloc.start()
    try:
        certify_pair(PARAMS, C_MIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_certificate_report_serializes():
    report = certify_pair(PARAMS, _mid_speed(), n=2)
    data = _json_tree(report)
    json.dumps(data)  # round-trippable
    assert data["passed"] is True
    assert data["c"] == pytest.approx(_mid_speed())


@pytest.mark.parametrize("margin", [math.inf, -math.inf, math.nan])
def test_check_record_writes_non_finite_values_as_null(margin):
    data = _json_tree(CheckRecord("probe", margin, math.inf, 0.0, margin > 0.0))
    assert data == {
        "name": "probe", "margin": None, "location": None, "slack": 0.0,
        "passed": margin > 0.0,
    }
    json.dumps(data, allow_nan=False)  # raises on a bare Infinity or NaN token


@pytest.mark.parametrize(
    "c, x_delta, slope",
    [(C_MIN, 111.008, -0.3162), (0.88, 84.313, -0.1270)],
    ids=["critical", "c0.88"],
)
def test_accepted_pair_has_a_concave_corner_at_the_junction(c, x_delta, slope):
    # The plateau is flat up to x_delta and the tail falls beyond it, so
    # phi'(x_delta+) < phi'(x_delta-): a lower solution with a kink needs
    # the opposite, and no check of the certificate tests it.
    report = certify_pair(PARAMS, c)
    tb = theta_bundle(speed_window(PARAMS, c))
    x, eps = report.x_delta, 1e-5
    assert x == pytest.approx(x_delta, abs=1e-3)
    assert sub_solution(tb, report, x - eps) == sub_solution(tb, report, x) == report.delta
    below, above = (
        float(certificates._tail(tb, report.d_n, report.d0, x + s)) for s in (-eps, eps)
    )
    assert (above - below) / (2.0 * eps) / report.delta == pytest.approx(slope, abs=1e-4)


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
    x = np.linspace(report.x_delta - 15.0, report.x_delta + 150.0, 5000)
    lower = sub_solution(tb, report, x)
    upper = super_solution(ctx, x)
    assert np.all(lower > 0.0)
    assert np.all(lower < upper)
