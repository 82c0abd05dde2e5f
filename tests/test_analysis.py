"""Closed-form wave quantities: decay rates, thresholds, theta functions,
linearizations.  Expected values come from independent in-test arithmetic,
finite-difference oracles, or substitution back into defining equations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemotil import (
    ExponentialMotility,
    ModelParams,
    PowerMotility,
    SigmoidMotility,
    b_star,
    c_star,
    kappa,
    lambda12,
    lambda_decay,
    leading_edge_speed,
    linearize,
    oscillation_condition,
    speed_window,
    theta_bundle,
)
from wavemotil.analysis import _hopf_omega
from wavemotil.errors import (
    EtaUndefined,
    NonFiniteState,
    SpeedBelowMinimal,
    WindowViolation,
)

A, B, M = 0.1, 60.0, 6.0
PARAMS = ModelParams(A, B, PowerMotility(M))
C_MIN = 2.0 * math.sqrt(A)


# ---------------------------------------------------------------- decay rates
def test_lambda_decay_half_at_c_25():
    lam = lambda_decay(2.5, 1.0)
    assert lam == pytest.approx(0.5, rel=1e-14)
    assert lam**2 - 2.5 * lam + 1.0 == pytest.approx(0.0, abs=1e-14)


def test_lambda_decay_minimal_speed_degenerate_root():
    assert lambda_decay(C_MIN, A) == pytest.approx(math.sqrt(A), rel=1e-14)


def test_lambda_decay_rejects_subminimal_speed():
    with pytest.raises(SpeedBelowMinimal):
        lambda_decay(1.0, 1.0)


@given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_lambda_decay_root_property(extra, a):
    c = 2.0 * math.sqrt(a) + extra
    lam = lambda_decay(c, a)
    assert 0.0 < lam <= math.sqrt(a) * (1 + 1e-12)
    assert abs(lam * lam - c * lam + a) < 1e-11 * max(1.0, c * lam)


def test_lambda12_example():
    lam1, lam2 = lambda12(1.5)
    assert lam1 == pytest.approx(-2.0, rel=1e-14)
    assert lam2 == pytest.approx(0.5, rel=1e-14)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_lambda12_identities(c):
    lam1, lam2 = lambda12(c)
    assert lam1 < 0 < lam2
    assert abs(lam1 * lam2 + 1.0) < 5e-16
    assert abs(lam1 + lam2 + c) < 1e-13 * max(1.0, abs(c))


# ----------------------------------------------------------------- thresholds
def test_b_star_reference_value():
    # direct arithmetic of the threshold formula at m=6, a=0.1
    expect = 18.0 * (1.0 + 2.0 * math.sqrt(0.1 / 1.1) * (2.0 + math.sqrt(7.0 / 6.0)))
    assert b_star(6.0, 0.1) == pytest.approx(expect, rel=1e-15)
    assert b_star(6.0, 0.1) == pytest.approx(51.4329, abs=1e-4)


def test_b_star_vanishes_as_m_to_zero():
    assert b_star(1e-8, 0.1) < 1e-3


def test_c_star_at_threshold_b_gives_minimal_speed():
    rng = np.random.default_rng(20260823)
    for _ in range(20):
        m = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.01, 10.0)
        c = c_star(a, b_star(m, a), m)
        assert abs(c - 2.0 * math.sqrt(a)) <= 1e-10 * 2.0 * math.sqrt(a)


def test_c_star_grows_with_b():
    assert c_star(A, 100.0, M) > c_star(A, B, M) > C_MIN


def test_kappa_reference_value_and_limits():
    r = math.sqrt(0.1 * 1.1 / 42.0)
    assert kappa(6.0, 0.1) == pytest.approx(6.0 * r * (r + 1.0) ** 6, rel=1e-15)
    assert kappa(6.0, 0.1) == pytest.approx(0.4143, abs=1e-4)
    assert kappa(1e-10, 0.1) < 1e-4
    assert kappa(6.0, 1e-12) < 1e-5


# --------------------------------------------------------------- speed window
def test_speed_window_inside():
    ctx = speed_window(PARAMS, C_MIN)
    assert ctx.in_window
    assert ctx.is_critical
    assert ctx.lam == pytest.approx(math.sqrt(A), rel=1e-14)
    # eta solves its quadratic and respects the ceiling bound
    quad = M * (M + 1.0) / (1.0 + A)
    lin = M * (1.0 + ctx.c / math.sqrt(1.0 + A)) - B
    assert quad * ctx.eta**2 + lin * ctx.eta + A == pytest.approx(0.0, abs=1e-13)
    assert 0.0 < ctx.eta <= math.sqrt(A * (1.0 + A) / (M * (M + 1.0)))
    assert ctx.eta < A / (M * (1.0 + ctx.c / math.sqrt(1.0 + A)))


def test_speed_window_outside_for_small_b():
    # b = 20 lies below b* (about 51) with a positive ceiling: the window
    # is reported, not enforced
    ctx = speed_window(ModelParams(A, 20.0, PowerMotility(M)), C_MIN)
    assert not ctx.in_window and ctx.eta > 0.0


@pytest.mark.parametrize("b", [1.0, 1e300], ids=["negative-roots", "root-underflows"])
def test_speed_window_without_a_positive_finite_ceiling_raises(b):
    # At b = 1 both roots of the ceiling quadratic are negative; at
    # b = 1e300 its linear coefficient squared overflows and the root
    # rounds to 0.
    m = M if b == 1.0 else 1e-300
    with pytest.raises(EtaUndefined, match="no positive finite root"):
        speed_window(ModelParams(A, b, PowerMotility(m)), C_MIN)


def test_speed_window_endpoint_included():
    ctx = speed_window(PARAMS, c_star(A, B, M))
    assert ctx.in_window
    assert not ctx.is_critical


def test_speed_window_above_endpoint_excluded():
    ctx = speed_window(PARAMS, c_star(A, B, M) + 0.05)
    assert not ctx.in_window


def test_speed_window_requires_power_family():
    with pytest.raises(WindowViolation):
        speed_window(ModelParams(0.2, 0.2, SigmoidMotility()), 1.0)


def test_eta_undefined_when_discriminant_negative():
    # lin term ~ 0 makes the discriminant negative
    p = ModelParams(10.0, 2.906, PowerMotility(1.0))
    with pytest.raises(EtaUndefined):
        speed_window(p, 2.0 * math.sqrt(10.0))


# ------------------------------------------------------------ theta functions
def _contexts():
    mid = 0.5 * (C_MIN + c_star(A, B, M))
    return [speed_window(PARAMS, c) for c in (C_MIN, mid, c_star(A, B, M))]


@pytest.mark.parametrize("ctx", _contexts(), ids=["critical", "mid", "endpoint"])
def test_theta1_defining_quadratic(ctx):
    tb = theta_bundle(ctx)
    x = np.linspace(0.0, 200.0 / ctx.lam, 1000)
    th = tb.theta1(x)
    phi_negm = (1.0 + np.exp(-ctx.lam * x) / (1.0 + ctx.a)) ** (-ctx.m)
    assert np.max(np.abs(phi_negm * th**2 - ctx.c * th + ctx.a)) < 1e-10


@pytest.mark.parametrize("ctx", _contexts(), ids=["critical", "mid", "endpoint"])
def test_theta1_two_closed_forms_agree(ctx):
    tb = theta_bundle(ctx)
    x = np.linspace(0.0, 50.0, 400)
    phi_negm = (1.0 + np.exp(-ctx.lam * x) / (1.0 + ctx.a)) ** (-ctx.m)
    alt = (ctx.c - np.sqrt(ctx.c**2 - 4.0 * ctx.a * phi_negm)) / (2.0 * phi_negm)
    assert np.max(np.abs(alt - tb.theta1(x))) < 1e-12


@pytest.mark.parametrize("ctx", _contexts(), ids=["critical", "mid", "endpoint"])
def test_theta_derivatives_match_finite_differences(ctx):
    tb = theta_bundle(ctx)
    x = np.linspace(0.5, 60.0, 500)
    h = 1e-5
    fd1 = (tb.theta1(x + h) - tb.theta1(x - h)) / (2 * h)
    d1 = tb.dtheta1(x)
    assert np.all(np.abs(fd1 - d1) <= 1e-6 * np.abs(d1) + 1e-10)
    # theta1'' crosses zero inside this range, so an additive floor is needed.
    fd2 = (tb.dtheta1(x + h) - tb.dtheta1(x - h)) / (2 * h)
    d2 = tb.d2theta1(x)
    assert np.all(np.abs(fd2 - d2) <= 1e-4 * np.abs(d2) + 1e-9)


@pytest.mark.parametrize("ctx", _contexts(), ids=["critical", "mid", "endpoint"])
def test_theta_slopes_stay_finite_where_the_exponential_underflows(ctx):
    # at the minimal speed rho vanishes with t = e^{-lam x}/(1+a), so the
    # slope formulas read 0/0 once t underflows unless they take the limit
    tb = theta_bundle(ctx)
    x = np.linspace(0.0, 3000.0, 30001)
    assert np.all(np.isfinite(tb.dtheta1(x)))
    assert np.all(np.isfinite(tb.d2theta1(x)))
    far = 800.0 / ctx.lam
    assert tb.dtheta1(far) == 0.0
    assert tb.d2theta1(far) == 0.0


@pytest.mark.parametrize("ctx", _contexts(), ids=["critical", "mid", "endpoint"])
def test_theta1_range_and_monotonicity(ctx):
    tb = theta_bundle(ctx)
    x = np.linspace(0.0, 300.0, 4000)
    th = tb.theta1(x)
    assert np.all((th > 0) & (th < ctx.lam * (1 + 1e-12)))
    assert np.all(np.diff(th) >= 0)
    assert tb.theta1(400.0 / ctx.lam) == pytest.approx(ctx.lam, rel=1e-12)


def test_theta2_shift_rules():
    crit, mid, _ = _contexts()
    tb = theta_bundle(crit)
    assert tb.shift == pytest.approx(crit.lam / 4.0, rel=1e-15)
    assert tb.theta2(3.0) == pytest.approx(tb.theta1(3.0) + crit.lam / 4.0, rel=1e-15)
    tbm = theta_bundle(mid)
    assert tbm.k0 > max(2.0 * mid.lam / (mid.c - 2.0 * mid.lam), 2.0)
    assert tbm.shift == pytest.approx(mid.lam / tbm.k0, rel=1e-15)
    # theta2 stays within (theta1, theta1 + lam/2)
    assert 0.0 < tbm.shift < mid.lam / 2.0
    assert 0.0 < tb.shift < crit.lam / 2.0


def test_derivative_envelopes_critical():
    ctx = _contexts()[0]
    tb = theta_bundle(ctx)
    x = np.linspace(20.0 / ctx.lam, 200.0 / ctx.lam, 3000)
    d1, d2 = tb.dtheta1(x), tb.d2theta1(x)
    env = tb.K1 * np.exp(-ctx.lam * x / 2.0)
    assert np.all((d1 > 0) & (d1 <= 2.0 * env))
    assert np.all((d2 < 0) & (d2 >= -ctx.lam * env))


@pytest.mark.parametrize("ctx", _contexts()[1:], ids=["mid", "endpoint"])
def test_derivative_envelopes_supercritical(ctx):
    tb = theta_bundle(ctx)
    x = np.linspace(20.0 / ctx.lam, 200.0 / ctx.lam, 3000)
    d1, d2 = tb.dtheta1(x), tb.d2theta1(x)
    env = tb.K2 * np.exp(-ctx.lam * x)
    assert np.all((d1 > 0) & (d1 <= 2.0 * env))
    assert np.all((d2 < 0) & (d2 >= -2.0 * ctx.lam * env))


@pytest.mark.parametrize("ctx", _contexts()[:2], ids=["critical", "mid"])
def test_exponential_limit_far_in_tail(ctx):
    tb = theta_bundle(ctx)
    x = 200.0 / ctx.lam
    assert math.exp((tb.theta1(x) - ctx.lam) * x) == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------- linearization
def test_linearize_origin_reference_eigenvalues():
    # c=2, a=1, gamma(0)=1: u-block gives a double root -1, v-block -1 +/- sqrt(2)
    rep = linearize(ModelParams(1.0, 1.0, PowerMotility(2.0)), 2.0, at="origin")
    got = np.sort(rep.eigenvalues.real)
    want = np.sort([-1.0, -1.0, -1.0 - math.sqrt(2.0), -1.0 + math.sqrt(2.0)])
    assert np.max(np.abs(np.sort(got) - want)) < 1e-7
    assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-6
    assert rep.residual < 1e-8
    assert rep.spiral is False


def test_linearize_origin_spiral_classification():
    p = ModelParams(1.0, 1.0, PowerMotility(2.0))
    assert linearize(p, 1.0, at="origin").spiral is True
    assert linearize(p, 2.0, at="origin").spiral is False


def test_linearize_coexistence_matches_printed_quartic():
    p = ModelParams(1.0, 1.0, PowerMotility(4.0))
    c = 1.3
    rep = linearize(p, c, at="coexistence")
    s1 = 2.0**-4
    s2 = -4.0 * 2.0**-5
    want = np.array(
        [
            1.0,
            c + c / s1,
            c * c / s1 - p.a * (p.b + s2) / (s1 * p.b) - 1.0,
            -(p.a + 1.0) * c / s1,
            p.a / s1,
        ]
    )
    assert np.max(np.abs(rep.char_poly - want) / np.maximum(np.abs(want), 1.0)) < 1e-10
    assert rep.residual < 1e-8


def test_hopf_frequency_consistent_with_oscillation_condition():
    cases = [
        (ModelParams(0.1, 0.1, PowerMotility(6.0)), False),
        (ModelParams(1.0, 1.0, PowerMotility(4.0)), True),
    ]
    for p, expect in cases:
        holds, lhs, rhs = oscillation_condition(p)
        assert holds is expect
        rep = linearize(p, 0.0, at="coexistence")
        assert (rep.hopf_omega is not None) is expect
        if rep.hopf_omega is not None:
            # substitute back into the frequency equation
            s1, s2, _ = p.motility.eval(p.equilibrium)
            w2 = rep.hopf_omega**2
            resid = w2**2 - (p.a * (p.b + s2) / (s1 * p.b) + 1.0) * w2 + p.a / s1
            assert abs(resid) < 1e-9 * max(1.0, w2**2)


def test_hopf_frequency_scaling_is_exact():
    # Scaling p by an even power of two changes no bit of the textbook
    # formula where that formula does not overflow.
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = 10.0 ** rng.uniform(-3, 3, size=2)
        s1 = 10.0 ** rng.uniform(-6, 0)
        s2 = -(10.0 ** rng.uniform(-6, 1))
        p = a * (b + s2) / (s1 * b) + 1.0
        q = a / s1
        disc = p * p - 4.0 * q
        want = None if disc < 0.0 or p <= 0.0 else math.sqrt(0.5 * (p + math.sqrt(disc)))
        assert _hopf_omega(a, b, s1, s2) == want


def test_coexistence_linearization_at_huge_exponents():
    # m = 700: the entries reach 1e210, yet the residual and omega stay finite.
    rep = linearize(ModelParams(0.1, 0.1, PowerMotility(700.0)), 0.0, at="coexistence")
    assert np.all(np.isfinite(rep.eigenvalues)) and math.isfinite(rep.residual)
    assert rep.hopf_omega == pytest.approx(math.sqrt(0.1 * 2.0**700), rel=1e-12)
    # m = 1100: gamma(a/b) = 2^-1100 underflows to zero.
    with pytest.raises(NonFiniteState, match="coexistence"):
        linearize(ModelParams(0.1, 0.1, PowerMotility(1100.0)), 0.0, at="coexistence")
    # rhs beyond every float is infinite, and the condition still holds.
    holds, _, rhs = oscillation_condition(ModelParams(0.1, 0.1, PowerMotility(3000.0)))
    assert holds and rhs == math.inf
    # In general form gamma(a/b) = e^-1000 underflows to 0: rhs tends to b.
    p = ModelParams(0.1, 0.1, ExponentialMotility(1000.0))
    assert oscillation_condition(p) == (True, 0.0, pytest.approx(0.1, rel=1e-15))


def test_oscillation_condition_reference_numbers():
    _, lhs, rhs = oscillation_condition(ModelParams(0.1, 0.1, PowerMotility(6.0)))
    assert lhs == pytest.approx(math.sqrt(6.0), rel=1e-12)
    assert rhs == pytest.approx(2.1635, abs=5e-4)
    _, lhs2, rhs2 = oscillation_condition(ModelParams(1.0, 1.0, PowerMotility(4.0)))
    assert rhs2 == pytest.approx(4.2426, abs=5e-4)


def test_oscillation_condition_general_form_matches_power_form():
    p = ModelParams(0.3, 0.7, PowerMotility(3.0))
    holds_pow, lhs, rhs = oscillation_condition(p)
    # generic criterion |gamma'(a/b)| < (b/a) gamma (sqrt(a/gamma)-1)^2
    s1, s2, _ = p.motility.eval(p.equilibrium)
    generic = abs(s2) < (p.b / p.a) * s1 * (math.sqrt(p.a / s1) - 1.0) ** 2
    assert holds_pow == generic


# ------------------------------------------------------------- leading edge
def test_leading_edge_speed_branches():
    assert leading_edge_speed(2.0, 0.1) == pytest.approx(C_MIN, rel=1e-14)
    lam0 = 0.2
    assert leading_edge_speed(lam0, 0.1) == pytest.approx(lam0 + 0.1 / lam0, rel=1e-14)
    # with gamma0 != 1 the switch sits at the dispersion minimizer
    # sqrt(a/gamma0) ~ 0.2236, not at sqrt(a) ~ 0.3162.
    a, g0 = 0.1, 2.0
    lam0 = 0.22
    assert leading_edge_speed(lam0, a, g0) == pytest.approx(
        g0 * lam0 + a / lam0, rel=1e-14
    )
    assert leading_edge_speed(0.28, a, g0) == pytest.approx(
        2.0 * math.sqrt(g0 * a), rel=1e-14
    )
    # the speed is continuous at the switch and never below the minimum
    cut = math.sqrt(a / g0)
    assert leading_edge_speed(cut * (1 - 1e-9), a, g0) == pytest.approx(
        2.0 * math.sqrt(g0 * a), rel=1e-12
    )
    for lam in (0.05, 0.1, 0.2, 0.3, 1.0):
        assert leading_edge_speed(lam, a, g0) >= 2.0 * math.sqrt(g0 * a)
