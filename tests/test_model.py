"""Motility families: closed-form values, derivative consistency, validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wavemotil import (
    ExponentialMotility,
    ModelParams,
    PowerMotility,
    SigmoidMotility,
)

ALL_FAMILIES = [
    PowerMotility(6.0),
    PowerMotility(0.5),
    ExponentialMotility(1.3),
    SigmoidMotility(0.1, 1.0),
]


def fd_derivatives(family, v, h=1e-5):
    """Centered finite-difference oracle for gamma' and gamma''.

    The second difference uses a wider step: at h=1e-5 its rounding error
    (~eps/h^2 = 1e-6 absolute) would swamp small gamma'' values.
    """
    gm, _, _ = family.eval(v - h)
    gp_, _, _ = family.eval(v + h)
    h2 = 1e-4
    gm2, _, _ = family.eval(v - h2)
    g0, _, _ = family.eval(v)
    gp2, _, _ = family.eval(v + h2)
    return (gp_ - gm) / (2 * h), (gp2 - 2 * g0 + gm2) / h2**2


def test_power_closed_form_values():
    g, gp, gpp = PowerMotility(6.0).eval(1.0)
    assert g == pytest.approx(2.0**-6, rel=1e-15)
    assert gp == pytest.approx(-6.0 * 2.0**-7, rel=1e-15)
    assert gpp == pytest.approx(42.0 * 2.0**-8, rel=1e-15)


def test_exponential_closed_form_values():
    chi = 0.7
    g, gp, gpp = ExponentialMotility(chi).eval(2.0)
    assert g == pytest.approx(np.exp(-1.4), rel=1e-14)
    assert gp == pytest.approx(-chi * np.exp(-1.4), rel=1e-14)
    assert gpp == pytest.approx(chi**2 * np.exp(-1.4), rel=1e-14)


def test_sigmoid_unit_value_at_switch_point():
    fam = SigmoidMotility(0.1, 1.0)
    g, gp, _ = fam.eval(1.0)
    assert g == pytest.approx(1.0, abs=1e-15)
    assert gp < 0


def test_sigmoid_convexity_changes_at_switch_point():
    fam = SigmoidMotility(0.1, 1.0)
    _, _, below = fam.eval(0.5)
    _, _, above = fam.eval(1.5)
    assert below < 0 < above


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_derivatives_match_finite_differences(family):
    vs = np.linspace(0.01, 10.0, 400)
    _, gp, gpp = family.eval(vs)
    fd1, fd2 = fd_derivatives(family, vs)
    assert np.max(np.abs(gp - fd1) / np.maximum(np.abs(gp), 1e-12)) < 1e-6
    assert np.all(np.abs(gpp - fd2) <= 1e-4 * np.abs(gpp) + 1e-6)


def test_power_family_bounds():
    m = 6.0
    vs = np.linspace(0.0, 50.0, 2000)
    g, gp, gpp = PowerMotility(m).eval(vs)
    assert np.all((g > 0) & (g <= 1.0))
    # gamma'(0) = -m exactly; the bound is strict only for v > 0.
    assert np.all((gp >= -m) & (gp < 0))
    assert np.all(gp[vs > 0] > -m)
    assert np.all((gpp > 0) & (gpp <= m * (m + 1)))


def test_rejects_negative_v():
    for family in ALL_FAMILIES:
        with pytest.raises(ValueError):
            family.eval(-0.5)
        with pytest.raises(ValueError):
            family.eval(np.array([0.2, -1e-9]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_v(value):
    # Checked before any arithmetic: NaN used to pass through to
    # (nan, nan), and the sigmoid law turned inf into NaN with a warning.
    for family in ALL_FAMILIES:
        for evaluate in (type(family).eval, type(family).gamma):
            with pytest.raises(ValueError, match="finite"):
                evaluate(family, value)
            with pytest.raises(ValueError, match="finite"):
                evaluate(family, np.array([0.2, value, 0.5]))


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_gamma_is_the_first_term_bit_for_bit(family):
    # The time stepper's evaluator computes gamma alone, by the expression
    # eval uses.
    vs = np.linspace(0.0, 10.0, 401)
    assert family.gamma(vs).tobytes() == family.eval(vs)[0].tobytes()
    for v in (0.0, 0.3, 1.0, 7.5):
        g = family.gamma(v)
        assert isinstance(g, float) and g == family.eval(v)[0]
    with pytest.raises(ValueError):
        family.gamma(-0.5)
    with pytest.raises(ValueError):
        family.gamma(np.array([0.2, -1e-9]))


def test_scalar_in_scalar_out():
    g, gp, gpp = PowerMotility(2.0).eval(0.3)
    assert isinstance(g, float) and isinstance(gp, float) and isinstance(gpp, float)
    arr = PowerMotility(2.0).eval(np.array([0.3, 0.4]))[0]
    assert arr.shape == (2,)


def test_invalid_family_parameters():
    with pytest.raises(ValueError):
        PowerMotility(0.0)
    with pytest.raises(ValueError):
        ExponentialMotility(-1.0)
    with pytest.raises(ValueError):
        SigmoidMotility(0.0, 1.0)


def test_model_params_validation_and_equilibrium():
    p = ModelParams(0.1, 60.0, PowerMotility(6.0))
    assert p.equilibrium == pytest.approx(0.1 / 60.0, rel=1e-15)
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, PowerMotility(6.0))
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0, PowerMotility(6.0))


@pytest.mark.parametrize(
    "a, b", [(1e-300, 1e300), (1e300, 1e-300)], ids=["a/b-underflows", "a/b-overflows"]
)
def test_model_params_rejects_a_coexistence_level_beyond_the_floats(a, b):
    with pytest.raises(ValueError, match="coexistence level a/b"):
        ModelParams(a, b, PowerMotility(6.0))
    # a subnormal level is still a positive finite float
    assert ModelParams(1e-8, 1e300, PowerMotility(6.0)).equilibrium > 0.0


def test_records_are_immutable():
    p = ModelParams(0.1, 60.0, PowerMotility(6.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.motility.m = 2.0
