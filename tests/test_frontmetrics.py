"""Tests for wave diagnostics: front location, speed fits, decay fits, classification, rings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemotil import frontmetrics
from wavemotil.errors import InsufficientSamples, NoCrossing, NoRing, WindowTooSmall
from wavemotil.frontmetrics import (
    ProfileClass,
    classify_profile,
    decay_fit,
    front_position,
    ring_metrics,
    wave_speed,
)


# ---------------------------------------------------------------------------
# front_position
# ---------------------------------------------------------------------------


class TestFrontPosition:
    def test_step_function_crossing_between_nodes(self):
        h = 0.5
        x = h * np.arange(40)
        k = 25
        u = np.where(np.arange(40) < k, 1.0, 0.0)
        pos = front_position(x, u, 0.5)
        # Linear interpolation puts the 0.5 crossing midway between nodes k-1, k.
        assert pos == pytest.approx(x[k - 1] + 0.5 * h, abs=1e-12)

    def test_logistic_front_at_known_offset(self):
        h = 0.05
        x = h * np.arange(int(40 / h) + 1)
        u = 1.0 / (1.0 + np.exp(2.0 * (x - 20.0)))
        pos = front_position(x, u, 0.5)
        assert abs(pos - 20.0) <= h

    def test_zero_field_raises(self):
        x = np.linspace(0.0, 10.0, 101)
        with pytest.raises(NoCrossing):
            front_position(x, np.zeros_like(x), 0.5)

    def test_constant_at_level_raises(self):
        x = np.linspace(0.0, 10.0, 101)
        with pytest.raises(NoCrossing):
            front_position(x, np.full_like(x, 0.5), 0.5)

    def test_rightmost_crossing_wins(self):
        # Two descending crossings of the level; the rightmost one is reported.
        h = 0.25
        x = h * np.arange(161)
        u = 1.0 / (1.0 + np.exp(2.0 * (x - 10.0))) + 1.0 / (
            1.0 + np.exp(2.0 * (x - 30.0))
        )
        pos = front_position(x, u, 0.5)
        assert abs(pos - 30.0) <= h

    def test_shift_equivariance_dyadic_grid(self):
        rng = np.random.default_rng(7)
        h = 0.25
        n = 200
        x = h * np.arange(n)
        base = 1.0 / (1.0 + np.exp(1.7 * (x - 12.0)))
        base += 1e-3 * rng.standard_normal(n) * base
        pos0 = front_position(x, base, 0.5)
        for shift in (1, 3, 17, 64):
            shifted = np.concatenate([np.full(shift, base[0]), base[:-shift]])
            pos = front_position(x, shifted, 0.5)
            assert pos - pos0 == pytest.approx(shift * h, abs=1e-12)

    def test_exact_node_hit(self):
        x = np.linspace(0.0, 10.0, 11)
        u = np.array([1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        pos = front_position(x, u, 0.5)
        assert pos == pytest.approx(x[3], abs=1e-12)


# ---------------------------------------------------------------------------
# wave_speed
# ---------------------------------------------------------------------------


class TestWaveSpeed:
    def test_noisy_line_recovers_slope(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0.0, 50.0, 101)
        sigma = 1e-3
        xf = 2.0 * t + 5.0 + sigma * rng.standard_normal(t.size)
        c_est, stderr = wave_speed(t, xf)
        assert abs(c_est - 2.0) <= 3.0 * max(stderr, sigma)
        assert stderr < 1e-3

    def test_stationary_front_zero_speed(self):
        t = np.linspace(0.0, 10.0, 50)
        xf = np.full_like(t, 3.25)
        c_est, stderr = wave_speed(t, xf)
        assert c_est == pytest.approx(0.0, abs=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-14)

    def test_exact_line_zero_stderr(self):
        t = np.linspace(0.0, 10.0, 40)
        c_est, stderr = wave_speed(t, 1.5 * t - 2.0)
        assert c_est == pytest.approx(1.5, rel=1e-12)
        assert stderr <= 1e-10

    def test_too_few_samples_raises(self):
        t = np.linspace(0.0, 10.0, 11)
        # After dropping the 20% transient only 9 samples remain.
        with pytest.raises(InsufficientSamples):
            wave_speed(t, 2.0 * t)

    def test_transient_window_excluded(self):
        # Corrupt the first 20% of the series; the fit must not see it.
        t = np.linspace(0.0, 100.0, 201)
        xf = 0.7 * t + 1.0
        xf[t < 20.0] = -50.0
        c_est, _ = wave_speed(t, xf)
        assert c_est == pytest.approx(0.7, rel=1e-10)

    def test_offset_invariance(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 30.0, 61)
        xf = 1.2 * t + 1e-4 * rng.standard_normal(t.size)
        c0, _ = wave_speed(t, xf)
        c1, _ = wave_speed(t, xf + 123.456)
        assert c1 == pytest.approx(c0, rel=1e-12)

    def test_time_rescaling_equivariance(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0.0, 30.0, 61)
        xf = 1.2 * t + 1e-4 * rng.standard_normal(t.size)
        c0, _ = wave_speed(t, xf)
        c2, _ = wave_speed(2.0 * t, xf)
        assert c2 == pytest.approx(0.5 * c0, rel=1e-12)

    def test_nan_positions_dropped(self):
        t = np.linspace(0.0, 50.0, 101)
        xf = 2.0 * t
        xf[::7] = np.nan
        c_est, _ = wave_speed(t, xf)
        assert c_est == pytest.approx(2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# decay_fit
# ---------------------------------------------------------------------------


class TestDecayFit:
    def test_exact_exponential(self):
        z = np.linspace(0.0, 60.0, 1201)
        lam, amp = decay_fit(z, np.exp(-0.5 * z))
        assert lam == pytest.approx(0.5, rel=1e-12)
        assert amp == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        log_amp=st.floats(min_value=-6.0, max_value=6.0),
        rate=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_recovers_rate_and_amplitude(self, log_amp, rate):
        amp_true = 10.0**log_amp
        # Cover the visible window (1e-12, 1e-2) for this amplitude on both sides.
        z_lo = np.log(amp_true / 1e-2) / rate - 5.0 / rate
        z_hi = np.log(amp_true / 1e-12) / rate + 5.0 / rate
        z = np.linspace(z_lo, z_hi, 2000)
        lam, amp = decay_fit(z, amp_true * np.exp(-rate * z))
        assert lam == pytest.approx(rate, rel=1e-10)
        assert amp == pytest.approx(amp_true, rel=1e-10)

    def test_window_too_small_all_large(self):
        z = np.linspace(0.0, 10.0, 100)
        with pytest.raises(WindowTooSmall):
            decay_fit(z, np.full_like(z, 0.5))

    def test_window_too_small_all_tiny(self):
        z = np.linspace(0.0, 10.0, 100)
        with pytest.raises(WindowTooSmall):
            decay_fit(z, np.full_like(z, 1e-14))

    def test_plateau_left_of_tail_ignored(self):
        # A left plateau that happens to sit inside the fit window must not
        # contaminate the tail fit: only the rightmost in-window stretch counts.
        z = np.linspace(-50.0, 80.0, 2601)
        plateau = 1.67e-3
        u = np.where(z < 0.0, plateau, np.maximum(np.exp(-0.4 * z), 1e-300))
        # Put a visible hump between plateau and tail so the runs are disjoint.
        u = np.where((z >= 0.0) & (z < 10.0), np.maximum(u, 0.05), u)
        lam, amp = decay_fit(z, u)
        assert lam == pytest.approx(0.4, rel=1e-6)
        assert amp == pytest.approx(1.0, rel=1e-4)


# ---------------------------------------------------------------------------
# classify_profile
# ---------------------------------------------------------------------------


def _front_shape(x, eq, x_front=60.0, steep=1.5):
    return eq / (1.0 + np.exp(steep * (x - x_front)))


class TestClassifyProfile:
    def test_strictly_decreasing_is_monotone(self):
        x = np.linspace(0.0, 100.0, 2001)
        eq = 1.0
        result = classify_profile(_front_shape(x, eq), eq)
        assert isinstance(result, ProfileClass)
        assert result.label == "Monotone"
        assert result.crossing_count <= 1
        assert result.overshoot <= 1e-3 * eq

    def test_solver_noise_stays_monotone(self):
        # Rounding-scale wiggle around the settled state must not register
        # as trailing-edge crossings.
        x = np.linspace(0.0, 100.0, 2001)
        eq = 1.0
        rng = np.random.default_rng(7)
        u = _front_shape(x, eq)
        u += 1e-12 * rng.standard_normal(x.size)
        result = classify_profile(u, eq)
        assert result.label == "Monotone"

    def test_oscillatory_trailing_edge(self):
        x = np.linspace(0.0, 100.0, 2001)
        eq = 1.0
        u = _front_shape(x, eq)
        wiggle = 0.15 * eq * np.sin(0.8 * x) * (x < 50.0)
        result = classify_profile(u + wiggle, eq)
        assert result.label == "OscillatoryTrailingEdge"
        assert result.crossing_count >= 3
        assert result.overshoot > 1e-2 * eq

    def test_small_overshoot_few_crossings_indeterminate(self):
        x = np.linspace(0.0, 100.0, 2001)
        eq = 1.0
        u = _front_shape(x, eq)
        # One hump above eq by 0.5%: neither monotone nor oscillatory.
        u = u + 5e-3 * eq * np.exp(-0.1 * (x - 25.0) ** 2)
        result = classify_profile(u, eq)
        assert result.label == "Indeterminate"

    def test_large_overshoot_never_monotone(self):
        x = np.linspace(0.0, 100.0, 2001)
        eq = 1.0
        u = _front_shape(x, eq) + 0.05 * eq * np.exp(-0.1 * (x - 25.0) ** 2)
        result = classify_profile(u, eq)
        assert result.label != "Monotone"

    def test_translation_invariance(self):
        x = np.linspace(0.0, 100.0, 2001)
        eq = 0.5
        u = _front_shape(x, eq) + 0.1 * eq * np.sin(0.8 * x) * (x < 50.0)
        res0 = classify_profile(u, eq)
        shifted = np.concatenate([np.full(40, u[0]), u[:-40]])
        res1 = classify_profile(shifted, eq)
        assert res1.label == res0.label
        assert res1.crossing_count == res0.crossing_count
        assert res1.overshoot == pytest.approx(res0.overshoot, rel=1e-12)

    def test_no_front_raises(self):
        u = np.full(100, 1.0)
        with pytest.raises(NoCrossing):
            classify_profile(u, 1.0)


# ---------------------------------------------------------------------------
# ring_metrics
# ---------------------------------------------------------------------------


class TestRingMetrics:
    def _grid(self, h=0.1, half=10.0):
        x = np.arange(-half, half + h / 2, h)
        y = np.arange(-half, half + h / 2, h)
        return x, y

    def test_synthetic_annulus_closed_form(self):
        x, y = self._grid()
        xx, yy = np.meshgrid(x, y)
        r = np.hypot(xx, yy)
        u = np.exp(-((r - 5.0) ** 2))
        r_inner, r_peak, r_outer = ring_metrics(x, y, u, level=0.5)
        half_width = np.sqrt(np.log(2.0))
        assert r_peak == pytest.approx(5.0, abs=0.15)
        assert r_inner == pytest.approx(5.0 - half_width, abs=0.05)
        assert r_outer == pytest.approx(5.0 + half_width, abs=0.05)

    def test_uniform_field_raises(self):
        x, y = self._grid()
        u = np.full((y.size, x.size), 0.2)
        with pytest.raises(NoRing):
            ring_metrics(x, y, u, level=0.5)

    def test_off_center_annulus(self):
        x, y = self._grid()
        xx, yy = np.meshgrid(x, y)
        r = np.hypot(xx - 1.0, yy + 2.0)
        u = np.exp(-((r - 4.0) ** 2))
        r_inner, r_peak, r_outer = ring_metrics(x, y, u, center=(1.0, -2.0), level=0.5)
        half_width = np.sqrt(np.log(2.0))
        assert r_peak == pytest.approx(4.0, abs=0.15)
        assert r_inner == pytest.approx(4.0 - half_width, abs=0.05)
        assert r_outer == pytest.approx(4.0 + half_width, abs=0.05)

    def test_central_bump_single_crossing(self):
        # A filled disk crosses the level once on the way down: the inner and
        # outer radii coincide at that descending crossing.
        x, y = self._grid()
        xx, yy = np.meshgrid(x, y)
        r = np.hypot(xx, yy)
        u = 1.0 / (1.0 + np.exp(3.0 * (r - 4.0)))
        r_inner, r_peak, r_outer = ring_metrics(x, y, u, level=0.5)
        assert r_outer == pytest.approx(4.0, abs=0.05)
        assert r_inner == pytest.approx(r_outer, abs=1e-9)
        assert r_peak <= 4.0

    def test_expanding_rings_ordered(self):
        x, y = self._grid()
        xx, yy = np.meshgrid(x, y)
        outs = []
        for radius in (3.0, 4.0, 5.0):
            r = np.hypot(xx, yy)
            u = np.exp(-((r - radius) ** 2))
            outs.append(ring_metrics(x, y, u, level=0.5)[2])
        assert outs[0] < outs[1] < outs[2]

    @pytest.mark.parametrize("uniform", [True, False])
    def test_bilinear_matches_scipy_regular_grid(self, uniform):
        # The sampling replaced scipy's RegularGridInterpolator, which the
        # package no longer imports; it must agree bit for bit, including
        # points on the grid lines and beyond the last node.
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(1 if uniform else 2)
        x = -2.5 + 0.05 * np.arange(61) if uniform else np.sort(rng.uniform(-3, 3, 40))
        y = -1.0 + 0.05 * np.arange(37)
        u = rng.random((y.size, x.size))
        px = rng.uniform(x[0] - 0.1, x[-1] + 0.1, (30, 7))
        py = rng.uniform(y[0], y[-1], (30, 7))
        px[0, :3] = x[[0, -1, 2]]
        py[0, :3] = y[[0, -1, 3]]
        interp = RegularGridInterpolator(
            (y, x), u, method="linear", bounds_error=False, fill_value=None
        )
        want = interp(np.stack([py.ravel(), px.ravel()], axis=-1)).reshape(px.shape)
        assert np.array_equal(frontmetrics._bilinear(x, y, u, px, py), want)
