"""Tests for the direct 1-D/2-D time-dependent solver.

Oracles: uniform states against a high-accuracy two-ODE integration, the
discrete chemical-mass identity on zero-flux boxes, and a smooth manufactured
solution for the spatial order of the flux discretization.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import wavemotil.pde as pde
from wavemotil.errors import (
    ConfigError,
    NegativeDensity,
    NonFiniteState,
    StabilityViolation,
)
from wavemotil.frontmetrics import wave_speed
from wavemotil.model import ModelParams, PowerMotility, SigmoidMotility, motility_eval
from wavemotil.pde import (
    ArrayIC,
    Bump2dIC,
    CustomIC,
    Dirichlet,
    FrontIC,
    GridField,
    Neumann,
    SimConfig,
    Trajectory,
    build_initial,
    load_field,
    make_field,
    mass,
    save_field,
    simulate,
    spatial_rhs,
    step,
)

POWER = ModelParams(a=0.1, b=0.1, motility=PowerMotility(m=6.0))
DILUTE = ModelParams(a=0.1, b=60.0, motility=PowerMotility(m=6.0))


# ---------------------------------------------------------------------------
# Grid construction and mass bookkeeping
# ---------------------------------------------------------------------------


class TestGrid:
    def test_make_field_1d_shapes(self):
        f = make_field(1, ((0.0, 10.0),), 0.1, u0=0.3, v0=0.2)
        assert f.dim == 1
        assert f.nx == 101 and f.ny is None
        assert f.u.shape == (101,) and f.v.shape == (101,)
        assert np.all(f.u == 0.3) and np.all(f.v == 0.2)
        assert f.x[0] == 0.0 and f.x[-1] == pytest.approx(10.0, abs=1e-12)

    def test_make_field_2d_shapes(self):
        f = make_field(2, ((0.0, 4.0), (0.0, 6.0)), 0.25, u0=1.0, v0=1.0)
        assert f.dim == 2
        assert f.nx == 17 and f.ny == 25
        assert f.u.shape == (25, 17)

    def test_non_divisible_extent_rejected(self):
        with pytest.raises(ValueError):
            make_field(1, ((0.0, 1.0),), 0.3, u0=0.0, v0=0.0)

    def test_mass_of_constant_field(self):
        f = make_field(1, ((0.0, 10.0),), 0.1, u0=2.0, v0=0.5)
        mu, mv = mass(f)
        assert mu == pytest.approx(20.0, rel=1e-13)
        assert mv == pytest.approx(5.0, rel=1e-13)
        g = make_field(2, ((0.0, 4.0), (0.0, 6.0)), 0.25, u0=2.0, v0=0.5)
        mu2, mv2 = mass(g)
        assert mu2 == pytest.approx(48.0, rel=1e-13)
        assert mv2 == pytest.approx(12.0, rel=1e-13)


# ---------------------------------------------------------------------------
# step: equilibria, ODE oracle, mass identity, errors
# ---------------------------------------------------------------------------


class TestEquilibria:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level", ["carrying", "extinct"])
    def test_uniform_steady_states_fixed(self, dim, level):
        val = POWER.a / POWER.b if level == "carrying" else 0.0
        extents = ((0.0, 5.0),) if dim == 1 else ((0.0, 3.0), (0.0, 2.0))
        f = make_field(dim, extents, 0.1, u0=val, v0=val)
        g = step(f, POWER, 0.1)
        assert np.max(np.abs(g.u - val)) <= 1e-12
        assert np.max(np.abs(g.v - val)) <= 1e-12

    def test_equilibrium_fixed_with_dirichlet_sides(self):
        val = POWER.a / POWER.b
        bc = {"left": Dirichlet(val, val), "right": Neumann()}
        f = make_field(1, ((0.0, 5.0),), 0.1, u0=val, v0=val, bc=bc)
        g = step(f, POWER, 0.1)
        assert np.max(np.abs(g.u - val)) <= 1e-12
        assert np.max(np.abs(g.v - val)) <= 1e-12


class TestUniformODEOracle:
    def test_matches_two_ode_integration(self):
        # Uniform fields reduce step to its reaction/relaxation integrator;
        # it must track (u' = u(a-bu), v' = u-v) closely in relative terms.
        u0, v0 = 0.9, 0.9
        f = make_field(1, ((0.0, 0.4),), 0.05, u0=u0, v0=v0)
        dt, t_end = 1e-4, 2.0
        n = int(round(t_end / dt))
        for _ in range(n):
            f = step(f, POWER, dt)

        def rhs(t, y):
            return [y[0] * (POWER.a - POWER.b * y[0]), y[0] - y[1]]

        sol = solve_ivp(
            rhs, (0.0, t_end), [u0, v0], rtol=1e-12, atol=1e-14, method="DOP853"
        )
        u_ref, v_ref = sol.y[0][-1], sol.y[1][-1]
        assert np.max(np.abs(f.u - u_ref)) / abs(u_ref) < 1e-6
        assert np.max(np.abs(f.v - v_ref)) / abs(v_ref) < 1e-6
        # The field stays uniform to rounding noise.
        assert np.ptp(f.u) <= 1e-12 and np.ptp(f.v) <= 1e-12


class TestChemicalMassIdentity:
    def test_1d_zero_flux_box(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 10.0, 201)
        u0 = 0.5 + 0.3 * np.cos(np.pi * x / 10.0) + 0.05 * rng.random(201)
        v0 = 0.4 + 0.2 * np.cos(2 * np.pi * x / 10.0)
        f = make_field(1, ((0.0, 10.0),), 0.05, u0=u0, v0=v0)
        mu, mv = mass(f)
        dt = 0.05
        g = step(f, POWER, dt)
        _, mv_new = mass(g)
        # Total v changes only through the source: the Laplacian telescopes.
        assert abs((mv_new - mv) / dt - (mu - mv)) <= 1e-10 * max(1.0, mu, mv)

    def test_2d_zero_flux_box(self):
        f = make_field(2, ((-2.0, 2.0), (-2.0, 2.0)), 0.1, u0=0.0, v0=0.0)
        xx, yy = np.meshgrid(f.x, f.y)
        f.u[:] = 0.8 + 0.5 * np.exp(-(xx**2 + yy**2))
        f.v[:] = 0.3 + 0.2 * np.exp(-((xx - 0.5) ** 2 + yy**2))
        mu, mv = mass(f)
        dt = 0.05
        g = step(f, POWER, dt)
        _, mv_new = mass(g)
        assert abs((mv_new - mv) / dt - (mu - mv)) <= 1e-10 * max(1.0, mu, mv)


def _manufactured_1d(params, lx=10.0):
    mot = params.motility

    def u_ex(x):
        return 0.4 + 0.1 * np.cos(np.pi * x / lx)

    def v_ex(x):
        return 0.3 + 0.2 * np.cos(2 * np.pi * x / lx)

    def du_ex(x):
        return -0.1 * (np.pi / lx) * np.sin(np.pi * x / lx)

    def dv_ex(x):
        return -0.2 * (2 * np.pi / lx) * np.sin(2 * np.pi * x / lx)

    def flux(x):
        g, gp, _ = motility_eval(mot, v_ex(x))
        return g * du_ex(x) + u_ex(x) * gp * dv_ex(x)

    def exact_rhs_u(x, d=1e-5):
        dflux = (flux(x + d) - flux(x - d)) / (2 * d)
        u = u_ex(x)
        return dflux + u * (params.a - params.b * u)

    def exact_rhs_v(x):
        d2v = -0.2 * (2 * np.pi / lx) ** 2 * np.cos(2 * np.pi * x / lx)
        return d2v + u_ex(x) - v_ex(x)

    return u_ex, v_ex, exact_rhs_u, exact_rhs_v


def _smooth_2d(lx=4.0, ly=6.0):
    def u_ex(x, y):
        return 0.4 + 0.1 * np.cos(np.pi * x / lx) * np.cos(np.pi * y / ly)

    def v_ex(x, y):
        return 0.3 + 0.15 * np.cos(2 * np.pi * x / lx) * np.cos(np.pi * y / ly)

    return u_ex, v_ex


class TestSpatialOrder:
    PARAMS = ModelParams(a=0.2, b=0.5, motility=PowerMotility(m=3.0))

    def _error_1d(self, h):
        u_ex, v_ex, rhs_u, rhs_v = _manufactured_1d(self.PARAMS)
        f = make_field(1, ((0.0, 10.0),), h, u0=0.0, v0=0.0)
        f.u[:] = u_ex(f.x)
        f.v[:] = v_ex(f.x)
        du, dv = spatial_rhs(f, self.PARAMS)
        return (
            np.max(np.abs(du - rhs_u(f.x))),
            np.max(np.abs(dv - rhs_v(f.x))),
        )

    def test_second_order_in_1d(self):
        errs = [self._error_1d(h) for h in (0.1, 0.05, 0.025)]
        for fine, coarse in zip(errs[1:], errs[:-1]):
            assert coarse[0] / fine[0] == pytest.approx(4.0, rel=0.4)
            assert coarse[1] / fine[1] == pytest.approx(4.0, rel=0.4)

    def _error_2d(self, h):
        params = self.PARAMS
        mot = params.motility
        lx, ly = 4.0, 6.0
        u_ex, v_ex = _smooth_2d(lx, ly)

        def flux_x(x, y, d=1e-5):
            dudx = (u_ex(x + d, y) - u_ex(x - d, y)) / (2 * d)
            dvdx = (v_ex(x + d, y) - v_ex(x - d, y)) / (2 * d)
            g, gp, _ = motility_eval(mot, v_ex(x, y))
            return g * dudx + u_ex(x, y) * gp * dvdx

        def flux_y(x, y, d=1e-5):
            dudy = (u_ex(x, y + d) - u_ex(x, y - d)) / (2 * d)
            dvdy = (v_ex(x, y + d) - v_ex(x, y - d)) / (2 * d)
            g, gp, _ = motility_eval(mot, v_ex(x, y))
            return g * dudy + u_ex(x, y) * gp * dvdy

        f = make_field(2, ((0.0, lx), (0.0, ly)), h, u0=0.0, v0=0.0)
        xx, yy = np.meshgrid(f.x, f.y)
        f.u[:] = u_ex(xx, yy)
        f.v[:] = v_ex(xx, yy)
        du, _ = spatial_rhs(f, params)
        d = 2e-4
        div = (flux_x(xx + d, yy) - flux_x(xx - d, yy)) / (2 * d) + (
            flux_y(xx, yy + d) - flux_y(xx, yy - d)
        ) / (2 * d)
        exact = div + f.u * (params.a - params.b * f.u)
        return np.max(np.abs(du - exact))

    def test_second_order_in_2d(self):
        e1 = self._error_2d(0.25)
        e2 = self._error_2d(0.125)
        assert e1 / e2 == pytest.approx(4.0, rel=0.4)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_step_consistent_with_spatial_rhs(self, dim):
        if dim == 1:
            u_ex, v_ex, _, _ = _manufactured_1d(self.PARAMS)
            f = make_field(1, ((0.0, 10.0),), 0.05, u0=0.0, v0=0.0)
            f.u[:] = u_ex(f.x)
            f.v[:] = v_ex(f.x)
        else:
            u_ex, v_ex = _smooth_2d()
            f = make_field(2, ((0.0, 4.0), (0.0, 6.0)), 0.1, u0=0.0, v0=0.0)
            xx, yy = np.meshgrid(f.x, f.y)
            f.u[:] = u_ex(xx, yy)
            f.v[:] = v_ex(xx, yy)
        du, dv = spatial_rhs(f, self.PARAMS)
        dt = 1e-5
        g = step(f, self.PARAMS, dt)
        assert np.max(np.abs(g.u - (f.u + dt * du))) <= 1e-7
        assert np.max(np.abs(g.v - (f.v + dt * dv))) <= 1e-7


class TestStepErrors:
    def _sharp_state(self, spike=1.0):
        # A sharp v drop right of the spike engages a strong cross-diffusion
        # drift; the slope-reconstructed face value then drains an empty node.
        h = 0.1
        f = make_field(1, ((0.0, 4.0),), h, u0=0.0, v0=0.01)
        f.v[:2] = 3.0
        f.u[1] = spike
        return f, h

    def _dt_at_fraction(self, f, h, frac):
        _, gp, _ = motility_eval(POWER.motility, f.v)
        w = 0.5 * (gp[:-1] + gp[1:]) * np.diff(f.v) / h
        return frac * h / np.max(np.abs(w))

    def test_stability_violation(self):
        f, h = self._sharp_state()
        with pytest.raises(StabilityViolation):
            step(f, POWER, 10.0 * self._dt_at_fraction(f, h, 0.4))

    def test_negative_density_raised(self):
        f, h = self._sharp_state(spike=1.0)
        with pytest.raises(NegativeDensity):
            step(f, POWER, self._dt_at_fraction(f, h, 0.39))

    def test_tiny_undershoot_clipped_to_zero(self):
        f, h = self._sharp_state(spike=4e-12)
        out = step(f, POWER, self._dt_at_fraction(f, h, 0.39))
        assert np.min(out.u) == 0.0
        assert np.min(out.v) >= 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_node_raises_non_finite_state(self, dim):
        # One NaN node: in 1-D it used to surface as a bare ValueError from
        # the banded solver, in 2-D it spread silently to all 441 nodes.
        extents = ((0.0, 2.0),) * dim
        f = make_field(dim, extents, 0.1, u0=0.5, v0=0.5)
        f.u[(10,) * dim] = np.nan
        with pytest.raises(NonFiniteState):
            step(f, POWER, 0.01)

    def test_nonpositive_dt_rejected(self):
        f = make_field(1, ((0.0, 1.0),), 0.1, u0=0.1, v0=0.1)
        with pytest.raises(ValueError):
            step(f, POWER, 0.0)


# ---------------------------------------------------------------------------
# Config validation, initial conditions, simulate
# ---------------------------------------------------------------------------


def _front_config(**overrides):
    base = dict(
        params=POWER,
        dim=1,
        extents=((0.0, 40.0),),
        h=0.05,
        ic=FrontIC(steepness=2.0, offset=10.0),
        t_end=10.0,
        cadence=2.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def _array_ic(source, tmp_path, u, v):
    if source == "array":
        return ArrayIC(u, v)
    path = tmp_path / "ic.npz"
    np.savez(path, u=u, v=v)
    return CustomIC(path=str(path))


class TestSimConfig:
    def test_cadence_must_divide_t_end(self):
        with pytest.raises(ConfigError):
            _front_config(t_end=1.0, cadence=0.3)

    def test_t_end_positive(self):
        with pytest.raises(ConfigError):
            _front_config(t_end=-1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(dim=3),
            dict(h=0.0),
            dict(h=0.3),
            dict(bc={"bottom": Neumann()}),
            dict(bc={"left": "dirichlet"}),
            dict(disk_mask=True),
        ],
    )
    def test_grid_errors_are_config_errors(self, overrides):
        with pytest.raises(ConfigError):
            _front_config(**overrides)

    def test_bump_ic_needs_2d(self):
        with pytest.raises(ConfigError):
            _front_config(ic=Bump2dIC(base=4.0, amplitude=1.0))

    def test_front_ic_formula(self):
        cfg = _front_config()
        f = build_initial(cfg)
        expected = 1.0 / (1.0 + np.exp(2.0 * (f.x - 10.0)))
        assert np.max(np.abs(f.u - expected)) <= 1e-14
        assert np.array_equal(f.u, f.v)

    def test_bump2d_ic_formula(self):
        cfg = SimConfig(
            params=POWER,
            dim=2,
            extents=((-3.0, 3.0), (-3.0, 3.0)),
            h=0.25,
            ic=Bump2dIC(base=4.0, amplitude=1.0),
            t_end=1.0,
            cadence=1.0,
        )
        f = build_initial(cfg)
        xx, yy = np.meshgrid(f.x, f.y)
        expected = 4.0 + np.exp(-(xx**2 + yy**2))
        assert np.max(np.abs(f.u - expected)) <= 1e-14

    def test_custom_ic_roundtrip(self, tmp_path):
        path = tmp_path / "ic.npz"
        x = np.linspace(0.0, 1.0, 11)
        np.savez(path, u=0.5 + 0.1 * x, v=0.2 + 0.0 * x)
        cfg = SimConfig(
            params=POWER,
            dim=1,
            extents=((0.0, 1.0),),
            h=0.1,
            ic=CustomIC(path=str(path)),
            t_end=1.0,
            cadence=0.5,
        )
        f = build_initial(cfg)
        assert f.u[0] == pytest.approx(0.5) and f.u[-1] == pytest.approx(0.6)

    def test_custom_ic_shape_mismatch(self, tmp_path):
        path = tmp_path / "ic.npz"
        np.savez(path, u=np.zeros(7), v=np.zeros(7))
        cfg = SimConfig(
            params=POWER,
            dim=1,
            extents=((0.0, 1.0),),
            h=0.1,
            ic=CustomIC(path=str(path)),
            t_end=1.0,
            cadence=0.5,
        )
        with pytest.raises(ConfigError):
            build_initial(cfg)

    @pytest.mark.parametrize("source", ["npz", "array"])
    @pytest.mark.parametrize(
        "u, v",
        [
            (np.zeros(7), np.zeros(7)),
            (np.full(11, np.inf), np.zeros(11)),
            (np.zeros(11), np.full(11, -1.0)),
        ],
        ids=["shape", "non-finite", "negative"],
    )
    def test_initial_arrays_validated(self, tmp_path, source, u, v):
        # File-backed and in-memory initial states share one validation.
        cfg = SimConfig(
            params=POWER,
            dim=1,
            extents=((0.0, 1.0),),
            h=0.1,
            ic=_array_ic(source, tmp_path, u, v),
            t_end=1.0,
            cadence=0.5,
        )
        with pytest.raises(ConfigError):
            build_initial(cfg)


class TestSimulate:
    def test_snapshot_schedule_and_diagnostics(self):
        cfg = _front_config()
        traj = simulate(cfg)
        assert isinstance(traj, Trajectory)
        assert traj.times == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        assert len(traj.snapshots) == 6
        assert len(traj.mass_u) == 6 and len(traj.mass_v) == 6
        assert all(m > 0 for m in traj.mass_u)
        assert all(np.min(s.u) >= 0.0 and np.min(s.v) >= 0.0 for s in traj.snapshots)
        assert all(dt <= cfg.dt_max + 1e-12 for dt in traj.dt_history)
        # Front positions are recorded and move right once the wave forms.
        assert np.isfinite(traj.front[-1]) and traj.front[-1] > traj.front[0]

    def test_front_speed_near_minimal(self):
        # A steep-front start travels at about the minimal speed 2 sqrt(a).
        # Pulled fronts relax logarithmically slowly, so a horizon this
        # short sits well below the limit; the band only pins the ballpark
        # while longer runs elsewhere check the tight tolerance.
        cfg = SimConfig(
            params=POWER,
            dim=1,
            extents=((0.0, 100.0),),
            h=0.05,
            ic=FrontIC(steepness=1.0, offset=15.0),
            t_end=100.0,
            cadence=2.0,
        )
        traj = simulate(cfg)
        c_est, _ = wave_speed(
            np.array(traj.times), np.array(traj.front), transient_fraction=0.5
        )
        c_min = 2.0 * np.sqrt(POWER.a)
        assert abs(c_est - c_min) / c_min < 0.25

    def test_dirichlet_sides_held(self):
        val = 1.0 / (1.0 + np.exp(-20.0))
        cfg = _front_config(
            bc={"left": Dirichlet(val, val), "right": Dirichlet(0.0, 0.0)},
            ic=FrontIC(steepness=2.0, offset=10.0),
            t_end=4.0,
            cadence=2.0,
        )
        traj = simulate(cfg)
        for snap in traj.snapshots:
            assert snap.u[0] == pytest.approx(val, abs=1e-12)
            assert snap.v[0] == pytest.approx(val, abs=1e-12)
            assert snap.u[-1] == pytest.approx(0.0, abs=1e-12)

    def test_error_carries_failing_time(self, tmp_path):
        # A custom IC with an isolated spike goes negative on the first step.
        n = 41
        u = np.zeros(n)
        u[1] = 1.0
        v = np.full(n, 0.01)
        v[:2] = 3.0
        path = tmp_path / "spike.npz"
        np.savez(path, u=u, v=v)
        cfg = SimConfig(
            params=POWER,
            dim=1,
            extents=((0.0, 4.0),),
            h=0.1,
            ic=CustomIC(path=str(path)),
            t_end=1.0,
            cadence=1.0,
            dt_max=0.1,
        )
        with pytest.raises(NegativeDensity, match="t="):
            simulate(cfg)

    def test_motility_evaluated_once_per_step(self, monkeypatch):
        # The face data that chooses dt is the face data the step uses.
        calls = []

        def counting(family, v):
            calls.append(v.shape)
            return motility_eval(family, v)

        monkeypatch.setattr(pde, "motility_eval", counting)
        traj = simulate(_front_config(t_end=2.0, cadence=1.0))
        assert len(calls) == len(traj.dt_history) > 0

    def test_back_to_back_2d_runs_match_runs_alone(self):
        # Each run owns its operators and factors, so a run on another mask
        # in between changes nothing.
        def run(disk):
            return simulate(
                SimConfig(
                    params=POWER,
                    dim=2,
                    extents=((-3.0, 3.0), (-3.0, 3.0)),
                    h=0.25,
                    ic=Bump2dIC(base=1.0, amplitude=0.5),
                    t_end=1.0,
                    cadence=0.5,
                    disk_mask=disk,
                )
            )

        alone = {disk: run(disk) for disk in (True, False)}
        for disk in (False, True, False):
            again = run(disk)
            assert again.dt_history == alone[disk].dt_history
            for a, b in zip(again.snapshots, alone[disk].snapshots):
                assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_2d_bump_smoke(self):
        cfg = SimConfig(
            params=POWER,
            dim=2,
            extents=((-5.0, 5.0), (-5.0, 5.0)),
            h=0.25,
            ic=Bump2dIC(base=4.0, amplitude=1.0),
            t_end=2.0,
            cadence=1.0,
        )
        traj = simulate(cfg)
        assert len(traj.snapshots) == 3
        final = traj.snapshots[-1]
        assert np.min(final.u) >= 0.0 and np.all(np.isfinite(final.u))
        # Growth is saturating: density relaxes toward a/b from above.
        assert final.u.max() < traj.snapshots[0].u.max()

    def test_disk_mask_smoke(self):
        cfg = SimConfig(
            params=POWER,
            dim=2,
            extents=((-3.0, 3.0), (-3.0, 3.0)),
            h=0.25,
            ic=Bump2dIC(base=1.0, amplitude=0.5),
            t_end=1.0,
            cadence=0.5,
            disk_mask=True,
        )
        traj = simulate(cfg)
        final = traj.snapshots[-1]
        assert final.mask is not None
        xx, yy = np.meshgrid(final.x, final.y)
        outside = ~final.mask
        assert np.all(final.u[outside] == 0.0)
        assert np.all(np.isfinite(final.u))


# ---------------------------------------------------------------------------
# Snapshot serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_1d_csv_roundtrip(self, tmp_path):
        f = make_field(1, ((0.0, 2.0),), 0.1, u0=0.0, v0=0.0)
        f.u[:] = np.linspace(0.0, 1.0, f.nx) ** 2
        f.v[:] = 0.5 - 0.1 * np.linspace(0.0, 1.0, f.nx)
        base = tmp_path / "snap"
        paths = save_field(f, str(base))
        assert any(p.endswith(".csv") for p in paths)
        g = load_field(str(base))
        assert np.array_equal(g.u, f.u)
        assert np.array_equal(g.v, f.v)
        assert g.h == f.h and g.nx == f.nx

    def test_2d_binary_roundtrip(self, tmp_path):
        f = make_field(2, ((0.0, 1.0), (0.0, 2.0)), 0.25, u0=0.0, v0=0.0)
        rng = np.random.default_rng(5)
        f.u[:] = rng.random(f.u.shape)
        f.v[:] = rng.random(f.v.shape)
        base = tmp_path / "snap2d"
        paths = save_field(f, str(base))
        assert any(p.endswith(".json") for p in paths)
        assert any(p.endswith(".bin") for p in paths)
        g = load_field(str(base))
        assert np.array_equal(g.u, f.u)
        assert np.array_equal(g.v, f.v)
        assert g.ny == f.ny and g.extents == f.extents


# ---------------------------------------------------------------------------
# Oscillatory trailing edge forms for the steep sigmoid motility
# ---------------------------------------------------------------------------


class TestSigmoidOscillations:
    def test_trailing_oscillations_emerge(self):
        params = ModelParams(
            a=0.2, b=0.2, motility=SigmoidMotility(eps=0.1, v0=1.0)
        )
        cfg = SimConfig(
            params=params,
            dim=1,
            extents=((0.0, 60.0),),
            h=0.05,
            ic=FrontIC(steepness=2.0, offset=15.0),
            t_end=25.0,
            cadence=5.0,
        )
        traj = simulate(cfg)
        final = traj.snapshots[-1]
        eq = params.a / params.b
        region = final.u[final.x < traj.front[-1]]
        overshoot = region.max() - eq
        assert overshoot > 1e-2 * eq
