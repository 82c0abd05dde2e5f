"""Tests for the direct 1-D/2-D time-dependent solver.

Oracles: uniform states against a high-accuracy two-ODE integration, the
discrete mass identities of u and v on zero-flux boxes, a smooth
manufactured solution for the spatial order of the discretization, and the
unweighted implicit systems assembled node by node (dense in 1-D, solved
directly as sparse in 2-D).
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import spsolve

import wavemotil.pde as pde
from wavemotil.errors import (
    ConfigError,
    NegativeDensity,
    NoConvergence,
    NonFiniteState,
)
from wavemotil.analysis import c_star, lambda_decay, leading_edge_speed
from wavemotil.frontmetrics import classify_profile, front_position, wave_speed
from wavemotil.model import (
    ModelParams,
    PowerMotility,
    SigmoidMotility,
)
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
from wavemotil.waveode import traveling_wave

POWER = ModelParams(a=0.1, b=0.1, motility=PowerMotility(m=6.0))
DILUTE = ModelParams(a=0.1, b=60.0, motility=PowerMotility(m=6.0))


def _collected(config):
    """A run of ``config`` and every snapshot it took, in order.

    The run keeps only its final snapshot, so the others are collected
    through ``on_snapshot``.
    """
    snaps = []
    return simulate(config, on_snapshot=lambda k, f: snaps.append(f)), snaps


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

    @pytest.mark.parametrize(
        "extents, counts",
        [
            (((0.0, 9_999_999.0),), [10_000_000]),
            (((0.0, 3_999.0), (0.0, 2_499.0)), [4_000, 2_500]),
        ],
        ids=["1d", "2d"],
    )
    def test_largest_runnable_grid_is_accepted(self, extents, counts):
        # MAX_RUN_COUNT nodes, on one axis or two, are the most a run may
        # have.  Only the description is checked: no array is made.
        _, got, _ = pde._grid_spec(len(extents), extents, 1.0, None, False)
        assert got == counts
        assert math.prod(got) == pde.MAX_RUN_COUNT

    @pytest.mark.parametrize(
        "extents",
        [((0.0, 1e7),), ((0.0, 3_999.0), (0.0, 2_500.0)), ((0.0, 2.0**60),)],
        ids=["1d", "2d", "1d-past-index"],
    )
    def test_one_node_past_the_run_bound_is_refused(self, extents):
        # MAX_RUN_COUNT + 1 nodes, 4,000 x 2,501, and 2**60 + 1, whose
        # float64 bytes no intp indexes, are refused before any array exists.
        with pytest.raises(ValueError, match="grid nodes, more than MAX_RUN_COUNT"):
            pde._grid_spec(len(extents), extents, 1.0, None, False)

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
    """Both systems are symmetric with column sums lead W (u: in the unknown
    w = gamma u+), since K = W L has zero column sums.  So their rows sum to
    lead sum W u+ = sum W rhs_u and lead sum W v+ = sum W rhs_v, with the
    right-hand sides of the step's order (``_scheme``): the discrete mass
    identities of u and of v.  Both hold to rounding in 1-D and to the CG
    tolerance in 2-D."""

    @staticmethod
    def _scheme(f, before, params, dt):
        """Lead coefficient and right-hand sides of u and v of the step of
        f by dt: SBDF2 from ``before``, the state before f, when given,
        else first order."""
        def growth(u):
            return u * (params.a - params.b * u)

        rhs_u = f.u + dt * growth(f.u)
        rhs_v = f.v + dt * (f.u - f.v)
        if before is None:
            return 1.0, rhs_u, rhs_v
        u0, v0 = before.u, before.v
        rhs_u = 2.0 * rhs_u - (0.5 * u0 + dt * growth(u0))
        rhs_v = 2.0 * rhs_v - (0.5 * v0 + dt * (u0 - v0))
        return 1.5, rhs_u, rhs_v

    @classmethod
    def _march(cls, f, params, dts, tol):
        """Steps f through ``dts`` and checks both identities, relative to
        sum W rhs, at each step; a step that repeats the last dt is second
        order.  Returns the last state and the order of each step."""
        weights = pde._stepper_of(f).weights
        before, orders = None, []
        for k, dt in enumerate(dts):
            second = k > 0 and dt == dts[k - 1]
            lead, *rhs = cls._scheme(f, before if second else None, params, dt)
            g = step(f, params, dt)
            for new, total in zip(mass(g), (float(np.sum(weights * r)) for r in rhs)):
                assert abs(lead * new - total) <= tol * total
            orders.append(2 if second else 1)
            before, f = f, g
        return f, orders

    def test_1d_zero_flux_box(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 10.0, 201)
        u0 = 0.5 + 0.3 * np.cos(np.pi * x / 10.0) + 0.05 * rng.random(201)
        v0 = 0.4 + 0.2 * np.cos(2 * np.pi * x / 10.0)
        sigmoid = ModelParams(a=0.2, b=0.2, motility=SigmoidMotility(eps=0.1, v0=1.0))
        for params in (POWER, sigmoid):
            f = make_field(1, ((0.0, 10.0),), 0.05, u0=u0, v0=v0)
            # Several steps, so the source u differs between the laws.
            dts = [0.05 if k % 3 else 0.2 for k in range(10)]
            _, orders = self._march(f, params, dts, 1e-13)
            assert sorted(set(orders)) == [1, 2]

    @staticmethod
    def _bumps(disk):
        """Offset bumps of u and v on [-2, 2]^2, zero off the disk mask."""
        f = make_field(
            2, ((-2.0, 2.0), (-2.0, 2.0)), 0.1, u0=0.0, v0=0.0, disk_mask=disk
        )
        xx, yy = np.meshgrid(f.x, f.y)
        live = np.ones(f.u.shape, dtype=bool) if f.mask is None else f.mask
        f.u[live] = (0.8 + 0.5 * np.exp(-(xx**2 + yy**2)))[live]
        f.v[live] = (0.3 + 0.2 * np.exp(-((xx - 0.5) ** 2 + yy**2)))[live]
        return f

    def test_2d_zero_flux_box(self):
        self._march(self._bumps(disk=False), POWER, [0.05, 0.05], 1e-10)

    def test_2d_masked_disk(self):
        # Closed faces at the staircase edge keep the Laplacian telescoping.
        self._march(self._bumps(disk=True), POWER, [0.05, 0.05], 1e-10)

    @pytest.mark.parametrize("disk", [False, True])
    def test_2d_along_a_chain(self, disk):
        # Steps on one chain start their solves from extrapolated histories;
        # a change of dt restarts the chain, and its history with it.
        dts = [0.02, 0.05, 0.05, 0.02, 0.05, 0.02] + [0.05] * 8
        _, orders = self._march(self._bumps(disk), POWER, dts, 1e-10)
        assert sorted(set(orders)) == [1, 2]
        f, since = self._bumps(disk), 0
        for k, dt in enumerate(dts):
            since = since + 1 if k and dt == dts[k - 1] else 1
            f = step(f, POWER, dt)
            points = pde._stepper_of(f)._points
            assert len(points) == min(since, pde._GUESS_POINTS)


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
        g, gp, _ = mot.eval(v_ex(x))
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
            g, gp, _ = mot.eval(v_ex(x, y))
            return g * dudx + u_ex(x, y) * gp * dvdx

        def flux_y(x, y, d=1e-5):
            dudy = (u_ex(x, y + d) - u_ex(x, y - d)) / (2 * d)
            dvdy = (v_ex(x, y + d) - v_ex(x, y - d)) / (2 * d)
            g, gp, _ = mot.eval(v_ex(x, y))
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


class TestTimeOrder:
    def test_second_order_in_time(self):
        # Halving dt cuts the error of a short front run, against a run at
        # a 64th of the step, by about 4: SBDF2 after a first-order start.
        def run(dt_max):
            cfg = SimConfig(
                params=SIGMOID,
                dim=1,
                extents=((0.0, 20.0),),
                h=0.1,
                ic=FrontIC(steepness=1.0, offset=20.0 / 3.0),
                t_end=2.0,
                cadence=2.0,
                dt_max=dt_max,
            )
            return simulate(cfg).snapshots[-1]

        ref = run(0.1 / 64)
        errors = []
        for dt_max in (0.1, 0.05):
            g = run(dt_max)
            errors.append([np.max(np.abs(g.u - ref.u)), np.max(np.abs(g.v - ref.v))])
        coarse, fine = errors
        assert min(c / f for c, f in zip(coarse, fine)) >= 3.5


class TestStepErrors:
    # Competition strong enough that dt (b u - a) > 1 at the spike, so the
    # explicit logistic term turns the right-hand side there negative.
    CROWDED = ModelParams(a=0.1, b=1e12, motility=PowerMotility(m=6.0))

    @staticmethod
    def _spike(height):
        f = make_field(1, ((0.0, 4.0),), 0.1, u0=0.0, v0=0.0)
        f.u[20] = height
        return f

    def test_negative_density_raised(self):
        with pytest.raises(NegativeDensity):
            step(self._spike(1e-10), self.CROWDED, 1.5)

    def test_tiny_undershoot_clipped_to_zero(self):
        out = step(self._spike(1e-12), self.CROWDED, 1.5)
        assert np.min(out.u) == 0.0
        assert np.min(out.v) >= 0.0

    def test_clipped_undershoots_are_counted(self):
        f = self._spike(1e-12)
        st = pde._stepper_of(f)
        assert (st.clipped_values, st.worst_undershoot) == (0, 0.0)
        out = step(f, self.CROWDED, 1.5)
        zeros = np.count_nonzero(out.u == 0.0) + np.count_nonzero(out.v == 0.0)
        assert 1 <= st.clipped_values <= zeros
        assert -1e-12 <= st.worst_undershoot < 0.0
        # simulate reports the totals of its run: here the same one step.
        cfg = SimConfig(
            params=self.CROWDED,
            dim=1,
            extents=((0.0, 4.0),),
            h=0.1,
            ic=ArrayIC(f.u, f.v),
            t_end=1.5,
            cadence=1.5,
            dt_max=1.5,
        )
        traj = simulate(cfg)
        assert traj.clipped_values == st.clipped_values
        assert traj.worst_undershoot == st.worst_undershoot

    @staticmethod
    def _old_advective_bound(f, params):
        """The bound 0.4 h / max |gamma'(v) dv/dn| the explicit cross-diffusion
        flux of the expanded form put on dt."""
        _, gp, _ = params.motility.eval(f.v)
        peak = 0.0
        for ax in range(f.dim):
            face = 0.5 * (np.delete(gp, 0, ax) + np.delete(gp, -1, ax))
            peak = max(peak, np.max(np.abs(face * np.diff(f.v, axis=ax))) / f.h)
        return 0.4 * f.h / peak

    @pytest.mark.parametrize("dim", [1, 2])
    def test_steep_front_far_past_the_old_advective_bound(self, dim, monkeypatch):
        # The u system is an M-matrix for every dt: a steep front in u and
        # v stays nonnegative at 10x and 100x the old advective bound.  In
        # 1-D the direct solve keeps the sign exactly, so a zero floor (no
        # clip) must hold; in 2-D the clip may absorb the CG tolerance.
        extents = ((0.0, 8.0),) if dim == 1 else ((0.0, 8.0), (0.0, 2.0))
        f = make_field(dim, extents, 0.05, u0=0.0, v0=0.0)
        x = f.x if dim == 1 else np.meshgrid(f.x, f.y)[0]
        front = 1.0 / (1.0 + np.exp(20.0 * (x - 3.0)))
        f.u[...] = 2.0 * front
        f.v[...] = 3.0 * front
        bound = self._old_advective_bound(f, POWER)
        if dim == 1:
            monkeypatch.setattr(pde, "_NEG_FLOOR", 0.0)
        for factor in (10.0, 100.0):
            dt = factor * bound
            # The explicit logistic term is nonnegative only here.
            assert dt * (POWER.b * f.u.max() - POWER.a) <= 1.0
            out = step(f, POWER, dt)
            assert np.min(out.u) >= 0.0 and np.min(out.v) >= 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_node_raises_non_finite_state(self, dim):
        # One NaN node: in 1-D it used to surface as a bare ValueError from
        # the banded solver, in 2-D it spread silently to all 441 nodes.
        extents = ((0.0, 2.0),) * dim
        f = make_field(dim, extents, 0.1, u0=0.5, v0=0.5)
        f.u[(10,) * dim] = np.nan
        with pytest.raises(NonFiniteState):
            step(f, POWER, 0.01)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_v_raises_non_finite_state(self, value):
        # The motility law rejects it; the step reports the state.
        f = make_field(1, ((0.0, 2.0),), 0.1, u0=0.5, v0=0.5)
        f.v[10] = value
        with pytest.raises(NonFiniteState):
            step(f, POWER, 0.01)

    @pytest.mark.parametrize("m", [1800.0, 1e8], ids=["subnormal", "zero"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_underflowing_motility_raises_non_finite_state(self, dim, m):
        # gamma(0.5) = 1.5**-m is 1e-317 or 0, so W / gamma is not finite.
        # In 1-D at m = 1800 the step once returned u = 0 everywhere with
        # only an overflow warning; elsewhere a 0/0 or a CG residual failed.
        params = ModelParams(a=0.1, b=0.1, motility=PowerMotility(m=m))
        f = make_field(dim, ((0.0, 2.0),) * dim, 0.1, u0=0.5, v0=0.5)
        with pytest.raises(NonFiniteState, match=r"gamma\(v\) underflows"):
            step(f, params, 0.01)

    def test_steep_front_into_held_zero_stays_nonnegative(self):
        # u is held at 0 on the right, where the far field is already
        # empty; the iterative solve must not push it below the floor.
        extents = ((0.0, 8.0), (0.0, 2.0))
        f = make_field(2, extents, 0.05, u0=0.0, v0=0.0)
        xx, yy = np.meshgrid(f.x, f.y)
        u0 = 1.0 / (1.0 + np.exp(8.0 * (xx - 2.0 - 0.3 * np.sin(np.pi * yy))))
        held = float(u0[0, 0])
        cfg = SimConfig(
            params=POWER,
            dim=2,
            extents=extents,
            h=0.05,
            ic=ArrayIC(u0, u0),
            t_end=2.0,
            cadence=2.0,
            bc={"left": Dirichlet(held, held), "right": Dirichlet(0.0, 0.0)},
        )
        traj = simulate(cfg)
        assert cfg.dt == cfg.dt_max and len(traj.solver_iterations) == 20
        final = traj.snapshots[-1]
        assert np.all(final.u[:, -1] == 0.0) and np.all(final.v[:, -1] == 0.0)
        assert np.min(final.u) >= 0.0

    def test_nonpositive_dt_rejected(self):
        f = make_field(1, ((0.0, 1.0),), 0.1, u0=0.1, v0=0.1)
        with pytest.raises(ValueError):
            step(f, POWER, 0.0)


def _reference_system_1d(f, dt, gamma=None, lead=1.0):
    """Dense unweighted lead Gamma^-1 - dt L of a 1-D grid (lead I - dt L
    without gamma), assembled node by node.

    Held rows (Dirichlet ends) are identity rows; an end node owns a half
    cell.
    """
    n = f.nx
    held = np.zeros(n, dtype=bool)
    held[0] = isinstance(f.bc["left"], Dirichlet)
    held[-1] = isinstance(f.bc["right"], Dirichlet)
    k = dt / f.h**2
    a = np.eye(n)
    for i in np.flatnonzero(~held):
        a[i, i] = lead if gamma is None else lead / gamma[i]
        s = 2.0 if i in (0, n - 1) else 1.0
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                a[i, i] += s * k
                a[i, j] -= s * k
    return a, held


class TestTridiagonalSolve:
    """The 1-D solve against the unweighted system it symmetrizes."""

    BCS = {
        "none": None,
        "left": {"left": Dirichlet(0.8, 0.6)},
        "both": {"left": Dirichlet(0.8, 0.6), "right": Dirichlet(0.1, 0.3)},
    }

    @staticmethod
    def _field(held):
        return make_field(
            1, ((0.0, 20.0),), 0.05, u0=0.0, v0=0.0, bc=TestTridiagonalSolve.BCS[held]
        )

    @pytest.mark.parametrize("held", sorted(BCS))
    def test_residual_and_held_values(self, held):
        f = self._field(held)
        st = pde._stepper_of(f)
        rng = np.random.default_rng(7)
        gamma = 0.01 + rng.random(f.nx)
        dts = np.concatenate([rng.uniform(1e-4, 0.1, 22), [0.1, 0.02]])
        for dt, lead in zip(dts, [1.0, 1.5] * 12):
            systems = (
                (gamma, gamma * st.pin_u, st.u_system(gamma, dt, lead)),
                (None, st.pin_v, st.v_system(dt, lead)),
            )
            for diag, values, system in systems:
                a, pinned = _reference_system_1d(f, dt, diag, lead)
                rhs = 0.5 + rng.random(f.nx)
                rhs[pinned] = values[pinned]
                given = rhs.copy()
                given[pinned] = np.nan  # held values come from the stepper
                x = system.solve(given, f.u)
                residual = np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)
                assert residual <= 1e-13
                assert np.array_equal(x[pinned], values[pinned])
        # Distinct held values for u and v, so a swap would show.
        assert np.all(st.pin_u[st.pin] != st.pin_v[st.pin])

    def test_chemical_factor_kept_while_dt_repeats(self):
        # The stepper keeps one v system with its dt and lead coefficient,
        # in 1-D and 2-D alike.
        for make in (
            lambda: self._field("both"),
            lambda: TestImplicitSolve2d._field("dirichlet"),
        ):
            f = make()
            st = pde._stepper_of(f)
            rng = np.random.default_rng(5)
            factors = []
            keys = [(0.05, 1.0), (0.05, 1.0), (0.05, 1.5), (0.02, 1.5), (0.05, 1.5)]
            for key in keys:
                rhs = 0.5 + rng.random(f.u.shape)
                start = None if f.dim == 1 else _black(st, f.v)
                x = st.v_system(*key).solve(rhs, start)
                factors.append(st.v_system(*key))
                fresh = pde._stepper_of(make())
                assert np.array_equal(x, fresh.v_system(*key).solve(rhs, start))
                assert st._kept_v[0] == key
            same = [a is b for a, b in zip(factors, factors[1:])]
            assert same == [True, False, False, False]

    def test_two_node_grid_held_at_both_ends(self):
        # Each end's inner neighbour is the other held end.
        f = make_field(1, ((0.0, 1.0),), 1.0, u0=0.5, v0=0.5, bc=self.BCS["both"])
        out = pde.step(f, POWER, 0.05)
        assert out.u.tolist() == [0.8, 0.1]
        assert out.v.tolist() == [0.6, 0.3]


# ---------------------------------------------------------------------------
# The step against its allocating form
# ---------------------------------------------------------------------------


def _allocating_tridiagonal_solve(f, diag_w, dt, held, rhs):
    """W (D - dt L) x = W rhs on a 1-D grid of at least three nodes, its
    bands assembled from the cell widths, with ``diag_w`` = W D."""
    n, h = f.nx, f.h
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    links = np.full(n, 2.0)
    links[[0, -1]] = 1.0
    diag = diag_w + dt * (links * (1.0 / h))
    sub = np.full(n - 1, -dt * (1.0 / h))
    b = rhs * w
    for end, inner, side in ((0, 1, "left"), (-1, -2, "right")):
        if isinstance(f.bc[side], Dirichlet):
            b[inner] += dt * (1.0 / h) * held[end]
            diag[end] = 1.0
            sub[end] = 0.0
            b[end] = held[end]
    d, e, info = dpttrf(diag, sub)
    assert info == 0
    x, info = dpttrs(d, e, b)
    assert info == 0
    return x


def _allocating_step(f, params, dt, before=None):
    """One step by allocating expressions: SBDF2 from ``before``, the state
    before f, when given, else first order.  The 2-D solves, which these
    expressions only feed, are the stepper's, started from its chain."""
    st = pde._stepper_of(f)
    lead, rhs_u, rhs_v = TestChemicalMassIdentity._scheme(f, before, params, dt)
    st.chain(f, dt, None, None)  # feeds the 2-D starts
    v_frozen = f.v if before is None else np.maximum(2.0 * f.v - before.v, 0.0)
    gamma = params.motility.gamma(v_frozen)
    held_w = gamma * st.pin_u
    if f.dim == 1:
        diag_u = lead * st.weights / gamma
        w = _allocating_tridiagonal_solve(f, diag_u, dt, held_w, rhs_u)
        new_v = _allocating_tridiagonal_solve(f, lead * st.weights, dt, st.pin_v, rhs_v)
    else:
        start_u, start_v = st.starts(gamma)
        w = st.u_system(gamma, dt, lead).solve(rhs_u, start_u)
        new_v = st.v_system(dt, lead).solve(rhs_v, start_v)
    new_u = np.where(st.pin, st.pin_u, w / gamma)
    for arr in (new_u, new_v):
        assert np.all(np.isfinite(arr)) and arr.min() >= pde._NEG_FLOOR
        np.copyto(arr, 0.0, where=arr < 0.0)
    st.last = f._with(new_u, new_v, f.bc)
    return st.last


SIGMOID = ModelParams(a=0.2, b=0.2, motility=SigmoidMotility(eps=0.1, v0=1.0))


def _work_case(case):
    """A fresh field and its model: Dirichlet sides with the power law,
    zero-flux sides with the sigmoid law, or a masked disk."""
    if case == "masked_2d":
        return TestChemicalMassIdentity._bumps(disk=True), POWER
    f = make_field(1, ((0.0, 40.0),), 0.05, u0=0.0, v0=0.0)
    front = 1.0 / (1.0 + np.exp(2.0 * (f.x - 10.0)))
    if case == "dirichlet_power":
        bc = {"left": Dirichlet(1.0, 1.0), "right": Dirichlet(0.0, 0.0)}
        return make_field(1, f.extents, f.h, u0=front, v0=front, bc=bc), POWER
    bump = 0.3 * np.exp(-((f.x - 5.0) ** 2))
    return make_field(1, f.extents, f.h, u0=front + bump, v0=front), SIGMOID


WORK_CASES = ["dirichlet_power", "neumann_sigmoid", "masked_2d"]


def _restart(f, params, how):
    """A step that restarts the chain of f, the last state of a chain of
    steps by 0.02, and its dt: by 0.02 on a copy, which has the values of
    f but is not it, or by 0.05 on f itself."""
    if how == "copy":
        return step(f.copy(), params, 0.02), 0.02
    return step(f, params, 0.05), 0.05


class TestStepAgainstAllocatingForm:
    """The states ``step`` returns carry the bytes of the allocating
    expressions, with the 1-D bands assembled from the cell widths.  The
    first step of a chain, a step after a change of dt and a step on a
    field off the chain are the first-order step; the others are SBDF2."""

    @pytest.mark.parametrize("case", WORK_CASES)
    def test_twenty_steps_bit_for_bit(self, case):
        f, params = _work_case(case)
        ref, _ = _work_case(case)
        caps = [0.02, 0.02, 0.05, 0.05, 0.05, 0.01]
        dts, before = [], None
        for k in range(20):
            dt = caps[k % len(caps)]
            second = bool(dts) and dts[-1] == dt
            f = step(f, params, dt)
            new = _allocating_step(ref, params, dt, before if second else None)
            ref, before = new, ref
            assert f.u.tobytes() == ref.u.tobytes()
            assert f.v.tobytes() == ref.v.tobytes()
            dts.append(dt)
        # dt repeats on some steps (a kept v system) and changes on others.
        changes = sum(a != b for a, b in zip(dts, dts[1:]))
        assert 0 < changes < len(dts) - 1

    @pytest.mark.parametrize(
        "case, restart",
        [(case, "copy") for case in WORK_CASES]
        + [(case, "dt_change") for case in WORK_CASES],
        ids=WORK_CASES + [f"{case}-dt_change" for case in WORK_CASES],
    )
    def test_step_off_the_chain_is_first_order(self, case, restart):
        f, params = _work_case(case)
        for _ in range(3):
            f = step(f, params, 0.02)
        off, dt = _restart(f, params, restart)
        alone = make_field(
            f.dim, f.extents, f.h, u0=f.u, v0=f.v, bc=f.bc, disk_mask=f.mask is not None
        )
        ref = _allocating_step(alone, params, dt)
        assert off.u.tobytes() == ref.u.tobytes()
        assert off.v.tobytes() == ref.v.tobytes()


class TestWorkArrays:
    """The states a step returns own their memory: they share none with
    the stepper, its kept v system or earlier states."""

    @staticmethod
    def _arrays(obj):
        return [a for a in vars(obj).values() if isinstance(a, np.ndarray)]

    @pytest.mark.parametrize("case", WORK_CASES)
    def test_states_own_their_memory(self, case):
        f, params = _work_case(case)
        st = pde._stepper_of(f)
        states, saved = [f], [(f.u.copy(), f.v.copy())]
        for k in range(6):
            g = step(states[-1], params, 0.02 if k % 3 else 0.01)
            held = self._arrays(st) + self._arrays(st._kept_v[1])
            earlier = [a for s in states for a in (s.u, s.v)]
            for arr in (g.u, g.v):
                assert not any(np.shares_memory(arr, a) for a in held + earlier)
            assert not np.shares_memory(g.u, g.v)
            states.append(g)
            saved.append((g.u.copy(), g.v.copy()))
        for s, (u, v) in zip(states, saved):
            assert s.u.tobytes() == u.tobytes() and s.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("case", WORK_CASES)
    @pytest.mark.parametrize("step_copy", [True, False])
    def test_calls_on_a_copy_before_a_step(self, case, step_copy):
        # A copy shares the stepper; evaluating or stepping it must not
        # change the step of the field it was copied from.
        f, params = _work_case(case)
        g = f.copy()
        g.v *= 1.5
        spatial_rhs(g, params)
        if step_copy:
            step(g, params, 0.01)
        out = step(f, params, 0.02)
        alone = make_field(
            f.dim, f.extents, f.h, u0=f.u, v0=f.v, bc=f.bc, disk_mask=f.mask is not None
        )
        fresh = step(alone, params, 0.02)
        assert out.u.tobytes() == fresh.u.tobytes()
        assert out.v.tobytes() == fresh.v.tobytes()


# ---------------------------------------------------------------------------
# 2-D implicit solve against a direct reference
# ---------------------------------------------------------------------------


def _black(st, a):
    """Values of a planar node array on the black nodes, where a 2-D solve
    starts."""
    return a.ravel()[st.pattern.black]


def _reference_system(f, dt, gamma=None):
    """Unweighted Gamma^-1 - dt L of a planar grid (I - dt L without gamma),
    assembled node by node.

    Held rows (Dirichlet sides, masked-out cells) are identity rows; a node
    on a box side owns a half cell across that side, and faces leaving the
    disk mask are closed.
    """
    ny, nx = f.u.shape
    nodes_of_side = {
        "left": (slice(None), 0),
        "right": (slice(None), -1),
        "bottom": (0, slice(None)),
        "top": (-1, slice(None)),
    }
    held = np.zeros((ny, nx), dtype=bool)
    for side, cond in f.bc.items():
        if isinstance(cond, Dirichlet):
            held[nodes_of_side[side]] = True
    conds_x, conds_y = np.ones((ny, nx - 1)), np.ones((ny - 1, nx))
    if f.mask is not None:
        held |= ~f.mask
        conds_x = conds_x * (f.mask[:, :-1] & f.mask[:, 1:])
        conds_y = conds_y * (f.mask[:-1, :] & f.mask[1:, :])
    k = dt / f.h**2
    a = sparse.lil_matrix((nx * ny, nx * ny))
    for j in range(ny):
        for i in range(nx):
            row = j * nx + i
            a[row, row] = 1.0
            if held[j, i]:
                continue
            if gamma is not None:
                a[row, row] = 1.0 / gamma[j, i]
            sx = 2.0 if i in (0, nx - 1) else 1.0
            sy = 2.0 if j in (0, ny - 1) else 1.0
            links = []
            if i > 0:
                links.append((row - 1, sx * conds_x[j, i - 1]))
            if i < nx - 1:
                links.append((row + 1, sx * conds_x[j, i]))
            if j > 0:
                links.append((row - nx, sy * conds_y[j - 1, i]))
            if j < ny - 1:
                links.append((row + nx, sy * conds_y[j, i]))
            for col, c in links:
                a[row, row] += k * c
                a[row, col] -= k * c
    return a.tocsr(), held


class TestImplicitSolve2d:
    @staticmethod
    def _field(case):
        extents = ((-2.0, 2.0), (-1.5, 1.5))
        kw = {}
        if case == "dirichlet":
            kw["bc"] = {"left": Dirichlet(0.7, 0.4), "right": Dirichlet(0.2, 0.1)}
        if case == "disk":
            kw["disk_mask"] = True
        return make_field(2, extents, 0.25, u0=0.0, v0=0.0, **kw)

    @classmethod
    def _problem(cls, case, unknown, seed):
        """The solver of ``unknown`` at dt = 0.5, a right-hand side holding
        the stepper's values at the held nodes, and the direct solution."""
        f = cls._field(case)
        st = pde._stepper_of(f)
        rng = np.random.default_rng(seed)
        ny, nx = f.u.shape
        # The u system's unknown is w = gamma u; gamma varies node by node.
        gamma = 0.2 + rng.random((ny, nx)) if unknown == "u" else None
        dt = 0.5
        ref_matrix, held = _reference_system(f, dt, gamma)

        rhs = 0.5 + rng.random((ny, nx))
        held_values = gamma * st.pin_u if unknown == "u" else st.pin_v
        rhs[held] = held_values[held]
        expected = spsolve(ref_matrix, rhs.ravel()).reshape(ny, nx)
        solver = st.u_system(gamma, dt) if unknown == "u" else st.v_system(dt)
        return st, solver, rhs, held, held_values, expected, rng

    @pytest.mark.parametrize("unknown", ["u", "v"])
    @pytest.mark.parametrize("case", ["neumann", "dirichlet", "disk"])
    def test_matches_direct_solve(self, case, unknown):
        st, solver, rhs, held, held_values, expected, rng = self._problem(
            case, unknown, 3
        )
        warm = solver.solve(rhs, _black(st, rhs + 0.01 * rng.random(rhs.shape)))
        before = st.iterations
        cold = solver.solve(rhs, np.zeros(st.pattern.black.size))
        assert st.iterations > before
        for x in (warm, cold):
            assert np.max(np.abs(x - expected)) <= 1e-11
            assert np.array_equal(x[held], held_values[held])
        if case == "dirichlet":
            assert np.all(held_values[held] != 0.0)

    @pytest.mark.parametrize("unknown", ["u", "v"])
    @pytest.mark.parametrize("case", ["dirichlet", "disk"])
    def test_held_values_come_from_the_stepper(self, case, unknown):
        st, solver, rhs, held, held_values, expected, _ = self._problem(
            case, unknown, 11
        )
        given = rhs.copy()
        given[held] = np.nan  # the solve never reads rhs at held nodes
        x = solver.solve(given, _black(st, rhs))
        assert np.max(np.abs(x - expected)) <= 1e-11
        assert np.array_equal(x[held], held_values[held])
        assert np.array_equal(x, solver.solve(rhs, _black(st, rhs)))

    def test_corner_takes_the_later_side(self):
        # Held values go in side by side in the order left, right, bottom,
        # top, whatever the order of the bc mapping: bottom and top win the
        # corners.
        sides = {
            "left": Dirichlet(0.8, 0.6),
            "right": Dirichlet(0.5, 0.4),
            "bottom": Dirichlet(0.1, 0.3),
            "top": Dirichlet(0.2, 0.7),
        }
        for bc in (sides, dict(reversed(sides.items()))):
            f = GridField(
                extents=((0.0, 2.0), (0.0, 2.0)),
                h=1.0,
                u=np.full((3, 3), 0.5),
                v=np.full((3, 3), 0.5),
                bc=bc,
            )
            st = pde._stepper_of(f)
            assert st.pin_u.tolist() == [[0.1] * 3, [0.8, 0.0, 0.5], [0.2] * 3]
            assert st.pin_v.tolist() == [[0.3] * 3, [0.6, 0.0, 0.4], [0.7] * 3]
            out = step(f, POWER, 0.05)
            for new, held in ((out.u, st.pin_u), (out.v, st.pin_v)):
                assert np.array_equal(new[st.pin], held[st.pin])

    def test_iteration_cap_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(pde, "_CG_MAX_ITER", 1)
        cfg = SimConfig(
            params=POWER,
            dim=2,
            extents=((-3.0, 3.0), (-3.0, 3.0)),
            h=0.25,
            ic=Bump2dIC(base=1.0, amplitude=0.5),
            t_end=0.5,
            cadence=0.5,
        )
        with pytest.raises(NoConvergence, match=r"1 iterations.*residual.*t="):
            simulate(cfg)


def _half_cell_weights(f):
    """Cell volumes of a planar grid (half cells on the sides), 0 off the mask."""
    wx = np.full(f.nx, f.h)
    wx[[0, -1]] *= 0.5
    wy = np.full(f.ny, f.h)
    wy[[0, -1]] *= 0.5
    w = np.outer(wy, wx)
    return w if f.mask is None else w * f.mask


def _textbook_jacobi_pcg(a, b, x, rtol):
    """Jacobi-preconditioned CG on a x = b until ||b - a x|| <= rtol ||b||.

    Returns the solution and the number of iterations.
    """
    inv_diag = 1.0 / a.diagonal()
    r = b - a @ x
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    its = 0
    while np.linalg.norm(r) > rtol * np.linalg.norm(b):
        q = a @ p
        alpha = rz / (p @ q)
        x = x + alpha * p
        r = r - alpha * q
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        its += 1
    return x, its


class TestRedBlackSolve:
    """The 2-D solve against the full weighted system it reduces."""

    CASES = ["neumann", "dirichlet", "disk", "odd_by_even"]

    @staticmethod
    def _case(case, seed=3):
        # odd_by_even: 17 x 12 nodes with the bottom row held, so the two
        # colours of the 187 active nodes differ in size.
        if case == "odd_by_even":
            f = make_field(
                2,
                ((-2.0, 2.0), (-1.5, 1.25)),
                0.25,
                u0=0.0,
                v0=0.0,
                bc={"bottom": Dirichlet(0.3, 0.6)},
            )
        else:
            f = TestImplicitSolve2d._field(case)
        rng = np.random.default_rng(seed)
        return f, 0.2 + rng.random(f.u.shape), rng

    @staticmethod
    def _weighted(f, ref_matrix, held, rhs):
        """W (Gamma^-1 - dt L) on the active nodes and its right-hand side
        W b."""
        w = _half_cell_weights(f).ravel()
        active = ~held.ravel()
        held_part = np.where(held, rhs, 0.0).ravel()
        moved = ref_matrix @ held_part - held_part
        b = (w * (rhs.ravel() - moved))[active]
        a = (sparse.diags(w) @ ref_matrix).tocsr()[active][:, active]
        return a, b, w, active

    @pytest.mark.parametrize("dt", [0.1, 0.5])
    @pytest.mark.parametrize("case", CASES)
    def test_full_weighted_residual_within_tolerance(self, case, dt):
        f, gamma, rng = self._case(case)
        st = pde._stepper_of(f)
        ref_matrix, held = _reference_system(f, dt, gamma)
        if case == "odd_by_even":
            red = np.add.outer(np.arange(f.ny), np.arange(f.nx)) % 2 == 0
            assert np.sum(red & ~held) != np.sum(~red & ~held)
        rhs = 0.5 + rng.random(f.u.shape)
        held_w = gamma * st.pin_u
        rhs[held] = held_w[held]
        _, b, w, active = self._weighted(f, ref_matrix, held, rhs)

        solver = st.u_system(gamma, dt)
        for x0 in (np.zeros_like(rhs), rhs):
            x = solver.solve(rhs, _black(st, x0))
            residual = (w * (rhs.ravel() - ref_matrix @ x.ravel()))[active]
            # The stop test reads the recursively updated residual, which
            # differs from this one by rounding.
            bound = pde._CG_RTOL * np.linalg.norm(b)
            assert np.linalg.norm(residual) <= 1.01 * bound
            assert np.array_equal(x[held], held_w[held])

    @pytest.mark.parametrize("case", CASES)
    def test_nonnegative_rhs_gives_nonnegative_colours(self, case):
        # A narrow bump and a short step: on the zero-flux box the solution
        # falls to about 1e-19 on the far side, far below the solve's
        # tolerance.
        f, gamma, _ = self._case(case)
        st = pde._stepper_of(f)
        xx, yy = np.meshgrid(f.x, f.y)
        rhs = np.exp(-20.0 * ((xx - 1.5) ** 2 + yy**2))
        rhs[st.pin] = (gamma * st.pin_u)[st.pin]
        red = np.add.outer(np.arange(f.ny), np.arange(f.nx)) % 2 == 0
        solver = st.u_system(gamma, 0.01)
        for x0 in (np.zeros_like(rhs), rhs):
            x = solver.solve(rhs, _black(st, x0))
            assert np.min(x[red]) >= 0.0 and np.min(x[~red]) >= 0.0

    @pytest.mark.parametrize("case", CASES)
    def test_transposed_block_matches_transpose_view(self, case):
        # The CSC view of C1^T scatters each product in the order a CSR
        # copy of C1^T sums its rows, so the right-hand side is the same
        # bit for bit either way.
        f, gamma, rng = self._case(case)
        st = pde._stepper_of(f)
        pat = st.pattern
        copy = sparse.csr_matrix(pat.coupling.T)
        for _ in range(3):
            r = rng.standard_normal(pat.red.size)
            assert np.array_equal(pat.coupling_t @ r, copy @ r)

    @classmethod
    def _assembled(cls, case, unknown, dt):
        """A system's assembled S and the blocks of its full weighted
        matrix, taken independently from the reference system: the black
        diagonal D_b, dt C1^T, the red diagonal D_r as a vector and dt C1."""
        f, gamma, rng = cls._case(case)
        st = pde._stepper_of(f)
        if unknown == "u":
            solver = st.u_system(gamma, dt)
            ref_matrix, _ = _reference_system(f, dt, gamma)
        else:
            solver = st.v_system(dt)
            ref_matrix, _ = _reference_system(f, dt)
        full = (sparse.diags(_half_cell_weights(f).ravel()) @ ref_matrix).tocsr()
        red, black = st.pattern.red, st.pattern.black
        (d_r, c_rb), (c_br, d_b) = [
            [full[rows][:, cols].toarray() for cols in (red, black)]
            for rows in (red, black)
        ]
        assert np.count_nonzero(d_r - np.diag(np.diag(d_r))) == 0
        assert np.count_nonzero(d_b - np.diag(np.diag(d_b))) == 0
        return solver.schur, d_b, c_br, np.diag(d_r), c_rb, rng

    @pytest.mark.parametrize("dt", [0.1, 0.5])
    @pytest.mark.parametrize("unknown", ["u", "v"])
    @pytest.mark.parametrize("case", CASES)
    def test_assembled_schur_matches_the_unformed_product(self, case, unknown, dt):
        schur, d_b, c_br, d_r, c_rb, rng = self._assembled(case, unknown, dt)
        for _ in range(3):
            p = rng.standard_normal(d_b.shape[0])
            unformed = d_b @ p - c_br @ ((c_rb @ p) / d_r)
            err = np.linalg.norm(schur @ p - unformed)
            assert err <= 1e-14 * np.linalg.norm(unformed)
        # Entry by entry, with no stored entry that is zero: S holds the
        # nine-point stencil and nothing else.
        dense = d_b - c_br @ (c_rb / d_r[:, None])
        assert np.max(np.abs(schur.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))
        assert schur.nnz == np.count_nonzero(dense) == np.count_nonzero(schur.data)

    @pytest.mark.parametrize("dt", [0.1, 0.5])
    @pytest.mark.parametrize("unknown", ["u", "v"])
    @pytest.mark.parametrize("case", CASES)
    def test_assembled_schur_is_a_symmetric_z_matrix(self, case, unknown, dt):
        # Nonpositive off-diagonals are what carries the M-matrix sign
        # argument over to the reduced system.
        schur = self._assembled(case, unknown, dt)[0]
        dense = schur.toarray()
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - dense.T)) <= 4 * np.finfo(float).eps * scale
        off = dense - np.diag(np.diag(dense))
        assert np.max(off) <= 0.0 < np.min(np.diag(dense))

    @pytest.mark.parametrize("case", CASES)
    def test_each_system_owns_its_schur_matrix(self, case):
        # The u and v systems of a step hold their values of S side by side
        # over the pattern's index arrays; solving one leaves the other's.
        f, gamma, rng = self._case(case)
        st = pde._stepper_of(f)
        u_sys, v_sys = st.u_system(gamma, 0.1), st.v_system(0.1)
        assert u_sys.schur is not v_sys.schur
        for index, shared in zip(st.pattern.schur_index, ("indices", "indptr")):
            assert np.shares_memory(getattr(u_sys.schur, shared), index)
            assert np.shares_memory(getattr(v_sys.schur, shared), index)
        u_values = u_sys.schur.data.copy()
        v_sys.solve(0.5 + rng.random(f.u.shape), np.zeros(st.pattern.black.size))
        assert np.array_equal(u_sys.schur.data, u_values)
        assert not np.array_equal(u_sys.schur.data, v_sys.schur.data)

    def test_half_the_iterations_of_full_system_cg(self):
        # Guards against a silent return to CG on the full system, which
        # needs about twice the iterations from the same start.
        f, gamma, rng = self._case("disk")
        st = pde._stepper_of(f)
        dt = 0.5
        ref_matrix, held = _reference_system(f, dt, gamma)
        rhs = 0.5 + rng.random(f.u.shape)
        rhs[held] = 0.0
        a, b, _, active = self._weighted(f, ref_matrix, held, rhs)
        expected, full_its = _textbook_jacobi_pcg(a, b, np.zeros_like(b), 1e-12)

        before = st.iterations
        x = st.u_system(gamma, dt).solve(rhs, np.zeros(st.pattern.black.size))
        assert st.iterations - before <= 0.6 * full_its
        assert np.max(np.abs(x.ravel()[active] - expected)) <= 1e-11


class TestExtrapolatedStart:
    """A 2-D step starts CG from the extrapolated history of its chain."""

    @staticmethod
    def _config(disk):
        return SimConfig(
            params=POWER,
            dim=2,
            extents=((-4.0, 4.0), (-4.0, 4.0)),
            h=0.1,
            ic=Bump2dIC(base=0.2, amplitude=2.0),
            t_end=3.0,
            cadence=1.0,
            disk_mask=disk,
        )

    @classmethod
    def _run(cls, disk):
        return _collected(cls._config(disk))

    @pytest.mark.parametrize("disk", [False, True])
    def test_fewer_iterations_to_the_same_solution(self, disk, monkeypatch):
        extrapolated, extrapolated_snaps = self._run(disk)
        monkeypatch.setattr(pde, "_GUESS_POINTS", 1)  # start from the field
        plain, plain_snaps = self._run(disk)
        monkeypatch.setattr(pde, "_CG_RTOL", 1e-15)
        _, reference_snaps = self._run(disk)
        assert len(plain.solver_iterations) == len(extrapolated.solver_iterations)
        assert sum(extrapolated.solver_iterations) <= 0.85 * sum(
            plain.solver_iterations
        )
        for snaps in (extrapolated_snaps, plain_snaps):
            assert len(snaps) == len(reference_snaps) == 4
            for a, b in zip(snaps, reference_snaps):
                assert np.max(np.abs(a.u - b.u)) <= 1e-11
                assert np.max(np.abs(a.v - b.v)) <= 1e-11

    def test_steps_cut_short_cost_no_more_than_the_plain_start(self, monkeypatch):
        # A step of 1e-5 after every three of 0.1 restarts the chain, and so
        # does the step after it: no chain is longer than three steps.
        def iterations():
            f = build_initial(self._config(False))
            for k in range(24):
                f = step(f, POWER, 1e-5 if k % 4 == 3 else 0.1)
            return pde._stepper_of(f).iterations

        extrapolated = iterations()
        monkeypatch.setattr(pde, "_GUESS_POINTS", 1)
        assert extrapolated <= iterations()

    @pytest.mark.parametrize("restart", ["copy", "dt_change"])
    def test_step_off_the_chain_matches_a_fresh_stepper(self, restart):
        f = TestChemicalMassIdentity._bumps(disk=True)
        for _ in range(4):
            f = step(f, POWER, 0.02)
        off, dt = _restart(f, POWER, restart)
        alone = make_field(2, f.extents, f.h, u0=f.u, v0=f.v, disk_mask=True)
        fresh = step(alone, POWER, dt)
        assert off.u.tobytes() == fresh.u.tobytes()
        assert off.v.tobytes() == fresh.v.tobytes()
        assert len(pde._stepper_of(off)._points) == 1

    @pytest.mark.parametrize("k", range(1, pde._GUESS_POINTS + 1))
    def test_equal_steps_extrapolate_polynomials(self, k):
        # The weights are those of Lagrange extrapolation from k equally
        # spaced nodes, exact for every polynomial of degree below k.
        f = TestChemicalMassIdentity._bumps(disk=False)
        st = pde._stepper_of(f)
        coeffs = np.random.default_rng(k).standard_normal((k, st.pattern.black.size))

        def at(n, c=coeffs):
            return sum(c_d * float(n) ** d for d, c_d in enumerate(c))

        for n in range(k):  # oldest first; the starts extrapolate to n = k
            st._points.appendleft((at(n), -at(n)))
        u, v = st.starts(np.full(f.u.shape, 2.0))
        tol = 1e-14 * 2**k * at(k, np.abs(coeffs))  # bounds every |at(n)|
        assert np.all(np.abs(u - 2.0 * at(k)) <= tol)
        assert np.all(np.abs(v + at(k)) <= tol)


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

    def test_t_end_below_one_cadence_is_refused(self):
        # 1e-10 / 1 is within 1e-9 of 0, a whole number of intervals but
        # none: the run would take no step and report the initial state.
        with pytest.raises(ConfigError, match="cadence must divide t_end"):
            _front_config(t_end=1e-10, cadence=1.0)

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

    @pytest.mark.parametrize("dt_max", [1e-320, np.inf])
    def test_dt_max_gives_a_finite_step_count(self, dt_max):
        # cadence / dt_max is inf for the first and 0 for the second: no
        # whole number of steps.
        with pytest.raises(ConfigError, match="dt_max"):
            _front_config(dt_max=dt_max)

    def test_snapshots_and_steps_up_to_the_run_bound(self):
        # MAX_RUN_COUNT snapshots, or steps, are accepted and one snapshot
        # or one interval's steps more are refused.  Only configs are built.
        n = pde.MAX_RUN_COUNT
        assert _front_config(t_end=n * 0.5, cadence=0.5, dt_max=0.5).dt == 0.5
        with pytest.raises(ConfigError, match="snapshots, more than MAX_RUN_COUNT"):
            _front_config(t_end=(n + 1) * 0.5, cadence=0.5, dt_max=0.5)
        assert _front_config(t_end=n / 2, cadence=2.0, dt_max=0.5).dt == 0.5
        with pytest.raises(ConfigError, match="more than MAX_RUN_COUNT = 10,000,000 steps"):
            _front_config(t_end=n / 2 + 2.0, cadence=2.0, dt_max=0.5)

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
        traj, snaps = _collected(cfg)
        assert isinstance(traj, Trajectory)
        assert traj.times == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        assert len(snaps) == 6
        # The run keeps only the final snapshot.
        assert len(traj.snapshots) == 1 and traj.snapshots[-1] is snaps[-1]
        assert len(traj.mass_u) == 6 and len(traj.mass_v) == 6
        assert all(m > 0 for m in traj.mass_u)
        assert all(np.min(s.u) >= 0.0 and np.min(s.v) >= 0.0 for s in snaps)
        assert cfg.dt <= cfg.dt_max
        assert len(traj.solver_iterations) == round(cfg.t_end / cfg.dt)
        # Front positions are recorded and move right once the wave forms.
        assert np.isfinite(traj.front[-1]) and traj.front[-1] > traj.front[0]

    def test_each_snapshot_is_measured_as_taken(self):
        # 1-D: the front at a/(2b) and the trailing-edge class; 2-D: the
        # ring radii, of which front records the outer one.
        for cfg in (_front_config(), TestExtrapolatedStart._config(True)):
            traj, snaps = _collected(cfg)
            params = cfg.params
            level = params.a / (2.0 * params.b)
            assert len(traj.diagnostics) == len(traj.front) == len(snaps)
            for row, front, snap in zip(traj.diagnostics, traj.front, snaps):
                if cfg.dim == 1:
                    cls = classify_profile(snap.u, params.equilibrium)
                    assert row == dict(
                        front=front_position(snap.x, snap.u, level),
                        label=cls.label,
                        crossing_count=cls.crossing_count,
                        overshoot=cls.overshoot,
                    )
                    assert front == row["front"]
                else:
                    radii = pde.ring_radii(snap, level)
                    assert list(row) == ["r_inner", "r_peak", "r_outer"]
                    assert tuple(row.values()) == radii
                    assert front == row["r_outer"]

    @pytest.mark.parametrize("saved", [False, True], ids=["bare", "saved"])
    def test_run_holds_only_the_final_snapshot(self, tmp_path, saved, monkeypatch):
        # The callback keeps weak references only, so the run frees each
        # snapshot once it has handed it on, before it steps again, and
        # keeps the final one alone.
        refs, alive = [], []

        def watch(k, f):
            refs.append(weakref.ref(f))
            if saved:
                save_field(f, str(tmp_path / f"snap_{k:04d}"))

        def counted_step(f, params, dt):
            alive.append(sum(ref() is not None for ref in refs))
            return step(f, params, dt)

        monkeypatch.setattr(pde, "step", counted_step)

        traj = simulate(_front_config(), on_snapshot=watch)
        gc.collect()
        assert len(refs) == 6 and len(alive) == len(traj.solver_iterations)
        assert not any(alive)
        assert [ref() is None for ref in refs] == [True] * 5 + [False]
        assert refs[-1]() is traj.snapshots[-1]

    def test_on_snapshot_sees_every_snapshot_in_order(self):
        calls = []
        traj = simulate(_front_config(), on_snapshot=lambda k, f: calls.append((k, f)))
        assert [k for k, _ in calls] == list(range(len(traj.times)))
        assert len(traj.snapshots) == 1 and traj.snapshots[-1] is calls[-1][1]
        # Each is a copy of its own: no later step wrote into an earlier one.
        assert len({id(f.u) for _, f in calls}) == len(calls)
        assert all(mass(f)[0] == mu for (_, f), mu in zip(calls, traj.mass_u))

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
        _, snaps = _collected(cfg)
        assert len(snaps) == 3
        for snap in snaps:
            assert snap.u[0] == pytest.approx(val, abs=1e-12)
            assert snap.v[0] == pytest.approx(val, abs=1e-12)
            assert snap.u[-1] == pytest.approx(0.0, abs=1e-12)

    def test_error_carries_failing_time(self, tmp_path):
        # A custom IC with an isolated spike far above the carrying capacity
        # goes negative on the first step: dt (b u - a) > 1 there.
        n = 41
        u = np.zeros(n)
        u[1] = 1e3
        v = np.full(n, 0.01)
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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_solver_iterations_per_step(self, dim):
        if dim == 1:
            cfg = _front_config(t_end=2.0, cadence=1.0)
        else:
            cfg = SimConfig(
                params=POWER,
                dim=2,
                extents=((-3.0, 3.0), (-3.0, 3.0)),
                h=0.25,
                ic=Bump2dIC(base=1.0, amplitude=0.5),
                t_end=1.0,
                cadence=0.5,
            )
        traj = simulate(cfg)
        its = traj.solver_iterations
        assert len(its) == round(cfg.t_end / cfg.dt) > 0
        assert all(isinstance(n, int) for n in its)
        # 1-D solves are direct; every 2-D step iterates for u and for v.
        assert all(n == 0 for n in its) if dim == 1 else all(n >= 2 for n in its)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_step_size_limits_and_v_builds(self, dim):
        # Each snapshot interval is split into the fewest equal steps of at
        # most dt_max, so a run builds two v systems: one for its
        # first-order first step and one for the second-order rest.
        if dim == 1:
            cfg = _front_config(t_end=10.0, cadence=2.5, dt_max=0.07)
        else:
            cfg = SimConfig(
                params=POWER,
                dim=2,
                extents=((-3.0, 3.0), (-3.0, 3.0)),
                h=0.25,
                ic=Bump2dIC(base=0.0, amplitude=4.0),
                t_end=1.2,
                cadence=0.15,
                disk_mask=True,
            )
        traj = simulate(cfg)
        per_interval, steps = (36, 4 * 36) if dim == 1 else (2, 8 * 2)
        assert cfg.dt == cfg.cadence / per_interval
        assert len(traj.solver_iterations) == steps
        assert traj.v_builds == 2

    @pytest.mark.parametrize(
        "cadence, dt_max, per_interval",
        [(2.1, 0.3, 7), (0.14, 0.02, 7), (0.3, 0.1, 3), (1.0, 0.3, 4), (0.5, 1.0, 1)],
    )
    def test_interval_split_within_a_relative_guard(
        self, cadence, dt_max, per_interval
    ):
        # 2.1 / 0.3 and 0.14 / 0.02 are 7.000000000000001 in floating point,
        # 0.3 / 0.1 is 2.9999999999999996: none takes an extra step.
        cfg = _front_config(t_end=2 * cadence, cadence=cadence, dt_max=dt_max)
        traj = simulate(cfg)
        assert cfg.dt == cadence / per_interval
        assert len(traj.solver_iterations) == 2 * per_interval
        assert traj.times == [0.0, cadence, 2 * cadence]

    def test_motility_evaluated_once_per_step(self, monkeypatch):
        # The step needs gamma alone, once.
        calls = []
        gamma = PowerMotility.gamma

        def counting(family, v):
            calls.append(v.shape)
            return gamma(family, v)

        monkeypatch.setattr(PowerMotility, "gamma", counting)
        monkeypatch.setattr(PowerMotility, "eval", None)  # no gamma', gamma''
        traj = simulate(_front_config(t_end=2.0, cadence=1.0))
        assert len(calls) == len(traj.solver_iterations) > 0

    def test_no_sparse_structure_built_per_2d_step(self, monkeypatch):
        # u and v share unit conductances, so the red-black coupling block,
        # the sparsity of the Schur complement and its refill map are built
        # once per run; each system only fills values, into its own CSR
        # matrix over the pattern's index arrays.
        structures, matrices = [], []
        # The 2-D code binds scipy.sparse where it builds, so the counter
        # goes on scipy.sparse itself.
        packed, csr = pde._packed, sparse.csr_matrix

        def counting(calls, build):
            def counted(*args, **kwargs):
                calls.append(1)
                return build(*args, **kwargs)

            return counted

        monkeypatch.setattr(pde, "_packed", counting(structures, packed))
        monkeypatch.setattr(sparse, "csr_matrix", counting(matrices, csr))
        built = []
        for t_end in (1.0, 2.0):
            cfg = SimConfig(
                params=POWER,
                dim=2,
                extents=((-3.0, 3.0), (-3.0, 3.0)),
                h=0.25,
                ic=Bump2dIC(base=0.0, amplitude=4.0),
                t_end=t_end,
                cadence=0.5,
                disk_mask=True,
            )
            structures.clear()
            matrices.clear()
            traj = simulate(cfg)
            built.append((len(traj.solver_iterations), len(structures), len(matrices)))
        assert [steps for steps, _, _ in built] == [10, 20]
        assert built[0][1] == built[1][1] > 0
        # One matrix per u system, one per step; the v system is kept.
        assert built[1][2] - built[0][2] == 10

    def test_back_to_back_2d_runs_match_runs_alone(self):
        # Each run owns its stepper, so a run on another mask in between
        # changes nothing.
        def run(disk):
            return _collected(
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
            again, snaps = run(disk)
            assert again.solver_iterations == alone[disk][0].solver_iterations
            assert len(snaps) == len(alone[disk][1]) == 3
            for a, b in zip(snaps, alone[disk][1]):
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
        traj, snaps = _collected(cfg)
        assert len(snaps) == 3
        final = traj.snapshots[-1]
        assert final is snaps[-1]
        assert np.min(final.u) >= 0.0 and np.all(np.isfinite(final.u))
        # Growth is saturating: density relaxes toward a/b from above.
        assert final.u.max() < snaps[0].u.max()

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
    @pytest.mark.parametrize(
        "extents, h",
        [((0.0, 2.0), 0.1), ((0.3, 2.1), 0.03), ((0.0, 7.0), 0.07)],
        ids=["0-2", "0.3-2.1", "0-7"],
    )
    def test_1d_roundtrip(self, tmp_path, extents, h):
        # (2.1 - 0.3) / 0.03 and 7 / 0.07 are not exact in binary, so a
        # grid re-derived from the node positions would come back with
        # another h or extents; the header records the grid as made.
        for bc in (None, {"left": Dirichlet(0.1 + 1e-17, 1.0 / 3.0)}):
            f = make_field(1, extents, h, u0=0.0, v0=0.0, bc=bc)
            f.u[:] = np.linspace(0.0, 1.0, f.nx) ** 2
            f.v[:] = 0.5 - 0.1 * np.linspace(0.0, 1.0, f.nx)
            base = tmp_path / "snap"
            paths = save_field(f, str(base))
            assert paths == [str(base.with_suffix(".json")), str(base.with_suffix(".bin"))]
            g = load_field(str(base))
            assert g.h == f.h and g.extents == f.extents
            assert np.array_equal(g.x, f.x)
            assert np.array_equal(g.u, f.u) and np.array_equal(g.v, f.v)
            assert g.bc == f.bc and g.mask is None

        # Headers written without the boundary record load as zero-flux.
        jpath = base.with_suffix(".json")
        header = json.loads(jpath.read_text())
        del header["bc"]
        jpath.write_text(json.dumps(header))
        old = load_field(str(base))
        assert np.array_equal(old.u, f.u)
        assert old.bc == {"left": Neumann(), "right": Neumann()}

    def test_1d_bytes_are_the_header_and_the_arrays(self, tmp_path):
        f = make_field(1, ((0.0, 400.0),), 0.1, u0=0.0, v0=0.0)
        rng = np.random.default_rng(11)
        f.u[:] = rng.random(f.nx) * 10.0 ** rng.integers(-300, 300, f.nx)
        f.v[:] = -rng.random(f.nx)
        f.u[:5] = f.v[-5:] = [0.0, -0.0, 5e-324, 1e-300, 1e16]
        save_field(f, str(tmp_path / "snap"))
        assert (tmp_path / "snap.bin").read_bytes() == (
            f.u.astype("<f8").tobytes() + f.v.astype("<f8").tobytes()
        )
        assert json.loads((tmp_path / "snap.json").read_text()) == {
            "dim": 1,
            "nx": 4001,
            "ny": None,
            "h": 0.1,
            "extents": [[0.0, 400.0]],
            "dtype": "<f8",
            "order": "C",
            "arrays": ["u", "v"],
            "bc": {"left": {"type": "neumann"}, "right": {"type": "neumann"}},
        }
        g = load_field(str(tmp_path / "snap"))
        assert g.u.tobytes() == f.u.tobytes() and g.v.tobytes() == f.v.tobytes()

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

    def test_2d_dirichlet_roundtrip(self, tmp_path):
        bc = {"left": Dirichlet(0.1 + 1e-17, 1.0 / 3.0), "top": Dirichlet(0.0, 0.25)}
        f = make_field(2, ((0.0, 1.0), (0.0, 2.0)), 0.25, u0=0.5, v0=0.5, bc=bc)
        base = tmp_path / "snap2d"
        save_field(f, str(base))
        g = load_field(str(base))
        assert g.bc == f.bc
        assert isinstance(g.bc["right"], Neumann)

        # Headers written without boundary conditions load as zero-flux.
        jpath = base.with_suffix(".json")
        header = json.loads(jpath.read_text())
        del header["bc"]
        jpath.write_text(json.dumps(header))
        old = load_field(str(base))
        assert all(isinstance(c, Neumann) for c in old.bc.values())
        assert sorted(old.bc) == ["bottom", "left", "right", "top"]


def _bits(name):
    """Float64 values of one class that a text format finds hard to keep."""
    rng = np.random.default_rng(34)
    tiny = np.finfo(float).tiny
    if name == "special":
        values = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
    elif name == "subnormal":
        values = [5e-324, -5e-324, tiny - 5e-324, 12345 * 5e-324, tiny]
    elif name == "near-2^53":
        values = [2.0**53 - 1, 2.0**53, 2.0**53 + 2, np.nextafter(2.0**53, 0.0)]
    elif name == "extremes":
        values = [np.finfo(float).max, -np.finfo(float).max, 1e-300, 1e300, 1e16]
    elif name == "powers":
        powers = np.concatenate(
            [np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-300, 301)]
        )
        values = np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
        )
    else:  # random bit patterns, NaN payloads among them
        values = rng.integers(0, 2**64, 4096, dtype=np.uint64, endpoint=False).view(float)
    return np.asarray(values, dtype=float)


class TestArrayWriter:
    """``pde._write_arrays``, which lays out every array file the package
    writes (snapshots and the wave profile) as little-endian float64."""

    @pytest.mark.parametrize(
        "name", ["special", "subnormal", "near-2^53", "extremes", "powers", "random-bits"]
    )
    def test_every_bit_comes_back(self, tmp_path, name):
        values = _bits(name)
        pde._write_arrays(tmp_path / "t", {"x": values}, {})
        assert (tmp_path / "t.bin").read_bytes() == values.tobytes()
        back = np.fromfile(tmp_path / "t.bin", "<f8")
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "values",
        [
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            np.arange(20.0)[::3],
            np.arange(9.0)[::-1],
            np.arange(20.0).reshape(4, 5).T,
            np.linspace(0.0, 1.0, 7).astype(">f8"),
            np.linspace(0.0, 1.0, 6, dtype=np.float32),
            np.arange(-3, 4),
            np.array([True, False, True]),
        ],
        ids=[
            "fortran", "strided", "reversed", "transposed",
            "big-endian", "float32", "int", "bool",
        ],
    )
    def test_any_array_is_written_in_c_order_as_little_endian_float64(self, tmp_path, values):
        pde._write_arrays(tmp_path / "t", {"x": values}, {})
        expected = np.asarray(values, dtype=float).ravel(order="C")
        back = np.fromfile(tmp_path / "t.bin", "<f8")
        assert back.tobytes() == expected.astype("<f8").tobytes()

    @pytest.mark.parametrize(
        "n, k", [(0, 3), (1, 1), (7, 1), (3, 5), (2000, 5)],
        ids=["0-3", "1-1", "7-1", "3-5", "2000-5"],
    )
    def test_k_arrays_of_n_points_read_back_as_a_k_by_n_block(self, tmp_path, n, k):
        rng = np.random.default_rng(n + k)
        arrays = {f"a{j}": rng.standard_normal(n) for j in range(k)}
        pde._write_arrays(tmp_path / "t", arrays, {"n_points": n})
        header = json.loads((tmp_path / "t.json").read_text())
        assert header["arrays"] == list(arrays)
        assert (tmp_path / "t.bin").stat().st_size == 8 * n * k
        back = np.fromfile(tmp_path / "t.bin", header["dtype"]).reshape(k, header["n_points"])
        assert back.tobytes() == np.stack(list(arrays.values())).tobytes()

    def test_header_is_the_caller_keys_then_the_layout_then_the_tail(self, tmp_path):
        base = tmp_path / "t"
        paths = pde._write_arrays(
            base, {"z": np.zeros(2), "U": np.ones(2)}, {"c": 0.5, "n_points": 2}, {"bc": {}}
        )
        assert paths == [str(base.with_suffix(".json")), str(base.with_suffix(".bin"))]
        assert json.loads(base.with_suffix(".json").read_text()) == {
            "c": 0.5, "n_points": 2, "dtype": "<f8", "order": "C", "arrays": ["z", "U"],
            "bc": {},
        }
        assert list(json.loads(base.with_suffix(".json").read_text())) == [
            "c", "n_points", "dtype", "order", "arrays", "bc"
        ]

    @pytest.mark.parametrize(
        "case", ["json-is-a-directory", "bin-is-a-directory", "nan-in-header", "array-not-numeric"]
    )
    def test_a_failed_write_leaves_only_what_was_there(self, tmp_path, case):
        # Whichever step fails, the files the writer created are removed
        # before the error propagates; a directory in the way stays.
        base = tmp_path / "t"
        header = {"c": 0.5}
        arrays = {"u": np.zeros(3), "v": np.ones(3)}
        if case == "json-is-a-directory":
            base.with_suffix(".json").mkdir()
            error = IsADirectoryError
        elif case == "bin-is-a-directory":
            base.with_suffix(".bin").mkdir()
            error = IsADirectoryError
        elif case == "nan-in-header":
            header = {"c": float("nan")}
            error = ValueError
        else:  # v fails to convert after u is on disk
            arrays["v"] = np.array(["x", "y", "z"])
            error = ValueError
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(error):
            pde._write_arrays(base, arrays, header)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert all((tmp_path / name).is_dir() for name in before)


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


# ---------------------------------------------------------------------------
# Speed selection at the profile level
# ---------------------------------------------------------------------------


class TestSpeedSelection:
    """A front started with tail exp(-lambda0 x), lambda0 < sqrt(a), runs at
    c = lambda0 + a / lambda0 and takes the shape of the traveling wave of
    that speed.  Above 2 sqrt(a) a front carries no logarithmic lag, so
    both comparisons are sharp.

    At (a, b, m) = (0.1, 60, 6) on [0, 450] with h = 0.05 and t_end = 240
    the measured errors were -8.6e-5 (c = 0.88), -7.5e-5 (c = 1.0) and
    -7.1e-5 (c = c* = 1.13164, lambda0 = 0.09662) in the speed, and
    2.26e-5, 2.18e-5 and 5.5e-5 of the amplitude in the profile; at c* the
    profiles are compared over a span of 350 behind a front at x = 290.
    """

    @pytest.mark.parametrize(
        "c", [0.88, 1.0, pytest.param(c_star(0.1, 60.0, 6.0), id="c_star")]
    )
    def test_front_takes_the_speed_and_shape_of_its_tail(self, tmp_path, c):
        a, b, h, length = DILUTE.a, DILUTE.b, 0.05, 450.0
        lam0 = lambda_decay(c, a)
        x = h * np.arange(int(round(length / h)) + 1)
        profile = (a / b) * np.minimum(1.0, np.exp(-lam0 * (x - 20.0)))
        path = tmp_path / "ic.npz"
        np.savez(path, u=profile, v=profile)
        traj = simulate(
            SimConfig(
                params=DILUTE,
                dim=1,
                extents=((0.0, length),),
                h=h,
                ic=CustomIC(str(path)),
                t_end=240.0,
                cadence=10.0,
            )
        )
        c_est, _ = wave_speed(
            np.array(traj.times), np.array(traj.front), transient_fraction=0.5
        )
        c_pred = leading_edge_speed(lam0, a)
        assert abs(c_est - c_pred) <= 1e-3 * c_pred

        # The final snapshot against the wave, aligned at level a/(2b).
        wave = traveling_wave(DILUTE, c)
        final = traj.snapshots[-1]
        level = a / (2.0 * b)
        shift = front_position(final.x, final.u, level) - front_position(
            wave.grid, wave.U, level
        )
        lo = max(wave.grid[0] + shift, final.x[0] + 1.0)
        hi = min(wave.grid[-1] + shift, final.x[-1] - 1.0)
        sel = (final.x >= lo) & (final.x <= hi)
        ref = np.interp(final.x[sel] - shift, wave.grid, wave.U)
        assert hi - lo > 300.0
        assert np.max(np.abs(final.u[sel] - ref)) <= 1e-3 * np.max(wave.U)
