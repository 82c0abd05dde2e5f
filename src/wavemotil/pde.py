"""Direct time-dependent solver for the motility system in one and two
space dimensions.

The density equation is discretized in conservative flux form,

    u_t = div( gamma(v) grad u + u gamma'(v) grad v ) + u (a - b u),

with node-centered finite volumes: faces carry the arithmetic mean of
gamma and gamma', the diffusive flux uses the two-point difference, and
the cross-diffusion (advective) flux upwinds u to the donor side with a
centered slope reconstruction, falling back to first order at faces whose
stencil leaves the domain.  Boundary nodes own half cells, which makes the
discrete chemical-mass identity d/dt int v = int u - int v exact on
zero-flux boxes up to solver rounding.  One flux assembly serves both
dimensions: it loops over the grid axes, x first.

Time stepping is IMEX: both Laplacians are implicit (LAPACK ``dgtsv`` per
equation in 1-D, one sparse LU per equation in 2-D), while the
cross-diffusion flux and the reactions are explicit.  The implicit
diffusion matrices are M-matrices, so diffusion alone cannot create
negative densities; slope reconstruction can undershoot by a
rounding-scale amount at sharp fronts, which is clipped when above -1e-12
and reported as ``NegativeDensity`` otherwise.  A NaN or infinite value
anywhere in a new state is reported as ``NonFiniteState``.  The step size
obeys an advective bound 0.4 h / max |gamma'(v) dv/dn| recomputed every
step and capped at 0.1.

What the steps of a run share and what depends only on the grid geometry
(held nodes, cell volumes, open faces and the v operator) is built once, on
first use, into a stepper that every ``GridField`` of the run holds by
reference.  The stepper keeps the run's last two v-operator factors, keyed
by dt, and hands the face data that chose a step size in ``simulate`` to
that step, so the motility law is evaluated once per step.

Planar runs default to a square box with zero flux; a masked-disk mode
(staircase boundary, closed faces at the mask edge) is available for
geometry closer to a petri dish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from .errors import (
    ConfigError,
    NegativeDensity,
    NoCrossing,
    NonFiniteState,
    NoRing,
    StabilityViolation,
)
from .frontmetrics import front_position, ring_metrics
from .model import ModelParams, motility_eval

__all__ = [
    "Neumann",
    "Dirichlet",
    "GridField",
    "FrontIC",
    "Bump2dIC",
    "CustomIC",
    "ArrayIC",
    "SimConfig",
    "Trajectory",
    "make_field",
    "mass",
    "spatial_rhs",
    "step",
    "build_initial",
    "simulate",
    "ring_radii",
    "save_field",
    "load_field",
    "DEFAULT_CFL",
    "DEFAULT_DT_MAX",
]

#: Safety factor of the explicit advective CFL condition.
DEFAULT_CFL = 0.4

#: Upper cap on the step size regardless of the advective bound.
DEFAULT_DT_MAX = 0.1

_NEG_FLOOR = -1e-12

#: Side names in axis order; a 1-D grid has the first two.
_SIDES = ("left", "right", "bottom", "top")

#: v-operator factors a run keeps.  Its step sizes alternate between the
#: dt_max cap and a segment-end remainder, so two slots cover the repeats.
_V_FACTOR_SLOTS = 2


@dataclass(frozen=True)
class Neumann:
    """Zero-flux side: nothing crosses the boundary."""


@dataclass(frozen=True)
class Dirichlet:
    """Side held at fixed values for both fields."""

    u_val: float
    v_val: float


@dataclass
class GridField:
    """Node-centered state on a uniform grid.

    1-D arrays have shape ``(nx,)``; 2-D arrays ``(ny, nx)`` with the first
    index along y.  ``bc`` maps side names (``left``/``right`` and, in 2-D,
    ``bottom``/``top``) to boundary conditions.  ``mask`` marks active nodes
    in masked-disk mode; inactive nodes are held at zero.
    """

    dim: int
    extents: tuple[tuple[float, float], ...]
    nx: int
    ny: int | None
    h: float
    u: np.ndarray
    v: np.ndarray
    bc: dict[str, Neumann | Dirichlet]
    mask: np.ndarray | None = None
    _stepper: _Stepper | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def x(self) -> np.ndarray:
        return self.extents[0][0] + self.h * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray | None:
        if self.dim == 1:
            return None
        return self.extents[1][0] + self.h * np.arange(self.ny)

    def copy(self) -> "GridField":
        return self._with(self.u.copy(), self.v.copy(), dict(self.bc))

    def _with(self, u: np.ndarray, v: np.ndarray, bc: dict) -> "GridField":
        """A state on the same grid that shares this field's stepper."""
        out = GridField(
            dim=self.dim,
            extents=self.extents,
            nx=self.nx,
            ny=self.ny,
            h=self.h,
            u=u,
            v=v,
            bc=bc,
            mask=self.mask,
        )
        out._stepper = self._stepper
        return out


@dataclass(frozen=True)
class FrontIC:
    """u0 = v0 = 1 / (1 + exp(steepness (x - offset)))."""

    steepness: float
    offset: float


@dataclass(frozen=True)
class Bump2dIC:
    """u0 = v0 = base + amplitude exp(-(x^2 + y^2)); planar only."""

    base: float
    amplitude: float


@dataclass(frozen=True)
class CustomIC:
    """Initial state loaded from an ``.npz`` file with arrays ``u``, ``v``."""

    path: str


@dataclass(frozen=True, eq=False)
class ArrayIC:
    """Initial state given in memory as arrays ``u``, ``v`` of the grid shape."""

    u: np.ndarray
    v: np.ndarray


def _normalize_extents(dim: int, extents) -> tuple[tuple[float, float], ...]:
    ext = tuple(extents)
    if dim == 1 and len(ext) == 2 and np.isscalar(ext[0]):
        ext = (ext,)
    if len(ext) != dim:
        raise ValueError(f"expected {dim} extent pair(s), got {len(ext)}")
    out = []
    for pair in ext:
        lo, hi = float(pair[0]), float(pair[1])
        if not hi > lo:
            raise ValueError("extent upper bound must exceed lower bound")
        out.append((lo, hi))
    return tuple(out)


def _axis_count(lo: float, hi: float, h: float) -> int:
    ratio = (hi - lo) / h
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(
            f"spacing {h!r} does not divide the extent ({lo!r}, {hi!r})"
        )
    return int(k) + 1


def _default_bc(dim: int) -> dict[str, Neumann | Dirichlet]:
    return {side: Neumann() for side in _SIDES[: 2 * dim]}


def _grid_spec(dim: int, extents, h: float, bc: dict | None, disk_mask: bool):
    """Validate a grid description.

    Returns the normalized extents, the node count per axis (x first) and
    the boundary conditions of every side.  Raises ValueError.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if not h > 0:
        raise ValueError("spacing h must be positive")
    extents = _normalize_extents(dim, extents)
    counts = [_axis_count(lo, hi, h) for lo, hi in extents]
    full_bc = _default_bc(dim)
    for side, cond in (bc or {}).items():
        if side not in full_bc:
            raise ValueError(f"unknown side {side!r} for dim {dim}")
        if not isinstance(cond, (Neumann, Dirichlet)):
            raise ValueError(f"invalid boundary condition for side {side!r}")
        full_bc[side] = cond
    if disk_mask:
        if dim != 2:
            raise ValueError("disk mask requires a planar grid")
        if any(isinstance(c, Dirichlet) for c in full_bc.values()):
            raise ValueError("disk mask supports zero-flux sides only")
    return extents, counts, full_bc


def make_field(
    dim: int,
    extents,
    h: float,
    *,
    u0,
    v0,
    bc: dict | None = None,
    disk_mask: bool = False,
) -> GridField:
    """Allocate a grid and fill both fields from scalars or arrays."""
    extents, counts, full_bc = _grid_spec(dim, extents, h, bc, disk_mask)
    nx = counts[0]
    ny = counts[1] if dim == 2 else None
    shape = tuple(reversed(counts))

    u = np.zeros(shape)
    v = np.zeros(shape)
    u[...] = u0
    v[...] = v0

    mask = None
    if disk_mask:
        cx = 0.5 * (extents[0][0] + extents[0][1])
        cy = 0.5 * (extents[1][0] + extents[1][1])
        radius = 0.5 * min(
            extents[0][1] - extents[0][0], extents[1][1] - extents[1][0]
        )
        gx = extents[0][0] + h * np.arange(nx)
        gy = extents[1][0] + h * np.arange(ny)
        xx, yy = np.meshgrid(gx, gy)
        mask = np.hypot(xx - cx, yy - cy) <= radius + 1e-9
        u[~mask] = 0.0
        v[~mask] = 0.0

    return GridField(
        dim=dim, extents=extents, nx=nx, ny=ny, h=h, u=u, v=v, bc=full_bc, mask=mask
    )


def _along(a: np.ndarray, axis: int) -> np.ndarray:
    """View of a with ``axis`` last; its own inverse."""
    return a.swapaxes(axis, -1)


class _Stepper:
    """Per-run constants of one grid geometry, plus the run's v factors.

    Everything here depends only on ``dim``, ``extents``, ``h``, ``bc`` and
    ``mask``.  Per-axis face arrays are held in the frame where that axis
    is last (see ``_along``); axes run x first.
    """

    def __init__(self, f: GridField) -> None:
        shape = f.u.shape
        self.h = f.h
        self.axes = tuple(range(f.dim - 1, -1, -1))
        self.pin = np.zeros(shape, dtype=bool)
        self.pin_u = np.zeros(shape)
        self.pin_v = np.zeros(shape)
        for side, cond in f.bc.items():
            if isinstance(cond, Dirichlet):
                k = _SIDES.index(side)
                index = [slice(None)] * f.dim
                index[self.axes[k // 2]] = -(k % 2)
                self.pin[tuple(index)] = True
                self.pin_u[tuple(index)] = cond.u_val
                self.pin_v[tuple(index)] = cond.v_val
        weights = np.ones(())
        for n in shape:
            edge = np.full(n, f.h)
            edge[0] *= 0.5
            edge[-1] *= 0.5
            weights = np.multiply.outer(weights, edge)
        if f.mask is None:
            self.open = (None,) * f.dim
        else:
            dead = ~f.mask
            self.pin |= dead
            self.pin_u[dead] = 0.0
            self.pin_v[dead] = 0.0
            weights = weights * f.mask
            self.open = tuple(
                _along(f.mask, ax)[..., :-1] & _along(f.mask, ax)[..., 1:]
                for ax in self.axes
            )
        self.weights = weights
        self.held = bool(self.pin.any())
        self.v_conds = []
        for ax, open_ in zip(self.axes, self.open):
            ones = np.ones(_along(self.pin, ax)[..., 1:].shape)
            self.v_conds.append(ones if open_ is None else ones * open_)
        self._factor = _Tridiagonal if f.dim == 1 else _sparse_lu
        self._v_factors: dict[float, object] = {}
        self._pending = None

    def factor(self, conds, dt: float):
        """Solver of (I - dt L) for face conductances ``conds``."""
        return self._factor(self, conds, dt)

    def v_factor(self, dt: float):
        """Solver of the v operator at dt, reusing the last two built."""
        factors = self._v_factors
        solver = factors.pop(dt, None)
        if solver is None:
            solver = self.factor(self.v_conds, dt)
            if len(factors) >= _V_FACTOR_SLOTS:
                del factors[next(iter(factors))]
        factors[dt] = solver
        return solver

    def advective_bound(self, f: GridField, params: ModelParams) -> float:
        """Largest stable dt for f; the face data is kept for f's next step."""
        faces = _face_data(f, params, self)
        self._pending = (f, params, faces)
        return faces[2]

    def faces_for_step(self, f: GridField, params: ModelParams):
        """Face data of f: the one ``advective_bound`` just kept, or fresh."""
        pending, self._pending = self._pending, None
        if pending is not None and pending[0] is f and pending[1] is params:
            return pending[2]
        return _face_data(f, params, self)


def _stepper_of(f: GridField) -> _Stepper:
    if f._stepper is None:
        f._stepper = _Stepper(f)
    return f._stepper


def mass(f: GridField) -> tuple[float, float]:
    """Trapezoid-weighted totals of u and v over the active domain."""
    w = _stepper_of(f).weights
    return float(np.sum(w * f.u)), float(np.sum(w * f.v))


def _face_data(f: GridField, params: ModelParams, st: _Stepper):
    """Per-axis face conductances gamma and drift speeds gamma' dv/dn, and
    the advective bound on dt they set."""
    g, gp, _ = motility_eval(params.motility, f.v)
    conds, ws = [], []
    for ax, open_ in zip(st.axes, st.open):
        g_ax, gp_ax, v_ax = _along(g, ax), _along(gp, ax), _along(f.v, ax)
        gf = 0.5 * (g_ax[..., :-1] + g_ax[..., 1:])
        w = 0.5 * (gp_ax[..., :-1] + gp_ax[..., 1:]) * np.diff(v_ax) / f.h
        if open_ is not None:
            gf = gf * open_
            w = w * open_
        conds.append(gf)
        ws.append(w)
    wmax = max(float(np.max(np.abs(w))) for w in ws)
    bound = np.inf if wmax == 0.0 else DEFAULT_CFL * f.h / wmax
    return conds, ws, bound


def _fromm_face(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Upwind face value of u along the last axis with a centered slope.

    The advective flux is w * u_face with w = gamma' dv/dx at the face; the
    transport velocity is -w, so positive w takes the right node as donor.
    Faces whose slope stencil leaves the array fall back to the donor value.
    """
    u_left = u[..., :-1].copy()
    u_left[..., 1:] = u[..., 1:-1] + 0.25 * (u[..., 2:] - u[..., :-2])
    u_right = u[..., 1:].copy()
    u_right[..., :-1] = u[..., 1:-1] - 0.25 * (u[..., 2:] - u[..., :-2])
    return np.where(w > 0.0, u_right, u_left)


def _div_last(flux: np.ndarray, h: float) -> np.ndarray:
    """Flux divergence along the last axis with half cells at the ends."""
    out = np.empty(flux.shape[:-1] + (flux.shape[-1] + 1,))
    out[..., 1:-1] = (flux[..., 1:] - flux[..., :-1]) / h
    out[..., 0] = 2.0 * flux[..., 0] / h
    out[..., -1] = -2.0 * flux[..., -1] / h
    return out


def _divergence(fluxes, st: _Stepper) -> np.ndarray:
    """Sum over the axes, x first, of the divergence of per-axis face fluxes."""
    total = None
    for ax, flux in zip(st.axes, fluxes):
        part = _along(_div_last(flux, st.h), ax)
        total = part if total is None else total + part
    return total


def _explicit_u(f: GridField, ws, params: ModelParams, st: _Stepper) -> np.ndarray:
    """Advective divergence plus reaction (the explicit part of u)."""
    fluxes = [w * _fromm_face(_along(f.u, ax), w) for ax, w in zip(st.axes, ws)]
    return _divergence(fluxes, st) + f.u * (params.a - params.b * f.u)


def _diffusion(a: np.ndarray, conds, st: _Stepper) -> np.ndarray:
    """Face-conductance Laplacian of a node array."""
    fluxes = [c * np.diff(_along(a, ax)) / st.h for ax, c in zip(st.axes, conds)]
    return _divergence(fluxes, st)


def spatial_rhs(f: GridField, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Full semi-discrete right-hand side (d/dt of u and v) at held dt -> 0.

    Held nodes (Dirichlet sides, masked-out cells) report zero.  Useful for
    verifying the spatial order of the flux discretization directly.
    """
    st = _stepper_of(f)
    conds, ws, _ = _face_data(f, params, st)
    du = _explicit_u(f, ws, params, st) + _diffusion(f.u, conds, st)
    dv = _diffusion(f.v, st.v_conds, st) + f.u - f.v
    du[st.pin] = 0.0
    dv[st.pin] = 0.0
    return du, dv


class _Tridiagonal:
    """(I - dt L) for the 1-D face-conductance Laplacian, solved by gtsv."""

    def __init__(self, st: _Stepper, conds, dt: float) -> None:
        (cond,) = conds
        n = cond.size + 1
        cl = np.empty(n)
        cl[0] = 0.0
        cl[1:] = cond
        cr = np.empty(n)
        cr[-1] = 0.0
        cr[:-1] = cond
        s = np.ones(n)
        s[0] = 2.0
        s[-1] = 2.0
        k = dt / st.h**2
        diag = 1.0 + k * s * (cl + cr)
        lower = -k * s * cl
        upper = -k * s * cr
        if st.held:
            diag[st.pin] = 1.0
            lower[st.pin] = 0.0
            upper[st.pin] = 0.0
        self.bands = (lower[1:], diag, upper[:-1])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _, _, _, x, info = dgtsv(*self.bands, rhs)
        if info != 0:
            raise NonFiniteState(f"tridiagonal solve failed (LAPACK info {info})")
        return x


def _sparse_lu(st: _Stepper, conds, dt: float):
    """LU factor of (I - dt L) for the 2-D face-conductance Laplacian."""
    shape = st.pin.shape
    n = st.pin.size
    idx = np.arange(n).reshape(shape)
    k = dt / st.h**2

    rows, cols, vals = [], [], []
    # Entries are listed in C order of the natural layout, x faces first.
    for ax, cond in zip(st.axes, conds):
        s = np.ones(shape[ax])
        s[0] = 2.0
        s[-1] = 2.0
        idx_ax = _along(idx, ax)
        s_ax = np.broadcast_to(s, idx_ax.shape)
        p, q, c, sp, sq = (
            _along(a, ax).ravel()
            for a in (
                idx_ax[..., :-1],
                idx_ax[..., 1:],
                k * cond,
                s_ax[..., :-1],
                s_ax[..., 1:],
            )
        )
        rows.extend([p, p, q, q])
        cols.extend([p, q, q, p])
        vals.extend([c * sp, -c * sp, c * sq, -c * sq])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    keep = ~st.pin.ravel()[rows]
    body = sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsc()
    return splu(sparse.identity(n, format="csc") + body)


def step(f: GridField, params: ModelParams, dt: float) -> GridField:
    """Advance one IMEX step of size dt and return the new state.

    Raises:
        StabilityViolation: dt exceeds the advective bound 0.4 h / max drift.
        NegativeDensity: a node fell below -1e-12 (undershoots above that
            floor are clipped to zero).
        NonFiniteState: the new state holds a NaN or an infinite value.
        ValueError: nonpositive dt.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    st = _stepper_of(f)
    conds, ws, bound = st.faces_for_step(f, params)
    if dt > bound * (1.0 + 1e-6):
        raise StabilityViolation(
            f"dt={dt:.6g} exceeds the advective bound {bound:.6g}"
        )

    pin = st.pin
    rhs_u = f.u + dt * _explicit_u(f, ws, params, st)
    rhs_v = f.v + dt * (f.u - f.v)
    rhs_u[pin] = st.pin_u[pin]
    rhs_v[pin] = st.pin_v[pin]
    new_u = st.factor(conds, dt).solve(rhs_u.ravel()).reshape(f.u.shape)
    new_v = st.v_factor(dt).solve(rhs_v.ravel()).reshape(f.v.shape)

    for name, arr in (("u", new_u), ("v", new_v)):
        low, high = float(arr.min()), float(arr.max())
        if not (np.isfinite(low) and np.isfinite(high)):
            raise NonFiniteState(f"{name} holds a non-finite value")
        if low < _NEG_FLOOR:
            raise NegativeDensity(
                f"{name} reached {low:.6g}, below the {_NEG_FLOOR} floor"
            )
        np.copyto(arr, 0.0, where=arr < 0.0)

    return f._with(new_u, new_v, f.bc)


@dataclass
class SimConfig:
    """Complete description of one simulation run."""

    params: ModelParams
    dim: int
    extents: tuple
    h: float
    ic: FrontIC | Bump2dIC | CustomIC | ArrayIC
    t_end: float
    cadence: float
    bc: dict | None = None
    dt_max: float = DEFAULT_DT_MAX
    disk_mask: bool = False

    def __post_init__(self) -> None:
        try:
            self.extents, _, _ = _grid_spec(
                self.dim, self.extents, self.h, self.bc, self.disk_mask
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.t_end > 0:
            raise ConfigError("t_end must be positive")
        if not self.cadence > 0:
            raise ConfigError("cadence must be positive")
        ratio = self.t_end / self.cadence
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ConfigError("cadence must divide t_end")
        if not isinstance(self.ic, (FrontIC, Bump2dIC, CustomIC, ArrayIC)):
            raise ConfigError("unknown initial-condition selector")
        if isinstance(self.ic, Bump2dIC) and self.dim != 2:
            raise ConfigError("bump initial condition requires dim=2")
        if not self.dt_max > 0:
            raise ConfigError("dt_max must be positive")


def build_initial(config: SimConfig) -> GridField:
    """Materialize the initial state described by a config."""
    f = make_field(
        config.dim,
        config.extents,
        config.h,
        u0=0.0,
        v0=0.0,
        bc=config.bc,
        disk_mask=config.disk_mask,
    )
    ic = config.ic
    if isinstance(ic, FrontIC):
        from scipy.special import expit

        profile = expit(-ic.steepness * (f.x - ic.offset))
        f.u[...] = profile
        f.v[...] = profile
    elif isinstance(ic, Bump2dIC):
        xx, yy = np.meshgrid(f.x, f.y)
        bump = ic.base + ic.amplitude * np.exp(-(xx**2 + yy**2))
        f.u[...] = bump
        f.v[...] = bump
    else:
        if isinstance(ic, CustomIC):
            try:
                with np.load(ic.path) as data:
                    ic = ArrayIC(data["u"], data["v"])
            except (OSError, KeyError) as exc:
                raise ConfigError(f"cannot load initial state: {exc}") from exc
        u0 = np.asarray(ic.u, dtype=float)
        v0 = np.asarray(ic.v, dtype=float)
        if u0.shape != f.u.shape or v0.shape != f.v.shape:
            raise ConfigError(
                f"initial arrays of shape {u0.shape} do not match grid {f.u.shape}"
            )
        if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(v0))):
            raise ConfigError("initial arrays contain non-finite values")
        if min(u0.min(), v0.min()) < _NEG_FLOOR:
            raise ConfigError("initial densities must be nonnegative")
        f.u[...] = np.maximum(u0, 0.0)
        f.v[...] = np.maximum(v0, 0.0)

    st = _stepper_of(f)
    f.u[st.pin] = st.pin_u[st.pin]
    f.v[st.pin] = st.pin_v[st.pin]
    return f


@dataclass
class Trajectory:
    """Timestamped snapshots with per-snapshot diagnostics.

    ``front`` holds the tracked front position at level a/(2b) for 1-D runs
    and the outer ring radius at the same level for 2-D runs; entries are
    NaN where the level set does not exist yet.
    """

    times: list[float]
    snapshots: list[GridField]
    mass_u: list[float]
    mass_v: list[float]
    front: list[float]
    dt_history: list[float]
    config: SimConfig


def ring_radii(f: GridField, level: float) -> tuple[float, float, float]:
    """Inner, peak and outer ring radii of a planar u at ``level``.

    The ring is centred on the box and searched out to 0.45 of its shorter
    side.
    """
    (x0, x1), (y0, y1) = f.extents
    center = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
    r_max = 0.45 * min(x1 - x0, y1 - y0)
    return ring_metrics(f.x, f.y, f.u, center=center, level=level, r_max=r_max)


def _front_diagnostic(f: GridField, params: ModelParams) -> float:
    level = params.a / (2.0 * params.b)
    try:
        if f.dim == 1:
            return front_position(f.x, f.u, level)
        return ring_radii(f, level)[2]
    except (NoCrossing, NoRing):
        return float("nan")


def simulate(config: SimConfig) -> Trajectory:
    """March the configured run to t_end, recording snapshots at the cadence.

    The step size is recomputed every step as the minimum of the advective
    bound, ``dt_max`` and the remaining time to the next snapshot.  Step
    errors propagate with the failing time appended.
    """
    f = build_initial(config)
    st = _stepper_of(f)
    params = config.params
    mu, mv = mass(f)
    times = [0.0]
    snapshots = [f.copy()]
    mass_u = [mu]
    mass_v = [mv]
    front = [_front_diagnostic(f, params)]
    dt_history: list[float] = []

    n_segments = int(round(config.t_end / config.cadence))
    t = 0.0
    for seg in range(1, n_segments + 1):
        seg_end = seg * config.cadence
        while t < seg_end - 1e-9 * max(1.0, seg_end):
            dt = min(config.dt_max, st.advective_bound(f, params), seg_end - t)
            try:
                f = step(f, params, dt)
            except (NegativeDensity, NonFiniteState, StabilityViolation) as exc:
                raise type(exc)(f"{exc} at t={t + dt:.6g}") from exc
            t += dt
            dt_history.append(dt)
        t = seg_end
        mu, mv = mass(f)
        times.append(t)
        snapshots.append(f.copy())
        mass_u.append(mu)
        mass_v.append(mv)
        front.append(_front_diagnostic(f, params))

    return Trajectory(
        times=times,
        snapshots=snapshots,
        mass_u=mass_u,
        mass_v=mass_v,
        front=front,
        dt_history=dt_history,
        config=config,
    )

def save_field(f: GridField, basepath: str) -> list[str]:
    """Write a snapshot to disk and return the written paths.

    1-D fields become a CSV with columns x, u, v.  2-D fields become a flat
    binary file (u then v, C order, float64) plus a JSON header describing
    the geometry.  Floats are written with full round-trip precision.
    """
    base = Path(basepath)
    if f.dim == 1:
        path = base.with_suffix(".csv")
        with open(path, "w") as fh:
            fh.write("x,u,v\n")
            for x, u, v in zip(f.x, f.u, f.v):
                fh.write(f"{float(x)!r},{float(u)!r},{float(v)!r}\n")
        return [str(path)]
    jpath = base.with_suffix(".json")
    bpath = base.with_suffix(".bin")
    arrays = ["u", "v"]
    payload = [np.ascontiguousarray(f.u, dtype="<f8").tobytes()]
    payload.append(np.ascontiguousarray(f.v, dtype="<f8").tobytes())
    if f.mask is not None:
        arrays.append("mask")
        payload.append(np.ascontiguousarray(f.mask, dtype="<f8").tobytes())
    header = {
        "dim": 2,
        "nx": f.nx,
        "ny": f.ny,
        "h": f.h,
        "extents": [list(pair) for pair in f.extents],
        "dtype": "<f8",
        "order": "C",
        "arrays": arrays,
    }
    with open(jpath, "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    with open(bpath, "wb") as fh:
        fh.write(b"".join(payload))
    return [str(jpath), str(bpath)]


def load_field(basepath: str) -> GridField:
    """Inverse of save_field; boundary conditions default to zero-flux."""
    base = Path(basepath)
    jpath = base.with_suffix(".json")
    cpath = base.with_suffix(".csv")
    if jpath.exists():
        with open(jpath) as fh:
            header = json.load(fh)
        nx, ny = int(header["nx"]), int(header["ny"])
        extents = tuple(tuple(float(e) for e in pair) for pair in header["extents"])
        raw = np.frombuffer(
            Path(base.with_suffix(".bin")).read_bytes(), dtype=header["dtype"]
        )
        n = ny * nx
        u = raw[:n].reshape(ny, nx).copy()
        v = raw[n : 2 * n].reshape(ny, nx).copy()
        mask = None
        if "mask" in header["arrays"]:
            mask = raw[2 * n : 3 * n].reshape(ny, nx) > 0.5
        return GridField(
            dim=2,
            extents=extents,
            nx=nx,
            ny=ny,
            h=float(header["h"]),
            u=u,
            v=v,
            bc=_default_bc(2),
            mask=mask,
        )
    if cpath.exists():
        data = np.loadtxt(cpath, delimiter=",", skiprows=1)
        data = np.atleast_2d(data)
        x, u, v = data[:, 0], data[:, 1], data[:, 2]
        h = (x[-1] - x[0]) / (x.size - 1)
        return GridField(
            dim=1,
            extents=((float(x[0]), float(x[-1])),),
            nx=x.size,
            ny=None,
            h=float(h),
            u=u.copy(),
            v=v.copy(),
            bc=_default_bc(1),
        )
    raise FileNotFoundError(f"no snapshot found at {basepath!r}")
