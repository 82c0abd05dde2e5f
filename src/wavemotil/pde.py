"""Direct time-dependent solver for the motility system in one and two
space dimensions.

The density equation is taken in the paper's own form,

    u_t = Laplacian( gamma(v) u ) + u (a - b u),

with node-centered finite volumes: the Laplacian is the two-point (1-D) or
five-point (2-D) difference, and boundary nodes own half cells.  With W the
half-cell volumes, K = W L is symmetric, couples each face's two nodes by
the cell width across the face over h (closed faces at a mask edge drop
out) and has zero column sums, so the discrete mass identities of u and v
are exact on zero-flux boxes up to solver rounding.

Time stepping is IMEX: the Laplacian terms are implicit, the growth
u (a - b u) and the source u - v explicit, and gamma is frozen at a known
v, Gamma = diag gamma(v*).  A step is second order (SBDF2: Ascher, Ruuth &
Wetton, SIAM J. Numer. Anal. 32 (1995)) when it continues a chain of steps
of one size, and first order on the first step of a chain (a step by
another dt, or on a field the last step did not return, starts a new one):

    first order   (I - dt L Gamma) u+ = u + dt R(u),    v* = v,
                  (I - dt L) v+ = v + dt (u - v),
    SBDF2         (3/2 I - dt L Gamma) u+ = 2 u - u0 / 2 + dt (2 R(u) - R(u0)),
                  (3/2 I - dt L) v+ = 2 v - v0 / 2 + dt (2 (u - v) - (u0 - v0)),
                  v* = max(2 v - v0, 0),

with R(u) = u (a - b u) and (u0, v0) the state before (u, v).  For a field
x with explicit term g, the SBDF2 right-hand side is computed as
2 (x + dt g) - c0: twice the first-order one less the carry
c0 = x0 / 2 + dt g0 that the state before kept from its own step, so no
explicit term is evaluated twice.

The u system is solved for w = Gamma u+.  Multiplied by W it reads
W (lead Gamma^-1 - dt L) w = W rhs, with lead 1 or 3/2: the v system's
matrix W (lead I - dt L) with lead W / gamma on the diagonal in place of
lead W.  Both are symmetric positive definite Z-matrices whose column j
sums to lead W_j / gamma_j or lead W_j > 0, so they are M-matrices for every
dt, and no advective bound limits dt.  Then u+ = w / gamma, and the column
sums give lead sum W u+ = sum W rhs: the mass identity of u.  Nodes held at
fixed values (Dirichlet sides, masked-out cells) move to the right-hand
side; a held node of the u system holds w = gamma(v_D) u_D.

In 1-D each system is tridiagonal and LAPACK ``pttrf``/``pttrs`` solve it
directly.  The five-point operator couples only nodes of opposite parity of
i + j, so the active nodes split into red and black: the red ones are
eliminated exactly, conjugate gradients preconditioned by the black
diagonal solve the black Schur complement, and one back substitution
recovers the red nodes (Reid, SIAM J. Numer. Anal. 9 (1972); Hageman &
Young, *Applied Iterative Methods*, ch. 9).  That takes about half the
iterations of Jacobi-preconditioned CG on the full system at about the same
cost per iteration.  Each solve starts from the polynomial extrapolation,
to the new time, of the current state and up to five earlier states of its
chain, taken on the black nodes only (the cheapest form of the projection
start of Fischer, Comput. Methods Appl. Mech. Engrg. 163 (1998)).  The
states of a chain are equally spaced, so the j-th newest of k has the
weight (-1)^j C(k, j + 1); the u solve's start is that of u times gamma, in
the units of w.  The first step of a chain starts from its field.  The
iteration stops once the weighted residual, which the back substitution
leaves on the black nodes alone, falls to 1e-12 of the weighted right-hand
side; hitting the iteration cap raises ``NoConvergence``.  The start moves
a result only within that tolerance.

The implicit part never makes a density negative, but the right-hand side
can be: the first-order one only where dt (b u - a) > 1, the SBDF2 one also
where a field falls to less than a quarter of its value in one step.  And
the iterative 2-D solve carries the M-matrix sign property over only to its
tolerance.  So undershoots above -1e-12 are clipped and anything lower is
reported as ``NegativeDensity``.  A NaN or infinite value anywhere in a new
state is reported as ``NonFiniteState``.  ``simulate`` splits each snapshot
interval into the fewest equal steps of at most ``dt_max`` (default 0.1), so
every step of a run has one size and all after the first are SBDF2.

What the steps of a run share and what depends only on the grid geometry
(held nodes, cell volumes, the face coefficients of K and their per-node
sums, and in 2-D the red and black index maps, the red-black coupling
block C1 of K with unit conductances, the sparsity of the black Schur
complement S = D_b - dt^2 C1^T D_r^-1 C1 with the map that fills its
values, and the faces to held nodes) is built once, on first use, into a
stepper that every ``GridField`` of the run holds by reference.  u and v
share the unit conductances, so each system holds its two diagonals, dt
and its own CSR matrix of S: the values it fills through that map over the
pattern's index arrays, with no sparse product assembled.  Each CG
iteration applies S as one sparse product, and the red nodes are
D_r^-1 (b_r - dt C1 x_b).  The u system changes with gamma and is
built every step; the v system changes only with dt and the order, so the
stepper keeps the last one and reuses it while both repeat.  The motility
law is evaluated once per step, for gamma only.  The stepper also keeps the
chain of steps (the v and carries of the newest state and, in 2-D, the
black-node states of the starts), and it counts the conjugate-gradient
iterations, the v systems built and the undershoots clipped.

``simulate`` measures each snapshot once as it takes it (``_diagnostics``:
the front and trailing-edge class in 1-D, the ring radii in 2-D, at level
a/(2b)), hands it to an optional ``on_snapshot`` callback and keeps only
the final one: a run holds at most one snapshot whatever its length, and
none while it steps, so a caller that wants the earlier ones collects them
through the callback.  The CLI's callback saves each one with
``save_field``, in 1-D and 2-D alike a JSON header and a float64 binary
file that ``load_field`` reads back exactly.

Planar runs default to a square box with zero flux; a masked-disk mode
(staircase boundary, closed faces at the mask edge) is available for
geometry closer to a petri dish.

Only the 2-D systems use ``scipy.sparse``, so it is imported where a
planar stepper builds its red-black pattern (``_packed``) and each of its
systems (``_RedBlackCG``), not with this module: 1-D runs, and every
command that never steps a planar grid, do not load it.

No run may ask for more than ``MAX_RUN_COUNT`` grid nodes, snapshots or
steps: ``make_field`` and ``SimConfig`` refuse a larger count before any
array exists.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import (
    ConfigError,
    NegativeDensity,
    NoConvergence,
    NoCrossing,
    NonFiniteState,
    NoRing,
)
from .frontmetrics import _front_and_class, ring_metrics
from .model import ModelParams

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
    "DEFAULT_DT_MAX",
    "MAX_RUN_COUNT",
]

#: Largest step of ``simulate``, which splits each snapshot interval into the
#: fewest equal steps of at most this size.
DEFAULT_DT_MAX = 0.1

#: The most grid nodes (of a field or of ``waveode``'s frame grid),
#: snapshots or steps one run may ask for; a larger count is refused before
#: any array exists.  Far above every preset (fig2 takes 3,000 steps on
#: 4,001 nodes, fig4 has 40,401 nodes) and the 100,000 steps of the gate's
#: kinetics check, while 1e7 steps of about 0.2 ms take over half an hour
#: and 1e7 float64 nodes hold 80 MB per array.
MAX_RUN_COUNT = 10_000_000

_NEG_FLOOR = -1e-12

#: Side names in axis order; a 1-D grid has the first two.
_SIDES = ("left", "right", "bottom", "top")

#: Relative tolerance on the weighted residual of a 2-D implicit solve; the
#: absolute tolerance is zero.
_CG_RTOL = 1e-12

#: Iteration cap of one 2-D implicit solve.  Exact-arithmetic CG needs at
#: most one iteration per unknown of the reduced system (15,712 black nodes
#: of the 31,417 active ones on the fig4 grid, the largest preset, where S
#: has 140,044 entries); solves there take at most 102 per step, u and v
#: together, from the extrapolated start.
_CG_MAX_ITER = 100_000

#: States the 2-D CG start extrapolates from: the current one and up to
#: five earlier ones of the same chain of steps.  Total CG iterations of
#: fig4, and the largest difference of its full-run snapshots from a run
#: with ``_CG_RTOL = 1e-15`` (2-vCPU VM, one BLAS thread; one point is the
#: plain start from the current field; row 6 applies the assembled Schur
#: complement, the other rows its unformed product, where row 6 read 2,391,
#: 7,649 and 8.5e-12):
#:
#:     points   t_end = 5   full run (t_end = 50)   full-run difference
#:          1       4,016       35,492                  7.1e-11
#:          3       3,129       20,891                  3.3e-11
#:          4       2,828       14,439                  2.5e-11
#:          5       2,593        9,628                  4.3e-11
#:          6       2,391        7,658                  1.1e-11
#:          7       2,236        8,290                  6.5e-12
#:
#: The busiest step takes 102 iterations in every row.  Each point costs
#: two black-node vectors (250 kB on fig4).
_GUESS_POINTS = 6


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product without BLAS, whose threads stall when cores are busy."""
    return float(np.einsum("i,i->", a, b))


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
    index along y.  ``dim`` is the number of extent pairs, and ``nx`` and
    ``ny`` are read off ``u``.  ``bc`` maps side names (``left``/``right``
    and, in 2-D, ``bottom``/``top``) to boundary conditions.  ``mask`` marks
    active nodes in masked-disk mode; inactive nodes are held at zero.
    """

    extents: tuple[tuple[float, float], ...]
    h: float
    u: np.ndarray
    v: np.ndarray
    bc: dict[str, Neumann | Dirichlet]
    mask: np.ndarray | None = None
    _stepper: _Stepper | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def nx(self) -> int:
        return self.u.shape[-1]

    @property
    def ny(self) -> int | None:
        return self.u.shape[0] if self.dim == 2 else None

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
        out = GridField(self.extents, self.h, u, v, bc, self.mask)
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


def _too_many_nodes(h: float, nodes: float) -> ValueError:
    return ValueError(
        f"spacing {h!r} gives {nodes:.6g} grid nodes, more than "
        f"MAX_RUN_COUNT = {MAX_RUN_COUNT:,}"
    )


def _axis_count(lo: float, hi: float, h: float) -> int:
    ratio = (hi - lo) / h
    if ratio >= MAX_RUN_COUNT:  # also before round() meets an infinite count
        raise _too_many_nodes(h, ratio + 1.0)
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
    if math.prod(counts) > MAX_RUN_COUNT:
        raise _too_many_nodes(h, math.prod(counts))
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
        gx = extents[0][0] + h * np.arange(counts[0])
        gy = extents[1][0] + h * np.arange(counts[1])
        xx, yy = np.meshgrid(gx, gy)
        mask = np.hypot(xx - cx, yy - cy) <= radius + 1e-9
        u[~mask] = 0.0
        v[~mask] = 0.0

    return GridField(extents, h, u, v, full_bc, mask)


def _along(a: np.ndarray, axis: int) -> np.ndarray:
    """View of a with ``axis`` last; its own inverse."""
    return a.swapaxes(axis, -1)


class _Stepper:
    """Per-run constants of one grid geometry.

    Everything here depends only on ``dim``, ``extents``, ``h``, ``bc`` and
    ``mask``.  Per-axis face arrays are held in the frame where that axis
    is last (see ``_along``); axes run x first.  ``weights`` holds the cell
    volumes W (half cells on the sides, 0 off the mask), ``scale`` per axis
    the face coefficients of K = W L (the cell width across the face over
    h, 0 at closed faces) and ``degree`` their sum at each node.  A 1-D
    stepper keeps the held ends with their inner neighbours
    (``held_ends``); a 2-D one keeps the red-black ``pattern``.
    ``u_system`` and ``v_system`` build the implicit solvers; the last v
    system is kept with its dt and lead coefficient, and the dt-scaled face
    terms both systems share (``faces``) with their dt.  Held values are
    written side by side in ``_SIDES`` order, so where two Dirichlet sides
    meet, the corner node takes the later side's values: ``bottom`` or
    ``top`` over ``left`` or ``right``.

    The stepper keeps the chain of steps of one size ``_dt`` that leads to
    ``last``, the field the last ``step`` returned; a step on any other
    field, or by another dt, restarts it.  ``_before`` holds the newest
    state's v and the carries of its step, which the next step needs if it
    is second order (``chain``).  In 2-D, ``_points`` holds, newest first,
    the u and v on the black nodes of up to ``_GUESS_POINTS`` states of the
    chain, from which ``starts`` extrapolates the CG starts.
    ``iterations`` counts the conjugate-gradient iterations of the run's
    implicit solves on the reduced (black-node) systems, and ``v_builds``
    the v systems built; ``clipped_values`` counts the undershoots
    ``step`` clipped to zero and ``worst_undershoot`` keeps the most
    negative of them.
    """

    def __init__(self, f: GridField) -> None:
        shape = f.u.shape
        self.axes = tuple(range(f.dim - 1, -1, -1))
        self.pin = np.zeros(shape, dtype=bool)
        self.pin_u = np.zeros(shape)
        self.pin_v = np.zeros(shape)
        for k, side in enumerate(_SIDES[: 2 * f.dim]):
            cond = f.bc.get(side)
            if isinstance(cond, Dirichlet):
                index = [slice(None)] * f.dim
                index[self.axes[k // 2]] = -(k % 2)
                self.pin[tuple(index)] = True
                self.pin_u[tuple(index)] = cond.u_val
                self.pin_v[tuple(index)] = cond.v_val
        edges = []
        weights = np.ones(())
        for n in shape:
            edge = np.full(n, f.h)
            edge[0] *= 0.5
            edge[-1] *= 0.5
            edges.append(edge)
            weights = np.multiply.outer(weights, edge)
        if f.mask is not None:
            dead = ~f.mask
            self.pin |= dead
            self.pin_u[dead] = 0.0
            self.pin_v[dead] = 0.0
            weights = weights * f.mask
        self.weights = weights
        self.scale = []
        self.degree = np.zeros(shape)
        for ax in self.axes:
            perp = np.ones(())
            for other, edge in enumerate(edges):
                if other != ax:
                    perp = np.multiply.outer(perp, edge)
            faces = _along(self.pin, ax)[..., 1:].shape
            scale = np.broadcast_to(perp[..., None] / f.h, faces)
            if f.mask is not None:
                mask = _along(f.mask, ax)
                scale = scale * (mask[..., :-1] & mask[..., 1:])
            self.scale.append(scale)
            degree = _along(self.degree, ax)
            degree[..., :-1] += scale
            degree[..., 1:] += scale
        if f.dim == 1:
            self._system = _Tridiagonal
            self.held_ends = tuple(
                (end, inner) for end, inner in ((0, 1), (-1, -2)) if self.pin[end]
            )
        else:
            self._system = _RedBlackCG
            self.pattern = _Pattern(self)
        self.iterations = 0
        self.v_builds = 0
        self.clipped_values = 0
        self.worst_undershoot = 0.0
        self._kept_v = None
        self._kept_faces = None
        self._before = self._dt = None
        self._points = deque(maxlen=_GUESS_POINTS)
        self.last = None

    def u_system(self, gamma: np.ndarray, dt: float, lead: float = 1.0):
        """Solver of W (lead Gamma^-1 - dt L) for w = gamma u+, each held
        node holding gamma times its u value.  ``NonFiniteState`` where
        gamma has underflowed so far that W / gamma is infinite."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            diag = lead * self.weights / gamma
        if not diag.max() < math.inf:  # False for NaN
            raise NonFiniteState("motility gamma(v) underflows: W / gamma is not finite")
        return self._system(self, diag, dt, gamma * self.pin_u)

    def v_system(self, dt: float, lead: float = 1.0):
        """Solver of W (lead - dt L) for v, the last one kept while dt and
        lead repeat."""
        if self._kept_v is None or self._kept_v[0] != (dt, lead):
            system = self._system(self, lead * self.weights, dt, self.pin_v)
            self._kept_v = ((dt, lead), system)
            self.v_builds += 1
        return self._kept_v[1]

    def faces(self, dt: float):
        """dt times ``degree`` and, in 1-D, the off-diagonal -dt s of the
        implicit systems, kept while dt repeats; callers must not write into
        them."""
        if self._kept_faces is None or self._kept_faces[0] != dt:
            sub = np.multiply(-dt, self.scale[0]) if len(self.axes) == 1 else None
            self._kept_faces = (dt, dt * self.degree, sub)
        return self._kept_faces[1:]

    def chain(self, f: GridField, dt: float, carry_u, carry_v):
        """Record f, with the carries of u and v its step computed, as the
        newest state of its chain.

        Returns the state before f as (v, carry_u, carry_v) when the step of
        f by dt is second order: f is ``last`` and the step before took the
        same dt.  Otherwise it returns None and restarts the chain at f.
        """
        before = self._before
        if f is not self.last or dt != self._dt:
            before = None
            self._points.clear()
        self.last = None  # set again by the step, once it succeeds
        self._before = (f.v, carry_u, carry_v)
        self._dt = dt
        if len(self.axes) == 2:
            black = self.pattern.black
            self._points.appendleft((f.u.ravel()[black], f.v.ravel()[black]))
        return before

    def starts(self, gamma: np.ndarray):
        """Black-node CG starts of w = gamma u and of v for the next step of
        the chain.

        Each is the extrapolation to the new time of the chain's k equally
        spaced states, the j-th newest weighted by (-1)^j C(k, j + 1); the
        u one is then multiplied by gamma.  In 1-D the solves are direct
        and there is no start.
        """
        if len(self.axes) == 1:
            return None, None
        k = len(self._points)
        u_start = v_start = None
        for j, (u, v) in enumerate(self._points):
            weight = (-1) ** j * math.comb(k, j + 1)
            if u_start is None:
                u_start, v_start = weight * u, weight * v
            else:
                u_start += weight * u
                v_start += weight * v
        u_start *= gamma.ravel()[self.pattern.black]
        return u_start, v_start


def _stepper_of(f: GridField) -> _Stepper:
    if f._stepper is None:
        f._stepper = _Stepper(f)
    return f._stepper


def mass(f: GridField) -> tuple[float, float]:
    """Trapezoid-weighted totals of u and v over the active domain."""
    w = _stepper_of(f).weights
    return float(np.sum(w * f.u)), float(np.sum(w * f.v))


def _gamma(v: np.ndarray, params: ModelParams) -> np.ndarray:
    """The motility gamma(v) at every node; ``NonFiniteState`` for a NaN or
    infinite v."""
    try:
        return params.motility.gamma(v)
    except ValueError as exc:
        if np.all(np.isfinite(v)):
            raise
        raise NonFiniteState("v holds a non-finite value") from exc


def _laplacian(a: np.ndarray, st: _Stepper) -> np.ndarray:
    """L a = W^-1 K a, zero at held nodes."""
    k = np.zeros(a.shape)
    for ax, scale in zip(st.axes, st.scale):
        flux = scale * np.diff(_along(a, ax))
        k_ax = _along(k, ax)
        k_ax[..., :-1] += flux
        k_ax[..., 1:] -= flux
    return np.divide(k, st.weights, out=np.zeros(a.shape), where=~st.pin)


def spatial_rhs(f: GridField, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Full semi-discrete right-hand side (d/dt of u and v) at held dt -> 0.

    Held nodes (Dirichlet sides, masked-out cells) report zero.  Useful for
    verifying the spatial order of the discretization directly.
    """
    st = _stepper_of(f)
    du = _laplacian(_gamma(f.v, params) * f.u, st)
    du += f.u * (params.a - params.b * f.u)
    dv = _laplacian(f.v, st) + f.u - f.v
    du[st.pin] = 0.0
    dv[st.pin] = 0.0
    return du, dv


def spd_tridiagonal_factor(diag, sub):
    """In-place ``pttrf`` factor (d, e) of an SPD tridiagonal matrix, or
    ``NonFiniteState`` when it is not positive definite (LAPACK info != 0)."""
    d, e, info = dpttrf(diag, sub, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise NonFiniteState(f"tridiagonal factorization failed (LAPACK info {info})")
    return d, e


class _Tridiagonal:
    """W (D - dt L) on a 1-D grid, factored by pttrf.

    ``diag`` is W D: lead times the cell widths W (h, with h/2 at the end
    nodes) for the v system and lead W / gamma for the u system, with lead
    1 (first order) or 3/2 (SBDF2).  The matrix is symmetric positive
    definite with diagonal ``diag`` + dt (s_left + s_right) and off-diagonal
    -dt s on the faces, s = 1 / h.  A held end leaves the system as an
    identity row, and the solve returns its value from ``held`` exactly.
    Its coupling dt s times that value moves to the right-hand side of the
    neighbouring row, unless that row is held too.
    """

    def __init__(self, st: _Stepper, diag, dt: float, held: np.ndarray) -> None:
        self.st = st
        self.held = held
        degree, sub = st.faces(dt)
        sub = sub.copy()  # pttrf factors in place
        diag = diag + degree
        self.couplings = [
            (inner, -sub[end] * held[end])
            for end, inner in st.held_ends
            if not st.pin[inner]
        ]
        for end, _ in st.held_ends:
            diag[end] = 1.0
            sub[end] = 0.0
        self.diag, self.sub = spd_tridiagonal_factor(diag, sub)

    def solve(self, rhs: np.ndarray, start) -> np.ndarray:
        """Exact solution; a direct solve ignores its ``start``.

        Held ends take their values from ``held``, not from ``rhs``.
        """
        b = rhs * self.st.weights
        for inner, coupling in self.couplings:
            b[inner] += coupling
        for end, _ in self.st.held_ends:
            b[end] = self.held[end]
        x, _ = dpttrs(self.diag, self.sub, b, overwrite_b=1)
        return x


def _packed(data, indices, lengths, n_cols: int):
    """CSR matrix whose rows, of the given lengths, hold ``data`` at
    ``indices`` in order."""
    import scipy.sparse as sparse  # planar runs only (module docstring)

    indptr = np.zeros(lengths.size + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    return sparse.csr_matrix((data, indices, indptr), shape=(lengths.size, n_cols))


def _held_faces(st: _Stepper):
    """Faces from an active node to a held one on a planar grid, closed
    faces left out: the active node, the held node and the face
    coefficient of each."""
    live = ~st.pin.ravel()
    idx = np.arange(live.size).reshape(st.pin.shape)
    p_all = np.concatenate([_along(idx, ax)[..., :-1].ravel() for ax in st.axes])
    q_all = np.concatenate([_along(idx, ax)[..., 1:].ravel() for ax in st.axes])
    scale = np.concatenate([s.ravel() for s in st.scale])
    p_live, q_live = live[p_all], live[q_all]
    held = np.flatnonzero((p_live != q_live) & (scale != 0.0))
    p_lives = p_live[held]
    return (
        np.where(p_lives, p_all[held], q_all[held]),
        np.where(p_lives, q_all[held], p_all[held]),
        scale[held],
    )


class _Pattern:
    """Red-black structure of K = W L on the active nodes of a planar grid.

    Active (unheld) nodes are red where i + j is even and black where it is
    odd, each colour in C order.  A face couples its two nodes by its
    coefficient s (the stepper's ``scale``); closed faces are left out.
    Every face joins a red node to a black one, so the only off-diagonal
    block of W (D - dt L) is dt times the red-row, black-column block
    ``coupling`` = C1, with one entry -s per face between two active nodes,
    and ``coupling_t`` is C1^T as a CSC view of the same arrays.  Faces
    from an active node (``held_rows``) to a held one (``held_nodes``) move
    dt s times the held value (``held_scale`` holds s) to the right-hand
    side.

    Eliminating the red nodes leaves S = D_b - dt^2 C1^T D_r^-1 C1 on the
    black ones (D_r, D_b the diagonals of the two colours): a nine-point
    operator whose entry (j, k) is D_b on the diagonal less dt^2 times the
    sum of C1_ij C1_ik / D_r_i over the red nodes i next to both j and k.
    ``schur_index`` holds its sparsity, the CSR ``indices`` and ``indptr``
    with columns sorted, and ``refill`` maps a system's coefficients onto
    it: one row per entry of S in CSR order, one column
    per red node holding C1_ij C1_ik, then one column per black node
    holding a 1 in the row of its diagonal entry.  A system's values of S
    are thus ``refill`` @ [-dt^2 D_r^-1, D_b].  C1, S and ``refill`` are
    built once per run from each node's four neighbours on a frame of the
    grid padded by two nodes, which holds every neighbour of a neighbour.
    """

    def __init__(self, st: _Stepper) -> None:
        shape = st.pin.shape
        live = ~st.pin
        red = np.add.outer(*(np.arange(n) for n in shape)) % 2 == 0
        self.red = np.flatnonzero(live & red)
        self.black = np.flatnonzero(live & ~red)
        n_red, n_black = self.red.size, self.black.size
        self.held_rows, self.held_nodes, self.held_scale = _held_faces(st)

        # On the frame: each node's index within its colour (-1 where held
        # or off the grid) and, per axis, the coefficient of the face to
        # the next node along it (0 unless the face joins two active nodes).
        frame = tuple(n + 4 for n in shape)
        local = np.full(frame, -1, dtype=np.int32)
        local[2:-2, 2:-2][live & red] = np.arange(n_red)
        local[2:-2, 2:-2][live & ~red] = np.arange(n_black)
        local = local.ravel()
        # Steps to the four neighbours: (offset, faces, shift), the face a
        # step from p crosses being faces[p + shift].
        steps = []
        for ax, scale in zip(st.axes, st.scale):
            alive = _along(live, ax)
            faces = np.zeros(frame)
            _along(faces, ax)[2:-2, 2 : alive.shape[-1] + 1] = scale * (
                alive[..., :-1] & alive[..., 1:]
            )
            stride = frame[1] if ax == 0 else 1
            steps += [(-stride, faces.ravel(), -stride), (stride, faces.ravel(), 0)]
        steps.sort(key=lambda s: s[0])  # C order of the node a step reaches
        offsets = np.array([s[0] for s in steps])

        def around(flat: np.ndarray):
            """Frame positions of grid nodes ``flat`` and, per step (rows)
            and node (columns), the face coefficient and the colour index
            of the node reached."""
            y, x = np.divmod(flat, shape[1])
            at = (y + 2) * frame[1] + x + 2
            coeff = np.array([faces[at + shift] for _, faces, shift in steps])
            return at, coeff, local[offsets[:, None] + at]

        _, coeff, cols = around(self.red)
        keep = coeff != 0.0
        self.coupling = _packed(
            -coeff.T[keep.T], cols.T[keep.T], keep.sum(axis=0), n_black
        )
        self.coupling_t = self.coupling.T

        # Entry (j, j + D) of S takes one term per pair of steps d1, d2 whose
        # offsets sum to D, through the red node j + d1; the 1 for D_b leads
        # the row of the diagonal entry.  Rows of these tables are the terms,
        # grouped by D in ascending order; columns are the black nodes.
        at, coeff, reds = around(self.black)
        sums = np.add.outer(offsets, offsets)
        stencil = np.unique(sums)
        terms = []  # (index of D in the stencil, d1, d2); d1 None for D_b
        for g, D in enumerate(stencil):
            if D == 0:
                terms.append((g, None, None))
            terms += [(g, d1, d2) for d1, d2 in np.argwhere(sums == D)]
        values = np.empty((len(terms), n_black))
        columns = np.empty((len(terms), n_black), dtype=np.int32)
        counts = np.zeros((stencil.size, n_black), dtype=np.int32)
        for t, (g, d1, d2) in enumerate(terms):
            if d1 is None:
                values[t] = 1.0
                columns[t] = np.arange(n_red, n_red + n_black)
            else:
                _, faces, shift = steps[d2]
                crossed = faces[at + offsets[d1] + shift]
                np.multiply(coeff[d1], crossed, out=values[t])
                columns[t] = reds[d1]
            counts[g] += values[t] != 0.0
        keep, present = values != 0.0, counts > 0
        schur = _packed(
            np.zeros(np.count_nonzero(present)),
            local[stencil[:, None] + at].T[present.T],
            present.sum(axis=0),
            n_black,
        )
        self.schur_index = (schur.indices, schur.indptr)
        self.refill = _packed(
            values.T[keep.T], columns.T[keep.T], counts.T[present.T], n_red + n_black
        )


class _RedBlackCG:
    """W (D - dt L) on a planar grid, solved on its red-black Schur
    complement.

    ``diag`` is W D, as for ``_Tridiagonal``.  With D_r, D_b the diagonals
    of the two colours (``diag`` + dt times the stepper's ``degree``) and
    C1 the pattern's coupling block, eliminating the red nodes leaves
    S = D_b - dt^2 C1^T D_r^-1 C1 on the black ones.  The system assembles
    its values of S once, through the pattern's ``refill`` map, into its
    own CSR matrix ``schur`` over the pattern's index arrays, and each
    iteration applies S as one sparse product.  Conjugate gradients solve
    it preconditioned by D_b: the Jacobi scaling of the full system carried
    over to the reduced one (the reduced-system CG of Hageman & Young,
    *Applied Iterative Methods*, ch. 9), which needs about half the
    iterations of Jacobi-preconditioned CG on the full system.  One back
    substitution then gives the red nodes.  That leaves the red rows'
    residual at rounding level, so the reduced residual is the full
    weighted residual; the iteration stops once it is at most ``_CG_RTOL``
    times the full weighted right-hand side.  CG iterates on the black
    nodes only, so its start is a black-node vector: in a step, the
    stepper's extrapolation from the last few states (``_Stepper.starts``).
    Held nodes take their values from ``held``, so their face term is fixed
    with the system.
    """

    def __init__(self, st: _Stepper, diag, dt: float, held: np.ndarray) -> None:
        import scipy.sparse as sparse  # planar runs only (module docstring)

        pat = st.pattern
        self.st = st
        self.held = held
        self.dt = dt
        diag = (diag + st.faces(dt)[0]).ravel()
        self.inv_red = 1.0 / diag[pat.red]
        self.inv_black = 1.0 / diag[pat.black]
        values = pat.refill @ np.concatenate((-dt * dt * self.inv_red, diag[pat.black]))
        self.schur = sparse.csr_matrix(
            (values, *pat.schur_index), shape=(pat.black.size,) * 2
        )
        self.held_term = dt * pat.held_scale * held.ravel()[pat.held_nodes]

    def solve(self, rhs: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Solution for ``rhs``, iterated from ``start``, the values of the
        black nodes (``pattern.black``) to begin with."""
        pat = self.st.pattern
        schur = self.schur
        b = self.st.weights.ravel() * rhs.ravel()
        np.add.at(b, pat.held_rows, self.held_term)
        b_red, b_black = b[pat.red], b[pat.black]
        tol = _CG_RTOL * np.sqrt(_dot(b_red, b_red) + _dot(b_black, b_black))
        x = start.copy()
        r = b_black - pat.coupling_t @ (self.dt * self.inv_red * b_red)
        r -= schur @ x
        z = self.inv_black * r
        p = z.copy()
        scaled = np.empty_like(p)
        rz = _dot(r, z)
        res = np.sqrt(_dot(r, r))
        it = 0
        while True:
            # Checked before the stop test: an infinite rhs gives tol = inf.
            if not np.isfinite(res):
                raise NonFiniteState("implicit solve met a non-finite residual")
            if res <= tol:
                break
            if it >= _CG_MAX_ITER:
                raise NoConvergence(
                    f"implicit solve stopped at {it} iterations with weighted "
                    f"residual {res:.3g} above {tol:.3g}"
                )
            q = schur @ p
            alpha = rz / _dot(p, q)
            x += np.multiply(p, alpha, out=scaled)
            r -= np.multiply(q, alpha, out=scaled)
            res = np.sqrt(_dot(r, r))
            np.multiply(self.inv_black, r, out=z)
            rz, rz_old = _dot(r, z), rz
            p *= rz / rz_old
            p += z
            it += 1
        self.st.iterations += it
        out = self.held.copy()
        out_flat = out.ravel()
        out_flat[pat.red] = self.inv_red * (b_red - self.dt * (pat.coupling @ x))
        out_flat[pat.black] = x
        return out


def _second_order(v, before, rhs_u, rhs_v, params: ModelParams) -> np.ndarray:
    """Turn the first-order right-hand sides of a step from (u, v) into the
    SBDF2 ones in place, 2 rhs - c0 with the carries c0 of the state before,
    and return gamma at v* = max(2 v - v0, 0).

    ``before`` is that state's (v0, carry_u0, carry_v0) from ``chain``.
    """
    v0, carry_u0, carry_v0 = before
    rhs_u *= 2.0
    rhs_u -= carry_u0
    rhs_v *= 2.0
    rhs_v -= carry_v0
    v_star = np.multiply(2.0, v)
    v_star -= v0
    return _gamma(np.maximum(v_star, 0.0, out=v_star), params)


def step(f: GridField, params: ModelParams, dt: float) -> GridField:
    """Advance one IMEX step of size dt and return the new state.

    The step is second order (SBDF2) when f is the state the stepper's last
    step returned and that step took the same dt.  Otherwise it is first
    order and starts a new chain at f, and a 2-D step starts its solves
    from f itself.

    Raises:
        NegativeDensity: a node fell below -1e-12 (undershoots above that
            floor are clipped to zero).
        NonFiniteState: the new state holds a NaN or an infinite value.
        NoConvergence: a 2-D implicit solve hit its iteration cap.
        ValueError: nonpositive dt.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    st = _stepper_of(f)
    # dt times the explicit terms: the growth u (a - b u) and the source
    # u - v.  Each field's first-order right-hand side is x + dt g, and its
    # carry x / 2 + dt g is what the next step's SBDF2 right-hand side
    # 2 (x + dt g) - (x0 / 2 + dt g0) takes from this state.  An infinite
    # value makes NaN here; gamma or the final check reports it.
    with np.errstate(invalid="ignore"):
        carry_u = np.multiply(params.b, f.u)
        np.subtract(params.a, carry_u, out=carry_u)
        carry_u *= f.u
        carry_u *= dt
        carry_v = np.subtract(f.u, f.v)
        carry_v *= dt
        rhs_u = carry_u + f.u
        rhs_v = carry_v + f.v
        carry_u += 0.5 * f.u
        carry_v += 0.5 * f.v
    before = st.chain(f, dt, carry_u, carry_v)
    if before is None:
        lead = 1.0
        gamma = _gamma(f.v, params)
    else:
        lead = 1.5
        gamma = _second_order(f.v, before, rhs_u, rhs_v, params)
        del before  # the solves need no array of the state before f
    start_u, start_v = st.starts(gamma)
    new_u = st.u_system(gamma, dt, lead).solve(rhs_u, start_u)
    new_u /= gamma
    np.copyto(new_u, st.pin_u, where=st.pin)
    new_v = st.v_system(dt, lead).solve(rhs_v, start_v)

    for name, arr in (("u", new_u), ("v", new_v)):
        low, high = float(arr.min()), float(arr.max())
        if not -np.inf < low <= high < np.inf:  # False for NaN
            raise NonFiniteState(f"{name} holds a non-finite value")
        if low < _NEG_FLOOR:
            raise NegativeDensity(
                f"{name} reached {low:.6g}, below the {_NEG_FLOOR} floor"
            )
        if low < 0.0:
            below = arr < 0.0
            st.clipped_values += int(np.count_nonzero(below))
            st.worst_undershoot = min(st.worst_undershoot, low)
            np.copyto(arr, 0.0, where=below)

    st.last = f._with(new_u, new_v, f.bc)
    return st.last


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
        if ratio > MAX_RUN_COUNT:
            raise ConfigError(
                f"t_end / cadence asks for {ratio:.6g} snapshots, more than "
                f"MAX_RUN_COUNT = {MAX_RUN_COUNT:,}"
            )
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ConfigError("cadence must divide t_end")
        if not isinstance(self.ic, (FrontIC, Bump2dIC, CustomIC, ArrayIC)):
            raise ConfigError("unknown initial-condition selector")
        if isinstance(self.ic, Bump2dIC) and self.dim != 2:
            raise ConfigError("bump initial condition requires dim=2")
        if not self.dt_max > 0:
            raise ConfigError("dt_max must be positive")
        if not 0 < self.cadence / self.dt_max < math.inf:
            raise ConfigError("dt_max must split the cadence into finitely many steps")
        steps = round(ratio) * round(self.cadence / self.dt)  # as simulate takes them
        if steps > MAX_RUN_COUNT:
            raise ConfigError(
                f"dt_max = {self.dt_max!r} splits the run into more than "
                f"MAX_RUN_COUNT = {MAX_RUN_COUNT:,} steps"
            )

    @property
    def dt(self) -> float:
        """Step size of ``simulate``: the cadence split into the fewest equal
        steps of at most ``dt_max`` (up to a relative 1e-9)."""
        return self.cadence / math.ceil(self.cadence / self.dt_max * (1.0 - 1e-9))


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
        with np.errstate(over="ignore"):  # exp overflowing to inf gives 0
            profile = 1.0 / (1.0 + np.exp(ic.steepness * (f.x - ic.offset)))
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
                data = np.load(ic.path)
                if not isinstance(data, np.lib.npyio.NpzFile):
                    raise ValueError("not an .npz archive")
                with data:
                    ic = ArrayIC(data["u"], data["v"])
            except (OSError, KeyError, ValueError) as exc:
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
    """Per-snapshot times and diagnostics of a run, and its final snapshot.

    ``snapshots`` holds only the final snapshot, so ``snapshots[-1]`` is
    the state at ``times[-1]``; every snapshot reaches ``simulate``'s
    ``on_snapshot`` callback as it is taken.  ``diagnostics`` holds each
    snapshot's ``_diagnostics`` by ``metrics.csv`` column name, and
    ``front`` its front at level a/(2b): the position in 1-D, ``r_outer``
    in 2-D, NaN where the level set does not exist yet.
    ``solver_iterations`` holds, per step, the conjugate-gradient
    iterations of the u and v solves together, counted on the red-black
    reduced systems (always 0 in 1-D, where the solves are direct); its
    length is the number of steps, each of size ``config.dt``.
    ``v_builds`` counts the v systems built: one for the first-order first
    step and one for the second-order steps after it.  ``clipped_values``
    counts the values of u and v that steps clipped from (-1e-12, 0) to
    zero, and ``worst_undershoot`` is the most negative of them (0.0 when
    none was clipped).
    """

    times: list[float]
    snapshots: list[GridField]
    mass_u: list[float]
    mass_v: list[float]
    front: list[float]
    diagnostics: list[dict]
    config: SimConfig
    solver_iterations: list[int] = field(default_factory=list)
    v_builds: int = 0
    clipped_values: int = 0
    worst_undershoot: float = 0.0


def ring_radii(f: GridField, level: float) -> tuple[float, float, float]:
    """Inner, peak and outer ring radii of a planar u at ``level``.

    The ring is centred on the box and searched out to 0.45 of its shorter
    side.
    """
    (x0, x1), (y0, y1) = f.extents
    center = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
    r_max = 0.45 * min(x1 - x0, y1 - y0)
    return ring_metrics(f.x, f.y, f.u, center=center, level=level, r_max=r_max)


def _diagnostics(f: GridField, params: ModelParams) -> dict:
    """The ``metrics.csv`` columns measured on a snapshot at level a/(2b):
    in 1-D the ``front`` position and ``classify_profile``'s trailing-edge
    class, both from one rightmost-crossing search (``NoFront`` with a NaN
    front when u never crosses the level), in 2-D the ring radii (NaN when
    the azimuthal average never crosses it)."""
    if f.dim == 2:
        try:
            radii = ring_radii(f, params.a / (2.0 * params.b))
        except NoRing:
            radii = (math.nan,) * 3
        return dict(zip(("r_inner", "r_peak", "r_outer"), radii))
    try:
        front, cls = _front_and_class(f.x, f.u, params.equilibrium)
    except NoCrossing:
        return dict(
            front=math.nan, label="NoFront", crossing_count=None, overshoot=None
        )
    return dict(front=front, **asdict(cls))


def simulate(
    config: SimConfig, on_snapshot: Callable[[int, GridField], None] | None = None
) -> Trajectory:
    """March the configured run to t_end, recording snapshots at the cadence.

    Every step has the size ``config.dt``, which splits each snapshot
    interval into equal steps, so the run is one chain and all its steps
    but the first are second order.  Step errors propagate with the
    failing time appended.

    ``on_snapshot(k, field)``, when given, is called with each snapshot as
    it is taken, k = 0 for the initial state; each is a copy the run no
    longer touches.  The run keeps only the final snapshot, in
    ``Trajectory.snapshots``, and measures each snapshot once as it takes
    it, into ``Trajectory.diagnostics``.  An error the callback raises
    ends the run and propagates.
    """
    f = build_initial(config)
    st = _stepper_of(f)
    params = config.params
    mu, mv = mass(f)
    times = [0.0]
    snapshot = f.copy()
    mass_u = [mu]
    mass_v = [mv]
    diagnostics = [_diagnostics(f, params)]
    if on_snapshot is not None:
        on_snapshot(0, snapshot)
    solver_iterations: list[int] = []

    n_segments = int(round(config.t_end / config.cadence))
    dt = config.dt
    per_segment = round(config.cadence / dt)
    for seg in range(1, n_segments + 1):
        del snapshot  # the run holds no snapshot while it steps
        for k in range(1, per_segment + 1):
            before = st.iterations
            try:
                f = step(f, params, dt)
            except (NegativeDensity, NonFiniteState, NoConvergence) as exc:
                t = (seg - 1) * config.cadence + k * dt
                raise type(exc)(f"{exc} at t={t:.6g}") from exc
            solver_iterations.append(st.iterations - before)
        mu, mv = mass(f)
        times.append(seg * config.cadence)
        snapshot = f.copy()
        mass_u.append(mu)
        mass_v.append(mv)
        diagnostics.append(_diagnostics(f, params))
        if on_snapshot is not None:
            on_snapshot(seg, snapshot)

    return Trajectory(
        times=times,
        snapshots=[snapshot],
        mass_u=mass_u,
        mass_v=mass_v,
        front=[row["front" if f.dim == 1 else "r_outer"] for row in diagnostics],
        diagnostics=diagnostics,
        config=config,
        solver_iterations=solver_iterations,
        v_builds=st.v_builds,
        clipped_values=st.clipped_values,
        worst_undershoot=st.worst_undershoot,
    )


def _bc_record(bc: dict) -> dict:
    """Each side's boundary condition as JSON values."""
    return {
        side: {"type": "dirichlet", "u_val": cond.u_val, "v_val": cond.v_val}
        if isinstance(cond, Dirichlet)
        else {"type": "neumann"}
        for side, cond in bc.items()
    }


def _bc_of_record(dim: int, record: dict) -> dict:
    """Inverse of ``_bc_record``; sides it does not name are zero-flux."""
    bc = _default_bc(dim)
    for side, cond in record.items():
        if cond["type"] == "dirichlet":
            bc[side] = Dirichlet(float(cond["u_val"]), float(cond["v_val"]))
    return bc


def _write_arrays(
    base: Path, arrays: dict, header: dict, tail: dict | None = None
) -> list[str]:
    """Write ``arrays`` to ``<base>.bin`` and its JSON header to
    ``<base>.json``, and return the two paths.

    The binary file holds each array in turn, C order, little-endian
    float64, each written from its own array.  The header is ``header``,
    then ``dtype``, ``order`` and ``arrays`` (the names, in file order),
    then ``tail``.  Each file is recorded as it is created, and a write
    that fails removes them before the error propagates.
    """
    layout = {"dtype": "<f8", "order": "C", "arrays": list(arrays)}
    header = {**header, **layout, **(tail or {})}
    created: list[Path] = []
    try:
        jpath = base.with_suffix(".json")
        with open(jpath, "w") as fh:
            created.append(jpath)
            json.dump(header, fh, indent=2, allow_nan=False)
            fh.write("\n")
        bpath = base.with_suffix(".bin")
        with open(bpath, "wb") as fh:
            created.append(bpath)
            for values in arrays.values():
                fh.write(np.ascontiguousarray(values, dtype="<f8"))
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    return [str(path) for path in created]


def save_field(f: GridField, basepath: str) -> list[str]:
    """Write a snapshot to disk and return the written paths.

    A field of either dimension becomes a JSON header (``<base>.json``)
    describing the geometry (``ny`` is null in 1-D) and the boundary
    condition of each side, plus a flat binary file (``<base>.bin``): u
    then v, then the mask if any, as ``_write_arrays`` lays them out.
    Every float, h and the extents included, round-trips exactly.
    """
    arrays = {"u": f.u, "v": f.v}
    if f.mask is not None:
        arrays["mask"] = f.mask
    geometry = {
        "dim": f.dim,
        "nx": f.nx,
        "ny": f.ny,
        "h": f.h,
        "extents": [list(pair) for pair in f.extents],
    }
    return _write_arrays(Path(basepath), arrays, geometry, {"bc": _bc_record(f.bc)})


def load_field(basepath: str) -> GridField:
    """Inverse of ``save_field``.

    The field gets the boundary conditions its header records; a header
    without that record gives zero-flux sides.
    """
    base = Path(basepath)
    with open(base.with_suffix(".json")) as fh:
        header = json.load(fh)
    dim, nx = int(header["dim"]), int(header["nx"])
    shape = (nx,) if dim == 1 else (int(header["ny"]), nx)
    n = math.prod(shape)
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype=header["dtype"])
    u = raw[:n].reshape(shape).copy()
    v = raw[n : 2 * n].reshape(shape).copy()
    mask = None
    if "mask" in header["arrays"]:
        mask = raw[2 * n : 3 * n].reshape(shape) > 0.5
    extents = tuple(tuple(float(e) for e in pair) for pair in header["extents"])
    bc = _bc_of_record(dim, header.get("bc", {}))
    return GridField(extents, float(header["h"]), u, v, bc, mask)
