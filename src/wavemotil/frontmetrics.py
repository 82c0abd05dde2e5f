"""Quantitative wave diagnostics extracted from simulated fields and profiles.

Front position is the rightmost linear-interpolated crossing of a density
level (conventionally half the carrying capacity, a/(2b)).  Tracking that
position over time and fitting a line, after discarding an initial transient,
yields the observed wave speed.  Tail decay rates come from a log-linear fit
over the window where the density is small but still well above rounding
noise.  Profiles are classified as monotone or oscillatory at the trailing
edge by counting sign changes about the carrying capacity behind the front.
For planar fields, ring radii are measured on an azimuthally averaged radial
profile sampled along many rays with bilinear interpolation, which keeps the
radii grid-independent.

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, NoCrossing, NoRing, WindowTooSmall

__all__ = [
    "ProfileClass",
    "front_position",
    "wave_speed",
    "decay_fit",
    "classify_profile",
    "ring_metrics",
]

#: Front samples earlier than this fraction of the time span are treated as
#: transient and excluded from speed fits.
DEFAULT_TRANSIENT_FRACTION = 0.2

#: Density window used by :func:`decay_fit`: small enough to sit in the
#: exponential tail, large enough to stay clear of rounding noise.
DECAY_WINDOW = (1e-12, 1e-2)

_MIN_FIT_SAMPLES = 10

#: Rays from the center along which :func:`ring_metrics` samples a field.
_N_RAYS = 64


@dataclass(frozen=True)
class ProfileClass:
    """Monotonicity classification of a trailing edge.

    Attributes:
        label: one of ``"Monotone"``, ``"OscillatoryTrailingEdge"``,
            ``"Indeterminate"``.
        crossing_count: sign changes of (u - equilibrium) left of the front.
        overshoot: max(u) - equilibrium over that region, clipped at zero.
    """

    label: str
    crossing_count: int
    overshoot: float


def _rightmost_crossing(u: np.ndarray, level: float) -> tuple[int, int, float]:
    """The cell (i, i + 1) of the rightmost crossing of ``u`` through
    ``level`` and the fraction t across it where the linear interpolant
    crosses; a sign change across a run of exact hits is the cell ending at
    the rightmost hit node, with t = 0.

    Raises:
        NoCrossing: if ``u`` never reaches the level.
    """
    d = u - level
    nz = np.flatnonzero(d)
    if nz.size == 0:
        raise NoCrossing(f"density never crosses level {level!r}")
    signs = np.sign(d[nz])
    flips = np.flatnonzero(signs[:-1] != signs[1:])
    if flips.size == 0:
        raise NoCrossing(f"density never crosses level {level!r}")
    i, j = int(nz[flips[-1]]), int(nz[flips[-1] + 1])
    if j == i + 1:
        return i, j, float(d[i] / (d[i] - d[j]))
    return j - 1, j, 0.0


def front_position(x: np.ndarray, u: np.ndarray, level: float) -> float:
    """Rightmost crossing of ``u`` through ``level``, linearly interpolated.

    Intended for fronts that decrease to the right; any sign change of
    u - level counts as a crossing and the rightmost one is returned.
    Exact node hits are returned at the node abscissa.  The interpolation
    uses only local differences, so shifting the array by s nodes shifts
    the result by s grid spacings.

    Raises:
        NoCrossing: if ``u`` never reaches the level.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim != 1 or u.shape != x.shape:
        raise ValueError("x and u must be matching 1-D arrays")
    i, j, t = _rightmost_crossing(u, level)
    return float(x[i] + t * (x[j] - x[i]))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line y = slope x + intercept from centred sums.

    Returns (slope, intercept, sxx, ssr): sxx is the sum of squared
    deviations of x from its mean and ssr the residual sum of squares.
    All x equal (sxx = 0) give a NaN slope and intercept.  The closed form
    is the one fit of ``wave_speed``, ``decay_fit`` and
    ``waveode.verify_profile``: a degree-1 ``np.polyfit`` would solve the
    same problem through numpy's LAPACK, which no 1-D run loads otherwise.
    """
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    sxx = float(dx @ dx)
    if sxx == 0.0:
        return math.nan, math.nan, 0.0, math.nan
    slope = float(dx @ dy) / sxx
    resid = dy - slope * dx
    return slope, float(y_mean - slope * x_mean), sxx, float(resid @ resid)


def wave_speed(
    times: np.ndarray,
    positions: np.ndarray,
    *,
    transient_fraction: float = DEFAULT_TRANSIENT_FRACTION,
) -> tuple[float, float]:
    """Least-squares front speed and its standard error.

    Non-finite positions are dropped; the fit window excludes the leading
    ``transient_fraction`` of the time span and must retain at least 10
    samples.  The line is ``_line_fit``'s, the fit ``decay_fit`` and
    ``waveode.verify_profile`` share.

    Raises:
        InsufficientSamples: fewer than 10 usable samples in the window.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if times.ndim != 1 or positions.shape != times.shape:
        raise ValueError("times and positions must be matching 1-D arrays")
    keep = np.isfinite(times) & np.isfinite(positions)
    times, positions = times[keep], positions[keep]
    if times.size == 0:
        raise InsufficientSamples("no finite front samples")
    t_cut = times.min() + transient_fraction * (times.max() - times.min())
    window = times >= t_cut - 1e-12 * max(1.0, abs(t_cut))
    t_fit, p_fit = times[window], positions[window]
    if t_fit.size < _MIN_FIT_SAMPLES:
        raise InsufficientSamples(
            f"{t_fit.size} samples in the fit window, need {_MIN_FIT_SAMPLES}"
        )
    slope, _, sxx, ssr = _line_fit(t_fit, p_fit)
    if sxx == 0.0:
        raise InsufficientSamples("all fit-window samples share one time")
    dof = t_fit.size - 2
    stderr = float(np.sqrt(max(ssr, 0.0) / (dof * sxx))) if dof > 0 else float("nan")
    return slope, stderr


def decay_fit(z: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Tail decay rate and amplitude from a log-linear fit.

    Fits ln u = ln A - lambda z over the rightmost contiguous stretch where
    u lies strictly inside ``DECAY_WINDOW``; restricting to the rightmost
    stretch keeps small plateau values far behind the front from
    contaminating the tail fit.  The line is ``_line_fit``'s, the
    closed-form fit ``wave_speed`` uses.  Returns (lambda, A).

    Raises:
        WindowTooSmall: fewer than two in-window samples in that stretch.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if z.ndim != 1 or u.shape != z.shape:
        raise ValueError("z and u must be matching 1-D arrays")
    lo, hi = DECAY_WINDOW
    mask = (u > lo) & (u < hi)
    if not mask.any():
        raise WindowTooSmall(
            f"no samples with density in ({lo!r}, {hi!r})"
        )
    # Rightmost maximal run of consecutive in-window samples.
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    start = idx[breaks[-1] + 1] if breaks.size else idx[0]
    run = idx[idx >= start]
    if run.size < 2:
        raise WindowTooSmall("tail window shorter than two samples")
    slope, intercept, _, _ = _line_fit(z[run], np.log(u[run]))
    return -slope, float(np.exp(intercept))


def classify_profile(u: np.ndarray, equilibrium: float) -> ProfileClass:
    """Classify the trailing edge of a rightward-moving front profile.

    The front is located at the rightmost crossing of half the equilibrium.
    Over the region left of the front, the number of sign changes of
    u - equilibrium and the maximal overshoot above the equilibrium decide
    the label: ``Monotone`` needs at most one crossing and overshoot at most
    0.1% of the equilibrium; ``OscillatoryTrailingEdge`` needs at least
    three crossings with overshoot above 1% of the equilibrium; everything
    else is ``Indeterminate``.  Deviations within 1e-8 of the equilibrium
    (relative) sit inside a dead band and cannot produce crossings, so
    solver-precision wiggle around a settled state does not count.

    Raises:
        NoCrossing: if the profile never crosses half the equilibrium.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("u must be a 1-D array")
    return _front_and_class(None, u, equilibrium)[1]


def _front_and_class(x, u: np.ndarray, equilibrium: float) -> tuple[float, ProfileClass]:
    """``front_position(x, u, equilibrium / 2)`` and ``classify_profile(u,
    equilibrium)`` from one crossing search (front NaN when x is None)."""
    if not equilibrium > 0:
        raise ValueError("equilibrium must be positive")
    i, j, t = _rightmost_crossing(u, 0.5 * equilibrium)
    front = np.nan if x is None else float(x[i] + t * (x[j] - x[i]))
    # the front in index coordinates, as front_position on np.arange computes it
    region = u[: int(np.floor(i + t * (j - i))) + 1]
    dev = region - equilibrium
    signs = np.sign(np.where(np.abs(dev) <= 1e-8 * equilibrium, 0.0, dev))
    signs = signs[signs != 0.0]
    crossings = int(np.count_nonzero(np.diff(signs) != 0.0)) if signs.size else 0
    overshoot = float(max(0.0, region.max() - equilibrium)) if region.size else 0.0
    if crossings <= 1 and overshoot <= 1e-3 * equilibrium:
        label = "Monotone"
    elif crossings >= 3 and overshoot > 1e-2 * equilibrium:
        label = "OscillatoryTrailingEdge"
    else:
        label = "Indeterminate"
    return front, ProfileClass(label=label, crossing_count=crossings, overshoot=overshoot)


def _cell(grid: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index i of the grid cell [grid[i], grid[i+1]] holding each p, and the
    fraction (p - grid[i]) / (grid[i+1] - grid[i]); points beyond the ends
    extrapolate from the end cells."""
    i = np.clip(np.searchsorted(grid, p, side="right") - 1, 0, grid.size - 2)
    return i, (p - grid[i]) / (grid[i + 1] - grid[i])


def _bilinear(x, y, u, px, py) -> np.ndarray:
    """Bilinear interpolant of u (shape (len(y), len(x))) at points (px, py)."""
    i, tx = _cell(x, px)
    j, ty = _cell(y, py)
    return (
        u[j, i] * (1 - ty) * (1 - tx)
        + u[j, i + 1] * (1 - ty) * tx
        + u[j + 1, i] * ty * (1 - tx)
        + u[j + 1, i + 1] * ty * tx
    )


def ring_metrics(
    x: np.ndarray,
    y: np.ndarray,
    u: np.ndarray,
    *,
    center: tuple[float, float] = (0.0, 0.0),
    level: float,
    r_max: float | None = None,
) -> tuple[float, float, float]:
    """Ring radii of a planar density field.

    Samples ``u`` on ``_N_RAYS`` equally spaced rays from ``center`` with
    bilinear interpolation, averages azimuthally to a radial profile, and
    returns ``(r_inner, r_peak, r_outer)``: the innermost and outermost
    linear-interpolated crossings of ``level`` and the radius of the maximal
    averaged density.  A filled disk yields one descending crossing, so the
    inner and outer radii coincide there.  ``r_max`` defaults to the largest
    radius whose full circle stays inside the grid.

    Raises:
        NoRing: if the averaged profile never crosses the level.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape != (y.size, x.size):
        raise ValueError("u must have shape (len(y), len(x))")
    cx, cy = center
    if r_max is None:
        r_max = min(cx - x[0], x[-1] - cx, cy - y[0], y[-1] - cy)
    if not r_max > 0:
        raise ValueError("center must lie strictly inside the grid")
    dr = min(np.min(np.diff(x)), np.min(np.diff(y)))
    radii = np.arange(0.0, r_max + dr / 2, dr)
    angles = np.linspace(0.0, 2.0 * np.pi, _N_RAYS, endpoint=False)
    px = cx + np.outer(radii, np.cos(angles))
    py = cy + np.outer(radii, np.sin(angles))
    samples = _bilinear(x, y, u, px, py)
    profile = samples.mean(axis=1)
    d = profile - level
    exact = np.flatnonzero(d == 0.0)
    flips = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    crossings = [float(radii[i]) for i in exact]
    for i in flips:
        t = d[i] / (d[i] - d[i + 1])
        crossings.append(float(radii[i] + t * dr))
    if not crossings:
        raise NoRing(f"azimuthal average never crosses level {level!r}")
    r_peak = float(radii[int(np.argmax(profile))])
    return min(crossings), r_peak, max(crossings)
