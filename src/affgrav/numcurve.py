"""Numerically realized affine-arclength curves and chord-midpoint sampling.

Curves enter either as a prescribed curvature function (integrated with
classical RK4 through ``c''' = -kappa c'``) or as a parametric plot that
gets reparametrized to affine arclength; ``build_curve`` takes either.
Both produce a uniform grid of points together with first and second
derivative frames, normalized so the base point sits at the origin with
frame (e1, e2).

On top of that sit the desk-scale experiments: locating the two chord
intersections at a given height by bisection, collecting the chord
midpoints, and estimating flatness and straightness of the resulting
midpoint curve.

The numeric kernels work on whole arrays.  A parametric plot takes an
array of parameters of any shape and returns x and y arrays of that
shape, so the plot is called once per point set, not once per point; a
curvature function takes an array the same way.  RK4 evaluates -kappa
at every stage abscissa of every step in one call per direction and
then steps through those values in one sequential loop of float
arithmetic, since each step starts from the state the last one left.
Interpolation takes every abscissa in one call.  A single base point
and a sweep share one sampling pass, which bisects the chord roots of
every base point, height and side together in lockstep.  A lane's
midpoints never leave its grid cell, so it reads g and f only through
that cell's four-node window, gathered once for both without a table
search.  The window is stored node-major: for each of its four nodes
the other three and the Lagrange denominator, along leading axes.
Every cubic evaluation, the table interpolation of the
reparametrization included, is then two reductions over those axes: a
product over each node's others for the basis numerator and a sum over
the nodes, both in node order.  Each array kernel performs the same
floating-point operations in the same order as its one-value form, so
results are bit-identical to it;
``tests/_oracles.py`` keeps those forms and the tests compare against
them with ``==``.

Derivatives of a parametric plot come from ``_STENCILS``, one table of
central finite-difference stencils read by ``_fd``, which evaluates all
offsets of a stencil in one plot call.  Values already known at the
nodes serve as the zero-offset term.  No grid holds more than
``MAX_GRID_NODES`` nodes, and a sweep stacks the tables of only as many
base points at once as ``_SWEEP_TABLE`` entries allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .defaults import (
    DEFAULT_DELTA0,
    DEFAULT_DELTA_COUNT,
    DEFAULT_DELTA_RATIO,
    DEFAULT_STEP,
    DEFAULT_TOL_FLAT,
    MIN_FIT_SAMPLES,
    TOL_STRAIGHT_FACTOR,
)
from .errors import BracketingError, DegenerateCurveError, VerificationError

__all__ = [
    "KappaCurveSpec",
    "ParametricCurveSpec",
    "NumCurve",
    "GravitySample",
    "FlatnessResult",
    "integrate_from_kappa",
    "reparametrize_affine",
    "build_curve",
    "renormalize",
    "affine_curvature",
    "gravity_samples",
    "fit_flatness",
    "straightness_test",
    "corollary_sweep",
    "default_deltas",
    "wronskian_drift",
    "DEFAULT_STEP",
    "DEFAULT_TOL_FLAT",
    "TOL_STRAIGHT_FACTOR",
    "MAX_GRID_NODES",
]

ROOT_TOL = 1e-12
KAPPA_SPREAD_TOL = 1e-4
MAX_GRID_NODES = 10**6
# parameter-table nodes of reparametrize_affine; odd, for composite Simpson
TABLE_NODES = 4001

# O(du^4) central stencils, derivative order -> (du, offsets, weights,
# denominator): the derivative is sum(w * c(u + k du)) / denominator,
# summed in offset order.  Steps are kept wide: the white part of the
# roundoff error, eps/du^n from the callable's rounded output, feeds
# node-to-node jitter of the stored frames that the curvature estimator
# later divides by the grid step; truncation stays far below it here.
_STENCILS = {
    1: (2e-3, (-2, -1, 1, 2), (1, -8, 8, -1), 12 * 2e-3),
    2: (1e-2, (-2, -1, 0, 1, 2), (-1, 16, -30, 16, -1), 12 * (1e-2 * 1e-2)),
    3: (1.2e-2, (-3, -2, -1, 1, 2, 3), (1, -8, 13, -13, 8, -1), 8 * (1.2e-2 * 1.2e-2 * 1.2e-2)),
}


@dataclass(frozen=True)
class KappaCurveSpec:
    """Curve given by its affine curvature along arclength.

    ``kappa`` takes a float array of any shape (a float works too) and
    returns kappa at each entry, an array of that shape; a scalar result,
    a constant curvature, broadcasts.  It is evaluated elementwise, so a
    value does not depend on the other entries of the array.
    """

    kappa: Callable[[np.ndarray], np.ndarray | float]
    half_width: float = 1.0


@dataclass(frozen=True)
class ParametricCurveSpec:
    """Curve given as a parametric plot on a parameter interval.

    ``xy`` takes a float array of any shape (a float works too) and
    returns the (x, y) arrays of that shape.  Must be non-degenerate:
    det[c_u, c_uu] > 0 throughout the domain.
    """

    xy: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: tuple[float, float]


@dataclass(frozen=True)
class NumCurve:
    """Affine-arclength curve sampled on a uniform grid.

    ``points[i]`` is the curve at ``grid[i]``; ``d1`` and ``d2`` hold the
    first and second derivative frames.  After normalization the node at
    s = 0 sits at the origin with frame (e1, e2).
    """

    grid: np.ndarray
    points: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    step: float

    def __len__(self) -> int:
        return len(self.grid)

    def index_of(self, s: float) -> int:
        # the range test first: far off the grid the index overflows, at NaN it is undefined
        inside = self.grid[0] - self.step <= s <= self.grid[-1] + self.step
        j = int(round((s - self.grid[0]) / self.step)) if inside else -1
        if not 0 <= j < len(self.grid):
            raise ValueError(f"s={s} outside grid [{self.grid[0]}, {self.grid[-1]}]")
        return j


@dataclass(frozen=True)
class GravitySample:
    """One chord-midpoint measurement at height delta."""

    delta: float
    s_minus: float
    s_plus: float
    midpoint_x: float


@dataclass(frozen=True)
class FlatnessResult:
    """Least-squares view of the midpoint abscissa as a function of height."""

    fit_coeffs: tuple[float, float, float]
    predicted_b: float
    is_flat: bool
    residual: float


def default_deltas(
    delta0: float = DEFAULT_DELTA0,
    ratio: float = DEFAULT_DELTA_RATIO,
    count: int = DEFAULT_DELTA_COUNT,
) -> np.ndarray:
    """Geometric schedule of chord heights."""
    return delta0 * ratio ** np.arange(count)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def wronskian_drift(curve: NumCurve) -> float:
    """Maximum deviation of the frame determinant from 1 over the grid."""
    return float(np.max(np.abs(_cross(curve.d1, curve.d2) - 1.0)))


def _check_grid_size(nodes: float) -> None:
    """Refuse a grid above MAX_GRID_NODES before it is allocated."""
    if not nodes <= MAX_GRID_NODES:  # a NaN or infinite count fails too
        raise ValueError(f"a grid of {nodes:.6g} nodes exceeds MAX_GRID_NODES={MAX_GRID_NODES}")


# -- integration from curvature ---------------------------------------------


def _rk4_steps(neg_kappa: np.ndarray, h: float, state: tuple) -> Iterator[tuple[float, ...]]:
    """The state after each RK4 step of size h from ``state``.

    A state is c, c', c'' as (px, py, ax, ay, bx, by); column i of the
    (3, steps) table ``neg_kappa`` holds -kappa at the step's stage
    abscissae s, s + h/2 and s + h.  Each step starts from the state the
    last one left, so the steps run as one loop of float arithmetic.
    """
    h2, h6 = h / 2, h / 6
    px, py, ax, ay, bx, by = state
    for k1, k23, k4 in zip(*map(memoryview, neg_kappa)):
        # the four RK4 stages of (c, c', c'')' = (c', c'', -kappa c'); (cx, cy) is c'''
        cx1, cy1 = k1 * ax, k1 * ay
        ax2, ay2 = ax + h2 * bx, ay + h2 * by
        bx2, by2 = bx + h2 * cx1, by + h2 * cy1
        cx2, cy2 = k23 * ax2, k23 * ay2
        ax3, ay3 = ax + h2 * bx2, ay + h2 * by2
        bx3, by3 = bx + h2 * cx2, by + h2 * cy2
        cx3, cy3 = k23 * ax3, k23 * ay3
        ax4, ay4 = ax + h * bx3, ay + h * by3
        bx4, by4 = bx + h * cx3, by + h * cy3
        cx4, cy4 = k4 * ax4, k4 * ay4
        px += h6 * (ax + 2 * ax2 + 2 * ax3 + ax4)
        py += h6 * (ay + 2 * ay2 + 2 * ay3 + ay4)
        ax, ay, bx, by = (
            ax + h6 * (bx + 2 * bx2 + 2 * bx3 + bx4),
            ay + h6 * (by + 2 * by2 + 2 * by3 + by4),
            bx + h6 * (cx1 + 2 * cx2 + 2 * cx3 + cx4),
            by + h6 * (cy1 + 2 * cy2 + 2 * cy3 + cy4),
        )
        yield px, py, ax, ay, bx, by


def integrate_from_kappa(spec: KappaCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """Integrate c''' = -kappa c' with RK4 from the normalized frame at 0.

    The state (c, c', c'') starts at ((0,0), e1, e2) and is integrated in
    both directions over [-half_width, half_width] of the spec with fixed
    step.  kappa is called once per direction, on the stage abscissae of
    all steps; a curvature that overflows there gives a non-finite curve
    without a warning, for the caller to refuse (``Config.validate``
    does).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = float(np.rint(spec.half_width / step))  # half to even, as round() does
    _check_grid_size(2 * n + 1)
    n = int(n)
    if n < 1:
        raise ValueError("domain narrower than one step")
    start = (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    halves = []
    for sign in (1, -1):
        h = sign * step
        s = (sign * np.arange(n)) * step
        neg_kappa = np.empty((3, n))
        with np.errstate(over="ignore", invalid="ignore"):
            neg_kappa[...] = -spec.kappa(np.stack([s, s + h / 2, s + h]))
        steps = chain.from_iterable(_rk4_steps(neg_kappa, h, start))
        halves.append(np.fromiter(steps, float, count=6 * n).reshape(n, 6))
    states = np.concatenate([halves[1][::-1], [start], halves[0]])

    grid = np.arange(-n, n + 1) * step
    return NumCurve(
        grid=grid, points=states[:, 0:2], d1=states[:, 2:4], d2=states[:, 4:6], step=step
    )


# -- reparametrization of parametric curves -------------------------------------


def _fd(fn, us: np.ndarray, order: int, at_us: np.ndarray | None = None) -> np.ndarray:
    """Derivative of the given order of fn at each u, by its ``_STENCILS``
    row; ``at_us`` is fn at us when the caller already has it.  All
    offsets the stencil needs are evaluated in one call on a stacked
    (offsets, len(us)) abscissa array."""
    du, offsets, weights, denominator = _STENCILS[order]
    needed = [k for k in offsets if k or at_us is None]
    xs, ys = fn(np.stack([us + k * du if k else us for k in needed]))
    rows = zip(xs, ys)
    tx = ty = None
    for k, w in zip(offsets, weights):
        x, y = at_us.T if at_us is not None and not k else next(rows)
        tx, ty = (w * x, w * y) if tx is None else (tx + w * x, ty + w * y)
    return np.stack([tx, ty], axis=-1) / denominator


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, O(dx^4), len(y) odd."""
    out = np.empty(len(y))
    panels = dx * (y[:-2:2] + 4 * y[1:-1:2] + y[2::2]) / 3
    out[0::2] = np.add.accumulate(np.concatenate(([0.0], panels)))
    # quadratic through the surrounding three nodes, first half only
    out[1::2] = out[:-1:2] + dx * (5 * y[:-1:2] + 8 * y[1::2] - y[2::2]) / 12
    return out


# For each of the four window nodes j, the other three in ascending order.
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
# Abscissae per table interpolation and lanes per sweep chunk; bounds the (4, 3, ...) temporaries.
_BLOCK = 256
# Entries per stacked (points, nodes) table of a sweep; bounds how many
# base points are solved at once.
_SWEEP_TABLE = 2**16


def _interp_table(xs: np.ndarray, ys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of one sorted table at each abscissa
    of a 1-D ``x``, ``_BLOCK`` abscissae at a time.  Each uses the four
    nodes around it, clamped to the table ends, through ``_lagrange``, so
    a value equals the one-abscissa evaluation bit for bit."""
    x = np.asarray(x, dtype=float)
    if len(x) > _BLOCK:
        blocks = range(0, len(x), _BLOCK)
        return np.concatenate([_interp_table(xs, ys, x[i : i + _BLOCK]) for i in blocks])
    return _lagrange(*_windows(xs[None], np.searchsorted(xs, x)[None], ys[None]), x[None])[0]


def _windows(xs: np.ndarray, found: np.ndarray, *tables: np.ndarray) -> tuple:
    """The four-node window of each abscissa in its row's grid, the nodes
    found - 2 to found + 1 clamped to the grid ends (``found`` as
    ``searchsorted`` gives it), gathered once for all ``tables`` on that
    grid.  Returns the window (others, den), node-major: for each node j
    the other three nodes, shape (4, 3, *found.shape), and the Lagrange
    denominator, one product over them in node order; then each table's
    values at the nodes, shape (4, *found.shape)."""
    if xs.shape[1] < 4:
        raise ValueError("cubic interpolation needs a table of at least 4 nodes")
    start = np.minimum(np.maximum(found - 2, 0), xs.shape[1] - 4)
    row = np.arange(len(xs))[:, None]
    window = start + np.arange(4)[:, None, None]
    nodes = xs[row, window]
    others = nodes[_OTHERS]
    den = np.multiply.reduce(nodes[:, None] - others, axis=1)
    return (others, den), *(ys[row, window] for ys in tables)


def _lagrange(window: tuple, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange value at each abscissa from its window and one
    table's ``values`` there (``_windows``): two reductions over the
    node-major axes, each basis numerator a product over the node's
    others and the sum over the nodes, both in node order from 0.0."""
    others, den = window
    num = np.multiply.reduce(x - others, axis=1)
    return np.add.reduce(values * (num / den), axis=0, initial=0.0)


@np.errstate(over="ignore", invalid="ignore")
def reparametrize_affine(spec: ParametricCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """Resample a parametric curve by affine arclength.

    The arclength element is det[c_u, c_uu]^(1/3); its integral is
    accumulated with composite Simpson over ``TABLE_NODES`` parameter
    nodes, inverted monotonically, and the curve resampled on a uniform
    grid.  Frames come from the chain rule on finite-difference
    derivatives of the plot.  The node nearest the middle of the
    parameter interval becomes the normalized base point.

    A plot whose det[c_u, c_uu] overflows is refused as too large; an
    arclength too long for the step fails the grid-size check, and the
    caller refuses non-finite points or frames (``Config.validate`` does).
    """
    u0, u1 = spec.domain
    if not u1 > u0:
        raise ValueError("empty parameter domain")
    us = np.linspace(u0, u1, TABLE_NODES)
    det = _cross(_fd(spec.xy, us, 1), _fd(spec.xy, us, 2))
    top = float(np.abs(det).max())
    if top < np.finfo(float).tiny:  # too small to tell from degeneracy
        raise ValueError(f"plot too small: max |det[c_u, c_uu]| = {top:.4g} underflows")
    if not np.isfinite(top):
        raise ValueError(f"plot too large: max |det[c_u, c_uu]| = {top:.4g} overflows")
    bad = np.nonzero(det <= 0)[0]
    if bad.size:
        j = int(bad[0])
        raise DegenerateCurveError(float(us[j]), float(det[j]))
    sigma = _cumulative_simpson(det ** (1.0 / 3.0), float(us[1] - us[0]))
    iref = int(np.argmin(np.abs(us - (u0 + u1) / 2)))
    sigma -= sigma[iref]

    n_neg = np.floor(-sigma[0] / step) - 1
    n_pos = np.floor(sigma[-1] / step) - 1
    _check_grid_size(n_neg + n_pos + 1)
    n_neg, n_pos = int(n_neg), int(n_pos)
    if n_neg < 1 or n_pos < 1:
        raise ValueError("parameter domain too short for the requested grid step")
    grid = np.arange(-n_neg, n_pos + 1) * step

    u_of_s = _interp_table(sigma, us, grid)
    u_of_s[n_neg] = us[iref]  # base node is a table node; keep it exact

    pts = np.stack(spec.xy(u_of_s), axis=-1)
    c1 = _fd(spec.xy, u_of_s, 1)
    c2 = _fd(spec.xy, u_of_s, 2, at_us=pts)
    c3 = _fd(spec.xy, u_of_s, 3)
    z = _cross(c1, c2)
    zp = _cross(c1, c3)
    d1 = c1 * (z ** (-1.0 / 3.0))[:, None]
    d2 = c2 * (z ** (-2.0 / 3.0))[:, None] - c1 * (zp / 3.0 * z ** (-5.0 / 3.0))[:, None]

    raw = NumCurve(grid=grid, points=pts, d1=d1, d2=d2, step=step)
    return renormalize(raw, 0.0)


def build_curve(spec: KappaCurveSpec | ParametricCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """The normalized curve of either spec: RK4 from a curvature, affine
    reparametrization of a plot."""
    if isinstance(spec, KappaCurveSpec):
        return integrate_from_kappa(spec, step=step)
    return reparametrize_affine(spec, step=step)


def _affine_map(curve: NumCurve, p: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The map that ``renormalize`` applies at p: the grid node j nearest
    p, the origin c(s_j) and the transposed inverse frame inv_t, so that a
    point x maps to (x - origin) @ inv_t and a frame vector v to v @ inv_t.
    """
    j = curve.index_of(p)
    frame = np.column_stack([curve.d1[j], curve.d2[j]])
    return j, curve.points[j], np.linalg.inv(frame).T


def renormalize(curve: NumCurve, p: float) -> NumCurve:
    """Affinely move the base point to the grid node nearest p.

    The affine map sends (c(p), c'(p), c''(p)) to ((0,0), e1, e2); grid
    values shift so the base point reads s = 0.
    """
    j, origin, inv_t = _affine_map(curve, p)
    return NumCurve(
        grid=curve.grid - curve.grid[j],
        points=(curve.points - origin) @ inv_t,
        d1=curve.d1 @ inv_t,
        d2=curve.d2 @ inv_t,
        step=curve.step,
    )


# -- curvature and chords -----------------------------------------------------


def affine_curvature(curve: NumCurve, s: float) -> float:
    """det[c'', c'''] with c''' by central differences; error O(step^2)."""
    n = len(curve.grid)
    # the range test first: far off the grid the index overflows, at NaN it is undefined
    inside = curve.grid[0] <= s <= curve.grid[-1]
    i = int(np.floor((s - curve.grid[0]) / curve.step)) if inside else 0
    if not 1 <= i <= n - 3:
        raise ValueError(f"s={s} too close to the grid boundary")

    def node_kappa(j: int) -> float:
        c3 = (curve.d2[j + 1] - curve.d2[j - 1]) / (2 * curve.step)
        return float(_cross(curve.d2[j], c3))

    k0, k1 = node_kappa(i), node_kappa(i + 1)
    frac = (s - curve.grid[i]) / curve.step
    return (1 - frac) * k0 + frac * k1


def _first_reach(g_out: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per height, the offset of the first node of g_out with g >= delta;
    len(g_out) where none does.  A NaN node never reaches a height."""
    reach = np.maximum.accumulate(np.where(np.isnan(g_out), -np.inf, g_out))
    return np.searchsorted(reach, deltas)


def _chord_roots(
    grids: np.ndarray, gs: np.ndarray, fs: np.ndarray, centers: Sequence[int], deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of g(s) = delta right and left of each base point and f at
    them, for all base points, heights and sides in one pass.

    Row r holds the grid, g and f of a curve normalized at its base node
    ``centers[r]``; its lanes are ordered (right, left) per height.  Each
    lane walks outward from the base node to the first node with
    g >= delta, then bisects the cubic interpolant of g over that grid
    cell to bracket collapse, reading g and then f through the cell's
    one window.  All lanes bisect in lockstep; a lane stops on an exact
    zero, on a midpoint that no longer moves, or on a collapsed bracket.
    Returns the (rows, lanes) roots, a mask of the lanes that found none
    (a NaN residual included) and f at each root.
    """
    outer = np.empty((len(gs), 2 * len(deltas)), dtype=np.intp)
    for r, (g, center) in enumerate(zip(gs, centers)):
        outer[r, 0::2] = center + 1 + _first_reach(g[center + 1 :], deltas)
        outer[r, 1::2] = center - 1 - _first_reach(g[:center][::-1], deltas)
    inner = outer - np.tile([1, -1], len(deltas))
    delta = np.repeat(deltas, 2)
    failed = (outer < 0) | (outer >= gs.shape[1])
    center = np.asarray(centers)[:, None]
    outer = np.where(failed, center, outer)
    inner = np.where(failed, center, inner)

    # A lane reads g only through the window of its cell [grid[j],
    # grid[j + 1]], j = min(inner, outer).  At a window node every other
    # basis numerator is 0 and the node's own is the same float product as
    # its denominator, so the window gives the node's g exactly: the ends
    # are read off the table.  That needs finite values and nonzero
    # denominators; these are at least 2 step^3, 0 only for a step below
    # ~1e-108, a curve the command line refuses as not finite.
    row = np.arange(len(gs))[:, None]
    lo, hi = grids[row, inner], grids[row, outer]
    flo, fhi = gs[row, inner] - delta, gs[row, outer] - delta
    at_lo = ~failed & (flo == 0.0)
    at_hi = ~failed & ~at_lo & (fhi == 0.0)
    neg_lo = flo < 0  # the sign of g - delta at lo never changes while bisecting
    failed |= ~at_lo & ~at_hi & (neg_lo == (fhi < 0))
    bisect = ~(failed | at_lo | at_hi)
    cell = np.minimum(inner, outer)
    window, g_values, f_values = _windows(grids, cell + 1, gs, fs)

    # bisect to bracket collapse; this lands far inside the |g - delta|
    # tolerance and keeps the root itself accurate to machine precision.
    # A lane stops once its midpoint no longer moves or its bracket is at
    # most 1e-17 max(1, |mid|) wide.  The old midpoint is a bracket end, so
    # for |mid| > 1 a bracket of nonzero width spans at least the float
    # spacing at mid, 2^-54 |mid| or more: the constant 1e-17 decides the
    # same.  lo, hi and mid stay finite, so > negates <=.
    mid = 0.5 * (lo + hi)
    active = bisect.copy()
    for _ in range(200):
        if not active.any():
            break
        fm = _lagrange(window, g_values, mid) - delta
        active &= fm != 0.0
        to_lo = active & ((fm < 0) == neg_lo)
        np.copyto(lo, mid, where=to_lo)
        np.copyto(hi, mid, where=active ^ to_lo)
        nxt = 0.5 * (lo + hi)
        active &= (nxt != mid) & (np.abs(hi - lo) > 1e-17)
        np.copyto(mid, nxt, where=active)
    residual = np.abs(_lagrange(window, g_values, mid) - delta)
    failed |= bisect & ~(residual <= ROOT_TOL)  # a NaN residual fails too
    roots = np.where(at_lo, lo, np.where(at_hi, hi, mid))
    return roots, failed, _lagrange(window, f_values, roots)


def _samples_per_row(
    grids: np.ndarray,
    gs: np.ndarray,
    fs: np.ndarray,
    centers: Sequence[int],
    deltas: Sequence[float],
) -> Iterator[list[GravitySample]]:
    """The chord-midpoint samples of each row's normalized curve, in order.

    Row r holds the grid, the vertical component g and the horizontal
    component f of a curve normalized at its base node ``centers[r]``;
    all rows share one ``_chord_roots`` pass, one window per lane; a row
    raises its first error, in height order, after earlier rows yield.
    """
    deltas = np.asarray(deltas, dtype=float)
    nonpositive = np.flatnonzero(deltas <= 0)
    heights = deltas[: nonpositive[0]] if nonpositive.size else deltas
    roots, failed, f_at = _chord_roots(grids, gs, fs, centers, heights)
    midpoint_x = 0.5 * (f_at[:, 1::2] + f_at[:, 0::2])
    for lanes, r, m in zip(failed, roots, midpoint_x):
        if lanes.any():
            lane = int(np.flatnonzero(lanes)[0])
            raise BracketingError(float(heights[lane // 2]), ("right", "left")[lane % 2])
        if nonpositive.size:
            raise ValueError("chord height must be positive")
        yield [
            GravitySample(delta=d, s_minus=sm, s_plus=sp, midpoint_x=x)
            for d, sm, sp, x in zip(
                heights.tolist(), r[1::2].tolist(), r[0::2].tolist(), m.tolist()
            )
        ]


def gravity_samples(curve: NumCurve, p: float, deltas: Sequence[float]) -> list[GravitySample]:
    """Chord-midpoint samples at the given heights: the sweep's pass for p.

    The curve is renormalized at the grid node nearest p.  Each height
    line is intersected with it on both sides of the base point; roots
    are located by bisection on the cubic interpolant of the vertical
    component, midpoints from the cubic interpolant of the horizontal
    component.  A p off the grid raises ValueError; then errors follow
    height order, right side before left: a missing root raises
    BracketingError, a height <= 0 ValueError.
    """
    return next(_sweep_samples(curve, [p], deltas))


def _sweep_samples(
    curve: NumCurve, base_points: Sequence[float], deltas: Sequence[float]
) -> Iterator[list[GravitySample]]:
    """The chord-midpoint samples of the curve renormalized at each base
    point, in order.

    Only the grid and the points of each renormalized curve are mapped;
    the chord roots read nothing else.  Base points are solved a chunk at
    a time, each chunk in one pass.  A chunk stacks at most
    ``_SWEEP_TABLE`` entries per table and, beyond one point, at most
    ``_BLOCK`` lanes.  An error surfaces at the base point where a loop
    over the points would have raised it.
    """
    n = len(curve)
    size = max(1, min(_BLOCK // (2 * max(1, len(deltas))), _SWEEP_TABLE // n))
    grids, gs, fs = (np.empty((min(size, len(base_points)), n)) for _ in range(3))
    for i in range(0, len(base_points), size):
        centers, error = [], None
        for r, p in enumerate(base_points[i : i + size]):
            try:
                j, origin, inv_t = _affine_map(curve, p)
            except ValueError as exc:  # LinAlgError is one too
                error = exc
                break
            points = (curve.points - origin) @ inv_t
            grids[r], gs[r], fs[r] = curve.grid - curve.grid[j], points[:, 1], points[:, 0]
            centers.append(j)  # the zero of the shifted uniform grid
        done = len(centers)
        if done:
            yield from _samples_per_row(grids[:done], gs[:done], fs[:done], centers, deltas)
        if error is not None:
            raise error


# -- verdicts ------------------------------------------------------------------


def fit_flatness(
    samples: Sequence[GravitySample],
    kappa_prime_p: float,
    tol_flat: float = DEFAULT_TOL_FLAT,
) -> FlatnessResult:
    """Fit midpoint_x(delta) = a delta + b delta^2 + c delta^3.

    The quadratic coefficient estimates the quartic coefficient of the
    underlying expansion, predicted as -kappa'(p)/10; a mismatch beyond
    max(1e-3, 5%) raises VerificationError.
    """
    if len(samples) < MIN_FIT_SAMPLES:
        raise ValueError(f"flatness fit needs at least {MIN_FIT_SAMPLES} samples")
    deltas = np.array([s.delta for s in samples])
    xs = np.array([s.midpoint_x for s in samples])
    design = np.column_stack([deltas, deltas**2, deltas**3])
    coef, _, rank, _ = np.linalg.lstsq(design, xs, rcond=None)
    if rank < 3:
        top = deltas.max()
        lost = [f"delta^{k}" for k in (2, 3) if top**k < np.finfo(float).tiny]
        if lost:
            raise ValueError(
                f"rank-deficient flatness fit: {' and '.join(lost)} underflow"
                f" at heights up to {top:.3g}; raise the heights"
            )
        raise ValueError("rank-deficient flatness fit; spread the heights wider or raise them")
    a, b, c = (float(t) for t in coef)
    predicted = -kappa_prime_p / 10.0
    if abs(b - predicted) > max(1e-3, 0.05 * abs(predicted)):
        raise VerificationError(
            "flatness.prediction", f"fitted b={b:.6g}, predicted {predicted:.6g}"
        )
    residual = float(np.sqrt(np.mean((design @ coef - xs) ** 2)))
    return FlatnessResult(
        fit_coeffs=(a, b, c),
        predicted_b=predicted,
        is_flat=abs(b) <= tol_flat,
        residual=residual,
    )


def straightness_test(
    samples: Sequence[GravitySample],
    tol_straight: float | None = None,
) -> tuple[float, bool]:
    """Maximum midpoint deviation and whether it stays within tolerance."""
    if not samples:
        raise ValueError("no samples")
    max_dev = float(max(abs(s.midpoint_x) for s in samples))
    if tol_straight is None:
        tol_straight = TOL_STRAIGHT_FACTOR * max(s.delta for s in samples)
    return max_dev, max_dev <= tol_straight


def corollary_sweep(
    curve: NumCurve,
    base_points: Sequence[float],
    deltas: Sequence[float] | None = None,
    tol_straight: float | None = None,
    rows: list | None = None,
) -> bool:
    """Straightness at every base point, cross-checked against constant
    curvature.

    Returns True when the midpoint curve is straight at all base points.
    The verdict must agree with numerical constancy of the curvature
    over the same points; disagreement raises VerificationError.  Each
    base point is renormalized once and the chord roots of all base
    points, heights and sides are found in one pass (a chunk of points
    at a time for large sweeps); when ``rows`` is a list, the sweep
    appends one ``(point, max_dev, is_straight)`` tuple per base point
    to it.  Errors are raised as a loop of ``gravity_samples`` over the
    points would raise them.
    """
    if deltas is None:
        deltas = default_deltas()
    base_points = list(base_points)
    all_straight = True
    kappas = []
    for p, samples in zip(base_points, _sweep_samples(curve, base_points, deltas)):
        dev, ok = straightness_test(samples, tol_straight)
        if rows is not None:
            rows.append((p, dev, bool(ok)))
        all_straight = all_straight and ok
        kappas.append(affine_curvature(curve, p))
    spread = max(kappas) - min(kappas)
    scale = max(1.0, abs(float(np.mean(kappas))))
    kappa_constant = spread <= KAPPA_SPREAD_TOL * scale
    if kappa_constant != all_straight:
        raise VerificationError(
            "corollary.cross_check",
            f"straight everywhere={all_straight} but curvature spread={spread:.3g}",
        )
    return all_straight
