"""Numerically realized affine-arclength curves and chord-midpoint sampling.

Curves enter either as a prescribed curvature function (integrated with
classical RK4 through ``c''' = -kappa c'``) or as a parametric plot that
gets reparametrized to affine arclength; ``build_curve`` takes either.
Both produce a uniform grid of points together with first and second
derivative frames, normalized so the base point sits at the origin with
frame (e1, e2).

On top of that sit the desk-scale experiments: locating the two chord
intersections at a given height by safeguarded Newton on the cubic
interpolant, collecting the chord midpoints, and estimating flatness
and straightness of the resulting midpoint curve.

The numeric kernels work on whole arrays.  A parametric plot's jet
takes an array of parameters of any shape and returns its (x, y) pairs
as arrays of that shape, so it is called once per point set, not once
per point; a curvature function takes an array the same way.  RK4 evaluates -kappa
at every stage abscissa of every step in one call per direction.  The
system (c', c'')' = (c'', -kappa c') is linear, so one step is a 2x2
map of the frame and a linear increment of c, whose entries depend on
the step's three curvature values alone; one array pass forms them for
every step (``_transfer``).  The frame then goes through those maps in
one sequential loop of float arithmetic, since each step starts from
the frame the last one left.  The positions c never feed back into the
frame; their increments are one array product per step afterwards,
summed in step order by one accumulate.  The transfer form is the
stage form's step exactly over the rationals and differs from it in
floats by rounding only (``tests/_oracles.py`` keeps both).
Interpolation takes every abscissa in one call.  A single base point
(``gravity_samples``) and a sweep (``corollary_sweep``) share one
sampler, ``_sweep_samples``.  It checks the whole request first, the
heights and every base point's map, so a refused request solves no
root; then it solves for the chord roots of every base point of a
chunk, height and side together in lockstep (``_chord_roots``), each
lane by safeguarded Newton on its cell's cubic.  A lane's iterates
never leave its grid cell, so it reads g, its slope and f only through
that cell's four-node window, gathered once for all without a table
search.  The window is stored node-major: for each of its four nodes
(``_window_nodes``) the other three and the Lagrange denominator
(``_basis``), along leading axes.  Every cubic evaluation
(``_lagrange``), the table interpolation of the reparametrization
included, is then two reductions over those axes: a product over each
node's others for the basis numerator and a sum over the nodes, both
in node order.  Each array kernel performs the same
floating-point operations in the same order as its one-value form, so
results are bit-identical to it;
``tests/_oracles.py`` keeps those forms and the tests compare against
them with ``==``.

The numeric path calls no BLAS or LAPACK kernel.  The renormalizing
map inverts its 2x2 frame in closed form and applies it one value at a
time (``_affine_map``, ``_mapped``), and the flatness fit solves its
three-column least squares by Householder QR in Python floats.  A BLAS
matrix product picks an FMA kernel by CPU, so its bits, and every
output downstream, would differ between machines; its first call also
maps a work buffer of a few MB, for matrices of two or three columns.
As a mapped value depends on its own node alone, a sweep maps g along
each row, for the walk to the first node of each height, and maps the
grid and f only at the four window nodes of each lane.  Nor do the
heights go through numpy's ``power``, whose AVX-512 loop is not libm's
``pow``: the schedule is formed in Python floats and the fit's powers
of delta by multiplication.

A parametric plot comes with its exact derivatives: its jet returns
the point and the first three derivatives together, and
reparametrization calls it twice, once on the parameter table and once
on the grid.  No grid holds more than ``MAX_GRID_NODES`` nodes, and a
sweep stacks the g rows of only as many base points at once as
``_SWEEP_TABLE`` entries allow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

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

    ``jet`` takes a float array of any shape (a float works too) and
    returns the four (x, y) pairs c, c_u, c_uu and c_uuu, each entry an
    array of that shape; a float entry, a constant, broadcasts.  It is
    evaluated elementwise.  Must be non-degenerate: det[c_u, c_uu] > 0
    throughout the domain.
    """

    jet: Callable[[np.ndarray], tuple[tuple[np.ndarray, np.ndarray], ...]]
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


class GravitySample(NamedTuple):
    """One chord-midpoint measurement at height delta.

    The field names, in order, are the columns of ``gravity``'s samples
    table in JSON and CSV.
    """

    delta: float
    s_minus: float
    s_plus: float
    midpoint_x: float


class FlatnessResult(NamedTuple):
    """Least-squares view of the midpoint abscissa as a function of height.

    The field names are the fit's keys in ``gravity``'s single-point JSON.
    """

    fit_coeffs: tuple[float, float, float]
    predicted_b: float
    is_flat: bool
    fit_residual: float


def default_deltas(
    delta0: float = DEFAULT_DELTA0,
    ratio: float = DEFAULT_DELTA_RATIO,
    count: int = DEFAULT_DELTA_COUNT,
) -> np.ndarray:
    """Geometric schedule of chord heights, delta0 * ratio**k in Python
    floats, as ``Config.validate`` computes the top one."""
    return np.array([delta0 * ratio**k for k in range(count)])


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


def _transfer(n1, n23, n4, h):
    """The RK4 step of size h as a map of (c', c''), and c's increment.

    ``n1``, ``n23`` and ``n4`` are -kappa at the step's stage abscissae
    s, s + h/2 and s + h.  One classical RK4 step of the linear system
    (c', c'')' = (c'', -kappa c') sends a frame vector (a, b) to
    (a + e00 a + m01 b, b + m10 a + e11 b) and moves c by p0 a + p1 b;
    returns (e00, m01, m10, e11, p0, p1).  The map is held as M - I, so
    its diagonal keeps the bits of its O(h^2) part instead of rounding
    1 + O(h^2) alike on every step.  Plain elementwise arithmetic: it
    takes floats, arrays or Fractions.
    """
    h6, q = h / 6, h * h
    hh6 = h6 * h
    return (
        hh6 * (n1 + 2 * n23 + q / 4 * n1 * n23),
        h6 * (6 + q * n23),
        h6 * (n1 + 4 * n23 + n4 + q / 2 * n23 * (n1 + n4)),
        hh6 * (2 * n23 + n4 * (1 + q / 4 * n23)),
        h6 * (6 + q / 2 * (n1 + n23)),
        hh6 * (3 + q / 4 * n23),
    )


def _frame_steps(maps: Sequence[np.ndarray], frame: tuple) -> Iterator[float]:
    """The frame after each step from ``frame``, flat.

    A frame is c', c'' as (ax, ay, bx, by); entry i of the four arrays
    ``maps`` holds step i's e00, m01, m10 and e11 of ``_transfer``.
    Each step starts from the frame the last one left, so the steps run
    as one loop of float arithmetic, 16 operations each.  Each component
    is yielded on its own, which costs less than building a tuple per
    step.
    """
    ax, ay, bx, by = frame
    for e00, m01, m10, e11 in zip(*map(memoryview, maps)):
        ax, bx = ax + (e00 * ax + m01 * bx), bx + (m10 * ax + e11 * bx)
        ay, by = ay + (e00 * ay + m01 * by), by + (m10 * ay + e11 * by)
        yield ax
        yield ay
        yield bx
        yield by


def integrate_from_kappa(spec: KappaCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """Integrate c''' = -kappa c' with RK4 from the normalized frame at 0.

    The state (c, c', c'') starts at ((0,0), e1, e2) and is integrated in
    both directions over [-half_width, half_width] of the spec with fixed
    step.  kappa is called once per direction, on the stage abscissae of
    all steps, and one array pass turns those values into each step's
    transfer map (``_transfer``).  The sequential loop carries only the
    frame (c', c'') through those maps; the positions of each direction
    are one product per step, p0 c' + p1 c'', summed after it in step
    order by one accumulate.  A curvature that overflows gives a
    non-finite curve without a warning, for the caller to refuse
    (``Config.validate`` does).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = float(np.rint(spec.half_width / step))  # half to even, as round() does
    _check_grid_size(2 * n + 1)
    n = int(n)
    if n < 1:
        raise ValueError("domain narrower than one step")
    start = (1.0, 0.0, 0.0, 1.0)
    frames = np.empty((2 * n + 1, 4))
    points = np.empty((2 * n + 1, 2))
    frames[n] = start
    neg_kappa = np.empty((3, n))
    with np.errstate(over="ignore", invalid="ignore"):
        # each direction's nodes from s = 0 outwards
        for sign, nodes in ((1, slice(n, None)), (-1, slice(n, None, -1))):
            h = sign * step
            s = (sign * np.arange(n)) * step
            neg_kappa[...] = -spec.kappa(np.stack([s, s + h / 2, s + h]))
            *maps, p0, p1 = _transfer(*neg_kappa, h)
            steps = _frame_steps(maps, start)
            frames[nodes][1:] = np.fromiter(steps, float, count=4 * n).reshape(n, 4)
            # components first, so that each array operation runs along the steps
            a, b = frames[nodes][:-1].T.copy().reshape(2, 2, -1)
            increments = np.zeros((2, n + 1))
            increments[:, 1:] = p0 * a + p1 * b
            points[nodes] = np.add.accumulate(increments, axis=1, out=increments).T

    grid = np.arange(-n, n + 1) * step
    return NumCurve(grid=grid, points=points, d1=frames[:, :2], d2=frames[:, 2:], step=step)


# -- reparametrization of parametric curves -------------------------------------


def _jet_pairs(jet, us: np.ndarray) -> np.ndarray:
    """The jet's pairs c, c_u, c_uu, c_uuu at each u of a 1-D ``us``, as
    one (4, len(us), 2) array, from one call."""
    out = np.empty((4, len(us), 2))
    for pair, (x, y) in zip(out, jet(us)):
        pair[:, 0] = x
        pair[:, 1] = y
    return out


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
# Entries of a sweep's stacked (points, nodes) table of g; bounds how many
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
    nodes = _window_nodes(np.searchsorted(xs, x), len(xs))
    return _lagrange(_basis(xs[nodes]), ys[nodes], x)


def _window_nodes(found: np.ndarray, n: int) -> np.ndarray:
    """The indices of the nodes found - 2 to found + 1 of each abscissa
    of ``found``, an array of any shape as ``searchsorted`` gives it,
    clamped to the ends of a grid of n nodes, node-major: shape
    (4, *found.shape)."""
    if n < 4:
        raise ValueError("cubic interpolation needs a table of at least 4 nodes")
    start = np.minimum(np.maximum(found - 2, 0), n - 4)
    return start + np.arange(4).reshape(4, *(1,) * start.ndim)


def _basis(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Lagrange window (others, den) of four node values along the
    leading axis of ``nodes``: for each node j the other three, shape
    (4, 3, ...), and the denominator, one product over them in node
    order."""
    others = nodes[_OTHERS]
    return others, np.multiply.reduce(nodes[:, None] - others, axis=1)


def _lagrange(window: tuple, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange value at each abscissa from its window (``_basis``)
    and one table's ``values`` at the window's nodes (``_window_nodes``):
    two reductions over the node-major axes, each basis numerator a
    product over the node's others and the sum over the nodes, both in
    node order from 0.0."""
    others, den = window
    num = np.multiply.reduce(x - others, axis=1)
    return np.add.reduce(values * (num / den), axis=0, initial=0.0)


@np.errstate(over="ignore", invalid="ignore")
def reparametrize_affine(spec: ParametricCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """Resample a parametric curve by affine arclength.

    The arclength element is det[c_u, c_uu]^(1/3); its integral is
    accumulated with composite Simpson over ``TABLE_NODES`` parameter
    nodes, inverted monotonically, and the curve resampled on a uniform
    grid.  Frames come from the chain rule on the plot's exact
    derivatives.  The jet is called twice: on the parameter table for
    det[c_u, c_uu], and on the grid for the points and frames.  The node
    nearest the middle of the parameter interval becomes the normalized
    base point.

    A plot whose det[c_u, c_uu] overflows is refused as too large; an
    arclength too long for the step fails the grid-size check, and the
    caller refuses non-finite points or frames (``Config.validate`` does).
    """
    u0, u1 = spec.domain
    if not u1 > u0:
        raise ValueError("empty parameter domain")
    us = np.linspace(u0, u1, TABLE_NODES)
    det = _cross(*_jet_pairs(spec.jet, us)[1:3])  # the table's jets end here
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

    return renormalize(NumCurve(grid, *_affine_frames(spec.jet, u_of_s), step), 0.0)


def _affine_frames(jet, us: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of a plot at the parameters ``us`` and its affine
    arclength frames d1, d2 there, by the chain rule on its exact
    derivatives."""
    pts, c1, c2, c3 = _jet_pairs(jet, us)
    z = _cross(c1, c2)
    zp = _cross(c1, c3)
    d1 = c1 * (z ** (-1.0 / 3.0))[:, None]
    d2 = c2 * (z ** (-2.0 / 3.0))[:, None] - c1 * (zp / 3.0 * z ** (-5.0 / 3.0))[:, None]
    return pts, d1, d2


def build_curve(spec: KappaCurveSpec | ParametricCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """The normalized curve of either spec: RK4 from a curvature, affine
    reparametrization of a plot."""
    if isinstance(spec, KappaCurveSpec):
        return integrate_from_kappa(spec, step=step)
    return reparametrize_affine(spec, step=step)


def _affine_map(curve: NumCurve, p: float) -> tuple[int, tuple, tuple]:
    """The map that ``renormalize`` applies at p: the grid node j nearest
    p, the origin c(s_j) and the two columns of the transposed inverse
    frame, all Python floats.  For the frame c'(s_j) = (ax, ay), c''(s_j)
    = (bx, by) of determinant det that matrix is (1/det) [[by, -ay],
    [-bx, ax]], each entry one division by det.  A point x maps to the row
    vector x - origin times it, a frame vector v to v times it, one
    component per column by ``_mapped``.  A singular frame raises
    ValueError.
    """
    j = curve.index_of(p)
    ax, ay = curve.d1[j].tolist()
    bx, by = curve.d2[j].tolist()
    det = ax * by - bx * ay
    if det == 0.0:
        raise ValueError(f"singular frame at s={curve.grid[j]}")
    columns = ((by / det, -bx / det), (-ay / det, ax / det))
    return j, tuple(curve.points[j].tolist()), columns


def _mapped(x, y, column: tuple[float, float]):
    """One component of the mapped vectors (x, y): x * column[0] + y *
    column[1], each value from its own x and y only."""
    return x * column[0] + y * column[1]


def _image(x: np.ndarray, y: np.ndarray, columns: tuple) -> np.ndarray:
    """The (len(x), 2) images of the vectors (x, y), by ``_mapped``."""
    return np.column_stack([_mapped(x, y, column) for column in columns])


def renormalize(curve: NumCurve, p: float) -> NumCurve:
    """Affinely move the base point to the grid node nearest p.

    The affine map sends (c(p), c'(p), c''(p)) to ((0,0), e1, e2); grid
    values shift so the base point reads s = 0.
    """
    j, (ox, oy), columns = _affine_map(curve, p)
    return NumCurve(
        grid=curve.grid - curve.grid[j],
        points=_image(curve.points[:, 0] - ox, curve.points[:, 1] - oy, columns),
        d1=_image(*curve.d1.T, columns),
        d2=_image(*curve.d2.T, columns),
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
    curve: NumCurve, maps: Sequence[tuple], deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of g(s) = delta right and left of each base point and f at
    them, for all base points, heights and sides in one pass.

    Row r is the curve renormalized by ``maps[r]`` (``_affine_map``) at
    its base node j: its g is that map applied along the whole grid, and
    its grid is ``curve.grid`` shifted by grid[j].  Its lanes are ordered
    (right, left) per height.
    Each lane walks outward from the base node to the first node with
    g >= delta, then solves g = delta on the cubic interpolant of g over
    that grid cell by safeguarded Newton, reading g, its slope and then
    f through the cell's one window.  The grid shift and f are computed
    at the window's nodes only; as each value depends on its own node
    alone, they equal the shifted grid and the mapped points' row there.
    All lanes iterate in lockstep, 3 times at the default heights; the
    roots lie within 4 ulp of bisection's (``tests/_oracles.py`` keeps
    both).  Returns the (rows, lanes) roots, a mask of the lanes that
    found none (a NaN residual included) and f at each root.
    """
    px, py = curve.points.T
    gs = np.array([_mapped(px - ox, py - oy, g_column) for _, (ox, oy), (_, g_column) in maps])
    centers = [j for j, _, _ in maps]
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
    base = curve.grid[center]  # each row's s = 0
    lo, hi = curve.grid[inner] - base, curve.grid[outer] - base
    flo, fhi = gs[row, inner] - delta, gs[row, outer] - delta
    # the walk leaves g < delta at the inner node (or NaN, which fails
    # unless the outer node is a root) and g >= delta at the outer one
    at_hi = ~failed & (fhi == 0.0)
    failed |= ~at_hi & ~(flo < 0)
    solve = ~(failed | at_hi)
    nodes = _window_nodes(np.minimum(inner, outer) + 1, gs.shape[1])
    window, g_values = _basis(curve.grid[nodes] - base), gs[row, nodes]
    # each row's origin and the f column of its map, as (rows, 1) columns
    ox, oy, tx, ty = np.array([(*origin, *columns[0]) for _, origin, columns in maps]).T[..., None]
    at = curve.points[nodes]
    f_values = _mapped(at[..., 0] - ox, at[..., 1] - oy, (tx, ty))

    # Safeguarded Newton (rtsafe) from the secant point of the bracket.
    # The sign of F = g - delta, the window's cubic, moves a bracket end
    # to x; the slope only steers.  A lane stops once its step is at most
    # 4e-16 |x|, tested before the safeguard, which sends any other step
    # outside the open bracket, a non-finite one (F' = 0, or 0/0 on a
    # lane that does not solve) included, to the bracket's midpoint.  It
    # also stops on F = 0, an unmoved iterate or a bracket at most 1e-17
    # wide; the old iterate is a bracket end, so for |x| > 1 a nonzero
    # width is at least the float spacing at x, above 1e-17 |x|.
    weights = g_values / window[1]
    active = solve.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _safeguard(lo + (hi - lo) * (flo / (flo - fhi)), lo, hi)
        for _ in range(200):
            if not active.any():
                break
            fx = _lagrange(window, g_values, x) - delta
            active &= fx != 0.0
            to_lo = active & (fx < 0)
            np.copyto(lo, x, where=to_lo)
            np.copyto(hi, x, where=active ^ to_lo)
            step = fx / _slope(window[0], weights, x)
            active &= ~(np.abs(step) <= 4e-16 * np.abs(x))
            nxt = _safeguard(x - step, lo, hi)
            active &= (nxt != x) & (np.abs(hi - lo) > 1e-17)
            np.copyto(x, nxt, where=active)
    residual = np.abs(_lagrange(window, g_values, x) - delta)
    failed |= solve & ~(residual <= ROOT_TOL)  # a NaN residual fails too
    roots = np.where(at_hi, hi, x)
    return roots, failed, _lagrange(window, f_values, roots)


def _slope(others: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The cubic's slope at x from its window's others and the weights
    w_j = v_j / den_j: sum_j w_j (d0 d1 + (d0 + d1) d2), d = x - others."""
    d0, d1, d2 = np.swapaxes(x - others, 0, 1)
    return np.add.reduce(weights * (d0 * d1 + (d0 + d1) * d2), axis=0, initial=0.0)


def _safeguard(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x where it lies inside the open bracket between lo and hi, its
    midpoint elsewhere; a NaN or infinite x is never inside."""
    inside = (np.minimum(lo, hi) < x) & (x < np.maximum(lo, hi))
    return np.where(inside, x, 0.5 * (lo + hi))


def gravity_samples(curve: NumCurve, p: float, deltas: Sequence[float]) -> list[GravitySample]:
    """Chord-midpoint samples at the given heights: the sweep's pass for p.

    The curve is renormalized at the grid node nearest p, and the
    samples are those of that node, whatever the p asked for.  Each
    height line is intersected with it on both sides of the base point;
    roots are located by safeguarded Newton on the cubic interpolant of
    the vertical component, midpoints from that of the horizontal
    component.  The request is checked before any root is solved, as
    ``_sweep_samples`` checks it: ValueError for heights that are not a
    nonempty 1-D list, then for a height <= 0, then for one that is not
    finite, then for a p off the grid or with a singular frame.  A missing root raises BracketingError, the first in
    height order, right side before left.
    """
    return next(_sweep_samples(curve, [p], deltas))


def _sweep_samples(
    curve: NumCurve, base_points: Sequence[float], deltas: Sequence[float]
) -> Iterator[list[GravitySample]]:
    """The chord-midpoint samples of the curve renormalized at each base
    point, in order.

    The request is checked when the sampler is called, before any root
    is solved.  ValueError is raised for heights that are not a nonempty
    1-D list, then for a height <= 0, then for a NaN height or an
    infinite one, then for the first base point off the grid or with a
    singular frame.  Base points are then
    solved a chunk at a time, all rows of a chunk in one ``_chord_roots``
    pass with one window per lane, and yielded row by row.  A chunk
    stacks at most ``_SWEEP_TABLE`` entries of g and, beyond one point,
    at most ``_BLOCK`` lanes.  A row with a missing root raises
    BracketingError, the first in height order, right side before left,
    after the rows before it.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or not len(deltas):
        raise ValueError("chord heights must be a nonempty 1-D list")
    if (deltas <= 0).any():
        raise ValueError("chord height must be positive")
    if not np.isfinite(deltas).all():
        raise ValueError("chord height must be finite")
    maps = [_affine_map(curve, p) for p in base_points]
    heights = deltas.tolist()
    size = max(1, min(_BLOCK // (2 * len(deltas)), _SWEEP_TABLE // len(curve)))

    def rows() -> Iterator[list[GravitySample]]:
        for i in range(0, len(maps), size):
            roots, failed, f_at = _chord_roots(curve, maps[i : i + size], deltas)
            midpoint_x = 0.5 * (f_at[:, 1::2] + f_at[:, 0::2])
            for lanes, row, mid in zip(failed, roots, midpoint_x):
                if lanes.any():
                    lane = int(np.flatnonzero(lanes)[0])
                    raise BracketingError(heights[lane // 2], ("right", "left")[lane % 2])
                s_minus, s_plus = row[1::2].tolist(), row[0::2].tolist()
                yield list(map(GravitySample, heights, s_minus, s_plus, mid.tolist()))

    return rows()


# -- verdicts ------------------------------------------------------------------


def _least_squares(columns: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Least-squares coefficients of ``rhs`` on ``columns`` (m >= len(columns)
    entries each) by Householder QR in Python floats.

    Each reflection is LAPACK's: for the column x below the diagonal,
    beta = -sign(x_0) |x|, v = (1, x_1 / (x_0 - beta), ...) and tau =
    (beta - x_0) / beta, so no entry of v exceeds 1 in size.  An all-zero x
    needs none.  The design is rank-deficient, and the result None, when
    some |r_kk| <= eps max(m, n) max |r_jj|, numpy's default cutoff for
    ``lstsq``.  Each inner product is one ``math.fsum``.
    """
    m, n = len(rhs), len(columns)
    a = [list(column) for column in columns]
    b = list(rhs)
    diag = []
    for k in range(n):
        x = a[k][k:]
        norm = math.hypot(*x)
        beta = -math.copysign(norm, x[0])
        diag.append(beta)
        if norm == 0.0:
            continue
        tau, scale = (beta - x[0]) / beta, x[0] - beta
        v = [1.0, *(xi / scale for xi in x[1:])]
        for w in [*a[k + 1 :], b]:
            t = tau * math.fsum(vi * wi for vi, wi in zip(v, w[k:]))
            w[k:] = [wi - t * vi for vi, wi in zip(v, w[k:])]
    cutoff = sys.float_info.epsilon * max(m, n) * max(abs(r) for r in diag)
    if not all(abs(r) > cutoff for r in diag):
        return None
    coef = [0.0] * n
    for k in reversed(range(n)):
        # column j's entry k is R[k, j] once the reflections are applied
        coef[k] = (b[k] - math.fsum(a[j][k] * coef[j] for j in range(k + 1, n))) / diag[k]
    return coef


def fit_flatness(
    samples: Sequence[GravitySample],
    kappa_prime_p: float,
    tol_flat: float = DEFAULT_TOL_FLAT,
) -> FlatnessResult:
    """Fit midpoint_x(delta) = a delta + b delta^2 + c delta^3.

    The quadratic coefficient estimates the quartic coefficient of the
    underlying expansion, predicted as -kappa'(p)/10; a mismatch beyond
    max(1e-3, 5%) raises VerificationError.  The fit is a Householder QR
    in Python floats (``_least_squares``) on powers of delta formed by
    multiplication, and the fitted values, for the residual, an
    elementwise sum of products, so no BLAS or CPU-picked ``power``
    kernel sets their bits.
    """
    if len(samples) < MIN_FIT_SAMPLES:
        raise ValueError(f"flatness fit needs at least {MIN_FIT_SAMPLES} samples")
    deltas = np.array([s.delta for s in samples])
    xs = np.array([s.midpoint_x for s in samples])
    powers = (deltas, deltas * deltas, deltas * deltas * deltas)
    coef = _least_squares([column.tolist() for column in powers], xs.tolist())
    if coef is None:
        top = deltas.max()
        lost = [f"delta^{k}" for k in (2, 3) if top**k < np.finfo(float).tiny]
        if lost:
            raise ValueError(
                f"rank-deficient flatness fit: {' and '.join(lost)} underflow"
                f" at heights up to {top:.3g}; raise the heights"
            )
        raise ValueError("rank-deficient flatness fit; spread the heights wider or raise them")
    a, b, c = coef
    predicted = -kappa_prime_p / 10.0
    if abs(b - predicted) > max(1e-3, 0.05 * abs(predicted)):
        raise VerificationError(
            "flatness.prediction", f"fitted b={b:.6g}, predicted {predicted:.6g}"
        )
    fitted = powers[0] * a + powers[1] * b + powers[2] * c
    residual = float(np.sqrt(np.mean((fitted - xs) ** 2)))
    return FlatnessResult(
        fit_coeffs=(a, b, c),
        predicted_b=predicted,
        is_flat=abs(b) <= tol_flat,
        fit_residual=residual,
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
    to it.  The request is checked before any root is solved, so a
    refused one appends no row: ValueError for no base points, then as
    ``_sweep_samples`` checks, then for the first point too close to the
    grid's ends for ``affine_curvature``.  A missing root raises
    BracketingError, the first in point, height, side order, after the
    rows before it.
    """
    if deltas is None:
        deltas = default_deltas()
    base_points = list(base_points)
    if not base_points:
        raise ValueError("a corollary sweep needs at least one base point")
    samples = _sweep_samples(curve, base_points, deltas)
    kappas = [affine_curvature(curve, p) for p in base_points]
    all_straight = True
    for p, row in zip(base_points, samples):
        dev, ok = straightness_test(row, tol_straight)
        if rows is not None:
            rows.append((p, dev, bool(ok)))
        all_straight = all_straight and ok
    spread = max(kappas) - min(kappas)
    scale = max(1.0, abs(float(np.mean(kappas))))
    kappa_constant = spread <= KAPPA_SPREAD_TOL * scale
    if kappa_constant != all_straight:
        raise VerificationError(
            "corollary.cross_check",
            f"straight everywhere={all_straight} but curvature spread={spread:.3g}",
        )
    return all_straight
