"""Numerically realized affine-arclength curves and chord-midpoint sampling.

Curves enter either as a prescribed curvature function (integrated with
classical RK4 through ``c''' = -kappa c'``) or as a parametric plot that
gets reparametrized to affine arclength.  Both produce a uniform grid of
points together with first and second derivative frames, normalized so
the base point sits at the origin with frame (e1, e2).

On top of that sit the desk-scale experiments: locating the two chord
intersections at a given height by bisection, collecting the chord
midpoints, and estimating flatness and straightness of the resulting
midpoint curve.

The numeric kernels work on whole arrays: interpolation takes every
abscissa in one call, and the chord roots of all heights and both sides
of a base point are bisected together.  Each array kernel performs the
same floating-point operations in the same order as its one-value form,
so results are bit-identical to it; ``tests/_oracles.py`` keeps those
forms and the tests compare against them with ``==``.

Derivatives of a parametric plot come from ``_STENCILS``, one table of
central finite-difference stencils read by ``_fd``.  The plot is called
once per abscissa and offset: values already known at the nodes serve
as the zero-offset term.  No grid holds more than ``MAX_GRID_NODES``
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .defaults import DEFAULT_STEP, DEFAULT_TOL_FLAT
from .errors import BracketingError, DegenerateCurveError, VerificationError

__all__ = [
    "KappaCurveSpec",
    "ParametricCurveSpec",
    "NumCurve",
    "GravitySample",
    "FlatnessResult",
    "integrate_from_kappa",
    "reparametrize_affine",
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

TOL_STRAIGHT_FACTOR = 1e-6
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
    """Curve given by its affine curvature along arclength."""

    kappa: Callable[[float], float]
    half_width: float = 1.0


@dataclass(frozen=True)
class ParametricCurveSpec:
    """Curve given as a parametric plot on a parameter interval.

    Must be non-degenerate: det[c_u, c_uu] > 0 throughout the domain.
    """

    xy: Callable[[float], tuple[float, float]]
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

    def center_index(self) -> int:
        return int(np.argmin(np.abs(self.grid)))

    def index_of(self, s: float) -> int:
        j = int(round((s - self.grid[0]) / self.step))
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


def default_deltas(delta0: float = 1e-3, ratio: float = 1.6, count: int = 8) -> np.ndarray:
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


def integrate_from_kappa(spec: KappaCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """Integrate c''' = -kappa c' with RK4 from the normalized frame at 0.

    The state (c, c', c'') starts at ((0,0), e1, e2) and is integrated in
    both directions over [-half_width, half_width] of the spec with fixed
    step.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = float(np.rint(spec.half_width / step))  # half to even, as round() does
    _check_grid_size(2 * n + 1)
    n = int(n)
    if n < 1:
        raise ValueError("domain narrower than one step")
    kappa = spec.kappa
    # one row per node: c, c', c'' as (px, py, ax, ay, bx, by); (cx, cy) is c'''
    start = (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    states = np.empty((2 * n + 1, 6))
    states[n] = start
    for sign, rows in ((1, range(n + 1, 2 * n + 1)), (-1, range(n - 1, -1, -1))):
        h = sign * step
        h2, h6 = h / 2, h / 6
        px, py, ax, ay, bx, by = start
        for i, row in enumerate(rows):
            s = sign * i * step
            k1, k23, k4 = -kappa(s), -kappa(s + h2), -kappa(s + h)
            # the four RK4 stages of (c, c', c'')' = (c', c'', -kappa c')
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
            states[row] = (px, py, ax, ay, bx, by)

    grid = np.arange(-n, n + 1) * step
    return NumCurve(
        grid=grid, points=states[:, 0:2], d1=states[:, 2:4], d2=states[:, 4:6], step=step
    )


# -- reparametrization of parametric curves -------------------------------------


def _xy_array(fn, us: np.ndarray) -> np.ndarray:
    values = chain.from_iterable(map(fn, us.tolist()))
    return np.fromiter(values, float, count=2 * len(us)).reshape(-1, 2)


def _fd(fn, us: np.ndarray, order: int, at_us: np.ndarray | None = None) -> np.ndarray:
    """Derivative of the given order of fn at each u, by its ``_STENCILS``
    row; ``at_us`` is fn at us when the caller already has it."""
    du, offsets, weights, denominator = _STENCILS[order]
    total = None
    for k, w in zip(offsets, weights):
        if k:
            values = _xy_array(fn, us + k * du)
        else:
            values = _xy_array(fn, us) if at_us is None else at_us
        total = w * values if total is None else total + w * values
    return total / denominator


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
# Abscissae per interpolation block; bounds the (block, 4, 3) temporaries.
_BLOCK = 256


def _interp_table(xs: np.ndarray, ys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of a sorted table at each abscissa.

    Each x uses the four nodes around it, clamped to the table ends.  The
    basis products and the sum run in node order, so a value equals the
    one-abscissa evaluation bit for bit.
    """
    if len(xs) < 4:
        raise ValueError("cubic interpolation needs a table of at least 4 nodes")
    x = np.asarray(x, dtype=float)
    if len(x) > _BLOCK:
        blocks = [x[i : i + _BLOCK] for i in range(0, len(x), _BLOCK)]
        return np.concatenate([_interp_table(xs, ys, b) for b in blocks])
    start = np.minimum(np.maximum(np.searchsorted(xs, x) - 2, 0), len(xs) - 4)
    window = start[:, None] + np.arange(4)
    nodes = xs[window]
    dx = (x[:, None] - nodes)[:, _OTHERS]
    dn = nodes[:, :, None] - nodes[:, _OTHERS]
    num = dx[..., 0] * dx[..., 1] * dx[..., 2]
    den = dn[..., 0] * dn[..., 1] * dn[..., 2]
    terms = ys[window] * (num / den)
    return 0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]


@np.errstate(over="ignore", invalid="ignore")
def reparametrize_affine(spec: ParametricCurveSpec, step: float = DEFAULT_STEP) -> NumCurve:
    """Resample a parametric curve by affine arclength.

    The arclength element is det[c_u, c_uu]^(1/3); its integral is
    accumulated with composite Simpson over ``TABLE_NODES`` parameter
    nodes, inverted monotonically, and the curve resampled on a uniform
    grid.  Frames come from the chain rule on finite-difference
    derivatives of the plot.  The node nearest the middle of the
    parameter interval becomes the normalized base point.

    A plot too large to difference overflows quietly: a non-finite
    arclength fails the grid-size check, and the caller refuses
    non-finite points or frames (``Config.validate`` does).
    """
    u0, u1 = spec.domain
    if not u1 > u0:
        raise ValueError("empty parameter domain")
    us = np.linspace(u0, u1, TABLE_NODES)
    det = _cross(_fd(spec.xy, us, 1), _fd(spec.xy, us, 2))
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

    pts = _xy_array(spec.xy, u_of_s)
    c1 = _fd(spec.xy, u_of_s, 1)
    c2 = _fd(spec.xy, u_of_s, 2, at_us=pts)
    c3 = _fd(spec.xy, u_of_s, 3)
    z = _cross(c1, c2)
    zp = _cross(c1, c3)
    d1 = c1 * (z ** (-1.0 / 3.0))[:, None]
    d2 = c2 * (z ** (-2.0 / 3.0))[:, None] - c1 * (zp / 3.0 * z ** (-5.0 / 3.0))[:, None]

    raw = NumCurve(grid=grid, points=pts, d1=d1, d2=d2, step=step)
    return renormalize(raw, 0.0)


def renormalize(curve: NumCurve, p: float) -> NumCurve:
    """Affinely move the base point to the grid node nearest p.

    The affine map sends (c(p), c'(p), c''(p)) to ((0,0), e1, e2); grid
    values shift so the base point reads s = 0.
    """
    j = curve.index_of(p)
    origin = curve.points[j]
    frame = np.column_stack([curve.d1[j], curve.d2[j]])
    inv = np.linalg.inv(frame)
    return NumCurve(
        grid=curve.grid - curve.grid[j],
        points=(curve.points - origin) @ inv.T,
        d1=curve.d1 @ inv.T,
        d2=curve.d2 @ inv.T,
        step=curve.step,
    )


# -- curvature and chords -----------------------------------------------------


def affine_curvature(curve: NumCurve, s: float) -> float:
    """det[c'', c'''] with c''' by central differences; error O(step^2)."""
    n = len(curve.grid)
    i = int(np.floor((s - curve.grid[0]) / curve.step))
    i = min(i, n - 2)
    if i - 1 < 0 or i + 2 > n - 1:
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


def _chord_roots(curve: NumCurve, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of g(s) = delta right and left of the base point, all heights
    in one pass.

    Lanes are ordered (right, left) per height.  Each lane walks outward
    from the base node to the first node with g >= delta, then bisects the
    cubic interpolant of g over that grid cell to bracket collapse.  All
    lanes bisect in lockstep; a lane stops on an exact zero, on a midpoint
    that no longer moves, or on a collapsed bracket.  Returns the roots
    and a mask of the lanes that found none.
    """
    g = curve.points[:, 1]
    grid = curve.grid
    center = curve.center_index()
    right = center + 1 + _first_reach(g[center + 1 :], deltas)
    left = center - 1 - _first_reach(g[:center][::-1], deltas)
    outer = np.column_stack([right, left]).ravel()
    inner = outer - np.tile([1, -1], len(deltas))
    delta = np.repeat(deltas, 2)
    failed = (outer < 0) | (outer >= len(g))
    outer = np.where(failed, center, outer)
    inner = np.where(failed, center, inner)

    lo, hi = grid[inner], grid[outer]
    f_ends = _interp_table(grid, g, np.concatenate([lo, hi])) - np.tile(delta, 2)
    flo, fhi = np.split(f_ends, 2)
    at_lo = ~failed & (flo == 0.0)
    at_hi = ~failed & ~at_lo & (fhi == 0.0)
    neg_lo = flo < 0  # the sign of g - delta at lo never changes while bisecting
    failed |= ~at_lo & ~at_hi & (neg_lo == (fhi < 0))
    bisect = ~(failed | at_lo | at_hi)
    # bisect to bracket collapse; this lands far inside the |g - delta|
    # tolerance and keeps the root itself accurate to machine precision
    mid = 0.5 * (lo + hi)
    active = bisect
    for _ in range(200):
        if not active.any():
            break
        fm = _interp_table(grid, g, mid) - delta
        moving = active & (fm != 0.0)
        to_lo = moving & ((fm < 0) == neg_lo)
        lo = np.where(to_lo, mid, lo)
        hi = np.where(moving & ~to_lo, mid, hi)
        nxt = 0.5 * (lo + hi)
        width = np.abs(hi - lo)
        collapsed = (nxt == mid) | (width <= 1e-17 * np.maximum(1.0, np.abs(mid)))
        active = moving & ~collapsed
        mid = np.where(active, nxt, mid)
    residual = np.abs(_interp_table(grid, g, mid) - delta)
    failed |= bisect & (residual > ROOT_TOL)
    roots = np.where(at_lo, lo, np.where(at_hi, hi, mid))
    return roots, failed


def gravity_samples(curve: NumCurve, deltas: Sequence[float]) -> list[GravitySample]:
    """Chord-midpoint samples at the given heights.

    The curve must be normalized at its base point.  Each height line is
    intersected with the sampled curve on both sides of the base point;
    roots are located by bisection on the cubic interpolant of the
    vertical component, midpoints from the cubic interpolant of the
    horizontal component.  All heights and both sides are solved in one
    batched pass.  Errors follow height order, right side before left: a
    height <= 0 raises ValueError, a missing root BracketingError.
    """
    deltas = np.asarray(deltas, dtype=float)
    nonpositive = np.flatnonzero(deltas <= 0)
    heights = deltas[: nonpositive[0]] if nonpositive.size else deltas
    roots, failed = _chord_roots(curve, heights)
    if failed.any():
        lane = int(np.flatnonzero(failed)[0])
        raise BracketingError(float(heights[lane // 2]), ("right", "left")[lane % 2])
    if nonpositive.size:
        raise ValueError("chord height must be positive")
    s_plus, s_minus = roots[0::2], roots[1::2]
    f_at = _interp_table(curve.grid, curve.points[:, 0], roots)
    midpoint_x = 0.5 * (f_at[1::2] + f_at[0::2])
    return [
        GravitySample(delta=d, s_minus=sm, s_plus=sp, midpoint_x=m)
        for d, sm, sp, m in zip(
            heights.tolist(), s_minus.tolist(), s_plus.tolist(), midpoint_x.tolist()
        )
    ]


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
    if len(samples) < 6:
        raise ValueError("flatness fit needs at least 6 samples")
    deltas = np.array([s.delta for s in samples])
    xs = np.array([s.midpoint_x for s in samples])
    design = np.column_stack([deltas, deltas**2, deltas**3])
    coef, _, rank, _ = np.linalg.lstsq(design, xs, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient flatness fit; vary the heights")
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
    base point is renormalized and sampled once, all of its heights in
    one batch; when ``rows`` is a list, this pass appends one
    ``(point, max_dev, is_straight)`` tuple per base point to it.
    """
    if deltas is None:
        deltas = default_deltas()
    all_straight = True
    kappas = []
    for p in base_points:
        local = renormalize(curve, p)
        dev, ok = straightness_test(gravity_samples(local, deltas), tol_straight)
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
