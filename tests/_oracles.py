"""Independent reference implementations used as test oracles.

The symbolic oracles work on plain Fraction lists or explicit
enumerations, deliberately avoiding the library's own series and Bell
machinery.  ``compose`` is the exception: it sums an outer series
against the powers of an inner one with ``Series.mul``, the direct
composition the triangular solve in ``Series.compositional_inverse`` is
checked against.  The tuple-keyed oracles are the differential-polynomial
bookkeeping ``DiffPoly`` did before its packed monomial keys: a
polynomial is a dict from an exponent map ((order, exponent), ...) to
its nonzero ``QR2Scalar`` coefficient.  The grading helpers
(``odd_degree``, ``kill_odd_derivatives``, ``is_alternating``) and the
product-built ``random_poly_in_class`` read polynomials only through
their public methods.  The numeric oracles are the
scalar, one-value-at-a-time forms of the conic jets, the curve
builders (RK4 as one transfer map per step), the renormalizing affine
map with its 2x2 inverse, the chord-root search (safeguarded Newton)
and the base-point sweep: the array code in ``numcurve`` and the array
jets of ``cli`` must reproduce them bit for bit.
Four are independent references instead, matched within a stated
bound or exactly over the rationals: ``integrate_from_kappa_stages``
and ``rk4_stage_step``, classical stage-form RK4,
``chord_root_bisection``, the chord root by bisection to bracket
collapse, ``near_conic_x``, the closed-form first-order gravity curve
of a linear curvature, and ``conic_chord_ends``, the closed-form chord
ends of a conic.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from affgrav import (
    BracketingError,
    DiffPoly,
    GradedClass,
    GravitySample,
    NumCurve,
    Series,
    VerificationError,
)
from affgrav.numcurve import (
    KAPPA_SPREAD_TOL,
    ROOT_TOL,
    affine_curvature,
    default_deltas,
    straightness_test,
)


def poly_mul_trunc(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    """Truncated product of coefficient lists (index = power)."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def poly_compose_trunc(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    """Truncated composition outer(inner(s)) by naive power accumulation."""
    assert inner[0] == 0, "inner series must have zero constant term"
    out = [Fraction(0)] * (order + 1)
    out[0] = outer[0] if outer else Fraction(0)
    power = [Fraction(0)] * (order + 1)
    power[0] = Fraction(1)
    for l in range(1, len(outer)):
        power = poly_mul_trunc(power, inner, order)
        if outer[l]:
            for idx in range(order + 1):
                out[idx] += outer[l] * power[idx]
    return out


def compose(outer: Series, inner: Series) -> Series:
    """Series of outer(inner(s)); both constant terms must vanish."""
    if inner[0]:
        raise ValueError(f"inner series has nonzero constant term {inner[0]}")
    if outer[0]:
        raise ValueError(f"outer series has nonzero constant term {outer[0]}")
    n = min(outer.order, inner.order)
    powers = [None, inner.truncate(n)]
    for _ in range(2, n + 1):
        powers.append(powers[-1].mul(powers[1]))
    return Series(
        [DiffPoly.zero()]
        + [
            DiffPoly.sum_of_products((outer[l], powers[l][k]) for l in range(1, k + 1))
            for k in range(1, n + 1)
        ]
    )


def invert_by_substitution(a: list[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse found coefficient by coefficient.

    Solves a(b(t)) = t degree by degree via the naive composition above;
    needs a[0] = 0 and a[1] != 0.
    """
    assert a[0] == 0 and a[1] != 0
    b = [Fraction(0), Fraction(1) / a[1]] + [Fraction(0)] * (order - 1)
    for k in range(2, order + 1):
        comp = poly_compose_trunc(a, b, k)
        # the defect at degree k is a[1] * b[k] + (terms without b[k])
        b[k] -= comp[k] / a[1]
    return b


def set_partitions(items: list, blocks: int):
    """All partitions of items into exactly the given number of blocks."""
    if len(items) == blocks:
        yield [[x] for x in items]
        return
    if blocks == 1:
        yield [items]
        return
    if len(items) < blocks or blocks < 1:
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
    for part in set_partitions(rest, blocks - 1):
        yield [[first]] + part


def bell_by_set_partitions(k: int, l: int, a) -> DiffPoly:
    """Partial Bell polynomial as a sum over set partitions of {1..k}.

    A partition contributes the product of a[size] over its blocks; the
    partitions are counted by their block sizes first, so each distinct
    product is formed once.
    """
    counts = Counter(
        tuple(sorted(map(len, part))) for part in set_partitions(list(range(1, k + 1)), l)
    )
    total = DiffPoly.zero()
    for sizes, count in counts.items():
        term = DiffPoly.constant(count)
        for size in sizes:
            entry = a[size]
            term = term * (entry if isinstance(entry, DiffPoly) else DiffPoly.constant(entry))
        total = total + term
    return total


def const_series(values, order: int | None = None) -> Series:
    """Series with constant coefficients from a list of numbers."""
    coeffs = [DiffPoly.constant(Fraction(v)) for v in values]
    if order is not None:
        coeffs += [DiffPoly.zero()] * (order + 1 - len(coeffs))
    return Series(coeffs)


def padded_square(b: Series) -> Series:
    """b*b through order N + 1 for b of order N with zero constant term.

    The square of b padded with one zero coefficient: coefficient N + 1
    of b*b pairs the unknown b[N + 1] only with b[0] = 0."""
    assert b[0].is_zero, b[0]
    padded = Series([*b.coeffs, DiffPoly.zero()])
    return padded.mul(padded)


def rational_coeffs(series: Series) -> list[Fraction]:
    """Extract plain rationals from a constant-coefficient series."""
    out = []
    for c in series.coeffs:
        v = c.constant_value()
        assert v.b == 0, f"coefficient {v} is not rational"
        out.append(v.a)
    return out


# -- tuple-keyed differential polynomials --------------------------------------


def merge_exponents(e1, e2):
    """Exponent map of the product of two monomials."""
    merged = dict(e1)
    for order, e in e2:
        merged[order] = merged.get(order, 0) + e
    return tuple(sorted(merged.items()))


def _nonzero(terms: dict) -> dict:
    return {exps: c for exps, c in terms.items() if c}


def tuple_sum_of_products(pairs, weights) -> dict:
    """Sum of w * p * q over the weighted pairs of tuple-keyed polynomials."""
    out: dict = {}
    for (p, q), w in zip(pairs, weights):
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                exps = merge_exponents(e1, e2)
                out[exps] = out.get(exps, 0) + w * c1 * c2
    return _nonzero(out)


def tuple_differentiate(terms: dict) -> dict:
    """Leibniz rule with k<order> mapping to k<order + 1>."""
    out: dict = {}
    for exps, c in terms.items():
        for order, e in exps:
            factors = dict(exps)
            if e == 1:
                del factors[order]
            else:
                factors[order] = e - 1
            factors[order + 1] = factors.get(order + 1, 0) + 1
            new = tuple(sorted(factors.items()))
            out[new] = out.get(new, 0) + c * e
    return _nonzero(out)


def tuple_in_class(terms: dict, k: int, sigma: int) -> bool:
    """Derivative orders <= k and odd degree of the parity of sigma."""
    for exps in terms:
        if any(order > k for order, _ in exps):
            return False
        if sum(e for order, e in exps if order % 2 == 1) % 2 != sigma % 2:
            return False
    return True


def tuple_kill_odd_derivatives(terms: dict) -> dict:
    """The monomials without an odd-order derivative."""
    return {exps: c for exps, c in terms.items() if all(order % 2 == 0 for order, _ in exps)}


def jet_value(poly: DiffPoly, assign) -> float:
    """Float value of ``poly`` at a jet (order -> value): every value is
    substituted as the exact Fraction it holds, and only the result is
    rounded.  An order used by ``poly`` but not assigned raises."""
    exact = {order: Fraction(v) for order, v in assign.items()}
    return poly.substitute_partial(exact).constant_value().to_float()


def monomial_key(exps) -> tuple:
    """Graded-lex sort key of an exponent map: total degree first, then
    the map itself, compared pair by pair."""
    return (sum(e for _, e in exps), exps)


def tuple_str(terms: dict) -> str:
    """The text form in graded-lex order (see ``monomial_key``), each
    coefficient printed as its Fraction or QR2Scalar."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=monomial_key):
        c = terms[exps]
        coeff = c if c.b else c.a  # a rational prints as its Fraction
        factors = "".join(f"*k{o}" if e == 1 else f"*k{o}^{e}" for o, e in exps)
        parts.append(f"({coeff}){factors}")
    return " + ".join(parts)


# -- grading ------------------------------------------------------------------


def odd_degree(mono) -> int:
    """Total exponent of a ``DiffMonomial`` over odd derivative orders."""
    return sum(e for order, e in mono.exponents if order % 2 == 1)


def kill_odd_derivatives(poly: DiffPoly) -> DiffPoly:
    """Substitute 0 for every odd-order derivative of kappa: keep exactly
    the monomials of odd degree 0."""
    return DiffPoly({m.exponents: m.coeff for m in poly.monomials() if odd_degree(m) == 0})


def is_alternating(series: Series, n: int, sigma: int) -> bool:
    """True when coefficient k lies in the graded class (k-n, k+sigma)
    for every k up to the order."""
    return all(
        series[k].in_class(GradedClass(k - n, k + sigma)) for k in range(series.order + 1)
    )


def random_poly_in_class(rng, k: int, sigma: int) -> DiffPoly:
    """The grading suite's random member of the class (k, sigma), built
    from products: the same random draws, one factor at a time."""
    poly = DiffPoly.zero()
    for _ in range(rng.randint(1, 3)):
        mono = DiffPoly.constant(rng.randint(1, 5) - 3 or 1)
        for _ in range(rng.randint(0, 3)):
            mono = mono * DiffPoly.kappa(rng.randint(0, k))
        if not mono.in_class(GradedClass(k, sigma)):
            mono = mono * DiffPoly.kappa(1 if k >= 1 else 0)
        poly = poly + mono
    if poly.is_zero or not poly.in_class(GradedClass(k, sigma)):
        return DiffPoly.kappa(1) if sigma % 2 else DiffPoly.kappa(0)
    return poly


# -- numeric oracles -----------------------------------------------------------


def lagrange4(xs, ys, x: float) -> float:
    """Cubic Lagrange interpolant through four nodes, evaluated at x."""
    total = 0.0
    for j in range(4):
        num, den = 1.0, 1.0
        for m in range(4):
            if m != j:
                num *= x - xs[m]
                den *= xs[j] - xs[m]
        total += ys[j] * (num / den)
    return total


def lagrange4_slope(xs, ys, x: float) -> float:
    """Derivative at x of the cubic Lagrange interpolant through four
    nodes: sum_j (y_j / den_j) (d0 d1 + (d0 + d1) d2), d = x - the others."""
    total = 0.0
    for j in range(4):
        den, d = 1.0, []
        for m in range(4):
            if m != j:
                den *= xs[j] - xs[m]
                d.append(x - xs[m])
        total += (ys[j] / den) * (d[0] * d[1] + (d[0] + d[1]) * d[2])
    return total


def _table_start(xs: np.ndarray, x: float) -> int:
    """The first of the four table nodes around x, clamped to the ends."""
    i = int(np.searchsorted(xs, x)) - 1
    return max(0, min(i - 1, len(xs) - 4))


def interp_table(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    """Cubic interpolation of a sorted table at one abscissa."""
    i = _table_start(xs, x)
    return lagrange4(xs[i : i + 4], ys[i : i + 4], x)


def interp_table_slope(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    """The derivative of ``interp_table``'s cubic at x, in its window."""
    i = _table_start(xs, x)
    return lagrange4_slope(xs[i : i + 4], ys[i : i + 4], x)


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative Simpson integral, one node at a time; len(y) odd."""
    n = len(y)
    out = np.zeros(n)
    for i in range(2, n, 2):
        out[i] = out[i - 2] + dx * (y[i - 2] + 4 * y[i - 1] + y[i]) / 3
    for i in range(1, n, 2):
        out[i] = out[i - 1] + dx * (5 * y[i - 1] + 8 * y[i] - y[i + 1]) / 12
    return out


def integrate_from_kappa(spec, step: float = 1e-3) -> NumCurve:
    """RK4 for c''' = -kappa c' one step and one value at a time, each
    step as its transfer map: the frame (a, b) goes to (a + e00 a + m01
    b, b + m10 a + e11 b) and c moves by p0 a + p1 b, the entries formed
    from -kappa at s, s + h/2 and s + h with h6 = h/6 and q = h^2."""
    n = int(round(spec.half_width / step))
    start = ((1.0, 0.0), (0.0, 1.0))
    states = [None] * (2 * n + 1)
    states[n] = ((0.0, 0.0), *start)
    for sign in (1, -1):
        h = sign * step
        h6, q = h / 6, h * h
        hh6 = h6 * h
        c, (ax, ay), (bx, by) = [0.0, 0.0], *start
        for i in range(n):
            s = sign * i * step
            n1, n23, n4 = -spec.kappa(s), -spec.kappa(s + h / 2), -spec.kappa(s + h)
            e00 = hh6 * (n1 + 2 * n23 + q / 4 * n1 * n23)
            m01 = h6 * (6 + q * n23)
            m10 = h6 * (n1 + 4 * n23 + n4 + q / 2 * n23 * (n1 + n4))
            e11 = hh6 * (2 * n23 + n4 * (1 + q / 4 * n23))
            p0 = h6 * (6 + q / 2 * (n1 + n23))
            p1 = hh6 * (3 + q / 4 * n23)
            c = [c[0] + (p0 * ax + p1 * bx), c[1] + (p0 * ay + p1 * by)]
            ax, bx = ax + (e00 * ax + m01 * bx), bx + (m10 * ax + e11 * bx)
            ay, by = ay + (e00 * ay + m01 * by), by + (m10 * ay + e11 * by)
            states[n + sign * (i + 1)] = (tuple(c), (ax, ay), (bx, by))
    arr = np.array(states, dtype=float)
    grid = np.arange(-n, n + 1) * step
    return NumCurve(grid=grid, points=arr[:, 0], d1=arr[:, 1], d2=arr[:, 2], step=step)


def integrate_from_kappa_stages(spec, step: float = 1e-3) -> NumCurve:
    """Classical stage-form RK4 for c''' = -kappa c' on (3, 2) numpy
    state arrays: the same map as ``integrate_from_kappa`` over the
    rationals, rounded in another order."""
    n = int(round(spec.half_width / step))
    kappa = spec.kappa

    def rk4(y, s, h):
        def rhs(si, yi):
            return np.array([yi[1], yi[2], -kappa(si) * yi[1]])

        k1 = rhs(s, y)
        k2 = rhs(s + h / 2, y + (h / 2) * k1)
        k3 = rhs(s + h / 2, y + (h / 2) * k2)
        k4 = rhs(s + h, y + h * k3)
        return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    y0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    states = [None] * (2 * n + 1)
    states[n] = y0
    y = y0
    for i in range(n):
        y = rk4(y, i * step, step)
        states[n + 1 + i] = y
    y = y0
    for i in range(n):
        y = rk4(y, -i * step, -step)
        states[n - 1 - i] = y
    arr = np.array(states)
    grid = np.arange(-n, n + 1) * step
    return NumCurve(grid=grid, points=arr[:, 0], d1=arr[:, 1], d2=arr[:, 2], step=step)


def rk4_stage_step(n1, n23, n4, h, a, b):
    """One classical RK4 step of (a, b)' = (b, n a) with n = n1, n23,
    n23, n4 at its four stages, and the step's increment of the position
    c (c' = a): returns (a, b, dc).  Plain arithmetic, for Fractions."""
    k1a, k1b = b, n1 * a
    a2, b2 = a + h / 2 * k1a, b + h / 2 * k1b
    k2a, k2b = b2, n23 * a2
    a3, b3 = a + h / 2 * k2a, b + h / 2 * k2b
    k3a, k3b = b3, n23 * a3
    a4, b4 = a + h * k3a, b + h * k3b
    k4a, k4b = b4, n4 * a4
    return (
        a + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a),
        b + h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b),
        h / 6 * (a + 2 * a2 + 2 * a3 + a4),
    )


def _ellipse_jet(a, b):
    def jet(u):
        c, s = math.cos(u), math.sin(u)
        return (a * c, b * s), (-a * s, b * c), (-a * c, -b * s), (a * s, -b * c)

    return jet


def _hyperbola_jet(u):
    x, y = math.cosh(u), -math.sinh(u)
    return (x, y), (-y, -x), (x, y), (-y, -x)


# The conic fixtures of ``cli._CONICS`` at their default arguments, as
# scalar jets on the math module: the pairs c, c_u, c_uu, c_uuu.
CONIC_JETS = {
    "parabola": lambda u: ((u, u * u / 2), (1.0, u), (0.0, 1.0), (0.0, 0.0)),
    "circle": _ellipse_jet(1.0, 1.0),
    "ellipse": _ellipse_jet(2.0, 1.0),
    "hyperbola": _hyperbola_jet,
}


def _xy(jet, us) -> np.ndarray:
    """The jet's four pairs at each u, one scalar call per u, as a
    (4, len(us), 2) array."""
    out = np.empty((4, len(us), 2))
    for i, u in enumerate(us):
        for k, (x, y) in enumerate(jet(float(u))):
            out[k, i, 0] = x
            out[k, i, 1] = y
    return out


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def reparametrize_affine(
    jet, domain=(-1.0, 1.0), samples: int = 4001, step: float = 1e-3
) -> NumCurve:
    """Affine-arclength resampling of a scalar jet with per-node
    interpolation and the loop Simpson sum; for non-degenerate plots
    only."""
    u0, u1 = domain
    us = np.linspace(u0, u1, samples)
    _, c1, c2, _ = _xy(jet, us)
    det = _cross(c1, c2)
    sigma = cumulative_simpson(det ** (1.0 / 3.0), float(us[1] - us[0]))
    iref = int(np.argmin(np.abs(us - (u0 + u1) / 2)))
    sigma -= sigma[iref]
    n_neg = int(np.floor(-sigma[0] / step)) - 1
    n_pos = int(np.floor(sigma[-1] / step)) - 1
    grid = np.arange(-n_neg, n_pos + 1) * step
    u_of_s = np.array([interp_table(sigma, us, s) for s in grid])
    u_of_s[n_neg] = us[iref]
    pts, c1, c2, c3 = _xy(jet, u_of_s)
    z, zp = _cross(c1, c2), _cross(c1, c3)
    d1 = c1 * (z ** (-1.0 / 3.0))[:, None]
    d2 = c2 * (z ** (-2.0 / 3.0))[:, None] - c1 * (zp / 3.0 * z ** (-5.0 / 3.0))[:, None]
    return renormalize(NumCurve(grid=grid, points=pts, d1=d1, d2=d2, step=step), 0.0)


def inverse_2x2(m) -> list[list[float]]:
    """The inverse of [[a, b], [c, d]], each entry a cofactor divided by
    the determinant ad - bc."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def affine_map(x: float, y: float, inv_t) -> tuple[float, float]:
    """The row vector (x, y) times the 2x2 matrix ``inv_t``, one
    component at a time."""
    return x * inv_t[0][0] + y * inv_t[1][0], x * inv_t[0][1] + y * inv_t[1][1]


def renormalize(curve: NumCurve, p: float) -> NumCurve:
    """The curve mapped one node at a time by the transposed inverse of
    the frame [c', c''] at the node nearest p, points shifted to put
    that node at the origin."""
    j = curve.index_of(p)
    (ax, ay), (bx, by) = curve.d1[j].tolist(), curve.d2[j].tolist()
    inv = inverse_2x2([[ax, bx], [ay, by]])
    inv_t = [[inv[0][0], inv[1][0]], [inv[0][1], inv[1][1]]]
    ox, oy = curve.points[j].tolist()

    def image(pairs, shift_x=0.0, shift_y=0.0):
        return np.array([affine_map(x - shift_x, y - shift_y, inv_t) for x, y in pairs.tolist()])

    return NumCurve(
        grid=np.array([s - curve.grid[j] for s in curve.grid]),
        points=image(curve.points, ox, oy),
        d1=image(curve.d1),
        d2=image(curve.d2),
        step=curve.step,
    )


def _chord_bracket(curve: NumCurve, direction: int, delta: float):
    """Walk outward to the first node with g >= delta.  Returns g, the
    inner and outer node, and g - delta at both; raises BracketingError
    when no node reaches delta or g - delta keeps its sign."""
    g = curve.points[:, 1]
    i = curve.index_of(0.0)
    side = "right" if direction > 0 else "left"
    while True:
        j = i + direction
        if j < 0 or j >= len(g):
            raise BracketingError(delta, side)
        if g[j] >= delta:
            break
        i = j
    lo, hi = curve.grid[i], curve.grid[j]
    flo = interp_table(curve.grid, g, lo) - delta
    fhi = interp_table(curve.grid, g, hi) - delta
    if flo != 0.0 and fhi != 0.0 and (flo < 0) == (fhi < 0):
        raise BracketingError(delta, side)
    return g, float(lo), float(hi), flo, fhi


def _checked_root(curve: NumCurve, g, direction: int, delta: float, x: float) -> float:
    """x, once g - delta there passes the ``ROOT_TOL`` residual check."""
    if not abs(interp_table(curve.grid, g, x) - delta) <= ROOT_TOL:  # a NaN residual fails too
        raise BracketingError(delta, "right" if direction > 0 else "left")
    return float(x)


def chord_root(curve: NumCurve, direction: int, delta: float) -> float:
    """Walk outward to the first node with g >= delta, then solve g = delta
    on the cubic interpolant of g by safeguarded Newton from the secant
    point of the cell's bracket, one value at a time."""
    g, lo, hi, flo, fhi = _chord_bracket(curve, direction, delta)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi

    def safeguard(x: float) -> float:
        return x if min(lo, hi) < x < max(lo, hi) else 0.5 * (lo + hi)

    x = safeguard(lo + (hi - lo) * (flo / (flo - fhi)))
    for _ in range(200):
        fx = interp_table(curve.grid, g, x) - delta
        if fx == 0.0:
            break
        if (fx < 0) == (flo < 0):
            lo = x
        else:
            hi = x
        slope = interp_table_slope(curve.grid, g, x)
        step = fx / slope if slope != 0.0 else math.inf
        if abs(step) <= 4e-16 * abs(x):
            break
        nxt = safeguard(x - step)
        if nxt == x or abs(hi - lo) <= 1e-17 * max(1.0, abs(x)):
            break
        x = nxt
    return _checked_root(curve, g, direction, delta, x)


def chord_root_bisection(curve: NumCurve, direction: int, delta: float) -> float:
    """Walk outward to the first node with g >= delta, then bisect the
    cubic interpolant of g to bracket collapse: an independent reference
    for ``chord_root``."""
    g, lo, hi, flo, fhi = _chord_bracket(curve, direction, delta)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        fm = interp_table(curve.grid, g, mid) - delta
        if fm == 0.0:
            break
        if (fm < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
        nxt = 0.5 * (lo + hi)
        if nxt == mid or abs(hi - lo) <= 1e-17 * max(1.0, abs(mid)):
            break
        mid = nxt
    return _checked_root(curve, g, direction, delta, mid)


def _check_heights(deltas) -> None:
    """The sampler's rule: a nonempty 1-D list of finite positive heights."""
    if np.ndim(deltas) != 1 or len(deltas) == 0:
        raise ValueError("chord heights must be a nonempty 1-D list")
    if any(delta <= 0 for delta in deltas):
        raise ValueError("chord height must be positive")
    if not all(math.isfinite(delta) for delta in deltas):
        raise ValueError("chord height must be finite")


def gravity_samples(curve: NumCurve, deltas) -> list[GravitySample]:
    """Chord midpoints one height and one side at a time, once every
    height is checked."""
    _check_heights(deltas)
    f = curve.points[:, 0]
    out = []
    for delta in deltas:
        s_plus = chord_root(curve, +1, float(delta))
        s_minus = chord_root(curve, -1, float(delta))
        f_plus = interp_table(curve.grid, f, s_plus)
        f_minus = interp_table(curve.grid, f, s_minus)
        out.append(
            GravitySample(
                delta=float(delta),
                s_minus=s_minus,
                s_plus=s_plus,
                midpoint_x=float(0.5 * (f_minus + f_plus)),
            )
        )
    return out


def corollary_sweep(curve, base_points, deltas=None, tol_straight=None, rows=None) -> bool:
    """The sweep one base point at a time: renormalize, sample, judge,
    once the heights, every base node's two nodes to spare at either
    grid end, every renormalization and every curvature are checked."""
    if deltas is None:
        deltas = default_deltas()
    _check_heights(deltas)
    curves = []
    for p in base_points:
        j = curve.index_of(p)
        if min(j, len(curve.grid) - 1 - j) < 2:
            raise ValueError(
                f"base point {p} is not inside the grid [{curve.grid[0]:.6g},"
                f" {curve.grid[-1]:.6g}] with two nodes to spare"
            )
        curves.append(renormalize(curve, p))
    kappas = [affine_curvature(curve, p) for p in base_points]
    all_straight = True
    for p, local in zip(base_points, curves):
        dev, ok = straightness_test(gravity_samples(local, deltas), tol_straight)
        if rows is not None:
            rows.append((p, dev, bool(ok)))
        all_straight = all_straight and ok
    spread = max(kappas) - min(kappas)
    scale = max(1.0, abs(float(np.mean(kappas))))
    if (spread <= KAPPA_SPREAD_TOL * scale) != all_straight:
        raise VerificationError(
            "corollary.cross_check",
            f"straight everywhere={all_straight} but curvature spread={spread:.3g}",
        )
    return all_straight


# -- closed forms ----------------------------------------------------------------


def conic_chord_ends(k0: float, delta: float) -> float:
    """The arclength s+ = -s- at which the chord at height delta meets a
    curve of constant affine curvature k0, normalized at its base point.

    That curve is (sin(sqrt(k0) s)/sqrt(k0), (1 - cos(sqrt(k0) s))/k0),
    the cosh form for k0 < 0 and (s, s^2/2) for k0 = 0, so s+ is
    arccos(1 - k0 delta)/sqrt(k0), arccosh(1 - k0 delta)/sqrt(-k0) or
    sqrt(2 delta).  The arccos and arccosh are taken in their half-angle
    forms 2 arcsin(sqrt(k0 delta/2)) and 2 arsinh(sqrt(-k0 delta/2)),
    which lose no digits to 1 - k0 delta at small heights.
    """
    if k0 > 0:
        return 2 * math.asin(math.sqrt(k0 * delta / 2)) / math.sqrt(k0)
    if k0 < 0:
        return 2 * math.asinh(math.sqrt(-k0 * delta / 2)) / math.sqrt(-k0)
    return math.sqrt(2 * delta)


def near_conic_x(delta: float, k0: float, eps: float) -> float:
    """The midpoint abscissa at height delta of the gravity curve at s = 0
    of kappa(s) = k0 + eps s, to first order in eps.

    Summing the eps terms c_j k0^(j-2) eps of every h_2j, with
    c_j = -(3/4) j!/(2j+1)!!, gives -(3/4) eps k0^-2 [F(k0 delta/2) - 1 -
    k0 delta/3], where F(y) = arcsin(sqrt y)/sqrt(y(1-y)) for y > 0 and
    arsinh(sqrt z)/sqrt(z(1+z)) with z = -y for y < 0; at k0 = 0 the
    sum is -eps delta^2/10.
    """
    if k0 == 0:
        return -eps * delta * delta / 10
    y = k0 * delta / 2
    if y > 0:
        f = math.asin(math.sqrt(y)) / math.sqrt(y * (1 - y))
    else:
        z = -y
        f = math.asinh(math.sqrt(z)) / math.sqrt(z * (1 + z))
    return -0.75 * eps / (k0 * k0) * (f - 1 - k0 * delta / 3)
