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
scalar, one-value-at-a-time forms of the conic plots, the curve
builders, the chord-root search and the base-point sweep: the array code
in ``numcurve`` and the array plots of ``cli`` must reproduce them bit
for bit.
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
    renormalize,
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


def interp_table(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    """Cubic interpolation of a sorted table at one abscissa."""
    i = int(np.searchsorted(xs, x)) - 1
    i = max(0, min(i - 1, len(xs) - 4))
    return lagrange4(xs[i : i + 4], ys[i : i + 4], x)


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
    """RK4 for c''' = -kappa c' on (3, 2) numpy state arrays."""
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


# The conic fixtures of ``cli._CONICS`` at their default arguments, as
# scalar plots on the math module.
CONIC_PLOTS = {
    "parabola": lambda u: (u, u * u / 2),
    "circle": lambda u: (math.cos(u), math.sin(u)),
    "ellipse": lambda u: (2.0 * math.cos(u), 1.0 * math.sin(u)),
    "hyperbola": lambda u: (math.cosh(u), -math.sinh(u)),
}


def _xy(fn, us) -> np.ndarray:
    out = np.empty((len(us), 2))
    for i, u in enumerate(us):
        x, y = fn(float(u))
        out[i, 0] = x
        out[i, 1] = y
    return out


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _fd1(fn, us, du=2e-3):
    m2, m1 = _xy(fn, us - 2 * du), _xy(fn, us - du)
    p1, p2 = _xy(fn, us + du), _xy(fn, us + 2 * du)
    return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * du)


def _fd2(fn, us, du=1e-2):
    c0 = _xy(fn, us)
    m2, m1 = _xy(fn, us - 2 * du), _xy(fn, us - du)
    p1, p2 = _xy(fn, us + du), _xy(fn, us + 2 * du)
    return (-m2 + 16 * m1 - 30 * c0 + 16 * p1 - p2) / (12 * (du * du))


def _fd3(fn, us, du=1.2e-2):
    m3, m2, m1 = _xy(fn, us - 3 * du), _xy(fn, us - 2 * du), _xy(fn, us - du)
    p1, p2, p3 = _xy(fn, us + du), _xy(fn, us + 2 * du), _xy(fn, us + 3 * du)
    return (m3 - 8 * m2 + 13 * m1 - 13 * p1 + 8 * p2 - p3) / (8 * (du * du * du))


def reparametrize_affine(spec, samples: int = 4001, step: float = 1e-3) -> NumCurve:
    """Affine-arclength resampling with per-node interpolation and the
    loop Simpson sum; for non-degenerate plots only."""
    u0, u1 = spec.domain
    us = np.linspace(u0, u1, samples)
    det = _cross(_fd1(spec.xy, us), _fd2(spec.xy, us))
    sigma = cumulative_simpson(det ** (1.0 / 3.0), float(us[1] - us[0]))
    iref = int(np.argmin(np.abs(us - (u0 + u1) / 2)))
    sigma -= sigma[iref]
    n_neg = int(np.floor(-sigma[0] / step)) - 1
    n_pos = int(np.floor(sigma[-1] / step)) - 1
    grid = np.arange(-n_neg, n_pos + 1) * step
    u_of_s = np.array([interp_table(sigma, us, s) for s in grid])
    u_of_s[n_neg] = us[iref]
    pts = _xy(spec.xy, u_of_s)
    c1, c2, c3 = _fd1(spec.xy, u_of_s), _fd2(spec.xy, u_of_s), _fd3(spec.xy, u_of_s)
    z, zp = _cross(c1, c2), _cross(c1, c3)
    d1 = c1 * (z ** (-1.0 / 3.0))[:, None]
    d2 = c2 * (z ** (-2.0 / 3.0))[:, None] - c1 * (zp / 3.0 * z ** (-5.0 / 3.0))[:, None]
    return renormalize(NumCurve(grid=grid, points=pts, d1=d1, d2=d2, step=step), 0.0)


def chord_root(curve: NumCurve, direction: int, delta: float) -> float:
    """Walk outward to the first node with g >= delta, then bisect the
    cubic interpolant of g to bracket collapse."""
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

    def gval(s: float) -> float:
        return interp_table(curve.grid, g, s)

    lo, hi = curve.grid[i], curve.grid[j]
    flo, fhi = gval(lo) - delta, gval(hi) - delta
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if (flo < 0) == (fhi < 0):
        raise BracketingError(delta, side)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        fm = gval(mid) - delta
        if fm == 0.0:
            break
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        nxt = 0.5 * (lo + hi)
        if nxt == mid or abs(hi - lo) <= 1e-17 * max(1.0, abs(mid)):
            break
        mid = nxt
    if not abs(gval(mid) - delta) <= ROOT_TOL:  # a NaN residual fails too
        raise BracketingError(delta, side)
    return float(mid)


def gravity_samples(curve: NumCurve, deltas) -> list[GravitySample]:
    """Chord midpoints one height and one side at a time."""
    f = curve.points[:, 0]
    out = []
    for delta in deltas:
        if delta <= 0:
            raise ValueError("chord height must be positive")
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
    """The sweep one base point at a time: renormalize, sample, judge."""
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
    if (spread <= KAPPA_SPREAD_TOL * scale) != all_straight:
        raise VerificationError(
            "corollary.cross_check",
            f"straight everywhere={all_straight} but curvature spread={spread:.3g}",
        )
    return all_straight
