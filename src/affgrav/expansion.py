"""Symbolic expansion pipeline for a curve in affine arclength.

Starting from the frame recursion for the derivative decomposition
``c^(k) = phi_k c' + psi_k c''`` the pipeline produces the component
expansions f, g of the curve, the square root u of g, its compositional
inverse v, the composition h = f(v), and the even part of h, which is
the horizontal component of the chord-midpoint curve at the base point.

All coefficients are exact differential polynomials, so the structure
results (leading coefficient laws, parity grading, the flatness and
straightness criteria) can be checked by identity rather than numerics.

Every sqrt2 in the pipeline comes from g_2 = 1/2.  Substituting
s = sqrt2 * t makes the whole construction rational: U = sqrt(2g) has
U_1 = 1, V = U^(-1) and H = f(V) have rational coefficients, and the
published series follow as u = U / sqrt2, v_k = sqrt2^k V_k and
h_k = sqrt2^k H_k.  ``build_pipeline`` computes U, V, H with the same
``Series`` operations it publishes and applies sqrt2 once, when it
assembles the ``Pipeline``, which keeps the order-(N + 1) component
series f_full and g_full it took them from: the verifier checks Lemma 4
on those, so a run derives f and g once.  The power table U, U^2, ...
of the inversion starts from G = 2g, of which U is the square root, so
U*U is never formed.

The identity checks judge what they are handed: ``lemma4_check`` the
component series f and g, and ``wronskian_series``, ``h_leading_law``,
``theorem1_criterion`` and ``theorem2_symbolic`` a ``Pipeline``, whose
``order`` bounds them.
None of them builds a frame or a pipeline, so a caller can check a
pipeline it already holds, or one with a fault put in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .defaults import DEFAULT_ORDER, MAX_ORDER, MIN_ORDER
from .diffpoly import DiffPoly, GradedClass
from .errors import VerificationError
from .powerseries import Series
from .scalar import QR2Scalar, _scalar

__all__ = [
    "FrameCoefficients",
    "Pipeline",
    "Lemma4Report",
    "build_frame",
    "build_pipeline",
    "wronskian_series",
    "lemma4_check",
    "h_leading_law",
    "theorem1_criterion",
    "theorem2_symbolic",
    "DEFAULT_ORDER",
    "MIN_ORDER",
    "MAX_ORDER",
]


@dataclass(frozen=True)
class FrameCoefficients:
    """Decomposition coefficients phi_k, psi_k of the k-th derivative
    against the frame (c', c''); index 0 is padding and stays zero."""

    order: int
    phi: tuple[DiffPoly, ...]
    psi: tuple[DiffPoly, ...]


@dataclass(frozen=True)
class Pipeline:
    """Pipeline series truncated at order N, and the order-(N+1) component
    series f_full, g_full they come from (f and g are their truncations)."""

    order: int
    f_full: Series
    g_full: Series
    f: Series
    g: Series
    u: Series
    v: Series
    h: Series
    gravity_x: Series


def _kappa_or_zero(order: int) -> DiffPoly:
    return DiffPoly.kappa(order) if order >= 0 else DiffPoly.zero()


@lru_cache(maxsize=None)
def build_frame(order: int, corrupt: bool = False) -> FrameCoefficients:
    """Frame coefficients up to the given derivative order (>= 2).

    The recursion is phi[k+1] = phi[k]' - kappa * psi[k] and
    psi[k+1] = psi[k]' + phi[k].  ``corrupt`` flips the kappa sign in
    the phi step; it exists only as a fault-injection hook for the
    verifier self-test.
    """
    if order < 2:
        raise ValueError("frame needs order >= 2")
    zero = DiffPoly.zero()
    one = DiffPoly.constant(1)
    kappa = DiffPoly.kappa(0)
    phi = [zero, one, zero]
    psi = [zero, zero, one]
    sign = 1 if corrupt else -1
    for k in range(2, order):
        phi.append(phi[k].differentiate() + sign * kappa * psi[k])
        psi.append(psi[k].differentiate() + phi[k])
    return FrameCoefficients(order=order, phi=tuple(phi), psi=tuple(psi))


def component_series(frame: FrameCoefficients) -> tuple[Series, Series]:
    """The expansions (f, g) with coefficients phi_k / k! and psi_k / k!."""
    f = Series(
        [frame.phi[k] * Fraction(1, factorial(k)) for k in range(frame.order + 1)]
    )
    g = Series(
        [frame.psi[k] * Fraction(1, factorial(k)) for k in range(frame.order + 1)]
    )
    return f, g


@lru_cache(maxsize=None)
def build_pipeline(order: int = DEFAULT_ORDER) -> Pipeline:
    """Build every pipeline series exactly through the given order.

    Internally the frame is taken one order higher so that the square
    root, which loses one order, still reaches the requested truncation.
    The square root, inversion and composition run on the rational
    series U, V, H of the module docstring.  V and H come from one
    triangular solve against the power table of U: V(U(s)) = s and
    H(U(s)) = f(s).  The table starts from G = 2g, which U = sqrt(G)
    squares to through order N + 1.
    """
    if order < MIN_ORDER:
        raise ValueError(f"pipeline needs order >= {MIN_ORDER}")
    f_full, g_full = component_series(build_frame(order + 1))
    big_g = g_full.scale(2)
    big_u = big_g.sqrt()
    big_v, big_h = big_u.compositional_inverse(f_full, square=big_g)
    sqrt2 = QR2Scalar.sqrt2()
    h = big_h.dilate(sqrt2)
    return Pipeline(
        order=order,
        f_full=f_full,
        g_full=g_full,
        f=f_full.truncate(order),
        g=g_full.truncate(order),
        u=big_u.scale(QR2Scalar(0, Fraction(1, 2))),
        v=big_v.dilate(sqrt2),
        h=h,
        gravity_x=h.even_part(),
    )


def wronskian_series(pipe: Pipeline) -> Series:
    """The series f' g'' - f'' g' of a pipeline, the frame determinant
    along the curve, exact through order N - 2.

    Raises VerificationError unless it is the constant series 1;
    returns it otherwise.
    """
    d1f, d1g = pipe.f.s_derivative(), pipe.g.s_derivative()
    d2f, d2g = d1f.s_derivative(), d1g.s_derivative()
    w = d1f.mul(d2g) - d2f.mul(d1g)
    if w[0] != 1 or any(w[i] for i in range(1, w.order + 1)):
        raise VerificationError("wronskian.series", f"got {w.to_strings()}")
    return w


@dataclass(frozen=True)
class Lemma4Report:
    """The scaled residuals of the component series f and g."""

    order: int
    p_residuals: tuple[DiffPoly, ...]   # p[k] = k! f_k + kappa^(k-3)
    q_residuals: tuple[DiffPoly, ...]   # q[k] = k! g_k + (k-3) kappa^(k-4)


def lemma4_check(f: Series, g: Series) -> Lemma4Report:
    """Verify the explicit shape of the component series f and g of a
    frame, ``component_series(frame)``.

    Checks, for every k up to their order: the leading laws
    l_f[k] = -1/k! and l_g[k] = -(k-3)/k!, read as the coefficients of
    k(k-3) in f_k and k(k-4) in g_k; the residual classes p_k in P^(k-5)
    and q_k in P^(k-6); and the recursion-induced identities between
    consecutive residuals.  Raises VerificationError naming the first
    failing item, and ValueError when f and g differ in order.  The
    verifier passes the f_full and g_full of ``build_pipeline(N)``, so
    it derives them once.

    f and g are then 3- and 4-explicit, with no explicitness report
    taken: the leading laws are nonzero from k = 3 and k = 4, and P^(k-5)
    and P^(k-6) lie strictly inside the residual classes that
    explicitness tests, with the same parity.
    """
    order = f.order
    if g.order != order:
        raise ValueError(f"f and g must have one order, got {order} and {g.order}")
    for k in range(3, order + 1):
        lead = f[k].coefficient_of({k - 3: 1})
        expect = QR2Scalar(Fraction(-1, factorial(k)))
        if lead != expect:
            raise VerificationError("lemma4.leading.f", f"k={k}: got {lead}, want {expect}")
    for k in range(4, order + 1):
        lead = g[k].coefficient_of({k - 4: 1})
        expect = QR2Scalar(Fraction(-(k - 3), factorial(k)))
        if lead != expect:
            raise VerificationError("lemma4.leading.g", f"k={k}: got {lead}, want {expect}")

    p = [f[k] * factorial(k) + _kappa_or_zero(k - 3) for k in range(order + 1)]
    q = [
        g[k] * factorial(k) + Fraction(k - 3) * _kappa_or_zero(k - 4)
        for k in range(order + 1)
    ]
    kappa = DiffPoly.kappa(0)
    for k in range(order + 1):
        if not p[k].in_class(GradedClass(k - 5, k + 1)):
            raise VerificationError("lemma4.residual.f", f"p_{k} = {p[k]} not in P^{k-5}")
        if not q[k].in_class(GradedClass(k - 6, k)):
            raise VerificationError("lemma4.residual.g", f"q_{k} = {q[k]} not in P^{k-6}")
    # recursion identities; below k = 4 the vanished negative-order terms
    # make the formal bookkeeping differ, so start where all orders exist
    for k in range(4, order + 1):
        want_p = (
            p[k - 1].differentiate()
            + Fraction(k - 4) * kappa * _kappa_or_zero(k - 5)
            - kappa * q[k - 1]
        )
        if p[k] != want_p:
            raise VerificationError(
                "lemma4.induction.p", f"k={k}: p_k = {p[k]}, recursion gives {want_p}"
            )
    for k in range(3, order + 1):
        want_q = q[k - 1].differentiate() + p[k - 1]
        if q[k] != want_q:
            raise VerificationError(
                "lemma4.induction.q", f"k={k}: q_k = {q[k]}, recursion gives {want_q}"
            )
    return Lemma4Report(order=order, p_residuals=tuple(p), q_residuals=tuple(q))


def _leading_laws(k: int) -> tuple[QR2Scalar, QR2Scalar, QR2Scalar]:
    """The coefficients (l_h[k], l_u[k], l_v[k]) of k(k-3) in h_k, u_k and
    v_k for k >= 3, each built as one exact scalar:

    - l_h[k] = -3 sqrt2^k / (k+1)!
    - l_u[k] = l_g[k+1] / sqrt2 = -(k-2) sqrt2 / (2 (k+1)!), the square-root
      step, since g2 = 1/2 and Lemma 4 gives l_g[k+1] = -(k-2)/(k+1)!
    - l_v[k] = -u1^(-k-1) l_u[k] = (k-2) sqrt2^k / (k+1)!, the inverse step,
      since u1 = 1/sqrt2
    """
    den = factorial(k + 1)
    half, bit = k >> 1, k & 1  # sqrt2^k = 2^half * sqrt2^bit
    return (
        _scalar(Fraction(-3 << half, den), bit),
        _scalar(Fraction(-(k - 2), 2 * den), 1),
        _scalar(Fraction((k - 2) << half, den), bit),
    )


def h_leading_law(pipe: Pipeline) -> list[QR2Scalar]:
    """Leading coefficients of a pipeline's h, with those of u and v.

    Returns the list l_h[0..N], where l_h[k] is the coefficient of
    k(k-3) in h_k: 0 for k < 3 and -3 sqrt(2)^k / (k+1)! from there.
    Checks the values read off h, u and v against closed forms, one
    exact scalar each (``_leading_laws``): l_h's own, and the square-root
    and inverse steps from Lemma 4's law l_g[k+1] = -(k-2)/(k+1)!, which
    ``lemma4_check`` checks on the pipeline's g_full.  Raises
    VerificationError.
    """
    sqrt2 = QR2Scalar.sqrt2()
    u1 = QR2Scalar(0, Fraction(1, 2))
    got = (pipe.u[1], pipe.v[1], pipe.f[1])
    if got != tuple(map(DiffPoly.constant, (u1, sqrt2, 1))):
        raise VerificationError("hlaw.setup", "u1={}, v1={}, f1={}".format(*got))

    leads = [QR2Scalar(0)] * 3
    for k in range(3, pipe.order + 1):
        lh = pipe.h[k].coefficient_of({k - 3: 1})
        expect, lu, lv = _leading_laws(k)
        if lh != expect:
            raise VerificationError("hlaw.extracted", f"k={k}: got {lh}, want {expect}")
        got_u = pipe.u[k].coefficient_of({k - 3: 1})
        if got_u != lu:
            raise VerificationError("hlaw.sqrt_step", f"k={k}: got {got_u}, want {lu}")
        got_v = pipe.v[k].coefficient_of({k - 3: 1})
        if got_v != lv:
            raise VerificationError("hlaw.inverse_step", f"k={k}: got {got_v}, want {lv}")
        leads.append(lh)
    return leads


def theorem1_criterion(pipe: Pipeline) -> DiffPoly:
    """The quartic coefficient of a pipeline's h, which controls flatness.

    Asserts the exact value -k1/10 and returns it; a base point gives a
    flat chord-midpoint curve exactly when this evaluates to zero, i.e.
    when the curvature has vanishing derivative there.
    """
    expect = DiffPoly.monomial(Fraction(-1, 10), {1: 1})
    if pipe.h[4] != expect:
        raise VerificationError("theorem1.h4", f"h_4 = {pipe.h[4]}, want {expect}")
    return pipe.h[4]


def theorem2_symbolic(pipe: Pipeline) -> bool:
    """Check both directions of the straight-line characterization on a
    pipeline's h through its order, by degree parity: every even-index
    coefficient h_k lies in Q^(k-3), which is {0} for k < 4.  Structural
    direction: each monomial of a Q-class member has odd odd-degree, so
    it carries an odd derivative and h_k dies when the curvature is even
    about the base point.  Induction direction: for k >= 4, h_k is a
    nonzero constant times k(k-3) plus a residual in Q^(k-4), which dies
    once the odd derivatives below k-3 vanish, so h_k = 0 then pins
    k(k-3) = 0.  Raises VerificationError with a counterexample on
    failure; returns True otherwise.
    """
    report = pipe.h.explicitness(3)
    for k in range(0, pipe.order + 1, 2):
        cls = GradedClass(k - 3, 1)
        if not pipe.h[k].in_class(cls):
            terms = pipe.h[k].monomials()
            outside = [m for m in terms if not DiffPoly({m.exponents: m.coeff}).in_class(cls)]
            raise VerificationError(
                "theorem2.low_order" if k < 4 else "theorem2.structural",
                f"h_{k} has terms outside {cls}: {' + '.join(map(str, outside))}",
            )
        if k >= 4 and not report.leading[k]:
            raise VerificationError("theorem2.leading", f"l_h[{k}] vanishes")
        if not report.residual_ok[k]:
            raise VerificationError(
                "theorem2.triangular",
                f"h_{k} residual {report.residuals[k]} is not in {GradedClass(k - 4, 1)}",
            )
    return True
