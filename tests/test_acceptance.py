"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line
per criterion.
"""

import math
import random
import time
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest

from _oracles import (
    compose,
    const_series,
    invert_by_substitution,
    is_alternating,
    jet_value,
    kill_odd_derivatives,
    poly_compose_trunc,
    rational_coeffs,
)
from affgrav import (
    DiffPoly,
    KappaCurveSpec,
    ParametricCurveSpec,
    QR2Scalar,
    Series,
    bell,
    build_frame,
    build_pipeline,
    corollary_sweep,
    default_deltas,
    fit_flatness,
    gravity_samples,
    h_leading_law,
    integrate_from_kappa,
    lemma4_check,
    reparametrize_affine,
    straightness_test,
    theorem1_criterion,
    theorem2_symbolic,
    wronskian_drift,
)
from affgrav.expansion import component_series

k = DiffPoly.kappa
SQRT2 = QR2Scalar.sqrt2()


def report(n: int, text: str) -> None:
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_1_printed_coefficients():
    """Pipeline at N=8 reproduces every printed coefficient exactly."""
    build_pipeline.cache_clear()
    build_frame.cache_clear()
    t0 = time.perf_counter()
    pipe = build_pipeline(8)
    frame = build_frame(8)
    elapsed = time.perf_counter() - t0

    assert frame.phi[3] == -k(0) and frame.psi[3].is_zero
    assert frame.phi[4] == -k(1) and frame.psi[4] == -k(0)
    assert frame.phi[5] == -k(2) + k(0) * k(0) and frame.psi[5] == -2 * k(1)
    assert frame.phi[6] == -k(3) + 4 * k(0) * k(1)
    assert frame.psi[6] == -3 * k(2) + k(0) * k(0)
    assert frame.phi[7] == -k(4) + 4 * k(1) * k(1) + 7 * k(0) * k(2) - k(0) * k(0) * k(0)
    assert frame.psi[7] == -4 * k(3) + 6 * k(0) * k(1)
    assert frame.phi[8] == -k(5) + 15 * k(1) * k(2) + 11 * k(0) * k(3) - 9 * k(0) * k(0) * k(1)
    assert frame.psi[8] == -5 * k(4) + 10 * k(1) * k(1) + 13 * k(0) * k(2) - k(0) * k(0) * k(0)

    f, g, v, h = pipe.f, pipe.g, pipe.v, pipe.h
    assert [f[0], f[1], f[2]] == [DiffPoly.zero(), DiffPoly.constant(1), DiffPoly.zero()]
    assert f[3] == F(-1, 6) * k(0)
    assert f[4] == F(-1, 24) * k(1)
    assert f[5] == F(1, 120) * (-k(2) + k(0) * k(0))
    assert f[6] == F(1, 720) * (-k(3) + 4 * k(0) * k(1))
    assert [g[0], g[1], g[3]] == [DiffPoly.zero()] * 3
    assert g[2] == DiffPoly.constant(F(1, 2))
    assert g[4] == F(-1, 24) * k(0)
    assert g[5] == F(-1, 60) * k(1)
    assert g[6] == F(1, 720) * (-3 * k(2) + k(0) * k(0))
    assert [v[0], v[2]] == [DiffPoly.zero()] * 2
    assert v[1] == DiffPoly.constant(SQRT2)
    assert v[3] == DiffPoly.monomial(QR2Scalar(0, F(1, 12)), {0: 1})
    assert v[4] == F(1, 15) * k(1)
    assert v[5] == (8 * k(2) + 9 * k(0) * k(0)) * QR2Scalar(0, F(1, 480))
    assert v[6] == (2 * k(3) + 11 * k(0) * k(1)) * F(1, 315)
    assert [h[0], h[2]] == [DiffPoly.zero()] * 2
    assert h[1] == DiffPoly.constant(SQRT2)
    assert h[3] == DiffPoly.monomial(QR2Scalar(0, F(-1, 4)), {0: 1})
    assert h[4] == F(-1, 10) * k(1)
    assert h[5] == -(8 * k(2) + 15 * k(0) * k(0)) * QR2Scalar(0, F(1, 480))
    assert h[6] == -(k(3) + 9 * k(0) * k(1)) * F(1, 210)

    assert elapsed < 1.0
    report(1, f"all printed coefficients exact at N=8 ({elapsed:.3f} s)")


def test_criterion_2_lemma4_laws():
    """Leading laws, residual classes and induction identities to k=12."""
    build_pipeline.cache_clear()
    build_frame.cache_clear()
    t0 = time.perf_counter()
    f, g = component_series(build_frame(12))
    rep = lemma4_check(f, g)  # raises on any failure
    elapsed = time.perf_counter() - t0
    assert rep.order == 12
    f_rep, g_rep = f.explicitness(3), g.explicitness(4)
    for kk in range(3, 13):
        assert f_rep.leading[kk] == QR2Scalar(F(-1, factorial(kk)))
        assert g_rep.leading[kk] == QR2Scalar(F(-(kk - 3), factorial(kk)))
    assert elapsed < 5.0
    report(2, f"lemma-4 laws and induction identities exact to k=12 ({elapsed:.3f} s)")


def test_criterion_3_h_leading_law():
    """l_h[k] = -3 sqrt2^k/(k+1)! for 3 <= k <= 12 via both routes; the
    composition route is checked against the pipeline in criterion 4."""
    leads = h_leading_law(build_pipeline(12))  # checks h, u and v against closed forms
    for kk in range(3, 13):
        assert leads[kk] == QR2Scalar(-3) * SQRT2**kk * F(1, factorial(kk + 1))
    report(3, "leading coefficients of h exact to k=12 via both routes")


def test_criterion_4_lemma_property_suite():
    """Bell identity plus the three series lemmas, exact on pipeline and
    on 100 random constant-coefficient series."""
    # l! B_{k,l}(a) = k! [s^k] A^l, with A = sum a_i s^i / i! and A^l by Series.mul
    generic = [DiffPoly.zero()] + [k(i) for i in range(1, 10)]
    big_a = Series(a * F(1, factorial(i)) for i, a in enumerate(generic))
    power = big_a
    for l in range(1, 10):
        if l > 1:
            power = power.mul(big_a)
        for kk in range(l, 10):
            assert F(factorial(l)) * bell(kk, l, generic) == factorial(kk) * power[kk]

    pipe = build_pipeline(10)
    g_ext = component_series(build_frame(11))[1]
    u_rep = pipe.u.explicitness(3)
    v_rep = pipe.v.explicitness(3)
    h_rep = pipe.h.explicitness(3)
    g_rep = g_ext.explicitness(4)
    f_rep = pipe.f.explicitness(3)
    u1 = pipe.u[1].constant_value()
    v1 = pipe.v[1].constant_value()

    # square-root lemma on the pipeline: grading and leading law
    assert is_alternating(pipe.g, 4, 0)
    assert is_alternating(pipe.u, 3, 1)
    assert u_rep.is_explicit
    two_sqrt_a2 = 2 * QR2Scalar(F(1, 2)).sqrt()
    for kk in range(3, 11):
        assert u_rep.leading[kk] == g_rep.leading[kk + 1] / two_sqrt_a2

    # inverse lemma on the pipeline
    assert is_alternating(pipe.v, 3, 1)
    assert v_rep.is_explicit
    for kk in range(3, 11):
        assert v_rep.leading[kk] == -(u1 ** (-kk - 1)) * u_rep.leading[kk]

    # composition lemma on the pipeline
    assert is_alternating(pipe.h, 3, 1)
    assert h_rep.is_explicit
    for kk in range(3, 11):
        lh = v_rep.leading[kk] + v1**kk * f_rep.leading[kk]
        assert lh and h_rep.leading[kk] == lh

    # randomized constant-coefficient cases, fixed seed, all exact
    rng = random.Random(0)
    order = 8

    def random_alternating(n, sigma, force_zero=()):
        coeffs = []
        for kk in range(order + 1):
            if kk in force_zero or (kk + sigma) % 2 != 0:
                coeffs.append(F(0))
            else:
                coeffs.append(F(rng.randint(-6, 6), rng.randint(1, 4)))
        return coeffs

    cases = {"sqrt": 0, "compose": 0, "inverse": 0}
    for case in range(100):
        kind = ("sqrt", "compose", "inverse")[case % 3]
        cases[kind] += 1
        if kind == "sqrt":
            n = rng.choice([2, 4, 6])
            coeffs = random_alternating(n, 0, force_zero=(0, 1))
            r = F(rng.randint(1, 3), rng.randint(1, 3))
            coeffs[2] = r * r * rng.choice([1, 2])  # field square roots exist
            a = const_series(coeffs)
            b = a.sqrt() if rng.choice([1, -1]) > 0 else -a.sqrt()
            assert b.mul(b, order=order) == a
            assert is_alternating(b, n - 1, 1)
        elif kind == "compose":
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            sigma = rng.randint(0, 1)
            coeffs = random_alternating(n, 1, force_zero=(0,))
            coeffs[1] = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
            b = const_series(random_alternating(m, sigma, force_zero=(0,)))
            chi = const_series(coeffs).compositional_inverse(b)[1]
            assert is_alternating(chi, min(n + 1, m), sigma)
            a_inv = invert_by_substitution(coeffs, order)
            assert rational_coeffs(chi) == poly_compose_trunc(rational_coeffs(b), a_inv, order)
        else:
            n = rng.randint(1, 4)
            coeffs = random_alternating(n, 1, force_zero=(0,))
            coeffs[1] = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
            a = const_series(coeffs)
            (b,) = a.compositional_inverse()
            assert compose(a, b) == Series.identity(order)
            assert compose(b, a) == Series.identity(order)
            assert is_alternating(b, n, 1)
    assert sum(cases.values()) == 100
    report(4, f"Bell identity to k=9 and lemma suite exact on pipeline + {sum(cases.values())} random series")


def test_criterion_5_symbolic_theorems():
    """Exact flatness coefficient and straight-line triangularity."""
    assert theorem1_criterion(build_pipeline(6)) == F(-1, 10) * k(1)
    assert theorem2_symbolic(build_pipeline(12))
    pipe = build_pipeline(12)
    leads = pipe.h.explicitness(3).leading
    for kk in range(0, 13, 2):
        assert kill_odd_derivatives(pipe.h[kk]).is_zero
        if kk >= 4:
            # after forcing lower odd derivatives to zero, the coefficient
            # pins down exactly the next odd derivative
            reduced = pipe.h[kk].substitute_partial({o: 0 for o in range(1, kk - 3, 2)})
            assert reduced == DiffPoly.monomial(leads[kk], {kk - 3: 1})
            assert leads[kk]
    report(5, "theorem criteria exact: quartic term and even-coefficient triangularity to k=12")


def test_criterion_6_numeric_flatness():
    """Fitted quadratic coefficient matches the symbolic prediction."""
    t0 = time.perf_counter()
    deltas = default_deltas()

    linear = integrate_from_kappa(KappaCurveSpec(lambda s: s, half_width=1.0))
    res = fit_flatness(gravity_samples(linear, 0.0, deltas), kappa_prime_p=1.0)
    assert res.fit_coeffs[1] == pytest.approx(-0.100, abs=0.005)

    cubic = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s**3, half_width=1.0))
    cubic_samples = gravity_samples(cubic, 0.0, deltas)
    res = fit_flatness(cubic_samples, kappa_prime_p=0.0)
    assert abs(res.fit_coeffs[1]) <= 1e-3
    assert res.is_flat
    _, straight = straightness_test(cubic_samples)
    assert not straight
    (probe,) = gravity_samples(cubic, 0.0, [0.01])
    assert probe.midpoint_x / 0.01**3 == pytest.approx(-6 / 210, rel=0.20)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"numeric flatness: b=-0.100 +/- 0.005 for linear curvature, cubic case flat but bent ({elapsed:.2f} s)")


def test_criterion_7_numeric_corollary():
    """Conic fixtures are straight at every base point, an even
    non-constant curvature only at its center."""
    t0 = time.perf_counter()
    base_points = [float(p) for p in np.linspace(-0.5, 0.5, 8)]
    deltas = default_deltas()
    tol = 1e-6 * max(deltas)

    fixtures = {
        "parabola": ParametricCurveSpec(lambda u: (u, u * u / 2), (-1.0, 1.0)),
        "circle": ParametricCurveSpec(lambda u: (np.cos(u), np.sin(u)), (-1.0, 1.0)),
        "ellipse(2,1)": ParametricCurveSpec(
            lambda u: (2 * np.cos(u), np.sin(u)), (-1.0, 1.0)
        ),
        "hyperbola": ParametricCurveSpec(
            lambda u: (np.cosh(u), -np.sinh(u)), (-1.0, 1.0)
        ),
    }
    for name, spec in fixtures.items():
        curve = reparametrize_affine(spec)
        assert corollary_sweep(curve, base_points, deltas), name
        for p in base_points:
            dev, _ = straightness_test(gravity_samples(curve, p, deltas))
            assert dev <= tol, (name, p, dev)

    bump = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s * s, half_width=1.0))
    assert not corollary_sweep(bump, base_points, deltas)
    for p in base_points:
        _, ok = straightness_test(gravity_samples(bump, p, deltas))
        assert ok == (abs(p) < 1e-12), p

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, f"corollary sweep: conics straight at 8 base points, even bump only at center ({elapsed:.2f} s)")


def test_criterion_8_series_numeric_cross_validation():
    """Integrated components match symbolic Taylor values to 1e-11."""
    pipe = build_pipeline(10)
    fixtures = [
        (lambda s: s, {1: 1.0}),
        (lambda s: 1 + s**3, {0: 1.0, 3: 6.0}),
        (lambda s: 1 + s * s, {0: 1.0, 2: 2.0}),
    ]
    worst = 0.0
    for fn, nonzero in fixtures:
        assign = {i: 0.0 for i in range(11)} | nonzero
        curve = integrate_from_kappa(KappaCurveSpec(fn, half_width=1.0), step=1e-3)
        assert wronskian_drift(curve) <= 1e-8
        i = curve.index_of(0.1)
        taylor = [
            sum(jet_value(c, assign) * 0.1**k for k, c in enumerate(series))
            for series in (pipe.f, pipe.g)
        ]
        f_err, g_err = abs(curve.points[i] - taylor)
        worst = max(worst, f_err, g_err)
        assert f_err <= 1e-11 and g_err <= 1e-11
    report(8, f"series/numeric agreement at s=0.1 within 1e-11 (worst {worst:.2e}), drift <= 1e-8")
