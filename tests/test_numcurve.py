import math
import tracemalloc

import numpy as np
import pytest

import _oracles as oracle
from affgrav import (
    BracketingError,
    DegenerateCurveError,
    KappaCurveSpec,
    NumCurve,
    ParametricCurveSpec,
    VerificationError,
    affine_curvature,
    build_curve,
    build_pipeline,
    corollary_sweep,
    default_deltas,
    fit_flatness,
    gravity_samples,
    integrate_from_kappa,
    numcurve,
    renormalize,
    reparametrize_affine,
    straightness_test,
    wronskian_drift,
)
from affgrav.cli import _CONICS, parse_fixture
from affgrav.defaults import STRAIGHT_TOL_FLOOR
from affgrav.numcurve import _cumulative_simpson, _interp_table, _lagrange, _windows


def poly_kappa_assign(coeffs, order=10):
    """Derivative values at 0 of kappa(s) = sum c_i s^i."""
    assign = {i: 0.0 for i in range(order + 1)}
    for i, c in enumerate(coeffs):
        if i <= order:
            assign[i] = math.factorial(i) * c
    return assign


@pytest.fixture(scope="module")
def parabola_curve():
    return integrate_from_kappa(KappaCurveSpec(lambda s: 0.0, half_width=1.0))


@pytest.fixture(scope="module")
def circle_param():
    spec = ParametricCurveSpec(lambda u: (np.cos(u), np.sin(u)), (-1.0, 1.0))
    return reparametrize_affine(spec)


class TestIntegration:
    def test_zero_curvature_is_exact_parabola(self, parabola_curve):
        cur = parabola_curve
        expect = np.column_stack([cur.grid, cur.grid**2 / 2])
        assert np.max(np.abs(cur.points - expect)) < 1e-12
        assert wronskian_drift(cur) < 1e-12

    def test_unit_curvature_closed_form(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1.0, half_width=1.0))
        i = cur.index_of(1.0)
        expect = np.array([math.sin(1.0), 1.0 - math.cos(1.0)])
        assert np.max(np.abs(cur.points[i] - expect)) < 1e-8

    def test_linear_curvature_matches_series(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: s, half_width=0.5))
        pipe = build_pipeline(10)
        assign = poly_kappa_assign([0.0, 1.0])
        i = cur.index_of(0.1)
        for axis, series in enumerate((pipe.f, pipe.g)):
            taylor = sum(oracle.jet_value(c, assign) * 0.1**k for k, c in enumerate(series))
            assert cur.points[i, axis] == pytest.approx(taylor, abs=1e-11)

    def test_wronskian_drift_budget(self):
        for coeffs in ([0.0, 1.0], [1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0]):
            fn = lambda s, c=coeffs: sum(ci * s**i for i, ci in enumerate(c))
            cur = integrate_from_kappa(KappaCurveSpec(fn, half_width=1.0))
            assert wronskian_drift(cur) <= 1e-8

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            integrate_from_kappa(KappaCurveSpec(lambda s: 0.0), step=-1e-3)
        with pytest.raises(ValueError):
            integrate_from_kappa(KappaCurveSpec(lambda s: 0.0, half_width=1e-9))


class TestReparametrization:
    def test_circle_is_already_affine_arclength(self, circle_param):
        assert wronskian_drift(circle_param) < 1e-10
        assert affine_curvature(circle_param, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert affine_curvature(circle_param, 0.3) == pytest.approx(1.0, abs=1e-6)

    def test_parabola_identity_reparametrization(self):
        spec = ParametricCurveSpec(lambda u: (u, u * u / 2), (-1.0, 1.0))
        cur = reparametrize_affine(spec)
        expect = np.column_stack([cur.grid, cur.grid**2 / 2])
        assert np.max(np.abs(cur.points - expect)) < 1e-10

    def test_ellipse_constant_curvature(self):
        spec = ParametricCurveSpec(lambda u: (2 * np.cos(u), np.sin(u)), (-1.0, 1.0))
        cur = reparametrize_affine(spec)
        expect = 2.0 ** (-2.0 / 3.0)
        for s in (-0.4, 0.0, 0.5):
            assert affine_curvature(cur, s) == pytest.approx(expect, abs=1e-6)

    def test_hyperbola_negative_curvature(self):
        spec = ParametricCurveSpec(lambda u: (np.cosh(u), -np.sinh(u)), (-1.0, 1.0))
        cur = reparametrize_affine(spec)
        assert affine_curvature(cur, 0.0) == pytest.approx(-1.0, abs=1e-6)

    def test_plot_is_evaluated_once_per_point(self):
        # 4 + 5 stencil points per table node; per grid node the point
        # itself and 4 + 4 + 6 stencil points, the second derivative
        # reusing the point
        spec, _ = parse_fixture("ellipse:2,1")
        calls = points = 0

        def counting_xy(u):
            nonlocal calls, points
            calls += 1
            points += np.size(u)
            return spec.xy(u)

        cur = reparametrize_affine(ParametricCurveSpec(counting_xy, spec.domain))
        assert points == 9 * 4001 + 15 * len(cur)
        # one call per stencil and one for the points: 2 on the table, 4 on the grid
        assert calls <= 6

    @pytest.mark.parametrize("name", sorted(_CONICS))
    def test_array_plot_equals_scalar_math_plot(self, name):
        # on every abscissa array reparametrize_affine hands the plot: the
        # stencils on the parameter table and the point and stencils on the grid
        spec, _ = parse_fixture(name)
        seen = []

        def recording_xy(u):
            seen.append(u)
            return spec.xy(u)

        reparametrize_affine(ParametricCurveSpec(recording_xy, spec.domain))
        scalar = oracle.CONIC_PLOTS[name]
        for u in seen:
            x, y = spec.xy(u)
            ref = np.array([scalar(v) for v in u.ravel().tolist()])
            assert x.shape == y.shape == u.shape
            assert np.array_equal(x.ravel(), ref[:, 0]) and np.array_equal(y.ravel(), ref[:, 1])

    def test_every_conic_has_a_scalar_oracle(self):
        assert set(oracle.CONIC_PLOTS) == set(_CONICS)

    def test_degenerate_orientation_rejected(self):
        spec = ParametricCurveSpec(lambda u: (np.cosh(u), np.sinh(u)), (-1.0, 1.0))
        with pytest.raises(DegenerateCurveError):
            reparametrize_affine(spec)

    def test_normalized_frame_at_base_point(self, circle_param):
        i = circle_param.index_of(0.0)
        assert np.allclose(circle_param.points[i], [0.0, 0.0], atol=1e-14)
        assert np.allclose(circle_param.d1[i], [1.0, 0.0], atol=1e-12)
        assert np.allclose(circle_param.d2[i], [0.0, 1.0], atol=1e-12)


class TestAffineCurvature:
    def test_parabola_zero(self, parabola_curve):
        for s in (-0.5, 0.0, 0.7):
            assert abs(affine_curvature(parabola_curve, s)) < 1e-10

    def test_round_trip_prescribed_curvature(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s * s, half_width=1.0))
        assert affine_curvature(cur, 0.5) == pytest.approx(1.25, abs=1e-4)

    def test_boundary_guard(self, parabola_curve):
        with pytest.raises(ValueError):
            affine_curvature(parabola_curve, parabola_curve.grid[-1])

    @pytest.mark.parametrize("s", [1e308, -math.inf, math.inf, math.nan])
    def test_far_off_grid_is_refused_before_rounding(self, parabola_curve, s):
        # a ValueError, not an OverflowError after an overflow warning or
        # a NaN-to-integer error; in a sweep it surfaces at that point
        with pytest.raises(ValueError, match="outside grid"):
            renormalize(parabola_curve, s)
        with pytest.raises(ValueError, match="too close to the grid boundary"):
            affine_curvature(parabola_curve, s)
        rows = []
        with pytest.raises(ValueError, match="outside grid"):
            corollary_sweep(parabola_curve, [0.0, s, 0.1], rows=rows)
        assert [p for p, _, _ in rows] == [0.0]


class TestGravitySampling:
    def test_parabola_midpoints_vanish(self, parabola_curve):
        samples = gravity_samples(parabola_curve, 0.0, default_deltas())
        for s in samples:
            assert s.s_minus == pytest.approx(-math.sqrt(2 * s.delta), abs=1e-9)
            assert s.s_plus == pytest.approx(math.sqrt(2 * s.delta), abs=1e-9)
            assert abs(s.midpoint_x) <= 1e-15
        assert straightness_test(samples)[1]

    def test_roots_sit_on_chord(self, circle_param):
        g = circle_param.points[:, 1]
        for s in gravity_samples(circle_param, 0.0, [0.01, 0.05]):
            for root in (s.s_minus, s.s_plus):
                i = circle_param.index_of(round(root / circle_param.step) * circle_param.step)
                assert g[i] == pytest.approx(s.delta, abs=2 * circle_param.step)

    def test_circle_chord_midpoints_on_diameter(self, circle_param):
        (sample,) = gravity_samples(circle_param, 0.0, [0.1])
        assert abs(sample.midpoint_x) <= 1e-9

    def test_linear_curvature_matches_series_prediction(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: s, half_width=1.0))
        (sample,) = gravity_samples(cur, 0.0, [0.01])
        # quartic coefficient of the expansion dominates: x ~ -delta^2/10
        assert sample.midpoint_x == pytest.approx(-1e-5, rel=0.2)

    def test_gravity_matches_symbolic_series(self):
        pipe = build_pipeline(10)
        assign = poly_kappa_assign([1.0, 0.0, 0.0, 1.0])
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s**3, half_width=1.0))
        for delta in (1e-3, 1e-2, 1e-1):
            (sample,) = gravity_samples(cur, 0.0, [delta])
            symbolic = sum(
                oracle.jet_value(pipe.gravity_x[k], assign) * delta ** (k / 2)
                for k in range(0, pipe.order + 1, 2)
            )
            assert sample.midpoint_x == pytest.approx(symbolic, rel=0.05)

    def test_bracketing_failure(self, parabola_curve):
        with pytest.raises(BracketingError):
            gravity_samples(parabola_curve, 0.0, [10.0])

    @pytest.mark.parametrize("offset", [1, -2])
    def test_nan_in_the_cell_window_fails_the_root(self, offset):
        # A NaN node in the window of the root's cell makes the residual
        # NaN; it must fail the root check, not return the cell's lower
        # node.  At offset -2 the bracket ends, read off the table, stay
        # finite.
        local = renormalize(integrate_from_kappa(KappaCurveSpec(lambda s: 0.0 * s)), 0.0)
        c = local.index_of(0.0)
        first = c + 1 + int(np.argmax(local.points[c + 1 :, 1] >= 1e-3))
        points = local.points.copy()
        points[first + offset, 1] = np.nan
        bad = NumCurve(grid=local.grid, points=points, d1=local.d1, d2=local.d2, step=local.step)
        with pytest.raises(BracketingError, match="right side"):
            gravity_samples(bad, 0.0, [1e-3])
        with pytest.raises(BracketingError, match="right side"):
            oracle.gravity_samples(bad, [1e-3])

    def test_rejects_nonpositive_height(self, parabola_curve):
        with pytest.raises(ValueError):
            gravity_samples(parabola_curve, 0.0, [0.0])

    def test_rejects_a_grid_below_four_nodes(self):
        # no cell of a 3-node grid has a four-node window
        tiny = integrate_from_kappa(KappaCurveSpec(lambda s: 0.0 * s), step=1.0)
        with pytest.raises(ValueError, match="at least 4 nodes"):
            gravity_samples(tiny, 0.0, [0.1])


class TestFlatness:
    def test_linear_curvature(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: s, half_width=1.0))
        res = fit_flatness(gravity_samples(cur, 0.0, default_deltas()), kappa_prime_p=1.0)
        assert res.fit_coeffs[1] == pytest.approx(-0.1, abs=0.005)
        assert res.predicted_b == -0.1
        assert not res.is_flat

    def test_cubic_curvature_is_flat(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s**3, half_width=1.0))
        res = fit_flatness(gravity_samples(cur, 0.0, default_deltas()), kappa_prime_p=0.0)
        assert abs(res.fit_coeffs[1]) <= 1e-3
        assert res.is_flat

    def test_constant_curvature(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1.0, half_width=1.0))
        res = fit_flatness(gravity_samples(cur, 0.0, default_deltas()), kappa_prime_p=0.0)
        assert res.is_flat

    def test_prediction_mismatch_raises(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: s, half_width=1.0))
        with pytest.raises(VerificationError):
            fit_flatness(gravity_samples(cur, 0.0, default_deltas()), kappa_prime_p=-1.0)

    def test_needs_enough_samples(self, parabola_curve):
        samples = gravity_samples(parabola_curve, 0.0, default_deltas(count=4))
        with pytest.raises(ValueError):
            fit_flatness(samples, kappa_prime_p=0.0)


class TestStraightness:
    def test_even_curvature_straight_at_center(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s * s, half_width=1.0))
        dev, ok = straightness_test(gravity_samples(cur, 0.0, default_deltas()))
        assert ok and dev < 1e-8

    def test_cubic_curvature_not_straight(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s**3, half_width=1.0))
        samples = gravity_samples(cur, 0.0, default_deltas())
        dev, ok = straightness_test(samples)
        assert not ok
        (probe,) = gravity_samples(cur, 0.0, [0.01])
        assert probe.midpoint_x / 0.01**3 == pytest.approx(-6 / 210, rel=0.2)

    def test_even_curvature_not_straight_off_center(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s * s, half_width=1.0))
        dev, ok = straightness_test(gravity_samples(cur, 0.25, default_deltas()))
        assert not ok


class TestCorollarySweep:
    BASE_POINTS = [float(p) for p in np.linspace(-0.5, 0.5, 8)]

    def test_ellipse(self):
        spec = ParametricCurveSpec(lambda u: (2 * np.cos(u), np.sin(u)), (-1.0, 1.0))
        assert corollary_sweep(reparametrize_affine(spec), self.BASE_POINTS)

    def test_hyperbola(self):
        spec = ParametricCurveSpec(lambda u: (np.cosh(u), -np.sinh(u)), (-1.0, 1.0))
        assert corollary_sweep(reparametrize_affine(spec), self.BASE_POINTS)

    def test_even_curvature_fails_sweep(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s * s, half_width=1.0))
        assert not corollary_sweep(cur, self.BASE_POINTS)

    def test_straight_at_center_only(self):
        cur = integrate_from_kappa(KappaCurveSpec(lambda s: 1 + s * s, half_width=1.0))
        deltas = default_deltas()
        for p in self.BASE_POINTS:
            _, ok = straightness_test(gravity_samples(cur, p, deltas))
            assert ok == (abs(p) < 1e-9)

    @pytest.mark.parametrize(
        "fixture",
        ["parabola", "circle", "ellipse:2,1", "hyperbola", "kappa-poly:1", "kappa-poly:0"],
    )
    def test_roundoff_floor_lies_below_every_conic(self, fixture):
        # at vanishing heights max_dev stops at the residual slope of g at
        # the base node; a sweep tolerance at the floor is never one that
        # a conic could have met
        curve = build_curve(parse_fixture(fixture)[0])
        deltas = default_deltas(1e-15)
        devs = [
            straightness_test(gravity_samples(curve, p, deltas))[0]
            for p in self.BASE_POINTS
        ]
        assert max(devs) >= STRAIGHT_TOL_FLOOR


class TestAffineInvariance:
    MAPS = [
        (np.array([[2.0, 1.0], [3.0, 2.0]]), np.array([0.7, -1.3])),   # det 1
        (np.array([[0.5, 0.0], [4.0, 2.0]]), np.array([-2.0, 0.4])),   # det 1
        (np.array([[1.0, -1.5], [0.0, 1.0]]), np.array([0.0, 5.0])),   # det 1
    ]

    @pytest.mark.parametrize("mat,shift", MAPS)
    def test_curvature_and_verdicts_invariant(self, mat, shift):
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12

        def plain(u):
            return (2 * np.cos(u), np.sin(u))

        def mapped(u):
            x, y = plain(u)
            return (
                mat[0, 0] * x + mat[0, 1] * y + shift[0],
                mat[1, 0] * x + mat[1, 1] * y + shift[1],
            )

        cur0 = reparametrize_affine(ParametricCurveSpec(plain, (-1.0, 1.0)))
        cur1 = reparametrize_affine(ParametricCurveSpec(mapped, (-1.0, 1.0)))
        for s in (-0.3, 0.0, 0.4):
            assert abs(affine_curvature(cur0, s) - affine_curvature(cur1, s)) <= 1e-6
        d0 = straightness_test(gravity_samples(cur0, 0.0, default_deltas()))
        d1 = straightness_test(gravity_samples(cur1, 0.0, default_deltas()))
        assert d0[1] == d1[1] is True


ORACLE_FIXTURES = [
    "parabola", "circle", "ellipse:2,1", "hyperbola", "kappa-poly:1,0,1", "kappa-poly:0.5,0.2,-0.3"
]
ORACLE_POINTS = [0.0, 0.3, -0.3]


@pytest.fixture(scope="module", params=ORACLE_FIXTURES)
def curve_pair(request):
    """The library's curve for a CLI fixture and the scalar oracle's."""
    spec, _ = parse_fixture(request.param)
    if isinstance(spec, KappaCurveSpec):
        return build_curve(spec), oracle.integrate_from_kappa(spec)
    return build_curve(spec), oracle.reparametrize_affine(spec)


def _outcome(fn, *args):
    """What a call returned or, for a chord-height, grid or cross-check
    error, what it raised."""
    try:
        return "ok", fn(*args)
    except BracketingError as exc:
        return "bracketing", exc.delta, exc.side
    except ValueError as exc:
        return "value", str(exc)
    except VerificationError as exc:
        return "verification", exc.check, exc.detail


def _sweep_points(count, start=-0.5):
    return [float(p) for p in np.linspace(start, 0.5, count)]


def _sweep_outcomes(curve, points, deltas):
    """The library's and the oracle's sweep: outcome and per-point rows."""
    got, want = [], []
    outcome = _outcome(corollary_sweep, curve, points, deltas, None, got)
    expected = _outcome(oracle.corollary_sweep, curve, points, deltas, None, want)
    return (outcome, got), (expected, want)


class TestScalarOracles:
    """The array kernels reproduce the scalar loops bit for bit."""

    def test_curve_matches_oracle(self, curve_pair):
        built, ref = curve_pair
        assert built.step == ref.step
        for name in ("grid", "points", "d1", "d2"):
            assert np.array_equal(getattr(built, name), getattr(ref, name)), name

    @pytest.mark.parametrize(
        "kappa",
        [lambda s: 0.0, lambda s: 1.0, parse_fixture("kappa-poly:0.5,0.2,-0.3")[0].kappa],
        ids=["zero", "one", "poly"],
    )
    @pytest.mark.parametrize("step,half_width", [(3e-3, 1.0), (7e-4, 1.0), (1e-3, 0.5)])
    def test_rk4_matches_oracle_at_other_steps(self, kappa, step, half_width):
        # a scalar curvature broadcasts over the stage abscissae
        spec = KappaCurveSpec(kappa, half_width=half_width)
        built, ref = integrate_from_kappa(spec, step), oracle.integrate_from_kappa(spec, step)
        for name in ("grid", "points", "d1", "d2"):
            assert np.array_equal(getattr(built, name), getattr(ref, name)), name

    @pytest.mark.parametrize("p", ORACLE_POINTS)
    def test_gravity_samples_match_oracle(self, curve_pair, p):
        built, _ = curve_pair
        deltas = default_deltas()
        assert gravity_samples(built, p, deltas) == oracle.gravity_samples(
            renormalize(built, p), deltas
        )

    def test_roots_far_from_the_base_point_match_oracle(self):
        # roots out to s = 40, where the oracle's collapse tolerance
        # 1e-17 max(1, |mid|) is 40 times the chord solve's 1e-17
        local = integrate_from_kappa(KappaCurveSpec(lambda s: 0.0, half_width=40.0), 1e-2)
        deltas = [0.6, 2.0, 50.0, 450.0, 799.0]
        got = gravity_samples(local, 0.0, deltas)
        assert min(s.s_plus for s in got) > 1.0 and max(s.s_plus for s in got) > 39.0
        assert got == oracle.gravity_samples(renormalize(local, 0.0), deltas)

    @pytest.mark.parametrize("p", ORACLE_POINTS)
    @pytest.mark.parametrize(
        "deltas",
        [
            list(default_deltas(0.01, 1.6, 10)),
            list(default_deltas(0.4)),
            [10.0, 0.02],
            [0.02, 0.3, 0.5, 0.7, 0.9],
        ],
    )
    def test_out_of_reach_heights_raise_like_oracle(self, curve_pair, p, deltas):
        got = _outcome(gravity_samples, curve_pair[0], p, deltas)
        assert got == _outcome(oracle.gravity_samples, renormalize(curve_pair[0], p), deltas)

    @pytest.mark.parametrize(
        "deltas",
        [[0.0], [0.01, -1.0, 0.02], [0.01, 10.0, 0.0], [0.01, 0.0, 10.0], [10.0, -1.0]],
    )
    def test_nonpositive_height_raises_at_its_position(self, parabola_curve, deltas):
        got = _outcome(gravity_samples, parabola_curve, 0.0, deltas)
        assert got[0] != "ok"
        assert got == _outcome(oracle.gravity_samples, renormalize(parabola_curve, 0.0), deltas)

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_sweep_matches_oracle(self, curve_pair, count):
        built, _ = curve_pair
        got, want = _sweep_outcomes(built, _sweep_points(count), default_deltas())
        assert got == want
        assert len(got[1]) == count

    @pytest.mark.parametrize("start", [-0.5, 0.0])
    @pytest.mark.parametrize("count", [2, 3, 8])
    @pytest.mark.parametrize(
        "deltas",
        [
            [0.05, 0.1, 0.2],  # out of reach near the ends of the grid only
            [0.02, 0.3, 0.5],
            [0.05, 0.2, 0.0],  # the zero height is met before any missing root
            [0.01, -1.0, 0.02],
        ],
    )
    def test_sweep_raises_like_oracle(self, curve_pair, deltas, count, start):
        built, _ = curve_pair
        got, want = _sweep_outcomes(built, _sweep_points(count, start), deltas)
        assert got == want

    def test_sweep_reaches_points_that_fail_later(self, parabola_curve):
        # from the middle outward, 0.2 is in reach at the first points and
        # out of reach at the last, so the error names a later point
        (outcome, rows), want = _sweep_outcomes(parabola_curve, _sweep_points(8, 0.0), [0.05, 0.2])
        assert outcome == ("bracketing", 0.2, "right") and 0 < len(rows) < 8
        assert (outcome, rows) == want

    @pytest.mark.parametrize("points", [[0.0, 0.5, 5.0], [0.0, 5.0, 0.5], [5.0, 0.0]])
    def test_sweep_base_point_off_grid_raises_in_order(self, parabola_curve, points):
        got, want = _sweep_outcomes(parabola_curve, points, [0.05, 0.2])
        assert got == want

    @pytest.mark.parametrize("deltas", [list(default_deltas()), [0.05, 0.1, 0.2], [0.05, 0.2, 0.0]])
    @pytest.mark.parametrize("start", [-0.5, 0.0])
    def test_chunked_sweep_matches_oracle(self, curve_pair, monkeypatch, deltas, start):
        # chunks of 3 base points: 8 points take three chunks
        built, _ = curve_pair
        monkeypatch.setattr(numcurve, "_SWEEP_TABLE", 3 * len(built))
        got, want = _sweep_outcomes(built, _sweep_points(8, start), deltas)
        assert got == want

    def test_interp_table_matches_scalar_lagrange(self):
        rng = np.random.default_rng(7)
        xs = np.cumsum(rng.uniform(0.5, 1.5, 40))
        ys = np.sin(xs)
        probes = np.concatenate([rng.uniform(xs[0] - 2, xs[-1] + 2, 400), xs])
        got = _interp_table(xs, ys, probes)
        assert np.array_equal(got, [oracle.interp_table(xs, ys, float(x)) for x in probes])

    def test_lagrange_reduces_in_node_order(self):
        # At x = 0.5 on the nodes 0, 1, 2, 3 the basis values are 5/16,
        # 15/16, -5/16 and 1/16 exactly, so these values make the terms
        # 1e16, 0.9375, -1e16 and 1: summed in node order they give 1.0,
        # pairwise or backwards 0.0
        xs, ys, x = np.arange(4.0), np.array([3.2e16, 1.0, 3.2e16, 16.0]), 0.5
        terms = [1e16, 0.9375, -1e16, 1.0]
        assert (terms[0] + terms[1]) + (terms[2] + terms[3]) != 1.0
        assert ((terms[3] + terms[2]) + terms[1]) + terms[0] != 1.0
        want = oracle.lagrange4(xs, ys, x)
        assert want == 1.0
        window, values = _windows(xs[None], np.array([[1]]), ys[None])
        assert window[0].shape == (4, 3, 1, 1)
        assert _lagrange(window, values, np.array([[x]])) == want
        assert _interp_table(xs, ys, np.array([x])) == want
        # the same window as every lane of a (2, 3) block
        lanes = np.ones((2, 3), dtype=int)
        window, values = _windows(np.tile(xs, (2, 1)), lanes, np.tile(ys, (2, 1)))
        assert (_lagrange(window, values, np.full((2, 3), x)) == want).all()

        # the basis numerators: on these windows a product over the other
        # nodes taken backwards changes some values
        def backwards(nodes, values, at):
            total = 0.0
            for j in range(4):
                num, den = 1.0, 1.0
                for m in (3, 2, 1, 0):
                    if m != j:
                        num *= at - nodes[m]
                        den *= nodes[j] - nodes[m]
                total += values[j] * (num / den)
            return total

        rng = np.random.default_rng(3)
        nodes = np.sort(rng.uniform(-1.0, 1.0, (200, 4)), axis=1)
        values, probes = rng.uniform(-1.0, 1.0, (200, 4)), rng.uniform(-1.0, 1.0, 200)
        got = _lagrange(*_windows(nodes, np.ones((200, 1), dtype=int), values), probes[:, None])
        want = [oracle.lagrange4(*args) for args in zip(nodes, values, probes.tolist())]
        assert got[:, 0].tolist() == want
        assert want != [backwards(*args) for args in zip(nodes, values, probes.tolist())]

    def test_cell_window_matches_interp_table_inside_cells(self):
        # the chord solve gathers the window of cell j as searchsorted
        # finds it for an abscissa in (xs[j], xs[j + 1]]; at the lower node
        # xs[j] searchsorted picks the window one node lower, and both
        # windows give ys[j] exactly
        rng = np.random.default_rng(11)
        xs = np.cumsum(rng.uniform(0.5, 1.5, 40))
        ys = np.sin(xs)
        cells = np.concatenate([[0, len(xs) - 2], rng.integers(0, len(xs) - 1, 398)])
        probes = xs[cells] + rng.uniform(0.0, 1.0, len(cells)) * (xs[cells + 1] - xs[cells])
        probes[::4] = xs[cells[::4] + 1]  # the upper node
        probes[1::4] = xs[cells[1::4]]  # the lower node
        got = _lagrange(*_windows(xs[None], cells[None] + 1, ys[None]), probes[None])[0]
        assert np.array_equal(got, _interp_table(xs, ys, probes))

    def test_midpoint_on_a_cell_lower_node_matches_oracle(self, monkeypatch):
        # A height a few ulps above g at a right-hand grid node puts the
        # root just above that node, the lower end of its cell, and some
        # bisection midpoints land on the node itself.  The chord solve
        # evaluates them in the cell's window, where the node is the
        # second; the oracle's searchsorted picks the window one node
        # lower.  Both windows give g there exactly, so the samples agree,
        # and the spy shows that the case is reached.
        curve = integrate_from_kappa(parse_fixture("kappa-poly:1,0,1")[0])
        local = renormalize(curve, 0.0)
        c = local.index_of(0.0)
        deltas = []
        for d in local.points[c + 30 : c + 110, 1].tolist():
            for _ in range(5):
                d = math.nextafter(d, math.inf)
                deltas.append(d)
        original, on_lower = _lagrange, []

        def spy(window, values, x):
            on_lower.append(bool((x == window[0][0, 0]).any()))  # node 1, the first other of node 0
            return original(window, values, x)

        monkeypatch.setattr(numcurve, "_lagrange", spy)
        got = gravity_samples(curve, 0.0, deltas)
        assert any(on_lower)
        assert got == oracle.gravity_samples(local, deltas)
        on_lower.clear()
        gravity_samples(curve, 0.0, default_deltas())
        assert not any(on_lower)  # no midpoint on a lower node

    def test_each_pass_gathers_one_window_for_g_and_f(self, parabola_curve, monkeypatch):
        # one _windows call per _samples_per_row pass, carrying g and f:
        # for a single point and for each chunk of a sweep
        gathers, passes = [], []
        windows, per_row = numcurve._windows, numcurve._samples_per_row

        def windows_spy(xs, found, *tables):
            gathers.append(len(tables))
            return windows(xs, found, *tables)

        def per_row_spy(*args):
            passes.append(len(args[0]))
            return per_row(*args)

        monkeypatch.setattr(numcurve, "_windows", windows_spy)
        monkeypatch.setattr(numcurve, "_samples_per_row", per_row_spy)
        gravity_samples(parabola_curve, 0.1, default_deltas())
        assert (passes, gathers) == ([1], [2])
        passes.clear()
        gathers.clear()
        monkeypatch.setattr(numcurve, "_SWEEP_TABLE", 3 * len(parabola_curve))
        assert corollary_sweep(parabola_curve, _sweep_points(8), default_deltas())
        assert (passes, gathers) == ([3, 3, 2], [2, 2, 2])

    def test_cumulative_simpson_matches_loop(self):
        y = np.cos(np.linspace(-1.0, 1.0, 101)) ** 3
        assert np.array_equal(_cumulative_simpson(y, 0.02), oracle.cumulative_simpson(y, 0.02))


def test_large_sweep_memory_is_bounded():
    # 1000 base points on the 2517-node ellipse:2,1 grid.  One unchunked
    # (points, nodes) table alone would take 20 MB; chunked, the whole
    # sweep peaks near 1.5 MB
    curve = reparametrize_affine(parse_fixture("ellipse:2,1")[0])
    points = [float(p) for p in np.linspace(-0.5, 0.5, 1000)]
    bound = 8 * 2**20
    assert 8 * len(points) * len(curve) > 2 * bound
    tracemalloc.start()
    try:
        assert corollary_sweep(curve, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
