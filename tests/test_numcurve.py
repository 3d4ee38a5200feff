import ast
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import _oracles as oracle
from affgrav import (
    BracketingError,
    DegenerateCurveError,
    GravitySample,
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
from affgrav.numcurve import (
    _basis,
    _cumulative_simpson,
    _interp_table,
    _lagrange,
    _least_squares,
    _transfer,
    _window_nodes,
)


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
    return reparametrize_affine(parse_fixture("circle")[0])


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

    # max |det[c', c''] - 1| of stage-form RK4 at step 1e-3, in units of
    # float epsilon; the transfer loop must stay within twice that
    STAGE_FORM_DRIFT_EPS = {
        "kappa-poly:1": 7.5,
        "kappa-poly:1,0,1": 9,
        "kappa-poly:0,1": 12,
        "kappa-poly:0.5,0.2,-0.3": 8,
        "kappa-poly:-3,2,5,-1": 52,
    }

    @pytest.mark.parametrize("fixture", STAGE_FORM_DRIFT_EPS)
    def test_wronskian_drift_stays_at_roundoff(self, fixture):
        # a map stored as M rather than M - I rounds its 1 + O(h^2)
        # diagonal alike on every step, and the drift grows tenfold
        cur = integrate_from_kappa(parse_fixture(fixture)[0], step=1e-3)
        bound = 2 * self.STAGE_FORM_DRIFT_EPS[fixture] * sys.float_info.epsilon
        assert wronskian_drift(cur) <= bound

    def test_transfer_map_is_the_stage_step_over_the_rationals(self):
        rng = random.Random(30)

        def rational(top):
            return Fraction(rng.randint(-top, top), rng.randint(1, top))

        for _ in range(200):
            n1, n23, n4, a, b = (rational(50) for _ in range(5))
            h = Fraction(rng.choice((-1, 1)), rng.randint(1, 2000))
            e00, m01, m10, e11, p0, p1 = _transfer(n1, n23, n4, h)
            step = (a + e00 * a + m01 * b, b + m10 * a + e11 * b, p0 * a + p1 * b)
            assert step == oracle.rk4_stage_step(n1, n23, n4, h, a, b)

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
        cur = reparametrize_affine(parse_fixture("parabola")[0])
        expect = np.column_stack([cur.grid, cur.grid**2 / 2])
        assert np.max(np.abs(cur.points - expect)) < 1e-10

    def test_ellipse_constant_curvature(self):
        cur = reparametrize_affine(parse_fixture("ellipse:2,1")[0])
        expect = 2.0 ** (-2.0 / 3.0)
        for s in (-0.4, 0.0, 0.5):
            assert affine_curvature(cur, s) == pytest.approx(expect, abs=1e-6)

    def test_hyperbola_negative_curvature(self):
        cur = reparametrize_affine(parse_fixture("hyperbola")[0])
        assert affine_curvature(cur, 0.0) == pytest.approx(-1.0, abs=1e-6)

    def test_plot_is_evaluated_once_per_point(self):
        # one jet call on the parameter table, one on the grid
        spec, _ = parse_fixture("ellipse:2,1")
        calls = points = 0

        def counting_jet(u):
            nonlocal calls, points
            calls += 1
            points += np.size(u)
            return spec.jet(u)

        cur = reparametrize_affine(ParametricCurveSpec(counting_jet, spec.domain))
        assert (calls, points) == (2, 4001 + len(cur))

    @pytest.mark.parametrize("name", sorted(_CONICS))
    def test_array_plot_equals_scalar_math_plot(self, name):
        # all four pairs, on every abscissa array reparametrize_affine hands
        # the jet: the parameter table and the grid
        spec, _ = parse_fixture(name)
        seen = []

        def recording_jet(u):
            seen.append(u)
            return spec.jet(u)

        reparametrize_affine(ParametricCurveSpec(recording_jet, spec.domain))
        scalar = oracle.CONIC_JETS[name]
        for u in seen:
            ref = np.array([scalar(v) for v in u.ravel().tolist()])
            for k, pair in enumerate(spec.jet(u)):
                x, y = (np.broadcast_to(v, u.shape) for v in pair)
                assert np.array_equal(x.ravel(), ref[:, k, 0]), k
                assert np.array_equal(y.ravel(), ref[:, k, 1]), k

    def test_every_conic_has_a_scalar_oracle(self):
        assert set(oracle.CONIC_JETS) == set(_CONICS)

    def test_degenerate_orientation_rejected(self):
        # the hyperbola fixture mirrored, (cosh u, sinh u): det[c_u, c_uu] = -1
        hyperbola = parse_fixture("hyperbola")[0]
        spec = ParametricCurveSpec(
            lambda u: tuple((x, -y) for x, y in hyperbola.jet(u)), hyperbola.domain
        )
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

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("k0", [-2.5, -1.0, 0.0, 1.0, 3.0])
    def test_near_conic_midpoints_match_closed_form(self, k0, eps):
        # kappa = k0 + eps s is a conic perturbed to first order; the
        # residual, ~1e-7 relative at both eps, is the numeric floor of RK4
        # and the chord solve, far above the closed form's own relative
        # error, O(eps^2 delta^3)
        curve = build_curve(parse_fixture(f"kappa-poly:{k0},{eps}")[0])
        for s in gravity_samples(curve, 0.0, default_deltas()):
            want = oracle.near_conic_x(s.delta, k0, eps)
            assert abs(s.midpoint_x / want - 1) <= 1e-6, s

    @pytest.mark.parametrize("step", [1e-3, 2e-3])
    @pytest.mark.parametrize(
        "conic, k0",
        [("parabola", 0.0), ("circle", 1.0), ("hyperbola", -1.0), ("ellipse:2,1", 2 ** (-2 / 3))],
    )
    def test_conic_chord_ends_match_closed_form(self, conic, k0, step):
        # The chord ends of a conic and of its constant-curvature twin,
        # on the plot and the RK4 route, miss the closed form by the cubic
        # window's step^4 magnified by 1/g'(s+) ~ 1/sqrt(2 delta): at most
        # 0.019 step^4/sqrt(delta) over these cases (7.7e-12 at step 2e-3,
        # 4.1e-13 at 1e-3), checked with C = 0.05.  The 1e-13 covers the
        # plot route's roundoff floor, 2.6e-14 on the parabola.
        plot = build_curve(parse_fixture(conic)[0], step)
        twin = build_curve(parse_fixture(f"kappa-poly:{k0!r}")[0], step)
        for p in (0.0, 0.3):
            routes = [gravity_samples(curve, p, default_deltas()) for curve in (plot, twin)]
            for by_plot, by_rk4 in zip(*routes):
                bound = 0.05 * step**4 / math.sqrt(by_plot.delta) + 1e-13
                want = oracle.conic_chord_ends(k0, by_plot.delta)
                for s in (by_plot, by_rk4):
                    assert abs(s.s_plus - want) <= bound, (p, s)
                    assert abs(s.s_minus + want) <= bound, (p, s)
                    assert abs(s.midpoint_x) <= 1e-14, (p, s)
                assert abs(by_plot.s_plus - by_rk4.s_plus) <= bound, (p, by_plot, by_rk4)
                assert abs(by_plot.s_minus - by_rk4.s_minus) <= bound, (p, by_plot, by_rk4)

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


class TestLeastSquares:
    """The flatness fit's Householder QR against numpy's SVD-based
    ``lstsq``, kept here as the oracle."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("m", [6, 8, 50])
    def test_matches_lstsq_within_the_conditioning_bound(self, m, seed):
        # Both solvers are backward stable, so they differ by at most a
        # modest multiple of eps (kappa |x| + kappa^2 |r| / sigma_max),
        # the least-squares perturbation bound; m eps is that multiple
        rng = np.random.default_rng(seed)
        if seed % 2:  # the fit's own design: heights in geometric progression
            d = rng.uniform(1e-4, 1e-2) * rng.uniform(1.01, 1.6 if m < 50 else 1.08) ** np.arange(m)
            design = np.column_stack([d, d**2, d**3])
        else:  # columns of very different scales
            design = rng.standard_normal((m, 3)) * 10.0 ** rng.uniform(-3, 3, 3)
        fitted = design @ rng.standard_normal(3)
        rhs = fitted + rng.standard_normal(m) * 10.0 ** rng.uniform(-12, -2) * np.abs(fitted).max()
        want, _, rank, sv = np.linalg.lstsq(design, rhs, rcond=None)
        got = _least_squares([column.tolist() for column in design.T], rhs.tolist())
        assert rank == 3 and got is not None
        kappa = sv[0] / sv[-1]
        residual = np.linalg.norm(design @ want - rhs)
        bound = m * sys.float_info.epsilon * (
            kappa * np.linalg.norm(want) + kappa**2 * residual / sv[0]
        )
        assert np.linalg.norm(np.array(got) - want) <= bound

    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_a_zero_column_is_rank_deficient(self, zero):
        d = 1e-3 * 1.6 ** np.arange(8)
        design = np.column_stack([d, d**2, d**3])
        design[:, zero] = 0.0
        assert np.linalg.matrix_rank(design) == 2
        assert _least_squares([column.tolist() for column in design.T], d.tolist()) is None

    def test_a_zero_column_refuses_the_fit(self):
        samples = [GravitySample(d, -1.0, 1.0, d) for d in (1e-300 * 1.6**k for k in range(8))]
        with pytest.raises(ValueError, match="delta\\^2 and delta\\^3 underflow"):
            fit_flatness(samples, kappa_prime_p=0.0)

    def test_a_consistent_design_is_solved_to_roundoff(self):
        d = 1e-3 * 1.6 ** np.arange(8)
        got = _least_squares([d.tolist(), (d**2).tolist(), (d**3).tolist()], (2 * d - d**3).tolist())
        assert got == pytest.approx([2.0, 0.0, -1.0], abs=1e-9)


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
        spec, _ = parse_fixture("ellipse:2,1")
        assert corollary_sweep(reparametrize_affine(spec), self.BASE_POINTS)

    def test_hyperbola(self):
        spec, _ = parse_fixture("hyperbola")
        assert corollary_sweep(reparametrize_affine(spec), self.BASE_POINTS)

    @pytest.mark.parametrize("name", sorted(_CONICS))
    def test_conic_sweep_is_straight_to_roundoff(self, name):
        # with exact plot derivatives a conic's midpoints and curvature
        # hold to roundoff, not to finite-difference error
        curve = build_curve(parse_fixture(name)[0])
        rows = []
        assert corollary_sweep(curve, self.BASE_POINTS, rows=rows)
        assert max(dev for _, dev, _ in rows) <= 1e-14
        kappas = [affine_curvature(curve, p) for p in self.BASE_POINTS]
        assert max(kappas) - min(kappas) <= 1e-12

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

        plain = parse_fixture("ellipse:2,1")[0]

        def mapped(u):
            # A c + b for the point, A c^(k) for each derivative
            (x, y), *derivs = [
                (mat[0, 0] * x + mat[0, 1] * y, mat[1, 0] * x + mat[1, 1] * y)
                for x, y in plain.jet(u)
            ]
            return ((x + shift[0], y + shift[1]), *derivs)

        cur0 = reparametrize_affine(plain)
        cur1 = reparametrize_affine(ParametricCurveSpec(mapped, plain.domain))
        for s in (-0.3, 0.0, 0.4):
            assert abs(affine_curvature(cur0, s) - affine_curvature(cur1, s)) <= 1e-10
        s0 = gravity_samples(cur0, 0.0, default_deltas())
        s1 = gravity_samples(cur1, 0.0, default_deltas())
        for a, b in zip(s0, s1):
            assert abs(a.midpoint_x - b.midpoint_x) <= 1e-12
        assert straightness_test(s0)[1] == straightness_test(s1)[1] is True


ORACLE_FIXTURES = [
    "parabola", "circle", "ellipse:2,1", "hyperbola", "kappa-poly:1,0,1", "kappa-poly:0.5,0.2,-0.3"
]
ORACLE_POINTS = [0.0, 0.3, -0.3]
RK4_KAPPAS = [
    lambda s: 0.0,
    lambda s: 1.0,
    parse_fixture("kappa-poly:0.5,0.2,-0.3")[0].kappa,
    parse_fixture("kappa-poly:0,1")[0].kappa,
    parse_fixture("kappa-poly:-3,2,5,-1")[0].kappa,
]
RK4_KAPPA_IDS = ["zero", "one", "poly", "linear", "sign-change"]
RK4_STEPS = [(3e-3, 1.0), (7e-4, 1.0), (1e-3, 0.5)]


@pytest.fixture(scope="module", params=ORACLE_FIXTURES)
def curve_pair(request):
    """The library's curve for a CLI fixture and the scalar oracle's."""
    spec, _ = parse_fixture(request.param)
    if isinstance(spec, KappaCurveSpec):
        return build_curve(spec), oracle.integrate_from_kappa(spec)
    jet = oracle.CONIC_JETS[request.param.partition(":")[0]]
    return build_curve(spec), oracle.reparametrize_affine(jet)


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


def _spy_chord_roots(monkeypatch):
    """The number of rows of each ``_chord_roots`` pass from here on."""
    passes, chord_roots = [], numcurve._chord_roots

    def spy(curve, maps, *args):
        passes.append(len(maps))
        return chord_roots(curve, maps, *args)

    monkeypatch.setattr(numcurve, "_chord_roots", spy)
    return passes


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

    @pytest.mark.parametrize("fixture", ["kappa-poly:0.5,0.2,-0.3", "ellipse:2,1"])
    def test_affine_map_matches_scalar_oracle(self, fixture):
        # off p = 0 the frame is no identity, so the inverse and the map
        # reach every value; with no BLAS kernel in the path they are
        # the scalar map's bits
        curve = build_curve(parse_fixture(fixture)[0])
        points, deltas = [-0.5, 0.3], default_deltas()
        for p in points:
            got, want = renormalize(curve, p), oracle.renormalize(curve, p)
            assert not np.array_equal(curve.d1[curve.index_of(p)], [1.0, 0.0])
            for name in ("grid", "points", "d1", "d2"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        rows = list(numcurve._sweep_samples(curve, points, deltas))
        assert rows == [oracle.gravity_samples(oracle.renormalize(curve, p), deltas) for p in points]
        assert [gravity_samples(curve, p, deltas) for p in points] == rows

    def test_affine_map_inverts_the_frame_in_closed_form(self):
        curve = build_curve(parse_fixture("ellipse:2,1")[0])
        j, origin, columns = numcurve._affine_map(curve, 0.3)
        (ax, ay), (bx, by) = curve.d1[j].tolist(), curve.d2[j].tolist()
        inv = oracle.inverse_2x2([[ax, bx], [ay, by]])
        assert columns == ((inv[0][0], inv[0][1]), (inv[1][0], inv[1][1]))
        assert origin == tuple(curve.points[j].tolist())

    def test_singular_frame_is_refused(self, parabola_curve):
        d2 = parabola_curve.d2.copy()
        d2[parabola_curve.index_of(0.2)] = parabola_curve.d1[parabola_curve.index_of(0.2)]
        flat = NumCurve(parabola_curve.grid, parabola_curve.points, parabola_curve.d1, d2, 1e-3)
        for run in (renormalize, lambda c, p: gravity_samples(c, p, default_deltas())):
            with pytest.raises(ValueError, match="singular frame"):
                run(flat, 0.2)
        # the sweep raises at that base point, after the rows before it
        rows = []
        with pytest.raises(ValueError, match="singular frame"):
            corollary_sweep(flat, [0.0, 0.1, 0.2, 0.3], rows=rows)
        assert [r[0] for r in rows] == [0.0, 0.1]

    @pytest.mark.parametrize("kappa", RK4_KAPPAS, ids=RK4_KAPPA_IDS)
    @pytest.mark.parametrize("step,half_width", RK4_STEPS)
    def test_rk4_matches_oracle_at_other_steps(self, kappa, step, half_width):
        # a scalar curvature broadcasts over the stage abscissae
        spec = KappaCurveSpec(kappa, half_width=half_width)
        built, ref = integrate_from_kappa(spec, step), oracle.integrate_from_kappa(spec, step)
        for name in ("grid", "points", "d1", "d2"):
            assert np.array_equal(getattr(built, name), getattr(ref, name)), name

    @pytest.mark.parametrize("kappa", RK4_KAPPAS, ids=RK4_KAPPA_IDS)
    @pytest.mark.parametrize("step,half_width", RK4_STEPS)
    def test_rk4_matches_stage_form_to_roundoff(self, kappa, step, half_width):
        # the transfer map is the stage form's step exactly over the
        # rationals; in floats they round apart, by at most 2 ulp of each
        # array's largest value on these curves
        spec = KappaCurveSpec(kappa, half_width=half_width)
        built = integrate_from_kappa(spec, step)
        ref = oracle.integrate_from_kappa_stages(spec, step)
        assert np.array_equal(built.grid, ref.grid)
        for name in ("points", "d1", "d2"):
            got, want = getattr(built, name), getattr(ref, name)
            assert np.max(np.abs(got - want)) <= 64 * np.spacing(np.max(np.abs(want))), name

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
        nodes = _window_nodes(np.array([[1]]), len(xs))
        window, values = _basis(xs[nodes]), ys[nodes]
        assert window[0].shape == (4, 3, 1, 1)
        assert _lagrange(window, values, np.array([[x]])) == want
        assert _interp_table(xs, ys, np.array([x])) == want
        # the same window as every lane of a (2, 3) block
        lanes = np.ones((2, 3), dtype=int)
        nodes = _window_nodes(lanes, len(xs))
        window, values = _basis(xs[nodes]), ys[nodes]
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
        # each row its own window: the nodes along the leading axis
        got = _lagrange(_basis(nodes.T), values.T, probes)
        want = [oracle.lagrange4(*args) for args in zip(nodes, values, probes.tolist())]
        assert got.tolist() == want
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
        nodes = _window_nodes(cells + 1, len(xs))
        got = _lagrange(_basis(xs[nodes]), ys[nodes], probes)
        assert np.array_equal(got, _interp_table(xs, ys, probes))

    def test_midpoint_on_a_cell_lower_node_matches_oracle(self, monkeypatch):
        # A height equal to g at a left-hand grid node is a root on that
        # node, the lower end of its cell, where f is read for the
        # midpoint.  The chord solve reads it in the cell's window, where
        # the node is the second; the oracle's searchsorted picks the
        # window one node lower.  Both windows give f there exactly, so
        # the samples agree, and the spy shows that the case is reached.
        # A height a few ulps above g at a right-hand node puts a root
        # just above the node, yet no Newton iterate lands on it: each
        # lies strictly inside the open bracket.
        curve = integrate_from_kappa(parse_fixture("kappa-poly:1,0,1")[0])
        local = renormalize(curve, 0.0)
        c = local.index_of(0.0)
        on_node = local.points[c - 110 : c - 30, 1].tolist()
        above = []
        for d in local.points[c + 30 : c + 110, 1].tolist():
            for _ in range(5):
                d = math.nextafter(d, math.inf)
                above.append(d)
        original, on_lower = _lagrange, []

        def spy(window, values, x):
            on_lower.append(bool((x == window[0][0, 0]).any()))  # node 1, the first other of node 0
            return original(window, values, x)

        monkeypatch.setattr(numcurve, "_lagrange", spy)
        got = gravity_samples(curve, 0.0, on_node)
        assert any(on_lower)
        assert [s.s_minus for s in got] == local.grid[c - 110 : c - 30].tolist()
        assert got == oracle.gravity_samples(local, on_node)
        on_lower.clear()
        got = gravity_samples(curve, 0.0, above)
        assert not any(on_lower)
        assert got == oracle.gravity_samples(local, above)
        on_lower.clear()
        gravity_samples(curve, 0.0, default_deltas())
        assert not any(on_lower)  # no root on a lower node

    def test_each_pass_gathers_one_window_for_g_and_f(self, parabola_curve, monkeypatch):
        # one _window_nodes call per _chord_roots pass, whose nodes
        # carry g and f: for a single point and for each chunk of a sweep
        gathers, window_nodes = [], numcurve._window_nodes

        def window_nodes_spy(found, n):
            gathers.append(found.shape[0])
            return window_nodes(found, n)

        monkeypatch.setattr(numcurve, "_window_nodes", window_nodes_spy)
        passes = _spy_chord_roots(monkeypatch)
        gravity_samples(parabola_curve, 0.1, default_deltas())
        assert passes == gathers == [1]
        passes.clear()
        gathers.clear()
        monkeypatch.setattr(numcurve, "_SWEEP_TABLE", 3 * len(parabola_curve))
        assert corollary_sweep(parabola_curve, _sweep_points(8), default_deltas())
        assert passes == gathers == [3, 3, 2]

    def test_cumulative_simpson_matches_loop(self):
        y = np.cos(np.linspace(-1.0, 1.0, 101)) ** 3
        assert np.array_equal(_cumulative_simpson(y, 0.02), oracle.cumulative_simpson(y, 0.02))


CHORD_FIXTURES = [*ORACLE_FIXTURES, "kappa-poly:0,1"]


def _ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestChordSolve:
    """Safeguarded Newton on each lane's cell cubic, against bisection."""

    @pytest.mark.parametrize("step", [1e-3, 4e-3])
    @pytest.mark.parametrize("fixture", CHORD_FIXTURES)
    def test_roots_agree_with_bisection_within_4_ulp(self, fixture, step):
        # at the default heights the Newton root and the bisection root
        # of the same cubic lie within 4 ulp of each other (2 at most on
        # these curves), and the computed g - delta changes sign, or is 0,
        # within 4 ulp of each Newton root
        curve = build_curve(parse_fixture(fixture)[0], step)
        for p in (0.0, 0.3):
            local = renormalize(curve, p)
            g = local.points[:, 1]
            for sample in gravity_samples(curve, p, default_deltas()):
                for root, direction in ((sample.s_plus, 1), (sample.s_minus, -1)):
                    bisected = oracle.chord_root_bisection(local, direction, sample.delta)
                    assert _ulps_apart(root, bisected) <= 4, (p, sample)
                    near = [root]
                    for towards in (-math.inf, math.inf):
                        x = root
                        for _ in range(4):
                            x = math.nextafter(x, towards)
                            near.append(x)
                    values = [oracle.interp_table(local.grid, g, x) - sample.delta for x in near]
                    assert min(values) <= 0.0 <= max(values), (p, sample)

    @pytest.mark.parametrize("fixture", ["parabola", "kappa-poly:0.5,0.2,-0.3"])
    def test_roots_at_tiny_heights_stay_near_the_exact_cubic_root(self, fixture):
        # At delta ~ 1e-9 the root lies in the base point's cell, where
        # the computed cubic is only good to ~1e-22: it changes sign over
        # a band of hundreds of ulp of s, anywhere in which bisection
        # stops.  Newton follows the cubic's slope and stays within 91
        # ulp of the exact root of the cubic through the window's float
        # nodes (Fractions), where bisection strays up to ~1000.
        curve = build_curve(parse_fixture(fixture)[0])
        local = renormalize(curve, 0.0)
        grid, g = local.grid, local.points[:, 1]
        for sample in gravity_samples(curve, 0.0, default_deltas(1e-9)):
            delta = Fraction(sample.delta)
            for root in (sample.s_plus, sample.s_minus):
                i = int(np.searchsorted(grid, root))
                start = max(0, min(i - 2, len(grid) - 4))
                xs = [Fraction(x) for x in grid[start : start + 4].tolist()]
                ys = [Fraction(y) for y in g[start : start + 4].tolist()]

                def f(x):
                    return sum(
                        y * math.prod(x - xm for xm in xs if xm != xj)
                        / math.prod(xj - xm for xm in xs if xm != xj)
                        for xj, y in zip(xs, ys)
                    ) - delta

                lo, hi = Fraction(grid[i - 1]), Fraction(grid[i])
                negative_lo = f(lo) < 0
                for _ in range(80):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if (f(mid) < 0) == negative_lo else (lo, mid)
                assert abs(Fraction(root) - lo) <= 128 * Fraction(math.ulp(root)), sample

    def test_stationary_point_in_the_bracket(self):
        # g - 6 = 48 u^3 + 24 (u^2 - 1/4) on the cell [2, 3], u = s - 2.5:
        # -6 and 6 at the cell's ends, so the secant start is u = 0, where
        # the cubic's slope is 0 in floats too (every weight v_j / den_j
        # and every product is exact).  The Newton step there is not
        # finite; the solve falls back to the midpoint, raises no warning
        # and finds the one root, as the scalar form does.
        grid = np.arange(-5.0, 6.0)
        g = np.zeros_like(grid)
        g[6:] = [-108.0, 0.0, 12.0, 216.0, 500.0]
        curve = NumCurve(
            grid=grid,
            points=np.column_stack([grid, g]),
            d1=np.tile([1.0, 0.0], (len(grid), 1)),
            d2=np.tile([0.0, 1.0], (len(grid), 1)),
            step=1.0,
        )
        nodes = _window_nodes(np.array([[8]]), len(grid))  # nodes 1 to 4
        window, values = _basis(grid[nodes]), g[nodes]
        assert numcurve._slope(window[0], values / window[1], np.array([[2.5]])) == 0.0
        assert oracle.interp_table_slope(grid, g, 2.5) == 0.0
        assert oracle.interp_table(grid, g, 2.5) - 6.0 == -6.0
        roots, failed, _ = numcurve._chord_roots(
            curve, [numcurve._affine_map(curve, 0.0)], g[None], np.array([6.0])
        )
        root = float(roots[0, 0])
        assert not failed[0, 0] and 2.5 < root < 3.0
        assert root == oracle.chord_root(curve, 1, 6.0)
        assert _ulps_apart(root, oracle.chord_root_bisection(curve, 1, 6.0)) <= 4
        assert abs(oracle.interp_table(grid, g, root) - 6.0) <= numcurve.ROOT_TOL

    def test_default_heights_take_few_iterations(self, monkeypatch):
        # the stop test runs before the safeguard: a converged step that
        # would land on a bracket end stops the lane instead of sending
        # it to the midpoint, which took 30-40 iterations
        calls, slope = [], numcurve._slope
        monkeypatch.setattr(numcurve, "_slope", lambda *a: calls.append(1) or slope(*a))
        for fixture in ("ellipse:2,1", "kappa-poly:0.5,0.2,-0.3"):
            calls.clear()
            corollary_sweep(build_curve(parse_fixture(fixture)[0]), _sweep_points(8))
            assert 0 < len(calls) <= 4, fixture

    @pytest.mark.parametrize("delta0", [1e-4, 1e-9])
    def test_sweep_equals_each_point_alone(self, curve_pair, delta0):
        # at 1e-9 the lanes stop after different numbers of iterations, so
        # a lane that has stopped must keep its root while others go on
        built, _ = curve_pair
        points, deltas = _sweep_points(8), default_deltas(delta0)
        rows = list(numcurve._sweep_samples(built, points, deltas))
        assert rows == [next(numcurve._sweep_samples(built, [p], deltas)) for p in points]

    @pytest.mark.parametrize("delta0", [1e-3, 1e-4, 1e-9])
    @pytest.mark.parametrize("fixture", ["kappa-poly:0.5,0.2,-0.3", "ellipse:2,1", "hyperbola"])
    def test_sweep_across_default_chunks_equals_each_point(self, fixture, delta0, monkeypatch):
        # at 8 heights a chunk holds 16 base points, so 41 points run as
        # chunks of 16, 16 and 9 with the default table bounds
        curve = build_curve(parse_fixture(fixture)[0])
        points, deltas = _sweep_points(41), default_deltas(delta0)
        passes = _spy_chord_roots(monkeypatch)
        rows = list(numcurve._sweep_samples(curve, points, deltas))
        assert passes == [16, 16, 9]
        assert rows == [gravity_samples(curve, p, deltas) for p in points]


def test_numcurve_calls_no_blas_or_lapack():
    # no matrix product and no numpy.linalg: the bits of every numeric
    # output come from elementwise float operations alone
    tree = ast.parse(Path(numcurve.__file__).read_text())
    blas = {"linalg", "dot", "vdot", "matmul", "einsum", "tensordot", "inner"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), node.lineno
        if isinstance(node, ast.Attribute):
            assert node.attr not in blas, node.lineno
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names] + [getattr(node, "module", "")]
            assert not any("linalg" in (m or "") for m in modules), node.lineno


def test_large_sweep_memory_is_bounded():
    # 1000 base points on the 2517-node ellipse:2,1 grid.  One unchunked
    # (points, nodes) table alone would take 20 MB; chunked, with only g
    # stacked and f mapped at the window nodes, the whole sweep peaks near
    # 0.5 MB (0.52 MB traced, numpy 2.4 on CPython 3.11)
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
