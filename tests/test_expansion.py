import dataclasses
from fractions import Fraction as F
from math import factorial, prod

import pytest

from _oracles import compose, is_alternating, kill_odd_derivatives, padded_square
from affgrav import (
    DiffPoly,
    GradedClass,
    QR2Scalar,
    VerificationError,
    build_frame,
    build_pipeline,
    h_leading_law,
    lemma4_check,
    theorem1_criterion,
    theorem2_symbolic,
    wronskian_series,
)
from affgrav import cli, expansion
from affgrav.expansion import MAX_ORDER, MIN_ORDER, component_series
from affgrav.powerseries import Series

k = DiffPoly.kappa
SQRT2 = QR2Scalar.sqrt2()


@pytest.fixture(scope="module")
def pipe():
    return build_pipeline(10)


class TestFrameRecursion:
    def test_initial_rows(self):
        fr = build_frame(4)
        assert fr.phi[1] == 1 and fr.psi[1].is_zero
        assert fr.phi[2].is_zero and fr.psi[2] == 1

    def test_third_to_sixth_derivative(self):
        fr = build_frame(6)
        assert fr.phi[3] == -k(0) and fr.psi[3].is_zero
        assert fr.phi[4] == -k(1) and fr.psi[4] == -k(0)
        assert fr.phi[5] == -k(2) + k(0) * k(0) and fr.psi[5] == -2 * k(1)
        assert fr.phi[6] == -k(3) + 4 * k(0) * k(1)
        assert fr.psi[6] == -3 * k(2) + k(0) * k(0)

    def test_seventh_derivative(self):
        fr = build_frame(8)
        assert fr.phi[7] == -k(4) + 4 * k(1) * k(1) + 7 * k(0) * k(2) - k(0) * k(0) * k(0)
        assert fr.psi[7] == -4 * k(3) + 6 * k(0) * k(1)

    def test_eighth_derivative(self):
        fr = build_frame(8)
        assert fr.phi[8] == (
            -k(5) + 15 * k(1) * k(2) + 11 * k(0) * k(3) - 9 * k(0) * k(0) * k(1)
        )
        assert fr.psi[8] == (
            -5 * k(4) + 10 * k(1) * k(1) + 13 * k(0) * k(2) - k(0) * k(0) * k(0)
        )

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            build_frame(1)


class TestComponentExpansions:
    def test_f_printed_coefficients(self, pipe):
        f = pipe.f
        assert f[0].is_zero and f[1] == 1 and f[2].is_zero
        assert f[3] == F(-1, 6) * k(0)
        assert f[4] == F(-1, 24) * k(1)
        assert f[5] == F(1, 120) * (-k(2) + k(0) * k(0))
        assert f[6] == F(1, 720) * (-k(3) + 4 * k(0) * k(1))

    def test_g_printed_coefficients(self, pipe):
        g = pipe.g
        assert g[0].is_zero and g[1].is_zero
        assert g[2] == F(1, 2) and g[3].is_zero
        assert g[4] == F(-1, 24) * k(0)
        assert g[5] == F(-1, 60) * k(1)
        assert g[6] == F(1, 720) * (-3 * k(2) + k(0) * k(0))

    def test_scaled_coefficients_class_membership(self, pipe):
        for kk in range(pipe.order + 1):
            fk = pipe.f[kk] * F(factorial(kk))
            gk = pipe.g[kk] * F(factorial(kk))
            assert fk.in_class(GradedClass(kk - 3, kk + 1))
            assert gk.in_class(GradedClass(kk - 4, kk))


class TestInversionSeries:
    def test_v_printed_coefficients(self, pipe):
        v = pipe.v
        assert v[0].is_zero and v[2].is_zero
        assert v[1] == DiffPoly.constant(SQRT2)
        assert v[3] == DiffPoly.monomial(QR2Scalar(0, F(1, 12)), {0: 1})
        assert v[4] == F(1, 15) * k(1)
        assert v[5] == (8 * k(2) + 9 * k(0) * k(0)) * QR2Scalar(0, F(1, 480))
        assert v[6] == (2 * k(3) + 11 * k(0) * k(1)) * F(1, 315)

    def test_v_from_g_relations(self, pipe):
        g = pipe.g
        g7 = component_series(build_frame(7))[1][7]
        assert pipe.v[3] == -2 * SQRT2 * g[4]
        assert pipe.v[4] == -4 * g[5]
        assert pipe.v[5] == 2 * SQRT2 * (7 * g[4] * g[4] - 2 * g[6])
        assert pipe.v[6] == 64 * g[4] * g[5] - 8 * g7

    def test_u_squares_to_g(self, pipe):
        u = pipe.u
        full_g = component_series(build_frame(pipe.order + 1))[1]
        assert padded_square(u) == full_g

    def test_g_of_v_is_t_squared(self, pipe):
        gt = compose(pipe.g, pipe.v)
        assert gt[2] == 1
        assert all(gt[i].is_zero for i in range(gt.order + 1) if i != 2)


class TestCompositionH:
    def test_h_printed_coefficients(self, pipe):
        h = pipe.h
        assert h[0].is_zero and h[2].is_zero
        assert h[1] == DiffPoly.constant(SQRT2)
        assert h[3] == DiffPoly.monomial(QR2Scalar(0, F(-1, 4)), {0: 1})
        assert h[4] == F(-1, 10) * k(1)
        assert h[5] == -(8 * k(2) + 15 * k(0) * k(0)) * QR2Scalar(0, F(1, 480))
        assert h[6] == -(k(3) + 9 * k(0) * k(1)) * F(1, 210)

    def test_pipeline_series_explicitness(self, pipe):
        assert pipe.f.explicitness(3).is_explicit
        assert pipe.g.explicitness(4).is_explicit
        assert pipe.u.explicitness(3).is_explicit
        assert pipe.v.explicitness(3).is_explicit
        assert pipe.h.explicitness(3).is_explicit

    def test_gravity_is_even_part(self, pipe):
        gx = pipe.gravity_x
        assert gx[0].is_zero and gx[2].is_zero
        assert all(gx[i].is_zero for i in range(1, gx.order + 1, 2))
        assert all(gx[i] == pipe.h[i] for i in range(0, gx.order + 1, 2))

    def test_wronskian_is_one(self, pipe):
        w = wronskian_series(pipe)
        assert w[0] == 1
        assert all(w[i].is_zero for i in range(1, w.order + 1))


def frame_lemma4(order, corrupt=False):
    """lemma4_check on the f and g of the frame of the given order."""
    return lemma4_check(*component_series(build_frame(order, corrupt)))


class TestLemma4:
    def test_report_laws(self):
        f, g = component_series(build_frame(12))
        rep = lemma4_check(f, g)
        assert rep.order == 12
        f_rep, g_rep = f.explicitness(3), g.explicitness(4)
        assert f_rep.is_explicit and g_rep.is_explicit
        for kk in range(3, 13):
            assert f_rep.leading[kk] == QR2Scalar(F(-1, factorial(kk)))
        for kk in range(4, 13):
            assert g_rep.leading[kk] == QR2Scalar(F(-(kk - 3), factorial(kk)))

    def test_g_leading_vanishes_at_three(self):
        f, g = component_series(build_frame(8))
        lemma4_check(f, g)
        assert g.explicitness(4).leading[3] == QR2Scalar(0)
        assert g[3].is_zero

    def test_q6_residual(self):
        # 6! g_6 + 3 k2 = k0^2
        rep = frame_lemma4(8)
        assert rep.q_residuals[6] == k(0) * k(0)
        assert rep.q_residuals[6].in_class(GradedClass(0, 0))

    def test_residual_classes(self):
        rep = frame_lemma4(12)
        for kk in range(13):
            assert rep.p_residuals[kk].in_class(GradedClass(kk - 5, kk + 1))
            assert rep.q_residuals[kk].in_class(GradedClass(kk - 6, kk))

    def test_corrupted_frame_is_detected(self):
        with pytest.raises(VerificationError) as info:
            frame_lemma4(8, corrupt=True)
        assert info.value.check == "lemma4.leading.f"

    def test_pipeline_series_are_checked_one_order_past(self):
        pipe = build_pipeline(10)
        assert (pipe.f_full, pipe.g_full) == component_series(build_frame(11))
        assert (pipe.f, pipe.g) == (pipe.f_full.truncate(10), pipe.g_full.truncate(10))
        rep = lemma4_check(pipe.f_full, pipe.g_full)
        assert rep.order == 11
        assert pipe.f_full.explicitness(3).is_explicit
        g_rep = pipe.g_full.explicitness(4)
        assert g_rep.is_explicit and g_rep.leading[11] == QR2Scalar(F(-8, factorial(11)))

    def test_series_of_unequal_order_are_refused(self):
        pipe = build_pipeline(10)
        with pytest.raises(ValueError, match="one order, got 10 and 11"):
            lemma4_check(pipe.f, pipe.g_full)
        with pytest.raises(ValueError, match="one order, got 11 and 10"):
            lemma4_check(pipe.f_full, pipe.g)


class TestHLeadingLaw:
    def test_values_through_order(self):
        leads = h_leading_law(build_pipeline(8))
        for kk in range(3, 9):
            assert leads[kk] == QR2Scalar(-3) * SQRT2**kk * F(1, factorial(kk + 1))

    def test_low_order_closed_forms(self):
        leads = h_leading_law(build_pipeline(6))
        assert leads[3] == QR2Scalar(0, F(-1, 4))     # -3*2*sqrt2/24
        assert leads[4] == QR2Scalar(F(-1, 10))       # -3*4/120
        assert leads[5] == QR2Scalar(0, F(-1, 60))    # -3*4*sqrt2/720

    def test_closed_forms_are_the_papers_chains_and_the_pipelines_leads(self):
        # each closed form equals the chain it stands for, and the leading
        # coefficient of h, u and v through the ceiling order
        pipe = build_pipeline(MAX_ORDER)
        u1 = QR2Scalar(0, F(1, 2))
        for kk in range(3, MAX_ORDER + 1):
            l_h = QR2Scalar(-3) * SQRT2**kk * F(1, factorial(kk + 1))
            l_g = QR2Scalar(F(-(kk + 1 - 3), factorial(kk + 1)))  # Lemma 4's l_g[k+1]
            l_u = l_g / SQRT2
            l_v = -(u1 ** (-kk - 1)) * l_u
            assert expansion._leading_laws(kk) == (l_h, l_u, l_v), kk
            read = tuple(s[kk].coefficient_of({kk - 3: 1}) for s in (pipe.h, pipe.u, pipe.v))
            assert read == (l_h, l_u, l_v), kk

    def test_derives_no_second_g(self, monkeypatch):
        # the square-root step takes l_g from Lemma 4's law, not a frame;
        # no pipeline check builds a frame, a component series or a pipeline
        pipe = build_pipeline(14)

        def refuse(*args, **kwargs):
            raise AssertionError("a pipeline check built a frame, series or pipeline")

        monkeypatch.setattr(expansion, "build_pipeline", refuse)
        monkeypatch.setattr(expansion, "build_frame", refuse)
        monkeypatch.setattr(expansion, "component_series", refuse)
        assert h_leading_law(pipe)[8] == QR2Scalar(-3) * SQRT2**8 * F(1, factorial(9))
        assert lemma4_check(pipe.f_full, pipe.g_full).order == 15
        assert wronskian_series(pipe)[0] == 1
        assert theorem1_criterion(pipe) == F(-1, 10) * k(1)
        assert theorem2_symbolic(pipe)


class TestNearConicLaw:
    def test_linear_curvature_coefficients(self):
        # for kappa = k0 + eps s, h_2j = c_j k0^(j-2) eps + O(eps^3) with
        # c_j = -(3/4) j!/(2j+1)!!; the sum over j is the closed form
        # of _oracles.near_conic_x
        h = build_pipeline(MAX_ORDER).h
        for j in range(2, MAX_ORDER // 2 + 1):
            double_factorial = prod(range(1, 2 * j + 2, 2))
            exponents = {0: j - 2, 1: 1} if j > 2 else {1: 1}
            want = QR2Scalar(F(-3, 4) * factorial(j) / double_factorial)
            assert h[2 * j].coefficient_of(exponents) == want, j


def _lemma4(pipe):
    return lemma4_check(pipe.f_full, pipe.g_full)


def _lead_term(c, order):
    """The k<order> term of a coefficient."""
    return DiffPoly.monomial(c.coefficient_of({order: 1}), {order: 1})


class TestTheorems:
    def test_flatness_criterion(self):
        h4 = theorem1_criterion(build_pipeline(MIN_ORDER))
        assert h4 == F(-1, 10) * k(1)
        assert h4.substitute_partial({1: 0}) == 0
        assert h4.substitute_partial({1: 1}) == F(-1, 10)

    def test_straightness_symbolic(self):
        assert theorem2_symbolic(build_pipeline(12))

    def test_h6_reduces_to_third_derivative(self, pipe):
        reduced = pipe.h[6].substitute_partial({1: 0})
        assert reduced == F(-1, 210) * k(3)

    def test_h8_reduces_to_fifth_derivative(self, pipe):
        reduced = pipe.h[8].substitute_partial({1: 0, 3: 0})
        expect_lead = QR2Scalar(-3) * SQRT2**8 * F(1, factorial(9))
        assert reduced == DiffPoly.monomial(expect_lead, {5: 1})

    def test_even_coefficients_die_without_odd_derivatives(self, pipe):
        for kk in range(0, pipe.order + 1, 2):
            assert kill_odd_derivatives(pipe.h[kk]).is_zero

    @pytest.mark.parametrize(
        "index, extra, check",
        [
            (8, k(1) * k(5), "theorem2.structural"),
            (8, k(1) * k(1) * k(5), "theorem2.triangular"),
            (10, k(1) * k(7), "theorem2.structural"),
            (8, k(0), "theorem2.structural"),
            (2, k(1), "theorem2.low_order"),
        ],
        ids=["h8+k1*k5", "h8+k1^2*k5", "h10+k1*k7", "h8+k0", "h2+k1"],
    )
    def test_straightness_catches_injected_term(self, index, extra, check):
        # the first three terms vanish once the odd derivatives below
        # k(k-3) are zeroed, so only the parity classes catch them
        pipe = build_pipeline(12)
        h = list(pipe.h.coeffs)
        h[index] = h[index] + extra
        with pytest.raises(VerificationError) as err:
            theorem2_symbolic(dataclasses.replace(pipe, h=Series(h)))
        assert err.value.check == check
        assert f"h_{index}" in err.value.detail

    @pytest.mark.parametrize(
        "name, index, fault, check, failure, detail",
        [
            ("g", 5, lambda c: c + k(0), wronskian_series, "wronskian.series", "got "),
            # a u1 that is not constant is a setup failure, not a ValueError
            ("u", 1, lambda c: c + SQRT2 * k(0), h_leading_law, "hlaw.setup", "u1="),
            ("h", 5, lambda c: c * 2, h_leading_law, "hlaw.extracted", "k=5"),
            ("u", 5, lambda c: c * 2, h_leading_law, "hlaw.sqrt_step", "k=5"),
            ("v", 5, lambda c: c * 2, h_leading_law, "hlaw.inverse_step", "k=5"),
            ("h", 4, lambda c: c + k(0), theorem1_criterion, "theorem1.h4", "h_4 = "),
            # h_8 keeps its class but loses its k5 term
            ("h", 8, lambda c: c - _lead_term(c, 5), theorem2_symbolic, "theorem2.leading", "l_h[8]"),
            ("g_full", 7, lambda c: c * 2, _lemma4, "lemma4.leading.g", "k=7"),
            # k4 and k3 lie above P^3 and P^2; the leading terms stay
            ("f_full", 8, lambda c: c + k(4), _lemma4, "lemma4.residual.f", "p_8 = "),
            ("g_full", 8, lambda c: c + k(3), _lemma4, "lemma4.residual.g", "q_8 = "),
            # p_11 gains k6, which lies in its class P^6 with its parity;
            # at the top order only the recursion sees it
            (
                "f_full",
                11,
                lambda c: c + k(6) * F(1, factorial(11)),
                _lemma4,
                "lemma4.induction.p",
                "k=11",
            ),
        ],
        ids=[
            "g5+k0",
            "u1+sqrt2*k0",
            "h5*2",
            "u5*2",
            "v5*2",
            "h4+k0",
            "h8-lead",
            "g_full7*2",
            "f_full8+k4",
            "g_full8+k3",
            "f_full11+k6",
        ],
    )
    def test_check_catches_injected_fault(self, pipe, name, index, fault, check, failure, detail):
        # each fault keeps the coefficient's sqrt2 bit: a mixed one could not be built
        coeffs = list(getattr(pipe, name).coeffs)
        coeffs[index] = fault(coeffs[index])
        with pytest.raises(VerificationError) as err:
            check(dataclasses.replace(pipe, **{name: Series(coeffs)}))
        assert err.value.check == failure
        assert detail in err.value.detail


class TestPipelineValidation:
    def test_minimum_order(self):
        with pytest.raises(ValueError):
            build_pipeline(5)

    def test_alternating_structure(self, pipe):
        assert is_alternating(pipe.f, 3, 3)
        assert is_alternating(pipe.g, 4, 0)
        assert is_alternating(pipe.g, 4, 4)
        assert is_alternating(pipe.u, 3, 1)
        assert is_alternating(pipe.v, 3, 1)
        assert is_alternating(pipe.h, 3, 1)


class TestPipelineWork:
    """The power table of U starts from G = 2g, products pair only
    nonzero coefficients, and no batch handed to the kernel is empty."""

    @pytest.mark.parametrize("order", [6, 14, 26])
    def test_no_series_is_squared(self, monkeypatch, cold_caches, order):
        true_mul = Series.mul
        squared = []

        def spy(self, other):
            if other is self:
                squared.append(self.order)
            return true_mul(self, other)

        monkeypatch.setattr(Series, "mul", spy)
        build_pipeline(order)
        assert squared == []

    def test_products_pass_no_zero_factor(self, monkeypatch, cold_caches):
        # g_3 = 0 puts zeros inside U and each of its powers (U_2 = 0), on
        # top of their leading zeros; no product hands the kernel a pair
        # with such a factor
        true_mul, true_kernel = Series.mul, DiffPoly.sum_of_products
        open_products, pairs = [], []

        def kernel(batch):
            batch = list(batch)
            if open_products:
                pairs.extend(batch)
            return true_kernel(batch)

        def mul(self, other):
            open_products.append(self)
            try:
                return true_mul(self, other)
            finally:
                open_products.pop()

        monkeypatch.setattr(Series, "mul", mul)
        monkeypatch.setattr(DiffPoly, "sum_of_products", staticmethod(kernel))
        build_pipeline(16)
        assert pairs
        assert [pair for pair in pairs if not all(pair)] == []

    @pytest.mark.parametrize(
        "run",
        [lambda: build_pipeline(16), lambda: cli.run_verification(14, 0)],
        ids=["build_pipeline-16", "verify-14"],
    )
    def test_no_kernel_call_is_empty(self, monkeypatch, cold_caches, run):
        # a sum with no pair is the zero polynomial, taken without a call
        true_kernel = DiffPoly.sum_of_products
        sizes = []

        def kernel(batch):
            batch = list(batch)
            sizes.append(len(batch))
            return true_kernel(batch)

        monkeypatch.setattr(DiffPoly, "sum_of_products", staticmethod(kernel))
        run()
        assert sizes
        assert 0 not in sizes


def _weight(exponents) -> int:
    """Weight of a monomial when k_i has weight i + 2."""
    return sum(e * (order + 2) for order, e in exponents)


@pytest.mark.parametrize("order", sorted({14, MAX_ORDER}))
class TestGradingInvariants:
    """Structural facts the rational core relies on, checked exactly."""

    def test_weight_homogeneity(self, order):
        pipe = build_pipeline(order)
        shifts = {"f": 1, "g": 2, "u": 1, "v": 1, "h": 1}
        for name, shift in shifts.items():
            series = getattr(pipe, name)
            for kk, c in enumerate(series.coeffs):
                for m in c.monomials():
                    assert _weight(m.exponents) == kk - shift, f"{name}[{kk}] has {m}"

    def test_h_is_f_of_v(self, order):
        pipe = build_pipeline(order)
        assert pipe.h == compose(pipe.f, pipe.v)

    def test_sqrt2_parity(self, order):
        pipe = build_pipeline(order)
        for name in ("v", "h"):
            for kk, c in enumerate(getattr(pipe, name).coeffs):
                for m in c.monomials():
                    # Q * sqrt2^k: rational for even k, a multiple of sqrt2 for odd k
                    off = m.coeff.b if kk % 2 == 0 else m.coeff.a
                    assert off == 0, f"{name}[{kk}] has {m}"
        for kk, c in enumerate(pipe.u.coeffs):
            for m in c.monomials():
                assert m.coeff.a == 0, f"u[{kk}] has {m}"
