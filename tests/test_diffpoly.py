from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affgrav import DiffPoly, GradedClass, MissingAssignmentError, QR2Scalar, class_product_bound

k = DiffPoly.kappa


def graded_polys(max_k=4):
    """Strategy for (poly, class) pairs with certified membership."""

    @st.composite
    def build(draw):
        kk = draw(st.integers(1, max_k))
        sigma = draw(st.integers(0, 1))
        n_mono = draw(st.integers(1, 3))
        poly = DiffPoly.zero()
        for _ in range(n_mono):
            coeff = draw(st.integers(-3, 3).filter(bool))
            mono = DiffPoly.constant(coeff)
            for _ in range(draw(st.integers(0, 3))):
                mono = mono * k(draw(st.integers(0, kk)))
            d = mono.monomials()[0].odd_degree()
            if d % 2 != sigma:
                mono = mono * k(1)
            poly = poly + mono
        return poly, GradedClass(kk, sigma)

    return build()


class TestRingOps:
    def test_like_term_merge(self):
        assert k(0) * k(1) + k(0) * k(1) == 2 * k(0) * k(1)

    def test_square(self):
        assert k(1) * k(1) == DiffPoly.monomial(1, {1: 2})

    def test_expand(self):
        assert (-k(2) + k(0) * k(0)) * k(0) == -k(0) * k(2) + k(0) * k(0) * k(0)

    def test_zero_absorbs(self):
        assert (k(0) - k(0)).is_zero
        assert (DiffPoly.zero() * k(3)).is_zero


class TestDifferentiate:
    def test_single_variable(self):
        assert k(0).differentiate() == k(1)

    def test_square_leibniz(self):
        assert (k(0) * k(0)).differentiate() == 2 * k(0) * k(1)

    def test_frame_chain_value(self):
        # the coefficient feeding the 6th derivative of the curve
        assert (-k(2) + k(0) * k(0)).differentiate() == -k(3) + 2 * k(0) * k(1)

    @given(graded_polys(), graded_polys())
    def test_product_rule(self, pc1, pc2):
        p, _ = pc1
        q, _ = pc2
        assert (p * q).differentiate() == p.differentiate() * q + p * q.differentiate()


class TestOddDegree:
    @pytest.mark.parametrize(
        "poly,expected",
        [
            (k(0) * k(0), 0),
            (k(1) * k(2), 1),
            (k(1) * k(1) * k(1) * k(3), 4),
        ],
    )
    def test_values(self, poly, expected):
        (mono,) = poly.monomials()
        assert mono.odd_degree() == expected


class TestGradedClasses:
    def test_even_class_membership(self):
        assert (-3 * k(2) + k(0) * k(0)).in_class(GradedClass(2, 0))

    def test_single_odd_factor(self):
        assert not k(1).in_class(GradedClass(1, 0))
        assert k(1).in_class(GradedClass(1, 1))

    def test_constants_not_in_odd_classes(self):
        assert not DiffPoly.constant(1).in_class(GradedClass(5, 1))

    def test_negative_order_conventions(self):
        assert DiffPoly.constant(7).in_class(GradedClass(-3, 0))
        assert not DiffPoly.constant(7).in_class(GradedClass(-3, 1))
        assert DiffPoly.zero().in_class(GradedClass(-3, 1))
        assert not k(0).in_class(GradedClass(-3, 0))

    def test_product_bound_examples(self):
        assert class_product_bound(GradedClass(2, 0), GradedClass(3, 1)) == GradedClass(3, 1)
        got = class_product_bound(GradedClass(1, 1), GradedClass(1, 1))
        assert (got.k, got.parity) == (1, 0)
        got = class_product_bound(GradedClass(-1, 0), GradedClass(2, 1))
        assert (got.k, got.parity) == (2, 1)

    @given(graded_polys(), graded_polys())
    def test_product_closure(self, pc1, pc2):
        p, c1 = pc1
        q, c2 = pc2
        assert (p * q).in_class(class_product_bound(c1, c2))

    @given(graded_polys())
    def test_derivative_closure(self, pc):
        p, c = pc
        assert p.differentiate().in_class(GradedClass(c.k + 1, c.sigma + 1))


class TestSubstitute:
    def test_linear(self):
        assert (F(-1, 6) * k(0)).substitute({0: 1.0}) == pytest.approx(-1 / 6)

    def test_zero_assignment(self):
        poly = (8 * k(2) + 15 * k(0) * k(0)) * QR2Scalar(0, F(-1, 480))
        assert poly.substitute({0: 0.0, 2: 0.0}) == 0.0

    def test_composite(self):
        poly = -(k(3) + 9 * k(0) * k(1)) * F(1, 210)
        assert poly.substitute({0: 1.0, 1: 2.0, 3: 3.0}) == pytest.approx(-0.1)

    def test_missing_assignment_lists_orders(self):
        poly = k(0) * k(2) + k(5)
        with pytest.raises(MissingAssignmentError) as info:
            poly.substitute({0: 1.0})
        assert info.value.orders == [2, 5]

    def test_partial_substitution(self):
        poly = -(k(3) + 9 * k(0) * k(1)) * F(1, 210)
        assert poly.substitute_partial({1: 0}) == F(-1, 210) * k(3)


class TestKillOddDerivatives:
    def test_all_odd_degree_dies(self):
        assert (-k(3) - 9 * k(0) * k(1)).kill_odd_derivatives().is_zero

    def test_even_survives(self):
        poly = -3 * k(2) + k(0) * k(0)
        assert poly.kill_odd_derivatives() == poly

    def test_mixed(self):
        poly = 10 * k(1) * k(1) + 13 * k(0) * k(2)
        assert poly.kill_odd_derivatives() == 13 * k(0) * k(2)

    @given(graded_polys())
    def test_idempotent(self, pc):
        p, _ = pc
        once = p.kill_odd_derivatives()
        assert once.kill_odd_derivatives() == once

    @given(graded_polys())
    def test_fixed_point_iff_even_monomials(self, pc):
        p, _ = pc
        unchanged = p.kill_odd_derivatives() == p
        all_even = all(m.odd_degree() == 0 for m in p.monomials())
        assert unchanged == all_even

    @given(graded_polys())
    def test_agrees_with_zero_substitution(self, pc):
        p, c = pc
        odd_orders = {o: 0 for o in range(1, c.k + 1, 2)}
        assert p.kill_odd_derivatives() == p.substitute_partial(odd_orders)


class TestTextForm:
    def test_deterministic_rendering(self):
        poly = F(1, 120) * k(2) * k(0) * k(0) + F(-1, 6) * k(0)
        assert str(poly) == "(-1/6)*k0 + (1/120)*k0^2*k2"

    def test_zero(self):
        assert str(DiffPoly.zero()) == "0"

    def test_sqrt2_coefficient(self):
        assert str(DiffPoly.monomial(QR2Scalar(0, F(-1, 4)), {0: 1})) == "(-1/4*sqrt2)*k0"


class TestExactNumberType:
    """Coefficients lie all in Q or all in sqrt2 * Q; mixing is refused."""

    SQRT2 = QR2Scalar.sqrt2()

    def test_constant_hashes_like_its_scalar(self):
        assert len({DiffPoly.constant(1), 1}) == 1
        assert hash(DiffPoly.constant(F(1, 2))) == hash(F(1, 2))
        half_sqrt2 = QR2Scalar(0, F(1, 2))
        assert hash(DiffPoly.constant(half_sqrt2)) == hash(half_sqrt2)
        assert hash(DiffPoly.zero()) == hash(0)

    def test_equal_polynomials_hash_equal(self):
        assert hash(k(0) * k(1) * 2) == hash(2 * k(0) * k(1))
        assert hash(k(0) * self.SQRT2) == hash(DiffPoly.monomial(self.SQRT2, {0: 1}))

    def test_mixed_scalar_compares_unequal(self):
        assert (DiffPoly.constant(1) == QR2Scalar(1, 1)) is False
        assert k(0) != QR2Scalar(1, 1)
        assert QR2Scalar(1, 1) != DiffPoly.constant(1)

    def test_sqrt2_bit_in_products(self):
        s = self.SQRT2
        assert (k(0) * s) * (k(1) * s) == 2 * k(0) * k(1)
        assert k(0).scale(s).scale(s) == k(0).scale(2)
        got = DiffPoly.sum_of_products([(k(0) * s, k(1) * s), (k(0), k(1))], [3, 1])
        assert got == 7 * k(0) * k(1)
        assert (k(0) * s).coefficient_of({0: 1}) == s
        assert k(0) * s != k(0)
        assert k(0) * s - k(0) * s == DiffPoly.zero()  # zero has bit 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DiffPoly.constant(QR2Scalar(1, 1)),
            lambda: DiffPoly({(): 1, ((0, 1),): QR2Scalar.sqrt2()}),
            lambda: k(0) + k(1) * QR2Scalar.sqrt2(),
            lambda: k(0) - QR2Scalar.sqrt2(),
            lambda: k(0) + QR2Scalar(1, 1),
            lambda: k(0).scale(QR2Scalar(F(1, 2), 3)),
            lambda: k(0) * QR2Scalar(1, 1),
            lambda: DiffPoly.sum_of_products([(k(0), k(1)), (k(0) * QR2Scalar.sqrt2(), k(1))]),
        ],
        ids=["scalar", "terms", "add", "sub-scalar", "add-scalar", "scale", "mul", "products"],
    )
    def test_mixed_input_is_refused(self, build):
        with pytest.raises(ValueError, match="mix"):
            build()
