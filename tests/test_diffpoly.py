from fractions import Fraction as F

import pytest
from _oracles import (
    kill_odd_derivatives,
    monomial_key,
    odd_degree,
    tuple_differentiate,
    tuple_in_class,
    tuple_kill_odd_derivatives,
    tuple_str,
    tuple_sum_of_products,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from affgrav import DiffPoly, GradedClass, QR2Scalar

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
            d = odd_degree(mono.monomials()[0])
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
        assert odd_degree(mono) == expected


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
        assert GradedClass(2, 0) * GradedClass(3, 1) == GradedClass(3, 1)
        got = GradedClass(1, 1) * GradedClass(1, 1)
        assert (got.k, got.parity) == (1, 0)
        got = GradedClass(-1, 0) * GradedClass(2, 1)
        assert (got.k, got.parity) == (2, 1)

    @given(graded_polys(), graded_polys())
    def test_product_closure(self, pc1, pc2):
        p, c1 = pc1
        q, c2 = pc2
        assert (p * q).in_class(c1 * c2)

    @given(graded_polys())
    def test_derivative_closure(self, pc):
        p, c = pc
        assert p.differentiate().in_class(GradedClass(c.k + 1, c.sigma + 1))


class TestSubstitute:
    def test_linear(self):
        assert (F(-1, 6) * k(0)).substitute_partial({0: 1}) == F(-1, 6)

    def test_zero_assignment(self):
        poly = (8 * k(2) + 15 * k(0) * k(0)) * QR2Scalar(0, F(-1, 480))
        assert poly.substitute_partial({0: 0, 2: 0}) == 0

    def test_composite(self):
        poly = -(k(3) + 9 * k(0) * k(1)) * F(1, 210)
        assert poly.substitute_partial({0: 1, 1: 2, 3: 3}) == F(-1, 10)

    def test_partial_substitution(self):
        poly = -(k(3) + 9 * k(0) * k(1)) * F(1, 210)
        assert poly.substitute_partial({1: 0}) == F(-1, 210) * k(3)


class TestKillOddDerivatives:
    def test_all_odd_degree_dies(self):
        assert kill_odd_derivatives(-k(3) - 9 * k(0) * k(1)).is_zero

    def test_even_survives(self):
        poly = -3 * k(2) + k(0) * k(0)
        assert kill_odd_derivatives(poly) == poly

    def test_mixed(self):
        poly = 10 * k(1) * k(1) + 13 * k(0) * k(2)
        assert kill_odd_derivatives(poly) == 13 * k(0) * k(2)

    @given(graded_polys())
    def test_idempotent(self, pc):
        p, _ = pc
        once = kill_odd_derivatives(p)
        assert kill_odd_derivatives(once) == once

    @given(graded_polys())
    def test_fixed_point_iff_even_monomials(self, pc):
        p, _ = pc
        unchanged = kill_odd_derivatives(p) == p
        all_even = all(odd_degree(m) == 0 for m in p.monomials())
        assert unchanged == all_even

    @given(graded_polys())
    def test_agrees_with_zero_substitution(self, pc):
        p, c = pc
        odd_orders = {o: 0 for o in range(1, c.k + 1, 2)}
        assert kill_odd_derivatives(p) == p.substitute_partial(odd_orders)


class TestTextForm:
    @pytest.mark.parametrize(
        "build, text",
        [
            (
                lambda: F(1, 120) * k(2) * k(0) * k(0) + F(-1, 6) * k(0),
                "(-1/6)*k0 + (1/120)*k0^2*k2",
            ),
            # ties within one degree: the first factor that differs decides,
            # and a missing factor sorts after any exponent
            (lambda: k(0) * k(0) + k(0) * k(1), "(1)*k0*k1 + (1)*k0^2"),
            (lambda: k(1) * k(1) + k(0) * k(2), "(1)*k0*k2 + (1)*k1^2"),
            (lambda: k(0) + 3, "(3) + (1)*k0"),
        ],
        ids=["degrees", "k0k1-k0^2", "k0k2-k1^2", "constant-first"],
    )
    def test_deterministic_rendering(self, build, text):
        assert str(build()) == text

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

    def test_mixed_scalar_is_refused(self):
        with pytest.raises(ValueError, match="mix"):
            QR2Scalar(1, 1)

    def test_sqrt2_bit_in_products(self):
        s = self.SQRT2
        assert (k(0) * s) * (k(1) * s) == 2 * k(0) * k(1)
        assert k(0).scale(s).scale(s) == k(0).scale(2)
        # the sqrt2 * sqrt2 pair doubles: 3 * 2 + 1
        got = DiffPoly.sum_of_products([((k(0) * s).scale(3), k(1) * s), (k(0), k(1))])
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
            lambda: k(0) - k(1) * QR2Scalar.sqrt2(),
            lambda: 1 - k(1) * QR2Scalar.sqrt2(),
            lambda: k(0) + QR2Scalar(1, 1),
            lambda: k(0).scale(QR2Scalar(F(1, 2), 3)),
            lambda: k(0) * QR2Scalar(1, 1),
            lambda: DiffPoly.sum_of_products([(k(0), k(1)), (k(0) * QR2Scalar.sqrt2(), k(1))]),
        ],
        ids=[
            "scalar",
            "terms",
            "add",
            "sub-scalar",
            "sub",
            "rsub",
            "add-scalar",
            "scale",
            "mul",
            "products",
        ],
    )
    def test_mixed_input_is_refused(self, build):
        with pytest.raises(ValueError, match="mix"):
            build()


exponent_maps = st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


@st.composite
def tuple_polys(draw, bit=None):
    """A tuple-keyed polynomial: coefficients all in Q, or all in sqrt2 * Q."""
    if bit is None:
        bit = draw(st.integers(0, 1))
    unit = QR2Scalar(0, 1) if bit else QR2Scalar(1)
    coeffs = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 6))
    terms = draw(st.dictionaries(exponent_maps, coeffs, max_size=5))
    return {exps: unit * c for exps, c in terms.items()}


class TestPackedKeysMatchTupleOracle:
    """Packed monomial keys agree with the tuple-keyed bookkeeping."""

    @given(tuple_polys(), exponent_maps)
    def test_unary_operations(self, a, absent):
        poly = DiffPoly(a)
        assert poly.differentiate() == DiffPoly(tuple_differentiate(a))
        assert kill_odd_derivatives(poly) == DiffPoly(tuple_kill_odd_derivatives(a))
        for kk in range(-2, 7):
            for sigma in range(-1, 3):
                assert poly.in_class(GradedClass(kk, sigma)) == tuple_in_class(a, kk, sigma)
        for exps, c in a.items():
            assert poly.coefficient_of(dict(exps)) == c
        assert poly.coefficient_of(dict(absent)) == a.get(absent, 0)
        got = [(m.exponents, m.coeff) for m in poly.monomials()]
        assert got == [(exps, a[exps]) for exps in sorted(a, key=monomial_key)]
        assert str(poly) == tuple_str(a)

    def test_term_order_on_every_small_exponent_map(self):
        # every exponent map with exponents 0..3 over k0..k5
        maps = [()]
        for order in range(6):
            maps = [m + ((order, e),) if e else m for m in maps for e in range(4)]
        got = [m.exponents for m in DiffPoly(dict.fromkeys(maps, 1)).monomials()]
        assert got == sorted(maps, key=monomial_key)

    @given(tuple_polys(), tuple_polys())
    def test_product_equality_and_hash(self, a, b):
        p, q = DiffPoly(a), DiffPoly(b)
        assert p * q == DiffPoly(tuple_sum_of_products([(a, b)], [1]))
        p_again = DiffPoly(dict(reversed(list(a.items()))))
        assert p == p_again and hash(p) == hash(p_again)
        assert (p == q) == (a == b)

    @given(st.integers(0, 1).flatmap(lambda bit: st.tuples(tuple_polys(bit), tuple_polys(bit))))
    def test_subtraction_and_negation(self, ab):
        a, b = ab
        p, q = DiffPoly(a), DiffPoly(b)
        minus_a = {exps: -c for exps, c in a.items()}
        difference = {exps: a.get(exps, 0) - b.get(exps, 0) for exps in a.keys() | b.keys()}
        for got, want in ((p - q, difference), (-p, minus_a), (0 - p, minus_a), (p - 0, a)):
            want = DiffPoly({exps: c for exps, c in want.items() if c})
            assert got == want and hash(got) == hash(want)

    @settings(max_examples=50)  # each example draws up to six polynomials
    @given(
        st.tuples(st.integers(0, 1), st.integers(0, 1)).flatmap(
            lambda bits: st.lists(
                st.tuples(tuple_polys(bits[0]), tuple_polys(bits[1]), st.integers(-4, 4)),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_weighted_sum_of_products(self, triples):
        pairs = [(p, q) for p, q, _ in triples]
        weights = [w for _, _, w in triples]
        got = DiffPoly.sum_of_products(
            (DiffPoly(p).scale(w), DiffPoly(q)) for p, q, w in triples
        )
        assert got == DiffPoly(tuple_sum_of_products(pairs, weights))


class TestIntegerRendering:
    """``str`` prints each stored numerator over the denominator exactly as
    the equal Fraction or QR2Scalar prints."""

    @pytest.mark.parametrize(
        "coeff",
        [F(1), F(-1), F(2), F(-7), F(3, 4), F(-3, 4), F(10, 6), F(-1, 480)],
        ids=str,
    )
    @pytest.mark.parametrize("bit", [0, 1])
    def test_term_by_term(self, coeff, bit):
        unit = QR2Scalar(0, 1) if bit else QR2Scalar(1)
        terms = {
            (): unit * coeff,
            ((0, 1),): unit * coeff * 5,
            ((1, 2),): -unit * coeff / 3,
            ((0, 1), (2, 1)): unit * F(-1, 2),
            # degree-2 ties, stored out of order: k0*k1, k0*k2, k0^2, k1^2
            ((0, 2),): unit * coeff * 7,
            ((0, 1), (1, 1)): unit * F(2, 3),
        }
        assert str(DiffPoly(terms)) == tuple_str(terms)

    def test_sqrt2_magnitudes(self):
        s = QR2Scalar.sqrt2()
        poly = DiffPoly({(): s, ((0, 1),): -s, ((1, 1),): s * F(3, 4), ((2, 1),): s * F(-3, 4)})
        assert str(poly) == "(sqrt2) + (-sqrt2)*k0 + (3/4*sqrt2)*k1 + (-3/4*sqrt2)*k2"
        assert str(DiffPoly.monomial(s * 2, {0: 2})) == "(2*sqrt2)*k0^2"


class TestStorageRange:
    """Exponents and derivative orders run to 127; past either, the result
    is a ValueError, never a wrong polynomial."""

    def test_squaring_past_the_exponent_bound_raises(self):
        p, e = k(0), 1
        while e * 2 <= 127:
            p, e = p * p, e * 2
            assert [m.exponents for m in p.monomials()] == [((0, e),)]
        with pytest.raises(ValueError, match="exponent"):
            p * p
        with pytest.raises(ValueError, match="exponent"):
            DiffPoly.sum_of_products([(k(0), k(1)), (p.scale(2), p)])

    def test_exponent_bound_is_inclusive(self):
        top = DiffPoly.monomial(1, {3: 64}) * DiffPoly.monomial(1, {3: 63})
        assert top.coefficient_of({3: 127}) == 1
        with pytest.raises(ValueError, match="exponent"):
            top * k(3)

    def test_derivative_past_the_last_order_raises(self):
        assert k(126).differentiate() == k(127)
        with pytest.raises(ValueError, match="order"):
            k(127).differentiate()
        with pytest.raises(ValueError, match="order"):
            (k(0) * k(127)).differentiate()

    def test_derivative_past_the_exponent_bound_raises(self):
        with pytest.raises(ValueError, match="exponent"):
            (k(0) * DiffPoly.monomial(1, {1: 127})).differentiate()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DiffPoly.kappa(128),
            lambda: DiffPoly.kappa(-1),
            lambda: DiffPoly.monomial(1, {0: 128}),
            lambda: DiffPoly.monomial(1, {128: 1}),
            lambda: DiffPoly({((0, 128),): 1}),
            lambda: DiffPoly({((128, 1),): 1}),
            lambda: DiffPoly({((-1, 1),): 1}),
            lambda: DiffPoly({((0, -1),): 1}),
            lambda: DiffPoly({((0, 100), (0, 100)): 1}),
            lambda: DiffPoly({((3, 100), (3, 100), (3, 100)): 1}),
        ],
        ids=[
            "kappa",
            "kappa-negative",
            "monomial-exponent",
            "monomial-order",
            "exponent",
            "order",
            "negative-order",
            "negative-exponent",
            "repeated-order-sum",
            "repeated-order-carry",
        ],
    )
    def test_unstorable_input_is_refused(self, build):
        with pytest.raises(ValueError, match="cannot be stored|nonnegative"):
            build()

    def test_coefficient_of_unstorable_monomial_is_zero(self):
        poly = DiffPoly.monomial(3, {0: 127}) + k(127)
        assert poly.coefficient_of({0: 127}) == 3
        assert poly.coefficient_of({127: 1}) == 1
        for exps in ({0: 128}, {128: 1}, {0: 1, 500: 2}, {-1: 1}, {0: -1}, {3: 0, 0: -1}):
            assert poly.coefficient_of(exps) == 0
        assert (poly + 5).coefficient_of({0: -1}) == 0  # not the constant term


class TestSingleTermConstructors:
    """zero, constant, kappa and monomial build what the mapping
    constructor builds, stored the same way."""

    @staticmethod
    def stored(poly):
        return poly._bit, poly._den, poly._terms

    @pytest.mark.parametrize(
        "value", [0, 1, -7, F(0), F(-6, 4), QR2Scalar(0), QR2Scalar(F(3, 9)), QR2Scalar(0, F(-2, 6))]
    )
    def test_constant(self, value):
        assert self.stored(DiffPoly.constant(value)) == self.stored(DiffPoly({(): value}))

    def test_zero(self):
        assert self.stored(DiffPoly.zero()) == self.stored(DiffPoly()) == (0, 1, {})

    @pytest.mark.parametrize("order", [0, 1, 2, 63, 127])
    def test_kappa(self, order):
        assert self.stored(k(order)) == self.stored(DiffPoly({((order, 1),): 1}))

    @pytest.mark.parametrize("coeff", [0, 5, F(-1, 3), QR2Scalar(0, 2)])
    @pytest.mark.parametrize("exponents", [{}, {0: 2, 3: 1}, {1: 0, 2: 127}, {200: 1}])
    def test_monomial(self, coeff, exponents):
        # a zero coefficient is zero before its monomial is packed, as in the mapping
        exps = tuple(sorted((o, e) for o, e in exponents.items() if e))
        try:
            want = self.stored(DiffPoly({exps: coeff}))
        except ValueError:
            with pytest.raises(ValueError, match="cannot be stored"):
                DiffPoly.monomial(coeff, exponents)
            return
        assert self.stored(DiffPoly.monomial(coeff, exponents)) == want
