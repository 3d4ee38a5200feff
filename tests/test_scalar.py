import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from affgrav import DiffPoly, QR2Scalar, Series


def q(a, b=0):
    return QR2Scalar(F(a), F(b))


def graded(r, bit):
    """r * sqrt2^bit."""
    return q(0, r) if bit else q(r)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
bits = st.integers(0, 1)
scalars = st.builds(graded, rationals, bits)
nonzero_scalars = scalars.filter(bool)
# three values with one sqrt2 bit, so that their sums are defined
same_bit_triples = st.builds(
    lambda y, z, t, bit: (graded(y, bit), graded(z, bit), graded(t, bit)),
    rationals,
    rationals,
    rationals,
    bits,
)


class TestArithmetic:
    def test_sqrt2_squares_to_two(self):
        assert QR2Scalar.sqrt2() * QR2Scalar.sqrt2() == q(2)

    def test_rational_times_sqrt2_part(self):
        assert q(0, F(1, 6)) * q(F(1, 2)) == q(0, F(1, 12))

    def test_one_over_two_sqrt2(self):
        # -1/(2*sqrt2) rationalizes to -sqrt2/4
        assert (-1) / q(0, 2) == q(0, F(-1, 4))

    def test_pow(self):
        assert QR2Scalar.sqrt2() ** 12 == q(64)


class TestGradedForm:
    def test_mixed_value_is_refused(self):
        with pytest.raises(ValueError, match="mix"):
            QR2Scalar(1, 1)
        with pytest.raises(ValueError, match="mix"):
            q(1) + QR2Scalar.sqrt2()
        with pytest.raises(ValueError, match="mix"):
            QR2Scalar.sqrt2() - F(1, 2)

    def test_zero_has_bit_zero(self):
        s = QR2Scalar.sqrt2()
        assert s - s == 0
        assert hash(s - s) == hash(0)
        assert q(0) + s == s + 0 == s


# Every entry point that takes an exact scalar, as a function of that scalar.
EXACT_ENTRY_POINTS = {
    "QR2Scalar-a": lambda x: QR2Scalar(x),
    "QR2Scalar-b": lambda x: QR2Scalar(0, x),
    "constant": DiffPoly.constant,
    "monomial": lambda x: DiffPoly.monomial(x, {0: 1}),
    "mapping": lambda x: DiffPoly({((1, 2),): x}),
    "scale": lambda x: DiffPoly.kappa(0).scale(x),
    "substitute_partial": lambda x: DiffPoly.kappa(0).substitute_partial({0: x}),
    "mul": lambda x: DiffPoly.kappa(0) * x,
    "add": lambda x: DiffPoly.kappa(0) + x,
    "series": lambda x: Series([x]),
}


class TestExactGate:
    """One gate: int, Fraction and QR2Scalar pass, anything else is a TypeError."""

    @pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS.values(), ids=EXACT_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [0.1, 0.5, 0.0, "1/2", Decimal("0.5")], ids=repr)
    def test_non_exact_scalar_raises_type_error(self, entry, bad):
        with pytest.raises(TypeError):
            entry(bad)

    @pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS.values(), ids=EXACT_ENTRY_POINTS)
    def test_exact_scalars_pass(self, entry):
        for good in (3, F(1, 2), q(F(-1, 3))):
            entry(good)


class TestInverse:
    def test_identity(self):
        assert q(1).inverse() == q(1)

    def test_sqrt2(self):
        assert q(0, 1).inverse() == q(0, F(1, 2))

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            q(0).inverse()


class TestSqrt:
    def test_rational_square(self):
        assert q(F(9, 4)).sqrt() == q(F(3, 2))

    def test_two(self):
        assert q(2).sqrt() == QR2Scalar.sqrt2()

    def test_half(self):
        assert q(F(1, 2)).sqrt() == q(0, F(1, 2))

    def test_outside_field(self):
        with pytest.raises(ValueError):
            q(3).sqrt()
        with pytest.raises(ValueError):
            QR2Scalar.sqrt2().sqrt()  # 2^(1/4)

    def test_negative(self):
        with pytest.raises(ValueError):
            q(-1).sqrt()


class TestFloatAndText:
    def test_to_float(self):
        assert q(0, F(-1, 4)).to_float() == pytest.approx(-0.35355339, abs=1e-8)
        assert q(0).to_float() == 0.0

    def test_str(self):
        assert str(q(F(-1, 6))) == "-1/6"
        assert str(q(0, F(-1, 4))) == "-1/4*sqrt2"
        assert str(q(0, 1)) == "sqrt2"

    def test_sign(self):
        assert q(0, F(-1, 4)).sign() == -1
        assert q(F(1, 2)).sign() == 1
        assert q(0).sign() == 0


class TestFieldAxioms:
    @given(scalars, scalars, same_bit_triples)
    def test_associativity_and_distributivity(self, x, w, triple):
        y, z, t = triple
        assert (y + z) + t == y + (z + t)
        assert (x * w) * y == x * (w * y)
        assert x * (y + z) == x * y + x * z

    @given(scalars, same_bit_triples)
    def test_commutativity(self, x, triple):
        y, z, _ = triple
        assert y + z == z + y
        assert x * y == y * x

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, x):
        assert x * x.inverse() == QR2Scalar(1)

    @given(scalars, st.integers(-4, 6))
    def test_pow_is_repeated_product(self, x, n):
        assume(x or n >= 0)
        expect = QR2Scalar(1)
        for _ in range(abs(n)):
            expect = expect * x
        assert x**n == (expect if n >= 0 else expect.inverse())

    @given(nonzero_scalars)
    def test_norm_never_vanishes(self, x):
        # a^2 - 2 b^2 = 0 only for zero, by irrationality of sqrt2
        assert x.a * x.a - 2 * x.b * x.b != 0

    @given(scalars)
    def test_float_consistency(self, x):
        assert x.to_float() == float(x.a) + float(x.b) * math.sqrt(2)
