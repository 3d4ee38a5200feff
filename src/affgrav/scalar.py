"""Exact scalars q * sqrt2^bit with q rational.

Every sqrt2 in the expansion comes from g_2 = 1/2, so each coefficient
of u, v and h lies in Q or in sqrt2 * Q, never in a mix of the two.
``QR2Scalar`` stores exactly that form, a Fraction q and one sqrt2 bit
(0 for zero), and is the exchange and display type of exact
coefficients; ``DiffPoly`` stores the same form with integer numerators.
A value that would mix Q and sqrt2 * Q raises ValueError when it is
built.  A ``QR2Scalar`` with bit 0 equals, and hashes like, the same
``Fraction``.

Exact scalars are int, Fraction and QR2Scalar.  ``QR2Scalar(a, b)`` and
the ``DiffPoly`` entry points (``constant``, ``monomial``, ``scale``, the
mapping constructor, ``substitute_partial``) take their values through
one gate, ``_coerce``, and raise TypeError for anything else: a float
such as 0.1 is refused, not read as its binary fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["QR2Scalar"]

_SQRT2_FLOAT = math.sqrt(2.0)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coeff_text(n: int, den: int, bit: int) -> str:
    """The text of sqrt2^bit * n / den, den > 0; for bit 0 the Fraction's."""
    g = math.gcd(n, den)
    n, den = n // g, den // g
    if not bit:
        return str(n) if den == 1 else f"{n}/{den}"
    sign, n = ("-", -n) if n < 0 else ("", n)
    if den != 1:
        return f"{sign}{n}/{den}*sqrt2"
    return f"{sign}sqrt2" if n == 1 else f"{sign}{n}*sqrt2"


def _scalar(q: Fraction, bit: int) -> QR2Scalar:
    """q * sqrt2^bit for a Fraction q; zero gets bit 0."""
    s = object.__new__(QR2Scalar)
    s._q, s._bit = q, bit if q else 0
    return s


class QR2Scalar:
    """The number q * sqrt2^bit with rational q and bit 0 or 1.

    ``QR2Scalar(a, b)`` is a + b*sqrt2 with a, b exact scalars, at most
    one of them nonzero, and ``.a``, ``.b`` read the value back in that
    form.  Instances are immutable and canonical (q a Fraction, zero with
    bit 0), so equality is exact.
    """

    __slots__ = ("_q", "_bit")

    def __init__(
        self, a: Fraction | int | QR2Scalar = 0, b: Fraction | int | QR2Scalar = 0
    ) -> None:
        a, b = _exact(a), _exact(b)
        if a and b:
            raise ValueError(f"QR2Scalar({a}, {b}) mixes a rational and a sqrt2 part")
        value = b * _scalar(_ONE, 1) if b else a
        self._q, self._bit = value._q, value._bit

    @property
    def a(self) -> Fraction:
        return _ZERO if self._bit else self._q

    @property
    def b(self) -> Fraction:
        return self._q if self._bit else _ZERO

    @classmethod
    def sqrt2(cls) -> QR2Scalar:
        return _scalar(_ONE, 1)

    # -- basic protocol ------------------------------------------------

    def __repr__(self) -> str:
        return f"QR2Scalar({self.a}, {self.b})"

    def __str__(self) -> str:
        return _coeff_text(self._q.numerator, self._q.denominator, self._bit)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._bit == other._bit and self._q == other._q

    def __hash__(self) -> int:
        # agree with Fraction, which compares equal when the bit is 0
        return hash((self._q, 1)) if self._bit else hash(self._q)

    def __bool__(self) -> bool:
        return self._q != 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self._bit == other._bit:
            return _scalar(self._q + other._q, self._bit)
        if not other._q:
            return self
        if not self._q:
            return other
        raise ValueError(f"{self} + {other} mixes a rational and a sqrt2 part")

    __radd__ = __add__

    def __sub__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QR2Scalar:
        return (-self) + other

    def __neg__(self) -> QR2Scalar:
        return _scalar(-self._q, self._bit)

    def __mul__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        q = self._q * other._q
        if self._bit & other._bit:
            q *= 2  # sqrt2 * sqrt2
        return _scalar(q, self._bit ^ other._bit)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> QR2Scalar:
        return self.inverse() * other

    def __pow__(self, n: int) -> QR2Scalar:
        """q^n * 2^floor(bit*n/2) * sqrt2^(bit*n mod 2); ZeroDivisionError
        for zero to a negative power."""
        if not isinstance(n, int):
            return NotImplemented
        e = self._bit * n
        return _scalar(self._q**n * Fraction(2) ** (e // 2), e % 2)

    def inverse(self) -> QR2Scalar:
        """1/q, or sqrt2/(2q) when the bit is set."""
        if not self._q:
            raise ZeroDivisionError("inverse of zero")
        if self._bit:
            return _scalar(1 / (2 * self._q), 1)
        return _scalar(1 / self._q, 0)

    # -- order and embeddings --------------------------------------------

    def sign(self) -> int:
        """Sign of the real value, the sign of q."""
        return (self._q > 0) - (self._q < 0)

    def sqrt(self) -> QR2Scalar:
        """Nonnegative y with y*y == self: r for r^2, r*sqrt2 for 2*r^2.

        Raises ValueError when self is negative or has no such root.
        """
        if self._q < 0:
            raise ValueError(f"square root of negative value {self}")
        if not self._bit:
            for q, bit in ((self._q, 0), (self._q / 2, 1)):
                num, den = q.numerator, q.denominator
                rn, rd = math.isqrt(num), math.isqrt(den)
                if rn * rn == num and rd * rd == den:
                    return _scalar(Fraction(rn, rd), bit)
        raise ValueError(f"sqrt({self}) is not in Q or sqrt2 * Q")

    def to_float(self) -> float:
        """Double-precision value of q * sqrt2^bit."""
        return float(self._q) * _SQRT2_FLOAT if self._bit else float(self._q)


def _coerce(x) -> QR2Scalar | None:
    if isinstance(x, QR2Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _scalar(Fraction(x), 0)
    return None


def _exact(x) -> QR2Scalar:
    """x as a QR2Scalar; TypeError unless it is an int, Fraction or QR2Scalar."""
    value = _coerce(x)
    if value is None:
        raise TypeError(f"exact scalars are int, Fraction or QR2Scalar, not {x!r}")
    return value
