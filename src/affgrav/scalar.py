"""Exact arithmetic in the quadratic field Q(sqrt(2)).

The symbolic pipeline computes over Q and meets sqrt2 only when it
assembles its published series, so ``QR2Scalar`` is the exchange and
display type of exact coefficients; ``DiffPoly`` stores integers and
one sqrt2 bit, and takes only values in Q or sqrt2 * Q.  A ``QR2Scalar``
with zero sqrt2 part equals, and hashes like, the same ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["QR2Scalar", "rational_sqrt"]

_SQRT2_FLOAT = math.sqrt(2.0)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


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


class QR2Scalar:
    """Number of the form a + b*sqrt(2) with rational a, b.

    Instances are immutable and canonical (components are reduced
    fractions), so equality is componentwise and exact.  All arithmetic
    stays inside the field.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        self._a = a if type(a) is Fraction else Fraction(a)
        self._b = b if type(b) is Fraction else Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @classmethod
    def sqrt2(cls) -> QR2Scalar:
        return cls(0, 1)

    # -- basic protocol ------------------------------------------------

    def __repr__(self) -> str:
        return f"QR2Scalar({self._a}, {self._b})"

    def __str__(self) -> str:
        a, b = self._a, self._b
        if not (a and b):
            q, bit = (b, 1) if b else (a, 0)
            return _coeff_text(q.numerator, q.denominator, bit)
        b_text = _coeff_text(abs(b.numerator), b.denominator, 1)
        return f"{_coeff_text(a.numerator, a.denominator, 0)} {'+' if b > 0 else '-'} {b_text}"

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        # agree with Fraction, which compares equal when the sqrt2 part is 0
        return hash((self._a, self._b)) if self._b else hash(self._a)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QR2Scalar(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QR2Scalar(self._a - other._a, self._b - other._b)

    def __rsub__(self, other) -> QR2Scalar:
        return (-self) + other

    def __neg__(self) -> QR2Scalar:
        return QR2Scalar(-self._a, -self._b)

    def __mul__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + b*sqrt2)(c + d*sqrt2) = (ac + 2bd) + (ad + bc)*sqrt2
        return QR2Scalar(
            self._a * other._a + 2 * self._b * other._b,
            self._a * other._b + self._b * other._a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QR2Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> QR2Scalar:
        return self.inverse() * other

    def __pow__(self, n: int) -> QR2Scalar:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QR2Scalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> QR2Scalar:
        """Multiplicative inverse via the conjugate: (a - b*sqrt2)/(a^2 - 2b^2)."""
        norm = self._a * self._a - 2 * self._b * self._b
        if norm == 0:
            # a^2 = 2b^2 forces a = b = 0 since sqrt2 is irrational
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QR2Scalar(self._a / norm, -self._b / norm)

    # -- order and embeddings --------------------------------------------

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(2), computed exactly."""
        a, b = self._a, self._b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 against 2 b^2
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if a * a < 2 * b * b else -1

    def sqrt(self) -> QR2Scalar:
        """Nonnegative y with y*y == self, if one exists in Q(sqrt2).

        Raises ValueError when self is negative or the root falls outside
        the field.
        """
        if self.sign() < 0:
            raise ValueError(f"square root of negative value {self}")
        if self._b == 0:
            r = rational_sqrt(self._a)
            if r is not None:
                return QR2Scalar(r)
            r = rational_sqrt(self._a / 2)
            if r is not None:
                return QR2Scalar(0, r)
            raise ValueError(f"sqrt({self}) is not in Q(sqrt2)")
        # y = c + d*sqrt2 needs c^2 + 2d^2 = a, 2cd = b; the field norm
        # a^2 - 2b^2 must be a rational square.
        m = rational_sqrt(self._a * self._a - 2 * self._b * self._b)
        if m is not None:
            for half in ((self._a + m) / 2, (self._a - m) / 2):
                c = rational_sqrt(half)
                if c:
                    cand = QR2Scalar(c, self._b / (2 * c))
                    if cand * cand == self:
                        return cand if cand.sign() >= 0 else -cand
        raise ValueError(f"sqrt({self}) is not in Q(sqrt2)")

    def to_float(self) -> float:
        """Double-precision value of a + b*sqrt(2)."""
        return float(self._a) + float(self._b) * _SQRT2_FLOAT


def _coerce(x) -> QR2Scalar | None:
    if isinstance(x, QR2Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QR2Scalar(x)
    return None
