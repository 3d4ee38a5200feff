"""Differential polynomials in the curvature kappa and its derivatives.

A monomial is ``coeff * k0^e0 * k1^e1 * ...`` where ``ki`` stands for the
i-th derivative of the curvature with respect to arclength.  The ring
carries the arclength derivation (``ki`` maps to ``k(i+1)`` under the
Leibniz rule) and a parity grading by *odd degree*: the total exponent of
factors with odd derivative order.

Storage.  A polynomial is sqrt2^bit * sum(numerator * monomial) / den:
integer numerators, one positive integer denominator, common gcd 1, and
one sqrt2 bit (0 for zero).  Its coefficients thus lie all in Q or all
in sqrt2 * Q, as the expansion's do; ring operations are integer
arithmetic, and an input or result that would mix Q and sqrt2 * Q raises
ValueError.  The inspection methods hand coefficients out as ``QR2Scalar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import MissingAssignmentError
from .scalar import QR2Scalar

__all__ = ["DiffMonomial", "DiffPoly", "GradedClass", "class_product_bound"]

# ((derivative order, exponent), ...) with orders strictly increasing and
# exponents >= 1; the empty tuple is the constant monomial.
ExponentMap = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DiffMonomial:
    """One summand of a differential polynomial."""

    coeff: QR2Scalar
    exponents: ExponentMap

    def odd_degree(self) -> int:
        """Total exponent over odd derivative orders."""
        return sum(e for order, e in self.exponents if order % 2 == 1)

    def __str__(self) -> str:
        return _format_term(self.coeff, self.exponents)


def _format_term(coeff, exps: ExponentMap) -> str:
    factors = "*".join(f"k{order}" if e == 1 else f"k{order}^{e}" for order, e in exps)
    head = f"({coeff})"
    return head if not factors else f"{head}*{factors}"


def _monomial_key(exps: ExponentMap) -> tuple:
    # graded-lex: total degree first, then the exponent map itself
    return (sum(e for _, e in exps), exps)


def _merge_exponents(e1: ExponentMap, e2: ExponentMap) -> ExponentMap:
    if not e1:
        return e2
    if not e2:
        return e1
    merged: dict[int, int] = dict(e1)
    for order, e in e2:
        merged[order] = merged.get(order, 0) + e
    return tuple(sorted(merged.items()))


def _split(c) -> tuple[int, int, int]:
    """A scalar in Q or sqrt2 * Q as (numerator, denominator > 0, sqrt2 bit)."""
    bit = 0
    if isinstance(c, QR2Scalar):
        if c.a and c.b:
            raise ValueError(f"coefficient {c} mixes a rational and a sqrt2 part")
        c, bit = (c.b, 1) if c.b else (c.a, 0)
    q = Fraction(c)
    return q.numerator, q.denominator, bit


def _one_bit(bits: Iterable[int]) -> int:
    """The sqrt2 bit all the given bits share, 0 when there are none."""
    bits = set(bits)
    if len(bits) > 1:
        raise ValueError("the result would mix rational and sqrt2 * Q coefficients")
    return bits.pop() if bits else 0


def _reduced(den: int, nums: dict[ExponentMap, int], bit: int, poly=None) -> DiffPoly:
    """Canonical sqrt2^bit * sum(nums[e] * k^e) / den, in ``poly`` if given:
    zero terms dropped, gcd divided out, bit 0 when nothing is left."""
    terms = {exps: n for exps, n in nums.items() if n}
    if not terms:
        den, bit = 1, 0
    else:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {exps: n // g for exps, n in terms.items()}
    if poly is None:
        poly = DiffPoly.__new__(DiffPoly)
    poly._den, poly._terms, poly._bit = den, terms, bit
    return poly


class DiffPoly:
    """Polynomial in k0, k1, ... with coefficients all in Q or all in sqrt2 * Q.

    Immutable; the zero polynomial has no terms.  The canonical term
    order used for display and serialization is graded-lexicographic on
    (total degree, exponent map).
    """

    __slots__ = ("_den", "_terms", "_bit")

    def __init__(self, terms: Mapping[ExponentMap, object] | None = None):
        split = {exps: _split(c) for exps, c in (terms or {}).items() if c}
        den = lcm(*(d for _, d, _ in split.values())) if split else 1
        nums = {exps: n * (den // d) for exps, (n, d, _) in split.items()}
        _reduced(den, nums, _one_bit(bit for _, _, bit in split.values()), self)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> DiffPoly:
        return cls()

    @classmethod
    def constant(cls, value) -> DiffPoly:
        return cls({(): value})

    @classmethod
    def kappa(cls, order: int = 0) -> DiffPoly:
        """The single variable k<order>, i.e. the order-th derivative of kappa."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return cls({((order, 1),): 1})

    @classmethod
    def monomial(cls, coeff, exponents: Mapping[int, int]) -> DiffPoly:
        for order, e in exponents.items():
            if order < 0 or e < 0:
                raise ValueError("orders and exponents must be nonnegative")
        exps = tuple(sorted((o, e) for o, e in exponents.items() if e > 0))
        return cls({exps: coeff})

    @staticmethod
    def sum_of_products(
        pairs: Iterable[tuple[DiffPoly, DiffPoly]], weights: Iterable[int] | None = None
    ) -> DiffPoly:
        """The sum of p * q over the pairs, each times its integer weight
        when weights are given, over one common denominator; the kernel of
        every series product.  Two sqrt2 factors double a product's weight;
        products with different sqrt2 bits raise ValueError."""
        weights = repeat(1) if weights is None else weights
        pairs = [(p, q, w) for (p, q), w in zip(pairs, weights) if w and p._terms and q._terms]
        if not pairs:
            return DiffPoly()
        bit = _one_bit(p._bit ^ q._bit for p, q, _ in pairs)
        den = lcm(*(p._den * q._den for p, q, _ in pairs))
        nums: dict[ExponentMap, int] = {}
        get = nums.get
        for p, q, w in pairs:
            f = den // (p._den * q._den) * w << (p._bit & q._bit)
            q_items = list(q._terms.items())
            for e1, n1 in p._terms.items():
                n1 *= f
                for e2, n2 in q_items:
                    exps = _merge_exponents(e1, e2)
                    nums[exps] = get(exps, 0) + n1 * n2
        return _reduced(den, nums, bit)

    # -- inspection ------------------------------------------------------

    def _value(self, n: int) -> QR2Scalar:
        q = Fraction(n, self._den)
        return QR2Scalar(0, q) if self._bit else QR2Scalar(q)

    def monomials(self) -> list[DiffMonomial]:
        """Terms in canonical order."""
        return [
            DiffMonomial(self._value(self._terms[exps]), exps)
            for exps in sorted(self._terms, key=_monomial_key)
        ]

    def coefficient_of(self, exponents: Mapping[int, int]) -> QR2Scalar:
        exps = tuple(sorted((o, e) for o, e in exponents.items() if e > 0))
        return self._value(self._terms.get(exps, 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(exps == () for exps in self._terms)

    def constant_value(self) -> QR2Scalar:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._value(self._terms.get((), 0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QR2Scalar) and other.a and other.b:
            return False  # no polynomial here has a mixed coefficient
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return (self._bit, self._den, self._terms) == (other._bit, other._den, other._terms)

    def __hash__(self) -> int:
        # a constant hashes like the scalar it equals
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self._bit, self._den, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # a rational coefficient prints as its Fraction, as QR2Scalar prints it
        value = self._value if self._bit else lambda n: Fraction(n, self._den)
        return " + ".join(
            _format_term(value(n), exps)
            for exps, n in sorted(self._terms.items(), key=lambda t: _monomial_key(t[0]))
        )

    def __repr__(self) -> str:
        return f"DiffPoly({self})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> DiffPoly:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        bit = _one_bit((self._bit, other._bit))
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, den // other._den
        nums = {exps: n * f1 for exps, n in self._terms.items()}
        for exps, n in other._terms.items():
            nums[exps] = nums.get(exps, 0) + n * f2
        return _reduced(den, nums, bit)

    __radd__ = __add__

    def __sub__(self, other) -> DiffPoly:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> DiffPoly:
        return (-self) + other

    def __neg__(self) -> DiffPoly:
        return _reduced(self._den, {exps: -n for exps, n in self._terms.items()}, self._bit)

    def __mul__(self, other) -> DiffPoly:
        if isinstance(other, (int, Fraction, QR2Scalar)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return DiffPoly.sum_of_products([(self, other)])

    __rmul__ = __mul__

    def scale(self, factor) -> DiffPoly:
        """This polynomial times an exact scalar in Q or sqrt2 * Q."""
        num, den, bit = _split(factor)
        num <<= self._bit & bit  # sqrt2 * sqrt2 = 2
        nums = {exps: n * num for exps, n in self._terms.items()}
        return _reduced(self._den * den, nums, self._bit ^ bit)

    def differentiate(self) -> DiffPoly:
        """Arclength derivation: Leibniz rule with ki mapping to k(i+1)."""
        nums: dict[ExponentMap, int] = {}
        for exps, n in self._terms.items():
            for order, e in exps:
                factors = dict(exps)
                if e == 1:
                    del factors[order]
                else:
                    factors[order] = e - 1
                factors[order + 1] = factors.get(order + 1, 0) + 1
                new = tuple(sorted(factors.items()))
                nums[new] = nums.get(new, 0) + n * e
        return _reduced(self._den, nums, self._bit)

    # -- grading -----------------------------------------------------------

    def in_class(self, cls: GradedClass) -> bool:
        """Membership in the graded class; see GradedClass."""
        for exps in self._terms:
            if any(order > cls.k for order, _ in exps):
                return False
            d = sum(e for order, e in exps if order % 2 == 1)
            if d % 2 != cls.parity:
                return False
        return True

    def kill_odd_derivatives(self) -> DiffPoly:
        """Substitute 0 for every odd-order derivative of kappa.

        Keeps exactly the monomials of odd degree 0; idempotent.
        """
        return _reduced(
            self._den,
            {
                exps: n
                for exps, n in self._terms.items()
                if all(order % 2 == 0 for order, _ in exps)
            },
            self._bit,
        )

    # -- evaluation ----------------------------------------------------------

    def substitute(self, assign: Mapping[int, float]) -> float:
        """Numeric value with the given derivative-order assignments."""
        missing = sorted(
            {order for exps in self._terms for order, _ in exps if order not in assign}
        )
        if missing:
            raise MissingAssignmentError(missing)
        total = 0.0
        for exps, n in self._terms.items():
            val = self._value(n).to_float()
            for order, e in exps:
                val *= float(assign[order]) ** e
            total += val
        return total

    def substitute_partial(self, assign: Mapping[int, object]) -> DiffPoly:
        """Exactly substitute scalars for a subset of the derivative orders."""
        values = {
            order: (v if isinstance(v, QR2Scalar) else QR2Scalar(v))
            for order, v in assign.items()
        }
        terms: dict[ExponentMap, QR2Scalar] = {}
        for exps, n in self._terms.items():
            c = self._value(n)
            kept: list[tuple[int, int]] = []
            for order, e in exps:
                if order in values:
                    c = c * values[order] ** e
                else:
                    kept.append((order, e))
            new = tuple(kept)
            terms[new] = terms.get(new, 0) + c
        return DiffPoly(terms)


@dataclass(frozen=True)
class GradedClass:
    """The class of differential polynomials with derivative orders <= k
    whose summands all have odd degree of parity sigma.

    Even sigma gives the P-type class, odd sigma the Q-type class.  For
    negative k the convention is that the P-type class is the constants
    and the Q-type class is {0}; both fall out of the same membership
    test since constants use no derivative orders and have odd degree 0.
    """

    k: int
    sigma: int

    @property
    def parity(self) -> int:
        return self.sigma % 2

    def __mul__(self, other: GradedClass) -> GradedClass:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return GradedClass(max(self.k, other.k), self.sigma + other.sigma)

    def __str__(self) -> str:
        return f"{'P' if self.parity == 0 else 'Q'}^{self.k}"


def class_product_bound(c1: GradedClass, c2: GradedClass) -> GradedClass:
    """Class containing every product of members of c1 and c2."""
    return c1 * c2


def _as_poly(x) -> DiffPoly | None:
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction, QR2Scalar)):
        return DiffPoly.constant(x)
    return None
