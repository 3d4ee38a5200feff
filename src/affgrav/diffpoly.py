"""Differential polynomials in the curvature kappa and its derivatives.

A monomial is ``coeff * k0^e0 * k1^e1 * ...`` where ``ki`` stands for the
i-th derivative of the curvature with respect to arclength.  The ring
carries the arclength derivation (``ki`` maps to ``k(i+1)`` under the
Leibniz rule) and a parity grading by *odd degree*: the total exponent of
factors with odd derivative order.

Storage.  A polynomial keeps one positive integer denominator and, per
monomial, an integer numerator, reduced so that their common gcd is 1.
The symbolic pipeline runs over Q, so its products are pure integer
arithmetic.  A coefficient with a sqrt2 part keeps its numerator as a
``QR2Scalar`` with integer parts instead.  The inspection methods hand
coefficients out as ``QR2Scalar`` either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _split(c) -> tuple[int | QR2Scalar, int]:
    """An exact scalar as (numerator, positive denominator)."""
    if isinstance(c, QR2Scalar):
        if c.b:
            den = lcm(c.a.denominator, c.b.denominator)
            return QR2Scalar(c.a * den, c.b * den), den
        c = c.a
    q = Fraction(c)
    return q.numerator, q.denominator


def _reduce(
    den: int, nums: dict[ExponentMap, int | QR2Scalar]
) -> tuple[int, dict[ExponentMap, int | QR2Scalar]]:
    """Canonical (den, terms) of sum(nums[e] * k^e) / den: zero terms
    dropped, sqrt2-free numerators as int, common gcd divided out."""
    terms: dict[ExponentMap, int | QR2Scalar] = {}
    g = den
    for exps, n in nums.items():
        if type(n) is not int:
            if n.b:
                g = gcd(g, n.a.numerator, n.b.numerator)
                terms[exps] = n
                continue
            n = n.a.numerator
        if n:
            g = gcd(g, n)
            terms[exps] = n
    if not terms:
        den = 1
    elif g != 1:
        den //= g
        for exps, n in terms.items():
            terms[exps] = n // g if type(n) is int else QR2Scalar(n.a / g, n.b / g)
    return den, terms


def _reduced(den: int, nums: dict[ExponentMap, int | QR2Scalar]) -> DiffPoly:
    poly = DiffPoly.__new__(DiffPoly)
    poly._den, poly._terms = _reduce(den, nums)
    return poly


class DiffPoly:
    """Polynomial in k0, k1, k2, ... with coefficients in Q(sqrt2).

    Immutable; the zero polynomial has no terms.  The canonical term
    order used for display and serialization is graded-lexicographic on
    (total degree, exponent map).
    """

    __slots__ = ("_den", "_terms")

    def __init__(self, terms: Mapping[ExponentMap, object] | None = None):
        split = {exps: _split(c) for exps, c in (terms or {}).items() if c}
        den = lcm(*(d for _, d in split.values())) if split else 1
        nums = {exps: n * (den // d) for exps, (n, d) in split.items()}
        self._den, self._terms = _reduce(den, nums)

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
    def sum_of_products(pairs: Iterable[tuple[DiffPoly, DiffPoly]]) -> DiffPoly:
        """The sum of p * q over the pairs, accumulated over one common
        denominator; the coefficient kernel of every series product."""
        pairs = [(p, q) for p, q in pairs if p._terms and q._terms]
        if not pairs:
            return DiffPoly()
        den = lcm(*(p._den * q._den for p, q in pairs))
        nums: dict[ExponentMap, int | QR2Scalar] = {}
        get = nums.get
        for p, q in pairs:
            f = den // (p._den * q._den)
            q_items = list(q._terms.items())
            for e1, n1 in p._terms.items():
                n1 *= f
                for e2, n2 in q_items:
                    exps = _merge_exponents(e1, e2)
                    nums[exps] = get(exps, 0) + n1 * n2
        return _reduced(den, nums)

    # -- inspection ------------------------------------------------------

    def _value(self, n: int | QR2Scalar) -> QR2Scalar:
        if type(n) is int:
            return QR2Scalar(Fraction(n, self._den))
        den = self._den
        return QR2Scalar(Fraction(n.a.numerator, den), Fraction(n.b.numerator, den))

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
        if isinstance(other, (int, Fraction, QR2Scalar)):
            other = DiffPoly.constant(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # a rational coefficient prints as its Fraction, as QR2Scalar prints it
        return " + ".join(
            _format_term(
                Fraction(n, self._den) if type(n) is int else self._value(n), exps
            )
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
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, den // other._den
        nums = {exps: n * f1 for exps, n in self._terms.items()}
        for exps, n in other._terms.items():
            nums[exps] = nums.get(exps, 0) + n * f2
        return _reduced(den, nums)

    __radd__ = __add__

    def __sub__(self, other) -> DiffPoly:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> DiffPoly:
        return (-self) + other

    def __neg__(self) -> DiffPoly:
        return _reduced(self._den, {exps: -n for exps, n in self._terms.items()})

    def __mul__(self, other) -> DiffPoly:
        if isinstance(other, (int, Fraction, QR2Scalar)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return DiffPoly.sum_of_products([(self, other)])

    __rmul__ = __mul__

    def scale(self, factor) -> DiffPoly:
        num, den = _split(factor)
        return _reduced(self._den * den, {exps: n * num for exps, n in self._terms.items()})

    def differentiate(self) -> DiffPoly:
        """Arclength derivation: Leibniz rule with ki mapping to k(i+1)."""
        nums: dict[ExponentMap, int | QR2Scalar] = {}
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
        return _reduced(self._den, nums)

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
