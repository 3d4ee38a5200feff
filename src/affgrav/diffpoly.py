"""Differential polynomials in the curvature kappa and its derivatives.

A monomial is ``coeff * k0^e0 * k1^e1 * ...`` where ``ki`` stands for the
i-th derivative of the curvature with respect to arclength.  The ring
carries the arclength derivation (``ki`` maps to ``k(i+1)`` under the
Leibniz rule) and a parity grading by *odd degree*: the total exponent of
factors with odd derivative order.

Storage.  A polynomial is sqrt2^bit * sum(numerator * monomial) / den:
integer numerators, one positive integer denominator, common gcd 1, and
one sqrt2 bit (0 for zero).  Its coefficients thus lie all in Q or all
in sqrt2 * Q, as the expansion's do: each is an exact scalar
q * sqrt2^bit.  Ring operations are integer arithmetic, and a result that
would mix Q and sqrt2 * Q raises ValueError, as a mixed ``QR2Scalar``
does when it is built.  The inspection methods hand coefficients out as
``QR2Scalar``.

Monomial keys.  Each monomial is stored as one packed int (Kronecker
substitution): bits ``B*o .. B*o + B - 1`` hold the exponent of ``ko``,
with ``B = 8``, so the constant monomial is key 0 and a product of
monomials is the sum of their keys.  The top bit of each field is a
guard bit, so a field stores exponents up to ``2^(B-1) - 1 = 127``, and
there are 128 fields, so derivative orders run up to 127.  Adding two
storable keys, or moving one unit of a field up one order, never
carries into the next field: an exponent that passes its bound shows as
a set guard bit and an order that passes its bound as a bit above the
last field.  Products and derivatives check their result keys for
either once and raise ValueError; the constructor refuses an exponent
or order it cannot store.  The expansion needs far less: the order-26
pipeline, frame included, uses exponents up to 13 and orders up to 24.

Term order.  Text and ``monomials()`` list terms graded-lexicographically:
total degree first, then the exponent maps pair by pair.  At the lowest
order o where two maps of one degree differ, the smaller exponent of
``ko`` comes first, and a map without ``ko`` comes after one with it,
since its next pair has a higher order.  Both read this off the key
bytes: byte o of the key's little-endian ``to_bytes`` is the exponent of
``ko``, so the degree is the byte sum, and within one degree sorting the
bytes with 0 read as 255, above any exponent, decides at that same first
differing byte in the same way.  The length of the bytes never decides:
``to_bytes`` drops trailing zeros, so a proper prefix has lower degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping

from .scalar import QR2Scalar, _coeff_text, _exact, _scalar

__all__ = ["DiffMonomial", "DiffPoly", "GradedClass"]

# ((derivative order, exponent), ...) with orders strictly increasing and
# exponents >= 1; the empty tuple is the constant monomial.
ExponentMap = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DiffMonomial:
    """One summand of a differential polynomial."""

    coeff: QR2Scalar
    exponents: ExponentMap

    def __str__(self) -> str:
        return _format_term(self.coeff, self.exponents)


def _format_term(coeff, pairs: Iterable[tuple[int, int]]) -> str:
    """The text of coeff times k<order>^e over the (order, e) pairs,
    skipping zero exponents."""
    factors = [f"k{order}" if e == 1 else f"k{order}^{e}" for order, e in pairs if e]
    return f"({coeff})*{'*'.join(factors)}" if factors else f"({coeff})"


# Packed monomial keys; see the module docstring.
_B = 8
_FIELDS = 128
_MAX_EXPONENT = (1 << (_B - 1)) - 1
_MAX_KAPPA_ORDER = _FIELDS - 1
_KEY_BITS = _B * _FIELDS
_FIELD = (1 << _B) - 1
_GUARD = sum(1 << (_B * o + _B - 1) for o in range(_FIELDS))
_ODD_LOW_BITS = sum(1 << (_B * o) for o in range(1, _FIELDS, 2))


def _pack(exps: ExponentMap) -> int:
    """The key of an exponent map; ValueError if it cannot be stored."""
    key = 0
    for order, e in exps:
        if not (0 <= order <= _MAX_KAPPA_ORDER and 0 <= e <= _MAX_EXPONENT):
            raise ValueError(
                f"k{order}^{e} cannot be stored: orders run to {_MAX_KAPPA_ORDER}, "
                f"exponents to {_MAX_EXPONENT}"
            )
        key += e << (_B * order)
        if key & _GUARD:  # a repeated order passed the bound; caught before it carries
            raise ValueError(f"{exps} cannot be stored: exponents sum past {_MAX_EXPONENT}")
    return key


def _fields(key: int) -> bytes:
    """The fields of a key, one byte each since B = 8: byte o is the
    exponent of k<o>, and trailing zero fields are dropped."""
    return key.to_bytes((key.bit_length() + 7) // 8, "little")


def _unpack(fields: bytes) -> ExponentMap:
    """The exponent map of a key's fields."""
    return tuple((order, e) for order, e in enumerate(fields) if e)


# Fields with byte 0 (a missing factor) read as 255, above any exponent.
_ZERO_LAST = bytes([255]) + bytes(range(1, 256))


def _graded_lex(term: tuple[bytes, int]) -> tuple[int, bytes]:
    fields = term[0]
    return sum(fields), fields.translate(_ZERO_LAST)


def _check_storable(keys: Iterable[int]) -> None:
    """Raise ValueError if a key passed an exponent or order bound."""
    seen = reduce(or_, keys, 0)
    if seen & _GUARD:
        raise ValueError(f"an exponent of the result exceeds {_MAX_EXPONENT}")
    if seen >> _KEY_BITS:
        raise ValueError(f"a derivative order of the result exceeds {_MAX_KAPPA_ORDER}")


def _split(c) -> tuple[int, int, int]:
    """An exact scalar as (numerator, denominator > 0, sqrt2 bit);
    TypeError unless it is an int, Fraction or QR2Scalar."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator, 0
    c = _exact(c)
    return c._q.numerator, c._q.denominator, c._bit


def _one_bit(bits: Iterable[int]) -> int:
    """The sqrt2 bit all the given bits share, 0 when there are none."""
    bits = set(bits)
    if len(bits) > 1:
        raise ValueError("the result would mix rational and sqrt2 * Q coefficients")
    return bits.pop() if bits else 0


def _reduced(den: int, nums: dict[int, int], bit: int, poly=None) -> DiffPoly:
    """Canonical sqrt2^bit * sum(nums[key] * monomial(key)) / den, in ``poly``
    if given: zero terms dropped, gcd divided out, bit 0 when nothing is left."""
    terms = {key: n for key, n in nums.items() if n}
    if not terms:
        den, bit = 1, 0
    else:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {key: n // g for key, n in terms.items()}
    if poly is None:
        poly = DiffPoly.__new__(DiffPoly)
    poly._den, poly._terms, poly._bit = den, terms, bit
    return poly


class DiffPoly:
    """Polynomial in k0, k1, ... with coefficients all in Q or all in sqrt2 * Q.

    Immutable; the zero polynomial has no terms.  The canonical term
    order used for display and serialization is graded-lexicographic on
    (total degree, exponent map).  The constructor raises ValueError for
    an exponent above 127 or a derivative order above 127; see the module
    docstring.
    """

    __slots__ = ("_den", "_terms", "_bit")

    def __init__(self, terms: Mapping[ExponentMap, object] | None = None):
        split = [(exps, *_split(c)) for exps, c in (terms or {}).items()]
        split = [(_pack(exps), n, d, bit) for exps, n, d, bit in split if n]
        den = lcm(*(d for _, _, d, _ in split))
        nums: dict[int, int] = {}
        for key, n, d, _ in split:
            nums[key] = nums.get(key, 0) + n * (den // d)
        _reduced(den, nums, _one_bit(bit for _, _, _, bit in split), self)

    # -- constructors ----------------------------------------------------

    # The single-term constructors build the canonical form directly,
    # raising as the mapping constructor does.

    @classmethod
    def zero(cls) -> DiffPoly:
        return _reduced(1, {}, 0)

    @classmethod
    def constant(cls, value) -> DiffPoly:
        num, den, bit = _split(value)
        return _reduced(den, {0: num}, bit)

    @classmethod
    def kappa(cls, order: int = 0) -> DiffPoly:
        """The single variable k<order>, i.e. the order-th derivative of kappa;
        the order runs from 0 to 127."""
        return _reduced(1, {_pack(((order, 1),)): 1}, 0)

    @classmethod
    def monomial(cls, coeff, exponents: Mapping[int, int]) -> DiffPoly:
        """coeff times the product of k<order>^e; orders and exponents run
        from 0 to 127."""
        for order, e in exponents.items():
            if order < 0 or e < 0:
                raise ValueError("orders and exponents must be nonnegative")
        exps = tuple(sorted((o, e) for o, e in exponents.items() if e > 0))
        num, den, bit = _split(coeff)
        return _reduced(den, {_pack(exps): num} if num else {}, bit)

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple[DiffPoly, DiffPoly]]) -> DiffPoly:
        """The sum of p * q over the pairs, over one common denominator;
        the kernel of every series product.  An integer weight rides in
        one factor of its pair, e.g. ``(p.scale(w), q)``.  Two sqrt2
        factors double a product; products with different sqrt2 bits
        raise ValueError, and so does a product monomial with an exponent
        above 127."""
        pairs = [(p, q) for p, q in pairs if p._terms and q._terms]
        if not pairs:
            return _reduced(1, {}, 0)
        bit = _one_bit(p._bit ^ q._bit for p, q in pairs)
        den = lcm(*(p._den * q._den for p, q in pairs))
        nums: dict[int, int] = {}
        get = nums.get
        for p, q in pairs:
            f = den // (p._den * q._den) << (p._bit & q._bit)
            q_items = list(q._terms.items())
            for e1, n1 in p._terms.items():
                n1 *= f
                for e2, n2 in q_items:
                    key = e1 + e2
                    nums[key] = get(key, 0) + n1 * n2
        _check_storable(nums)
        return _reduced(den, nums, bit)

    # -- inspection ------------------------------------------------------

    def _value(self, n: int) -> QR2Scalar:
        return _scalar(Fraction(n, self._den), self._bit)

    def _sorted_terms(self) -> list[tuple[bytes, int]]:
        """(fields, numerator) pairs in canonical order; see ``_fields``."""
        return sorted(
            [(_fields(key), n) for key, n in self._terms.items()], key=_graded_lex
        )

    def monomials(self) -> list[DiffMonomial]:
        """Terms in canonical order."""
        return [
            DiffMonomial(self._value(n), _unpack(fields)) for fields, n in self._sorted_terms()
        ]

    def coefficient_of(self, exponents: Mapping[int, int]) -> QR2Scalar:
        """The coefficient of a monomial; 0 for one that cannot be stored,
        such as one with a negative exponent."""
        exps = tuple(sorted((o, e) for o, e in exponents.items() if e))
        try:
            key = _pack(exps)
        except ValueError:
            return self._value(0)
        return self._value(self._terms.get(key, 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> QR2Scalar:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._value(self._terms.get(0, 0))

    def __eq__(self, other: object) -> bool:
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
        den, bit = self._den, self._bit
        return " + ".join(
            [
                _format_term(_coeff_text(n, den, bit), enumerate(fields))
                for fields, n in self._sorted_terms()
            ]
        )

    def __repr__(self) -> str:
        return f"DiffPoly({self})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> DiffPoly:
        other = _as_poly(other)
        return NotImplemented if other is None else _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> DiffPoly:
        other = _as_poly(other)
        return NotImplemented if other is None else _combine(self, other, -1)

    def __rsub__(self, other) -> DiffPoly:
        other = _as_poly(other)
        return NotImplemented if other is None else _combine(other, self, -1)

    def __neg__(self) -> DiffPoly:
        # negation keeps the gcd and the sqrt2 bit: the result is canonical as built
        neg = DiffPoly.__new__(DiffPoly)
        neg._den, neg._bit = self._den, self._bit
        neg._terms = {key: -n for key, n in self._terms.items()}
        return neg

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
        nums = {key: n * num for key, n in self._terms.items()}
        return _reduced(self._den * den, nums, self._bit ^ bit)

    def differentiate(self) -> DiffPoly:
        """Arclength derivation: Leibniz rule with ki mapping to k(i+1).

        Raises ValueError when a derivative passes order 127 or an exponent
        passes 127."""
        nums: dict[int, int] = {}
        get = nums.get
        for key, n in self._terms.items():
            # k_o^e contributes e * k_o^(e-1) * k_(o+1): one unit moves a field up
            step, rest = _FIELD, key
            while rest:
                e = rest & _FIELD
                if e:
                    new = key + step
                    nums[new] = get(new, 0) + n * e
                rest >>= _B
                step <<= _B
        _check_storable(nums)
        return _reduced(self._den, nums, self._bit)

    # -- grading -----------------------------------------------------------

    def in_class(self, cls: GradedClass) -> bool:
        """Membership in the graded class; see GradedClass."""
        # a key uses an order above k iff it has a bit above field k; the
        # odd degree's parity is that of the low bits of the odd fields
        high, parity = _B * max(cls.k + 1, 0), cls.parity
        return not any(
            key >> high or (key & _ODD_LOW_BITS).bit_count() & 1 != parity
            for key in self._terms
        )

    # -- evaluation ----------------------------------------------------------

    def substitute_partial(self, assign: Mapping[int, object]) -> DiffPoly:
        """Exactly substitute scalars for a subset of the derivative orders."""
        values = {order: _exact(v) for order, v in assign.items()}
        terms: dict[ExponentMap, QR2Scalar] = {}
        for key, n in self._terms.items():
            c = self._value(n)
            kept: list[tuple[int, int]] = []
            for order, e in _unpack(_fields(key)):
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


def _combine(p: DiffPoly, q: DiffPoly, sign: int) -> DiffPoly:
    """p + sign * q for sign 1 or -1, in one pass over both."""
    if not q._terms:
        return p
    if not p._terms:
        return q if sign == 1 else -q
    bit = _one_bit((p._bit, q._bit))
    den = lcm(p._den, q._den)
    f1, f2 = den // p._den, sign * (den // q._den)
    nums = {key: n * f1 for key, n in p._terms.items()}
    get = nums.get
    for key, n in q._terms.items():
        nums[key] = get(key, 0) + n * f2
    return _reduced(den, nums, bit)


def _as_poly(x) -> DiffPoly | None:
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction, QR2Scalar)):
        return DiffPoly.constant(x)
    return None
