"""Truncated power series with differential-polynomial coefficients.

The toolbox covers the operations needed to push a curve expansion
through square root, compositional inversion and composition, plus the
alternating/explicitness structure of coefficient sequences.

Conventions.  A series of order N stores ordinary coefficients c0..cN
and every operation is exact through the stated output order.  All
products go through one kernel, the truncated Cauchy product
``Series.mul``: composition and compositional inversion sum against its
plain powers a, a*a, a*a*a, ...  The binomial convolution ``conv`` and
the partial Bell polynomials ``bell``/``bell_via_conv`` (classical
normalization, acting on derivative-scaled sequences) are kept as an
independent check of the same combinatorics; no series operation uses
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence

from .diffpoly import DiffPoly, GradedClass, _as_poly
from .scalar import QR2Scalar

__all__ = [
    "Series",
    "ExplicitnessReport",
    "conv",
    "bell",
    "bell_via_conv",
]


def conv(a: Sequence[DiffPoly], b: Sequence[DiffPoly], k: int) -> DiffPoly:
    """Binomial-weighted convolution sum_{l=1}^{k-1} C(k,l) a[l] b[k-l].

    Sequences are read at indices 1..k-1; index 0 is ignored.  k = 1
    yields the empty sum.
    """
    if k < 1:
        raise ValueError("convolution index must be >= 1")
    return DiffPoly.sum_of_products(
        ((_as_poly(a[l]), _as_poly(b[k - l])) for l in range(1, k)),
        (comb(k, l) for l in range(1, k)),
    )


def bell(k: int, l: int, a: Sequence[DiffPoly]) -> DiffPoly:
    """Partial Bell polynomial B_{k,l} of the sequence a[1], a[2], ...

    Sums over tuples (j_1, ..., j_{k-l+1}) of nonnegative integers with
    sum j_i = l and sum i*j_i = k, each weighted by the integer
    k! / prod(j_i! * (i!)^j_i).
    """
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    width = k - l + 1
    pairs: list[tuple[DiffPoly, DiffPoly]] = []
    weights: list[int] = []

    def walk(
        pos: int, parts_left: int, weight_left: int, denom: int, head: DiffPoly, last
    ) -> None:
        # head * last is the product of the parts taken so far (last is
        # None before the first part)
        if parts_left == 0:
            if weight_left == 0:
                pairs.append((head, last))
                weights.append(factorial(k) // denom)
            return
        if pos > width:
            return
        walk(pos + 1, parts_left, weight_left, denom, head, last)
        for j in range(1, min(parts_left, weight_left // pos) + 1):
            # j copies of part size pos
            head, last = (head if last is None else head * last), _as_poly(a[pos])
            denom *= j * factorial(pos)
            walk(pos + 1, parts_left - j, weight_left - j * pos, denom, head, last)

    walk(1, l, k, 1, DiffPoly.constant(1), None)
    return DiffPoly.sum_of_products(pairs, weights)


def bell_via_conv(k: int, l: int, a: Sequence[DiffPoly]) -> DiffPoly:
    """B_{k,l} computed as the l-fold weighted convolution over l!.

    The j-fold layer vanishes below index j, and the later layers read it
    only up to index k-l+j, so only those entries are built.
    """
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    base = [DiffPoly.zero()] + [
        _as_poly(a[i]) if i < len(a) else DiffPoly.zero() for i in range(1, k + 1)
    ]
    cur = base
    for j in range(2, l + 1):
        cur = [DiffPoly.zero()] * j + [conv(cur, base, i) for i in range(j, k - l + j + 1)]
    return cur[k] * Fraction(1, factorial(l))


@dataclass(frozen=True)
class ExplicitnessReport:
    """Outcome of testing a series for the explicit leading-term shape.

    For expansion index n, coefficient k of an explicit series splits as
    leading[k] * k(k-n) plus a residual using only lower derivatives.
    leading[k] is 0 for k < n where the nominal variable k(k-n) does not
    exist.
    """

    n: int
    leading: tuple[QR2Scalar, ...]
    residuals: tuple[DiffPoly, ...]
    residual_ok: tuple[bool, ...]
    is_explicit: bool


class Series:
    """Power series truncated at a fixed order, coefficients in the
    differential polynomial ring."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(_as_poly(c) for c in coeffs)
        if None in cs:
            raise TypeError("series coefficients must be DiffPoly or exact scalars")
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls([DiffPoly.zero()] * (order + 1))

    @classmethod
    def identity(cls, order: int) -> Series:
        """The series s itself."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        coeffs = [DiffPoly.zero()] * (order + 1)
        coeffs[1] = DiffPoly.constant(1)
        return cls(coeffs)

    # -- basics ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[DiffPoly, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> DiffPoly:
        return self._coeffs[k]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        parts = [f"[{k}] {c}" for k, c in enumerate(self._coeffs)]
        return "\n".join(parts)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None for the zero series."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return None

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self._coeffs[: order + 1])

    def to_strings(self) -> list[str]:
        return [str(c) for c in self._coeffs]

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self[k] + other[k] for k in range(n + 1)])

    def __sub__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self[k] - other[k] for k in range(n + 1)])

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def scale(self, factor) -> Series:
        return Series([c * factor for c in self._coeffs])

    def dilate(self, factor) -> Series:
        """The series a(factor * s): coefficient k times factor^k."""
        out = []
        power = DiffPoly.constant(1)
        for c in self._coeffs:
            out.append(c * power)
            power = power * factor
        return Series(out)

    def mul(self, other: Series, order: int | None = None) -> Series:
        """Cauchy product, exact through the requested order.

        The default output order is min of the operand orders.  A higher
        order may be requested when the operands' valuations guarantee
        that no unknown coefficient beyond either truncation could
        contribute.
        """
        if order is None:
            order = min(self.order, other.order)
        va, vb = self.valuation(), other.valuation()
        if va is not None and vb is not None:
            exact_to = min(self.order + vb, other.order + va)
            if order > exact_to:
                raise ValueError(
                    f"product not exact beyond order {exact_to}, requested {order}"
                )
        a = [(i, c) for i, c in enumerate(self._coeffs) if c]
        b = other._coeffs
        return Series(
            DiffPoly.sum_of_products(
                (c, b[k - i]) for i, c in a if i <= k and k - i <= other.order
            )
            for k in range(order + 1)
        )

    def s_derivative(self) -> Series:
        """Formal derivative in the series variable (not the curvature)."""
        if self.order == 0:
            return Series.zero(0)
        return Series(
            [self._coeffs[k + 1] * Fraction(k + 1) for k in range(self.order)]
        )

    def even_part(self) -> Series:
        """Coefficients at odd indices replaced by zero."""
        return Series(
            [c if k % 2 == 0 else DiffPoly.zero() for k, c in enumerate(self._coeffs)]
        )

    # -- composition ---------------------------------------------------------

    def _powers(self, upto: int) -> list[Series]:
        """[None, a, a*a, ..., a^upto], each a truncated Cauchy product at
        this series' order; callers check that the constant term vanishes."""
        out = [None, self]
        for _ in range(2, upto + 1):
            out.append(out[-1].mul(self))
        return out

    def compose(self, inner: Series) -> Series:
        """Series of self(inner(s)); both constant terms must vanish."""
        if inner[0]:
            raise ValueError(f"inner series has nonzero constant term {inner[0]}")
        if self[0]:
            raise ValueError(f"outer series has nonzero constant term {self[0]}")
        n = min(self.order, inner.order)
        powers = inner.truncate(n)._powers(n)
        return Series(
            [DiffPoly.zero()]
            + [
                DiffPoly.sum_of_products((self[l], powers[l][k]) for l in range(1, k + 1))
                for k in range(1, n + 1)
            ]
        )

    def compositional_inverse(self) -> Series:
        """Series b with b(self(s)) = self(b(t)) = t through the order.

        Requires zero constant term and a nonzero constant linear
        coefficient.
        """
        if self[0]:
            raise ValueError(f"nonzero constant term {self[0]}")
        if not self[1].is_constant:
            raise ValueError(f"linear coefficient {self[1]} depends on the curvature")
        a1 = self[1].constant_value()
        if not a1:
            raise ValueError("linear coefficient is zero; no compositional inverse")
        n = self.order
        # b(a(s)) = s: coefficient k >= 2 gives a1^k b[k] = -sum_{l<k} b[l] (a^l)[k]
        powers = self._powers(n - 1)
        inv_a1 = a1.inverse()
        out = [DiffPoly.zero(), DiffPoly.constant(inv_a1)]
        for k in range(2, n + 1):
            acc = DiffPoly.sum_of_products((out[l], powers[l][k]) for l in range(1, k))
            out.append(acc * (-(inv_a1**k)))
        return Series(out)

    def sqrt(self, sign: int = 1) -> Series:
        """Series b of order N-1 with b*b == self through order N.

        Requires coefficients 0 and 1 to vanish and coefficient 2 to be a
        positive constant whose square root lies in Q(sqrt2).  The sign
        picks the branch of the linear coefficient.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.order < 2:
            raise ValueError("need order >= 2 to take a series square root")
        if self[0] or self[1]:
            raise ValueError("series must start at the quadratic term")
        if not self[2].is_constant:
            raise ValueError(f"quadratic coefficient {self[2]} depends on the curvature")
        a2 = self[2].constant_value()
        if a2.sign() <= 0:
            raise ValueError(f"quadratic coefficient {a2} is not positive")
        b1 = a2.sqrt() * sign
        n = self.order - 1
        out = [DiffPoly.zero(), DiffPoly.constant(b1)]
        half_inv = QR2Scalar(Fraction(1, 2)) * b1.inverse()
        for k in range(2, n + 1):
            # self[k+1] = 2 b1 b[k] + sum_{l=2}^{k-1} b[l] b[k+1-l]; the sum
            # pairs l with k+1-l, so take each pair once
            cross = DiffPoly.sum_of_products(
                (out[l], out[k + 1 - l]) for l in range(2, (k + 2) // 2)
            )
            acc = self[k + 1] - cross * 2
            if k % 2 == 1:
                acc = acc - out[(k + 1) // 2] * out[(k + 1) // 2]
            out.append(acc * half_inv)
        return Series(out)

    # -- grading ---------------------------------------------------------------

    def is_alternating(self, n: int, sigma: int) -> bool:
        """True when coefficient k lies in the graded class (k-n, k+sigma)
        for every k up to the order."""
        return all(
            self[k].in_class(GradedClass(k - n, k + sigma)) for k in range(self.order + 1)
        )

    def explicitness(self, n: int) -> ExplicitnessReport:
        """Split each coefficient into its leading k(k-n) term and residual.

        The report is explicit when the series is (n, n)-alternating,
        every residual uses only derivative orders below k-n, and the
        leading constant is nonzero for all k >= n.
        """
        leading: list[QR2Scalar] = []
        residuals: list[DiffPoly] = []
        residual_ok: list[bool] = []
        all_ok = True
        for k in range(self.order + 1):
            c = self[k]
            if k >= n:
                lead = c.coefficient_of({k - n: 1})
                resid = c - DiffPoly.monomial(lead, {k - n: 1})
                if not lead:
                    all_ok = False
            else:
                lead = QR2Scalar(0)
                resid = c
            ok = resid.in_class(GradedClass(k - n - 1, k - n))
            leading.append(lead)
            residuals.append(resid)
            residual_ok.append(ok)
            if not ok:
                all_ok = False
        is_explicit = all_ok and self.is_alternating(n, n)
        return ExplicitnessReport(
            n=n,
            leading=tuple(leading),
            residuals=tuple(residuals),
            residual_ok=tuple(residual_ok),
            is_explicit=is_explicit,
        )

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": self.to_strings()}
