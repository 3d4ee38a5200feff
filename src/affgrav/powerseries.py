"""Truncated power series with differential-polynomial coefficients.

The toolbox covers the operations needed to push a curve expansion
through square root, compositional inversion and composition, plus the
explicitness structure of coefficient sequences.

Conventions.  A series of order N stores ordinary coefficients c0..cN
and every operation is exact through the stated output order.  All
products go through one kernel, the truncated Cauchy product
``Series.mul``, which pairs only nonzero coefficients and hands each
coefficient's pairs to ``DiffPoly.sum_of_products`` as one batch; a
coefficient no pair reaches is the zero polynomial, with no call.  The
square root and the solve below likewise skip the batch where their sums
are empty.  Inversion and composition are one triangular solve,
``compositional_inverse``: with b the inverse of a, the series b and
F(b) both satisfy W(a(s)) = F(s) (F = s for b itself), which is solved
coefficient by coefficient against one table of the inner series'
powers a, a*a, a*a*a, ...  The
partial Bell polynomials ``bell`` (classical normalization, acting on
derivative-scaled sequences) are summed over integer partitions,
independently of ``Series.mul``; the verify suite checks the two
against each other through
l! B_{k,l}(a) = k! [s^k] A(s)^l with A(s) = sum a_i s^i / i!.  No series
operation uses ``bell``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .diffpoly import DiffPoly, GradedClass, _as_poly
from .scalar import QR2Scalar

__all__ = ["Series", "ExplicitnessReport", "bell"]


def bell(k: int, l: int, a: Sequence[DiffPoly]) -> DiffPoly:
    """Partial Bell polynomial B_{k,l} of the sequence a[1], a[2], ...

    Sums over tuples (j_1, ..., j_{k-l+1}) of nonnegative integers with
    sum j_i = l and sum i*j_i = k, each weighted by the integer
    k! / prod(j_i! * (i!)^j_i).  Entries past the end of a read as zero;
    an entry that is neither a DiffPoly nor an exact scalar raises
    TypeError.
    """
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    width = k - l + 1
    parts = [None] + [
        _as_poly(a[i]) if i < len(a) else DiffPoly.zero() for i in range(1, width + 1)
    ]
    if any(p is None for p in parts[1:]):
        raise TypeError("Bell sequence entries must be DiffPoly or exact scalars")
    pairs: list[tuple[DiffPoly, DiffPoly]] = []

    def walk(
        pos: int, parts_left: int, weight_left: int, denom: int, head: DiffPoly, last
    ) -> None:
        # head * last is the product of the parts taken so far (last is
        # None before the first part).  Each part still to take has a size
        # in pos..width, so a branch outside these bounds cannot finish.
        if not pos * parts_left <= weight_left <= width * parts_left:
            return
        if parts_left == 0:
            pairs.append((head.scale(factorial(k) // denom), last))
            return
        walk(pos + 1, parts_left, weight_left, denom, head, last)
        for j in range(1, min(parts_left, weight_left // pos) + 1):
            # j copies of part size pos; once the parts left over cannot
            # hold the weight left over, each further copy widens the gap
            if weight_left - j * pos > width * (parts_left - j):
                break
            head, last = (head if last is None else head * last), parts[pos]
            denom *= j * factorial(pos)
            walk(pos + 1, parts_left - j, weight_left - j * pos, denom, head, last)

    walk(1, l, k, 1, DiffPoly.constant(1), None)
    return DiffPoly.sum_of_products(pairs)


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
        cs = tuple(map(_as_poly, coeffs))
        if any(c is None for c in cs):
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

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self._coeffs[: order + 1])

    def to_strings(self) -> list[str]:
        return [str(c) for c in self._coeffs]

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self[k] + other[k] for k in range(n + 1)])

    def __sub__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self[k] - other[k] for k in range(n + 1)])

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def scale(self, factor) -> Series:
        return Series([c * factor for c in self._coeffs])

    def dilate(self, factor) -> Series:
        """The series a(factor * s): coefficient k times factor^k."""
        coeffs, power = [], 1
        for c in self._coeffs:
            coeffs.append(c * power)
            power = power * factor
        return Series(coeffs)

    def mul(self, other: Series) -> Series:
        """Cauchy product through the lower of the operand orders.

        Only nonzero coefficients are paired: coefficient k sums a_i b_j
        over the nonzero a_i and b_j with i + j = k, so leading zeros,
        interior zeros and a zero operand send no pair to the kernel.
        Each coefficient's pairs go to ``DiffPoly.sum_of_products`` as one
        batch; a coefficient with no pair is one shared zero polynomial,
        with no kernel call.  A non-series operand raises TypeError;
        ``scale`` multiplies by a scalar.
        """
        if not isinstance(other, Series):
            raise TypeError(f"a series multiplies a Series, not {type(other).__name__}")
        n = min(self.order, other.order)
        a, b = ([(i, c) for i, c in enumerate(s._coeffs[: n + 1]) if c] for s in (self, other))
        pairs = [[] for _ in range(n + 1)]
        for i, p in a:
            for j, q in b:
                if i + j > n:
                    break
                pairs[i + j].append((p, q))
        zero = DiffPoly.zero()
        return Series([DiffPoly.sum_of_products(row) if row else zero for row in pairs])

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

    # -- inversion and composition ----------------------------------------------

    def compositional_inverse(
        self, *outer: Series, square: Series | None = None
    ) -> tuple[Series, ...]:
        """(b, F_1(b), ..., F_m(b)) through this series' order, where b is
        the compositional inverse: b(self(s)) = self(b(t)) = t.

        Each result W satisfies W(self(s)) = F(s), with F = s for b, so
        coefficient k solves a1^k W[k] = F[k] - sum_{l<k} W[l] (a^l)[k]
        against one table of powers a, a*a, ... of this series; an outer
        constant term passes through as W[0] = F[0].  Requires zero
        constant term, a nonzero constant linear coefficient, and outer
        series of at least this order.

        ``square``, when given, is the caller's a*a and starts the table
        in place of ``self.mul(self)``; it must agree with a*a through
        this series' order, which the caller guarantees (``sqrt`` does
        for its input).  A square of lower order, or whose coefficients
        0, 1 and 2 are not 0, 0 and a1^2, raises ValueError.
        """
        if self[0]:
            raise ValueError(f"nonzero constant term {self[0]}")
        if self.order < 1:
            raise ValueError("series of order 0 has no linear term; no compositional inverse")
        if not self[1].is_constant:
            raise ValueError(f"linear coefficient {self[1]} depends on the curvature")
        a1 = self[1].constant_value()
        if not a1:
            raise ValueError("linear coefficient is zero; no compositional inverse")
        n = self.order
        for f in outer:
            if f.order < n:
                raise ValueError(f"outer series of order {f.order} is shorter than {n}")
        if square is None:
            square = self.mul(self)
        elif square.order < n:
            raise ValueError(f"square of order {square.order} is shorter than {n}")
        elif square.coeffs[:3] != (0, 0, a1 * a1)[: square.order + 1]:
            got = ", ".join(map(str, square.coeffs[:3]))
            raise ValueError(f"square starts {got}, not 0, 0, {a1 * a1}")
        powers = [None, self, square]
        for _ in range(3, n):
            powers.append(powers[-1].mul(self))
        targets = (Series.identity(n), *outer)
        solved = [[f[0]] for f in targets]
        inv_a1 = a1.inverse()
        for k in range(1, n + 1):
            scale = inv_a1**k
            for f, w in zip(targets, solved):
                rhs = f[k]
                if k > 1:
                    rhs = rhs - DiffPoly.sum_of_products((w[l], powers[l][k]) for l in range(1, k))
                # a1 = 1 in the pipeline (U_1 = 1): no rescale to rebuild
                w.append(rhs if scale == 1 else rhs * scale)
        return tuple(Series(w) for w in solved)

    def sqrt(self) -> Series:
        """Series b of order N-1 with b*b == self through order N.

        Requires coefficients 0 and 1 to vanish and coefficient 2 to be a
        positive constant whose square root lies in Q or sqrt2 * Q (a
        rational square or twice one).  Returns the branch with positive
        linear coefficient; the other branch is the negation.
        """
        if self.order < 2:
            raise ValueError("need order >= 2 to take a series square root")
        if self[0] or self[1]:
            raise ValueError("series must start at the quadratic term")
        if not self[2].is_constant:
            raise ValueError(f"quadratic coefficient {self[2]} depends on the curvature")
        a2 = self[2].constant_value()
        if a2.sign() <= 0:
            raise ValueError(f"quadratic coefficient {a2} is not positive")
        b1 = a2.sqrt()
        n = self.order - 1
        out = [DiffPoly.zero(), DiffPoly.constant(b1)]
        half_inv = QR2Scalar(Fraction(1, 2)) * b1.inverse()
        for k in range(2, n + 1):
            # self[k+1] = 2 b1 b[k] + sum_{l=2}^{k-1} b[l] b[k+1-l]; the sum
            # pairs l with k+1-l, so take each pair once (none below k = 4)
            acc = self[k + 1]
            if k > 3:
                cross = DiffPoly.sum_of_products(
                    (out[l], out[k + 1 - l]) for l in range(2, (k + 2) // 2)
                )
                acc = acc - cross * 2
            if k % 2 == 1:
                acc = acc - out[(k + 1) // 2] * out[(k + 1) // 2]
            out.append(acc * half_inv)
        return Series(out)

    # -- grading ---------------------------------------------------------------

    def explicitness(self, n: int) -> ExplicitnessReport:
        """Split each coefficient into its leading k(k-n) term and residual.

        The report is explicit when every residual lies in
        GradedClass(k-n-1, k-n) and the leading constant is nonzero for
        all k >= n; the series is then (n, n)-alternating.
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
        # explicit implies (n, n)-alternating: residual + k(k-n) is in GradedClass(k-n, k+n)
        return ExplicitnessReport(
            n=n,
            leading=tuple(leading),
            residuals=tuple(residuals),
            residual_ok=tuple(residual_ok),
            is_explicit=all_ok,
        )

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": self.to_strings()}
