import inspect
import operator
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    bell_by_set_partitions,
    compose,
    const_series,
    invert_by_substitution,
    is_alternating,
    padded_square,
    poly_compose_trunc,
    poly_mul_trunc,
    rational_coeffs,
)
from affgrav import DiffPoly, QR2Scalar, Series, bell, build_pipeline

k = DiffPoly.kappa

GENERIC = [DiffPoly.zero()] + [k(i) for i in range(1, 12)]


class TestBell:
    def test_first_column_is_last_entry(self):
        for n in range(1, 7):
            assert bell(n, 1, GENERIC) == k(n)

    def test_diagonal_is_power(self):
        expected = DiffPoly.constant(1)
        for n in range(1, 6):
            expected = expected * k(1)
            assert bell(n, n, GENERIC) == expected

    def test_b32_by_partition_enumeration(self):
        assert bell(3, 2, GENERIC) == bell_by_set_partitions(3, 2, GENERIC)
        assert bell(3, 2, GENERIC) == 3 * k(1) * k(2)

    def test_b42(self):
        assert bell(4, 2, GENERIC) == 3 * k(2) * k(2) + 4 * k(1) * k(3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_against_set_partition_oracle(self, n):
        for l in range(1, n + 1):
            assert bell(n, l, GENERIC) == bell_by_set_partitions(n, l, GENERIC)

    def test_argument_range(self):
        with pytest.raises(ValueError):
            bell(3, 4, GENERIC)
        with pytest.raises(ValueError):
            bell(3, 0, GENERIC)

    def test_missing_entries_read_as_zero(self):
        assert bell(5, 2, [0, k(0)]).is_zero
        assert bell(2, 2, [0, k(0)]) == k(0) * k(0)
        assert bell(4, 2, [0, k(0), k(1)]) == 3 * k(1) * k(1)
        assert bell(2, 2, [None, DiffPoly.constant(1)]) == DiffPoly.constant(1)

    def test_non_exact_entry_raises_type_error(self):
        with pytest.raises(TypeError):
            bell(2, 2, [0, 1.5])


class TestBellPruning:
    """The partition walk leaves branches that cannot finish; every
    (k, l) up to 10 still matches the sum over set partitions."""

    SEQUENCES = {
        "generic": GENERIC,
        # a[i] = sqrt2 * (i + 1) / 3: every product of l entries carries sqrt2^l
        "sqrt2": [0] + [QR2Scalar(0, F(i + 1, 3)) for i in range(1, 11)],
        "rational": [0] + [F((-1) ** i * i, i + 2) for i in range(1, 11)],
    }

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_matches_set_partitions_through_ten(self, name):
        a = self.SEQUENCES[name]
        for n in range(1, 11):
            for l in range(1, n + 1):
                assert bell(n, l, a) == bell_by_set_partitions(n, l, a), (n, l)

    def test_short_sequence_reads_trailing_entries_as_zero(self):
        # a[1..3] given; B_{k,l} needs a[1..k-l+1], so a[4..] read as zero
        short = [0, k(0), 2 * k(1), QR2Scalar(3)]
        padded = short + [0] * 8
        for n in range(1, 11):
            for l in range(1, n + 1):
                got = bell(n, l, short)
                assert got == bell_by_set_partitions(n, l, padded), (n, l)
                if n - l + 1 > 3 and l == 1:
                    assert got.is_zero

    @pytest.mark.parametrize("n, l", [(3, 4), (3, 0), (1, 2), (0, 0), (5, -1)])
    def test_argument_range(self, n, l):
        with pytest.raises(ValueError):
            bell(n, l, GENERIC)

    @pytest.mark.parametrize("entry", [1.5, 0.0, "1"])
    def test_non_exact_entry_raises_type_error(self, entry):
        with pytest.raises(TypeError):
            bell(6, 2, [0, k(0), entry, k(1)])


def egf_powers(a, order):
    """The powers A, A^2, ..., A^order of A(s) = sum a[i] s^i / i!, by Series.mul."""
    big_a = Series(
        [0] + [a[i] * F(1, factorial(i)) if i < len(a) else 0 for i in range(1, order + 1)]
    )
    powers = [None, big_a]
    for _ in range(2, order + 1):
        powers.append(powers[-1].mul(big_a))
    return powers


class TestBellAgainstSeriesPowers:
    """l! B_{k,l}(a) = k! [s^k] A^l with A = sum a_i s^i / i!."""

    def test_identity_with_series_powers(self):
        powers = egf_powers(GENERIC, 9)
        for n in range(1, 10):
            for l in range(1, n + 1):
                assert bell(n, l, GENERIC) * factorial(l) == powers[l][n] * factorial(n)

    def test_constant_sequence_counts_set_partitions(self):
        # a_i = 1 makes B_{k,l} the Stirling number S(k, l)
        ones = [0] + [1] * 6
        powers = egf_powers(ones, 6)
        assert bell(4, 2, ones) == 7 and powers[2][4] * F(factorial(4), factorial(2)) == 7
        for n in range(1, 7):
            for l in range(1, n + 1):
                assert bell(n, l, ones) * factorial(l) == powers[l][n] * factorial(n)


class TestCompose:
    def test_identity_inner(self):
        outer = const_series([0, 3, F(1, 2), 0, 7])
        assert compose(outer, Series.identity(4)) == outer

    def test_identity_outer(self):
        inner = const_series([0, 1, 1, 0, 0])
        assert compose(Series.identity(4), inner) == inner

    def test_square_of_shifted(self):
        outer = const_series([0, 0, 1], order=4)
        inner = const_series([0, 1, 1], order=4)
        got = compose(outer, inner)
        assert rational_coeffs(got) == [0, 0, 1, 2, 1]

    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=5, max_size=7),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=5, max_size=7),
    )
    @settings(max_examples=60)
    def test_matches_naive_composition(self, outer_tail, inner_tail):
        n = min(len(outer_tail), len(inner_tail))
        outer = const_series([0] + outer_tail[:n])
        inner = const_series([0] + inner_tail[:n])
        got = rational_coeffs(compose(outer, inner))
        want = poly_compose_trunc([F(0)] + outer_tail[:n], [F(0)] + inner_tail[:n], n)
        assert got == want

    @given(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4), min_size=8, max_size=8),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4), min_size=8, max_size=8),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4), min_size=8, max_size=8),
    )
    @settings(max_examples=40)
    def test_associativity(self, t1, t2, t3):
        a = const_series([0] + t1)
        b = const_series([0] + t2)
        c = const_series([0] + t3)
        assert compose(compose(c, b), a) == compose(c, compose(b, a))

    def test_rejects_constant_terms(self):
        bad = const_series([1, 1, 1])
        good = const_series([0, 1, 1])
        with pytest.raises(ValueError):
            compose(good, bad)
        with pytest.raises(ValueError):
            compose(bad, good)
        with pytest.raises(ValueError):
            bad.compositional_inverse(good)


class TestCompositionalInverse:
    def test_identity(self):
        assert Series.identity(5).compositional_inverse() == (Series.identity(5),)

    def test_linear(self):
        doubled = const_series([0, 2], order=4)
        (b,) = doubled.compositional_inverse()
        assert rational_coeffs(b) == [0, F(1, 2), 0, 0, 0]

    def test_shifted_square_against_substitution_oracle(self):
        a = [F(0), F(1), F(1), F(0), F(0)]
        want = invert_by_substitution(a, 4)
        assert want == [0, 1, -1, 2, -5]  # frozen oracle output
        (got,) = const_series(a).compositional_inverse()
        assert rational_coeffs(got) == want
        # an outer constant term passes through the solve as W[0] = F[0]
        outer = [F(5), F(0), F(1), F(-2), F(3)]
        _, w = const_series(a).compositional_inverse(const_series(outer))
        assert rational_coeffs(w) == poly_compose_trunc(outer, want, 4)

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=5), min_size=6, max_size=6),
    )
    @settings(max_examples=60)
    def test_two_sided_inverse(self, lin, tail):
        a = const_series([0, lin] + tail)
        b, ab = a.compositional_inverse(a)
        n = a.order
        assert compose(a, b) == ab == Series.identity(n)
        assert compose(b, a) == Series.identity(n)

    def test_rejects_zero_linear_term(self):
        with pytest.raises(ValueError):
            const_series([0, 0, 1, 0]).compositional_inverse()
        # an order-0 series has no linear term at all
        with pytest.raises(ValueError, match="linear term"):
            const_series([0]).compositional_inverse()
        # an outer series shorter than the inner one
        with pytest.raises(ValueError):
            const_series([0, 1, 1, 0]).compositional_inverse(const_series([0, 1, 1]))

    def test_rejects_symbolic_linear_term(self):
        s = Series([DiffPoly.zero(), k(0), DiffPoly.zero()])
        with pytest.raises(ValueError):
            s.compositional_inverse()


def seeded_quadratic(order, lead, seed):
    """A series G of the given order that starts 0, 0, lead, with seeded
    rational entries c + c' * k(j) after that."""
    rng = random.Random(seed)
    tail = [
        DiffPoly.constant(F(rng.randint(-4, 4), rng.randint(1, 3)))
        + F(rng.randint(-4, 4), rng.randint(1, 3)) * k(rng.randint(0, 3))
        for _ in range(3, order + 1)
    ]
    return Series([0, 0, lead, *tail])


class TestGivenSquare:
    """``compositional_inverse(square=...)`` starts the power table from the
    caller's a*a and solves exactly as when it forms a*a itself."""

    @pytest.mark.parametrize("lead", [F(9, 4), 2], ids=["rational", "sqrt2"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_given_square_matches_computed(self, n, lead):
        # sqrt of G is rational for a square lead and in sqrt2 * Q for 2
        big_g = seeded_quadratic(n + 1, lead, seed=n)
        u = big_g.sqrt()
        f = seeded_quadratic(n + 1, 1, seed=100 + n) + Series.identity(n)
        want = u.compositional_inverse(f)
        assert u.compositional_inverse(f, square=u.mul(u)) == want
        # the pipeline's case: the order-(n + 1) series sqrt took the root of
        assert u.compositional_inverse(f, square=big_g) == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda big_g: big_g.truncate(7),
            lambda big_g: big_g.scale(F(1, 2)),
            lambda big_g: big_g + Series.identity(9),
            lambda big_g: big_g + const_series([1], order=9),
        ],
        ids=["short", "g-where-2g-is-meant", "linear-term", "constant-term"],
    )
    def test_refused_square(self, make):
        pipe = build_pipeline(8)
        big_g = pipe.g_full.scale(2)
        with pytest.raises(ValueError, match="square"):
            big_g.sqrt().compositional_inverse(pipe.f_full, square=make(big_g))


class TestSqrt:
    def test_plain_square(self):
        root = const_series([0, 0, 1, 0, 0]).sqrt()
        assert rational_coeffs(root) == [0, 1, 0, 0]
        other = -const_series([0, 0, 1, 0, 0]).sqrt()
        assert rational_coeffs(other) == [0, -1, 0, 0]

    def test_half_quadratic_term(self):
        root = const_series([0, 0, F(1, 2), 0]).sqrt()
        assert root[1].constant_value() == QR2Scalar(0, F(1, 2))
        root = -const_series([0, 0, F(1, 2), 0]).sqrt()
        assert root[1].constant_value() == QR2Scalar(0, F(-1, 2))

    def test_cubic_perturbation(self):
        a = const_series([0, 0, 1, 1, 0])
        root = a.sqrt()
        assert rational_coeffs(root) == [0, 1, F(1, 2), F(-1, 8)]
        assert padded_square(root) == a

    @given(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=5), min_size=5, max_size=5)
    )
    @settings(max_examples=60)
    def test_square_recovers_input(self, tail):
        a = const_series([0, 0, 1] + tail)
        root = a.sqrt()
        assert padded_square(root) == a

    def test_rejects_bad_leading_terms(self):
        with pytest.raises(ValueError):
            const_series([1, 0, 1, 0]).sqrt()
        with pytest.raises(ValueError):
            const_series([0, 1, 1, 0]).sqrt()
        with pytest.raises(ValueError):
            const_series([0, 0, -1, 0]).sqrt()
        with pytest.raises(ValueError):
            const_series([0, 0, 3, 0]).sqrt()  # sqrt(3) outside the field
        sym = Series([DiffPoly.zero(), DiffPoly.zero(), k(0), DiffPoly.zero()])
        with pytest.raises(ValueError):
            sym.sqrt()


class TestMulGuard:
    def test_takes_only_the_other_series(self):
        # the product stops at the lower operand order; nothing reaches past it
        assert list(inspect.signature(Series.mul).parameters) == ["self", "other"]
        a = const_series([0, 1, 1])
        with pytest.raises(TypeError):
            a.mul(a, order=2)

    def test_zero_operand_is_exact_only_through_its_order(self):
        # the zero series of order 2 knows nothing past order 2, so its
        # product with a longer series stops there, on either side
        assert Series.zero(2).mul(Series.identity(3)) == Series.zero(2)
        assert Series.identity(3).mul(Series.zero(2)) == Series.zero(2)
        assert Series.zero(2).mul(Series.zero(3)) == Series.zero(2)

    def test_pairs_only_nonzero_coefficients(self, monkeypatch):
        true_kernel = DiffPoly.sum_of_products
        batches = []

        def kernel(batch):
            batch = list(batch)
            batches.append(batch)
            return true_kernel(batch)

        monkeypatch.setattr(DiffPoly, "sum_of_products", staticmethod(kernel))
        a = const_series([0, 1, 0, 2, 0, 3])  # leading and interior zeros
        b = const_series([0, 0, 5, 0, 7, 1, 4])  # b[6] lies past a's order
        # the nonzero pairs through order 5: a1 b2, a1 b4 and a3 b2
        product = a.mul(b)
        assert rational_coeffs(product) == [0, 0, 0, 5, 0, 17]
        pairs = [pair for batch in batches for pair in batch]
        assert len(pairs) == 3
        assert all(p and q for p, q in pairs)
        # one call each for coefficients 3 and 5; the four with no pair
        # make none and share one zero polynomial
        assert [len(batch) for batch in batches] == [1, 2]
        zeros = [product[i] for i in (0, 1, 2, 4)]
        assert all(z is zeros[0] and z.is_zero for z in zeros)
        batches.clear()
        assert Series.zero(3).mul(b) == Series.zero(3)
        assert batches == []

    @pytest.mark.parametrize("va", range(4))
    @pytest.mark.parametrize("vb", range(4))
    def test_matches_truncated_product_oracle(self, va, vb):
        rng = random.Random(10 * va + vb)

        def seeded(lead, n, firsts):
            # zeros below the leading index and, as U_2 = 0 inside U, one
            # zero above it
            c = [F(0)] * lead + [F(rng.choice(firsts), rng.randint(1, 4))]
            c += [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - lead)]
            if n > lead:
                c[rng.randint(lead + 1, n)] = F(0)
            return c

        for na in range(va, va + 5):
            for nb in range(vb, vb + 5):
                a, b = seeded(va, na, [-3, -1, 2, 5]), seeded(vb, nb, [-2, 1, 3])
                sa, sb = const_series(a), const_series(b)
                n = min(na, nb)
                assert rational_coeffs(sa.mul(sb)) == poly_mul_trunc(a, b, n), (a, b)
                # a zero operand gives the zero series of the lower order
                assert Series.zero(na).mul(sb) == sb.mul(Series.zero(na)) == Series.zero(n)


class TestExactEntries:
    """Series arithmetic takes a Series, and entries are checked by
    identity, never through DiffPoly equality."""

    @pytest.mark.parametrize("other", [0.5, 1, DiffPoly.kappa(0)], ids=repr)
    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, Series.mul, lambda s, x: x + s, lambda s, x: x - s],
        ids=["add", "sub", "mul", "radd", "rsub"],
    )
    def test_non_series_operand_raises_type_error(self, op, other):
        with pytest.raises(TypeError):
            op(Series([0, 1]), other)

    def test_construction_never_compares_entries(self, monkeypatch):
        coeffs = build_pipeline(16).h.coeffs
        compared = []
        real_eq = DiffPoly.__eq__

        def spy(self, other):
            compared.append((self, other))
            return real_eq(self, other)

        monkeypatch.setattr(DiffPoly, "__eq__", spy)
        Series(coeffs)
        bell(6, 2, GENERIC)
        assert not compared

    @pytest.mark.parametrize("bad", [None, 0.5])
    def test_refused_coefficient(self, bad):
        with pytest.raises(TypeError, match="series coefficients must be DiffPoly"):
            Series([0, bad, k(0)])


@st.composite
def near_explicit_series(draw):
    """(series, n) whose coefficient k is c * k(k-n) plus up to two
    monomials in orders up to k-n, of either odd-degree parity, so that
    draws come out explicit, alternating only, or neither."""
    n = draw(st.integers(1, 4))
    coeffs = []
    for kk in range(draw(st.integers(0, 7)) + 1):
        c = draw(st.sampled_from([0, 1, -2, F(1, 3)])) * k(kk - n) if kk >= n else DiffPoly.zero()
        for _ in range(draw(st.integers(0, 2))):
            mono = DiffPoly.constant(draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(0, 2))):
                mono = mono * k(draw(st.integers(0, max(kk - n, 0))))
            c = c + mono
        coeffs.append(c)
    return Series(coeffs), n


class TestAlternatingAndExplicit:
    def test_zero_series_alternates_everywhere(self):
        z = Series.zero(6)
        for n in range(-2, 5):
            for sigma in range(2):
                assert is_alternating(z, n, sigma)

    def test_constant_quadratic_breaks_odd_offset(self):
        # a nonzero constant at an even index fails odd total parity for
        # every expansion index n
        a = const_series([0, 0, F(1, 2)], order=5)
        for n in range(-3, 6):
            assert not is_alternating(a, n, 1)

    def test_constant_series_not_explicit(self):
        a = const_series([0, 1, 0, 2, 0, 4], order=6)
        rep = a.explicitness(3)
        assert not rep.is_explicit
        assert rep.leading[4] == QR2Scalar(0)

    def test_explicit_shape_detection(self):
        # handmade 2-explicit series: a_k = k(k-2) + lower terms
        coeffs = [DiffPoly.zero(), DiffPoly.zero(), k(0), k(1), k(2) + k(0) * k(0)]
        rep = Series(coeffs).explicitness(2)
        assert rep.is_explicit
        assert [str(c) for c in rep.leading] == ["0", "0", "1", "1", "1"]
        assert rep.residuals[4] == k(0) * k(0)

    @settings(max_examples=300, deadline=None)
    @given(near_explicit_series())
    def test_explicit_needs_no_alternation_pass(self, drawn):
        a, n = drawn
        rep = a.explicitness(n)
        leads_nonzero = all(rep.leading[kk] for kk in range(n, a.order + 1))
        assert rep.is_explicit == (
            all(rep.residual_ok) and leads_nonzero and is_alternating(a, n, n)
        )


class TestDilate:
    SERIES = [
        Series([DiffPoly.zero(), k(0), k(1) * F(2, 3), k(0) * k(2) - k(3), F(-1, 5), k(4)]),
        const_series([0, 1, F(1, 2), -3, F(2, 7)]),
    ]

    @pytest.mark.parametrize("a", SERIES)
    @pytest.mark.parametrize("c", [2, F(-3, 4), F(5, 2)])
    def test_rational_factor_is_composition_with_scaled_identity(self, a, c):
        assert a.dilate(c) == compose(a, Series.identity(a.order).scale(c))

    @pytest.mark.parametrize("a", SERIES + [const_series([1, 2, 3])])
    def test_sqrt2_twice_is_two(self, a):
        sqrt2 = QR2Scalar.sqrt2()
        once = a.dilate(sqrt2)
        assert once.dilate(sqrt2) == a.dilate(2)
        for i, c in enumerate(once.coeffs):
            assert all((m.coeff.a == 0) == (i % 2 == 1) for m in c.monomials())

    def test_dilate_by_one_and_zero(self):
        a = self.SERIES[0]
        assert a.dilate(1) == a
        assert a.dilate(0) == Series([a[0]] + [DiffPoly.zero()] * a.order)
