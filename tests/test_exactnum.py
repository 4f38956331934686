import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bihom.errors import (
    BadScalar,
    DivisionByZero,
    MixedFields,
    ZeroDenominator,
)
from bihom.exactnum import (
    QQ,
    QQ_Q,
    PrimeField,
    PrimeFieldElement,
    RationalFunction,
    _is_prime,
    check_scalars,
    divide,
    field_from_tag,
    field_tag,
    format_qq_scalar,
    parse_qq_scalar,
    q_integer,
)

RF = RationalFunction
F7 = PrimeField(7)
F2 = PrimeField(2)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def rf(num, den=(1,)):
    return RationalFunction(num, den)


class TestScalarArith:
    def test_rational_addition(self):
        assert QQ.parse("1/2") + QQ.parse("1/3") == Fraction(5, 6)

    def test_inverse_of_q_minus_qinv(self):
        # 1/(q - q^-1) written as q/(q^2 - 1)
        x = divide(QQ_Q.one(), RF.q_power(1) - RF.q_power(-1))
        assert x.num == (0, 1)
        assert x.den == (-1, 0, 1)  # monic q^2 - 1

    def test_char_two(self):
        assert F2.one() + F2.one() == F2.zero()

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFields):
            check_scalars("sum", F7, [Fraction(1, 2)])
        with pytest.raises(MixedFields):
            F7.one() + PrimeField(5).one()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divide(Fraction(1), Fraction(0))
        with pytest.raises(DivisionByZero):
            QQ_Q.one() / QQ_Q.zero()
        with pytest.raises(DivisionByZero):
            F7.one() / F7.zero()


class TestIntegralRationals:
    """Over Q an integral value is an int, anything else a Fraction."""

    def test_descriptor_gives_ints(self):
        values = [QQ.zero(), QQ.one(), QQ.from_int(-5), QQ.promote(7),
                  QQ.promote(Fraction(6, 3)), QQ.parse("-4"), QQ.parse("8/2")]
        assert values == [0, 1, -5, 7, 2, -4, 4]
        assert all(type(v) is int for v in values)

    def test_non_integral_values_stay_fractions(self):
        for x in (QQ.promote(Fraction(1, 2)), QQ.parse("-3/4")):
            assert type(x) is Fraction and x.denominator != 1

    def test_bool_becomes_a_plain_int(self):
        x = QQ.promote(True)
        assert type(x) is int and x == QQ.one()
        assert QQ.format(x) == "1"
        assert type(QQ.promote(False)) is int and QQ.format(QQ.promote(False)) == "0"

    def test_float_is_rejected(self):
        with pytest.raises(MixedFields, match=r"cannot interpret 6\.0 in Q"):
            QQ.promote(6.0)

    @given(st.integers(-30, 30), st.integers(-30, 30).filter(bool))
    def test_divide_is_exact(self, a, b):
        q = divide(a, b)
        assert q == Fraction(a, b)
        assert type(q) is (int if a % b == 0 else Fraction)

    def test_divide_returns_ints_for_integral_quotients_of_fractions(self):
        q = divide(Fraction(3, 2), Fraction(1, 2))
        assert q == 3 and type(q) is int
        assert type(divide(1, Fraction(1, 3))) is int

    def test_divide_other_fields(self):
        assert divide(F7.from_int(3), F7.from_int(5)) == F7.from_int(2)
        assert divide(QQ_Q.one(), RF.q_power(1)) == RF.q_power(-1)

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero, match=r"^3 / 0$"):
            divide(3, 0)
        with pytest.raises(DivisionByZero, match=r"^Fraction\(3, 1\) / 0$"):
            divide(Fraction(3), Fraction(0))
        with pytest.raises(DivisionByZero, match=r"^Fraction\(1, 2\) / 0$"):
            divide(Fraction(1, 2), 0)
        with pytest.raises(DivisionByZero, match=r"^3 mod 7 / 0$"):
            divide(F7.from_int(3), F7.zero())

    def test_mixed_fields_with_ints(self):
        # an int is a scalar of every field; any other scalar has one field
        check_scalars("sum", F7, [QQ.from_int(1), 2, F7.from_int(3)])
        with pytest.raises(MixedFields, match="^sum across fields$"):
            check_scalars("sum", QQ, [QQ.from_int(1), F7.one()])
        with pytest.raises(MixedFields, match="^sum across fields$"):
            check_scalars("sum", F7, [2, PrimeField(5).one()])


class TestRfNormalize:
    def test_factor_cancellation(self):
        x = RationalFunction((-1, 0, 1), (-1, 1))  # (q^2-1)/(q-1)
        assert x == rf((1, 1))  # q + 1

    def test_unit_cancellation_monic(self):
        x = RationalFunction((0, 2), (2,))  # 2q / 2
        assert x == rf((0, 1))

    def test_gcd_reduction(self):
        # (q^2-1)(q^3+q) / (q^2-1) -> q^3 + q
        num = RationalFunction((-1, 0, 1)) * RationalFunction((0, 1, 0, 1))
        x = RationalFunction(num.num, (-1, 0, 1))
        assert x == rf((0, 1, 0, 1))

    def test_idempotent(self):
        x = RationalFunction((2, 4), (4, 2))
        y = RationalFunction(x.num, x.den)
        assert x.num == y.num and x.den == y.den

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction((1,), ())

    def test_equality_decision(self):
        # q/(q^2-1) and (2q)/(2q^2-2) get identical canonical forms
        a = RationalFunction((0, 1), (-1, 0, 1))
        b = RationalFunction((0, 2), (-2, 0, 2))
        assert a.num == b.num and a.den == b.den


class TestQIntegers:
    def test_identity_up_to_eight(self):
        q = RF.q_power(1)
        qinv = RF.q_power(-1)
        for n in range(1, 9):
            assert q_integer(n) * (q - qinv) == RF.q_power(n) - RF.q_power(-n)

    def test_zero_and_one(self):
        assert not q_integer(0)
        assert q_integer(1) == QQ_Q.one()

    def test_quotient_from_minus_eight_to_eight(self):
        denominator = RF.q_power(1) - RF.q_power(-1)
        for n in range(-8, 9):
            quotient = (RF.q_power(n) - RF.q_power(-n)) / denominator
            assert q_integer(n) == quotient
            assert q_integer(-n) == -q_integer(n)

    def test_stored_form_of_three(self):
        x = q_integer(3)
        assert (x.n, x.d, x.k) == ((1, 0, 1, 0, 1), (1,), -2)


def _convolve(a, b):
    """Coefficients of the product of two polynomials, by the schoolbook
    double loop."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _reference(x, y, divide):
    """x * y, or x / y, formed unreduced and reduced by the constructor."""
    n2, d2, k2 = (y.d, y.n, -y.k) if divide else (y.n, y.d, y.k)
    return RF(_convolve(x.n, n2), _convolve(x.d, d2), x.k + k2)


_exponents = st.integers(-4, 4)
# every shape _product tells apart: q^k, -q^k, constants c/e of either
# sign and zero, and general quotients
shaped = st.one_of(
    _exponents.map(RF.q_power),
    _exponents.map(lambda k: -RF.q_power(k)),
    st.builds(
        lambda c, e, k: RF((c,), (e,), k),
        st.integers(-12, 12),
        st.integers(1, 12),
        _exponents,
    ),
    st.builds(
        RF,
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any),
        _exponents,
    ),
)


_ONE_RF = RF.from_int(1)


def _stored(z):
    assert type(z) is RF
    return z.n, z.d, z.k


class TestProductShapes:
    """Every product and quotient equals the reference reduction, so the
    q-power, constant and one paths keep the canonical form."""

    @given(shaped, shaped)
    @example(RF.q_power(2), -RF.q_power(-3))
    @example(RF.q_power(-1), RF((-4,), (6,)))
    @example(RF((3,), (5,), 1), RF((-2,), (9,)))
    @example(RF((0, 1, 1), (2, 1)), RF.q_power(-2))
    @example(_ONE_RF, RF((0, 1, 1), (2, 1), -1))
    @example(RF((2, 0, -1), (3, 1), 2), _ONE_RF)
    @example(_ONE_RF, -RF.q_power(3))
    @example(-_ONE_RF, _ONE_RF)
    @example(_ONE_RF, _ONE_RF)
    @example(_ONE_RF, RF.q_power(1))
    @example(RF((5,), (5,), 1), RF((-7,), (7,)))
    @example(_ONE_RF, QQ_Q.zero())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, x, y):
        cases = [(x * y, x, y, False), (y * x, y, x, False)]
        if y:
            cases.append((x / y, x, y, True))
        if x:
            cases.append((y / x, y, x, True))
        for z, a, b, divide in cases:
            assert _stored(z) == _stored(_reference(a, b, divide))

    @given(shaped)
    @example(_ONE_RF)
    @example(-_ONE_RF)
    @example(RF.q_power(-2))
    @settings(max_examples=200, deadline=None)
    def test_int_and_fraction_operands(self, x):
        minus_one = RF.from_int(-1)
        cases = [
            (x * 1, x, _ONE_RF, False),
            (1 * x, _ONE_RF, x, False),
            (Fraction(1) * x, _ONE_RF, x, False),
            (x * Fraction(1), x, _ONE_RF, False),
            (x * -1, x, minus_one, False),
            (-1 * x, minus_one, x, False),
            (x / 1, x, _ONE_RF, True),
            (x / Fraction(1), x, _ONE_RF, True),
        ]
        if x:
            cases += [
                (1 / x, _ONE_RF, x, True),
                (3 / x, RF.from_int(3), x, True),
                (Fraction(1, 2) / x, RF.from_fraction(Fraction(1, 2)), x, True),
            ]
        for z, a, b, divide in cases:
            assert _stored(z) == _stored(_reference(a, b, divide))

    def test_zero_divisor_in_a_reflected_division(self):
        with pytest.raises(DivisionByZero, match=r"^division by zero in Q\(q\)$"):
            3 / QQ_Q.zero()
        with pytest.raises(DivisionByZero, match=r"^division by zero in Q\(q\)$"):
            Fraction(1, 2) / QQ_Q.zero()


def _sum_reference(x, y, sign=1):
    """x + sign * y, cross-multiplied over _convolve(x.d, y.d) and reduced
    by the constructor."""
    m = min(x.k, y.k)
    a = [0] * (x.k - m) + _convolve(x.n, y.d)
    b = [0] * (y.k - m) + _convolve(y.n, x.d)
    a += [0] * (len(b) - len(a))
    b += [0] * (len(a) - len(b))
    return RF([s + sign * t for s, t in zip(a, b)], _convolve(x.d, y.d), m)


class TestSumShapes:
    """Every sum and difference equals the cross-multiplied reference."""

    @given(shaped, shaped)
    @example(_ONE_RF, _ONE_RF)
    @example(_ONE_RF, -_ONE_RF)
    @example(RF((1, 1), (1, -1)), RF((1, 1), (1, -1), 2))
    @example(RF((0, 1, 1), (2, 1)), QQ_Q.zero())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, x, y):
        zero, half = QQ_Q.zero(), RF.from_fraction(Fraction(1, 2))
        cases = [
            (x + y, _sum_reference(x, y)),
            (y + x, _sum_reference(y, x)),
            (x - y, _sum_reference(x, y, -1)),
            (x + 0, _sum_reference(x, zero)),
            (0 - x, _sum_reference(zero, x, -1)),
            (x + Fraction(1, 2), _sum_reference(x, half)),
            (Fraction(1, 2) + x, _sum_reference(half, x)),
        ]
        for z, ref in cases:
            assert _stored(z) == _stored(ref)


_QQ_COLUMNS = [
    [parse_qq_scalar("(q^2 + 1)/(q - 1)"), QQ_Q.zero(), parse_qq_scalar("q/2")],
    [QQ_Q.from_int(-2), QQ_Q.promote(Fraction(3, 5)), QQ_Q.zero()],
]


class TestRawForm:
    """raw_columns lists the nonzero entries of each column as (index, raw
    coefficient) pairs over one scale, and from_raw maps each raw
    coefficient back to its entry."""

    @pytest.mark.parametrize("field, columns, scale", [
        (QQ, [[1, 0, -3], [0, 2, 7]], 1),
        (QQ, [[Fraction(1, 4), 0, 2], [Fraction(-5, 6), -3, Fraction(7, 3)]], 12),
        (F7, [[F7.from_int(3), F7.zero(), F7.from_int(-1)], [F7.zero(), F7.one(), F7.zero()]], 1),
        (QQ_Q, _QQ_COLUMNS, 1),
    ], ids=["Q-integral", "Q-fractions", "F7", "Q(q)"])
    def test_listing_and_mapping_back_return_the_entries(self, field, columns, scale):
        table, got = field.raw_columns(columns)
        assert got == scale
        for col, pairs in zip(columns, table):
            assert [w for w, _ in pairs] == [k for k, x in enumerate(col) if x]
            back = [field.from_raw(x, scale) for _, x in pairs]
            entries = [x for x in col if x]
            assert back == entries
            assert [type(x) for x in back] == [type(x) for x in entries]

    def test_raw_coefficients_are_residues_and_numerators(self):
        [[f7]], _ = F7.raw_columns([[F7.from_int(-1)]])
        assert f7 == (0, 6) and type(f7[1]) is int
        [[a, b]], scale = QQ.raw_columns([[Fraction(1, 4), Fraction(-5, 6)]])
        assert (a, b, scale) == ((0, 3), (1, -10), 12)

    def test_plain_int_entries_are_reduced_and_others_named(self):
        assert F7.raw_columns([[8, F7.from_int(2), 14]]) == ([[(0, 1), (1, 2)]], 1)
        with pytest.raises(MixedFields, match="cannot interpret Fraction"):
            F7.raw_columns([[F7.one(), Fraction(1, 2)]])

    def test_modulus(self):
        assert F7.modulus == 7
        assert QQ.modulus == QQ_Q.modulus == 0


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_rationals(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (Fraction(1) / a) == 1

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_prime_field(self, a, b, c):
        x, y, z = F7.from_int(a), F7.from_int(b), F7.from_int(c)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (F7.one() / x) == F7.one()

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_function_field(self, a, b, c):
        x, y, z = rf(tuple(a)), rf(tuple(b)), rf(tuple(c))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if x:
            assert x * (QQ_Q.one() / x) == QQ_Q.one()


class TestLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("-2", Fraction(-2)),
            (" 5 / 6 ", Fraction(5, 6)),
        ],
    )
    def test_rational_literals(self, text, expected):
        assert QQ.parse(text) == expected

    @pytest.mark.parametrize("text", ["1e10000000", "2.5", "1_000", "1/-2", "1/0", "", "3/"])
    def test_rational_literals_outside_the_grammar(self, text):
        with pytest.raises(BadScalar):
            QQ.parse(text)

    def test_prime_field_literals(self):
        assert F7.parse("5 mod 7") == F7.from_int(5)
        assert F7.parse("12") == F7.from_int(5)
        with pytest.raises(BadScalar):
            F7.parse("5 mod 11")

    def test_qq_literal_single_slash(self):
        x = parse_qq_scalar("q^2 - 1 / q")
        assert x.num == (-1, 0, 1)
        assert x.den == (0, 1)

    def test_qq_literal_parenthesized(self):
        assert parse_qq_scalar("(q^2 - 1)/(q - 1)") == rf((1, 1))

    def test_qq_plain_rational(self):
        assert parse_qq_scalar("3/4") == RF.from_fraction(Fraction(3, 4))

    def test_two_slashes_rejected(self):
        with pytest.raises(BadScalar):
            parse_qq_scalar("1/2/3")

    @pytest.mark.parametrize(
        "x",
        [
            rf((0, 1), (-1, 0, 1)),
            rf((Fraction(1, 2), Fraction(3, 4))),
            rf((-2, 0, 5)),
            RationalFunction(()),
            rf((1,), (Fraction(1, 3), 1)),
        ],
    )
    def test_format_round_trip(self, x):
        assert parse_qq_scalar(format_qq_scalar(x)) == x

    def test_field_tags(self):
        assert field_tag(field_from_tag("Q")) == "Q"
        assert field_tag(field_from_tag("Fp:7")) == "Fp:7"
        assert field_tag(field_from_tag("Q(q)")) == "Q(q)"
        with pytest.raises(BadScalar):
            field_from_tag("R")

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(5000) if _is_prime(n)] == [
            n for n in range(5000) if trial(n)
        ]
        # strong pseudoprimes to the smallest prime bases
        for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
            assert not _is_prime(n), n
        assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)

    def test_prime_limit(self):
        assert PrimeField(2**64 - 59).p == 2**64 - 59
        with pytest.raises(ValueError, match="below 2\\^64"):
            PrimeField(2**89 - 1)


class TestNegativePowers:
    def test_q_inverse_is_fraction(self):
        x = RF.q_power(-1)
        assert x.num == (1,)
        assert x.den == (0, 1)

    def test_power_arithmetic(self):
        assert RF.q_power(3) * RF.q_power(-3) == QQ_Q.one()
        assert RF.q_power(1) ** -2 == RF.q_power(-2)


class TestPrimeFieldOperands:
    def test_int_minus_element(self):
        x = PrimeFieldElement(5, 7)
        assert 3 - x == PrimeFieldElement(5, 7)  # -2 mod 7
        assert 10 - x == PrimeFieldElement(5, 7)
        assert x - 3 == PrimeFieldElement(2, 7)

    def test_int_over_element(self):
        z = 3 / PrimeFieldElement(2, 7)
        assert type(z) is PrimeFieldElement and (z.value, z.p) == (5, 7)  # 2 * 5 = 3 mod 7
        assert 3 / PrimeFieldElement(9, 7) == PrimeFieldElement(5, 7)
        for zero in (PrimeFieldElement(0, 7), PrimeFieldElement(14, 7)):
            with pytest.raises(DivisionByZero, match=r"^division by zero in F_7$"):
                3 / zero


class TestPowers:
    """x ** k stores the same canonical (n, d, k) as |k| multiplications by
    x (by 1/x for k < 0)."""

    BASES = [
        RF.from_int(1), RF.from_int(3), RF.from_int(-2), RF.from_fraction(Fraction(-4, 9)),
        RF.q_power(1), RF.q_power(-3), -RF.q_power(2), RF((-6,), (5,), 4),
        RF((1, 1)), RF((2, 0, -1), (3, 1), -2), q_integer(3),
    ]

    @staticmethod
    def repeated(x, k):
        base = x if k >= 0 else QQ_Q.one() / x
        out = QQ_Q.one()
        for _ in range(abs(k)):
            out = out * base
        return out

    @pytest.mark.parametrize("x", BASES, ids=repr)
    def test_matches_repeated_multiplication(self, x):
        for k in range(-5, 6):
            got, expect = x**k, self.repeated(x, k)
            assert (got.n, got.d, got.k) == (expect.n, expect.d, expect.k), k

    def test_zero(self):
        zero = QQ_Q.zero()
        assert zero**0 == 1 and zero**3 == 0
        with pytest.raises(DivisionByZero):
            zero**-2


small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3
)
# small ranges, so that equal pairs of different types are common
scalars = st.one_of(
    st.integers(-3, 7),
    small_fractions,
    small_fractions.map(RF.from_fraction),
    st.integers(-2, 2).map(RF.q_power),
    st.builds(PrimeFieldElement, st.integers(-8, 8), st.sampled_from([2, 7])),
)


class TestEqHashContract:
    @given(scalars, scalars)
    @settings(max_examples=300, deadline=None)
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    @given(small_fractions)
    @example(Fraction(1))
    @example(Fraction(0))
    @settings(max_examples=100, deadline=None)
    def test_products_by_one_equal_and_hash_like_the_value(self, f):
        x, one = RF.from_fraction(f), QQ_Q.one()
        equal = [f, int(f)] if f.denominator == 1 else [f]
        for z in (x * 1, 1 * x, x * one, one * x, Fraction(1) * x, x / 1, x / one):
            for v in equal:
                assert z == v and v == z
                assert hash(z) == hash(v)

    def test_constant_rational_function_as_dict_key(self):
        assert {Fraction(1, 2): "v"}.get(rf((1,), (2,))) == "v"
        assert {3: "v"}.get(rf((6,), (2,))) == "v"

    def test_prime_field_equals_only_its_residue(self):
        assert PrimeFieldElement(6, 7) == 6
        assert PrimeFieldElement(6, 7) != -1
        assert {6: "v"}.get(PrimeFieldElement(-1, 7)) == "v"


def _sympy_monic(sympy, q, num, den):
    """sympy.cancel of num/den, as (num, den) Fraction tuples, low degree
    first, with a monic denominator."""
    c, p, r = sympy.cancel((num, den), q)
    p, r = sympy.Poly(c * p, q), sympy.Poly(r, q)
    lead = r.LC()

    def coeffs(poly):
        return tuple(
            Fraction(int(x.p), int(x.q))
            for x in (sympy.Rational(c) / lead for c in poly.all_coeffs()[::-1])
        )

    return coeffs(p), coeffs(r)


class TestNormalizationOracle:
    """RationalFunction's canonical form against sympy.cancel."""

    int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6)

    @given(
        int_polys,
        int_polys.filter(any),
        st.one_of(st.just([1]), int_polys.filter(any)),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_cancel(self, num, den, factor, a, b):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")

        def poly(c, shift):
            return sympy.Poly(list(reversed(c)), q) * sympy.Poly(q**shift, q)

        # a common factor and powers of q planted on both sides
        n = poly(num, a) * poly(factor, 0)
        d = poly(den, b) * poly(factor, 0)
        x = RationalFunction(
            [int(c) for c in n.all_coeffs()[::-1]],
            [int(c) for c in d.all_coeffs()[::-1]],
        )
        if n.is_zero:
            assert not x and x.den == (1,)
            return
        assert (x.num, x.den) == _sympy_monic(sympy, q, n.as_expr(), d.as_expr())

    def test_dense_degree_80_over_79(self):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        rng = random.Random(80)
        num = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(81)]
        den = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(80)]
        t0 = time.perf_counter()
        x = RationalFunction(num, den)
        assert time.perf_counter() - t0 < 1.0
        n = sum(c * q**i for i, c in enumerate(num))
        d = sum(c * q**i for i, c in enumerate(den))
        assert (x.num, x.den) == _sympy_monic(sympy, q, n, d)
