"""Laurent arithmetic, multivariate rings, and the polynomial grammar."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import (
    GREVLEX,
    LEX,
    LaurentFrac,
    LaurentPoly,
    MonomialOrder,
    MultiPoly,
    ParseError,
    format_laurent,
    format_multi,
    format_rational,
    frac_pow,
    ord0,
    parse_laurent,
    parse_multi,
    parse_rational,
    val,
)
from stabkit.algebra.laurent import poly_divmod

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def laurent_polys(min_exp=-4, max_exp=4):
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp), nonzero_rationals, max_size=4
    ).map(LaurentPoly)


def multi_polys(variables=("x", "y")):
    monos = st.tuples(*([st.integers(min_value=0, max_value=3)] * len(variables)))
    return st.dictionaries(monos, nonzero_rationals, max_size=4).map(
        lambda terms: MultiPoly(variables, terms)
    )


class TestLaurent:
    def test_zero_normalization(self):
        assert LaurentPoly({2: Fraction(0)}).is_zero()
        assert LaurentPoly.zero() == LaurentPoly({1: 0})

    def test_val_conventions(self):
        assert LaurentPoly.zero().val == math.inf
        assert LaurentPoly.t_power(-3).val == -3
        assert val(parse_laurent("t^2 + t^5")) == 2

    def test_ord0_skips_zero_entries(self):
        entries = [LaurentPoly.zero(), parse_laurent("t^3"), parse_laurent("t^-1 + t")]
        assert ord0(entries) == -1
        with pytest.raises(ValueError):
            ord0([LaurentPoly.zero()])

    def test_arithmetic(self):
        p = parse_laurent("1 + t")
        q = parse_laurent("t^-1 - 1")
        assert p * q == parse_laurent("t^-1 - t")
        assert p + q == parse_laurent("t^-1 + t")
        assert p - p == LaurentPoly.zero()
        assert p.shift(2) == parse_laurent("t^2 + t^3")
        assert p.pow(2) == parse_laurent("1 + 2*t + t^2")

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            parse_laurent("1 + t").pow(-1)

    @given(laurent_polys(), laurent_polys())
    def test_val_additivity(self, p, q):
        prod = p * q
        if p.is_zero() or q.is_zero():
            assert prod.is_zero()
        else:
            # no zero divisors over a field
            assert prod.val == p.val + q.val

    @given(laurent_polys(), laurent_polys())
    def test_divmod_identity(self, num, den):
        if den.is_zero():
            with pytest.raises(ZeroDivisionError):
                poly_divmod(num, den)
            return
        quot, rem = poly_divmod(num, den)
        assert quot * den + rem == num

    @given(laurent_polys())
    def test_parse_format_roundtrip(self, p):
        assert parse_laurent(format_laurent(p)) == p


class TestLaurentFrac:
    def test_cross_multiplied_equality(self):
        t = LaurentPoly.t_power(1)
        one_plus = parse_laurent("1 + t")
        a = LaurentFrac(t * one_plus, one_plus)
        assert a == LaurentFrac(t)
        assert a == t

    def test_val_subtracts_denominator(self):
        f = LaurentFrac(parse_laurent("t^2"), parse_laurent("t^5 + t^6"))
        assert f.val == -3
        assert LaurentFrac(LaurentPoly.zero(), LaurentPoly.constant(1)).val == math.inf

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LaurentFrac(LaurentPoly.constant(1), LaurentPoly.zero())

    def test_as_polynomial(self):
        f = LaurentFrac(parse_laurent("t^2 + t^3"), parse_laurent("t^2"))
        assert f.as_polynomial() == parse_laurent("1 + t")
        g = LaurentFrac(LaurentPoly.constant(1), parse_laurent("1 + t"))
        with pytest.raises(ValueError):
            g.as_polynomial()

    def test_frac_pow_negative(self):
        f = frac_pow(parse_laurent("t"), -2)
        assert f.val == -2
        with pytest.raises(ZeroDivisionError):
            frac_pow(LaurentPoly.zero(), -1)

    @given(laurent_polys(), laurent_polys().filter(lambda p: not p.is_zero()))
    def test_field_arithmetic_consistency(self, p, d):
        f = LaurentFrac(p, d)
        assert f * d == p
        assert f - f == LaurentFrac(LaurentPoly.zero())


class TestMultiPoly:
    ring = ("x", "y", "z")

    def test_ring_discipline(self):
        p = MultiPoly.var(self.ring, "x")
        q = MultiPoly.var(("x", "y"), "y")
        with pytest.raises(ValueError):
            p + q

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(self.ring, {(-1, 0, 0): Fraction(1)})

    def test_subs_requires_every_variable(self):
        p = parse_multi("x + y", ("x", "y"))
        with pytest.raises(ValueError):
            p.subs({"x": Fraction(1)})

    def test_subs_over_laurent_ring(self):
        p = parse_multi("x^2*y - 2*y", ("x", "y"))
        t = LaurentPoly.t_power(1)
        out = p.subs({"x": t, "y": LaurentPoly.constant(3)})
        assert out == parse_laurent("3*t^2 - 6")

    def test_coefficients_in(self):
        p = parse_multi("x^2*y + x^2 + y^3", ("x", "y"))
        buckets = p.coefficients_in("x")
        assert set(buckets) == {0, 2}
        assert buckets[2] == parse_multi("y + 1", ("x", "y"))
        assert buckets[0] == parse_multi("y^3", ("x", "y"))

    def test_extend_restrict_roundtrip(self):
        p = parse_multi("x*z - 1", self.ring)
        big = p.extend(("w",) + self.ring)
        assert big.restrict(self.ring) == p
        with pytest.raises(ValueError):
            big.restrict(("w", "x"))  # drops z, which occurs

    def test_rename_is_positional(self):
        p = parse_multi("x^2 - y", ("x", "y"))
        q = p.rename(("a", "b"))
        assert q == parse_multi("a^2 - b", ("a", "b"))

    def test_evaluate(self):
        p = parse_multi("x^2*y - 1/2", ("x", "y"))
        assert p.evaluate({"x": Fraction(2), "y": Fraction(1, 4)}) == Fraction(1, 2)

    @given(multi_polys(), multi_polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @given(multi_polys())
    def test_parse_format_roundtrip(self, p):
        assert parse_multi(format_multi(p), ("x", "y")) == p


class TestMonomialOrders:
    def test_grevlex_tiebreak(self):
        # same total degree: grevlex prefers the smaller last exponent
        ring = ("x", "y", "z")
        p = parse_multi("x*z + y^2", ring)
        mono, _ = p.lead(GREVLEX)
        assert mono == (0, 2, 0)

    def test_lex(self):
        ring = ("x", "y", "z")
        p = parse_multi("x + y^5", ring)
        mono, _ = p.lead(LEX)
        assert mono == (1, 0, 0)

    def test_block_order_separates(self):
        # first block dominates regardless of total degree
        order = MonomialOrder("block", split=1)
        ring = ("x", "y")
        p = parse_multi("x + y^9", ring)
        mono, _ = p.lead(order)
        assert mono == (1, 0)


class TestParser:
    def test_rationals(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert format_rational(Fraction(8, 2)) == "4"
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_multi("x + @y", ("x", "y"))
        assert err.value.position == 4
        assert "position 4" in str(err.value)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_multi("x + q", ("x", "y"))

    def test_negative_exponent_needs_laurent(self):
        with pytest.raises(ParseError):
            parse_multi("x^-1", ("x",))
        assert parse_laurent("t^-1").val == -1

    def test_whitespace_insensitive(self):
        ring = ("x", "y")
        assert parse_multi(" x +2*y ", ring) == parse_multi("x+2*y", ring)

    def test_canonical_form_examples(self):
        ring = ("x", "y")
        p = parse_multi("y + x^2 - 3*x*y", ring)
        assert format_multi(p) == "x^2 - 3*x*y + y"
