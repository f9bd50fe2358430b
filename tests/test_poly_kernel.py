"""The sparse-term kernel under MultiPoly and LaurentPoly, checked against
plain copies of the per-class loops it replaced."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import GREVLEX, LEX, LaurentPoly, MonomialOrder, MultiPoly
from stabkit.algebra.ideals import reduce_poly, spoly
from stabkit.algebra.multipoly import _mul_mono, mono_div, mono_divides

RING = ("x", "y", "z")
ORDERS = [GREVLEX, LEX, MonomialOrder("block", split=1)]

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonzero_rationals = rationals.filter(lambda q: q != 0)
monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * len(RING)))
multi_polys = st.dictionaries(monos, nonzero_rationals, max_size=4).map(
    lambda terms: MultiPoly(RING, terms)
)
laurent_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3), nonzero_rationals, max_size=4
).map(LaurentPoly)


# Reference copies of the loops each class carried before the shared kernel.
def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def ref_mul(a, b, add):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = add(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def ref_pow(a, n, one, add):
    out = {one: Fraction(1)}
    base = a
    while n:
        if n & 1:
            out = ref_mul(out, base, add)
        base = ref_mul(base, base, add)
        n >>= 1
    return out


def ref_reduce(f, basis, order):
    """Normal form as computed before the in-place reducer: three MultiPolys
    per reduction step."""
    leads = sorted(
        ((g.lead(order), g) for g in basis if not g.is_zero()),
        key=lambda item: order.key(item[0][0]),
    )
    rem_terms = {}
    work = f
    while not work.is_zero():
        m, c = work.lead(order)
        for (gm, gc), g in leads:
            if mono_divides(gm, m):
                work = work - g * MultiPoly.monomial(work.variables, mono_div(m, gm), c / gc)
                break
        else:
            rem_terms[m] = c
            work = work - MultiPoly.monomial(work.variables, m, c)
    return MultiPoly(f.variables, rem_terms)


def negated(terms):
    return {m: -c for m, c in terms.items()}


def assert_clean_multi(r, expected):
    assert isinstance(r, MultiPoly) and r.variables == RING
    assert r.terms == expected
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert all(
        type(m) is tuple and len(m) == len(RING) and all(type(e) is int for e in m)
        for m in r.terms
    )
    assert r == MultiPoly(r.variables, r.terms)


def assert_clean_laurent(r, expected):
    assert isinstance(r, LaurentPoly)
    assert r.terms == expected
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert all(type(e) is int for e in r.terms)
    assert r == LaurentPoly(r.terms)


class TestMultiKernel:
    @given(multi_polys, multi_polys)
    @settings(max_examples=150, deadline=None)
    def test_add_sub_mul(self, a, b):
        assert_clean_multi(a + b, ref_add(a.terms, b.terms))
        assert_clean_multi(a - b, ref_add(a.terms, negated(b.terms)))
        assert_clean_multi(a - a, {})
        assert_clean_multi(a * b, ref_mul(a.terms, b.terms, _mul_mono))
        assert_clean_multi(-a, negated(a.terms))

    @given(multi_polys, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_pow(self, a, n):
        assert_clean_multi(a.pow(n), ref_pow(a.terms, n, (0,) * len(RING), _mul_mono))

    @given(multi_polys, rationals)
    @settings(max_examples=100, deadline=None)
    def test_scale(self, a, c):
        assert_clean_multi(a.scale(c), {m: k * c for m, k in a.terms.items()} if c else {})

    def test_constants_coerce(self):
        x = MultiPoly.var(RING, "x")
        assert_clean_multi(x + 1, {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)})
        assert_clean_multi(2 * x - x * 2, {})


class TestLaurentKernel:
    @given(laurent_polys, laurent_polys)
    @settings(max_examples=150, deadline=None)
    def test_add_sub_mul(self, a, b):
        assert_clean_laurent(a + b, ref_add(a.terms, b.terms))
        assert_clean_laurent(a - b, ref_add(a.terms, negated(b.terms)))
        assert_clean_laurent(a * b, ref_mul(a.terms, b.terms, operator.add))
        assert_clean_laurent(-a, negated(a.terms))

    @given(laurent_polys, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_pow(self, a, n):
        assert_clean_laurent(a.pow(n), ref_pow(a.terms, n, 0, operator.add))

    @given(laurent_polys, rationals)
    @settings(max_examples=100, deadline=None)
    def test_scale(self, a, c):
        assert_clean_laurent(a.scale(c), {e: k * c for e, k in a.terms.items()} if c else {})


class TestReduction:
    @given(
        multi_polys,
        st.lists(multi_polys, min_size=1, max_size=3),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=150, deadline=None)
    def test_reduce_matches_reference(self, f, basis, order):
        r = reduce_poly(f, basis, order)
        assert_clean_multi(r, ref_reduce(f, basis, order).terms)

    @given(
        multi_polys.filter(lambda p: not p.is_zero()),
        multi_polys.filter(lambda p: not p.is_zero()),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=100, deadline=None)
    def test_spoly_matches_reference(self, f, g, order):
        (fm, fc), (gm, gc) = f.lead(order), g.lead(order)
        lcm = tuple(max(a, b) for a, b in zip(fm, gm))
        left = f * MultiPoly.monomial(RING, mono_div(lcm, fm), 1 / fc)
        right = g * MultiPoly.monomial(RING, mono_div(lcm, gm), 1 / gc)
        assert_clean_multi(spoly(f, g, order), (left - right).terms)

    def test_ring_mismatch_rejected(self):
        f = MultiPoly.var(RING, "x")
        other = MultiPoly.var(("x", "y"), "x")
        with pytest.raises(ValueError):
            reduce_poly(f, [other], GREVLEX)
        with pytest.raises(ValueError):
            spoly(f, other, GREVLEX)
