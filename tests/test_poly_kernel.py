"""The sparse-term kernel under MultiPoly and LaurentPoly and the keyed
Groebner core, checked against plain copies of the loops they replaced."""

import hashlib
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import (
    GREVLEX,
    LEX,
    LaurentPoly,
    MonomialOrder,
    MultiPoly,
    format_multi,
    parse_multi,
)
from stabkit.algebra.ideals import Budget, _divmask, _lead, _spoly, buchberger, reduce_poly
from stabkit.algebra.multipoly import _mul_into, _mul_mono, mono_div, mono_divides

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
                work = work - g * MultiPoly(work.variables, {mono_div(m, gm): Fraction(c) / gc})
                break
        else:
            rem_terms[m] = c
            work = work - MultiPoly(work.variables, {m: c})
    return MultiPoly(f.variables, rem_terms)


def old_key(order):
    """The order key before keys were flat: grevlex (deg, (-e_n, ..., -e_1)),
    block a pair of grevlex keys, lex the monomial."""

    def grevlex(m):
        return (sum(m), tuple(-e for e in reversed(m)))

    if order.kind == "lex":
        return lambda m: m
    if order.kind == "grevlex":
        return grevlex
    s = order.split
    return lambda m: (grevlex(m[:s]), grevlex(m[s:]))


def ref_max_reduce(f, basis, order):
    """Normal form as computed before the heap: the working term dict is
    scanned with max() on every step and the whole reducer is multiplied
    in, lead term included."""
    key = old_key(order)
    leads = sorted(
        ((max(g.terms, key=key), g) for g in basis if not g.is_zero()),
        key=lambda item: key(item[0]),
    )
    rem_terms = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        c = work[m]
        for gm, g in leads:
            if mono_divides(gm, m):
                _mul_into(work, {mono_div(m, gm): Fraction(-c) / g.terms[gm]}, g.terms, _mul_mono)
                break
        else:
            rem_terms[m] = c
            del work[m]
    return rem_terms


def negated(terms):
    return {m: -c for m, c in terms.items()}


def is_kernel_coefficient(c):
    """A nonzero int, or a Fraction that is not an integer."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def assert_clean_multi(r, expected):
    assert isinstance(r, MultiPoly) and r.variables == RING
    assert r.terms == expected
    assert all(map(is_kernel_coefficient, r.terms.values()))
    assert all(
        type(m) is tuple and len(m) == len(RING) and all(type(e) is int for e in m)
        for m in r.terms
    )
    assert r == MultiPoly(r.variables, r.terms)


def assert_clean_laurent(r, expected):
    assert isinstance(r, LaurentPoly)
    assert r.terms == expected
    assert all(map(is_kernel_coefficient, r.terms.values()))
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

    @given(multi_polys, rationals)
    @settings(max_examples=100, deadline=None)
    def test_scale(self, a, c):
        assert_clean_multi(a * c, {m: k * c for m, k in a.terms.items()} if c else {})

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

    @given(laurent_polys, rationals)
    @settings(max_examples=100, deadline=None)
    def test_scale(self, a, c):
        assert_clean_laurent(a.scale(c), {e: k * c for e, k in a.terms.items()} if c else {})


class TestReduction:
    @given(
        multi_polys,
        st.lists(multi_polys, min_size=1, max_size=4),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=200, deadline=None)
    def test_reduce_matches_reference(self, f, basis, order):
        r = reduce_poly(f, basis, order)
        assert_clean_multi(r, ref_reduce(f, basis, order).terms)
        assert r.terms == ref_max_reduce(f, basis, order)
        # remainder terms come out largest first
        assert list(r.terms) == sorted(r.terms, key=order.key, reverse=True)

    @given(
        multi_polys.filter(lambda p: not p.is_zero()),
        multi_polys.filter(lambda p: not p.is_zero()),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=100, deadline=None)
    def test_spoly_matches_reference(self, f, g, order):
        (fm, fc), (gm, gc) = f.lead(order), g.lead(order)
        lcm = tuple(max(a, b) for a, b in zip(fm, gm))
        left = f * MultiPoly(RING, {mono_div(lcm, fm): Fraction(1) / fc})
        right = g * MultiPoly(RING, {mono_div(lcm, gm): Fraction(1) / gc})
        a, b = _lead(f, order), _lead(g, order)
        # the integer lead entries hold positive leading coefficients, and
        # the S-polynomial comes out times their lcm
        assert a[2] > 0 and b[2] > 0
        s = _spoly(a, b)
        expected = (left - right) * math.lcm(a[2], b[2])
        assert_clean_multi(MultiPoly._trusted(RING, s), expected.terms)
        assert all(type(c) is int for c in s.values())

    def test_ring_mismatch_rejected(self):
        f = MultiPoly.var(RING, "x")
        other = MultiPoly.var(("x", "y"), "x")
        with pytest.raises(ValueError):
            reduce_poly(f, [other], GREVLEX)
        with pytest.raises(ValueError):
            buchberger([f, other])


wide_monos = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.tuples(*([st.integers(min_value=0, max_value=7)] * n)), min_size=1, max_size=12
    )
)


def all_orders(n):
    return [GREVLEX, LEX] + [MonomialOrder("block", split=s) for s in range(n + 1)]


class TestKeys:
    @given(wide_monos)
    @settings(max_examples=200, deadline=None)
    def test_flat_key_sorts_as_the_nested_key(self, ms):
        for order in all_orders(len(ms[0])):
            assert sorted(ms, key=order.key) == sorted(ms, key=old_key(order))
            for m in ms:
                key = order.key(m)
                assert type(key) is tuple and all(type(k) is int for k in key)
                assert order.heap_key(m) == tuple(-k for k in key)

    @given(wide_monos)
    @settings(max_examples=200, deadline=None)
    def test_divmask_never_rules_out_a_divisor(self, ms):
        for a in ms:
            for b in ms:
                if mono_divides(a, b):
                    assert not _divmask(a) & ~_divmask(b)
                if not _divmask(a) & ~_divmask(b) and all(e < 3 for e in b):
                    assert mono_divides(a, b)


def katsura(size):
    """Katsura-(size) in u0..u(size-1), with u_-i = u_i."""
    n = size - 1

    def u(i):
        return f"u{abs(i)}"

    gens = [" + ".join([u(0)] + [f"2*{u(i)}" for i in range(1, size)]) + " - 1"]
    for m in range(n):
        prods = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if abs(m - l) <= n]
        gens.append(" + ".join(prods) + f" - {u(m)}")
    return [f"u{i}" for i in range(size)], gens


def cyclic(n):
    """Cyclic-n in a, b, c, ...: the elementary cyclic sums of length 1..n-1
    and x1*...*xn - 1."""
    names = [chr(ord("a") + i) for i in range(n)]
    gens = []
    for k in range(1, n):
        runs = ["*".join(names[(i + j) % n] for j in range(k)) for i in range(n)]
        gens.append(" + ".join(runs))
    gens.append("*".join(names) + " - 1")
    return names, gens

# (system, variable order as a permutation of its names, S-pairs, basis
# size, sha256 prefix of the basis one format_multi line per element),
# recorded with the engine as it was before keys were computed once.
# The variable orders are those of the benchmark's elimination mix.  The
# chain criterion B drops pairs on cyclic-5 only.  The rows from
# "katsura4-rescaled" on were recorded with the all-Fraction engine, before
# it became fraction-free; a rescaled system reaches the same reduced basis
# with the same pairs as its unscaled row, through non-unit leading
# coefficients.
GROEBNER_GOLDENS = [
    ("cyclic4", (0, 1, 2, 3), 11, 7, "b81db0e183fc83d4"),
    ("cyclic4", (1, 2, 3, 0), 11, 7, "15164531af5713f7"),
    ("cyclic4", (2, 3, 0, 1), 11, 7, "0335623fd1f4bc40"),
    ("cyclic4", (3, 0, 1, 2), 11, 7, "23bc2b8221b32dc3"),
    ("cyclic4", (3, 2, 1, 0), 11, 7, "5c2889fb4dca6128"),
    ("cyclic4", (0, 3, 2, 1), 11, 7, "e5a619e64fe17f67"),
    ("katsura3", (0, 1, 2), 4, 4, "f537ac5866d14a7e"),
    ("katsura3", (2, 1, 0), 4, 4, "6e77114c5040dc39"),
    ("katsura4", (0, 1, 2, 3), 10, 7, "b26234b1067959c2"),
    ("katsura4", (3, 2, 1, 0), 11, 7, "2ad42c42a6ab58c5"),
    ("cyclic5", (0, 1, 2, 3, 4), 107, 20, "e8c0592bbd513ca3"),
    ("katsura4-rescaled", (0, 1, 2, 3), 10, 7, "b26234b1067959c2"),
    ("katsura4-rescaled", (3, 2, 1, 0), 11, 7, "2ad42c42a6ab58c5"),
    ("cyclic5-rescaled", (0, 1, 2, 3, 4), 107, 20, "e8c0592bbd513ca3"),
    ("katsura4-lex", (0, 1, 2, 3), 52, 4, "d6301ce891f2b50e"),
    ("katsura4-rescaled-block2", (0, 1, 2, 3), 32, 6, "38842abc50d0c1cf"),
]
# Generator k of a rescaled system is multiplied by SCALES[k mod 5].
SCALES = [Fraction(3, 2), Fraction(-2, 3), Fraction(5, 3), Fraction(-1, 2), Fraction(2, 3)]
SYSTEMS = {  # name -> ((names, generators), monomial order, rescaled)
    "cyclic4": (cyclic(4), GREVLEX, False),
    "cyclic5": (cyclic(5), GREVLEX, False),
    "katsura3": (katsura(3), GREVLEX, False),
    "katsura4": (katsura(4), GREVLEX, False),
    "katsura4-rescaled": (katsura(4), GREVLEX, True),
    "cyclic5-rescaled": (cyclic(5), GREVLEX, True),
    "katsura4-lex": (katsura(4), LEX, False),
    # eliminates u0 and u1
    "katsura4-rescaled-block2": (katsura(4), MonomialOrder("block", split=2), True),
}


def golden_generators(name, perm):
    (names, gens), order, rescale = SYSTEMS[name]
    ring = [names[k] for k in perm]
    polys = [parse_multi(g, ring) for g in gens]
    if rescale:
        polys = [g * SCALES[k % len(SCALES)] for k, g in enumerate(polys)]
    return polys, order


@pytest.mark.parametrize("name, perm, used, size, digest", GROEBNER_GOLDENS)
def test_buchberger_goldens(name, perm, used, size, digest):
    gens, order = golden_generators(name, perm)
    budget = Budget()
    basis = buchberger(gens, order, budget)
    text = "\n".join(format_multi(g, order) for g in basis)
    assert (budget.used, len(basis)) == (used, size)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
