"""The fraction-free Groebner engine against a copy of the all-Fraction one.

`old_engine()` swaps the package's `buchberger` and `reduce_poly` for
test-local copies of the engine as it was before it became fraction-free:
lead entries keep the rational leading coefficient, S-polynomials divide by
it, and every reduction step divides by the reducer's leading coefficient.
The pair criteria (`_update_pairs`) and `_minimalize` read only monomials and
are shared.  `groebner`, `member`, `eliminate` and `saturate` look both names
up in the module, so under the swap they run on the old engine; the tests
call `ideals.buchberger` and `ideals.reduce_poly` through the module too.

Inputs are rational systems in which no coefficient is 0, 1 or -1, so no
leading coefficient is a unit, under grevlex, lex and two block orders.  Both
engines must return equal term dicts, spend the same budget, and raise the
same BudgetError when the limit is one step short.
"""

from bisect import insort
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from operator import add, itemgetter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import (
    GREVLEX,
    LEX,
    Budget,
    BudgetError,
    Ideal,
    MonomialOrder,
    MultiPoly,
    eliminate,
    groebner,
    member,
    saturate,
)
from stabkit.algebra import ideals
from stabkit.algebra.ideals import _divmask, _minimalize, _update_pairs
from stabkit.algebra.multipoly import _mul_into, _mul_mono, _quo, mono_div, mono_divides, mono_lcm

RING = ("x", "y", "z")
ORDERS = [GREVLEX, LEX, MonomialOrder("block", split=1), MonomialOrder("block", split=2)]
LIMIT = 60


# ---------------------------------------------------- the all-Fraction engine


def old_lead(g, order):
    lm, lc = g.lead(order)
    tail = dict(g.terms)
    del tail[lm]
    return order.key(lm), lm, lc, tail, _divmask(lm)


def old_normal_form(work, reducers, order):
    hkey = order.heap_key
    heap = [(hkey(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        outside = ~_divmask(m)
        for _, gm, gc, tail, gmask in reducers:
            if not gmask & outside and mono_divides(gm, m):
                q = mono_div(m, gm)
                f = _quo(-c, gc)
                for t, tc in tail.items():
                    n = tuple(map(add, q, t))
                    s = work.get(n)
                    if s is None:
                        s = f * tc
                        heappush(heap, (hkey(n), n))
                    else:
                        s += f * tc
                        if not s:
                            del work[n]
                            continue
                    work[n] = s if type(s) is int or s.denominator != 1 else s.numerator
                break
        else:
            rem[m] = c
    return rem


def old_spoly(a, b):
    _, am, ac, atail, _ = a
    _, bm, bc, btail, _ = b
    l = mono_lcm(am, bm)
    out = _mul_into({}, {mono_div(l, am): _quo(1, ac)}, atail, _mul_mono)
    return _mul_into(out, {mono_div(l, bm): _quo(-1, bc)}, btail, _mul_mono)


def old_interreduce(G, order):
    out = []
    for i, (_, lm, lc, tail, _) in enumerate(G):
        others = [h for j, h in enumerate(G) if j != i]
        rem = old_normal_form(dict(tail), others, order)
        terms = {lm: 1}
        for m, c in rem.items():
            terms[m] = _quo(c, lc)
        out.append(terms)
    return out


def old_buchberger(gens, order=GREVLEX, budget=None):
    budget = Budget.coerce(budget)
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        gens[0]._check_ring(g)
    leads, reducers, P = [], [], []

    def admit(entry, pairs):
        leads.append(entry)
        insort(reducers, entry, key=itemgetter(0))
        return _update_pairs(leads, pairs, order)

    for entry in sorted((old_lead(g, order) for g in gens), key=itemgetter(0)):
        P = admit(entry, P)
    while P:
        _, i, j, _, _ = heappop(P)
        budget.spend()
        rem = old_normal_form(old_spoly(leads[i], leads[j]), reducers, order)
        if rem:
            P = admit(old_lead(MultiPoly._trusted(gens[0].variables, rem), order), P)
    return [
        MultiPoly._trusted(gens[0].variables, terms)
        for terms in old_interreduce(_minimalize(reducers), order)
    ]


def old_reduce_poly(f, basis, order):
    for g in basis:
        f._check_ring(g)
    reducers = sorted((old_lead(g, order) for g in basis if not g.is_zero()), key=itemgetter(0))
    return MultiPoly._trusted(f.variables, old_normal_form(dict(f.terms), reducers, order))


@contextmanager
def old_engine():
    with mock.patch.multiple(ideals, buchberger=old_buchberger, reduce_poly=old_reduce_poly):
        yield


# ------------------------------------------------------------------ inputs

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
    lambda q: q not in (0, 1, -1)
)
monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * len(RING)))
polys = st.dictionaries(monos, coefficients, min_size=1, max_size=3).map(
    lambda terms: MultiPoly(RING, terms)
)
systems = st.lists(polys, min_size=2, max_size=4)


@st.composite
def combinations(draw, gens):
    """A polynomial combination of gens, sometimes plus a stray term, so that
    membership goes both ways."""
    f = MultiPoly.zero(RING)
    for g in gens:
        f = f + draw(polys) * g
    if draw(st.booleans()):
        f = f + draw(polys)
    return f


# --------------------------------------------------------------- comparison


def attempt(call, limit):
    """(result or the BudgetError's limit, budget used) of call(budget)."""
    budget = Budget(limit)
    try:
        out = call(budget)
    except BudgetError as err:
        out = ("BudgetError", err.limit)
    return out, budget.used


def assert_same_on_both_engines(call):
    new = attempt(call, LIMIT)
    with old_engine():
        old = attempt(call, LIMIT)
    assert new == old
    result, used = new
    if used and result != ("BudgetError", LIMIT):
        short = attempt(call, used - 1)
        with old_engine():
            old_short = attempt(call, used - 1)
        assert short == old_short == (("BudgetError", used - 1), used)


def terms(ideal):
    return ideal.variables, [g.terms for g in ideal.generators]


class TestAgainstTheAllFractionEngine:
    @given(systems, st.sampled_from(ORDERS))
    @settings(max_examples=150, deadline=None)
    def test_buchberger(self, gens, order):
        assert_same_on_both_engines(
            lambda budget: [g.terms for g in ideals.buchberger(gens, order, budget)]
        )
        assert_same_on_both_engines(
            lambda budget: terms(groebner(Ideal(RING, gens), order, budget))
        )

    @given(polys, systems, st.sampled_from(ORDERS))
    @settings(max_examples=150, deadline=None)
    def test_reduce_poly(self, f, gens, order):
        # modulo the generators, and modulo their reduced basis, where the
        # remainder is the normal form
        try:
            bases = [gens, ideals.buchberger(gens, order, LIMIT)]
        except BudgetError:
            bases = [gens]
        for basis in bases:
            new = ideals.reduce_poly(f, basis, order)
            with old_engine():
                old = ideals.reduce_poly(f, basis, order)
            assert new.terms == old.terms
            assert all(type(c) is int or c.denominator != 1 for c in new.terms.values())

    @given(systems.flatmap(lambda gens: st.tuples(st.just(gens), combinations(gens))))
    @settings(max_examples=100, deadline=None)
    def test_member(self, case):
        gens, f = case
        assert_same_on_both_engines(lambda budget: member(f, Ideal(RING, gens), budget))

    @given(systems, st.lists(st.sampled_from(RING), min_size=1, max_size=2, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_eliminate(self, gens, drop):
        assert_same_on_both_engines(
            lambda budget: terms(eliminate(Ideal(RING, gens), drop, budget))
        )

    @given(systems, polys)
    @settings(max_examples=100, deadline=None)
    def test_saturate(self, gens, f):
        assert_same_on_both_engines(lambda budget: terms(saturate(Ideal(RING, gens), f, budget)))
