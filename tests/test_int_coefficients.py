"""Integer coefficients in the shared polynomial kernel.

Every term dict of MultiPoly and LaurentPoly holds an int where a
coefficient is integral and a Fraction only where it is not; floats are
refused where terms enter, as is a float or Fraction exponent.  The kernel
is checked against a test-local all-Fraction copy on mixed int/Fraction
inputs: the Groebner engine's int S-polynomials and pseudo-remainders are
positive multiples of the all-Fraction ones.  The whole corpus is run with
every wrapped arithmetic result inspected.
"""

import json
import math
import operator
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import arc_product, at_arc, elementary_arc, identity_arc

from stabkit.algebra import GREVLEX, LEX, LaurentPoly, MonomialOrder, MultiPoly
from stabkit.algebra import parse_laurent, parse_multi
from stabkit.algebra.ideals import _lead, _normal_form, _spoly
from stabkit.algebra.multipoly import _mul_mono, mono_div, mono_divides, mono_lcm
from stabkit.cli import main
from stabkit.groups import Arc, GroupPresentation, MatrixAction, image_order, sym_action

RING = ("x", "y", "z")
ORDERS = [GREVLEX, LEX, MonomialOrder("block", split=1)]


def is_kernel_coefficient(c):
    """A nonzero int, or a Fraction that is not an integer."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def assert_kernel_terms(terms):
    assert all(map(is_kernel_coefficient, terms.values())), terms


# The all-Fraction kernel: every coefficient is made a Fraction first, and
# sums start from Fraction(0).
def frac(terms):
    return {m: Fraction(c) for m, c in terms.items()}


def frac_add(a, b):
    out = frac(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + Fraction(c)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def frac_mul(a, b, add):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out = frac_add(out, {add(m1, m2): Fraction(c1) * Fraction(c2)})
    return out


def frac_pow(a, n, one, add):
    out = {one: Fraction(1)}
    for _ in range(n):
        out = frac_mul(out, a, add)
    return out


def frac_scale(a, c):
    c = Fraction(c)
    return {m: Fraction(k) * c for m, k in a.items()} if c else {}


def frac_spoly(f, g, order):
    (fm, fc), (gm, gc) = f.lead(order), g.lead(order)
    l = mono_lcm(fm, gm)
    left = frac_mul({mono_div(l, fm): 1 / Fraction(fc)}, f.terms, _mul_mono)
    right = frac_mul({mono_div(l, gm): -1 / Fraction(gc)}, g.terms, _mul_mono)
    return frac_add(left, right)


def frac_normal_form(f, basis, order):
    """Remainder of f modulo basis, reducers tried smallest lead first."""
    leads = sorted(
        ((g.lead(order), g) for g in basis if not g.is_zero()), key=lambda e: order.key(e[0][0])
    )
    work, rem = frac(f.terms), {}
    while work:
        m = max(work, key=order.key)
        c = work[m]
        for (gm, gc), g in leads:
            if mono_divides(gm, m):
                work = frac_add(work, frac_mul({mono_div(m, gm): -c / gc}, g.terms, _mul_mono))
                break
        else:
            rem[m] = c
            del work[m]
    return rem


def frac_act(action, arc, vector):
    """(numerator terms, denominator terms) of each coordinate of arc.vector:
    each row contracted with the vector, evaluated at the arc term by term,
    with ginv^k cleared as det^(top - k)."""
    entries = [e.terms for row in arc.matrix for e in row]
    n = len(entries)
    det = arc.det.terms
    rows = []
    for row in action.matrix:
        acc = {}
        for c, entry in zip(vector, row):
            acc = frac_add(acc, frac_scale(entry.terms, c))
        rows.append(acc)
    top = max((m[n] for row in rows for m in row), default=0)
    out = []
    for acc in rows:
        total = {}
        for mono, c in acc.items():
            term = {0: Fraction(c)}
            for base, e in zip(entries + [det], mono[:n] + (top - mono[n],)):
                term = frac_mul(term, frac_pow(base, e, 0, operator.add), operator.add)
            total = frac_add(total, term)
        out.append(total)
    return out, frac_pow(det, top, 0, operator.add)


# Mixed inputs: ints, integral Fractions and proper Fractions.
mixed = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.integers(min_value=-4, max_value=4).map(Fraction),
)
nonzero_mixed = mixed.filter(bool)
monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * len(RING)))
multi_polys = st.dictionaries(monos, nonzero_mixed, max_size=4).map(
    lambda terms: MultiPoly(RING, terms)
)
laurent_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3), nonzero_mixed, max_size=4
).map(LaurentPoly)


class TestAgainstFractionKernel:
    @given(multi_polys, multi_polys, mixed)
    @settings(max_examples=150, deadline=None)
    def test_multi_arithmetic(self, a, b, c):
        for got, want in [
            (a + b, frac_add(a.terms, b.terms)),
            (a - b, frac_add(a.terms, frac_scale(b.terms, -1))),
            (a * b, frac_mul(a.terms, b.terms, _mul_mono)),
            (a * c, frac_scale(a.terms, c)),
            (a + c, frac_add(a.terms, {(0, 0, 0): c})),
        ]:
            assert got.terms == want
            assert_kernel_terms(got.terms)

    @given(laurent_polys, laurent_polys, mixed)
    @settings(max_examples=150, deadline=None)
    def test_laurent_arithmetic(self, a, b, c):
        for got, want in [
            (a + b, frac_add(a.terms, b.terms)),
            (a - b, frac_add(a.terms, frac_scale(b.terms, -1))),
            (a * b, frac_mul(a.terms, b.terms, operator.add)),
            (a.scale(c), frac_scale(a.terms, c)),
        ]:
            assert got.terms == want
            assert_kernel_terms(got.terms)

    @given(
        multi_polys.filter(lambda p: not p.is_zero()),
        multi_polys.filter(lambda p: not p.is_zero()),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=150, deadline=None)
    def test_spoly(self, f, g, order):
        a, b = _lead(f, order), _lead(g, order)
        got = _spoly(a, b)
        # lcm(a's lc, b's lc) times the S-polynomial, and all ints
        k = math.lcm(a[2], b[2])
        assert got == {m: k * c for m, c in frac_spoly(f, g, order).items()}
        assert all(type(c) is int and c for c in got.values())

    @given(multi_polys, st.lists(multi_polys, min_size=1, max_size=3), st.sampled_from(ORDERS))
    @settings(max_examples=150, deadline=None)
    def test_normal_form(self, f, basis, order):
        reducers = sorted(
            (_lead(g, order) for g in basis if not g.is_zero()), key=operator.itemgetter(0)
        )
        # the reducer takes int terms: f with its denominators cleared
        f = f * math.lcm(*(Fraction(c).denominator for c in f.terms.values()))
        got, scale = _normal_form(dict(f.terms), reducers, order)
        assert type(scale) is int and scale > 0
        assert got == {m: scale * c for m, c in frac_normal_form(f, basis, order).items()}
        assert all(type(c) is int and c for c in got.values())


SL2 = GroupPresentation(2, "special-linear")
GL2 = GroupPresentation(2, "general-linear")
small = st.integers(min_value=-2, max_value=2)
laurent_entries = st.dictionaries(small, nonzero_mixed, min_size=1, max_size=2).map(LaurentPoly)


@st.composite
def falsifier_arcs(draw, group):
    """Products of t-power diagonals (of determinant 1 for SL2) and
    elementary matrices with small Laurent entries, as the falsifier draws
    them, except that the entries mix int and Fraction coefficients."""
    arc = identity_arc(2)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(2)))
            arc = arc_product(arc, elementary_arc(2, i, j, draw(laurent_entries)))
        else:
            exps = draw(st.lists(small, min_size=2, max_size=2))
            if group is SL2:
                exps[-1] = -exps[0]
            arc = arc_product(arc, Arc.one_ps(exps))
    return arc


@st.composite
def act_cases(draw):
    group = draw(st.sampled_from([SL2, GL2]))
    if draw(st.booleans()):
        action = sym_action(group, draw(st.integers(min_value=1, max_value=4)))
    else:
        ring_monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * 5))
        entry = st.dictionaries(ring_monos, nonzero_mixed, max_size=3).map(
            lambda t: MultiPoly(group.variables, t)
        )
        dim = draw(st.integers(min_value=1, max_value=2))
        row = st.lists(entry, min_size=dim, max_size=dim)
        action = MatrixAction(group, draw(st.lists(row, min_size=dim, max_size=dim)))
    arc = draw(falsifier_arcs(group))
    vector = draw(st.lists(mixed, min_size=action.dim, max_size=action.dim))
    return action, arc, vector


class TestActAgainstFractionKernel:
    @given(act_cases())
    @settings(max_examples=150, deadline=None)
    def test_act(self, case):
        """The numerators `at_arc` gives over det^top are the all-Fraction
        ones, held as kernel terms, and `image_order` is their order."""
        action, arc, vector = case
        zero = MultiPoly.zero(action.group.variables)
        rows = [sum(map(operator.mul, row, vector), zero).terms for row in action.matrix]
        nums, top = at_arc(rows, arc)
        want, den = frac_act(action, arc, vector)
        assert nums == want
        assert den == frac_pow(arc.det.terms, top, 0, operator.add)
        for num in nums:
            assert_kernel_terms(num)
        if not any(vector):
            with pytest.raises(ValueError, match="v must be nonzero"):
                image_order(action, arc, vector)
        elif not any(want):
            with pytest.raises(ValueError, match="ord0 of an all-zero vector is undefined"):
                image_order(action, arc, vector)
        else:
            order = min(min(num) for num in want if num) - min(den)
            assert image_order(action, arc, vector) == order


class TestEntryPoints:
    def test_integral_fractions_enter_as_ints(self):
        p = MultiPoly(RING, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 2)})
        assert list(map(type, p.terms.values())) == [int, Fraction]
        assert type(MultiPoly.constant(RING, Fraction(3)).terms[(0, 0, 0)]) is int
        assert type(MultiPoly.var(RING, "y").terms[(0, 1, 0)]) is int
        assert type(LaurentPoly({2: Fraction(-6, 3)}).terms[2]) is int
        assert type(LaurentPoly.constant(Fraction(5)).terms[0]) is int
        assert type(LaurentPoly.t_power(-1).terms[-1]) is int
        assert parse_multi("2/2*x - 3/2*y + 4", RING).terms == {
            (1, 0, 0): 1,
            (0, 1, 0): Fraction(-3, 2),
            (0, 0, 0): 4,
        }
        assert_kernel_terms(parse_multi("2/2*x - 3/2*y + 4 - 1/2 + 1/2*x", RING).terms)
        assert parse_laurent("4/2*t^-1 + 1/3 + 2/3").terms == {-1: 2, 0: 1}
        assert_kernel_terms(parse_laurent("4/2*t^-1 + 1/3 + 2/3").terms)

    @pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(5, 2), Fraction(2)])
    def test_float_and_fraction_exponents_are_refused(self, bad):
        # refused, not truncated: 2.5 must not become 2 and merge with x^2
        with pytest.raises(TypeError, match="is not an int"):
            MultiPoly(["x"], {(bad,): 1})
        with pytest.raises(TypeError):
            MultiPoly(["x"], {(bad,): 1, (2,): 1})
        with pytest.raises(TypeError):
            MultiPoly(RING, {(0, bad, 1): 1})
        with pytest.raises(TypeError):
            LaurentPoly({bad: 1, 2: 1})
        with pytest.raises(TypeError):
            LaurentPoly({bad: 0})

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.0])
    def test_floats_are_refused(self, bad):
        with pytest.raises(TypeError):
            MultiPoly(RING, {(0, 0, 0): bad})
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
        with pytest.raises(TypeError):
            MultiPoly.var(RING, "x") * bad
        with pytest.raises(TypeError):
            LaurentPoly.t_power(1).scale(bad)


def corpus_jobs():
    jobs = []
    for path in resources.files("stabkit").joinpath("corpus").iterdir():
        if path.name.endswith(".json"):
            jobs.extend((entry["id"], entry["job"]) for entry in json.loads(path.read_text()))
    return sorted(jobs, key=operator.itemgetter(0))


def test_corpus_term_dicts_hold_ints_and_proper_fractions(monkeypatch, tmp_path):
    """Every arithmetic result the corpus wraps keeps the invariant."""
    bad, seen = [], []

    def inspect(terms):
        seen.append(len(terms))
        bad.extend((m, c) for m, c in terms.items() if not is_kernel_coefficient(c))

    multi, laurent = MultiPoly._trusted, LaurentPoly._trusted

    def checked_multi(variables, terms):
        inspect(terms)
        return multi(variables, terms)

    def checked_laurent(terms):
        inspect(terms)
        return laurent(terms)

    monkeypatch.setattr(MultiPoly, "_trusted", staticmethod(checked_multi))
    monkeypatch.setattr(LaurentPoly, "_trusted", staticmethod(checked_laurent))
    jobs = corpus_jobs()
    assert len(jobs) == 30
    for job_id, document in jobs:
        job, report = tmp_path / f"{job_id}.json", tmp_path / f"{job_id}.report.json"
        job.write_text(json.dumps(document))
        assert main(["run", str(job), "--out", str(report)]) == 0, job_id
    assert sum(seen) > 0
    assert bad == []

