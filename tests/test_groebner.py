"""Groebner engine: bases, elimination, saturation, membership, budgets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import (
    LEX,
    Budget,
    BudgetError,
    Ideal,
    MultiPoly,
    eliminate,
    format_multi,
    groebner,
    intersect,
    member,
    parse_multi,
    radical_member,
    saturate,
)
from stabkit.algebra.ideals import reduce_poly
from stabkit.algebra.multipoly import mono_div

RING = ("x", "y", "z")


def ideal(*texts, ring=RING):
    return Ideal(ring, tuple(parse_multi(s, ring) for s in texts))


def s_poly(f, g, order):
    """S-polynomial, built from `lead` and ring arithmetic."""
    (fm, fc), (gm, gc) = f.lead(order), g.lead(order)
    lcm = tuple(map(max, fm, gm))
    left = f * MultiPoly(f.variables, {mono_div(lcm, fm): Fraction(1) / fc})
    return left - g * MultiPoly(g.variables, {mono_div(lcm, gm): Fraction(1) / gc})


# x = t, y = t^2, z = t^3
CUBIC = ideal("x^2 - y", "x*y - z")


def cubic_points():
    for t in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 5)):
        yield {"x": t, "y": t * t, "z": t**3}


class TestGroebner:
    def test_lex_basis_of_monomial_curve(self):
        gb = groebner(CUBIC, order=LEX)
        expected = {"x^2 - y", "x*y - z", "x*z - y^2", "y^3 - z^2"}
        assert {format_multi(g, LEX) for g in gb.generators} == expected

    def test_basis_generates_same_ideal(self):
        gb = groebner(CUBIC)
        for g in CUBIC.generators:
            assert member(g, gb)
        for g in gb.generators:
            assert member(g, CUBIC)

    def test_buchberger_criterion(self):
        gb = groebner(CUBIC, order=LEX)
        gens = gb.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = s_poly(gens[i], gens[j], LEX)
                assert reduce_poly(s, gens, LEX).is_zero()

    def test_idempotent(self):
        gb = groebner(CUBIC)
        assert groebner(gb) == gb

    def test_budget_exhaustion(self):
        hard = ideal(
            "x^2 + y*z - 2", "y^2 + x*z - 3", "z^2 + x*y - 5", ring=("x", "y", "z")
        )
        with pytest.raises(BudgetError) as err:
            groebner(hard, budget=Budget(5))
        assert err.value.limit == 5

    def test_trivial_detection(self):
        assert ideal("x", "x - 1").is_trivial()
        assert not CUBIC.is_trivial()
        assert not Ideal(RING, ()).generators

    def test_equality_via_reduced_basis(self):
        a = ideal("x + y", "y")
        b = ideal("x", "y")
        assert a == b
        assert hash(a) == hash(b)
        assert a != ideal("x")

    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_membership_closed_under_combinations(self, c1, c2):
        g0, g1 = CUBIC.generators[:2]
        f = g0 * Fraction(c1) + g1 * Fraction(c2) * parse_multi("x + z", RING)
        assert member(f, CUBIC)

    def test_nonmember(self):
        assert not member(parse_multi("x", RING), CUBIC)
        assert not member(parse_multi("y^3 - z^2 + 1", RING), CUBIC)


class TestEliminate:
    def test_twisted_cubic_projection(self):
        out = eliminate(CUBIC, ("x",))
        assert out.variables == ("y", "z")
        assert [format_multi(g) for g in out.generators] == ["y^3 - z^2"]

    def test_survivors_vanish_on_curve(self):
        out = eliminate(CUBIC, ("x",))
        for point in cubic_points():
            for g in out.generators:
                assert g.subs({k: point[k] for k in ("y", "z")}) == 0

    def test_drop_everything_but_one(self):
        circle_line = ideal("x^2 + y^2 - 1", "x - y", ring=("x", "y"))
        out = eliminate(circle_line, ("x",))
        assert out.variables == ("y",)
        assert [format_multi(g) for g in out.generators] == ["y^2 - 1/2"]

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            eliminate(CUBIC, ("w",))


class TestSaturateIntersect:
    def test_saturation_removes_component(self):
        # V(x*y) minus {y = 0} leaves the x-axis closure V(x)
        xy = ideal("x*y", ring=("x", "y"))
        out = saturate(xy, parse_multi("y", ("x", "y")))
        assert [format_multi(g) for g in out.generators] == ["x"]

    def test_saturation_idempotent(self):
        xy = ideal("x*y", "y^2", ring=("x", "y"))
        div = parse_multi("y", ("x", "y"))
        once = saturate(xy, div)
        assert saturate(once, div) == once

    def test_saturation_by_unit_is_identity(self):
        out = saturate(CUBIC, parse_multi("1", RING))
        assert out == CUBIC

    def test_intersection_of_axes(self):
        ring = ("x", "y")
        meet = intersect(ideal("x", ring=ring), ideal("y", ring=ring))
        assert [format_multi(g) for g in meet.generators] == ["x*y"]

    def test_intersection_contains_products(self):
        a = ideal("x^2 - y")
        b = ideal("z")
        meet = intersect(a, b)
        for f in a.generators:
            for g in b.generators:
                assert member(f * g, meet)


class TestRadical:
    def test_nilpotent_witness(self):
        sq = ideal("x^2", ring=("x", "y"))
        assert radical_member(parse_multi("x", ("x", "y")), sq)
        assert not radical_member(parse_multi("y", ("x", "y")), sq)

    def test_member_implies_radical_member(self):
        f = parse_multi("y^3 - z^2", RING)
        assert member(f, groebner(CUBIC, order=LEX))
        assert radical_member(f, CUBIC)
