"""Fraction-free elimination against the cofactor references, and exact
Laurent division.

`groups._eliminate` gives every arc determinant and the numerators that
`arcs_equivalent` reads; `tests/arc_helpers.py` keeps the cofactor
determinant, the adjugate and the adjugate rule of equivalence that it
replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import (
    adjugate_equivalent,
    arc_product,
    elementary_arc,
    identity_arc,
    laurent_det,
)

from stabkit.algebra import LaurentPoly, parse_laurent
from stabkit.groups import Arc, _eliminate, _matmul, arcs_equivalent

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def laurent(low=-2):
    """Laurent polynomials with at most two terms, zero included, of
    exponents low..2."""
    return st.dictionaries(st.integers(low, 2), coefficients, max_size=2).map(LaurentPoly)


@st.composite
def matrices(draw, size, low=-2):
    return [[draw(laurent(low)) for _ in range(size)] for _ in range(size)]


@st.composite
def unitriangular(draw, size, upper):
    """A unitriangular arc with entries in Q[t]."""
    rows = [[LaurentPoly.constant(int(i == j)) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if (i < j) if upper else (i > j):
                rows[i][j] = draw(laurent(low=0))
    return Arc(rows)


@st.composite
def arc_pairs(draw):
    """(a, b) with b drawn alone, or b = a U, or b = L a U."""
    size = draw(st.integers(1, 6))
    a = Arc(draw(matrices(size)))
    form = draw(st.sampled_from(["drawn", "aU", "LaU"]))
    if form == "drawn":
        return a, Arc(draw(matrices(size)))
    b = arc_product(a, draw(unitriangular(size, upper=True)))
    if form == "LaU":
        b = arc_product(draw(unitriangular(size, upper=False)), b)
    return a, b


def raised(call):
    """call()'s result, or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return ValueError, str(exc)


class TestAgainstCofactors:
    @given(st.integers(1, 6).flatmap(matrices))
    @settings(max_examples=60, deadline=None)
    def test_arc_determinant(self, matrix):
        assert Arc(matrix).det == laurent_det(matrix)

    @given(arc_pairs())
    @settings(max_examples=60, deadline=None)
    def test_arc_equivalence(self, pair):
        a, b = pair
        assert raised(lambda: arcs_equivalent(a, b)) == raised(lambda: adjugate_equivalent(a, b))

    @given(st.integers(1, 5).flatmap(lambda m: st.tuples(matrices(m), matrices(m))))
    @settings(max_examples=40, deadline=None)
    def test_gauss_jordan_block(self, pair):
        a, b = pair
        det = laurent_det(a)
        if det.is_zero():
            with pytest.raises(ValueError, match="nonsingular"):
                _eliminate(a, b)
            return
        d, x = _eliminate(a, b)
        assert d in (det, -det)
        assert _matmul(a, x, LaurentPoly.zero()) == [[d * e for e in row] for row in b]

    @given(st.integers(1, 6).flatmap(matrices))
    @settings(max_examples=30, deadline=None)
    def test_a_unit_multiple_is_equivalent(self, matrix):
        a = Arc(matrix)
        b = Arc([[e * parse_laurent("2 - t") for e in row] for row in matrix])
        if a.det.is_zero():
            with pytest.raises(ValueError, match="invalid arc: zero determinant"):
                arcs_equivalent(a, b)
        else:
            assert arcs_equivalent(a, b) and arcs_equivalent(b, a)

    def test_a_two_by_two_determinant_divides_nothing(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a 2x2 determinant divided")

        monkeypatch.setattr(LaurentPoly, "__truediv__", refuse)
        a, b, c, d = (parse_laurent(s) for s in ("1 + t", "t^-1", "2*t", "3 - t^2"))
        assert Arc([[a, b], [c, d]]).det == a * d - c * b
        assert Arc([[LaurentPoly.zero(), b], [c, d]]).det == -(c * b)

    def test_equivalence_across_an_elementary_factor(self):
        a = Arc.one_ps([2, 0, -1])
        for off, same in (("1 + t", True), ("t^-1", False), ("t^-3", False)):
            b = arc_product(a, elementary_arc(3, 0, 2, parse_laurent(off)))
            assert arcs_equivalent(a, b) == adjugate_equivalent(a, b) == same
        assert arcs_equivalent(identity_arc(3), elementary_arc(3, 2, 0, parse_laurent("t")))


class TestRationalElimination:
    def test_determinant_and_block(self):
        a = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1, 2)]]
        assert _eliminate(a) == -6
        d, x = _eliminate(a, [[Fraction(1)], [Fraction(0)]])
        assert d in (6, -6)
        assert _matmul(a, x, Fraction(0)) == [[d], [0]]

    def test_a_singular_matrix_has_determinant_zero(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert _eliminate(a) == 0
        with pytest.raises(ValueError, match="nonsingular"):
            _eliminate(a, a)


class TestExactDivision:
    @given(laurent(), laurent(), laurent())
    @settings(max_examples=80, deadline=None)
    def test_a_product_divides_back(self, p, q, r):
        if q.is_zero():
            return
        assert (p * q * r) / q == p * r

    @pytest.mark.parametrize(
        "num, den",
        [("1", "1 + t"), ("t^2 + 1", "t + 1"), ("1 + t + t^2", "1 - t"), ("t^-2 + 1", "t^3 - t")],
    )
    def test_a_non_multiple_is_refused(self, num, den):
        with pytest.raises(ValueError, match="not divisible"):
            parse_laurent(num) / parse_laurent(den)

    def test_units_and_constants(self):
        assert parse_laurent("2*t^3 - 4*t") / parse_laurent("2*t^-1") == parse_laurent("t^4 - 2*t^2")
        assert parse_laurent("t - 1/2") / Fraction(1, 2) == parse_laurent("2*t - 1")
        assert LaurentPoly.zero() / parse_laurent("1 + t") == LaurentPoly.zero()
        assert (parse_laurent("3*t") / 3).terms == {1: 1}
        with pytest.raises(ZeroDivisionError):
            parse_laurent("t") / LaurentPoly.zero()
