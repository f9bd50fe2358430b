"""`image_order` reads ord0(arc.v) off t-orders; it is checked against a
copy of the `act` it replaced, which formed every coordinate of arc.v as a
`LaurentFrac` and took ord0 of the result.  Errors must match to the
message."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import arc_product, elementary_arc, identity_arc

from stabkit.algebra import LaurentFrac, LaurentPoly, MultiPoly, ord0
from stabkit.algebra import parse_laurent as t
from stabkit.algebra import parse_multi
from stabkit.algebra.multipoly import _add_into, _exact, _scale_terms
from stabkit.groups import (
    INV_VAR,
    Arc,
    GroupPresentation,
    MatrixAction,
    TorusWeights,
    _at_arc,
    image_order,
    mu_from_order,
    sym_action,
)

SL2 = GroupPresentation(2, "special-linear")
GL2 = GroupPresentation(2, "general-linear")


def ref_power(base: LaurentPoly, n: int) -> LaurentPoly:
    out = LaurentPoly.constant(1)
    for _ in range(n):
        out = out * base
    return out


def ref_act(rep, arc, vector):
    """The old `groups.act`: the image of a rational vector under the arc,
    coordinate by coordinate, as Laurent-field elements.  It differs in two
    places only: powers are taken by repeated product, and det^top is built
    from the top that `_at_arc` now returns instead of the terms of det^top."""
    if isinstance(rep, TorusWeights):
        if arc.size != rep.rank:
            raise ValueError("arc size does not match the torus rank")
        if not arc.is_diagonal():
            raise ValueError("TorusWeights representations act through diagonal arcs only")
        units = arc.diagonal()
        if any(u.is_zero() for u in units):
            raise ValueError("invalid arc: zero diagonal entry")
        if len(vector) != rep.dim:
            raise ValueError("vector length does not match the representation")
        out = []
        for chi, coord in zip(rep.weights, vector):
            c = Fraction(coord)
            if c == 0:
                out.append(LaurentFrac(LaurentPoly.zero()))
                continue
            num = LaurentPoly.constant(c)
            den = LaurentPoly.constant(1)
            for u, e in zip(units, chi):
                if e > 0:
                    num = num * ref_power(u, e)
                elif e < 0:
                    den = den * ref_power(u, -e)
            out.append(LaurentFrac(num, den))
        return out
    if isinstance(rep, MatrixAction):
        if arc.size != rep.group.size:
            raise ValueError("arc size does not match the group")
        if len(vector) != rep.dim:
            raise ValueError("vector length does not match the representation")
        if arc.det.is_zero():
            raise ValueError("invalid arc: zero determinant")
        coords = [_exact(c) for c in vector]
        rows = []
        for row in rep.matrix:
            acc: dict = {}
            for c, entry in zip(coords, row):
                if c:
                    _add_into(acc, _scale_terms(entry.terms, c))
            rows.append(acc)
        nums, top = _at_arc(rows, arc)
        den = ref_power(arc.det, top)
        return [LaurentFrac(LaurentPoly(num), den) for num in nums]
    raise TypeError(f"unknown representation type {type(rep).__name__}")


def ref_image_order(rep, arc, v):
    if all(Fraction(c) == 0 for c in v):
        raise ValueError("v must be nonzero")
    return ord0(ref_act(rep, arc, v))


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return ("raised", type(exc), str(exc))


small = st.integers(min_value=-2, max_value=2)
coefficients = st.one_of(small, st.fractions(min_value=-3, max_value=3, max_denominator=3))
laurents = st.dictionaries(small, coefficients.filter(bool), min_size=1, max_size=3).map(
    LaurentPoly
)
maybe_zero_laurents = st.one_of(st.just(LaurentPoly.zero()), laurents)


def vectors(dim):
    """Rational vectors with zero coordinates now and then, all zero at
    times, and now and then of the wrong length."""
    length = st.sampled_from([dim] * 6 + [dim + 1])
    coordinate = st.sampled_from([0, 0, 1, -2]) | coefficients
    return length.flatmap(lambda n: st.lists(coordinate, min_size=n, max_size=n))


@st.composite
def torus_cases(draw):
    """Weights with negative entries; diagonal arcs of Laurent polynomials,
    zero entries and wrong sizes included, and now and then an elementary
    factor, which makes the arc non-diagonal."""
    rank = draw(st.integers(min_value=1, max_value=3))
    weight = st.lists(st.integers(min_value=-3, max_value=3), min_size=rank, max_size=rank)
    rep = TorusWeights(draw(st.lists(weight, min_size=1, max_size=4)))
    size = rank + draw(st.sampled_from([0] * 8 + [1]))
    entry = st.one_of(laurents, laurents, laurents, maybe_zero_laurents)
    entries = st.lists(entry, min_size=size, max_size=size)
    arc = Arc.diagonal_arc(draw(entries))
    if size >= 2 and draw(st.integers(min_value=0, max_value=7)) == 0:
        arc = arc_product(arc, elementary_arc(size, 0, 1, draw(laurents)))
    return rep, arc, draw(vectors(rep.dim))


@st.composite
def elementary_arcs(draw, group):
    """Products of diagonal t-power arcs (of determinant 1 for SL2) and
    elementary factors with Laurent entries: mostly not diagonal."""
    arc = identity_arc(2)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(2)))
            arc = arc_product(arc, elementary_arc(2, i, j, draw(laurents)))
        else:
            a, b = draw(small), draw(small)
            arc = arc_product(arc, Arc.one_ps([a, -a if group is SL2 else b]))
    return arc


def singular_arcs():
    row = st.lists(maybe_zero_laurents, min_size=2, max_size=2)
    return st.lists(row, min_size=2, max_size=2).map(Arc)


def with_ginv(group, d):
    """Sym^d twisted by ginv: every entry times the inverse determinant."""
    inv = MultiPoly.var(group.variables, INV_VAR)
    return MatrixAction(group, [[inv * p for p in row] for row in sym_action(group, d).matrix])


def ginv_polys():
    monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * 5))
    terms = st.dictionaries(monos, coefficients.filter(bool), max_size=3)
    return terms.map(lambda t: MultiPoly(GL2.variables, t))


@st.composite
def matrix_cases(draw):
    """SL2 Sym^d actions, GL2 actions with ginv (Sym^d twisted by ginv,
    characters and free polynomial matrices in which ginv occurs), arcs from
    elementary factors, and now and then a singular arc."""
    kind = draw(st.sampled_from(["sl2-sym", "gl2-sym", "gl2-twisted", "gl2-free"]))
    d = draw(st.integers(min_value=1, max_value=5))
    if kind == "sl2-sym":
        group, action = SL2, sym_action(SL2, d)
    elif kind == "gl2-sym":
        group, action = GL2, sym_action(GL2, d)
    elif kind == "gl2-twisted":
        group, action = GL2, with_ginv(GL2, d)
    else:
        group = GL2
        dim = draw(st.integers(min_value=1, max_value=3))
        row = st.lists(ginv_polys(), min_size=dim, max_size=dim)
        action = MatrixAction(GL2, draw(st.lists(row, min_size=dim, max_size=dim)))
    arc = draw(st.one_of(elementary_arcs(group), elementary_arcs(group), singular_arcs()))
    return action, arc, draw(vectors(action.dim))


class TestAgainstAct:
    @given(torus_cases())
    @settings(max_examples=400, deadline=None)
    def test_torus_weights(self, case):
        rep, arc, v = case
        got = outcome(image_order, rep, arc, v)
        assert got == outcome(ref_image_order, rep, arc, v)
        assert isinstance(got, tuple) or type(got) is int

    @given(matrix_cases())
    @settings(max_examples=300, deadline=None)
    def test_matrix_actions(self, case):
        action, arc, v = case
        got = outcome(image_order, action, arc, v)
        assert got == outcome(ref_image_order, action, arc, v)
        assert isinstance(got, tuple) or type(got) is int

    @given(st.one_of(torus_cases(), matrix_cases()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mu_from_order(self, case, data):
        rep, arc, w = case
        ord_v = data.draw(small)
        got = outcome(mu_from_order, ord_v, rep, w, arc)
        if all(Fraction(c) == 0 for c in w):
            # a zero w must still fit the representation and the arc
            if isinstance(rep, TorusWeights) and arc.size != rep.rank:
                assert got == ("raised", ValueError, "arc size does not match the torus rank")
            elif len(w) != rep.dim:
                message = "vector length does not match the representation"
                assert got == ("raised", ValueError, message)
            else:
                assert got is math.inf
        else:
            want = outcome(ref_image_order, rep, arc, w)
            assert got == (want if isinstance(want, tuple) else want - ord_v)


T2 = TorusWeights([(1, -1), (0, 2)])
ONE = [Fraction(1), Fraction(1)]

# Both rows are g11 * (v1 - v2): the image of (1, 1) is zero.
CANCELLING = MatrixAction(GL2, [[parse_multi(s, GL2.variables) for s in ("g11", "-g11")]] * 2)


@pytest.mark.parametrize(
    "rep, arc, w, message",
    [
        (T2, Arc.one_ps([1, 1]), [0, 0, 0], "vector length does not match the representation"),
        (T2, Arc.one_ps([1, 1]), [0], "vector length does not match the representation"),
        (
            sym_action(SL2, 1),
            identity_arc(2),
            [0, 0, Fraction(0)],
            "vector length does not match the representation",
        ),
        (T2, Arc.one_ps([1]), [0, 0], "arc size does not match the torus rank"),
        (T2, Arc.one_ps([1, 1, 1]), [0, 0], "arc size does not match the torus rank"),
    ],
)
def test_a_zero_w_must_fit_the_representation_and_the_arc(rep, arc, w, message):
    # w = 0 has weight +infinity without an image order, but is still checked
    assert outcome(mu_from_order, 0, rep, w, arc) == ("raised", ValueError, message)


@pytest.mark.parametrize(
    "rep, arc, v, error",
    [
        (T2, Arc.one_ps([1, 1]), [0, 0], (ValueError, "v must be nonzero")),
        (sym_action(SL2, 1), identity_arc(2), [0, Fraction(0)], (ValueError, "v must be nonzero")),
        (T2, Arc.one_ps([1]), ONE, (ValueError, "arc size does not match the torus rank")),
        (
            T2,
            elementary_arc(2, 0, 1, t("t")),
            ONE,
            (ValueError, "TorusWeights representations act through diagonal arcs only"),
        ),
        (
            T2,
            Arc.diagonal_arc([t("t"), LaurentPoly.zero()]),
            ONE,
            (ValueError, "invalid arc: zero diagonal entry"),
        ),
        (
            T2,
            Arc.one_ps([1, 2]),
            [1],
            (ValueError, "vector length does not match the representation"),
        ),
        (
            sym_action(SL2, 2),
            identity_arc(3),
            [1, 0, 0],
            (ValueError, "arc size does not match the group"),
        ),
        (
            sym_action(GL2, 2),
            identity_arc(2),
            [1, 0],
            (ValueError, "vector length does not match the representation"),
        ),
        (
            sym_action(GL2, 1),
            Arc([[t("1"), t("t")], [t("1"), t("t")]]),
            ONE,
            (ValueError, "invalid arc: zero determinant"),
        ),
        (
            CANCELLING,
            identity_arc(2),
            ONE,
            (ValueError, "ord0 of an all-zero vector is undefined"),
        ),
        (
            sym_action(GL2, 1),
            identity_arc(2),
            [0.5, 0],
            (TypeError, "float coefficient 0.5; pass an int or a Fraction"),
        ),
        (
            "not a representation",
            identity_arc(2),
            ONE,
            (TypeError, "unknown representation type str"),
        ),
    ],
    ids=[
        "torus-zero-v",
        "matrix-zero-v",
        "torus-rank",
        "not-diagonal",
        "zero-diagonal-entry",
        "torus-length",
        "group-size",
        "matrix-length",
        "zero-determinant",
        "all-zero-image",
        "float-coordinate",
        "unknown-representation",
    ],
)
def test_errors_match_act(rep, arc, v, error):
    want = ("raised", *error)
    assert outcome(image_order, rep, arc, v) == want
    assert outcome(ref_image_order, rep, arc, v) == want


def test_mu_of_zero_w_is_the_infinity_object():
    assert mu_from_order(3, T2, [Fraction(0), 0], Arc.one_ps([1, 1])) is math.inf
    assert mu_from_order(3, sym_action(SL2, 1), [0, 0], identity_arc(2)) is math.inf
