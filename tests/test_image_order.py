"""`image_order` reads ord0(arc.v) off t-orders; it is checked against a
copy of the `act` it replaced, which formed every coordinate of arc.v as a
`LaurentFrac` and took ord0 of the result, through `at_arc`, the term-dict
evaluator that the packed-integer one replaced.  Errors must match to the
message."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import arc_product, at_arc, elementary_arc, identity_arc

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
    det_polynomial,
    diagonal_action,
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
    from the top that `at_arc` returns instead of the terms of det^top."""
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
        nums, top = at_arc(rows, arc)
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
            elif isinstance(rep, MatrixAction) and arc.size != rep.group.size:
                assert got == ("raised", ValueError, "arc size does not match the group")
            elif len(w) != rep.dim:
                message = "vector length does not match the representation"
                assert got == ("raised", ValueError, message)
            else:
                assert got is math.inf
        else:
            want = outcome(ref_image_order, rep, arc, w)
            assert got == (want if isinstance(want, tuple) else want - ord_v)


GL1 = GroupPresentation(1, "general-linear")
GL3 = GroupPresentation(3, "general-linear")
TORI = {r: GroupPresentation(r, "torus") for r in (1, 2, 3)}

large = st.integers(min_value=-(10**6), max_value=10**6)
# a multiple of a large power of two: a lowest coefficient that 2^k divides
# would be read at the wrong order
two_adic = st.builds(
    lambda c, e: c << e,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=8, max_value=19),
)
large_coefficients = st.one_of(
    small,
    large,
    two_adic,
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=1000),
)
large_laurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3), large_coefficients.filter(bool), min_size=1, max_size=3
).map(LaurentPoly)
arc_entries = st.one_of(laurents, large_laurents, large_laurents)


def large_vectors(dim):
    nonzero = large_coefficients.filter(bool)
    coordinate = st.one_of(st.just(0), nonzero, nonzero, nonzero)
    return st.lists(coordinate, min_size=dim, max_size=dim)


def polys(group, exponents, coefficients):
    """Polynomials in the group ring, zero included, with ginv among the
    variables."""
    monos = st.tuples(*([exponents] * len(group.variables)))
    terms = st.dictionaries(monos, coefficients.filter(bool), max_size=3)
    return terms.map(lambda t: MultiPoly(group.variables, t))


@st.composite
def mixed_arcs(draw, m):
    """A diagonal arc of Laurent entries, now and then with a zero one,
    times up to two elementary factors."""
    diagonal = draw(st.lists(arc_entries, min_size=m, max_size=m))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        diagonal[draw(st.integers(min_value=0, max_value=m - 1))] = LaurentPoly.zero()
    arc = Arc.diagonal_arc(diagonal)
    for _ in range(draw(st.integers(min_value=0, max_value=2 if m > 1 else 0))):
        i, j = draw(st.permutations(range(m)))[:2]
        arc = arc_product(arc, elementary_arc(m, i, j, draw(arc_entries)))
    return arc


@st.composite
def packed_cases(draw):
    """Matrix actions of every shape `image_order` packs: diagonal torus
    actions with negative weights (ginv with top > 0), GL1 and GL2 matrices
    in which ginv occurs with Fraction coefficients, Sym^1..12, the GL3
    standard action and the trivial one, at rational arcs whose
    coefficients reach 10^6 and whose entries may be zero."""
    kind = draw(st.sampled_from(["torus", "gl1", "gl2", "sym", "gl3", "trivial"]))
    if kind == "torus":
        rank = draw(st.integers(min_value=1, max_value=3))
        weight = st.lists(st.integers(min_value=-3, max_value=3), min_size=rank, max_size=rank)
        action = diagonal_action(TORI[rank], draw(st.lists(weight, min_size=1, max_size=3)))
    elif kind in ("gl1", "gl2"):
        group = GL1 if kind == "gl1" else GL2
        dim = draw(st.integers(min_value=1, max_value=2))
        exponents = st.integers(min_value=0, max_value=3 if kind == "gl1" else 2)
        row = st.lists(polys(group, exponents, large_coefficients), min_size=dim, max_size=dim)
        action = MatrixAction(group, draw(st.lists(row, min_size=dim, max_size=dim)))
    elif kind == "sym":
        group = draw(st.sampled_from([SL2, GL2]))
        action = sym_action(group, draw(st.integers(min_value=1, max_value=12)))
    elif kind == "gl3":
        action = MatrixAction(
            GL3, [[MultiPoly.var(GL3.variables, f"g{i}{j}") for j in "123"] for i in "123"]
        )
    else:
        group = draw(st.sampled_from([GL1, SL2, GL3, TORI[2]]))
        action = MatrixAction(group, [[MultiPoly.constant(group.variables, 1)]])
    arc = draw(mixed_arcs(action.group.size))
    return action, arc, draw(large_vectors(action.dim))


@st.composite
def cancelling_cases(draw):
    """Arcs whose first-row entries agree in their low orders, b + t^s r,
    under actions made of differences of those entries: the image loses its
    low orders, and is zero when the two r agree."""
    ring = GL2.variables
    base = draw(large_laurents)
    shift = LaurentPoly.t_power(base.val + draw(st.integers(min_value=1, max_value=4)))
    tail = st.dictionaries(
        st.integers(min_value=0, max_value=2), large_coefficients.filter(bool), max_size=2
    ).map(LaurentPoly)
    r = draw(tail)
    again = r if draw(st.integers(min_value=0, max_value=3)) == 0 else draw(tail)
    first = [base + shift * r, base + shift * again]
    arc = Arc([first, draw(st.lists(large_laurents, min_size=2, max_size=2))])
    g11, g12, g21, g22, ginv = (MultiPoly.var(ring, name) for name in ring)
    factors = st.sampled_from([MultiPoly.constant(ring, 1), g21, g22, ginv, ginv * ginv])
    entry = st.builds(
        lambda c, f, square: (g11 - g12) * (g11 - g12 if square else f) * c,
        large_coefficients.filter(bool),
        factors,
        st.booleans(),
    )
    dim = draw(st.integers(min_value=1, max_value=2))
    rows = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    return MatrixAction(GL2, draw(rows)), arc, draw(large_vectors(dim))


class TestPackedAgainstTermDicts:
    """The packed-integer reading of matrix actions against `at_arc` on term
    dicts, through `ref_image_order`: same orders, same errors."""

    @given(packed_cases())
    @settings(max_examples=400, deadline=None)
    def test_matrix_actions(self, case):
        action, arc, v = case
        got = outcome(image_order, action, arc, v)
        assert got == outcome(ref_image_order, action, arc, v)
        assert isinstance(got, tuple) or type(got) is int

    @given(cancelling_cases())
    @settings(max_examples=300, deadline=None)
    def test_low_orders_that_cancel(self, case):
        action, arc, v = case
        assert outcome(image_order, action, arc, v) == outcome(ref_image_order, action, arc, v)

    @pytest.mark.parametrize(
        "entry, arc, order",
        [
            ("g11 - g22", [["1 + t^3", "0"], ["0", "1 + 2*t^3"]], 3),
            ("g11 - g22", [["1 + t^3", "0"], ["0", "1 + t^3"]], None),
            ("g11 - g22", [["t^-1 + 1048576*t", "0"], ["0", "t^-1"]], 1),
            ("1000000*g11 - 999999*g22", [["1/3 + t", "0"], ["0", "1000000/2999997"]], 1),
            ("g11*ginv - g22*ginv", [["t^-2 + t^4", "0"], ["0", "t^-2 + 7/5*t^4"]], 8),
            ("g11^3 - 3*g11^2*g22 + 3*g11*g22^2 - g22^3", [["1 + t", "0"], ["0", "1"]], 3),
        ],
        ids=["orders-0-cancel", "all-zero", "two-adic", "large-rational", "ginv", "cube"],
    )
    def test_known_cancellations(self, entry, arc, order):
        action = MatrixAction(GL2, [[parse_multi(entry, GL2.variables)]])
        arc = Arc([[t(e) for e in row] for row in arc])
        if order is None:
            want = ("raised", ValueError, "ord0 of an all-zero vector is undefined")
        else:
            want = order
        assert outcome(image_order, action, arc, [1]) == want
        assert outcome(ref_image_order, action, arc, [1]) == want


@st.composite
def constant_cases(draw):
    """Actions whose entries are rational constants times one power ginv^e,
    constants for e = 0, zero entries, zero rows and singular matrices
    included, with their twins: each entry times det * ginv, the same
    function of the arc, which the packed reading evaluates in full."""
    group = draw(st.sampled_from([GL1, SL2, GL2, GL3, TORI[2]]))
    ring = group.variables
    dim = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1]), large_coefficients)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    power = MultiPoly.var(ring, INV_VAR, draw(st.sampled_from([0, 0, 1, 2])))
    action = MatrixAction(group, [[MultiPoly.constant(ring, c) * power for c in row] for row in rows])
    one = det_polynomial(group.size, ring) * MultiPoly.var(ring, INV_VAR)
    twin = MatrixAction(group, [[p * one for p in row] for row in action.matrix])
    arcs = mixed_arcs(group.size)
    arc = draw(st.one_of(arcs, arcs, repeated_row_arcs(group.size)))
    return action, twin, arc, draw(vectors(dim))


def repeated_row_arcs(m):
    """Arcs of size m with zero determinant: one row m times, or for m = 1
    the zero entry."""
    if m == 1:
        return st.just(Arc([[LaurentPoly.zero()]]))
    return st.lists(laurents, min_size=m, max_size=m).map(lambda row: Arc([row] * m))


class TestConstantActions:
    """An action with no factor on any term reads its order off det alone,
    without packing the arc: against its twin on the packed reading, same
    orders, same errors."""

    @given(constant_cases())
    @settings(max_examples=400, deadline=None)
    def test_against_the_packed_reading(self, case):
        action, twin, arc, v = case
        got = outcome(image_order, action, arc, v)
        assert got == outcome(image_order, twin, arc, v)
        assert got == outcome(ref_image_order, action, arc, v)
        assert isinstance(got, tuple) or type(got) is int

    def test_the_trivial_action_has_order_zero_without_reading_the_arc(self):
        # an SL2 arc as the falsifier draws them; no slot means that no power
        # of an arc entry or of det is built
        arc = arc_product(Arc.one_ps([2, -2]), elementary_arc(2, 0, 1, t("3*t^-2 + t")))
        assert image_order(TRIVIAL_SL2, arc, [Fraction(-3, 2)]) == 0
        assert TRIVIAL_SL2._packed[3] == ()
        twisted = MatrixAction(GL2, [[parse_multi("2*ginv", GL2.variables)]])
        assert image_order(twisted, Arc.one_ps([3, 1]), [1]) == -4
        for arc, v, message in [
            (identity_arc(3), [1], "arc size does not match the group"),
            (identity_arc(2), [1, 1], "vector length does not match the representation"),
            (Arc([[t("1"), t("t")], [t("1"), t("t")]]), [1], "invalid arc: zero determinant"),
            (identity_arc(2), [0], "v must be nonzero"),
        ]:
            assert outcome(image_order, TRIVIAL_SL2, arc, v) == ("raised", ValueError, message)
        zero = MatrixAction(SL2, [[parse_multi(s, SL2.variables) for s in ("1", "-1")]] * 2)
        assert outcome(image_order, zero, identity_arc(2), [1, 1]) == (
            "raised",
            ValueError,
            "ord0 of an all-zero vector is undefined",
        )


T2 = TorusWeights([(1, -1), (0, 2)])
ONE = [Fraction(1), Fraction(1)]
TRIVIAL_SL2 = MatrixAction(SL2, [[parse_multi("1", SL2.variables)]])

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
        (TRIVIAL_SL2, Arc.one_ps([1, 0, -1]), [0], "arc size does not match the group"),
        (sym_action(SL2, 2), Arc.one_ps([1]), [0, 0, 0], "arc size does not match the group"),
    ],
)
def test_a_zero_w_must_fit_the_representation_and_the_arc(rep, arc, w, message):
    # w = 0 has weight +infinity without an image order, but is still checked
    assert outcome(mu_from_order, 0, rep, w, arc) == ("raised", ValueError, message)


def test_a_zero_w_is_checked_as_a_nonzero_one_is():
    arc = Arc.one_ps([1, 0, -1])
    want = ("raised", ValueError, "arc size does not match the group")
    assert outcome(mu_from_order, 0, TRIVIAL_SL2, [0], arc) == want
    assert outcome(mu_from_order, 0, TRIVIAL_SL2, [1], arc) == want


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
