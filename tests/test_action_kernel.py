"""Matrix actions at arcs, checked against plain copies of the code they
replaced: the image of a vector under an arc (now only its order, from
`image_order`) and `check_arc` evaluated every entry with `MultiPoly.subs`
once per power of ginv, `rep_weights` substituted a symbolic diagonal, and
`sym_action` expanded (g11 x + g21 y)^i (g12 x + g22 y)^(d-i)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import arc_product, elementary_arc, identity_arc

from stabkit.algebra import LaurentFrac, LaurentPoly, MultiPoly, ord0, parse_multi
from stabkit.groups import (
    INV_VAR,
    Arc,
    GroupPresentation,
    MatrixAction,
    check_arc,
    det_polynomial,
    diagonal_action,
    entry_variables,
    image_order,
    rep_weights,
    sym_action,
)

SL2 = GroupPresentation(2, "special-linear")
GL2 = GroupPresentation(2, "general-linear")
TORI = {k: GroupPresentation(k, "torus") for k in (1, 2, 3)}


# Reference copies of the code before one evaluator served the image of a
# vector and check_arc.  ref_check_arc evaluates the group relations; the
# check_arc it is compared with reads only the group's kind and det.
def ref_power(base, n):
    """base ** n by repeated product, from the constant 1 of base's ring."""
    out = base.constant(1) if isinstance(base, LaurentPoly) else base.constant(base.variables, 1)
    for _ in range(n):
        out = out * base
    return out


def ref_degree_in(poly, idx):
    return max((m[idx] for m in poly.terms), default=0)


def ref_coefficients_in(poly, idx):
    buckets = {}
    for m, c in poly.terms.items():
        rest = tuple(0 if i == idx else e for i, e in enumerate(m))
        buckets.setdefault(m[idx], {})[rest] = c
    return {k: MultiPoly(poly.variables, b) for k, b in buckets.items()}


def ref_det_powers(det, polys):
    top = max(ref_degree_in(p, len(p.variables) - 1) for p in polys)
    return [ref_power(det, k) for k in range(top + 1)]


def ref_cleared(poly, values, dpow):
    top = len(dpow) - 1
    acc = None
    for k, coeff in ref_coefficients_in(poly, len(poly.variables) - 1).items():
        piece = coeff.subs(values) * dpow[top - k]
        acc = piece if acc is None else acc + piece
    return acc


def ref_entry_values(matrix, inv):
    values = {f"g{i}{j}": e for i, row in enumerate(matrix, 1) for j, e in enumerate(row, 1)}
    values[INV_VAR] = inv
    return values


def ref_act(rep, arc, vector):
    if arc.size != rep.group.size:
        raise ValueError("arc size does not match the group")
    if len(vector) != rep.dim:
        raise ValueError("vector length does not match the representation")
    det = arc.det
    if det.is_zero():
        raise ValueError("invalid arc: zero determinant")
    values = ref_entry_values(arc.matrix, LaurentPoly.constant(1))
    dpow = ref_det_powers(det, [p for row in rep.matrix for p in row])
    out = []
    for i in range(rep.dim):
        acc = LaurentPoly.zero()
        for j, coord in enumerate(vector):
            c = Fraction(coord)
            entry = rep.matrix[i][j]
            if c == 0 or entry.is_zero():
                continue
            acc = acc + ref_cleared(entry, values, dpow).scale(c)
        out.append(LaurentFrac(acc, dpow[-1]))
    return out


def ref_check_arc(group, arc):
    if arc.size != group.size:
        raise ValueError("arc size does not match the group")
    det = arc.det
    if det.is_zero():
        return False
    values = ref_entry_values(arc.matrix, LaurentPoly.constant(1))
    rels = group.relations.generators
    dpow = ref_det_powers(det, rels)
    return all(ref_cleared(rel, values, dpow).is_zero() for rel in rels)


def ref_rep_weights(rep, m):
    if rep.group.size != m:
        raise ValueError("group size does not match m")
    dvars = [f"d{i}" for i in range(1, m + 1)]
    zero = MultiPoly.zero(dvars)
    diag = [
        [MultiPoly.var(dvars, d) if i == j else zero for j, d in enumerate(dvars)]
        for i in range(m)
    ]
    values = ref_entry_values(diag, MultiPoly.constant(dvars, 1))
    prod = MultiPoly(dvars, {(1,) * m: 1})
    dpow = ref_det_powers(prod, [p for row in rep.matrix for p in row])
    top = len(dpow) - 1
    weights = []
    for i in range(rep.dim):
        for j in range(rep.dim):
            entry = rep.matrix[i][j]
            if entry.is_zero():
                if i == j:  # a coordinate without a weight
                    raise ValueError("diagonal action entry is not a monomial; weights unavailable")
                continue
            cleared = ref_cleared(entry, values, dpow)
            if i != j:
                if not cleared.is_zero():
                    raise ValueError(
                        "action is not diagonal in the given basis; weights unavailable"
                    )
                continue
            if len(cleared.terms) != 1:
                raise ValueError("diagonal action entry is not a monomial; weights unavailable")
            (mono,) = cleared.terms
            weights.append(tuple(e - top for e in mono))
    return weights


def ref_sym_action(group, d):
    if group.size != 2:
        raise ValueError("symmetric-power helper is for 2x2 groups")
    if d < 1:
        raise ValueError("degree must be positive")
    gvars = list(group.variables)
    ring = gvars + ["x", "y"]

    def var(name):
        return MultiPoly.var(ring, name)

    gx = var("g11") * var("x") + var("g21") * var("y")
    gy = var("g12") * var("x") + var("g22") * var("y")
    xi, yi = ring.index("x"), ring.index("y")
    cols = []
    for i in range(d, -1, -1):
        image = ref_power(gx, i) * ref_power(gy, d - i)
        col = [MultiPoly.zero(gvars) for _ in range(d + 1)]
        for mono, coeff in image.terms.items():
            r = mono[xi]
            gpart = list(mono)
            gpart[xi] = gpart[yi] = 0
            col[d - r] = col[d - r] + MultiPoly(gvars, {tuple(gpart[: len(gvars)]): coeff})
        cols.append(col)
    return [[cols[j][i] for j in range(d + 1)] for i in range(d + 1)]


def ref_torus_generators(k):
    variables = entry_variables(k)
    gens = [
        MultiPoly.var(variables, f"g{i}{j}")
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if i != j
    ]
    unit = MultiPoly.var(variables, INV_VAR)
    for i in range(1, k + 1):
        unit = unit * MultiPoly.var(variables, f"g{i}{i}")
    return gens + [unit - 1]


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


small = st.integers(min_value=-2, max_value=2)
nonzero_small = small.filter(bool)
laurents = st.dictionaries(small, nonzero_small, min_size=1, max_size=2).map(LaurentPoly)
maybe_zero_laurents = st.one_of(st.just(LaurentPoly.zero()), laurents)


@st.composite
def drawn_arcs(draw, group):
    """Arcs as the falsifier draws them: products of t-power diagonals (of
    determinant 1 for special-linear groups) and elementary matrices with
    small Laurent entries; tori draw t-power diagonals only."""
    m = group.size
    arc = identity_arc(m)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if m >= 2 and not group.is_torus and draw(st.booleans()):
            i, j = draw(st.permutations(range(m)))[:2]
            arc = arc_product(arc, elementary_arc(m, i, j, draw(laurents)))
        else:
            exps = draw(st.lists(small, min_size=m, max_size=m))
            if group.kind == "special-linear":
                exps[-1] = -sum(exps[:-1])
            arc = arc_product(arc, Arc.one_ps(exps))
    return arc


@st.composite
def off_group_arcs(draw, group):
    """A drawn arc of the group made singular (a zero row), with its first
    row scaled by a Laurent polynomial (det != 1 on SL, mostly), or with a
    Laurent polynomial added off the diagonal (on a torus, mostly)."""
    m = group.size
    rows = [list(row) for row in draw(drawn_arcs(group)).matrix]
    how = draw(st.sampled_from(["singular", "scaled", "off-diagonal"]))
    if how == "singular":
        rows[draw(st.integers(0, m - 1))] = [LaurentPoly.zero()] * m
    elif how == "scaled" or m == 1:
        c = draw(laurents)
        rows[0] = [e * c for e in rows[0]]
    else:
        i, j = draw(st.permutations(range(m)))[:2]
        rows[i][j] = rows[i][j] + draw(laurents)
    return Arc(rows)


def free_arcs(m):
    """Any matrix of small Laurent polynomials, zero entries and zero
    determinants included."""
    row = st.lists(maybe_zero_laurents, min_size=m, max_size=m)
    return st.lists(row, min_size=m, max_size=m).map(Arc)


def arcs_for(group):
    return st.one_of(drawn_arcs(group), free_arcs(group.size))


def polys(group):
    n = len(group.variables)
    monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * n))
    terms = st.dictionaries(monos, nonzero_small, max_size=3)
    return terms.map(lambda t: MultiPoly(group.variables, t))


@st.composite
def random_actions(draw):
    """A matrix of small polynomials of the group ring, ginv included; it
    need not be a homomorphism, which neither image_order nor rep_weights
    check."""
    group = draw(st.sampled_from([SL2, GL2, *TORI.values()]))
    dim = draw(st.integers(min_value=1, max_value=3))
    entry = polys(group)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    return MatrixAction(group, rows)


def character(group, text):
    return MatrixAction(group, [[parse_multi(text, group.variables)]])


def named_actions():
    """Characters and the 2x2 matrices that are not diagonal or whose
    diagonal is not a monomial."""
    out = []
    for group in (SL2, GL2):
        out.append(character(group, "g11*g22 - g12*g21"))
        out.append(character(group, INV_VAR))
        out.append(character(group, "g11 + g22"))
        out.append(character(group, "g11*g22*ginv + 1"))
        out.append(character(group, "g11*g22*ginv - 1"))
        out.append(sym_action(group, 1))  # the standard matrix: not diagonal
    return out


diagonal_weights = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=k, max_size=k),
        min_size=1,
        max_size=3,
    )
)
diagonal_actions = diagonal_weights.map(lambda ws: diagonal_action(TORI[len(ws[0])], ws))
sym_actions = st.builds(
    sym_action, st.sampled_from([SL2, GL2]), st.integers(min_value=1, max_value=8)
)
actions = st.one_of(
    sym_actions, diagonal_actions, st.sampled_from(named_actions()), random_actions()
)


@st.composite
def action_cases(draw):
    """(action, arc, vector): vectors carry zeros and now and then the
    wrong length."""
    action = draw(actions)
    arc = draw(arcs_for(action.group))
    dim = action.dim + draw(st.sampled_from([0, 0, 0, 0, 1]))
    vector = [Fraction(c) for c in draw(st.lists(small, min_size=dim, max_size=dim))]
    return action, arc, vector


def ref_image_order(rep, arc, vector):
    if all(c == 0 for c in vector):
        raise ValueError("v must be nonzero")
    return ord0(ref_act(rep, arc, vector))


class TestImageOrder:
    @given(action_cases())
    @settings(max_examples=300, deadline=None)
    def test_order_matches_reference(self, case):
        action, arc, vector = case
        got = outcome(image_order, action, arc, vector)
        assert got == outcome(ref_image_order, action, arc, vector)
        assert isinstance(got, tuple) or type(got) is int

    @given(actions, st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_wrong_arc_size_is_refused_alike(self, action, m):
        arc = identity_arc(m)
        vector = [Fraction(1)] * action.dim
        want = outcome(ref_image_order, action, arc, vector)
        assert outcome(image_order, action, arc, vector) == want


CHECK_ARC_GROUPS = [
    GroupPresentation(m, kind)
    for kind in ("torus", "special-linear", "general-linear")
    for m in range(1, 5)
]


class TestCheckArc:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_check_arc_matches_reference(self, data):
        group = data.draw(st.sampled_from(CHECK_ARC_GROUPS))
        arc = data.draw(
            st.one_of(
                arcs_for(group),
                off_group_arcs(group),
                free_arcs(data.draw(st.integers(1, 4))),
            )
        )
        assert outcome(check_arc, group, arc) == outcome(ref_check_arc, group, arc)

    def test_each_way_out_of_a_group_is_refused_like_the_reference(self):
        t = LaurentPoly.t_power(1)
        one, zero = LaurentPoly.constant(1), LaurentPoly.zero()
        shear = elementary_arc(4, 0, 3, t)
        cases = [
            ("torus", Arc.one_ps([1, -2, 0, 3]), True),
            ("torus", arc_product(Arc.one_ps([1, -2, 0, 3]), shear), False),
            ("torus", Arc.diagonal_arc([t, one, zero, one]), False),
            ("special-linear", arc_product(Arc.one_ps([1, -2, 0, 1]), shear), True),
            ("special-linear", Arc.one_ps([1, -2, 0, 3]), False),
            ("special-linear", Arc.diagonal_arc([one, one, one, -one]), False),
            ("special-linear", arc_product(shear, Arc.diagonal_arc([one, one, zero, one])), False),
            ("general-linear", arc_product(Arc.one_ps([1, -2, 0, 3]), shear), True),
            ("general-linear", Arc.diagonal_arc([t, one, zero, one]), False),
        ]
        for kind, arc, inside in cases:
            group = GroupPresentation(4, kind)
            assert check_arc(group, arc) is inside
            assert ref_check_arc(group, arc) is inside


class TestRepWeights:
    @given(actions, st.integers(min_value=0, max_value=1))
    @settings(max_examples=300, deadline=None)
    def test_weights_match_reference(self, action, shift):
        m = action.group.size + shift
        got = outcome(rep_weights, action, m)
        assert got == outcome(ref_rep_weights, action, m)
        if not isinstance(got, tuple):
            assert all(type(e) is int for w in got for e in w)

    @given(diagonal_weights)
    @settings(max_examples=100, deadline=None)
    def test_diagonal_actions_give_back_their_weights(self, weights):
        k = len(weights[0])
        assert rep_weights(diagonal_action(TORI[k], weights), k) == [tuple(w) for w in weights]


class TestSymAction:
    @pytest.mark.parametrize("group", [SL2, GL2], ids=["SL2", "GL2"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matrix_matches_reference(self, group, d):
        got = sym_action(group, d)
        want = ref_sym_action(group, d)
        assert [list(row) for row in got.matrix] == want
        for row in got.matrix:
            for p in row:
                assert all(
                    (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)
                    for c in p.terms.values()
                )

    @pytest.mark.parametrize("group, d", [(TORI[1], 2), (TORI[3], 1), (SL2, 0), (GL2, -1)])
    def test_errors_match_reference(self, group, d):
        assert outcome(sym_action, group, d) == outcome(ref_sym_action, group, d)


@pytest.mark.parametrize("k", range(1, 10))
def test_torus_generators_match_reference(k):
    got = GroupPresentation(k, "torus").relations.generators
    want = ref_torus_generators(k)
    assert list(got) == want
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("kind", ["special-linear", "general-linear"])
def test_linear_group_generators_match_reference(kind, m):
    # the relations the SL and GL constructors wrote before they were built lazily
    variables = entry_variables(m)
    det = det_polynomial(m, variables)
    unit = MultiPoly.var(variables, INV_VAR) * det - 1
    want = [det - 1, unit] if kind == "special-linear" else [unit]
    got = GroupPresentation(m, kind).relations.generators
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]
