"""Group presentations, representations, arcs, and arc weights."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import arc_norm, arc_product, elementary_arc, identity_arc

from stabkit import groups
from stabkit.algebra import Ideal, LaurentPoly, MultiPoly, parse_laurent, parse_multi
from stabkit.groups import (
    INV_VAR,
    Arc,
    GroupPresentation,
    MatrixAction,
    TorusWeights,
    arcs_equivalent,
    check_action,
    check_arc,
    deg_of_rep,
    det_polynomial,
    diagonal_action,
    entry_variables,
    image_order,
    mu_from_order,
    mu_weight,
    rep_weights,
    sym_action,
)
from stabkit.pairs import point_in_hull

T1 = GroupPresentation(1, "torus")
T2 = GroupPresentation(2, "torus")
SL2 = GroupPresentation(2, "special-linear")
GL2 = GroupPresentation(2, "general-linear")

KINDS = ("torus", "special-linear", "general-linear")


def sym_gl2_weights(d: int) -> TorusWeights:
    """Torus weights of Sym^d of the standard GL_2 action, basis x^d, ..., y^d."""
    return TorusWeights([(i, d - i) for i in range(d, -1, -1)])


def leibniz_det(ring, k: int) -> MultiPoly:
    """Generic k*k determinant as a signed sum over permutations."""
    out = MultiPoly.zero(ring)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
        term = MultiPoly.constant(ring, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * MultiPoly.var(ring, f"g{i + 1}{j + 1}")
        out = out + term
    return out


def cofactor_rational_det(matrix) -> Fraction:
    """Determinant of a rational matrix by cofactor expansion along the
    first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    out = Fraction(0)
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        out += (-1) ** j * entry * cofactor_rational_det(minor)
    return out


def cofactor_det(ring, k: int) -> MultiPoly:
    """Generic k*k determinant by cofactor expansion along the first row, the
    way det_polynomial built it before it wrote the Leibniz terms directly."""

    def det(matrix):
        if len(matrix) == 1:
            return matrix[0][0]
        out = MultiPoly.zero(ring)
        for j, entry in enumerate(matrix[0]):
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            term = entry * det(minor)
            out = out - term if j % 2 else out + term
        return out

    return det(
        [[MultiPoly.var(ring, f"g{i}{j}") for j in range(1, k + 1)] for i in range(1, k + 1)]
    )


small_exps = st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2)


def one_ps(*exps):
    return Arc.one_ps(exps)


class TestPresentations:
    def test_variable_layout(self):
        assert entry_variables(2) == ["g11", "g12", "g21", "g22", INV_VAR]
        assert T2.variables == ("g11", "g12", "g21", "g22", INV_VAR)
        assert GL2.variables == ("g11", "g12", "g21", "g22", INV_VAR)

    def test_det_polynomial(self):
        ring = entry_variables(2)
        assert det_polynomial(2, ring) == parse_multi("g11*g22 - g12*g21", ring)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_det_polynomial_is_the_cofactor_determinant_term_for_term(self, k):
        ring = entry_variables(k)
        got = det_polynomial(k, ring)
        assert got == leibniz_det(ring, k)
        assert list(got.terms.items()) == list(cofactor_det(ring, k).terms.items())
        assert all(type(c) is int for c in got.terms.values())

    def test_det_polynomial_in_a_reordered_larger_ring(self):
        ring = ["z", "g22", "g21", INV_VAR, "g12", "g11"]
        assert det_polynomial(2, ring) == parse_multi("g11*g22 - g12*g21", ring)

    def test_flags(self):
        assert T2.is_torus and T2.rank == 2
        assert not SL2.is_torus
        with pytest.raises(ValueError):
            SL2.rank

    def test_random_points_satisfy_relations(self):
        rng = random.Random(7)
        for kind, m in itertools.product(KINDS, [1, 2, 3]):
            group = GroupPresentation(m, kind)
            det = det_polynomial(m, entry_variables(m)).extend(group.variables)
            for _ in range(5):
                point = group.random_point(rng)
                values = {f"g{i + 1}{j + 1}": point[i][j] for i in range(m) for j in range(m)}
                values[INV_VAR] = 1 / det.subs(values | {INV_VAR: Fraction(0)})
                for rel in group.relations.generators:
                    assert rel.subs(values) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_torus_relations_generate_the_determinant_ideal(self, k):
        ring = entry_variables(k)
        off_diagonal = [
            MultiPoly.var(ring, f"g{i}{j}")
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if i != j
        ]
        unit = MultiPoly.var(ring, INV_VAR) * leibniz_det(ring, k) - 1
        assert GroupPresentation(k, "torus").relations == Ideal(ring, off_diagonal + [unit])

    def test_rank_nine_torus_has_a_two_term_unit_relation(self):
        gens = GroupPresentation(9, "torus").relations.generators
        assert len(gens) == 73
        (unit,) = [g for g in gens if g.uses_variable(INV_VAR)]
        assert len(unit.terms) == 2

    def test_only_relations_build_the_determinant_once_per_group(self, monkeypatch):
        calls = []
        original = groups.det_polynomial

        def counting(m, variables):
            calls.append(m)
            return original(m, variables)

        monkeypatch.setattr(groups, "det_polynomial", counting)
        built = [GroupPresentation(m, kind) for kind in KINDS for m in (3, 9)]
        assert calls == []
        for kind, expected in (("torus", 0), ("special-linear", 1), ("general-linear", 1)):
            group = GroupPresentation(3, kind)
            calls.clear()
            assert group.relations is group.relations
            assert len(calls) == expected
        assert all(group.variables == tuple(entry_variables(group.size)) for group in built)

    def test_equality_and_hash_read_size_and_kind(self, monkeypatch):
        def no_groebner(*args, **kwargs):
            raise AssertionError("Groebner basis computed")

        monkeypatch.setattr(Ideal, "__eq__", no_groebner)
        monkeypatch.setattr(Ideal, "__hash__", no_groebner)
        for kind in KINDS:
            group = GroupPresentation(3, kind)
            assert group.relations.generators
            assert group == GroupPresentation(3, kind)
            assert hash(group) == hash(GroupPresentation(3, kind))
            assert group != GroupPresentation(2, kind)
            assert group.kind == kind and group.size == 3
        assert len({GroupPresentation(m, kind) for kind in KINDS for m in (1, 2, 1)}) == 6

    @pytest.mark.parametrize(
        "size, kind, message",
        [
            (0, "torus", "matrix size must be positive"),
            (10, "special-linear", "matrix size above 9 would make entry names ambiguous"),
            (2, "unitary", "unknown group kind 'unitary'"),
        ],
    )
    def test_bad_groups_are_refused_at_construction(self, size, kind, message):
        with pytest.raises(ValueError, match=message):
            GroupPresentation(size, kind)

    def test_torus_points_are_diagonal(self):
        point = T2.random_point(random.Random(3))
        assert point[0][1] == 0 and point[1][0] == 0


class TestRepresentations:
    def test_torus_weights_validation(self):
        with pytest.raises(ValueError):
            TorusWeights([])
        with pytest.raises(ValueError):
            TorusWeights([(1,), (1, 2)])
        ws = TorusWeights([(1, 0), (0, 1)])
        assert ws.dim == 2 and ws.rank == 2

    @pytest.mark.parametrize(
        "bad", [Fraction(5, 2), 2.9, 2.0, "2"], ids=["5/2", "2.9", "2.0", "str"]
    )
    def test_inexact_weights_are_refused_not_truncated(self, bad):
        with pytest.raises(TypeError, match=r"is not an int"):
            TorusWeights([(1, bad)])

    def test_integral_weight_types_are_ints(self):
        ws = TorusWeights([(True, Fraction(3).numerator), (-1, 0)])
        assert ws.weights == ((1, 3), (-1, 0))
        assert all(type(e) is int for w in ws.weights for e in w)

    def test_matrix_action_ring_discipline(self):
        wrong = parse_multi("x", ("x",))
        with pytest.raises(ValueError):
            MatrixAction(GL2, [[wrong]])

    def test_spot_check_rejects_non_homomorphism(self):
        bad = MatrixAction(GL2, [[parse_multi("g11 + 1", GL2.variables)]])
        assert check_action(bad) is False

    def test_spot_check_rejects_a_moved_identity(self):
        # rho(ab) = rho(a) rho(b) holds, but rho(1) = diag(1, 0) is singular
        rows = [["g11", "0"], ["0", "0"]]
        bad = MatrixAction(T2, [[parse_multi(s, T2.variables) for s in row] for row in rows])
        assert check_action(bad) is False

    def test_determinant_character_passes(self):
        ring = GL2.variables
        det = parse_multi("g11*g22 - g12*g21", ring)
        rep = MatrixAction(GL2, [[det]])
        assert rep_weights(rep, 2) == [(1, 1)]
        assert deg_of_rep(rep, 2) == 2

    def test_inverse_determinant_character(self):
        rep = MatrixAction(GL2, [[parse_multi(INV_VAR, GL2.variables)]])
        assert rep_weights(rep, 2) == [(-1, -1)]
        with pytest.raises(ValueError):
            deg_of_rep(rep, 2)

    def test_sym_weights_match_matrix_form(self):
        for d in (1, 2, 3, 4):
            assert rep_weights(sym_action(GL2, d), 2) == list(sym_gl2_weights(d).weights)
            assert deg_of_rep(sym_gl2_weights(d), 2) == d

    def test_diagonal_action_recovers_weights(self):
        ws = [(2, -1), (0, 3), (-2, -2)]
        rep = diagonal_action(T2, ws)
        assert rep_weights(rep, 2) == ws
        with pytest.raises(ValueError):
            diagonal_action(SL2, ws)
        with pytest.raises(ValueError):
            diagonal_action(T2, [(1,)])

    def test_zero_diagonal_entry_is_refused(self):
        # diag(g11, 0, g22) leaves its second coordinate without a weight
        rows = [["g11", "0", "0"], ["0", "0", "0"], ["0", "0", "g22"]]
        action = MatrixAction(T2, [[parse_multi(s, T2.variables) for s in row] for row in rows])
        with pytest.raises(ValueError, match="diagonal action entry is not a monomial"):
            rep_weights(action, 2)
        with pytest.raises(ValueError, match="diagonal action entry is not a monomial"):
            deg_of_rep(action, 2)

    def test_evaluate_rational_matches_substitution(self):
        rep = sym_action(GL2, 2)
        point = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
        out = rep.evaluate_rational(point)
        # (2x)^2, (2x)(x + 3y), (x + 3y)^2 in the basis x^2, xy, y^2
        assert out[0] == [4, 2, 1]
        assert out[1] == [0, 6, 6]
        assert out[2] == [0, 0, 9]


def library_actions() -> list[MatrixAction]:
    """The actions the library writes itself: Sym^d, diagonal and trivial."""
    actions = [sym_action(group, d) for group in (SL2, GL2) for d in range(1, 9)]
    negative = {1: [(-2,), (3,)], 2: [(2, -1), (0, 3), (-2, -2)], 3: [(1, -1, 0), (-3, 2, 1)]}
    for k, weights in negative.items():
        actions.append(diagonal_action(GroupPresentation(k, "torus"), weights))
    actions.append(diagonal_action(T2, [(0, 0)]))
    actions += [MatrixAction(group, [[parse_multi("1", group.variables)]]) for group in (SL2, GL2)]
    return actions


class TestCheckAction:
    def test_library_actions_are_homomorphisms(self):
        assert all(check_action(action) for action in library_actions())

    def test_construction_samples_no_group_point(self, monkeypatch):
        def refuse(self, rng):
            raise AssertionError("an action was evaluated at a group point")

        monkeypatch.setattr(GroupPresentation, "random_point", refuse)
        assert len(library_actions()) == 22
        with pytest.raises(AssertionError):
            check_action(sym_action(GL2, 1))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rational_determinant_matches_cofactor_expansion(self, m):
        rng = random.Random(m)
        for _ in range(60):
            mat = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
                for _ in range(m)
            ]
            if rng.random() < 0.3:  # a repeated row: singular
                mat[-1] = list(mat[0])
            assert groups._eliminate(mat) == cofactor_rational_det(mat)

    @pytest.mark.parametrize("kind", ["general-linear", "special-linear", "torus"])
    def test_large_matrix_actions_are_checked_without_cofactor_expansion(self, kind, monkeypatch):
        """Every determinant of an 8x8 group point is one elimination, never
        an 8!-term expansion."""
        sizes = []
        eliminate = groups._eliminate
        monkeypatch.setattr(
            groups, "_eliminate", lambda a, b=None: sizes.append(len(a)) or eliminate(a, b)
        )
        group = GroupPresentation(8, kind)
        entries = [
            [MultiPoly.var(group.variables, f"g{i}{j}") for j in range(1, 9)] for i in range(1, 9)
        ]
        standard = MatrixAction(group, entries)
        assert check_action(standard)
        assert not check_action(MatrixAction(group, [[entries[0][0] + 1]]))
        assert set(sizes) == {8}


class TestSharedActions:
    def test_equal_groups_share_one_sym_action(self):
        a = GroupPresentation(2, "special-linear")
        b = GroupPresentation(2, "special-linear")
        for d in (1, 3, 8):
            assert sym_action(a, d) is sym_action(b, d)
        assert sym_action(a, 2) is not sym_action(GL2, 2)
        assert sym_action(a, 2) is not sym_action(a, 3)

    def test_degree_equal_to_an_int_is_not_served_from_the_memo(self):
        sym_action(SL2, 2)
        with pytest.raises(TypeError):
            sym_action(SL2, 2.0)

    @pytest.mark.parametrize(
        "group, rows, message",
        [
            # diag(t, 1/t) conjugated by [[1, 1], [0, 1]]
            (T1, [["g11", "ginv - g11"], ["0", "ginv"]], "action is not diagonal in the given basis"),
            (GL2, [["g11 + g22", "0"], ["0", "g22"]], "diagonal action entry is not a monomial"),
        ],
        ids=["off-diagonal", "binomial"],
    )
    def test_refused_weights_are_refused_on_every_call(self, group, rows, message):
        ring = group.variables
        action = MatrixAction(group, [[parse_multi(e, ring) for e in row] for row in rows])
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                rep_weights(action, group.size)

    def test_kept_weights_are_returned_as_a_fresh_list(self):
        action = diagonal_action(T2, [(1, 0), (0, 2)])
        rep_weights(action, 2).append((9, 9))
        assert rep_weights(action, 2) == [(1, 0), (0, 2)]
        with pytest.raises(ValueError, match="group size does not match m"):
            rep_weights(action, 3)


class TestArcs:
    def test_constructors(self):
        assert identity_arc(2).is_diagonal()
        assert one_ps(1, -1).diagonal() == [parse_laurent("t"), parse_laurent("t^-1")]
        el = elementary_arc(2, 0, 1, parse_laurent("t"))
        assert el.det == LaurentPoly.constant(1)
        with pytest.raises(ValueError):
            elementary_arc(2, 1, 1, parse_laurent("t"))

    @pytest.mark.parametrize("bad", [Fraction(5, 2), 2.9, 2.0], ids=["5/2", "2.9", "2.0"])
    def test_inexact_one_ps_exponents_are_refused(self, bad):
        with pytest.raises(TypeError, match=r"is not an int"):
            Arc.one_ps([1, bad])

    def test_product_and_det(self):
        a = one_ps(1, -1)
        b = elementary_arc(2, 0, 1, parse_laurent("1 + t"))
        ab = arc_product(a, b)
        assert ab.matrix[0][1] == parse_laurent("t + t^2")
        assert ab.det == a.det * b.det

    def test_check_arc(self):
        assert check_arc(SL2, one_ps(1, -1))
        assert not check_arc(SL2, one_ps(1, 1))
        assert check_arc(GL2, one_ps(1, 1))
        assert check_arc(SL2, elementary_arc(2, 0, 1, parse_laurent("t^-2")))
        assert not check_arc(GL2, Arc.diagonal_arc([parse_laurent("t"), LaurentPoly.zero()]))

    def test_equivalence_ignores_unit_factors(self):
        a = one_ps(1, -1)
        unit = Arc.diagonal_arc([parse_laurent("1 + t"), parse_laurent("1 - t^2")])
        assert arcs_equivalent(a, arc_product(a, unit))
        assert arcs_equivalent(unit, identity_arc(2))

    def test_equivalence_separates_cocharacters(self):
        assert not arcs_equivalent(one_ps(1, -1), identity_arc(2))
        assert not arcs_equivalent(one_ps(1, 0), one_ps(0, 1))

    def test_equivalence_rejects_singular(self):
        sing = Arc.diagonal_arc([LaurentPoly.zero(), parse_laurent("t")])
        with pytest.raises(ValueError):
            arcs_equivalent(sing, identity_arc(2))

    @given(small_exps, small_exps)
    @settings(max_examples=30, deadline=None)
    def test_equivalence_of_one_ps_is_equality(self, e1, e2):
        assert arcs_equivalent(one_ps(*e1), one_ps(*e2)) == (e1 == e2)


class TestActionAndWeights:
    def test_torus_image_order(self):
        rep = TorusWeights([(1, 0), (-2, 1)])
        arc = one_ps(3, 1)
        assert image_order(rep, arc, [Fraction(1), Fraction(0)]) == 3
        assert image_order(rep, arc, [Fraction(0), Fraction(2)]) == -5
        assert image_order(rep, arc, [Fraction(1), Fraction(2)]) == -5

    def test_zero_coordinates_do_not_count(self):
        rep = TorusWeights([(-1, 0), (0, 1)])
        assert image_order(rep, one_ps(1, 1), [Fraction(0), Fraction(5)]) == 1

    def test_matrix_order_agrees_with_torus_on_diagonal_arcs(self):
        d = 3
        mat = sym_action(GL2, d)
        tor = sym_gl2_weights(d)
        arc = one_ps(2, -1)
        for v in ([1, 0, -2, 1], [0, 0, 0, 1], [0, 3, 0, 0]):
            v = [Fraction(c) for c in v]
            assert image_order(mat, arc, v) == image_order(tor, arc, v)

    def test_unipotent_arc_mixes_coordinates(self):
        rep = sym_action(GL2, 1)
        uni = elementary_arc(2, 0, 1, parse_laurent("t"))
        # y -> y + t*x: the image (t, 1) has order 0, and x alone stays at 0
        assert image_order(rep, uni, [Fraction(0), Fraction(1)]) == 0
        assert image_order(rep, arc_product(uni, one_ps(1, 1)), [Fraction(1), Fraction(0)]) == 1

    @pytest.mark.parametrize(
        "rep",
        [TorusWeights([(1,), (2,)]), diagonal_action(GroupPresentation(1, "torus"), [(1,), (2,)])],
        ids=["weights", "matrix"],
    )
    def test_float_coordinates_are_refused_on_every_representation(self, rep):
        arc = one_ps(1)
        message = r"^float coefficient 0\.[01]; pass an int or a Fraction$"
        calls = [
            lambda: image_order(rep, arc, [0.1, 0]),
            lambda: image_order(rep, arc, [1, 0.1]),
            lambda: image_order(rep, arc, [0.0, 0]),
            lambda: mu_weight(rep, rep, [0.1, 0], [1, 0], arc),
            lambda: mu_weight(rep, rep, [0.0, 0], [1, 0], arc),
            lambda: mu_weight(rep, rep, [1, 0], [0.1, 0], arc),
            lambda: mu_weight(rep, rep, [1, 0], [0, 0.1], arc),
            lambda: mu_weight(rep, rep, [1, 0], [0.0, 0], arc),
            lambda: mu_from_order(0, rep, [0.1, 0], arc),
            lambda: mu_from_order(0, rep, [0.0, 0], arc),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call()
        assert image_order(rep, arc, [Fraction(1, 10), 0]) == 1
        assert image_order(rep, arc, [0, "1/3"]) == 2

    def test_mu_conventions(self):
        rep = TorusWeights([(1,)])
        arc = one_ps(1)
        assert mu_weight(rep, rep, [Fraction(1)], [Fraction(0)], arc) == math.inf
        with pytest.raises(ValueError):
            mu_weight(rep, rep, [Fraction(0)], [Fraction(1)], arc)

    @given(small_exps)
    @settings(max_examples=30, deadline=None)
    def test_mu_matches_support_minima(self, exps):
        rep_v = TorusWeights([(2, 0), (0, 1)])
        rep_w = TorusWeights([(1, 1), (-1, 2), (0, 0)])
        v = [Fraction(1), Fraction(-1)]
        w = [Fraction(0), Fraction(3), Fraction(1)]
        arc = one_ps(*exps)
        lo_v = min(sum(a * e for a, e in zip(exps, chi)) for chi in [(2, 0), (0, 1)])
        lo_w = min(sum(a * e for a, e in zip(exps, chi)) for chi in [(-1, 2), (0, 0)])
        assert mu_weight(rep_v, rep_w, v, w, arc) == lo_w - lo_v

    @given(small_exps)
    @settings(max_examples=30, deadline=None)
    def test_mu_invariant_under_unit_perturbation(self, exps):
        rep = sym_gl2_weights(4)
        v = [Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        w = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
        plain = one_ps(*exps)
        unit = Arc.diagonal_arc(
            [parse_laurent("1 + t") * LaurentPoly.t_power(exps[0]),
             parse_laurent("1 - t") * LaurentPoly.t_power(exps[1])]
        )
        assert mu_weight(rep, rep, v, w, plain) == mu_weight(rep, rep, v, w, unit)

    def test_norm_goldens(self):
        rep = sym_action(GL2, 4)
        v = [Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        assert arc_norm(rep, v, one_ps(1, -1)) == 4
        assert arc_norm(rep, v, identity_arc(2)) == 0
        uni = elementary_arc(2, 0, 1, parse_laurent("t"))
        assert arc_norm(rep, v, uni) == 0

    @given(small_exps)
    @settings(max_examples=30, deadline=None)
    def test_norm_nonnegative(self, exps):
        rep = sym_gl2_weights(3)
        v = [Fraction(1), Fraction(0), Fraction(0), Fraction(2)]
        assert arc_norm(rep, v, one_ps(*exps)) >= 0


class TestHulls:
    def test_point_in_hull(self):
        gens = [(0, 0), (4, 0), (0, 4)]
        assert point_in_hull((1, 1), gens)
        assert point_in_hull((2, 2), gens)
        assert not point_in_hull((3, 3), gens)
        assert not point_in_hull((1,), [])
