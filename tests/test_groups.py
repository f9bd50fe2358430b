"""Group presentations, representations, arcs, and arc weights."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import LaurentPoly, parse_laurent, parse_multi
from stabkit.groups import (
    INV_VAR,
    Arc,
    GroupPresentation,
    MatrixAction,
    TorusWeights,
    act,
    arc_norm,
    arcs_equivalent,
    check_arc,
    deg_of_rep,
    det_polynomial,
    diagonal_action,
    entry_variables,
    mu_weight,
    point_in_hull,
    rep_weights,
    sym_action,
)

T2 = GroupPresentation.torus(2)
SL2 = GroupPresentation.special_linear(2)
GL2 = GroupPresentation.general_linear(2)

def sym_gl2_weights(d: int) -> TorusWeights:
    """Torus weights of Sym^d of the standard GL_2 action, basis x^d, ..., y^d."""
    return TorusWeights([(i, d - i) for i in range(d, -1, -1)])


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

    def test_flags(self):
        assert T2.is_torus and T2.rank == 2
        assert not SL2.is_torus
        with pytest.raises(ValueError):
            SL2.rank

    def test_random_points_satisfy_relations(self):
        rng = random.Random(7)
        for group in (T2, SL2, GL2):
            for _ in range(5):
                point = group.random_point(rng)
                m = group.size
                values = {f"g{i + 1}{j + 1}": point[i][j] for i in range(m) for j in range(m)}
                det = det_polynomial(m, entry_variables(m)).extend(group.variables)
                values[INV_VAR] = 1 / det.evaluate(values | {INV_VAR: Fraction(0)})
                for rel in group.relations.generators:
                    assert rel.evaluate(values) == 0

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

    def test_matrix_action_ring_discipline(self):
        wrong = parse_multi("x", ("x",))
        with pytest.raises(ValueError):
            MatrixAction(GL2, [[wrong]])

    def test_spot_check_rejects_non_homomorphism(self):
        ring = GL2.variables
        bad = parse_multi("g11 + 1", ring)
        with pytest.raises(ValueError):
            MatrixAction(GL2, [[bad]])

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

    def test_evaluate_rational_matches_substitution(self):
        rep = sym_action(GL2, 2)
        point = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
        out = rep.evaluate_rational(point)
        # (2x)^2, (2x)(x + 3y), (x + 3y)^2 in the basis x^2, xy, y^2
        assert out[0] == [4, 2, 1]
        assert out[1] == [0, 6, 6]
        assert out[2] == [0, 0, 9]


class TestArcs:
    def test_constructors(self):
        assert Arc.identity(2).is_diagonal()
        assert one_ps(1, -1).diagonal() == [parse_laurent("t"), parse_laurent("t^-1")]
        el = Arc.elementary(2, 0, 1, parse_laurent("t"))
        assert el.det == LaurentPoly.constant(1)
        with pytest.raises(ValueError):
            Arc.elementary(2, 1, 1, parse_laurent("t"))

    def test_product_and_det(self):
        a = one_ps(1, -1)
        b = Arc.elementary(2, 0, 1, parse_laurent("1 + t"))
        ab = a @ b
        assert ab.matrix[0][1] == parse_laurent("t + t^2")
        assert ab.det == a.det * b.det

    def test_check_arc(self):
        assert check_arc(SL2, one_ps(1, -1))
        assert not check_arc(SL2, one_ps(1, 1))
        assert check_arc(GL2, one_ps(1, 1))
        assert check_arc(SL2, Arc.elementary(2, 0, 1, parse_laurent("t^-2")))
        assert not check_arc(GL2, Arc.diagonal_arc([parse_laurent("t"), LaurentPoly.zero()]))

    def test_equivalence_ignores_unit_factors(self):
        a = one_ps(1, -1)
        unit = Arc.diagonal_arc([parse_laurent("1 + t"), parse_laurent("1 - t^2")])
        assert arcs_equivalent(a, a @ unit)
        assert arcs_equivalent(unit, Arc.identity(2))

    def test_equivalence_separates_cocharacters(self):
        assert not arcs_equivalent(one_ps(1, -1), Arc.identity(2))
        assert not arcs_equivalent(one_ps(1, 0), one_ps(0, 1))

    def test_equivalence_rejects_singular(self):
        sing = Arc.diagonal_arc([LaurentPoly.zero(), parse_laurent("t")])
        with pytest.raises(ValueError):
            arcs_equivalent(sing, Arc.identity(2))

    @given(small_exps, small_exps)
    @settings(max_examples=30, deadline=None)
    def test_equivalence_of_one_ps_is_equality(self, e1, e2):
        assert arcs_equivalent(one_ps(*e1), one_ps(*e2)) == (e1 == e2)


class TestActionAndWeights:
    def test_torus_act_valuations(self):
        rep = TorusWeights([(1, 0), (-2, 1)])
        out = act(rep, one_ps(3, 1), [Fraction(1), Fraction(2)])
        assert [e.val for e in out] == [3, -5]

    def test_act_zero_coordinates_stay_zero(self):
        rep = TorusWeights([(1, 0), (0, 1)])
        out = act(rep, one_ps(1, 1), [Fraction(0), Fraction(5)])
        assert out[0].is_zero() and out[1].val == 1

    def test_matrix_act_agrees_with_torus_on_diagonal_arcs(self):
        d = 3
        mat = sym_action(GL2, d)
        tor = sym_gl2_weights(d)
        v = [Fraction(1), Fraction(0), Fraction(-2), Fraction(1)]
        arc = one_ps(2, -1)
        left = act(mat, arc, v)
        right = act(tor, arc, v)
        assert [e.val for e in left] == [e.val for e in right]

    def test_unipotent_arc_mixes_coordinates(self):
        rep = sym_action(GL2, 1)
        uni = Arc.elementary(2, 0, 1, parse_laurent("t"))
        out = act(rep, uni, [Fraction(0), Fraction(1)])
        # x -> x stays; y picks up t*x
        assert out[0] == parse_laurent("t")
        assert out[1] == parse_laurent("1")

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
        assert arc_norm(rep, v, Arc.identity(2)) == 0
        uni = Arc.elementary(2, 0, 1, parse_laurent("t"))
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
