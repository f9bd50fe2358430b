"""Exact simplex solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import Budget, BudgetError
from stabkit.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


class TestSolve:
    def test_vertex_optimum(self):
        res = solve_lp([-1, -1], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        assert res.status == OPTIMAL
        assert res.x == [Fraction(8, 5), Fraction(6, 5)]
        assert res.objective == Fraction(-14, 5)

    def test_equality_constraints(self):
        res = solve_lp([1, 0], a_eq=[[1, 1]], b_eq=[1], a_ub=[[-1, 0]], b_ub=[0])
        assert res.status == OPTIMAL
        assert res.objective == 0
        assert res.x[0] + res.x[1] == 1

    def test_free_variable(self):
        res = solve_lp([1], a_ub=[[-1]], b_ub=[5], nonneg=[False])
        assert res.status == OPTIMAL
        assert res.x == [Fraction(-5)]

    def test_free_variables_in_equalities(self):
        res = solve_lp([0, 0], a_eq=[[1, 1]], b_eq=[-3], nonneg=[False, False])
        assert res.status == OPTIMAL and sum(res.x) == -3
        assert solve_lp([0, 0], a_eq=[[1, 1]], b_eq=[-3]).status == INFEASIBLE

    def test_infeasible(self):
        res = solve_lp([0], a_ub=[[1]], b_ub=[-1])
        assert res.status == INFEASIBLE
        assert res.x is None and res.objective is None

    def test_unbounded(self):
        res = solve_lp([-1])
        assert res.status == UNBOUNDED

    def test_exact_rational_answer(self):
        res = solve_lp(
            [Fraction(1, 3), Fraction(-1, 7)],
            a_ub=[[1, 1]],
            b_ub=[Fraction(2, 5)],
        )
        assert res.status == OPTIMAL
        assert res.objective == Fraction(-2, 35)

    def test_redundant_equalities(self):
        res = solve_lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
        assert res.status == OPTIMAL
        assert res.objective == 2

    @pytest.mark.parametrize(
        "lp",
        [
            dict(a_eq=[[1]], b_eq=[2, 7]),
            dict(a_eq=[[1]], b_eq=[]),
            dict(a_ub=[[1]], b_ub=[2, 7]),
            dict(a_ub=[[1], [2]], b_ub=[2]),
        ],
        ids=["long-b-eq", "short-b-eq", "long-b-ub", "short-b-ub"],
    )
    def test_right_hand_side_length_is_checked(self, lp):
        # an extra entry used to be dropped and a missing one to raise IndexError
        with pytest.raises(ValueError, match="right-hand side length"):
            solve_lp([1], **lp)

    def test_budget_meter(self):
        with pytest.raises(BudgetError):
            solve_lp([-1, -1], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6], budget=Budget(1))

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_box_separable_optimum(self, c):
        # over the unit box the coordinates decouple
        n = len(c)
        a_ub = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        res = solve_lp(c, a_ub=a_ub, b_ub=[1] * n)
        assert res.status == OPTIMAL
        assert res.objective == sum(min(ci, Fraction(0)) for ci in c)
        for row, xi in zip(a_ub, res.x):
            assert 0 <= xi <= 1

    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_solution_is_feasible(self, a_ub, b_ub):
        m = min(len(a_ub), len(b_ub))
        a_ub, b_ub = a_ub[:m], b_ub[:m]
        res = solve_lp([1, 1], a_ub=a_ub, b_ub=b_ub)
        # rhs >= 0 and nonneg vars make the origin feasible
        assert res.status == OPTIMAL
        for row, b in zip(a_ub, b_ub):
            assert sum(r * x for r, x in zip(row, res.x)) <= b
