"""The integer-row simplex against a Fraction-tableau reference.

`reference_solve_lp` below is the dense Fraction simplex the integer kernel
replaced: phase 1 from an all-artificial basis on every LP, Bland's rule in
both phases.  Where the kernel also runs phase 1 it must walk the same bases,
so status, x, objective and pivot count all agree.  Where it starts from the
slack basis instead, it may stop at a different optimal vertex, so only the
status and objective must agree and x must be feasible.  The same holds for
a `Tableau` minimizing one objective after another against a fresh
`solve_lp` per objective.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import linprog, pairs
from stabkit.algebra import Budget, BudgetError
from stabkit.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, Tableau, solve_lp

# -- reference: the Fraction tableau -------------------------------------------


def reference_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), nonneg=None, budget=None):
    budget = Budget.coerce(budget)
    n = len(c)
    c = [Fraction(v) for v in c]
    if nonneg is None:
        nonneg = [True] * n
    cols = []
    for i in range(n):
        cols.append((i, 1))
        if not nonneg[i]:
            cols.append((i, -1))
    n_struct = len(cols)
    n_slack = len(a_ub)
    width = n_struct + n_slack

    def expand(row):
        return [Fraction(row[i]) * s for i, s in cols]

    rows, rhs = [], []
    for k, row in enumerate(a_ub):
        r = expand(row) + [Fraction(0)] * n_slack
        r[n_struct + k] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b_ub[k]))
    for k, row in enumerate(a_eq):
        rows.append(expand(row) + [Fraction(0)] * n_slack)
        rhs.append(Fraction(b_eq[k]))
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    cost = [Fraction(0)] * width
    for j, (i, s) in enumerate(cols):
        cost[j] = c[i] * s

    tab = _ReferenceTableau(rows, rhs, width, budget)
    if tab.phase1() == INFEASIBLE:
        return LPResult(INFEASIBLE, None, None, tab.pivots)
    if tab.phase2(cost) == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, tab.pivots)
    xcols = tab.solution()
    x = [Fraction(0)] * n
    for j, (i, s) in enumerate(cols):
        x[i] += s * xcols[j]
    obj = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult(OPTIMAL, x, obj, tab.pivots)


class _ReferenceTableau:
    def __init__(self, rows, rhs, width, budget):
        self.rows = [list(r) for r in rows]
        self.rhs = list(rhs)
        self.width = width
        self.budget = budget
        self.basis = []
        self.pivots = 0

    def _pivot(self, r, c):
        self.budget.spend()
        self.pivots += 1
        piv = self.rows[r][c]
        self.rows[r] = [v / piv for v in self.rows[r]]
        self.rhs[r] /= piv
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][c]
            if f == 0:
                continue
            self.rows[i] = [a - f * b for a, b in zip(self.rows[i], self.rows[r])]
            self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = c

    def _run(self, red, total_width):
        while True:
            enter = next((j for j in range(total_width) if red[j] < 0), None)
            if enter is None:
                return OPTIMAL
            ratio = None
            leave = None
            for i in range(len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    r = self.rhs[i] / a
                    if ratio is None or r < ratio or (r == ratio and self.basis[i] < self.basis[leave]):
                        ratio = r
                        leave = i
            if leave is None:
                return UNBOUNDED
            f = red[enter]
            self._pivot(leave, enter)
            if f != 0:
                prow = self.rows[leave]
                for j in range(total_width):
                    red[j] -= f * prow[j]

    def phase1(self):
        m = len(self.rows)
        art0 = self.width
        for i in range(m):
            self.rows[i] = self.rows[i] + [Fraction(int(j == i)) for j in range(m)]
            self.basis.append(art0 + i)
        total = self.width + m
        red = [Fraction(0)] * total
        for j in range(self.width):
            red[j] = -sum(self.rows[i][j] for i in range(m))
        if self._run(red, total) != OPTIMAL:
            raise AssertionError("phase 1 is bounded below by 0")
        if sum(self.rhs[i] for i in range(m) if self.basis[i] >= art0) > 0:
            return INFEASIBLE
        i = 0
        while i < len(self.rows):
            if self.basis[i] >= art0:
                col = next((j for j in range(self.width) if self.rows[i][j] != 0), None)
                if col is None:
                    del self.rows[i]
                    del self.rhs[i]
                    del self.basis[i]
                    continue
                self._pivot(i, col)
            i += 1
        for i in range(len(self.rows)):
            self.rows[i] = self.rows[i][: self.width]
        return OPTIMAL

    def phase2(self, cost):
        red = list(cost)
        for i, b in enumerate(self.basis):
            f = red[b]
            if f != 0:
                for j in range(self.width):
                    red[j] -= f * self.rows[i][j]
        return self._run(red, self.width)

    def solution(self):
        x = [Fraction(0)] * self.width
        for i, b in enumerate(self.basis):
            x[b] = self.rhs[i]
        return x


# -- random LPs ----------------------------------------------------------------

# zeros are common so that rows and columns come out degenerate; ints and
# Fractions are mixed the way callers mix them
coefficients = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def lps(draw, slack_start: bool):
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(coefficients, min_size=n, max_size=n)
    # mostly negative costs push slack-start LPs off the origin
    top = 1 if slack_start else 3
    c = draw(st.lists(st.fractions(min_value=-3, max_value=top, max_denominator=3), min_size=n, max_size=n))
    nonneg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a_ub = draw(st.lists(row, max_size=4))
    if slack_start:
        b_ub = draw(st.lists(coefficients.map(abs), min_size=len(a_ub), max_size=len(a_ub)))
        a_eq, b_eq = [], []
    else:
        b_ub = draw(st.lists(coefficients, min_size=len(a_ub), max_size=len(a_ub)))
        a_eq = draw(st.lists(row, min_size=0 if any(b < 0 for b in b_ub) else 1, max_size=3))
        b_eq = draw(st.lists(coefficients, min_size=len(a_eq), max_size=len(a_eq)))
        if a_eq and draw(st.booleans()):
            # a repeated (scaled) equality: a redundant, degenerate row
            k = draw(st.integers(min_value=0, max_value=len(a_eq) - 1))
            f = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            a_eq.append([f * v for v in a_eq[k]])
            b_eq.append(f * b_eq[k])
    if a_ub and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(a_ub) - 1))
        a_ub.append(list(a_ub[k]))
        b_ub.append(b_ub[k])
    if draw(st.booleans()):
        # -2 <= x_i <= 2 keeps most of these LPs bounded, so they pivot
        for i in range(n):
            for sign in (1, -1):
                a_ub.append([sign * int(j == i) for j in range(n)])
                b_ub.append(2)
    return dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=nonneg)


def assert_feasible(lp, x):
    for i, flag in enumerate(lp["nonneg"]):
        if flag:
            assert x[i] >= 0
    for row, b in zip(lp["a_ub"], lp["b_ub"]):
        assert sum(Fraction(a) * xi for a, xi in zip(row, x)) <= b
    for row, b in zip(lp["a_eq"], lp["b_eq"]):
        assert sum(Fraction(a) * xi for a, xi in zip(row, x)) == b


class TestAgainstFractionTableau:
    @given(lps(slack_start=False))
    @settings(max_examples=300, deadline=None)
    def test_phase1_path_walks_the_same_bases(self, lp):
        got = solve_lp(**lp)
        want = reference_solve_lp(**lp)
        assert got.status == want.status
        assert got.x == want.x
        assert got.objective == want.objective
        assert got.pivots == want.pivots
        if got.status == OPTIMAL:
            assert all(type(v) is Fraction for v in got.x)
            assert type(got.objective) is Fraction

    @given(lps(slack_start=True))
    @settings(max_examples=300, deadline=None)
    def test_slack_start_same_optimum(self, lp):
        got = solve_lp(**lp)
        want = reference_solve_lp(**lp)
        assert got.status == want.status
        assert got.objective == want.objective
        assert got.status != INFEASIBLE
        if got.status == OPTIMAL:
            assert_feasible(lp, got.x)
            assert sum(Fraction(ci) * xi for ci, xi in zip(lp["c"], got.x)) == got.objective

    @pytest.mark.parametrize(
        "lp",
        [
            # 0 <= -1 written as a zero row: infeasible
            dict(c=[1, 1], a_ub=[[0, 0]], b_ub=[-1]),
            # a zero equality row with zero right-hand side is redundant
            dict(c=[1, -1], a_eq=[[0, 0], [1, 1]], b_eq=[0, 2]),
            # unbounded along a free variable
            dict(c=[1, 0], a_eq=[[0, 1]], b_eq=[3], nonneg=[False, True]),
            # every basis degenerate at the origin
            dict(c=[-1, -1], a_ub=[[1, -1], [-1, 1], [1, 1]], b_ub=[0, 0, 0]),
        ],
    )
    def test_degenerate_cases(self, lp):
        got = solve_lp(**lp)
        want = reference_solve_lp(**lp)
        assert (got.status, got.objective) == (want.status, want.objective)


# -- one tableau, several objectives ------------------------------------------


@st.composite
def reused_lps(draw):
    """An LP and two or three objectives, the LP's own first: mostly negative
    costs make that first one unbounded on many unboxed systems."""
    lp = draw(st.booleans().flatmap(lambda slack_start: lps(slack_start)))
    n = len(lp["c"])
    cost = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=n, max_size=n)
    return lp, [lp["c"]] + draw(st.lists(cost, min_size=1, max_size=2))


def assert_reuse_matches_fresh_solves(lp, objectives):
    budget = Budget()
    tab = Tableau(len(lp["c"]), lp["a_ub"], lp["b_ub"], lp["a_eq"], lp["b_eq"], lp["nonneg"], budget)
    results = [tab.minimize(c) for c in objectives]
    for c, got in zip(objectives, results):
        fresh = dict(lp, c=c)
        want = solve_lp(**fresh)
        reference = reference_solve_lp(**fresh)
        assert (want.status, want.objective) == (reference.status, reference.objective)
        assert (got.status, got.objective) == (want.status, want.objective)
        if got.status == OPTIMAL:
            assert_feasible(lp, got.x)
            assert sum(Fraction(ci) * xi for ci, xi in zip(c, got.x)) == got.objective
    assert sum(res.pivots for res in results) == tab.pivots == budget.used
    return results


class TestReusedTableau:
    @given(reused_lps())
    @settings(max_examples=300, deadline=None)
    def test_each_objective_matches_a_fresh_solve(self, case):
        assert_reuse_matches_fresh_solves(*case)

    @pytest.mark.parametrize(
        "lp, objectives, statuses",
        [
            # x - y = 1: -x is unbounded, then x and y are bounded below
            (
                dict(c=[-1, 0], a_ub=[], b_ub=[], a_eq=[[1, -1]], b_eq=[1], nonneg=[True, True]),
                [[-1, 0], [1, 0], [0, 1]],
                [UNBOUNDED, OPTIMAL, OPTIMAL],
            ),
            # x <= 2 from the slack basis: y has no upper bound, so -y is unbounded
            (
                dict(c=[0, -1], a_ub=[[1, 0]], b_ub=[2], a_eq=[], b_eq=[], nonneg=[True, True]),
                [[0, -1], [-1, 0], [1, 1]],
                [UNBOUNDED, OPTIMAL, OPTIMAL],
            ),
        ],
        ids=["phase-1", "slack-start"],
    )
    def test_an_unbounded_objective_leaves_a_feasible_basis(self, lp, objectives, statuses):
        results = assert_reuse_matches_fresh_solves(lp, objectives)
        assert [res.status for res in results] == statuses

    def test_an_infeasible_system_stays_infeasible(self):
        # x + y = 1 and x - y = 3 force y = -1 < 0
        lp = dict(c=[1, 0], a_ub=[], b_ub=[], a_eq=[[1, 1], [1, -1]], b_eq=[1, 3], nonneg=[True, True])
        results = assert_reuse_matches_fresh_solves(lp, [[1, 0], [-1, 0], [0, 0]])
        assert [res.status for res in results] == [INFEASIBLE] * 3
        # phase 1 ran once, on the first objective
        assert [res.pivots > 0 for res in results] == [True, False, False]

    def test_phase_1_runs_once(self):
        tab = Tableau(2, a_eq=[[1, 0], [0, 1]], b_eq=[1, 1])
        first = tab.minimize([1, 1])
        assert first.pivots == 2  # phase 1 only: its basis is already optimal
        again = tab.minimize([-1, 1])
        assert (again.status, again.objective, again.pivots) == (OPTIMAL, 0, 0)

    def test_objective_length_is_checked(self):
        with pytest.raises(ValueError, match="objective length"):
            Tableau(2, a_ub=[[1, 1]], b_ub=[1]).minimize([1])


# -- the shortcuts ---------------------------------------------------------------


class TestShortcuts:
    SLACK_LP = dict(c=[-1, -1], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    PHASE1_LP = dict(c=[1, 1], a_eq=[[1, 0], [0, 1]], b_eq=[1, 1])

    @pytest.mark.parametrize("lp", [SLACK_LP, PHASE1_LP], ids=["slack-start", "phase-1"])
    def test_every_pivot_is_charged(self, lp):
        assert solve_lp(**lp).pivots == 2
        budget = Budget(2)
        solve_lp(**lp, budget=budget)
        assert budget.used == 2
        with pytest.raises(BudgetError):
            solve_lp(**lp, budget=Budget(1))

    def test_negative_rhs_forces_phase_1(self):
        # x <= -1 with x >= 0; a slack start would wrongly read x = 0
        assert solve_lp([0], a_ub=[[1]], b_ub=[-1]).status == INFEASIBLE
        assert solve_lp([-1], a_ub=[[1]], b_ub=[-1]).status == INFEASIBLE
        assert solve_lp([1], a_ub=[[1], [-1]], b_ub=[3, -1]).x == [Fraction(1)]


class TestOneLPPerHullQuery:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = linprog.solve_lp

        def counting(*args, **kwargs):
            seen.append(kwargs.get("a_eq", ()) != ())
            return real(*args, **kwargs)

        monkeypatch.setattr(linprog, "solve_lp", counting)
        return seen

    def test_contained_weights(self, calls):
        supp_v = [(0, 0), (4, 0), (0, 4)]
        supp_w = [(1, 1), (2, 2), (0, 3)]
        ok, cert = pairs.supports_semistable(supp_v, supp_w)
        assert ok
        assert len(cert["containment"]) == len(supp_w)
        assert calls == [True] * len(supp_w)

    def test_separated_weight(self, calls):
        supp_v = [(0, 0), (2, 0), (0, 2)]
        supp_w = [(1, 1), (0, 1), (3, 3), (1, 0)]
        ok, cert = pairs.supports_semistable(supp_v, supp_w)
        assert not ok
        assert cert["separated_weight"] == [3, 3]
        # two contained weights, then the failed hull LP and the separation LP
        assert calls == [True, True, True, False]

    @pytest.mark.parametrize(
        "supp_v, supp_w, lps, pivots",
        [
            ([(0, 0), (4, 0), (0, 4)], [(1, 1), (2, 2), (0, 3)], 3, 10),
            ([(0, 0), (2, 0), (0, 2)], [(1, 1), (0, 1), (3, 3), (1, 0)], 4, 13),
        ],
        ids=["contained", "separated"],
    )
    def test_check_path_work_is_pinned(self, monkeypatch, supp_v, supp_w, lps, pivots):
        # rank-2 `pairs.check` jobs like these carry the median job of the
        # pairs-levels benchmark; an edit to the shared kernel that changes
        # their LPs or pivots shows here first
        counts = []
        real = linprog.solve_lp

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            counts.append(res.pivots)
            return res

        monkeypatch.setattr(linprog, "solve_lp", counting)
        pairs.supports_semistable(supp_v, supp_w)
        assert (len(counts), sum(counts)) == (lps, pivots)
