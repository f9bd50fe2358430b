"""Exact two-phase simplex over the rationals.

Dense tableau of Python ints: each row, right-hand side last, is the primitive
integer multiple of its rational row whose entry in the row's basic column
(the row denominator) is positive.  A pivot cross-multiplies and divides by
the row gcd, so no Fraction is built until the solution is read off.  Bland's
rule chooses both the entering and the leaving column, by signs and
cross-multiplied ratios of those same rationals, so the method terminates
without any perturbation.  With no equalities and a nonnegative right-hand
side the slack basis is feasible and phase 1 is skipped.  Every pivot is
metered against a Budget.  Problem sizes here are tiny (tens of variables),
so no effort is spent on sparsity.

A `Tableau` is built once from the constraints and runs phase 1 on its first
`minimize`; each later `minimize` re-prices from the basis the last one left,
which stays feasible, and runs phase 2 alone.  So several objectives over one
system share its rows and its phase 1, and the final basis stays readable on
the tableau.  `solve_lp` is one tableau and one `minimize`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra.ideals import Budget
from .algebra.multipoly import primitive

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None
    objective: Fraction | None
    pivots: int


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    nonneg: Sequence[bool] | None = None,
    budget: Budget | int | None = None,
) -> LPResult:
    """Minimize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq.

    `nonneg[i]` marks x_i >= 0; free variables are split internally.
    """
    return Tableau(len(c), a_ub, b_ub, a_eq, b_eq, nonneg, budget).minimize(c)


def _rational(v) -> int | Fraction:
    """The exact value of a coefficient, kept as an int where it is one."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """Clear column c of row with the pivot row prow, where prow[c] > 0.

    The result is the primitive positive multiple of row - (row[c]/prow[c])
    prow.  zip stops at the shorter list, so a reduced-cost row without a
    right-hand side entry stays without one.
    """
    p = prow[c]
    f = row[c]
    out = [p * a - f * b for a, b in zip(row, prow)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


class Tableau:
    """The constraints a_ub.x <= b_ub, a_eq.x = b_eq over n variables, in
    simplex form, for minimizing one objective after another.

    `nonneg[i]` marks x_i >= 0.  The standard-form columns are one per
    nonneg variable, two per free variable (x = x+ - x-), then one slack per
    inequality.  Row i stands for the rational row rows[i] /
    rows[i][basis[i]]; the reduced-cost rows handed to `_run` are positive
    multiples of the rational ones, so only their signs are read.  `pivots`
    counts every pivot made on the tableau.
    """

    def __init__(
        self,
        n: int,
        a_ub: Sequence[Sequence] = (),
        b_ub: Sequence = (),
        a_eq: Sequence[Sequence] = (),
        b_eq: Sequence = (),
        nonneg: Sequence[bool] | None = None,
        budget: Budget | int | None = None,
    ):
        self.budget = Budget.coerce(budget)
        self.pivots = 0
        if nonneg is None:
            nonneg = [True] * n
        if len(nonneg) != n:
            raise ValueError("nonneg mask length mismatch")
        if len(b_ub) != len(a_ub) or len(b_eq) != len(a_eq):
            raise ValueError("right-hand side length mismatch")

        cols: list[tuple[int, int]] = []  # (original index, sign)
        for i in range(n):
            cols.append((i, 1))
            if not nonneg[i]:
                cols.append((i, -1))
        n_struct = len(cols)
        n_slack = len(a_ub)
        width = n_struct + n_slack

        rhs = [_rational(b) for b in b_ub]
        rhs += [_rational(b) for b in b_eq]
        # Without equalities a nonnegative right-hand side makes the slack
        # basis feasible.  Otherwise each row is negated where its right-hand
        # side is negative and gets an artificial basic column after the
        # slacks, and phase 1 has to run.
        slack_start = not a_eq and all(b >= 0 for b in rhs)
        total = width if slack_start else width + len(rhs)
        rows = []
        basis = []
        for k, row in enumerate(itertools.chain(a_ub, a_eq)):
            if len(row) != n:
                raise ValueError("constraint row length mismatch")
            sign = -1 if rhs[k] < 0 else 1
            values = [_rational(v) for v in row]
            out = [values[i] * (s * sign) for i, s in cols]
            out += [0] * (total - n_struct)
            out.append(sign * rhs[k])
            if k < n_slack:
                out[n_struct + k] = sign
            basis.append(n_struct + k if slack_start else width + k)
            out[basis[-1]] = 1
            rows.append(primitive(out))
        self.rows = rows
        self.basis = basis
        self._n = n
        self._cols = cols
        self._width = width
        # None until phase 1 has run, then OPTIMAL or INFEASIBLE
        self._phase1_status = OPTIMAL if slack_start else None

    def minimize(self, c: Sequence) -> LPResult:
        """Minimize c.x, starting from the basis the previous call left.

        The first call runs phase 1 where it is needed; an infeasible system
        stays infeasible for every objective.  A basis left by an optimal or
        an unbounded run is primal feasible, so each later call only
        re-prices and runs phase 2.  The result counts this call's pivots.
        """
        if len(c) != self._n:
            raise ValueError("objective length mismatch")
        start = self.pivots
        if self._phase1_status is None:
            self._phase1_status = self._phase1()
        if self._phase1_status == INFEASIBLE:
            return LPResult(INFEASIBLE, None, None, self.pivots - start)
        c = [_rational(v) for v in c]
        cost = [0] * self._width
        for j, (i, s) in enumerate(self._cols):
            cost[j] = c[i] if s > 0 else -c[i]
        if self._run(self._price(primitive(cost))) == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, self.pivots - start)

        x = [Fraction(0)] * self._n
        n_struct = len(self._cols)
        for row, b in zip(self.rows, self.basis):
            if b < n_struct:
                i, s = self._cols[b]
                x[i] += Fraction(s * row[-1], row[b])
        obj = sum((ci * xi for ci, xi in zip(c, x) if ci), Fraction(0))
        return LPResult(OPTIMAL, x, obj, self.pivots - start)

    def _pivot(self, r: int, c: int):
        self.budget.spend()
        self.pivots += 1
        prow = self.rows[r]
        if prow[c] < 0:
            prow = self.rows[r] = [-v for v in prow]
        for i, row in enumerate(self.rows):
            if i != r and row[c]:
                self.rows[i] = _eliminate(row, prow, c)
        self.basis[r] = c

    def _price(self, cost: list[int]) -> list[int]:
        """Reduced costs: the cost row with every basic column cleared."""
        red = cost
        for row, b in zip(self.rows, self.basis):
            if red[b]:
                red = _eliminate(red, row, b)
        return red

    def _run(self, red: list[int]) -> str:
        """Bland iterations on the current tableau with reduced-cost row red."""
        rows = self.rows
        while True:
            enter = next((j for j, v in enumerate(red) if v < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row[-1], a
                        continue
                    # rhs_i / a < num / den, both denominators positive
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row[-1], a
            if leave is None:
                return UNBOUNDED
            self._pivot(leave, enter)
            # keep the reduced-cost row in sync with the pivot
            if red[enter]:
                red = _eliminate(red, rows[leave], enter)

    def _phase1(self) -> str:
        """Minimize the sum of the artificial columns width, width+1, ...

        On success the artificial columns are dropped and every row has a
        basic column below width.
        """
        width = self._width
        m = len(self.rows)
        status = self._run(self._price([0] * width + [1] * m))
        if status != OPTIMAL:
            raise AssertionError("phase 1 is bounded below by 0 but came out unbounded")
        if any(row[-1] > 0 for row, b in zip(self.rows, self.basis) if b >= width):
            return INFEASIBLE
        # drive leftover degenerate artificials out of the basis
        i = 0
        while i < len(self.rows):
            if self.basis[i] >= width:
                row = self.rows[i]
                col = next((j for j in range(width) if row[j]), None)
                if col is None:
                    # redundant constraint
                    del self.rows[i]
                    del self.basis[i]
                    continue
                self._pivot(i, col)
            i += 1
        for row in self.rows:
            del row[width:-1]
        return OPTIMAL
