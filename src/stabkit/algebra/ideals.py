"""Ideals and a budgeted Buchberger engine.

The pair queue uses the normal selection strategy (smallest lcm in the
monomial order) with Gebauer-Moeller style chain and coprimality pruning.
Work is metered in S-polynomial reductions; exhausting the budget raises
BudgetError instead of returning a partial basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .multipoly import (
    GREVLEX,
    MonomialOrder,
    MultiPoly,
    _mul_into,
    _mul_mono,
    mono_div,
    mono_divides,
    mono_lcm,
)

DEFAULT_BUDGET = 100_000


class BudgetError(RuntimeError):
    """Raised when a computation exceeds its step budget."""

    def __init__(self, limit: int):
        super().__init__(f"step budget of {limit} exhausted")
        self.limit = limit


class Budget:
    """Mutable step counter shared across the stages of a compound operation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = int(limit)
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetError(self.limit)

    @classmethod
    def coerce(cls, budget) -> "Budget":
        if budget is None:
            return cls()
        if isinstance(budget, Budget):
            return budget
        return cls(int(budget))


class Ideal:
    """Finitely generated ideal in an explicit polynomial ring."""

    __slots__ = ("variables", "generators", "_gb_cache")

    def __init__(self, variables: Sequence[str], generators: Iterable[MultiPoly] = ()):
        self.variables = tuple(variables)
        gens = []
        for g in generators:
            if g.variables != self.variables:
                raise ValueError("generator lives in a different ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb_cache: dict = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.variables != other.variables:
            return False
        return groebner(self).generators == groebner(other).generators

    def __hash__(self):
        return hash((self.variables, groebner(self).generators))

    def is_trivial(self, budget=None) -> bool:
        """True when the ideal is the whole ring."""
        gb = groebner(self, budget=budget).generators
        return len(gb) == 1 and gb[0].is_constant()

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self):
        from .parser import format_multi

        gens = ", ".join(format_multi(g) for g in self.generators) or "0"
        return f"Ideal[{', '.join(self.variables)}]({gens})"


def reduce_poly(f: MultiPoly, basis: Sequence[MultiPoly], order: MonomialOrder) -> MultiPoly:
    """Full normal form of f modulo basis.

    Reducers are tried smallest leading monomial first, which makes the
    result deterministic for any input list.  Each step subtracts a term
    multiple of the reducer from one working term dict in place.
    """
    for g in basis:
        f._check_ring(g)
    leads = sorted(
        ((g.lead(order), g) for g in basis if not g.is_zero()),
        key=lambda item: order.key(item[0][0]),
    )
    rem_terms: dict = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work[m]
        for (gm, gc), g in leads:
            if mono_divides(gm, m):
                _mul_into(work, {mono_div(m, gm): -c / gc}, g.terms, _mul_mono)
                break
        else:
            rem_terms[m] = c
            del work[m]
    return MultiPoly._trusted(f.variables, rem_terms)


def spoly(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    f._check_ring(g)
    fm, fc = f.lead(order)
    gm, gc = g.lead(order)
    l = mono_lcm(fm, gm)
    out = _mul_into({}, {mono_div(l, fm): 1 / fc}, f.terms, _mul_mono)
    return MultiPoly._trusted(
        f.variables, _mul_into(out, {mono_div(l, gm): -1 / gc}, g.terms, _mul_mono)
    )


def _update_pairs(lms, P):
    """Add pairs against the newest generator, whose leading monomial is
    lms[-1], pruning with the chain and coprimality criteria
    (Gebauer-Moeller B, M, F and the product test)."""
    t = len(lms) - 1
    lmt = lms[t]
    # B: an old pair is covered by the new generator when its lcm is a proper
    # multiple of both mixed lcms
    kept = []
    for i, j in P:
        lij = mono_lcm(lms[i], lms[j])
        if (
            mono_divides(lmt, lij)
            and mono_lcm(lms[i], lmt) != lij
            and mono_lcm(lms[j], lmt) != lij
        ):
            continue
        kept.append((i, j))
    # M: among the new pairs keep those with minimal lcm
    cand = {i: mono_lcm(lms[i], lmt) for i in range(t)}
    minimal = []
    for i, li in cand.items():
        if any(mono_divides(cand[j], li) and cand[j] != li for j in cand):
            continue
        minimal.append(i)
    # F: one representative per lcm value
    seen: dict = {}
    for i in minimal:
        seen.setdefault(cand[i], i)
    # product criterion: coprime leading monomials reduce to zero
    for li, i in sorted(seen.items(), key=lambda kv: kv[1]):
        if li != _mul_mono(lms[i], lmt):
            kept.append((i, t))
    return kept


def buchberger(
    gens: Sequence[MultiPoly],
    order: MonomialOrder = GREVLEX,
    budget: Budget | int | None = None,
) -> list[MultiPoly]:
    """Reduced Groebner basis of the given generators."""
    budget = Budget.coerce(budget)
    G: list[MultiPoly] = []
    lms: list = []  # leading monomial of each member of G
    P: list[tuple[int, int]] = []
    seed = sorted(
        (g for g in gens if not g.is_zero()),
        key=lambda g: order.key(g.lead(order)[0]),
    )
    for g in seed:
        G.append(g)
        lms.append(g.lead(order)[0])
        P = _update_pairs(lms, P)
    while P:
        # normal strategy: smallest lcm first
        best = min(
            range(len(P)),
            key=lambda idx: (order.key(mono_lcm(lms[P[idx][0]], lms[P[idx][1]])), P[idx]),
        )
        i, j = P.pop(best)
        budget.spend()
        s = reduce_poly(spoly(G[i], G[j], order), G, order)
        if not s.is_zero():
            G.append(s)
            lms.append(s.lead(order)[0])
            P = _update_pairs(lms, P)
    return _interreduce(_minimalize(G, order), order)


def _minimalize(G: Sequence[MultiPoly], order: MonomialOrder) -> list[MultiPoly]:
    """Drop generators whose leading monomial another one divides."""
    out: list[MultiPoly] = []
    for g in sorted(G, key=lambda g: order.key(g.lead(order)[0])):
        gm = g.lead(order)[0]
        if not any(mono_divides(h.lead(order)[0], gm) for h in out):
            out.append(g)
    return out


def _interreduce(G: Sequence[MultiPoly], order: MonomialOrder) -> list[MultiPoly]:
    """Fully reduce each generator against the others and normalize monic."""
    out = []
    for i, g in enumerate(G):
        others = [h for j, h in enumerate(G) if j != i]
        r = reduce_poly(g, others, order) if others else g
        if not r.is_zero():
            out.append(r.monic(order))
    out.sort(key=lambda g: order.key(g.lead(order)[0]))
    return out


def groebner(
    ideal: Ideal, order: MonomialOrder = GREVLEX, budget: Budget | int | None = None
) -> Ideal:
    """Ideal regenerated by its reduced Groebner basis under `order`."""
    key = (order.kind, order.split)
    cached = ideal._gb_cache.get(key)
    if cached is not None:
        return cached
    basis = buchberger(ideal.generators, order, budget)
    out = Ideal(ideal.variables, basis)
    out._gb_cache[key] = out
    ideal._gb_cache[key] = out
    return out


def eliminate(
    ideal: Ideal, drop: Sequence[str], budget: Budget | int | None = None
) -> Ideal:
    """Intersection with the subring omitting the `drop` variables.

    Uses a block order with the dropped variables in the first block; the
    survivors of the reduced basis form a reduced basis of the elimination
    ideal.
    """
    drop = list(drop)
    for v in drop:
        if v not in ideal.variables:
            raise ValueError(f"cannot eliminate {v!r}: not an ambient variable")
    keep = [v for v in ideal.variables if v not in drop]
    if not drop:
        gb = groebner(ideal, GREVLEX, budget)
        return gb
    reordered = drop + keep
    moved = [g.extend(reordered) for g in ideal.generators]
    basis = buchberger(moved, MonomialOrder("block", split=len(drop)), budget)
    survivors = [g for g in basis if not any(g.uses_variable(v) for v in drop)]
    return Ideal(keep, [g.restrict(keep) for g in survivors])


def fresh_name(taken: Sequence[str], stem: str) -> str:
    if stem not in taken:
        return stem
    i = 0
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def saturate(ideal: Ideal, f: MultiPoly, budget: Budget | int | None = None) -> Ideal:
    """Saturation (I : f^infinity) via the Rabinowitsch variable."""
    if f.variables != ideal.variables:
        raise ValueError("saturating polynomial lives in a different ring")
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    extended = _rabinowitsch(ideal, f)
    return eliminate(extended, [extended.variables[0]], budget)


def member(f: MultiPoly, ideal: Ideal, budget: Budget | int | None = None) -> bool:
    """Ideal membership via normal form against a reduced basis."""
    if f.variables != ideal.variables:
        raise ValueError("membership test across different rings")
    gb = groebner(ideal, GREVLEX, budget)
    if not gb.generators:
        return f.is_zero()
    return reduce_poly(f, gb.generators, GREVLEX).is_zero()


def radical_member(f: MultiPoly, ideal: Ideal, budget: Budget | int | None = None) -> bool:
    """f in rad(I), by the Rabinowitsch trick."""
    if f.variables != ideal.variables:
        raise ValueError("membership test across different rings")
    if f.is_zero():
        return True
    return _rabinowitsch(ideal, f).is_trivial(budget)


def _rabinowitsch(ideal: Ideal, f: MultiPoly) -> Ideal:
    """I + (1 - z*f) with a fresh variable z put first in the ring: its
    points are those of I with f invertible."""
    z = fresh_name(ideal.variables, "zrab")
    extended = [z] + list(ideal.variables)
    gens = [g.extend(extended) for g in ideal.generators]
    zf = MultiPoly.var(extended, z) * f.extend(extended)
    gens.append(MultiPoly.constant(extended, 1) - zf)
    return Ideal(extended, gens)


def intersect(a: Ideal, b: Ideal, budget: Budget | int | None = None) -> Ideal:
    """Ideal intersection via the weighted-sum elimination trick."""
    if a.variables != b.variables:
        raise ValueError("intersection across different rings")
    budget = Budget.coerce(budget)
    w = fresh_name(a.variables, "zmix")
    extended = [w] + list(a.variables)
    wv = MultiPoly.var(extended, w)
    one_minus = MultiPoly.constant(extended, 1) - wv
    gens = [wv * g.extend(extended) for g in a.generators]
    gens += [one_minus * g.extend(extended) for g in b.generators]
    return eliminate(Ideal(extended, gens), [w], budget)


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.variables != b.variables:
        raise ValueError("sum across different rings")
    return Ideal(a.variables, list(a.generators) + list(b.generators))
