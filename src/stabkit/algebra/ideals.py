"""Ideals and a budgeted Buchberger engine.

The pair queue uses the normal selection strategy (smallest lcm in the
monomial order, ties by pair index) with Gebauer-Moeller style chain and
coprimality pruning.  Work is metered in S-polynomial reductions; exhausting
the budget raises BudgetError instead of returning a partial basis.

The engine computes each monomial's order key once.  A basis element enters
as a lead entry (order key, leading monomial, leading coefficient, tail,
divisibility mask), built once and kept in a list sorted smallest lead
first; a pair carries its lcm and the lcm's key from when it enters the
queue.  Reduction keeps its working terms in a heap of negated keys
(Monagan & Pearce, J. Symb. Comp. 46, 2011) and skips the reducer's lead
term, which cancels exactly.  A short exponent vector mask rules out most
divisibility tests before exponents are compared.

The engine is fraction-free.  A lead entry holds the primitive integer
multiple of its polynomial, leading coefficient positive; S-polynomials
cross-multiply by the two leading coefficients, and reduction is
pseudo-reduction: where a reducer's leading coefficient does not divide the
current one, the working terms are scaled up first.  Every remainder is a
positive multiple of the rational one, and the criteria read only
monomials, so the pairs, the budget spent and the reduced basis are those
of rational arithmetic.  Rationals appear only where a result is returned:
the reduced basis is made monic, and `reduce_poly` divides its scaled
remainder back out.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, itemgetter
from typing import Iterable, Sequence

from .multipoly import (
    GREVLEX,
    MonomialOrder,
    MultiPoly,
    _mul_into,
    _mul_mono,
    _quo,
    mono_div,
    mono_divides,
    mono_lcm,
    primitive,
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

    def spend(self):
        self.used += 1
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

    def __repr__(self):
        from .parser import format_multi

        gens = ", ".join(format_multi(g) for g in self.generators) or "0"
        return f"Ideal[{', '.join(self.variables)}]({gens})"


def reduce_poly(f: MultiPoly, basis: Sequence[MultiPoly], order: MonomialOrder) -> MultiPoly:
    """Full normal form of f modulo basis.

    Reducers are tried smallest leading monomial first (ties in list order),
    which makes the result deterministic for any input list.  f enters with
    its denominators cleared, and they leave again with the scale of the
    pseudo-reduction.
    """
    for g in basis:
        f._check_ring(g)
    reducers = sorted((_lead(g, order) for g in basis if not g.is_zero()), key=itemgetter(0))
    den = lcm(*(c.denominator for c in f.terms.values()))
    work = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    rem, scale = _normal_form(work, reducers, order)
    den *= scale
    return MultiPoly._trusted(f.variables, {m: _quo(c, den) for m, c in rem.items()})


# A lead entry (key, lm, lc, tail, mask) holds what the engine reads of a
# nonzero polynomial, scaled to its primitive integer multiple with a
# positive leading coefficient: the order key of its leading monomial lm,
# the leading coefficient lc (an int > 0), the other terms (int
# coefficients), and the divisibility mask of lm.


def _divmask(m) -> int:
    """Short exponent vector: three bits per exponent e, the low min(e, 3)
    of them set.  If a divides b then _divmask(a) & ~_divmask(b) == 0, so a
    nonzero result rules out divisibility without comparing exponents."""
    mask = 0
    for e in m:
        mask = (mask << 3) | (7 if e > 2 else (1 << e) - 1)
    return mask


def _lead(g: MultiPoly, order: MonomialOrder) -> tuple:
    lm, lc = g.lead(order)
    ints = primitive(g.terms.values())
    if lc < 0:
        ints = [-c for c in ints]
    tail = dict(zip(g.terms, ints))
    return order.key(lm), lm, tail.pop(lm), tail, _divmask(lm)


def _normal_form(work: dict, reducers: Sequence[tuple], order: MonomialOrder) -> tuple[dict, int]:
    """Pseudo-remainder of the int term dict `work` (consumed) modulo lead
    entries sorted smallest lead first: (remainder terms, largest first,
    scale), where the remainder is `scale` (an int > 0) times the rational
    normal form.

    The working monomials sit in a heap of negated order keys, so each one is
    keyed once, when it enters `work`.  A reduction step adds a term multiple
    of the reducer's tail only: its lead term cancels the current term
    exactly.  Where the reducer's leading coefficient gc does not divide the
    current coefficient c, `work` and the remainder so far are first
    multiplied by gc / gcd(c, gc), so every coefficient stays an int.  A
    monomial that cancels and comes back has a second heap entry; whichever
    is popped later finds it gone from `work` and is skipped.
    """
    hkey = order.heap_key
    heap = [(hkey(m), m) for m in work]
    heapify(heap)
    rem = {}
    scale = 1
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        outside = ~_divmask(m)
        for _, gm, gc, tail, gmask in reducers:
            if not gmask & outside and mono_divides(gm, m):
                if c % gc:
                    k = gc // gcd(c, gc)
                    scale *= k
                    c *= k
                    for n in work:
                        work[n] *= k
                    for n in rem:
                        rem[n] *= k
                q = mono_div(m, gm)
                f = -(c // gc)
                for t, tc in tail.items():
                    n = tuple(map(add, q, t))
                    s = work.get(n)
                    if s is None:
                        work[n] = f * tc
                        heappush(heap, (hkey(n), n))
                    else:
                        s += f * tc
                        if s:
                            work[n] = s
                        else:
                            del work[n]
                break
        else:
            rem[m] = c
    return rem, scale


def _spoly(a: tuple, b: tuple) -> dict:
    """Terms of lcm(ac, bc) times the S-polynomial of two lead entries with
    leading coefficients ac and bc: int coefficients, no division.  The
    scaled lead terms cancel exactly, so only the tails are multiplied out."""
    _, am, ac, atail, _ = a
    _, bm, bc, btail, _ = b
    l = mono_lcm(am, bm)
    g = gcd(ac, bc)
    out = _mul_into({}, {mono_div(l, am): bc // g}, atail, _mul_mono)
    return _mul_into(out, {mono_div(l, bm): -(ac // g)}, btail, _mul_mono)


def _update_pairs(leads: list, P: list, order: MonomialOrder) -> list:
    """The pair heap after adding the newest lead entry leads[-1], pruned
    with the chain and coprimality criteria (Gebauer-Moeller B, M, F and the
    product test).

    A pair is (lcm key, i, j, lcm, lcm mask) with i < j, so the heap pops the
    smallest lcm first, ties broken by (i, j).
    """
    t = len(leads) - 1
    _, lmt, _, _, maskt = leads[t]
    cand = [mono_lcm(entry[1], lmt) for entry in leads[:t]]
    # B: an old pair is covered by the new generator when its lcm is a proper
    # multiple of both mixed lcms
    kept = [
        pair
        for pair in P
        if maskt & ~pair[4]
        or not mono_divides(lmt, pair[3])
        or cand[pair[1]] == pair[3]
        or cand[pair[2]] == pair[3]
    ]
    # M: among the new pairs keep those whose lcm no other lcm properly
    # divides.  Taking the distinct lcms by degree, a proper divisor comes
    # first, and testing against the minimal ones found so far suffices.
    minimal: dict = {}  # minimal lcm -> its mask
    for li in sorted(set(cand), key=sum):
        outside = ~_divmask(li)
        if not any(not mask & outside and mono_divides(lj, li) for lj, mask in minimal.items()):
            minimal[li] = ~outside
    # F: one representative per lcm value, its first index; product
    # criterion: coprime leading monomials reduce to zero
    for i, li in enumerate(cand):
        mask = minimal.pop(li, None)
        if mask is not None and li != _mul_mono(leads[i][1], lmt):
            kept.append((order.key(li), i, t, li, mask))
    heapify(kept)
    return kept


def buchberger(
    gens: Sequence[MultiPoly],
    order: MonomialOrder = GREVLEX,
    budget: Budget | int | None = None,
) -> list[MultiPoly]:
    """Reduced Groebner basis of the given generators.

    Each basis element enters as a lead entry, built once; `reducers` keeps
    the entries smallest lead first, ties in order of entry.
    """
    budget = Budget.coerce(budget)
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        gens[0]._check_ring(g)
    leads: list[tuple] = []  # lead entry of each basis element, by index
    reducers: list[tuple] = []
    P: list[tuple] = []

    def admit(entry, pairs):
        leads.append(entry)
        insort(reducers, entry, key=itemgetter(0))
        return _update_pairs(leads, pairs, order)

    for entry in sorted((_lead(g, order) for g in gens), key=itemgetter(0)):
        P = admit(entry, P)
    while P:
        # normal strategy: smallest lcm first
        _, i, j, _, _ = heappop(P)
        budget.spend()
        rem, _ = _normal_form(_spoly(leads[i], leads[j]), reducers, order)
        if rem:
            P = admit(_lead(MultiPoly._trusted(gens[0].variables, rem), order), P)
    return [
        MultiPoly._trusted(gens[0].variables, terms)
        for terms in _interreduce(_minimalize(reducers), order)
    ]


def _minimalize(reducers: Sequence[tuple]) -> list[tuple]:
    """Drop entries whose leading monomial an earlier one divides."""
    out: list[tuple] = []
    for entry in reducers:
        _, gm, _, _, gmask = entry
        outside = ~gmask
        if not any(not hmask & outside and mono_divides(hm, gm) for _, hm, _, _, hmask in out):
            out.append(entry)
    return out


def _interreduce(G: Sequence[tuple], order: MonomialOrder) -> list[dict]:
    """Monic terms of each entry with its tail reduced modulo the others.

    In a minimal basis no other lead divides a lead, so each lead survives
    and the output keeps the order of G, smallest lead first.  The tail's
    pseudo-remainder is divided by lc times its scale, the one division a
    basis needs.
    """
    out = []
    for i, (_, lm, lc, tail, _) in enumerate(G):
        others = [h for j, h in enumerate(G) if j != i]
        rem, scale = _normal_form(dict(tail), others, order)
        lc *= scale
        terms = {lm: 1}
        for m, c in rem.items():
            terms[m] = _quo(c, lc)
        out.append(terms)
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
