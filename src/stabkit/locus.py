"""Degeneration loci of group actions by exact elimination.

The pipeline is purely ideal-theoretic: build the graph of the action,
project it to the product of two copies of the ambient space, intersect with
the target subvariety in the second copy, and eliminate.  The computed locus
is a closed set that always CONTAINS the true pointwise degeneration locus;
per-point oracles document where the containment is strict.  Projective
inputs are handled on affine cones with homogeneous ideals, where
"intersection nonempty" means the irrelevant-saturated sum is proper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra.ideals import (
    Budget,
    Ideal,
    fresh_name,
    eliminate,
    groebner,
    intersect,
    member,
    radical_member,
    saturate,
)
from .algebra.multipoly import MultiPoly
from .groups import GroupPresentation, MatrixAction, TorusWeights
from .pairs import supports_semistable


@dataclass(frozen=True)
class ActionProblem:
    """A group action on a subvariety with a chosen closed degeneration target.

    Ideals are given in the first copy's variables; the second copy's
    variables name the limit points.  Projective problems work on affine
    cones and require homogeneous ideals.
    """

    y1_vars: tuple[str, ...]
    y2_vars: tuple[str, ...]
    ideal_y: Ideal
    ideal_w: Ideal
    group: GroupPresentation
    action: MatrixAction
    projective: bool = False

    def __init__(self, y1_vars, y2_vars, ideal_y, ideal_w, group, action, projective=False):
        y1 = tuple(y1_vars)
        y2 = tuple(y2_vars)
        if len(y1) != len(y2):
            raise ValueError("the two variable copies must have equal length")
        if len(set(y1) | set(y2) | set(group.variables)) != len(y1) + len(y2) + len(
            group.variables
        ):
            raise ValueError("variable names of the copies and the group must be disjoint")
        if ideal_y.variables != y1 or ideal_w.variables != y1:
            raise ValueError("both ideals must live in the first copy's ring")
        if action.group is not group:
            raise ValueError("action must be a representation of the given group")
        if action.dim != len(y1):
            raise ValueError("action matrix size must match the ambient dimension")
        for g in ideal_y.generators:
            if not member(g, ideal_w):
                raise ValueError("the target ideal must contain the variety ideal")
        if projective:
            for g in list(ideal_y.generators) + list(ideal_w.generators):
                if len({sum(m) for m in g.terms}) > 1:
                    raise ValueError("projective problems need homogeneous ideals")
        object.__setattr__(self, "y1_vars", y1)
        object.__setattr__(self, "y2_vars", y2)
        object.__setattr__(self, "ideal_y", ideal_y)
        object.__setattr__(self, "ideal_w", ideal_w)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "projective", projective)

    @property
    def dim(self) -> int:
        return len(self.y1_vars)


@dataclass(frozen=True)
class OracleRow:
    point: tuple[Fraction, ...]
    degenerates: bool
    in_locus: bool


@dataclass(frozen=True)
class LocusReport:
    """Computed locus ideal with its per-point oracle reconciliation.

    Every oracle-degenerating probe lies in the locus (soundness, enforced);
    the overapproximation flag records any probe that does not degenerate yet
    lies in the locus.
    """

    ideal: Ideal
    oracle_table: tuple[OracleRow, ...]
    overapproximation: bool


def _action_images(
    prob: ActionProblem, ring: Sequence[str], coords: Sequence
) -> list[MultiPoly]:
    """The coordinates of g . y as polynomials in the combined ring, where y
    is either the first copy's variables (names) or a rational point."""
    ys = [MultiPoly.var(ring, c) if isinstance(c, str) else c for c in coords]
    out = []
    for row in prob.action.matrix:
        acc = MultiPoly.zero(ring)
        for entry, y in zip(row, ys):
            if entry.is_zero() or y == 0:  # a variable never equals 0
                continue
            acc = acc + entry.extend(ring) * y
        out.append(acc)
    return out


def graph_ideal(prob: ActionProblem) -> Ideal:
    """Ideal of the action graph inside group x copy1 x copy2.

    Affine problems pin the second copy to g . y1 exactly; projective ones
    only require proportionality, expressed by the 2x2 minors of the matrix
    with rows y2 and g . y1.
    """
    ring = tuple(prob.group.variables) + prob.y1_vars + prob.y2_vars
    gens = [g.extend(ring) for g in prob.group.relations.generators]
    gens += [g.extend(ring) for g in prob.ideal_y.generators]
    images = _action_images(prob, ring, prob.y1_vars)
    if prob.projective:
        for a, b in itertools.combinations(range(prob.dim), 2):
            ya = MultiPoly.var(ring, prob.y2_vars[a])
            yb = MultiPoly.var(ring, prob.y2_vars[b])
            gens.append(ya * images[b] - yb * images[a])
    else:
        for i in range(prob.dim):
            gens.append(MultiPoly.var(ring, prob.y2_vars[i]) - images[i])
    return Ideal(ring, gens)


def saturate_by_all(
    ideal: Ideal, polys: Sequence[MultiPoly], budget: Budget | int | None = None
) -> Ideal:
    """Saturation by the ideal the polynomials generate.

    Equals the intersection of the saturations by each generator.
    """
    budget = Budget.coerce(budget)
    out = None
    for f in polys:
        s = saturate(ideal, f, budget)
        out = s if out is None else intersect(out, s, budget)
    return ideal if out is None else out


def _irrelevant(ring: Sequence[str], names: Sequence[str]) -> list[MultiPoly]:
    return [MultiPoly.var(ring, v) for v in names]


def orbit_map_closure(prob: ActionProblem, budget: Budget | int | None = None) -> Ideal:
    """Closure of the image of the graph in copy1 x copy2.

    The inverse-determinant variable in the presentation keeps the graph
    ideal determinant-saturated by construction; projective problems are
    additionally saturated by both irrelevant ideals before eliminating the
    group variables (saturating afterwards could lose components).
    """
    budget = Budget.coerce(budget)
    graph = graph_ideal(prob)
    if prob.projective:
        ring = graph.variables
        graph = saturate_by_all(graph, _irrelevant(ring, prob.y1_vars), budget)
        graph = saturate_by_all(graph, _irrelevant(ring, prob.y2_vars), budget)
    return eliminate(graph, prob.group.variables, budget)


def _meet_target(prob: ActionProblem, ideal: Ideal, budget: Budget) -> Ideal:
    """Add the target ideal in the second copy's variables; projective
    problems then saturate by the second copy's irrelevant ideal."""
    ring = ideal.variables
    gens = list(ideal.generators)
    gens += [g.rename(prob.y2_vars).extend(ring) for g in prob.ideal_w.generators]
    total = Ideal(ring, gens)
    if prob.projective:
        total = saturate_by_all(total, _irrelevant(ring, prob.y2_vars), budget)
    return total


def locus_contains(ideal: Ideal, point: Sequence[Fraction]) -> bool:
    values = {v: Fraction(c) for v, c in zip(ideal.variables, point)}
    return all(g.subs(values) == 0 for g in ideal.generators)


def degeneration_locus(
    prob: ActionProblem,
    probes: Sequence[Sequence[Fraction]] = (),
    budget: Budget | int | None = None,
) -> LocusReport:
    """Closed superset of the points whose orbit closure meets the target.

    Intersects the orbit-map closure with the target in the second copy and
    eliminates it.  Probe points are compared against the per-point oracle;
    a degenerating probe outside the locus would be a soundness violation and
    raises, while a non-degenerating probe inside the locus raises only the
    overapproximation flag.
    """
    budget = Budget.coerce(budget)
    total = _meet_target(prob, orbit_map_closure(prob, budget), budget)
    locus = eliminate(total, prob.y2_vars, budget)
    rows = []
    overapprox = False
    for p in probes:
        point = tuple(Fraction(c) for c in p)
        degenerates = point_degenerates(prob, point, budget)
        inside = locus_contains(locus, point)
        if degenerates and not inside:
            raise RuntimeError(
                f"soundness violation: degenerating point {point} escapes the locus"
            )
        if inside and not degenerates:
            overapprox = True
        rows.append(OracleRow(point, degenerates, inside))
    return LocusReport(locus, tuple(rows), overapprox)


def point_degenerates(
    prob: ActionProblem,
    y0: Sequence[Fraction],
    budget: Budget | int | None = None,
) -> bool:
    """Whether the orbit closure of one rational point meets the target.

    Eliminates the group variables from the parametrized orbit; projective
    problems also quotient by rescaling via an inverted scale variable and
    decide emptiness after irrelevant saturation.
    """
    budget = Budget.coerce(budget)
    point = tuple(Fraction(c) for c in y0)
    if len(point) != prob.dim:
        raise ValueError("point dimension mismatch")
    values = {v: c for v, c in zip(prob.y1_vars, point)}
    for g in prob.ideal_y.generators:
        if g.subs(values) != 0:
            raise ValueError("probe point does not lie on the variety")
    if prob.projective and all(c == 0 for c in point):
        raise ValueError("the zero cone point names no projective point")

    gvars = list(prob.group.variables)
    taken = gvars + list(prob.y2_vars)
    if prob.projective:
        scale = fresh_name(taken, "cscale")
        scale_inv = fresh_name(taken + [scale], "cscaleinv")
        scale_vars = [scale, scale_inv]
    else:
        scale_vars = []
    ring = tuple(gvars + scale_vars + list(prob.y2_vars))
    gens = [g.extend(ring) for g in prob.group.relations.generators]
    images = _action_images(prob, ring, point)
    if prob.projective:
        cs = MultiPoly.var(ring, scale_vars[0])
        gens.append(cs * MultiPoly.var(ring, scale_vars[1]) - 1)
        images = [cs * img for img in images]
    for i in range(prob.dim):
        gens.append(MultiPoly.var(ring, prob.y2_vars[i]) - images[i])
    closure = eliminate(Ideal(ring, gens), gvars + scale_vars, budget)
    total = _meet_target(prob, closure, budget)
    return not groebner(total, budget=budget).is_trivial()


@dataclass(frozen=True)
class FamilyPair:
    """A torus pair whose coordinates are polynomials in base parameters."""

    base_vars: tuple[str, ...]
    rep_v: TorusWeights
    rep_w: TorusWeights
    v: tuple[MultiPoly, ...]
    w: tuple[MultiPoly, ...]
    group: GroupPresentation

    def __init__(self, base_vars, rep_v, rep_w, v, w, group):
        base = tuple(base_vars)
        v = tuple(v)
        w = tuple(w)
        if not group.is_torus:
            raise ValueError("family analysis requires a torus group")
        if not isinstance(rep_v, TorusWeights) or not isinstance(rep_w, TorusWeights):
            raise ValueError("family analysis requires TorusWeights representations")
        if rep_v.rank != group.rank or rep_w.rank != group.rank:
            raise ValueError("weight vectors do not match the torus rank")
        if len(v) != rep_v.dim or len(w) != rep_w.dim:
            raise ValueError("coordinate count does not match the representation")
        for p in v + w:
            if p.variables != base:
                raise ValueError("coordinates must be polynomials in the base ring")
        object.__setattr__(self, "base_vars", base)
        object.__setattr__(self, "rep_v", rep_v)
        object.__setattr__(self, "rep_w", rep_w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "group", group)


def family_unstable_locus(
    fam: FamilyPair, budget: Budget | int | None = None
) -> list[Ideal]:
    """Closure of the set of base points with a non-semistable fiber.

    Stratifies the base by which coordinates vanish, decides each stratum
    from its weight supports, and returns the closures of the unstable
    strata, whose union is the closure of the unstable set.  That set is
    itself closed while the w-support is constant on the base; where a
    w-coordinate vanishes on a stratum it need not be, so the closure may
    take in semistable fibers.  Strata where v vanishes identically name no
    pair and are skipped.  One ideal per closed piece, absorbed and
    deduplicated.
    """
    budget = Budget.coerce(budget)
    base = fam.base_vars

    def classify(poly: MultiPoly) -> str:
        if poly.is_zero():
            return "zero"
        if poly.is_constant():
            return "unit"
        return "varies"

    kinds_v = [classify(p) for p in fam.v]
    kinds_w = [classify(p) for p in fam.w]
    free_v = [i for i, k in enumerate(kinds_v) if k == "varies"]
    free_w = [j for j, k in enumerate(kinds_w) if k == "varies"]

    pieces: list[Ideal] = []
    for pattern in itertools.product(
        (False, True), repeat=len(free_v) + len(free_w)
    ):
        vanish_v = {i for i, flag in zip(free_v, pattern[: len(free_v)]) if flag}
        vanish_w = {j for j, flag in zip(free_w, pattern[len(free_v) :]) if flag}
        supp_v = sorted(
            {
                fam.rep_v.weights[i]
                for i, k in enumerate(kinds_v)
                if k != "zero" and i not in vanish_v
            }
        )
        if not supp_v:
            continue
        supp_w = sorted(
            {
                fam.rep_w.weights[j]
                for j, k in enumerate(kinds_w)
                if k != "zero" and j not in vanish_w
            }
        )
        ok, _ = supports_semistable(supp_v, supp_w)
        if ok:
            continue
        stratum = Ideal(
            base,
            [fam.v[i] for i in sorted(vanish_v)] + [fam.w[j] for j in sorted(vanish_w)],
        )
        alive = [fam.v[i] for i in free_v if i not in vanish_v]
        alive += [fam.w[j] for j in free_w if j not in vanish_w]
        closure = stratum
        for f in alive:
            closure = saturate(closure, f, budget)
        closure = groebner(closure, budget=budget)
        if closure.is_trivial():
            continue
        pieces.append(closure)

    return _absorb(pieces, budget)


def _absorb(pieces: list[Ideal], budget: Budget) -> list[Ideal]:
    """Drop zero-set-redundant ideals: pieces whose variety another covers."""
    unique: list[Ideal] = []
    for p in pieces:
        if all(p != q for q in unique):
            unique.append(p)
    kept: list[Ideal] = []
    for i, p in enumerate(unique):
        covered = False
        for j, q in enumerate(unique):
            if i == j or covered:
                continue
            smaller_q = all(radical_member(g, p, budget) for g in q.generators)
            if smaller_q and not (
                j > i and all(radical_member(g, q, budget) for g in p.generators)
            ):
                covered = True
        if not covered:
            kept.append(p)
    return kept
