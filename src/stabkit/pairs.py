"""Semistability and stability certificates for pairs of representation vectors.

For torus groups everything reduces to exact polyhedral geometry on the weight
supports: a pair is semistable exactly when the hull of the w-support sits
inside the hull of the v-support.  Both level-l conditions, semistability of
the associated pair and the norm gap, ask whether mu >= c * norm on every
one-parameter subgroup for one value of c, so one stability interval of such
c decides every level.  mu - c * norm is linear on each cone of one fan, the
refinement of the normal fans of both hulls and of the standard simplex, so
up to rank 3 the interval is read off a finite set of candidate rays that
holds every ray of that fan, with no LP.  From rank 4 on it comes from one
small Farkas system per cone of the fan: phase 1 once, then two objectives
on its tableau.  Destabilizers and interval ends are re-verified through the
arc-weight machinery before being returned.  For non-abelian groups only a
seeded randomized falsifier is offered.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linprog
from .algebra.ideals import Budget
from .algebra.laurent import LaurentPoly
from .algebra.multipoly import _exact, _mul_into, primitive
from .algebra.parser import format_rational
from .groups import (
    Arc,
    GroupPresentation,
    MatrixAction,
    Representation,
    TorusWeights,
    check_arc,
    deg_of_rep,
    image_order,
    mu_from_order,
    mu_weight,
    norm_from_order,
)


@dataclass(frozen=True)
class Pair:
    """A projective pair [v : w] for two representations of one group."""

    rep_v: Representation
    rep_w: Representation
    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    group: GroupPresentation

    def __init__(self, rep_v, rep_w, v, w, group):
        v = tuple(Fraction(_exact(c)) for c in v)
        w = tuple(Fraction(_exact(c)) for c in w)
        if all(c == 0 for c in v):
            raise ValueError("v must be nonzero")
        for rep, vec, name in ((rep_v, v, "v"), (rep_w, w, "w")):
            if isinstance(rep, TorusWeights):
                if rep.dim != len(vec):
                    raise ValueError(f"{name} length does not match its representation")
                if group.is_torus and rep.rank != group.rank:
                    raise ValueError("weight vectors do not match the torus rank")
            elif isinstance(rep, MatrixAction):
                if rep.dim != len(vec):
                    raise ValueError(f"{name} length does not match its representation")
                if rep.group.size != group.size:
                    raise ValueError("representation group size mismatch")
            else:
                raise TypeError(f"unknown representation type {type(rep).__name__}")
        object.__setattr__(self, "rep_v", rep_v)
        object.__setattr__(self, "rep_w", rep_w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "group", group)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a stability check with its certificate.

    An unstable verdict always carries a destabilizer whose recomputed weight
    is negative.
    """

    status: str
    certificate: dict


def torus_supports(pair: Pair) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Weight supports (sorted, deduplicated) of the nonzero coordinates."""
    if not pair.group.is_torus:
        raise ValueError("support extraction requires a torus group")
    if not isinstance(pair.rep_v, TorusWeights) or not isinstance(
        pair.rep_w, TorusWeights
    ):
        raise ValueError("torus pair operations need TorusWeights representations")
    supp_v = sorted({pair.rep_v.weights[i] for i, c in enumerate(pair.v) if c != 0})
    supp_w = sorted({pair.rep_w.weights[i] for i, c in enumerate(pair.w) if c != 0})
    return supp_v, supp_w


def point_in_hull(
    point: Sequence[int],
    support: Sequence[tuple[int, ...]],
    budget: Budget | int | None = None,
) -> list[Fraction] | None:
    """Convex coefficients writing the point over the support, or None when
    the support is empty or the point lies outside its hull.  The LP's
    pivots are charged to the budget when one is given."""
    if not support:
        return None
    k = len(point)
    a_eq = [[q[i] for q in support] for i in range(k)]
    a_eq.append([1] * len(support))
    b_eq = [point[i] for i in range(k)] + [1]
    res = linprog.solve_lp([0] * len(support), a_eq=a_eq, b_eq=b_eq, budget=budget)
    return res.x if res.status == linprog.OPTIMAL else None


def separating_exponents(
    point: Sequence[int], support: Sequence[tuple[int, ...]]
) -> list[int]:
    """Integer vector a with <a, point> strictly below min over the support.

    Exists exactly when the point is outside the hull; found by maximizing
    the separation margin over the unit box.
    """
    k = len(point)
    n = k + 1  # variables a_1..a_k and the level variable
    c = [point[i] for i in range(k)] + [-1]
    a_ub = []
    b_ub = []
    for q in support:  # level <= <a, q>
        a_ub.append([-q[i] for i in range(k)] + [1])
        b_ub.append(0)
    for i in range(k):  # the unit box: a_i <= 1 and -a_i <= 1
        for sign in (1, -1):
            a_ub.append([sign * (j == i) for j in range(n)])
            b_ub.append(1)
    res = linprog.solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[False] * n)
    if res.status != linprog.OPTIMAL or res.objective >= 0:
        raise ValueError("no separating exponent vector: point lies in the hull")
    a = primitive(res.x[:k])
    margin = min(sum(ai * qi for ai, qi in zip(a, q)) for q in support) - sum(
        ai * pi for ai, pi in zip(a, point)
    )
    if margin <= 0:
        raise AssertionError("separation lost under integer scaling")
    return a


def supports_semistable(
    supp_v: Sequence[tuple[int, ...]], supp_w: Sequence[tuple[int, ...]]
) -> tuple[bool, dict]:
    """Hull containment test on bare supports, with certificate data."""
    if not supp_v:
        raise ValueError("v-support must be nonempty")
    if not supp_w:
        return True, {"reason": "w = 0; the orbit closure stays inside P(V + 0)"}
    witnesses = []
    for chi in supp_w:
        lam = point_in_hull(chi, supp_v)
        if lam is None:
            a = separating_exponents(chi, supp_v)
            return False, {"exponents": a, "separated_weight": list(chi)}
        witnesses.append(
            {
                "weight": list(chi),
                "coefficients": [format_rational(x) for x in lam],
            }
        )
    return True, {
        "support_v": [list(q) for q in supp_v],
        "containment": witnesses,
    }


def torus_semistable(pair: Pair) -> Verdict:
    """Hull-containment semistability check for a torus pair.

    Unstable verdicts carry an integer exponent vector whose one-parameter
    subgroup is re-verified to have negative weight.
    """
    supp_v, supp_w = torus_supports(pair)
    ok, certificate = supports_semistable(supp_v, supp_w)
    if ok:
        return Verdict("semistable", certificate)
    a = certificate["exponents"]
    mu = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, Arc.one_ps(a))
    if not mu < 0:
        raise AssertionError("separating certificate failed re-verification")
    certificate = dict(certificate)
    certificate["mu"] = format_rational(mu)
    return Verdict("unstable", certificate)


def minkowski_power(
    support: Sequence[tuple[int, ...]], times: int
) -> set[tuple[int, ...]]:
    """times-fold Minkowski sum of a finite integer support with itself."""
    if times < 0:
        raise ValueError("negative Minkowski power")
    k = len(next(iter(support))) if support else 0
    acc = {tuple([0] * k)}
    for _ in range(times):
        acc = {tuple(x + y for x, y in zip(p, q)) for p in acc for q in support}
    return acc


def simplex_weights(d: int, m: int) -> list[tuple[int, ...]]:
    """Integer points of d times the standard simplex: weights of e tensor d."""
    out = []
    for cuts in itertools.combinations(range(d + m - 1), m - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(d + m - 2 - prev)
        out.append(tuple(parts))
    return sorted(set(out))


def associated_pair(pair: Pair, level: int) -> Pair:
    """The level-l auxiliary pair whose semistability defines stability at l.

    Its v-support is (points of deg(V) times the standard simplex) plus
    l-fold sums of the v-support; its w-support is (l+1)-fold sums of the
    w-support.  Coordinates are all ones on the deduplicated supports.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    supp_v, supp_w = torus_supports(pair)
    m = pair.rep_v.rank
    d = deg_of_rep(pair.rep_v, m)
    base = simplex_weights(d, m)
    v_powers = minkowski_power(supp_v, level)
    new_v = sorted(
        {tuple(b + s for b, s in zip(p, q)) for p in base for q in v_powers}
    )
    new_w = sorted(minkowski_power(supp_w, level + 1)) if supp_w else []
    if new_w:
        rep_w = TorusWeights(new_w)
        w_vec = [Fraction(1)] * len(new_w)
    else:
        rep_w = TorusWeights([tuple([0] * m)])
        w_vec = [Fraction(0)]
    return Pair(
        TorusWeights(new_v),
        rep_w,
        [Fraction(1)] * len(new_v),
        w_vec,
        pair.group,
    )


def candidate_rays(
    supports: Sequence[Sequence[tuple[int, ...]]], m: int
) -> list[tuple[int, ...]]:
    """Primitive integer vectors, sorted, that include both generators of
    every ray of the common refinement of the normal fans of the standard
    simplex and of hull(S) for each support S in R^m, for m = 1, 2 or 3.

    A cone of a normal fan is cut out by <a, e> >= 0 and <a, e> = 0 for edge
    directions e of its polytope, so a cone K of the refinement is too, with
    the edges of all the polytopes: differences of two points of one
    support, and the simplex's e_i - e_j.  K's lineality space lies in the
    simplex's, the line of (1, ..., 1), and a ray of K orthogonal to it is
    orthogonal to m - 1 independent vectors of the pool of those edges and
    (1, ..., 1).  So every such ray, and either direction of the lineality
    space, is up to sign the perpendicular (-y, x) of a pool vector (x, y)
    for m = 2 (e_1 - e_2 gives (1, 1)) and the cross product of two pool
    vectors for m = 3 (e_1 - e_2 and e_2 - e_3 give (1, 1, 1)); for m = 1
    the candidates are -1 and 1.  Most candidates are no ray of the fan.
    """
    if not 1 <= m <= 3:
        raise ValueError("candidate rays are enumerated for ranks 1 to 3 only")
    if m == 1:
        return [(-1,), (1,)]
    zero = (0,) * m
    pool = {(1,) * m}
    for support in ([tuple(int(k == i) for k in range(m)) for i in range(m)], *supports):
        for p, q in itertools.combinations(support, 2):
            e = [y - x for x, y in zip(p, q)]
            g = math.gcd(*e)
            if g:  # one primitive vector per line
                e = tuple(x // g for x in e)
                pool.add(e if e > zero else tuple(-x for x in e))
    if m == 2:
        normals = [(-y, x) for x, y in pool]
    else:
        normals = [
            (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
            for a, b in itertools.combinations(pool, 2)
        ]
    rays = set()
    for r in normals:
        g = math.gcd(*r)
        if g:
            r = tuple(x // g for x in r)
            rays.add(r)
            rays.add(tuple(-x for x in r))
    return sorted(rays)


def stability_interval(pair: Pair) -> tuple[Fraction | float, Fraction | float] | None:
    """The closed interval of c with mu(a) >= c * norm(a) for every exponent
    vector a, as (lo, hi) with -math.inf or math.inf for an open end and a
    Fraction for a finite one, or None when it is empty.

    Here mu(a) = min_W <a,.> - min_V <a,.> and norm(a) = min_V <a,.> -
    d * min_i a_i with d = deg(V).  The pair is semistable exactly when 0 lies
    in the interval and norm-gap stable at level l exactly when 1/(l+1) does.
    Its associated pair at l is semistable exactly when -1/(l+1) does, since
    minima add over the Minkowski sums d*simplex + l*supp v and (l+1)*supp w.
    With w = 0, mu is +infinity and the interval is the whole line.

    Otherwise mu and norm are linear on each cone of the refinement of the
    normal fans of hull(supp w), hull(supp v) and the standard simplex, so
    mu - c * norm is nonnegative everywhere exactly when it is on the
    generators of every cone.  Up to rank 3 those lie among `candidate_rays`
    (its docstring says why), and each candidate
    a gives a valid bound whether or not it is a ray: c <= mu(a) / norm(a)
    when norm(a) > 0, c >= mu(a) / norm(a) when norm(a) < 0, and none at all
    when norm(a) = 0 and mu(a) < 0.  From rank 4 on, where the candidates
    would come from the (m - 1)-subsets of the pool, the ends come from one
    Farkas system per cone (`_farkas_ends`).  Either way each finite end is
    re-verified at an exponent vector that attains it: the arc weight and
    norm of its one-parameter subgroup must agree with it.
    """
    supp_v, supp_w = torus_supports(pair)
    m = pair.rep_v.rank
    d = deg_of_rep(pair.rep_v, m)
    if not supp_w:
        return -math.inf, math.inf
    ends = (_ray_ends if m <= 3 else _farkas_ends)(supp_v, supp_w, m, d)
    if ends is None:
        return None
    for end, exponents in ends.values():
        arc = Arc.one_ps(exponents)
        ord_v = image_order(pair.rep_v, arc, pair.v)
        mu_a = mu_from_order(ord_v, pair.rep_w, pair.w, arc)
        if mu_a != end * norm_from_order(ord_v, d, arc):
            raise AssertionError("stability interval end failed re-verification")
    lo = ends[-1][0] if -1 in ends else -math.inf
    hi = ends[1][0] if 1 in ends else math.inf
    return lo, hi


def _ray_ends(supp_v, supp_w, m: int, d: int) -> dict | None:
    """The finite ends of the stability interval of a nonzero w at rank m <=
    3, keyed by side (-1 lower, 1 upper), each with the candidate ray that
    binds it; None when the interval is empty."""
    best = {}  # side -> (mu, norm, ray): the end mu / norm, norm of sign side
    for ray in candidate_rays((supp_v, supp_w), m):
        min_v = min([sum(map(operator.mul, ray, q)) for q in supp_v])
        mu = min([sum(map(operator.mul, ray, q)) for q in supp_w]) - min_v
        norm = min_v - d * min(ray)
        if not norm:
            if mu < 0:
                return None
            continue
        side = 1 if norm > 0 else -1
        old = best.get(side)
        # side * (mu / norm - old mu / old norm) < 0, cleared of denominators
        if old is None or side * (mu * old[1] - old[0] * norm) < 0:
            best[side] = mu, norm, ray
    ends = {side: (Fraction(mu, norm), ray) for side, (mu, norm, ray) in best.items()}
    if -1 in ends and 1 in ends and ends[-1][0] > ends[1][0]:
        return None
    return ends


def _farkas_ends(supp_v, supp_w, m: int, d: int) -> dict | None:
    """`_ray_ends` at any rank, each finite end with a primitive exponent
    vector that attains it, from one Farkas system per cone.

    Both mu and norm are linear on each cone K where chi_w, chi_v and
    coordinate i attain the three minima, cut out by rows r with r.a <= 0.
    By Farkas' lemma c is valid on K exactly when mu - c * norm lies in the
    dual cone of K, that is when sum lambda_r * r - c * norm = -mu for some
    lambda >= 0: one equation per coordinate.  The system is built once per
    cone, and after one phase 1 two objectives on its tableau give the
    greatest and the least c, K's ends of the interval; an unbounded
    objective leaves its end open and an infeasible system empties the
    interval.  Each finite end is re-verified on the first cone that attains
    it: by strong duality the primal LP min{mu : norm = side, a in K} has
    optimum side * end, and its minimizer, scaled to a primitive integer
    vector, is the end's exponent vector.
    """
    ends = {-1: -math.inf, 1: math.inf}  # the lower and the upper end
    binding = {}
    for chi_w, chi_v in itertools.product(supp_w, supp_v):
        mu = [chi_w[j] - chi_v[j] for j in range(m)]
        minima = [[chi_w[j] - q[j] for j in range(m)] for q in supp_w]
        minima += [[chi_v[j] - q[j] for j in range(m)] for q in supp_v]
        for i in range(m):
            cone = minima + [  # a_i <= a_k
                [(j == i) - (j == k) for j in range(m)] for k in range(m) if k != i
            ]
            norm = [chi_v[j] - d * (j == i) for j in range(m)]
            a_eq = [[r[j] for r in cone] + [-norm[j]] for j in range(m)]
            system = linprog.Tableau(
                len(cone) + 1, a_eq=a_eq, b_eq=[-x for x in mu],
                nonneg=[True] * len(cone) + [False],
            )
            for side in (1, -1):  # maximize, then minimize c
                res = system.minimize([0] * len(cone) + [-side])
                if res.status == linprog.INFEASIBLE:
                    return None
                if res.status == linprog.OPTIMAL:
                    end = -side * res.objective
                    if side * end < side * ends[side]:
                        ends[side], binding[side] = end, (mu, cone, norm)
            if ends[-1] > ends[1]:
                return None
    found = {}
    for side, (mu, cone, norm) in binding.items():
        end = ends[side]
        res = linprog.solve_lp(mu, cone, [0] * len(cone), [norm], [side], [False] * m)
        if res.status != linprog.OPTIMAL or side * res.objective != end:
            raise AssertionError("stability interval end failed primal re-verification")
        found[side] = end, primitive(res.x)
    return found


def sample_falsifier(
    pair: Pair, draws: int = 200, seed: int = 0
) -> tuple[Arc, Fraction] | None:
    """Seeded random search for an arc of negative weight.

    Draws up to `draws` products of diagonal t-power arcs and elementary
    matrices with small Laurent entries; returns the first destabilizer (with
    its weight) after re-verification, or None once every draw is spent.  A
    negative result is not a semistability proof for non-abelian groups.
    """
    if all(c == 0 for c in pair.w):
        return None
    rng = random.Random(seed)
    for _ in range(draws):
        arc = _draw_arc(pair.group, rng)
        mu = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, arc)
        if mu is not math.inf and mu < 0:
            if not check_arc(pair.group, arc):
                raise AssertionError("falsifier drew an arc outside the group")
            again = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, arc)
            if not again < 0:
                raise AssertionError("destabilizer failed re-verification")
            return arc, again
    return None


def _draw_arc(group: GroupPresentation, rng: random.Random) -> Arc:
    m = group.size
    if group.is_torus:
        return Arc.one_ps([rng.randint(-2, 2) for _ in range(m)])
    special = group.kind == "special-linear"
    # The product of one to three factors, each an elementary matrix or a
    # one-parameter subgroup, built from the identity by the column
    # operation that multiplying by the factor on the right performs, on
    # term dicts that become the arc's entries at the end.
    rows = [[{0: 1} if r == c else {} for c in range(m)] for r in range(m)]
    for _ in range(rng.randint(1, 3)):
        if m >= 2 and rng.randint(0, 1) == 0:
            i, j = rng.sample(range(m), 2)
            off = _random_laurent(rng).terms
            for row in rows:  # column j += off * column i
                _mul_into(row[j], row[i], off, operator.add)
        else:
            exps = [rng.randint(-2, 2) for _ in range(m)]
            if special:
                exps[-1] = -sum(exps[:-1])
            for row in rows:  # column k *= t^exps[k]
                row[:] = [{x + e: c for x, c in terms.items()} for terms, e in zip(row, exps)]
    return Arc([[LaurentPoly._trusted(terms) for terms in row] for row in rows])


def _random_laurent(rng: random.Random) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-2, 2)
        terms[rng.randint(-2, 2)] = coeff
    return LaurentPoly(terms)
