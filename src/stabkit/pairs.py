"""Semistability and stability certificates for pairs of representation vectors.

For torus groups everything reduces to exact polyhedral geometry on the weight
supports: a pair is semistable exactly when the hull of the w-support sits
inside the hull of the v-support, and the level-l conditions are containments
between Minkowski sums.  Every verdict carries a certificate that is
re-verified through the arc-weight machinery before being returned.  For
non-abelian groups only a seeded randomized falsifier is offered.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linprog
from .algebra.laurent import LaurentPoly
from .algebra.parser import format_rational
from .groups import (
    Arc,
    GroupPresentation,
    MatrixAction,
    Representation,
    TorusWeights,
    arc_norm,
    check_arc,
    deg_of_rep,
    mu_weight,
    point_in_hull,  # noqa: F401 - kept importable as pairs.point_in_hull
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
        v = tuple(Fraction(c) for c in v)
        w = tuple(Fraction(c) for c in w)
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

    An unstable or not-stable verdict always carries a destabilizer whose
    recomputed weight violates the inequality in question.
    """

    status: str
    certificate: dict
    level: int | None = None


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


def _barycentric_lp(
    point: Sequence[int], support: Sequence[tuple[int, ...]]
) -> list[Fraction] | None:
    """Convex coefficients writing the point over the support, or None."""
    k = len(point)
    a_eq = [[q[i] for q in support] for i in range(k)]
    a_eq.append([1] * len(support))
    b_eq = [point[i] for i in range(k)] + [1]
    res = linprog.solve_lp([0] * len(support), a_eq=a_eq, b_eq=b_eq)
    return res.x if res.status == linprog.OPTIMAL else None


def barycentric_witness(
    point: Sequence[int], support: Sequence[tuple[int, ...]]
) -> list[Fraction]:
    """Convex coefficients writing the point over the support, or error."""
    lam = _barycentric_lp(point, support)
    if lam is None:
        raise ValueError("point is not inside the hull of the support")
    return lam


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
    for i in range(k):  # -1 <= a_i <= 1
        row_hi = [0] * n
        row_hi[i] = 1
        a_ub.append(row_hi)
        b_ub.append(1)
        row_lo = [0] * n
        row_lo[i] = -1
        a_ub.append(row_lo)
        b_ub.append(1)
    res = linprog.solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[False] * n)
    if res.status != linprog.OPTIMAL or res.objective >= 0:
        raise ValueError("no separating exponent vector: point lies in the hull")
    a = linprog._primitive(res.x[:k])
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
        lam = _barycentric_lp(chi, supp_v)
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


def torus_stable_at(pair: Pair, level: int) -> Verdict:
    """Stability at the given level via the associated pair's semistability."""
    inner = torus_semistable(associated_pair(pair, level))
    status = "stable-at-l" if inner.status == "semistable" else "not-stable-at-l"
    return Verdict(status, inner.certificate, level=level)


def dr_stable_at(pair: Pair, level: int) -> Verdict:
    """Norm-gap stability at level l: mu >= norm/(l+1) for every arc.

    Both sides are piecewise-linear in the exponent vector a, so the check
    refines the normal fans of the two supports together with the coordinate
    fan and solves one exact LP per cone of the refinement.  A failing cone
    yields a rational a, scaled to a primitive integer certificate and
    re-verified through mu_weight and arc_norm.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    supp_v, supp_w = torus_supports(pair)
    m = pair.rep_v.rank
    d = deg_of_rep(pair.rep_v, m)
    if not supp_w:
        return Verdict(
            "stable-at-l",
            {"reason": "w = 0; the weight is +infinity for every arc"},
            level=level,
        )
    cones = 0
    for chi_w in supp_w:
        for chi_v in supp_v:
            for i in range(m):
                cones += 1
                a = _dr_cone_violation(supp_v, supp_w, chi_v, chi_w, i, d, level, m)
                if a is None:
                    continue
                cert = _verify_dr_violation(pair, a, d, level)
                return Verdict("not-stable-at-l", cert, level=level)
    return Verdict("stable-at-l", {"cones_checked": cones}, level=level)


def _dr_cone_violation(supp_v, supp_w, chi_v, chi_w, i, d, level, m):
    """Minimize the level-l gap on one cone; an exponent vector on failure.

    The cone fixes which support points and which coordinate attain the three
    minima; the gap (l+1)(<a,chi_w> - <a,chi_v>) - <a,chi_v> + d*a_i is then
    linear, and negativity somewhere is equivalent to negativity over the unit
    box by homogeneity.
    """
    c = [(level + 1) * (chi_w[j] - chi_v[j]) - chi_v[j] for j in range(m)]
    c[i] += d
    a_ub = []
    b_ub = []
    for q in supp_w:  # <a, chi_w> <= <a, q>
        a_ub.append([chi_w[j] - q[j] for j in range(m)])
        b_ub.append(0)
    for q in supp_v:
        a_ub.append([chi_v[j] - q[j] for j in range(m)])
        b_ub.append(0)
    for j in range(m):  # a_i <= a_j
        if j == i:
            continue
        row = [0] * m
        row[i] = 1
        row[j] = -1
        a_ub.append(row)
        b_ub.append(0)
    for j in range(m):  # unit box
        hi = [0] * m
        hi[j] = 1
        a_ub.append(hi)
        b_ub.append(1)
        lo = [0] * m
        lo[j] = -1
        a_ub.append(lo)
        b_ub.append(1)
    res = linprog.solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[False] * m)
    if res.status != linprog.OPTIMAL or res.objective >= 0:
        return None
    return linprog._primitive(res.x)


def _verify_dr_violation(pair: Pair, a: list[int], d: int, level: int) -> dict:
    arc = Arc.one_ps(a)
    mu = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, arc)
    norm = arc_norm(pair.rep_v, pair.v, arc)
    if not mu < Fraction(norm, level + 1):
        raise AssertionError("cone certificate failed re-verification")
    return {
        "exponents": a,
        "mu": format_rational(mu),
        "norm": format_rational(norm),
        "bound": format_rational(Fraction(norm, level + 1)),
    }


def sample_falsifier(
    pair: Pair, budget: int = 200, seed: int = 0
) -> tuple[Arc, Fraction] | None:
    """Seeded random search for an arc of negative weight.

    Draws products of diagonal t-power arcs and elementary matrices with
    small Laurent entries; returns the first destabilizer (with its weight)
    after re-verification, or None once the budget is spent.  A negative
    result is not a semistability proof for non-abelian groups.
    """
    label = pair.group.label
    if not (
        pair.group.is_torus
        or label.startswith("special-linear")
        or label.startswith("general-linear")
    ):
        raise ValueError(f"unsupported group for falsification: {label}")
    if all(c == 0 for c in pair.w):
        return None
    rng = random.Random(seed)
    for _ in range(budget):
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
    special = group.label.startswith("special-linear")
    arc = Arc.identity(m)
    for _ in range(rng.randint(1, 3)):
        if m >= 2 and rng.randint(0, 1) == 0:
            i, j = rng.sample(range(m), 2)
            arc = arc @ Arc.elementary(m, i, j, _random_laurent(rng))
        else:
            exps = [rng.randint(-2, 2) for _ in range(m)]
            if special:
                exps[-1] = -sum(exps[:-1])
            arc = arc @ Arc.one_ps(exps)
    return arc


def _random_laurent(rng: random.Random) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-2, 2)
        terms[rng.randint(-2, 2)] = Fraction(coeff)
    return LaurentPoly(terms)
