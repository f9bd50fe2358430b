"""The stability interval against the code it replaced.

`pairs.stable` used to decide every level l = 1..max_level twice: a hull test
on the associated pair (the Minkowski sums d*simplex + l*supp v and
(l+1)*supp w) and one norm-gap LP over the unit box for each cone of the
refined normal fan.  A copy of that code lives here, and the levels, least
levels, verdicts and certificates that `pairs.stable` now reads off one
interval must agree with it exactly.

The interval itself used to come from two primal LPs per cone,
min{mu : norm = +-1, a in the cone}, plus a third over the unit box for a
cone inside norm = 0.  A copy of that loop lives here too, and the Farkas
systems that replaced it must give the same interval on every pair.  Up to
rank 3 the interval is now read off candidate rays with no LP, and the
Farkas systems, which rank 4 and above still solve, are the reference for
the rays.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabkit import cli, linprog, pairs
from stabkit.cli import execute_job
from stabkit.groups import GroupPresentation, TorusWeights, deg_of_rep
from stabkit.pairs import (
    Pair,
    associated_pair,
    candidate_rays,
    point_in_hull,
    stability_interval,
    torus_semistable,
    torus_supports,
)


def old_torus_stable_at(pair, level):
    # the verdict of torus_semistable(associated_pair(pair, level)), without
    # the separating LP that an unstable verdict adds for its certificate
    supp_v, supp_w = torus_supports(associated_pair(pair, level))
    return all(point_in_hull(chi, supp_v) is not None for chi in supp_w)


def old_dr_stable_at(pair, level):
    supp_v, supp_w = torus_supports(pair)
    m = pair.rep_v.rank
    d = deg_of_rep(pair.rep_v, m)
    for chi_w in supp_w:
        for chi_v in supp_v:
            for i in range(m):
                if old_dr_cone_violation(supp_v, supp_w, chi_v, chi_w, i, d, level, m):
                    return False
    return True


def old_dr_cone_violation(supp_v, supp_w, chi_v, chi_w, i, d, level, m):
    c = [(level + 1) * (chi_w[j] - chi_v[j]) - chi_v[j] for j in range(m)]
    c[i] += d
    a_ub = []
    b_ub = []
    for q in supp_w:
        a_ub.append([chi_w[j] - q[j] for j in range(m)])
        b_ub.append(0)
    for q in supp_v:
        a_ub.append([chi_v[j] - q[j] for j in range(m)])
        b_ub.append(0)
    for j in range(m):
        if j == i:
            continue
        row = [0] * m
        row[i] = 1
        row[j] = -1
        a_ub.append(row)
        b_ub.append(0)
    for j in range(m):
        for sign in (1, -1):
            row = [0] * m
            row[j] = sign
            a_ub.append(row)
            b_ub.append(1)
    res = linprog.solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[False] * m)
    return res.status == linprog.OPTIMAL and res.objective < 0


def old_values(pair, top):
    """levels, least_stable_level and least_dr_level as the per-level loop
    computed them."""
    levels = {}
    least_assoc = least_dr = None
    for level in range(1, top + 1):
        assoc = old_torus_stable_at(pair, level)
        dr = old_dr_stable_at(pair, level)
        levels[str(level)] = {
            "associated": "stable-at-l" if assoc else "not-stable-at-l",
            "dr": "stable-at-l" if dr else "not-stable-at-l",
        }
        if assoc and least_assoc is None:
            least_assoc = level
        if dr and least_dr is None:
            least_dr = level
    return {
        "levels": levels,
        "least_stable_level": least_assoc,
        "least_dr_level": least_dr,
        "max_level": top,
    }


def weights(rank):
    # mixed scaling degrees: norm(a) < 0 occurs and gives a finite lower end
    return st.tuples(*[st.integers(min_value=0, max_value=3)] * rank).filter(any)


coordinates = st.sampled_from([0, 1, 1, 2, -1, "1/2"])


@st.composite
def pair_documents(draw, rank, top):
    weights_v = draw(st.lists(weights(rank), min_size=1, max_size=5))
    weights_w = draw(st.lists(weights(rank), min_size=1, max_size=3))
    v = draw(st.lists(coordinates, min_size=len(weights_v), max_size=len(weights_v)))
    if all(c == 0 for c in v):
        v[0] = 1
    w = draw(st.lists(coordinates, min_size=len(weights_w), max_size=len(weights_w)))
    payload = {
        "rank": rank,
        "weights_v": [list(q) for q in weights_v],
        "weights_w": [list(q) for q in weights_w],
        "v": v,
        "w": w,
        "max_level": draw(st.integers(min_value=1, max_value=top)),
    }
    return {"schema_version": 1, "kind": "pairs.stable", "payload": payload}


def check_against_per_level_loop(document):
    report = execute_job(document)
    pair = cli._pair_from_payload(document["payload"])
    expected = old_values(pair, document["payload"]["max_level"])
    assert report["values"] == expected
    least = expected["least_stable_level"]
    if least is None:
        assert report["verdict"] == "not-stable-at-l"
        assert report["certificate"] is None
    else:
        assert report["verdict"] == "stable-at-l"
        inner = torus_semistable(associated_pair(pair, least))
        assert report["certificate"] == cli._jsonable(inner.certificate)


@given(st.integers(min_value=1, max_value=2).flatmap(lambda r: pair_documents(r, 6)))
@settings(max_examples=300, deadline=None)
def test_levels_match_the_per_level_loop_up_to_rank_two(document):
    check_against_per_level_loop(document)


@given(pair_documents(3, 3))
@settings(max_examples=150, deadline=None)
def test_levels_match_the_per_level_loop_at_rank_three(document):
    check_against_per_level_loop(document)


def test_hull_test_disagreeing_with_the_interval_is_an_error(monkeypatch):
    # (3,1),(1,3) against (4,0) has interval (-inf, -1]: no associated pair is
    # semistable, so a wrong upper end of 0 claims level 1 falsely
    monkeypatch.setattr(cli, "stability_interval", lambda pair: (-1, Fraction(0)))
    document = {
        "schema_version": 1,
        "kind": "pairs.stable",
        "payload": {
            "rank": 2,
            "weights_v": [[3, 1], [1, 3]],
            "weights_w": [[4, 0]],
            "v": [1, 1],
            "w": [1],
        },
    }
    with pytest.raises(AssertionError, match="stability interval"):
        execute_job(document)



def old_primal_interval(pair):
    """The interval from two primal LPs per cone and the unit-box LP."""
    supp_v, supp_w = torus_supports(pair)
    m = pair.rep_v.rank
    d = deg_of_rep(pair.rep_v, m)
    lo, hi = -math.inf, math.inf
    for chi_w in supp_w:
        for chi_v in supp_v:
            mu = [chi_w[j] - chi_v[j] for j in range(m)]
            minima = [[chi_w[j] - q[j] for j in range(m)] for q in supp_w]
            minima += [[chi_v[j] - q[j] for j in range(m)] for q in supp_v]
            for i in range(m):
                cone = minima + [
                    [(j == i) - (j == k) for j in range(m)] for k in range(m) if k != i
                ]
                norm = [chi_v[j] - d * (j == i) for j in range(m)]
                feasible = False
                for side in (1, -1):
                    res = linprog.solve_lp(
                        mu, cone, [0] * len(cone), [norm], [side], [False] * m
                    )
                    if res.status == linprog.UNBOUNDED:
                        return None
                    if res.status == linprog.OPTIMAL:
                        feasible = True
                        if side == 1:
                            hi = min(hi, res.objective)
                        else:
                            lo = max(lo, -res.objective)
                if not feasible:
                    box = [[s * (j == k) for j in range(m)] for k in range(m) for s in (1, -1)]
                    res = linprog.solve_lp(
                        mu, cone + box, [0] * len(cone) + [1] * len(box), [norm], [0],
                        [False] * m,
                    )
                    if res.objective < 0:
                        return None
                if lo > hi:
                    return None
    return lo, hi


def torus_pair(weights_v, weights_w, v=None, w=None):
    rank = len(weights_v[0])
    return Pair(
        TorusWeights(weights_v),
        TorusWeights(weights_w),
        v if v is not None else [1] * len(weights_v),
        w if w is not None else [1] * len(weights_w),
        GroupPresentation(rank, "torus"),
    )


def farkas_interval(pair):
    """`stability_interval` with the Farkas systems at every rank, as it
    was before rank 3 and below went to the candidate rays."""
    supp_v, supp_w = torus_supports(pair)
    m = pair.rep_v.rank
    d = deg_of_rep(pair.rep_v, m)
    if not supp_w:
        return -math.inf, math.inf
    ends = pairs._farkas_ends(supp_v, supp_w, m, d)
    if ends is None:
        return None
    return tuple(ends[side][0] if side in ends else side * math.inf for side in (-1, 1))


def outcome(interval, pair):
    """interval(pair), or the message of the ValueError it raises."""
    try:
        return interval(pair)
    except ValueError as exc:
        return ("raised", str(exc))


@st.composite
def torus_pairs(draw):
    # mixed coordinate sums on V, so norm takes both signs, and negative
    # weights on W (V has a scaling degree only without them); zero
    # coordinates shrink the supports and w may vanish altogether
    rank = draw(st.integers(min_value=1, max_value=4))
    weight_w = st.tuples(*[st.integers(min_value=-1, max_value=3)] * rank)
    weights_v = draw(st.lists(weights(rank), min_size=1, max_size=4))
    weights_w = draw(st.lists(weight_w, min_size=1, max_size=3))
    v = draw(st.lists(coordinates, min_size=len(weights_v), max_size=len(weights_v)))
    if all(c == 0 for c in v):
        v[0] = 1
    w = draw(st.lists(coordinates, min_size=len(weights_w), max_size=len(weights_w)))
    return torus_pair(weights_v, weights_w, [Fraction(c) for c in v], [Fraction(c) for c in w])


@given(torus_pairs())
@settings(max_examples=300, deadline=None)
# empty: every cone lies in norm = 0 and mu < 0 there
@example(torus_pair([(2,)], [(1,)]))
# empty: a > 0 needs c >= -3/2 and a < 0 needs c <= -2
@example(torus_pair([(3,), (2,), (1,)], [(4,)], [0, 1, 1]))
# bounded above only, and bounded below only
@example(torus_pair([(3, 1), (1, 3)], [(2, 2)]))
@example(torus_pair([(2,), (1,)], [(1,)]))
# a point
@example(torus_pair([(3,), (1,)], [(2,)], [0, 1]))
@example(torus_pair([(2, 3, 3), (0, 1, 0), (0, 2, 2)], [(0, 2, 0), (1, 3, 2)]))
# w = 0
@example(torus_pair([(3, 1), (1, 3)], [(4, 0)], w=[0]))
def test_farkas_interval_matches_the_primal_loop(pair):
    assert farkas_interval(pair) == old_primal_interval(pair)


@st.composite
def low_rank_pairs(draw):
    """Rank 1-3 pairs: v-weights of mixed coordinate sums, so norm takes both
    signs, and now and then a zero or negative one, which leaves V without a
    scaling degree; negative w-weights; repeated weights; zero coordinates
    in v, and w now and then zero altogether."""
    rank = draw(st.integers(min_value=1, max_value=3))
    entry_v = st.sampled_from([0, 1, 2, 3] * 6 + [-1])
    weights_v = draw(st.lists(st.tuples(*[entry_v] * rank), min_size=1, max_size=5))
    weight_w = st.tuples(*[st.integers(min_value=-1, max_value=3)] * rank)
    weights_w = draw(st.lists(weight_w, min_size=1, max_size=3))
    v = draw(st.lists(coordinates, min_size=len(weights_v), max_size=len(weights_v)))
    if all(c == 0 for c in v):
        v[0] = 1
    w = draw(st.lists(coordinates, min_size=len(weights_w), max_size=len(weights_w)))
    return torus_pair(weights_v, weights_w, [Fraction(c) for c in v], [Fraction(c) for c in w])


@given(low_rank_pairs())
@settings(max_examples=400, deadline=None)
# w = 0
@example(torus_pair([(3, 1), (1, 3)], [(4, 0)], w=[0]))
@example(torus_pair([(1, 1, 1)], [(0, 0, 3)], w=[0]))
# no scaling degree: the zero weight, and a negative coordinate, even off
# the support, with w = 0 too
@example(torus_pair([(2, 1), (0, 0)], [(1, 2)]))
@example(torus_pair([(2, 1), (3, -1)], [(1, 2)], [1, 0]))
@example(torus_pair([(1, 0, 2), (0, 0, 0)], [(1, 1, 1)], w=[0]))
# rank 1: bounded below only, and a point
@example(torus_pair([(2,), (1,)], [(1,)]))
@example(torus_pair([(3,), (1,)], [(2,)], [0, 1]))
# one-point supports
@example(torus_pair([(2, 2)], [(2, 2)]))
@example(torus_pair([(1, 2, 0)], [(0, 1, 2)]))
# collinear supports, at rank 2 always and at rank 3 on one line
@example(torus_pair([(0, 4), (1, 3), (3, 1)], [(2, 2), (4, 0)]))
@example(torus_pair([(3, 0, 0), (2, 1, 0), (0, 3, 0)], [(1, 2, 0)]))
@example(torus_pair([(2, 0, 1), (1, 1, 1), (0, 2, 1)], [(1, 1, 1), (2, 0, 1)]))
# repeated weights
@example(torus_pair([(1, 3), (1, 3), (3, 1)], [(2, 2), (2, 2)]))
@example(torus_pair([(2, 1, 0), (2, 1, 0), (0, 1, 2)], [(1, 1, 1), (1, 1, 1)], [1, 2, 1]))
# zero v-coordinates
@example(torus_pair([(3,), (2,), (1,)], [(4,)], [0, 1, 1]))
@example(torus_pair([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)], [(2, 2)], [1, 0, 0, 0, 1]))
# a point interval: [-1/7, -1/7]
@example(torus_pair([(2, 3, 3), (0, 1, 0), (0, 2, 2)], [(0, 2, 0), (1, 3, 2)]))
# emptied by norm = 0 and mu < 0: on the whole line, and on the ray (1, 1)
@example(torus_pair([(2,)], [(1,)]))
@example(torus_pair([(4, 0)], [(3, 0)]))
def test_rays_give_the_farkas_interval_up_to_rank_three(pair):
    assert outcome(stability_interval, pair) == outcome(farkas_interval, pair)


def test_rays_give_the_farkas_interval_on_every_rank_two_pair_of_degree_four():
    # every v-support and w-support (w = 0 included) within the five weights
    # (a, 4 - a), that is the binary quartics' torus pairs
    points = [(a, 4 - a) for a in range(5)]
    subsets = [
        [q for k, q in enumerate(points) if mask >> k & 1] for mask in range(1 << len(points))
    ]
    seen = set()
    for supp_v in subsets[1:]:
        for supp_w in subsets:
            pair = torus_pair(supp_v, supp_w or [(4, 0)], w=None if supp_w else [0])
            interval = stability_interval(pair)
            assert interval == farkas_interval(pair), (supp_v, supp_w)
            seen.add(interval if interval is None else tuple(map(str, interval)))
    assert len(subsets) == 32
    assert len(seen) > 10


def test_a_ray_interval_builds_no_tableau(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(linprog.Tableau, "__init__", refused)
    rank_three = torus_pair([(2, 3, 3), (0, 1, 0), (0, 2, 2)], [(0, 2, 0), (1, 3, 2)])
    assert stability_interval(rank_three) == (Fraction(-1, 7), Fraction(-1, 7))
    assert stability_interval(torus_pair([(3, 1), (1, 3)], [(2, 2)])) == (-math.inf, 1)
    assert stability_interval(torus_pair([(3,), (1,)], [(2,)], [0, 1])) == (
        Fraction(-1, 2),
        Fraction(-1, 2),
    )
    assert stability_interval(torus_pair([(2,)], [(1,)])) is None
    with pytest.raises(AssertionError, match="tableau"):
        stability_interval(torus_pair([(0, 0, 0, 2), (0, 3, 0, 3)], [(0, 2, 2, 2)]))


@pytest.mark.parametrize(
    "pair",
    [
        torus_pair([(3, 1), (1, 3)], [(2, 2)]),
        torus_pair([(2,), (1,)], [(1,)]),
        torus_pair([(2, 3, 3), (0, 1, 0), (0, 2, 2)], [(0, 2, 0), (1, 3, 2)]),
    ],
    ids=["upper-end", "lower-end", "both-ends"],
)
def test_a_binding_ray_whose_arc_weight_disagrees_fails_reverification(monkeypatch, pair):
    mu_from_order = pairs.mu_from_order
    monkeypatch.setattr(pairs, "mu_from_order", lambda *args: mu_from_order(*args) + 1)
    with pytest.raises(AssertionError, match="stability interval end failed re-verification"):
        stability_interval(pair)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_candidate_rays_are_primitive_and_come_in_opposite_pairs(m):
    supports = ([(3, 0, 0)[:m], (1, 1, 1)[:m], (0, 2, 2)[:m]], [(2, 2, 0)[:m]])
    rays = candidate_rays(supports, m)
    assert rays == sorted(set(rays))
    assert {tuple(-x for x in r) for r in rays} == set(rays)
    assert all(len(r) == m and math.gcd(*r) == 1 for r in rays)
    assert (1,) * m in rays


@pytest.mark.parametrize("m", [0, 4])
def test_candidate_rays_stop_at_rank_three(m):
    with pytest.raises(ValueError, match="ranks 1 to 3"):
        candidate_rays([[(1,) * m]], m)


@pytest.fixture
def pivots(monkeypatch):
    """The pivot count of each objective minimized, in order.

    `solve_lp` is one `Tableau.minimize`, so counting that method counts the
    Farkas systems, which minimize two objectives on one tableau, and every
    primal LP alike.
    """
    minimize = linprog.Tableau.minimize
    counts = []

    def counting(self, c):
        res = minimize(self, c)
        counts.append(res.pivots)
        return res

    monkeypatch.setattr(linprog.Tableau, "minimize", counting)
    return counts


def pivots_of(counts, interval, pair):
    counts.clear()
    interval(pair)
    return sum(counts)


# Rank 4 is the lowest at which `stability_interval` solves Farkas systems;
# below it they are solved by calling the Farkas route directly.
RANK_FOUR = torus_pair([(0, 0, 0, 2), (0, 3, 0, 3)], [(0, 2, 2, 2)])
LP_PINS = [
    (farkas_interval, torus_pair([(1, 3), (3, 1)], [(2, 2)])),
    (farkas_interval, torus_pair([(2, 3, 3), (0, 1, 0), (0, 2, 2)], [(0, 2, 0), (1, 3, 2)])),
    (stability_interval, RANK_FOUR),
]


@pytest.mark.parametrize(
    "interval, pair, farkas, primal",
    [(*pin, farkas, primal) for pin, farkas, primal in zip(LP_PINS, (16, 145, 59), (55, 431, 129))],
    ids=["rank-2", "rank-3", "rank-4"],
)
def test_farkas_systems_pivot_less_than_the_primal_loop(pivots, interval, pair, farkas, primal):
    # each primal LP has a row and an artificial per cone row; a Farkas
    # system has one row per coordinate and one phase 1 for both of its
    # objectives, and at most two primal LPs re-verify the ends
    assert pivots_of(pivots, interval, pair) == farkas
    assert pivots_of(pivots, old_primal_interval, pair) == primal


@pytest.mark.parametrize(
    "interval, pair, cones, ends",
    [(*pin, cones, ends) for pin, cones, ends in zip(LP_PINS, (4, 18, 8), (1, 2, 2))],
    ids=["rank-2", "rank-3", "rank-4"],
)
def test_each_cone_builds_one_system_and_runs_phase_1_once(
    monkeypatch, interval, pair, cones, ends
):
    # every tableau here has equality rows, so each runs phase 1; the primal
    # LP re-verifying a finite end is one more tableau with one objective
    calls = {"built": 0, "phase 1": 0, "objectives": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name, attr in (("built", "__init__"), ("phase 1", "_phase1"), ("objectives", "minimize")):
        monkeypatch.setattr(linprog.Tableau, attr, counted(name, getattr(linprog.Tableau, attr)))
    interval(pair)
    assert calls == {"built": cones + ends, "phase 1": cones + ends, "objectives": 2 * cones + ends}


def test_a_witness_disagreeing_with_its_farkas_end_fails_reverification(monkeypatch):
    # only the primal witness LPs have inequality rows; shift their optimum
    solve_lp = linprog.solve_lp

    def shifted(c, a_ub=(), *args, **kwargs):
        res = solve_lp(c, a_ub, *args, **kwargs)
        if a_ub and res.status == linprog.OPTIMAL:
            res = dataclasses.replace(res, objective=res.objective + 1)
        return res

    assert stability_interval(RANK_FOUR) == (-1, Fraction(-1, 3))
    monkeypatch.setattr(linprog, "solve_lp", shifted)
    with pytest.raises(AssertionError, match="primal re-verification"):
        stability_interval(RANK_FOUR)
