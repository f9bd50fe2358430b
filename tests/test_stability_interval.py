"""The stability interval against the per-level tests it replaced.

`pairs.stable` used to decide every level l = 1..max_level twice: a hull test
on the associated pair (the Minkowski sums d*simplex + l*supp v and
(l+1)*supp w) and one norm-gap LP over the unit box for each cone of the
refined normal fan.  A copy of that code lives here, and the levels, least
levels, verdicts and certificates that `pairs.stable` now reads off one
interval must agree with it exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import cli, linprog
from stabkit.cli import execute_job
from stabkit.groups import deg_of_rep
from stabkit.pairs import associated_pair, point_in_hull, torus_semistable, torus_supports


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

