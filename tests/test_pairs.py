"""Pair semistability, level stability, and the randomized falsifier."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arc_helpers import arc_norm, arc_product, elementary_arc, identity_arc

from stabkit import linprog
from stabkit.groups import (
    Arc,
    GroupPresentation,
    TorusWeights,
    mu_weight,
    sym_action,
)
from stabkit.algebra.multipoly import primitive
from stabkit.pairs import (
    Pair,
    _draw_arc,
    _random_laurent,
    associated_pair,
    minkowski_power,
    point_in_hull,
    sample_falsifier,
    separating_exponents,
    simplex_weights,
    stability_interval,
    supports_semistable,
    torus_semistable,
    torus_supports,
)

T1 = GroupPresentation(1, "torus")
T2 = GroupPresentation(2, "torus")


def torus_pair(weights_v, weights_w, v=None, w=None, rank=None):
    rank = rank if rank is not None else len(weights_v[0])
    group = T1 if rank == 1 else GroupPresentation(rank, "torus")
    v = v if v is not None else [1] * len(weights_v)
    w = w if w is not None else [1] * len(weights_w)
    return Pair(TorusWeights(weights_v), TorusWeights(weights_w), v, w, group)


def box_exponents(rank, radius):
    if rank == 1:
        return [(a,) for a in range(-radius, radius + 1)]
    return [
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
    ]


def brute_force_semistable(pair, radius=12):
    """1-PS sweep over an exponent box.

    Exhaustive for weights in [-3, 3]^2: a strict separator can be taken as
    the sum of two rotated difference vectors, so entries stay within 12.
    """
    supp_v, supp_w = torus_supports(pair)
    if not supp_w:
        return True
    for a in box_exponents(pair.rep_v.rank, radius):
        lo_v = min(sum(x * y for x, y in zip(a, chi)) for chi in supp_v)
        lo_w = min(sum(x * y for x, y in zip(a, chi)) for chi in supp_w)
        if lo_w < lo_v:
            return False
    return True


weight_lists = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)),
    min_size=1,
    max_size=4,
)
# scaling degrees exist only for nonnegative weights with positive sum
graded_weight_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)).filter(
        lambda w: sum(w) > 0
    ),
    min_size=1,
    max_size=3,
)
# v-weights of one degree d, (a, d - a): then norm(a) >= 0 for every 1-PS
one_degree_weight_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(
        st.integers(min_value=0, max_value=d).map(lambda a: (a, d - a)), min_size=1, max_size=3
    )
)


def holds(interval, c):
    """Whether c lies in a stability interval; None is the empty one."""
    return interval is not None and interval[0] <= c <= interval[1]


class TestPairValidation:
    def test_zero_v_rejected(self):
        with pytest.raises(ValueError):
            torus_pair([(1,)], [(0,)], v=[0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            torus_pair([(1,), (2,)], [(0,)], v=[1])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Pair(TorusWeights([(1, 2)]), TorusWeights([(0, 0)]), [1], [1], T1)

    @pytest.mark.parametrize("where", ["v", "w"])
    def test_float_coordinates_are_refused(self, where):
        coords = {"v": [1, Fraction(1, 10)], "w": [2]}
        coords[where] = [0.1] * len(coords[where])
        with pytest.raises(TypeError, match=r"^float coefficient 0.1; pass an int or a Fraction$"):
            torus_pair([(1,), (2,)], [(0,)], **coords)

    def test_exact_coordinates_are_fractions(self):
        pair = torus_pair([(1,), (2,)], [(0,)], v=[1, Fraction(1, 10)], w=["2/3"])
        assert pair.v == (Fraction(1), Fraction(1, 10)) and pair.w == (Fraction(2, 3),)
        assert all(type(c) is Fraction for c in pair.v + pair.w)

    def test_supports_drop_zero_coordinates(self):
        pair = torus_pair([(1,), (2,), (1,)], [(5,)], v=[1, 0, 2], w=[0])
        supp_v, supp_w = torus_supports(pair)
        assert supp_v == [(1,)]
        assert supp_w == []


class TestWitnessHelpers:
    def test_integerize(self):
        # separating exponents are scaled to primitive integers by the
        # kernel's one scaler
        assert primitive([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
        assert primitive([Fraction(2), Fraction(4)]) == [1, 2]
        assert primitive([Fraction(0), Fraction(0)]) == [0, 0]
        assert primitive([Fraction(-1, 2)]) == [-1]
        assert primitive([-6, Fraction(9, 2), 0]) == [-4, 3, 0]
        assert primitive({"a": 4, "b": Fraction(-2, 3)}.values()) == [6, -1]

    def test_barycentric_witness(self):
        lam = point_in_hull((1, 1), [(0, 0), (2, 0), (0, 2)])
        assert lam == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
        assert point_in_hull((3, 3), [(0, 0), (2, 0), (0, 2)]) is None
        assert point_in_hull((0, 0), []) is None

    def test_separating_exponents(self):
        a = separating_exponents((3, 3), [(0, 0), (2, 0), (0, 2)])
        lo = min(a[0] * q[0] + a[1] * q[1] for q in [(0, 0), (2, 0), (0, 2)])
        assert a[0] * 3 + a[1] * 3 < lo
        with pytest.raises(ValueError):
            separating_exponents((1, 1), [(0, 0), (2, 0), (0, 2)])

    @given(weight_lists, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=60, deadline=None)
    def test_separation_dichotomy(self, supp, point):
        if point_in_hull(point, supp):
            lam = point_in_hull(point, supp)
            assert sum(lam) == 1
            assert all(x >= 0 for x in lam)
            for i in range(2):
                assert sum(l * q[i] for l, q in zip(lam, supp)) == point[i]
        else:
            a = separating_exponents(point, supp)
            lo = min(sum(x * y for x, y in zip(a, q)) for q in supp)
            assert sum(x * y for x, y in zip(a, point)) < lo


class TestSemistability:
    def test_hull_membership_goldens(self):
        ok, cert = supports_semistable([(0,), (2,)], [(1,)])
        assert ok
        assert cert["containment"][0]["coefficients"] == ["1/2", "1/2"]
        ok, cert = supports_semistable([(4,), (2,)], [(0,)])
        assert not ok
        assert cert["separated_weight"] == [0]

    def test_w_zero_is_semistable(self):
        verdict = torus_semistable(torus_pair([(1,)], [(7,)], w=[0]))
        assert verdict.status == "semistable"
        assert "reason" in verdict.certificate

    def test_quartic_monomials(self):
        # x^i y^(4-i) paired against the invariant weight 0
        for i in range(5):
            pair = torus_pair([(2 * i - 4,)], [(0,)])
            verdict = torus_semistable(pair)
            assert (verdict.status == "semistable") == (i == 2)

    def test_unstable_certificate_reverifies(self):
        pair = torus_pair([(4,), (2,)], [(0,)], v=[-1, 1])
        verdict = torus_semistable(pair)
        assert verdict.status == "unstable"
        assert verdict.certificate["exponents"] == [1]
        assert verdict.certificate["mu"] == "-2"

    @given(weight_lists, weight_lists)
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, wv, ww):
        pair = torus_pair(wv, ww)
        verdict = torus_semistable(pair)
        assert (verdict.status == "semistable") == brute_force_semistable(pair)
        if verdict.status == "unstable":
            a = verdict.certificate["exponents"]
            mu = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, Arc.one_ps(a))
            assert mu < 0


class TestLevels:
    def test_minkowski_power(self):
        assert minkowski_power([(0,), (1,)], 2) == {(0,), (1,), (2,)}
        assert minkowski_power([(1, 1)], 0) == {(0, 0)}
        with pytest.raises(ValueError):
            minkowski_power([(1,)], -1)

    def test_simplex_weights(self):
        assert simplex_weights(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert simplex_weights(1, 3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        for d, m in ((3, 2), (2, 3), (4, 2)):
            pts = simplex_weights(d, m)
            assert all(sum(p) == d for p in pts)
            assert len(pts) == len(set(pts))

    def test_associated_pair_supports(self):
        pair = torus_pair([(2, 2)], [(2, 2)])
        assoc = associated_pair(pair, 1)
        assert assoc.rep_v.weights == (
            (2, 6),
            (3, 5),
            (4, 4),
            (5, 3),
            (6, 2),
        )
        assert assoc.rep_w.weights == ((4, 4),)
        with pytest.raises(ValueError):
            associated_pair(pair, 0)

    def test_associated_pair_w_zero(self):
        pair = torus_pair([(1, 0)], [(0, 0)], w=[0])
        assoc = associated_pair(pair, 2)
        assert assoc.w == (Fraction(0),)

    def test_stable_pair_at_level_one(self):
        pair = torus_pair([(3, 1), (1, 3)], [(2, 2)])
        interval = stability_interval(pair)
        assert holds(interval, Fraction(-1, 2))
        assert holds(interval, Fraction(1, 2))

    def test_unstable_pair_at_every_level(self):
        pair = torus_pair([(3, 1), (1, 3)], [(4, 0)])
        interval = stability_interval(pair)
        for level in (1, 2, 3):
            assert not holds(interval, Fraction(-1, level + 1))
            assert not holds(interval, Fraction(1, level + 1))

    def test_norm_gap_discrepancy(self):
        # mu = 0 < norm/(l+1) along skew directions, yet every associated
        # pair is semistable: the two level notions genuinely differ here
        pair = torus_pair([(2, 2)], [(2, 2)])
        interval = stability_interval(pair)
        for level in (1, 2, 3, 4):
            assert holds(interval, Fraction(-1, level + 1))
            assert not holds(interval, Fraction(1, level + 1))
        a = (1, -1)  # mu = 0 and norm = 4 along this 1-PS
        assert mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, Arc.one_ps(a)) == 0
        assert arc_norm(pair.rep_v, pair.v, Arc.one_ps(a)) == 4

    def test_w_zero_is_dr_stable(self):
        pair = torus_pair([(1, 0)], [(0, 0)], w=[0])
        assert stability_interval(pair) == (-math.inf, math.inf)

    @pytest.mark.parametrize(
        "weights_v, weights_w, v, w, expected",
        [
            ([(3, 1), (1, 3)], [(2, 2)], None, None, (-math.inf, 1)),
            ([(3, 1), (1, 3)], [(4, 0)], None, None, (-math.inf, -1)),
            ([(2, 2)], [(2, 2)], None, None, (-math.inf, 0)),
            # mu = 0 and norm = -a for a >= 0, mu = -a and norm = 0 for a < 0:
            # norm-gap stable at every level, associated-stable at none
            ([(2,), (1,)], [(1,)], None, None, (0, math.inf)),
            # norm = 0 and mu = -a everywhere: every cone lies in norm = 0
            ([(2,)], [(1,)], None, None, None),
            ([(2,)], [(2,)], None, None, (-math.inf, math.inf)),
            # supp v = {1}, d = 3: mu = a and norm = -2a on both sides of 0,
            # so only level 1 is associated-stable
            ([(3,), (1,)], [(2,)], [0, 1], None, (Fraction(-1, 2), Fraction(-1, 2))),
            # supp v = {2, 1}, d = 3: a > 0 needs c >= -3/2 and a < 0 needs
            # c <= -2, each bound by a feasible LP
            ([(3,), (2,), (1,)], [(4,)], [0, 1, 1], None, None),
            ([(3, 1), (1, 3)], [(4, 0)], None, [0], (-math.inf, math.inf)),
        ],
    )
    def test_hand_derived_intervals(self, weights_v, weights_w, v, w, expected):
        assert stability_interval(torus_pair(weights_v, weights_w, v, w)) == expected

    @given(one_degree_weight_lists, weight_lists, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_dr_implies_associated(self, wv, ww, level):
        # with no norm < 0 no lower end is finite; with mixed degrees the
        # implication fails, e.g. [(2,), (1,)] against [(1,)] below
        interval = stability_interval(torus_pair(wv, ww))
        assert interval is None or interval[0] == -math.inf
        if holds(interval, Fraction(1, level + 1)):
            assert holds(interval, Fraction(-1, level + 1))

    @given(graded_weight_lists, weight_lists)
    @settings(max_examples=40, deadline=None)
    def test_interval_ends_reverify(self, wv, ww):
        # the interval is closed: each finite end c has mu >= c * norm on
        # every 1-PS, checked here through the arc weight and arc norm
        pair = torus_pair(wv, ww)
        interval = stability_interval(pair)
        ends = [c for c in interval or () if c not in (-math.inf, math.inf)]
        for a in box_exponents(2, 4):
            arc = Arc.one_ps(a)
            mu = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, arc)
            norm = arc_norm(pair.rep_v, pair.v, arc)
            assert all(mu >= c * norm for c in ends)

    def test_a_wrong_end_fails_reverification(self, monkeypatch):
        # rank 4 takes the Farkas route, whose ends a primal LP re-verifies
        solve_lp = linprog.solve_lp

        def shifted(*args, **kwargs):
            res = solve_lp(*args, **kwargs)
            if res.status == linprog.OPTIMAL:
                res = dataclasses.replace(res, objective=res.objective + 1)
            return res

        monkeypatch.setattr(linprog, "solve_lp", shifted)
        with pytest.raises(AssertionError, match="re-verification"):
            stability_interval(torus_pair([(0, 0, 0, 2), (0, 3, 0, 3)], [(0, 2, 2, 2)]))


class TestFalsifier:
    def quartic_pair(self, coords):
        return torus_pair(
            [(4,), (2,), (0,), (-2,), (-4,)], [(0,)], v=coords, w=[1], rank=1
        )

    def test_finds_destabilizer_for_quartic_monomial(self):
        out = sample_falsifier(self.quartic_pair([1, 0, 0, 0, 0]))
        assert out is not None
        arc, mu = out
        assert mu < 0

    def test_balanced_monomial_survives(self):
        assert sample_falsifier(self.quartic_pair([0, 0, 1, 0, 0])) is None

    def test_deterministic_per_seed(self):
        pair = self.quartic_pair([1, 0, 0, 0, 0])
        a1, m1 = sample_falsifier(pair, seed=5)
        a2, m2 = sample_falsifier(pair, seed=5)
        assert a1 == a2 and m1 == m2

    def test_w_zero_short_circuits(self):
        pair = torus_pair([(1,)], [(0,)], w=[0], rank=1)
        assert sample_falsifier(pair) is None

    def test_matrix_group_destabilizer(self):
        group = GroupPresentation(2, "special-linear")
        rep = sym_action(group, 4)
        triv = sym_action(group, 1)
        pair = Pair(rep, triv, [1, 0, 0, 0, 0], [0, 1], group)
        out = sample_falsifier(pair, seed=1)
        assert out is not None
        _, mu = out
        assert mu < 0


def reference_draw_arc(group, rng):
    """The falsifier's draw as a product of arcs: the identity times each
    drawn factor, in the order drawn."""
    m = group.size
    if group.is_torus:
        return Arc.one_ps([rng.randint(-2, 2) for _ in range(m)])
    special = group.kind == "special-linear"
    arc = identity_arc(m)
    for _ in range(rng.randint(1, 3)):
        if m >= 2 and rng.randint(0, 1) == 0:
            i, j = rng.sample(range(m), 2)
            arc = arc_product(arc, elementary_arc(m, i, j, _random_laurent(rng)))
        else:
            exps = [rng.randint(-2, 2) for _ in range(m)]
            if special:
                exps[-1] = -sum(exps[:-1])
            arc = arc_product(arc, Arc.one_ps(exps))
    return arc


@given(
    st.sampled_from(["torus", "special-linear", "general-linear"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_draws_match_the_product_of_factors(kind, m, seed):
    group = GroupPresentation(m, kind)
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(4):
        arc = _draw_arc(group, rng)
        want = reference_draw_arc(group, ref)
        assert [[e.terms for e in row] for row in arc.matrix] == [
            [e.terms for e in row] for row in want.matrix
        ]
        assert rng.getstate() == ref.getstate()
