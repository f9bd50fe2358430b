"""Pair semistability, level stability, and the randomized falsifier."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.groups import Arc, GroupPresentation, TorusWeights, mu_weight, sym_action
from stabkit.linprog import _primitive
from stabkit.pairs import (
    Pair,
    associated_pair,
    barycentric_witness,
    dr_stable_at,
    minkowski_power,
    sample_falsifier,
    separating_exponents,
    simplex_weights,
    supports_semistable,
    torus_semistable,
    torus_stable_at,
    torus_supports,
)

T1 = GroupPresentation.torus(1)
T2 = GroupPresentation.torus(2)


def torus_pair(weights_v, weights_w, v=None, w=None, rank=None):
    rank = rank if rank is not None else len(weights_v[0])
    group = T1 if rank == 1 else GroupPresentation.torus(rank)
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

    def test_supports_drop_zero_coordinates(self):
        pair = torus_pair([(1,), (2,), (1,)], [(5,)], v=[1, 0, 2], w=[0])
        supp_v, supp_w = torus_supports(pair)
        assert supp_v == [(1,)]
        assert supp_w == []


class TestWitnessHelpers:
    def test_integerize(self):
        # separating exponents are scaled to primitive integers by linprog
        assert _primitive([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
        assert _primitive([Fraction(2), Fraction(4)]) == [1, 2]
        assert _primitive([Fraction(0), Fraction(0)]) == [0, 0]
        assert _primitive([Fraction(-1, 2)]) == [-1]

    def test_barycentric_witness(self):
        lam = barycentric_witness((1, 1), [(0, 0), (2, 0), (0, 2)])
        assert lam == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
        with pytest.raises(ValueError):
            barycentric_witness((3, 3), [(0, 0), (2, 0), (0, 2)])

    def test_separating_exponents(self):
        a = separating_exponents((3, 3), [(0, 0), (2, 0), (0, 2)])
        lo = min(a[0] * q[0] + a[1] * q[1] for q in [(0, 0), (2, 0), (0, 2)])
        assert a[0] * 3 + a[1] * 3 < lo
        with pytest.raises(ValueError):
            separating_exponents((1, 1), [(0, 0), (2, 0), (0, 2)])

    @given(weight_lists, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=60, deadline=None)
    def test_separation_dichotomy(self, supp, point):
        from stabkit.groups import point_in_hull

        if point_in_hull(point, supp):
            lam = barycentric_witness(point, supp)
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
        assert torus_stable_at(pair, 1).status == "stable-at-l"
        assert dr_stable_at(pair, 1).status == "stable-at-l"

    def test_unstable_pair_at_every_level(self):
        pair = torus_pair([(3, 1), (1, 3)], [(4, 0)])
        for level in (1, 2, 3):
            assert torus_stable_at(pair, level).status == "not-stable-at-l"
            assert dr_stable_at(pair, level).status == "not-stable-at-l"

    def test_norm_gap_discrepancy(self):
        # mu = 0 < norm/(l+1) along skew directions, yet every associated
        # pair is semistable: the two level notions genuinely differ here
        pair = torus_pair([(2, 2)], [(2, 2)])
        for level in (1, 2, 3, 4):
            assert torus_stable_at(pair, level).status == "stable-at-l"
            verdict = dr_stable_at(pair, level)
            assert verdict.status == "not-stable-at-l"
            assert verdict.certificate["mu"] == "0"
            assert verdict.certificate["norm"] == "4"

    def test_w_zero_is_dr_stable(self):
        pair = torus_pair([(1, 0)], [(0, 0)], w=[0])
        verdict = dr_stable_at(pair, 3)
        assert verdict.status == "stable-at-l"
        assert verdict.level == 3

    def test_verdict_carries_level(self):
        pair = torus_pair([(3, 1), (1, 3)], [(2, 2)])
        assert torus_stable_at(pair, 4).level == 4

    @given(graded_weight_lists, weight_lists, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_dr_implies_associated(self, wv, ww, level):
        pair = torus_pair(wv, ww)
        if dr_stable_at(pair, level).status == "stable-at-l":
            assert torus_stable_at(pair, level).status == "stable-at-l"

    @given(graded_weight_lists, weight_lists, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_dr_certificates_reverify(self, wv, ww, level):
        pair = torus_pair(wv, ww)
        verdict = dr_stable_at(pair, level)
        if verdict.status == "not-stable-at-l":
            cert = verdict.certificate
            from stabkit.groups import arc_norm

            arc = Arc.one_ps(cert["exponents"])
            mu = mu_weight(pair.rep_v, pair.rep_w, pair.v, pair.w, arc)
            norm = arc_norm(pair.rep_v, pair.v, arc)
            assert mu < Fraction(norm, level + 1)


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
        group = GroupPresentation.special_linear(2)
        rep = sym_action(group, 4)
        triv = sym_action(group, 1)
        pair = Pair(rep, triv, [1, 0, 0, 0, 0], [0, 1], group)
        out = sample_falsifier(pair, seed=1)
        assert out is not None
        _, mu = out
        assert mu < 0

    def test_custom_group_rejected(self):
        group = GroupPresentation.custom(1, [])
        rep = TorusWeights([(1,)])
        pair = Pair(rep, rep, [1], [1], group)
        with pytest.raises(ValueError):
            sample_falsifier(pair)
