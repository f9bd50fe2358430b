"""Exact hulls, clipping of cells, and measures in dimensions one and two."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.geometry import (
    cell_moments,
    clip,
    convex_hull_2d,
    lattice_edge_length,
    rational_gcd,
)

coords = st.fractions(min_value=-20, max_value=20, max_denominator=4)
points = st.tuples(coords, coords)

UNIT_SQUARE = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)),
]


def contains(verts_ccw, p) -> bool:
    """Closed containment in a convex counterclockwise polygon."""
    n = len(verts_ccw)
    for i in range(n):
        o, a = verts_ccw[i], verts_ccw[(i + 1) % n]
        if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) < 0:
            return False
    return True


def measure(cell):
    """The zeroth moment: length or signed area; zero for an empty cell."""
    return cell_moments(cell)[0] if cell else 0


def interval(lo, hi):
    return [(Fraction(lo),), (Fraction(hi),)]


class TestHull:
    def test_square_with_interior_noise(self):
        pts = UNIT_SQUARE + [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]
        assert convex_hull_2d(pts) == UNIT_SQUARE

    def test_collinear_points_dropped(self):
        pts = [(Fraction(i), Fraction(0)) for i in range(4)]
        assert convex_hull_2d(pts) == [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0))]

    @given(st.lists(points, min_size=3, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_hull_properties(self, pts):
        hull = convex_hull_2d(pts)
        assert measure(hull) >= 0
        if len(hull) >= 3:
            # CCW, strictly convex, and containing every input point
            n = len(hull)
            for i in range(n):
                o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
                turn = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert turn > 0
            for p in pts:
                assert contains(hull, (Fraction(p[0]), Fraction(p[1])))

    @given(st.lists(points, min_size=3, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_hull_idempotent(self, pts):
        hull = convex_hull_2d(pts)
        assert convex_hull_2d(hull) == hull


class TestMeasures:
    def test_area_and_centroid(self):
        tri = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)), (Fraction(0), Fraction(3))]
        m0, (mx, my) = cell_moments(tri)
        assert m0 == Fraction(9, 2)
        assert (mx, my) == (Fraction(9, 2), Fraction(9, 2))
        assert (mx / m0, my / m0) == (Fraction(1), Fraction(1))

    def test_signed_orientation(self):
        assert cell_moments(list(reversed(UNIT_SQUARE)))[0] == -1

    def test_cell_measure_and_centroid(self):
        assert cell_moments(interval(-1, 3)) == (4, (Fraction(4),))
        assert cell_moments(UNIT_SQUARE) == (1, (Fraction(1, 2), Fraction(1, 2)))
        # degenerate cells have all moments exactly zero
        assert cell_moments([(Fraction(2),)]) == (0, (0,))
        assert cell_moments(UNIT_SQUARE[:2]) == (0, (0, 0))
        assert cell_moments(UNIT_SQUARE[2:3]) == (0, (0, 0))

    def test_rational_gcd(self):
        assert rational_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
        assert rational_gcd(Fraction(4), Fraction(6)) == 2
        assert rational_gcd(Fraction(0), Fraction(-5)) == 5

    def test_lattice_edge_length(self):
        assert lattice_edge_length((Fraction(0), Fraction(0)), (Fraction(3), Fraction(6))) == 3
        assert lattice_edge_length((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))) == 1


class TestClipping:
    def test_halfplane_cut(self):
        out = clip(UNIT_SQUARE, (Fraction(1), Fraction(0)), Fraction(1, 2))
        assert measure(out) == Fraction(1, 2)
        assert all(p[0] >= Fraction(1, 2) for p in out)

    def test_cut_through_vertex(self):
        out = clip(UNIT_SQUARE, (Fraction(1), Fraction(1)), Fraction(2))
        assert out == [(Fraction(1), Fraction(1))]

    def test_empty_cut(self):
        assert clip(UNIT_SQUARE, (Fraction(1), Fraction(0)), Fraction(2)) == []

    @given(st.tuples(coords, coords), coords)
    @settings(max_examples=60, deadline=None)
    def test_clip_area_never_grows(self, normal, offset):
        out = clip(UNIT_SQUARE, normal, offset)
        assert 0 <= measure(out) <= 1
        for p in out:
            assert normal[0] * p[0] + normal[1] * p[1] >= offset
            assert contains(UNIT_SQUARE, p)

    def test_interval_clipping(self):
        unit = interval(0, 1)
        assert clip(unit, (Fraction(2),), Fraction(1)) == interval(Fraction(1, 2), 1)
        assert clip(unit, (Fraction(-1),), Fraction(0)) == [(Fraction(0),)]
        assert clip(unit, (Fraction(1),), Fraction(2)) == []
        assert clip(unit, (Fraction(0),), Fraction(1)) == []
        assert clip(unit, (Fraction(0),), Fraction(-1)) == unit

    @given(coords, coords, coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_interval_clip_matches_the_bound(self, lo, width, coeff, offset):
        hi = lo + abs(width)
        out = clip(interval(lo, hi), (coeff,), offset)
        kept = [x for x in (lo, hi) if coeff * x >= offset]
        if coeff != 0 and lo < offset / coeff < hi:
            kept.append(offset / coeff)
        assert [p[0] for p in out] == sorted(set(kept))
