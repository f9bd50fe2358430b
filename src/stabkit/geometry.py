"""Exact convex geometry in dimensions one and two.

Everything operates on Fraction coordinates.  A cell is its vertex list:
`[(lo,), (hi,)]` for an interval, counterclockwise for a polygon.  Cells are
cut by halfspaces with Sutherland-Hodgman clipping, which treats an interval
as a two-vertex cycle.  Their moments, the integrals of 1 and of each
coordinate, are the one measure of a cell: the zeroth is its length or
signed shoelace area, and together they integrate affine functions exactly.
Alongside sit monotone-chain hulls and the lattice (normalized) measure on
edges, where a segment between integer points has measure gcd of the
coordinate differences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Sequence[Point]) -> list[Point]:
    """Hull vertices in counterclockwise order, collinear points dropped."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def cell_moments(cell: Sequence[tuple]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Integrals of 1 and of each coordinate over a nonempty cell.

    A polygon's moments are shoelace sums; on a degenerate cell they
    telescope to exactly zero.
    """
    if len(cell[0]) == 1:
        lo, hi = cell[0][0], cell[-1][0]
        return hi - lo, ((hi * hi - lo * lo) / 2,)
    m0 = mx = my = Fraction(0)
    n = len(cell)
    for i in range(n):
        x1, y1 = cell[i]
        x2, y2 = cell[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        m0 += w
        mx += (x1 + x2) * w
        my += (y1 + y2) * w
    return m0 / 2, (mx / 6, my / 6)


def clip(cell: Sequence[tuple], normal: Sequence[Fraction], offset: Fraction) -> list[tuple]:
    """Intersect a convex cell with the halfspace normal.p >= offset."""
    if not cell:
        return []
    normal = [Fraction(u) for u in normal]
    off = Fraction(offset)
    sides = [sum((u * x for u, x in zip(normal, p)), -off) for p in cell]
    out: list[tuple] = []
    n = len(cell)
    for i in range(n):
        cur, nxt = cell[i], cell[(i + 1) % n]
        s_cur, s_nxt = sides[i], sides[(i + 1) % n]
        if s_cur >= 0:
            out.append(cur)
        if (s_cur > 0 and s_nxt < 0) or (s_cur < 0 and s_nxt > 0):
            t = s_cur / (s_cur - s_nxt)
            out.append(tuple(a + t * (b - a) for a, b in zip(cur, nxt)))
    # drop consecutive duplicates introduced by vertices on the cut line
    dedup: list[tuple] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd extended to rationals: largest q with a/q, b/q integers."""
    a, b = abs(Fraction(a)), abs(Fraction(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def lattice_edge_length(p: Point, q: Point) -> Fraction:
    """Lattice-normalized length of the segment pq."""
    return rational_gcd(q[0] - p[0], q[1] - p[1])
