"""The one cell walker against the per-dimension code it replaced.

`kstab` used to walk intervals and polygons separately: `clip_interval` and
`_active_cell_1d` for one, `clip_polygon` and `_active_cell_2d` for the
other, and explicit edge/crease and crease/crease intersection formulas with
a containment test for the arrangement vertices.  Interior integrals took
each cell's area times the value at its centroid, and boundary integrals cut
each edge at the pairwise breakpoints of the pieces and summed midpoint
values.  A copy of that code lives here and every toric quantity built on
the cells must agree with it exactly.

The certificate of the uniform search used to be built by
`PLFunction.on`, which clipped every cell to drop idle pieces, then measured
by `toric_df` and `toric_minnorm`, which clipped them again.  A copy of that
path, on the per-dimension code, is the reference for `kstab._certificate`.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabkit.geometry import cell_moments, lattice_edge_length
from stabkit.kstab import (
    Crease,
    PLFunction,
    Polytope,
    _arrangement_vertices,
    _certificate,
    active_cells,
    affine_value,
    boundary_integral_pl,
    integrate_pl,
    minimum_pl,
    toric_uniform_search,
)


def shoelace(verts):
    """Signed area; positive for counterclockwise order, zero below three
    vertices."""
    if len(verts) < 3:
        return Fraction(0)
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        s += x1 * y2 - x2 * y1
    return s / 2


def old_clip_interval(lo, hi, coeff, offset):
    coeff, offset = Fraction(coeff), Fraction(offset)
    if coeff == 0:
        return (lo, hi) if offset <= 0 else None
    bound = offset / coeff
    if coeff > 0:
        lo = max(lo, bound)
    else:
        hi = min(hi, bound)
    if lo > hi:
        return None
    return (lo, hi)


def old_clip_polygon(verts, normal, offset):
    if not verts:
        return []
    ux, uy = Fraction(normal[0]), Fraction(normal[1])
    off = Fraction(offset)

    def side(p):
        return ux * p[0] + uy * p[1] - off

    out = []
    n = len(verts)
    for i in range(n):
        cur, nxt = verts[i], verts[(i + 1) % n]
        s_cur, s_nxt = side(cur), side(nxt)
        if s_cur >= 0:
            out.append(cur)
        if (s_cur > 0 and s_nxt < 0) or (s_cur < 0 and s_nxt > 0):
            t = s_cur / (s_cur - s_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def old_point_in_polygon(p, verts_ccw):
    n = len(verts_ccw)
    for i in range(n):
        o, a = verts_ccw[i], verts_ccw[(i + 1) % n]
        if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) < 0:
            return False
    return True


def old_active_cell_1d(P, pieces, i):
    lo, hi = P.interval
    for j, other in enumerate(pieces):
        if j == i:
            continue
        seg = old_clip_interval(lo, hi, pieces[i][0][0] - other[0][0], other[1] - pieces[i][1])
        if seg is None:
            return None
        lo, hi = seg
    return lo, hi


def old_active_cell_2d(P, pieces, i):
    verts = list(P.vertices)
    gi, ci = pieces[i]
    for j, (gj, cj) in enumerate(pieces):
        if j == i:
            continue
        verts = old_clip_polygon(verts, (gi[0] - gj[0], gi[1] - gj[1]), cj - ci)
        if not verts:
            return []
    return verts


def old_cell_measure(P, pieces, i):
    if P.dim == 1:
        seg = old_active_cell_1d(P, pieces, i)
        return Fraction(0) if seg is None else seg[1] - seg[0]
    cell = old_active_cell_2d(P, pieces, i)
    return shoelace(cell) if len(cell) >= 3 else Fraction(0)


def old_cell_is_empty(P, pieces, i):
    if P.dim == 1:
        return old_active_cell_1d(P, pieces, i) is None
    return not old_active_cell_2d(P, pieces, i)


def old_on(P, pieces):
    f = PLFunction(P.dim, pieces)
    kept = [p for i, p in enumerate(f.pieces) if old_cell_measure(P, f.pieces, i) > 0]
    return PLFunction(P.dim, kept) if kept else f


def polygon_centroid(verts):
    a = shoelace(verts)
    if a == 0:
        raise ValueError("centroid of a degenerate polygon")
    cx = Fraction(0)
    cy = Fraction(0)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    return (cx / (6 * a), cy / (6 * a))


def old_integrate_pl(P, f):
    total = Fraction(0)
    for i, piece in enumerate(f.pieces):
        if P.dim == 1:
            seg = old_active_cell_1d(P, f.pieces, i)
            if seg is None or seg[1] == seg[0]:
                continue
            total += (seg[1] - seg[0]) * affine_value(piece, ((seg[0] + seg[1]) / 2,))
        else:
            cell = old_active_cell_2d(P, f.pieces, i)
            if len(cell) < 3 or shoelace(cell) == 0:
                continue
            total += shoelace(cell) * affine_value(piece, polygon_centroid(cell))
    return total


def old_boundary_integral_pl(P, f):
    if P.dim == 1:
        lo, hi = P.interval
        return f.value((lo,)) + f.value((hi,))
    total = Fraction(0)
    for a, b in P.edges():
        length = lattice_edge_length(a, b)
        cuts = {Fraction(0), Fraction(1)}
        for (gi, ci), (gj, cj) in itertools.combinations(f.pieces, 2):
            d0 = affine_value((gi, ci), a) - affine_value((gj, cj), a)
            d1 = affine_value((gi, ci), b) - affine_value((gj, cj), b)
            if d0 == d1:
                continue
            t = d0 / (d0 - d1)
            if 0 < t < 1:
                cuts.add(t)
        ts = sorted(cuts)
        for t0, t1 in zip(ts, ts[1:]):
            tm = (t0 + t1) / 2
            mid = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
            total += (t1 - t0) * length * f.value(mid)
    return total


def old_minimum_pl(P, f):
    best = None
    for i in range(len(f.pieces)):
        if P.dim == 1:
            seg = old_active_cell_1d(P, f.pieces, i)
            corners = [] if seg is None else [(seg[0],), (seg[1],)]
        else:
            corners = old_active_cell_2d(P, f.pieces, i)
        for p in corners:
            v = f.value(p)
            if best is None or v < best:
                best = v
    return best


def old_family_pieces(creases, alpha, beta):
    """alpha . p + sum of beta_k * max(0, crease_k) as a maximum over the
    subsets of the creases with beta_k != 0."""
    active = [(c, b) for c, b in zip(creases, beta) if b != 0]
    pieces = []
    for chosen in itertools.product((False, True), repeat=len(active)):
        grad = list(alpha)
        const = Fraction(0)
        for (c, b), take in zip(active, chosen):
            if take:
                grad = [g + b * n for g, n in zip(grad, c.normal)]
                const -= b * c.offset
        pieces.append((tuple(grad), const))
    return pieces


def old_volume(P):
    if P.dim == 1:
        lo, hi = P.interval
        return hi - lo
    return shoelace(list(P.vertices))


def old_df(P, f):
    a0, a1 = old_volume(P), P.boundary_measure() / 2
    b0, b1 = -old_integrate_pl(P, f), -old_boundary_integral_pl(P, f) / 2
    return (b0 * a1 - b1 * a0) / (a0 * a0)


def old_minnorm(P, f):
    return old_integrate_pl(P, f) / old_volume(P) - old_minimum_pl(P, f)


def old_certificate(P, creases, alpha, beta):
    cert = old_on(P, old_family_pieces(creases, alpha, beta))
    return cert.pieces, old_df(P, cert), old_minnorm(P, cert)


def old_arrangement_vertices(P, creases):
    pts = set(P.vertices)
    if P.dim == 1:
        lo, hi = P.interval
        for c in creases:
            x = c.offset / c.normal[0]
            if lo < x < hi:
                pts.add((x,))
        return sorted(pts)
    for c in creases:
        for a, b in P.edges():
            d0, d1 = c.gap(a), c.gap(b)
            if d0 == d1:
                continue
            t = d0 / (d0 - d1)
            if 0 <= t <= 1:
                pts.add((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    for c1, c2 in itertools.combinations(creases, 2):
        det = c1.normal[0] * c2.normal[1] - c1.normal[1] * c2.normal[0]
        if det == 0:
            continue
        x = (c1.offset * c2.normal[1] - c2.offset * c1.normal[1]) / det
        y = (c1.normal[0] * c2.offset - c2.normal[0] * c1.offset) / det
        if old_point_in_polygon((x, y), P.vertices):
            pts.add((x, y))
    return sorted(pts)


coord = st.fractions(min_value=-4, max_value=4, max_denominator=2)
small = st.integers(min_value=-2, max_value=2)
nonzero = coord.map(lambda v: v or Fraction(1))


def normals(dim):
    return st.sampled_from([n for n in itertools.product(range(-2, 3), repeat=dim) if any(n)])


@st.composite
def polytopes(draw):
    if draw(st.booleans()):
        lo = draw(coord)
        return Polytope(1, [(lo,), (lo + draw(st.fractions(1, 5, max_denominator=3)),)])
    return draw(polygons())


@st.composite
def polygons(draw):
    # a right triangle keeps the hull full-dimensional; up to three more
    # points give hulls with three to six vertices
    x, y = draw(coord), draw(coord)
    a, b = draw(nonzero), draw(nonzero)
    extra = draw(st.lists(st.tuples(coord, coord), max_size=3))
    return Polytope(2, [(x, y), (x + a, y), (x, y + b), *extra])


@st.composite
def pieces(draw, dim):
    # a pool of two or three gradients makes repeated gradients common
    pool = draw(st.lists(st.tuples(*[small] * dim), min_size=1, max_size=3))
    n = draw(st.integers(min_value=1, max_value=5))
    return [(draw(st.sampled_from(pool)), draw(coord)) for _ in range(n)]


@st.composite
def creases(draw, P):
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["free", "vertex", "copy"]))
        if kind == "copy" and out:
            c = draw(st.sampled_from(out))
            k = draw(st.sampled_from([1, 2, -1]))
            out.append(Crease([k * g for g in c.normal], k * c.offset))
            continue
        normal = draw(normals(P.dim))
        if kind == "vertex":
            v = draw(st.sampled_from(P.vertices))
            offset = sum(g * x for g, x in zip(normal, v))
        else:
            offset = draw(coord)
        out.append(Crease(normal, offset))
    return out


@st.composite
def cases(draw):
    P = draw(polytopes())
    return P, draw(pieces(P.dim)), draw(creases(P))


@st.composite
def edge_ties(draw):
    """A polygon and pieces two of which agree along a whole edge a -> b:
    a drawn piece (g, c) and (g + k n, c - k n.a), with n normal to the edge.
    Lifting both constants often makes the tied pair the maximum there."""
    P = draw(polygons())
    raw = draw(pieces(2))
    (gx, gy), c = draw(st.sampled_from(raw))
    a, b = draw(st.sampled_from(P.edges()))
    nx, ny = a[1] - b[1], b[0] - a[0]
    k = draw(st.sampled_from([-2, -1, Fraction(1, 2), 1, 3]))
    c += draw(st.sampled_from([0, 4, 16]))
    tied = [((gx, gy), c), ((gx + k * nx, gy + k * ny), c - k * (nx * a[0] + ny * a[1]))]
    return P, raw + tied, []


class TestAgainstPerDimensionCode:
    @given(cases())
    @settings(max_examples=300, deadline=None)
    def test_cells_integrals_and_minima(self, case):
        P, raw, _ = case
        f = PLFunction(P.dim, raw)
        cells = active_cells(P, f)
        nonempty = [p for i, p in enumerate(f.pieces) if not old_cell_is_empty(P, f.pieces, i)]
        assert [piece for piece, _ in cells] == nonempty
        for piece, cell in cells:
            i = f.pieces.index(piece)
            assert cell_moments(cell)[0] == old_cell_measure(P, f.pieces, i)
        assert integrate_pl(cells) == old_integrate_pl(P, f)
        assert minimum_pl(cells) == old_minimum_pl(P, f)

    @given(cases())
    @settings(max_examples=300, deadline=None)
    def test_arrangement_vertices(self, case):
        P, _, cs = case
        assert _arrangement_vertices(P, cs) == old_arrangement_vertices(P, cs)

    @given(st.one_of(cases(), edge_ties()))
    @settings(max_examples=300, deadline=None)
    def test_boundary_integral(self, case):
        P, raw, _ = case
        f = PLFunction(P.dim, raw)
        assert boundary_integral_pl(P, f) == old_boundary_integral_pl(P, f)

    def test_boundary_integral_with_pieces_tied_along_an_edge(self):
        # x and x + y agree along y = 0, where f = max(x, x + y) is x; the
        # edges give 1/2 (counted once), 3/2, 3/2 and 1/2
        square = Polytope(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        f = PLFunction(2, [((1, 0), 0), ((1, 1), 0)])
        assert boundary_integral_pl(square, f) == 4
        assert boundary_integral_pl(square, f) == old_boundary_integral_pl(square, f)


@st.composite
def certificate_cases(draw):
    """A polytope, creases, and family coefficients with some beta_k != 0."""
    P, _, cs = draw(cases())
    alpha = draw(st.lists(small, min_size=P.dim, max_size=P.dim))
    weights = st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2)])
    beta = draw(st.lists(weights, min_size=len(cs), max_size=len(cs)))
    assume(any(beta))
    return P, cs, alpha, beta


def crease_list(*creases):
    return [Crease(normal, Fraction(offset)) for normal, offset in creases]


# (polytope, creases) whose uniform search ends with some beta_k != 0
MULTI_PIECE_SEARCHES = [
    (
        Polytope(2, [(-2, -2), (2, -3), (2, 2)]),
        crease_list(((-1, -1), -3), ((-1, -1), -2)),
    ),
    (
        Polytope(2, [(-3, 4), (3, -2), (4, 4)]),
        crease_list(((1, 0), "1/2"), ((-1, -1), -2)),
    ),
    (
        Polytope(2, [(-3, -4), (4, -2), (4, 0), (-2, 2)]),
        crease_list(((1, 1), 1), ((-1, 1), -2)),
    ),
]


class TestCertificateAgainstTheDeletedPath:
    @given(certificate_cases())
    @settings(max_examples=300, deadline=None)
    def test_certificate_pieces_df_and_minnorm(self, case):
        P, cs, alpha, beta = case
        cert, df, norm = _certificate(P, cs, alpha, beta)
        assert (cert.pieces, df, norm) == old_certificate(P, cs, alpha, beta)

    @pytest.mark.parametrize("P, cs", MULTI_PIECE_SEARCHES)
    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 10)])
    def test_uniform_search_with_kinks(self, P, cs, epsilon):
        verdict = toric_uniform_search(P, cs, epsilon)
        assert any(verdict.beta)
        assert len(verdict.certificate.pieces) > 1
        got = (verdict.certificate.pieces, verdict.df, verdict.minnorm)
        assert got == old_certificate(P, cs, verdict.alpha, verdict.beta)
