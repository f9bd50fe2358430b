"""Donaldson-Futaki numerics and an exactly computable toric front-end.

The abstract operations work on raw Hilbert-expansion coefficients and
intersection numbers.  The toric layer instantiates them for lattice
polytopes in dimensions one and two: the polytope supplies (a0, a1) through
volume and lattice boundary measure, and a convex piecewise-linear function
supplies (b0, b1) through exact integrals over the cells where each affine
piece is active.  The sign dictionary b0 = -integral of f, b1 = -half the
boundary integral makes the invariant vanish on constants and reproduce the
classical toric functional up to a positive factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linprog
from .algebra.ideals import Budget
from .geometry import (
    Point,
    clip_interval,
    clip_polygon,
    convex_hull_2d,
    lattice_edge_length,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
)


@dataclass(frozen=True)
class HilbCoeffs:
    """Leading two coefficients of a Hilbert expansion in the exponent k."""

    a0: Fraction
    a1: Fraction

    def __init__(self, a0, a1):
        a0 = Fraction(a0)
        a1 = Fraction(a1)
        if a0 <= 0:
            raise ValueError("leading Hilbert coefficient must be positive")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)


@dataclass(frozen=True)
class ModelNumbers:
    """Degeneration-side coefficients and optional intersection numbers."""

    b0: Fraction
    b1: Fraction
    r: Fraction = Fraction(1)
    n: int = 1
    l_mix: Fraction | None = None
    l_top: Fraction | None = None
    vol_ln: Fraction | None = None

    def __init__(self, b0, b1, r=1, n=1, l_mix=None, l_top=None, vol_ln=None):
        r = Fraction(r)
        if r <= 0:
            raise ValueError("the exponent r must be positive")
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "b0", Fraction(b0))
        object.__setattr__(self, "b1", Fraction(b1))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l_mix", None if l_mix is None else Fraction(l_mix))
        object.__setattr__(self, "l_top", None if l_top is None else Fraction(l_top))
        object.__setattr__(self, "vol_ln", None if vol_ln is None else Fraction(vol_ln))


def df_invariant(a: HilbCoeffs, b: ModelNumbers) -> Fraction:
    """(b0*a1 - b1*a0) / a0^2, exactly."""
    return (b.b0 * a.a1 - b.b1 * a.a0) / (a.a0 * a.a0)


def model_norm(b: ModelNumbers) -> Fraction:
    """l_mix/((n+1)*vol) - l_top/((n+1)*r^n*vol) on explicit intersection data."""
    if b.l_mix is None or b.l_top is None or b.vol_ln is None:
        raise ValueError("model norm needs l_mix, l_top and the polarization volume")
    if b.vol_ln == 0:
        raise ValueError("polarization volume must be nonzero")
    n1 = b.n + 1
    return b.l_mix / (n1 * b.vol_ln) - b.l_top / (n1 * b.r**b.n * b.vol_ln)


class Polytope:
    """Full-dimensional rational polytope in dimension one or two.

    One-dimensional polytopes are intervals [lo, hi]; two-dimensional ones
    store their hull vertices counterclockwise.
    """

    __slots__ = ("dim", "vertices")

    def __init__(self, dim: int, vertices: Sequence[Sequence[Fraction]]):
        if dim == 1:
            xs = sorted(Fraction(v[0]) for v in vertices)
            if not xs or xs[0] == xs[-1]:
                raise ValueError("interval must have positive length")
            self.vertices = ((xs[0],), (xs[-1],))
        elif dim == 2:
            hull = convex_hull_2d([(Fraction(v[0]), Fraction(v[1])) for v in vertices])
            if len(hull) < 3:
                raise ValueError("polygon must be full-dimensional")
            self.vertices = tuple(hull)
        else:
            raise ValueError("only dimensions 1 and 2 are supported")
        self.dim = dim

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self.vertices[0][0], self.vertices[1][0]

    def volume(self) -> Fraction:
        if self.dim == 1:
            lo, hi = self.interval
            return hi - lo
        return polygon_area(self.vertices)

    def boundary_measure(self) -> Fraction:
        """Sum of lattice-normalized facet measures."""
        if self.dim == 1:
            return Fraction(2)
        total = Fraction(0)
        n = len(self.vertices)
        for i in range(n):
            total += lattice_edge_length(self.vertices[i], self.vertices[(i + 1) % n])
        return total

    def edges(self) -> list[tuple[Point, Point]]:
        if self.dim != 2:
            raise ValueError("edges are a two-dimensional notion")
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.dim == other.dim and self.vertices == other.vertices

    __hash__ = None


Affine = tuple[tuple[Fraction, ...], Fraction]  # gradient, constant


def _affine(piece, dim: int) -> Affine:
    grad, const = piece
    grad = tuple(Fraction(g) for g in grad)
    if len(grad) != dim:
        raise ValueError("gradient dimension mismatch")
    return grad, Fraction(const)


def affine_value(piece: Affine, p: Sequence[Fraction]) -> Fraction:
    grad, const = piece
    return sum((g * x for g, x in zip(grad, p)), const)


class PLFunction:
    """Convex piecewise-linear function given as a maximum of affine pieces."""

    __slots__ = ("dim", "pieces")

    def __init__(self, dim: int, pieces: Sequence):
        ps = [_affine(p, dim) for p in pieces]
        if not ps:
            raise ValueError("a piecewise-linear function needs at least one piece")
        seen = []
        for p in ps:
            if p not in seen:
                seen.append(p)
        self.dim = dim
        self.pieces = tuple(seen)

    @classmethod
    def on(cls, P: Polytope, pieces: Sequence) -> "PLFunction":
        """Construct and drop pieces never active on a positive-measure set."""
        f = cls(P.dim, pieces)
        kept = [
            piece
            for i, piece in enumerate(f.pieces)
            if _cell_measure(P, f.pieces, i) > 0
        ]
        return cls(P.dim, kept) if kept else f

    def value(self, p: Sequence[Fraction]) -> Fraction:
        return max(affine_value(piece, p) for piece in self.pieces)

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self.dim == other.dim and sorted(self.pieces) == sorted(other.pieces)

    __hash__ = None


def _active_cell_1d(P: Polytope, pieces, i) -> tuple[Fraction, Fraction] | None:
    lo, hi = P.interval
    for j, other in enumerate(pieces):
        if j == i:
            continue
        coeff = pieces[i][0][0] - other[0][0]
        offset = other[1] - pieces[i][1]
        seg = clip_interval(lo, hi, coeff, offset)
        if seg is None:
            return None
        lo, hi = seg
    return lo, hi


def _active_cell_2d(P: Polytope, pieces, i) -> list[Point]:
    verts = list(P.vertices)
    gi, ci = pieces[i]
    for j, (gj, cj) in enumerate(pieces):
        if j == i:
            continue
        normal = (gi[0] - gj[0], gi[1] - gj[1])
        verts = clip_polygon(verts, normal, cj - ci)
        if not verts:
            return []
    return verts


def _cell_measure(P: Polytope, pieces, i) -> Fraction:
    if P.dim == 1:
        seg = _active_cell_1d(P, pieces, i)
        return Fraction(0) if seg is None else seg[1] - seg[0]
    cell = _active_cell_2d(P, pieces, i)
    return polygon_area(cell) if len(cell) >= 3 else Fraction(0)


def integrate_pl(P: Polytope, f: PLFunction) -> Fraction:
    """Exact integral of a convex PL function over the polytope.

    Cells where two distinct pieces tie have measure zero, so summing the
    closed active cells is exact.
    """
    total = Fraction(0)
    for i, piece in enumerate(f.pieces):
        if P.dim == 1:
            seg = _active_cell_1d(P, f.pieces, i)
            if seg is None or seg[1] == seg[0]:
                continue
            mid = ((seg[0] + seg[1]) / 2,)
            total += (seg[1] - seg[0]) * affine_value(piece, mid)
        else:
            cell = _active_cell_2d(P, f.pieces, i)
            if len(cell) < 3:
                continue
            area = polygon_area(cell)
            if area == 0:
                continue
            total += area * affine_value(piece, polygon_centroid(cell))
    return total


def boundary_integral_pl(P: Polytope, f: PLFunction) -> Fraction:
    """Integral of f over the boundary in the lattice-normalized measure."""
    if P.dim == 1:
        lo, hi = P.interval
        return f.value((lo,)) + f.value((hi,))
    total = Fraction(0)
    for a, b in P.edges():
        length = lattice_edge_length(a, b)
        cuts = {Fraction(0), Fraction(1)}
        for (gi, ci), (gj, cj) in itertools.combinations(f.pieces, 2):
            # f_i - f_j along a + t(b-a) is linear in t; a root is a breakpoint
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


def minimum_pl(P: Polytope, f: PLFunction) -> Fraction:
    """Exact minimum over the polytope, via the active-cell vertices."""
    best = None
    for i in range(len(f.pieces)):
        if P.dim == 1:
            seg = _active_cell_1d(P, f.pieces, i)
            corners = [] if seg is None else [(seg[0],), (seg[1],)]
        else:
            corners = _active_cell_2d(P, f.pieces, i)
        for p in corners:
            v = f.value(p)
            if best is None or v < best:
                best = v
    if best is None:
        raise AssertionError("no active cell found for a nonempty polytope")
    return best


def toric_hilb(P: Polytope) -> HilbCoeffs:
    """Volume and half the lattice boundary measure."""
    return HilbCoeffs(P.volume(), P.boundary_measure() / 2)


@dataclass(frozen=True)
class ToricDFData:
    """All intermediate integrals behind one invariant evaluation."""

    df: Fraction
    a0: Fraction
    a1: Fraction
    b0: Fraction
    b1: Fraction
    integral_f: Fraction
    boundary_integral_f: Fraction


def toric_df_data(P: Polytope, f: PLFunction) -> ToricDFData:
    if f.dim != P.dim:
        raise ValueError("function dimension does not match the polytope")
    integral = integrate_pl(P, f)
    boundary = boundary_integral_pl(P, f)
    a = toric_hilb(P)
    b = ModelNumbers(-integral, -boundary / 2)
    return ToricDFData(
        df_invariant(a, b), a.a0, a.a1, b.b0, b.b1, integral, boundary
    )


def toric_df(P: Polytope, f: PLFunction) -> Fraction:
    """Invariant of the toric degeneration encoded by the function."""
    return toric_df_data(P, f).df


def toric_minnorm(P: Polytope, f: PLFunction) -> Fraction:
    """(average of f) - (minimum of f); zero exactly for constants."""
    if f.dim != P.dim:
        raise ValueError("function dimension does not match the polytope")
    return integrate_pl(P, f) / P.volume() - minimum_pl(P, f)


@dataclass(frozen=True)
class Crease:
    """Rational hyperplane <normal, p> = offset generating a kink function."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __init__(self, normal, offset):
        object.__setattr__(self, "normal", tuple(Fraction(g) for g in normal))
        object.__setattr__(self, "offset", Fraction(offset))
        if all(g == 0 for g in self.normal):
            raise ValueError("crease normal must be nonzero")

    def gap(self, p: Sequence[Fraction]) -> Fraction:
        return sum(g * x for g, x in zip(self.normal, p)) - self.offset

    def kink_pieces(self) -> list:
        zero = tuple(Fraction(0) for _ in self.normal)
        return [(zero, Fraction(0)), (self.normal, -self.offset)]


@dataclass(frozen=True)
class UniformVerdict:
    status: str  # "fails-at-epsilon" | "holds-on-family"
    minimum: Fraction
    certificate: PLFunction | None
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    df: Fraction
    minnorm: Fraction


def _arrangement_vertices(P: Polytope, creases: Sequence[Crease]) -> list[tuple]:
    """Vertices of the crease subdivision: every family member is affine on
    each cell, so minima live here."""
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
        if point_in_polygon((x, y), P.vertices):
            pts.add((x, y))
    return sorted(pts)


def _family_function(
    P: Polytope, creases: Sequence[Crease], alpha: Sequence[Fraction], beta: Sequence[Fraction]
) -> PLFunction:
    """alpha . p plus nonnegative kink combinations, expanded to a max form.

    The sum of maxima max(0, g_k) distributes into a maximum over subsets of
    the active creases.
    """
    active = [(c, b) for c, b in zip(creases, beta) if b != 0]
    pieces = []
    for chosen in itertools.product((False, True), repeat=len(active)):
        grad = list(alpha)
        const = Fraction(0)
        for (c, b), take in zip(active, chosen):
            if take:
                for i, g in enumerate(c.normal):
                    grad[i] += b * g
                const -= b * c.offset
        pieces.append((tuple(grad), const))
    return PLFunction.on(P, pieces)


def toric_uniform_search(
    P: Polytope,
    creases: Sequence[Crease],
    epsilon: Fraction,
    budget: Budget | int | None = None,
) -> UniformVerdict:
    """Minimize the invariant over the crease family at norm one.

    The family is alpha . p + sum of beta_k * max(0, crease_k) with beta >= 0;
    additive constants are dropped since neither the invariant nor the norm
    sees them.  For each arrangement vertex q one exact LP minimizes the
    invariant subject to q attaining the minimum and the norm equalling one.
    A negative optimum below epsilon certifies failure; the certificate is
    rescaled to primitive integer coefficients and re-verified exactly.
    """
    epsilon = Fraction(epsilon)
    budget = Budget.coerce(budget)
    creases = list(creases)
    for c in creases:
        if len(c.normal) != P.dim:
            raise ValueError("crease dimension mismatch")
        gaps = [c.gap(v) for v in P.vertices]
        if not (min(gaps) < 0 < max(gaps)):
            raise ValueError(
                "crease does not cross the polytope's interior; the family is degenerate"
            )

    vol = P.volume()
    dim = P.dim
    nk = len(creases)
    width = dim + nk  # variables: alpha then beta

    # linear functionals of (alpha, beta): the invariant, the average, and
    # the value at each arrangement vertex
    coord_df = []
    coord_avg = []
    for i in range(dim):
        grad = tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))
        f_i = PLFunction(dim, [(grad, Fraction(0))])
        coord_df.append(toric_df(P, f_i))
        coord_avg.append(integrate_pl(P, f_i) / vol)
    kink_df = []
    kink_avg = []
    kinks = []
    for c in creases:
        f_k = PLFunction(dim, c.kink_pieces())
        kinks.append(f_k)
        kink_df.append(toric_df(P, f_k))
        kink_avg.append(integrate_pl(P, f_k) / vol)

    objective = [*coord_df, *kink_df]
    avg_row = [*coord_avg, *kink_avg]
    verts = _arrangement_vertices(P, creases)

    def value_row(q) -> list[Fraction]:
        row = [Fraction(x) for x in q]
        row += [max(Fraction(0), c.gap(q)) for c in creases]
        return row

    rows = {tuple(q): value_row(q) for q in verts}
    nonneg = [False] * dim + [True] * nk

    best: Fraction | None = None
    best_x = None
    for q in verts:
        rq = rows[tuple(q)]
        a_ub = []
        b_ub = []
        for q2 in verts:
            if q2 == q:
                continue
            r2 = rows[tuple(q2)]
            a_ub.append([rq[i] - r2[i] for i in range(width)])
            b_ub.append(Fraction(0))
        a_eq = [[avg_row[i] - rq[i] for i in range(width)]]
        b_eq = [Fraction(1)]
        res = linprog.solve_lp(
            objective, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            nonneg=nonneg, budget=budget,
        )
        if res.status != linprog.OPTIMAL:
            continue
        if best is None or res.objective < best:
            best = res.objective
            best_x = res.x
    if best is None:
        raise ValueError("no normalized family member: every vertex LP was infeasible")

    alpha = tuple(best_x[:dim])
    beta = tuple(best_x[dim:])
    if best < epsilon:
        scaled = linprog._primitive(alpha + beta)
        alpha = tuple(scaled[:dim])
        beta = tuple(scaled[dim:])
        cert = _family_function(P, creases, alpha, beta)
        df = toric_df(P, cert)
        norm = toric_minnorm(P, cert)
        if not df < epsilon * norm:
            raise AssertionError("uniform-search certificate failed re-verification")
        return UniformVerdict(
            "fails-at-epsilon", best, cert, alpha, beta, df, norm
        )
    witness = _family_function(P, creases, alpha, beta)
    return UniformVerdict(
        "holds-on-family",
        best,
        witness,
        alpha,
        beta,
        toric_df(P, witness),
        toric_minnorm(P, witness),
    )
