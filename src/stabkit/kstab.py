"""Donaldson-Futaki numerics and an exactly computable toric front-end.

The abstract operations take raw Hilbert-expansion coefficients and
intersection numbers as plain rational arguments.  The toric layer
instantiates them for lattice polytopes in dimensions one and two: the
polytope supplies (a0, a1) through volume and lattice boundary measure, and a
convex piecewise-linear function supplies (b0, b1) through exact integrals
over the cells where each affine piece is active, from the cells' moments.
`active_cells` clips each of those cells once; integrals, minima and the
pruning of a certificate's idle pieces all read its list.  Boundary
integrals walk the same one-dimensional cells along each edge of a polygon.
The sign dictionary b0 = -integral of f, b1 = -half the boundary integral
makes the invariant vanish on constants and reproduce the classical toric
functional up to a positive factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linprog
from .algebra.ideals import Budget
from .algebra.multipoly import primitive
from .geometry import (
    Point,
    cell_moments,
    clip,
    convex_hull_2d,
    lattice_edge_length,
)


def df_invariant(a0, a1, b0, b1) -> Fraction:
    """(b0*a1 - b1*a0) / a0^2, exactly, from the leading Hilbert coefficients
    a0 > 0 and a1 and the degeneration-side coefficients b0 and b1."""
    a0 = Fraction(a0)
    if a0 <= 0:
        raise ValueError("leading Hilbert coefficient must be positive")
    return (Fraction(b0) * Fraction(a1) - Fraction(b1) * a0) / (a0 * a0)


def model_norm(r, n, l_mix, l_top, vol) -> Fraction:
    """l_mix/((n+1)*vol) - l_top/((n+1)*r^n*vol) on explicit intersection
    data: the exponent r > 0, the dimension n >= 1 and the polarization
    volume vol != 0."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("the exponent r must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    vol = Fraction(vol)
    if vol == 0:
        raise ValueError("polarization volume must be nonzero")
    n1 = n + 1
    return Fraction(l_mix) / (n1 * vol) - Fraction(l_top) / (n1 * r**n * vol)


class Polytope:
    """Full-dimensional rational polytope in dimension one or two.

    One-dimensional polytopes are intervals [lo, hi]; two-dimensional ones
    store their hull vertices counterclockwise.  Either way the vertices form
    a cell in the sense of `geometry`.  The volume and the boundary measure
    are computed on first use and kept.
    """

    __slots__ = ("dim", "vertices", "_volume", "_boundary")

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
        self._volume = self._boundary = None

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self.vertices[0][0], self.vertices[1][0]

    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = cell_moments(self.vertices)[0]
        return self._volume

    def boundary_measure(self) -> Fraction:
        """Sum of lattice-normalized facet measures."""
        if self._boundary is None:
            if self.dim == 1:
                self._boundary = Fraction(2)
            else:
                edges = self.edges()
                self._boundary = sum((lattice_edge_length(a, b) for a, b in edges), Fraction(0))
        return self._boundary

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

    def value(self, p: Sequence[Fraction]) -> Fraction:
        return max(affine_value(piece, p) for piece in self.pieces)

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self.dim == other.dim and sorted(self.pieces) == sorted(other.pieces)

    __hash__ = None


Cells = list[tuple[Affine, list[tuple]]]


def active_cells(P: Polytope, f: PLFunction) -> Cells:
    """(piece, active cell) for each piece of f whose closed active cell, the
    part of P where the piece is the maximum, is nonempty.

    Each cell is clipped out of P once; the integral, the minimum and the
    pruning of pieces all read this one list.
    """
    if f.dim != P.dim:
        raise ValueError("function dimension does not match the polytope")
    out = []
    for i, (gi, ci) in enumerate(f.pieces):
        cell = list(P.vertices)
        for j, (gj, cj) in enumerate(f.pieces):
            if j != i:
                cell = clip(cell, [a - b for a, b in zip(gi, gj)], cj - ci)
                if not cell:
                    break
        if cell:
            out.append(((gi, ci), cell))
    return out


def integrate_pl(cells: Cells) -> Fraction:
    """Exact integral of a convex PL function over the polytope, from its
    active cells.

    Each piece integrates over its closed active cell through the cell's
    moments.  Cells where two distinct pieces tie have measure zero, and
    their moments are exactly zero, so the sum is exact.
    """
    total = Fraction(0)
    for (grad, const), cell in cells:
        m0, m1 = cell_moments(cell)
        total += const * m0 + sum(g * m for g, m in zip(grad, m1))
    return total


UNIT = Polytope(1, [(0,), (1,)])


def boundary_integral_pl(P: Polytope, f: PLFunction) -> Fraction:
    """Integral of f over the boundary in the lattice-normalized measure.

    On a polygon f restricts to each edge a -> b as the one-dimensional
    function t -> f(a + t(b - a)) on [0, 1].  Pieces that agree along the
    whole edge merge into one, so the 1D cells tie only at points.  Each
    piece (g, c) becomes ((g.(b - a),), g.a + c).
    """
    if P.dim == 1:
        lo, hi = P.interval
        return f.value((lo,)) + f.value((hi,))
    total = Fraction(0)
    for a, b in P.edges():
        ends = [(affine_value(p, a), affine_value(p, b)) for p in f.pieces]
        restricted = PLFunction(1, [((fb - fa,), fa) for fa, fb in ends])
        total += lattice_edge_length(a, b) * integrate_pl(active_cells(UNIT, restricted))
    return total


def minimum_pl(cells: Cells) -> Fraction:
    """Exact minimum over the polytope, at the active-cell vertices, where
    each cell's piece is the function's value."""
    if not cells:
        raise AssertionError("no active cell found for a nonempty polytope")
    return min(affine_value(piece, p) for piece, cell in cells for p in cell)


def toric_hilb(P: Polytope) -> tuple[Fraction, Fraction]:
    """(a0, a1): the volume and half the lattice boundary measure."""
    return P.volume(), P.boundary_measure() / 2


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


def toric_df_data(P: Polytope, cells: Cells) -> ToricDFData:
    """Invariant of the toric degeneration encoded by the function whose
    active cells, `active_cells(P, f)`, are given."""
    integral = integrate_pl(cells)
    f = PLFunction(P.dim, [piece for piece, _ in cells])
    boundary = boundary_integral_pl(P, f)
    a0, a1 = toric_hilb(P)
    b0, b1 = -integral, -boundary / 2
    return ToricDFData(df_invariant(a0, a1, b0, b1), a0, a1, b0, b1, integral, boundary)


def toric_minnorm(P: Polytope, cells: Cells) -> Fraction:
    """(average of f) - (minimum of f), from cells = active_cells(P, f);
    zero exactly for constants."""
    return integrate_pl(cells) / P.volume() - minimum_pl(cells)


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
    certificate: PLFunction
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    df: Fraction
    minnorm: Fraction


def _arrangement_vertices(P: Polytope, creases: Sequence[Crease]) -> list[tuple]:
    """Vertices of the crease subdivision: every family member is affine on
    each cell, so minima live here."""
    cells = [list(P.vertices)]
    for c in creases:
        neg = tuple(-g for g in c.normal)
        cells = [
            half
            for cell in cells
            for half in (clip(cell, c.normal, c.offset), clip(cell, neg, -c.offset))
            if half
        ]
    return sorted({p for cell in cells for p in cell})


def _certificate(
    P: Polytope, creases: Sequence[Crease], alpha: Sequence[Fraction], beta: Sequence[Fraction]
) -> tuple[PLFunction, Fraction, Fraction]:
    """The family member alpha . p + sum of beta_k * max(0, crease_k), with
    its invariant and its norm, from one pass over its active cells.

    The sum of maxima distributes into a maximum over subsets of the active
    creases.  Pieces never active on a positive-measure set are dropped;
    removing them changes neither the function nor the other pieces' cells.
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
    cells = active_cells(P, PLFunction(P.dim, pieces))
    cells = [(piece, cell) for piece, cell in cells if cell_moments(cell)[0] > 0]
    cert = PLFunction(P.dim, [piece for piece, _ in cells])
    return cert, toric_df_data(P, cells).df, toric_minnorm(P, cells)


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
    basis = [PLFunction(dim, [(tuple(int(j == i) for j in range(dim)), 0)]) for i in range(dim)]
    basis += [PLFunction(dim, c.kink_pieces()) for c in creases]
    data = [toric_df_data(P, active_cells(P, f)) for f in basis]
    objective = [d.df for d in data]
    avg_row = [d.integral_f / vol for d in data]
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

    fails = best < epsilon
    if fails:
        best_x = primitive(best_x)
    alpha = tuple(best_x[:dim])
    beta = tuple(best_x[dim:])
    cert, df, norm = _certificate(P, creases, alpha, beta)
    if fails and not df < epsilon * norm:
        raise AssertionError("uniform-search certificate failed re-verification")
    status = "fails-at-epsilon" if fails else "holds-on-family"
    return UniformVerdict(status, best, cert, alpha, beta, df, norm)
