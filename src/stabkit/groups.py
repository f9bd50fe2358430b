"""Matrix groups, their representations, and arcs.

A group is presented by polynomial relations on the m*m entry variables plus
one inverse-determinant variable, so arcs automatically have invertible
determinant wherever the relations hold.  Arcs are matrices of Laurent
polynomials in t; the valuation bookkeeping for weights never needs honest
power-series expansion because inverses only ever show up through adjugates
and determinant denominators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra.ideals import Ideal
from .algebra.laurent import LaurentFrac, LaurentPoly, ord0
from .algebra.multipoly import MultiPoly
from . import linprog

INV_VAR = "ginv"


def entry_variables(m: int) -> list[str]:
    """Entry variable names g11..gmm followed by the inverse-determinant."""
    if m < 1:
        raise ValueError("matrix size must be positive")
    if m > 9:
        raise ValueError("matrix size above 9 would make entry names ambiguous")
    return [f"g{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)] + [INV_VAR]


def det_polynomial(m: int, variables: Sequence[str]) -> MultiPoly:
    """Symbolic determinant of the generic m*m matrix in the given ring."""
    generic = [
        [MultiPoly.var(variables, f"g{i}{j}") for j in range(1, m + 1)] for i in range(1, m + 1)
    ]
    return _det(generic, MultiPoly.zero(variables))


def _det(matrix, zero):
    """Determinant over any commutative ring by cofactor expansion along the
    first row; entries equal to `zero`, the ring's own zero, are skipped (a
    polynomial never equals the int 0)."""
    m = len(matrix)
    if m == 1:
        return matrix[0][0]
    out = zero
    for j, entry in enumerate(matrix[0]):
        if entry == zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * _det(minor, zero)
        out = out - term if j % 2 else out + term
    return out


@dataclass(frozen=True)
class GroupPresentation:
    """Linear algebraic group cut out of GL_m by explicit relations."""

    size: int
    relations: Ideal
    label: str

    def __post_init__(self):
        expected = tuple(entry_variables(self.size))
        if self.relations.variables != expected:
            raise ValueError("relations must live in the entry-variable ring")
        det = det_polynomial(self.size, expected)
        unit = MultiPoly.var(expected, INV_VAR) * det - 1
        if not any(g == unit for g in self.relations.generators):
            raise ValueError("presentation must list ginv*det - 1 among its generators")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.relations.variables

    @property
    def is_torus(self) -> bool:
        return self.label.startswith("torus")

    @property
    def rank(self) -> int:
        if not self.is_torus:
            raise ValueError("rank is defined for torus presentations only")
        return self.size

    @classmethod
    def torus(cls, k: int) -> "GroupPresentation":
        """Diagonal torus of GL_k: off-diagonal entries vanish."""
        variables = entry_variables(k)
        gens = [
            MultiPoly.var(variables, f"g{i}{j}")
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if i != j
        ]
        gens.append(MultiPoly.var(variables, INV_VAR) * det_polynomial(k, variables) - 1)
        return cls(k, Ideal(variables, gens), f"torus({k})")

    @classmethod
    def special_linear(cls, m: int) -> "GroupPresentation":
        variables = entry_variables(m)
        det = det_polynomial(m, variables)
        gens = [det - 1, MultiPoly.var(variables, INV_VAR) * det - 1]
        return cls(m, Ideal(variables, gens), f"special-linear({m})")

    @classmethod
    def general_linear(cls, m: int) -> "GroupPresentation":
        variables = entry_variables(m)
        gens = [MultiPoly.var(variables, INV_VAR) * det_polynomial(m, variables) - 1]
        return cls(m, Ideal(variables, gens), f"general-linear({m})")

    @classmethod
    def custom(cls, m: int, extra_relations: Sequence[MultiPoly]) -> "GroupPresentation":
        variables = entry_variables(m)
        det = det_polynomial(m, variables)
        gens = list(extra_relations)
        unit = MultiPoly.var(variables, INV_VAR) * det - 1
        if not any(g == unit for g in gens):
            gens.append(unit)
        return cls(m, Ideal(variables, gens), "custom")

    def random_point(self, rng: random.Random) -> list[list[Fraction]]:
        """A rational point of the group, for representation spot-checks."""
        m = self.size
        if self.is_torus:
            return _diag_matrix([_nonzero_rational(rng) for _ in range(m)])
        if self.label.startswith("general-linear"):
            while True:
                mat = [
                    [Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)
                ]
                if _det(mat, 0) != 0:
                    return mat
        if self.label.startswith("special-linear"):
            mat = _diag_matrix([Fraction(1)] * m)
            if m >= 2:
                for _ in range(3):
                    i, j = rng.sample(range(m), 2)
                    c = Fraction(rng.randint(-3, 3))
                    for col in range(m):
                        mat[i][col] += c * mat[j][col]
            return mat
        raise ValueError("cannot sample rational points of a custom group")


def _diag_matrix(entries: Sequence[Fraction]) -> list[list[Fraction]]:
    m = len(entries)
    return [
        [entries[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)
    ]


def _nonzero_rational(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-5, 5)
    return Fraction(num, rng.randint(1, 3))


@dataclass(frozen=True)
class TorusWeights:
    """Diagonalized representation: one integer weight vector per coordinate."""

    weights: tuple[tuple[int, ...], ...]

    def __init__(self, weights: Sequence[Sequence[int]]):
        ws = tuple(tuple(int(e) for e in w) for w in weights)
        if not ws:
            raise ValueError("a representation needs at least one coordinate")
        if len({len(w) for w in ws}) != 1:
            raise ValueError("weight vectors must share one torus rank")
        object.__setattr__(self, "weights", ws)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def rank(self) -> int:
        return len(self.weights[0])


class MatrixAction:
    """Representation given by its action matrix in the group entry variables.

    Compatibility with the group multiplication is spot-checked at
    construction on three deterministic pseudo-random pairs of rational group
    points (skipped for custom presentations, which cannot be sampled).
    """

    __slots__ = ("group", "matrix")

    def __init__(self, group: GroupPresentation, matrix: Sequence[Sequence[MultiPoly]]):
        rows = tuple(tuple(row) for row in matrix)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("action matrix must be square")
        for row in rows:
            for p in row:
                if p.variables != group.variables:
                    raise ValueError("action entries must live in the group ring")
        self.group = group
        self.matrix = rows
        if group.label != "custom":
            self._spot_check()

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def evaluate_rational(self, point: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
        det = _det(point, 0)
        if det == 0:
            raise ValueError("singular matrix is not a group point")
        values = {INV_VAR: Fraction(1) / det}
        m = self.group.size
        for i in range(m):
            for j in range(m):
                values[f"g{i + 1}{j + 1}"] = Fraction(point[i][j])
        return [[p.evaluate(values) for p in row] for row in self.matrix]

    def _spot_check(self):
        rng = random.Random(20240719)
        for _ in range(3):
            a = self.group.random_point(rng)
            b = self.group.random_point(rng)
            ab = _rational_matmul(a, b)
            lhs = self.evaluate_rational(ab)
            rhs = _rational_matmul(self.evaluate_rational(a), self.evaluate_rational(b))
            if lhs != rhs:
                raise ValueError("action matrix is not compatible with group multiplication")


Representation = TorusWeights | MatrixAction


def _rational_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][x] * b[x][j] for x in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


class Arc:
    """Matrix of Laurent polynomials with cached determinant."""

    __slots__ = ("matrix", "_det")

    def __init__(self, matrix: Sequence[Sequence[LaurentPoly]]):
        rows = tuple(tuple(entry for entry in row) for row in matrix)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise ValueError("arc must be a nonempty square matrix")
        for row in rows:
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise TypeError("arc entries must be LaurentPoly")
        self.matrix = rows
        self._det = None

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def det(self) -> LaurentPoly:
        if self._det is None:
            self._det = _det(self.matrix, LaurentPoly.zero())
        return self._det

    def entries(self) -> list[LaurentPoly]:
        return [e for row in self.matrix for e in row]

    def is_diagonal(self) -> bool:
        return all(
            self.matrix[i][j].is_zero()
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        )

    def diagonal(self) -> list[LaurentPoly]:
        return [self.matrix[i][i] for i in range(self.size)]

    @classmethod
    def identity(cls, m: int) -> "Arc":
        one = LaurentPoly.constant(1)
        zero = LaurentPoly.zero()
        return cls([[one if i == j else zero for j in range(m)] for i in range(m)])

    @classmethod
    def diagonal_arc(cls, entries: Sequence[LaurentPoly]) -> "Arc":
        zero = LaurentPoly.zero()
        m = len(entries)
        return cls(
            [[entries[i] if i == j else zero for j in range(m)] for i in range(m)]
        )

    @classmethod
    def one_ps(cls, exponents: Sequence[int]) -> "Arc":
        """Diagonal one-parameter subgroup t -> diag(t^e1, ..., t^em)."""
        return cls.diagonal_arc([LaurentPoly.t_power(int(e)) for e in exponents])

    @classmethod
    def elementary(cls, m: int, i: int, j: int, off: LaurentPoly) -> "Arc":
        """Identity plus `off` in position (i, j), zero-indexed, i != j."""
        if i == j:
            raise ValueError("elementary arcs live off the diagonal")
        base = [
            [
                LaurentPoly.constant(1) if r == c else LaurentPoly.zero()
                for c in range(m)
            ]
            for r in range(m)
        ]
        base[i][j] = off
        return cls(base)

    def __matmul__(self, other: "Arc") -> "Arc":
        if self.size != other.size:
            raise ValueError("size mismatch in arc product")
        return Arc(_matmul_laurent(self.matrix, other.matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Arc):
            return NotImplemented
        return self.matrix == other.matrix

    __hash__ = None

    def __repr__(self):
        from .algebra.parser import format_laurent

        rows = "; ".join(
            ", ".join(format_laurent(e) for e in row) for row in self.matrix
        )
        return f"Arc[{rows}]"


def _laurent_adjugate(matrix) -> list[list[LaurentPoly]]:
    m = len(matrix)
    if m == 1:
        return [[LaurentPoly.constant(1)]]
    adj = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [
                [matrix[r][c] for c in range(m) if c != j]
                for r in range(m)
                if r != i
            ]
            cof = _det(minor, LaurentPoly.zero())
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof  # transpose of cofactors
    return adj


def check_arc(group: GroupPresentation, arc: Arc) -> bool:
    """True when the arc satisfies the group relations with nonzero determinant.

    Relations may involve the inverse-determinant variable; they are checked
    after clearing that denominator, which is exact because det != 0.
    """
    if arc.size != group.size:
        raise ValueError("arc size does not match the group")
    det = arc.det
    if det.is_zero():
        return False
    values = _arc_entry_values(arc)
    rels = group.relations.generators
    dpow = _det_powers(det, rels)
    return all(_cleared(rel, values, dpow).is_zero() for rel in rels)


def _arc_entry_values(arc: Arc) -> dict[str, LaurentPoly]:
    values: dict[str, LaurentPoly] = {INV_VAR: LaurentPoly.constant(1)}
    m = arc.size
    for i in range(m):
        for j in range(m):
            values[f"g{i + 1}{j + 1}"] = arc.matrix[i][j]
    return values


def _det_powers(det, polys: Sequence[MultiPoly]) -> list:
    """det^k for k up to the highest ginv-degree among polys."""
    top = max(p.degree_in(INV_VAR) for p in polys)
    return [det.pow(k) for k in range(top + 1)]


def _cleared(poly: MultiPoly, values: dict, dpow: list):
    """poly at values times det^top, where dpow[k] = det^k up to top: with
    top at least the ginv-degree of poly, no inverse determinant is left.
    poly must be nonzero."""
    top = len(dpow) - 1
    acc = None
    for k, coeff in poly.coefficients_in(INV_VAR).items():
        piece = coeff.subs(values) * dpow[top - k]
        acc = piece if acc is None else acc + piece
    return acc


def arcs_equivalent(a: Arc, b: Arc) -> bool:
    """Equivalence of arcs: both mixed composites are integral points.

    a^{-1} b and b a^{-1} share denominator det(a); their entries are
    integral iff every numerator valuation clears val(det a), and the shared
    determinant det(b)/det(a) is a power-series unit iff the determinant
    valuations agree.
    """
    if a.size != b.size:
        raise ValueError("size mismatch between arcs")
    da, db = a.det, b.det
    if da.is_zero() or db.is_zero():
        raise ValueError("invalid arc: zero determinant")
    if da.val != db.val:
        return False
    adj = _laurent_adjugate(a.matrix)
    left = _matmul_laurent(adj, b.matrix)  # a^{-1} b numerators
    right = _matmul_laurent(b.matrix, adj)  # b a^{-1} numerators
    bound = da.val
    for mat in (left, right):
        for row in mat:
            for entry in row:
                if entry.val < bound:
                    return False
    return True


def _matmul_laurent(a, b):
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = LaurentPoly.zero()
            for k in range(m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def act(rep: Representation, arc: Arc, vector: Sequence[Fraction]) -> list[LaurentFrac]:
    """Image of a rational vector under the arc, coordinate by coordinate.

    Results are Laurent-field elements: negative torus weights and
    inverse-determinant powers put denominators in play, but valuations stay
    exact.
    """
    if isinstance(rep, TorusWeights):
        if arc.size != rep.rank:
            raise ValueError("arc size does not match the torus rank")
        if not arc.is_diagonal():
            raise ValueError("TorusWeights representations act through diagonal arcs only")
        units = arc.diagonal()
        if any(u.is_zero() for u in units):
            raise ValueError("invalid arc: zero diagonal entry")
        if len(vector) != rep.dim:
            raise ValueError("vector length does not match the representation")
        out = []
        for chi, coord in zip(rep.weights, vector):
            c = Fraction(coord)
            if c == 0:
                out.append(LaurentFrac(LaurentPoly.zero()))
                continue
            num = LaurentPoly.constant(c)
            den = LaurentPoly.constant(1)
            for u, e in zip(units, chi):
                if e > 0:
                    num = num * u.pow(e)
                elif e < 0:
                    den = den * u.pow(-e)
            out.append(LaurentFrac(num, den))
        return out
    if isinstance(rep, MatrixAction):
        if arc.size != rep.group.size:
            raise ValueError("arc size does not match the group")
        if len(vector) != rep.dim:
            raise ValueError("vector length does not match the representation")
        det = arc.det
        if det.is_zero():
            raise ValueError("invalid arc: zero determinant")
        values = _arc_entry_values(arc)
        dpow = _det_powers(det, [p for row in rep.matrix for p in row])
        out = []
        for i in range(rep.dim):
            acc = LaurentPoly.zero()
            for j, coord in enumerate(vector):
                c = Fraction(coord)
                if c == 0:
                    continue
                entry = rep.matrix[i][j]
                if entry.is_zero():
                    continue
                acc = acc + _cleared(entry, values, dpow).scale(c)
            out.append(LaurentFrac(acc, dpow[-1]))
        return out
    raise TypeError(f"unknown representation type {type(rep).__name__}")


def rep_weights(rep: Representation, m: int) -> list[tuple[int, ...]]:
    """Occurring weights with respect to the diagonal torus of GL_m."""
    if isinstance(rep, TorusWeights):
        if rep.rank != m:
            raise ValueError("torus rank does not match m")
        return list(rep.weights)
    if isinstance(rep, MatrixAction):
        if rep.group.size != m:
            raise ValueError("group size does not match m")
        dvars = [f"d{i}" for i in range(1, m + 1)]
        values: dict[str, MultiPoly] = {INV_VAR: MultiPoly.constant(dvars, 1)}
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    values[f"g{i}{j}"] = MultiPoly.var(dvars, f"d{i}")
                else:
                    values[f"g{i}{j}"] = MultiPoly.zero(dvars)
        prod = MultiPoly.monomial(dvars, (1,) * m)
        dpow = _det_powers(prod, [p for row in rep.matrix for p in row])
        top = len(dpow) - 1
        weights = []
        for i in range(rep.dim):
            for j in range(rep.dim):
                entry = rep.matrix[i][j]
                if entry.is_zero():
                    continue
                cleared = _cleared(entry, values, dpow)
                if i != j:
                    if not cleared.is_zero():
                        raise ValueError(
                            "action is not diagonal in the given basis; weights unavailable"
                        )
                    continue
                if len(cleared.terms) != 1:
                    raise ValueError(
                        "diagonal action entry is not a monomial; weights unavailable"
                    )
                (mono,) = cleared.terms
                weights.append(tuple(e - top for e in mono))
        return weights
    raise TypeError(f"unknown representation type {type(rep).__name__}")


def deg_of_rep(rep: Representation, m: int) -> int:
    """Scaling degree: the maximum coordinate-sum of the occurring weights.

    A weight with a negative coordinate, or the zero weight, has no scaling
    degree and raises ValueError.
    """
    weights = rep_weights(rep, m)
    deg = 0
    for w in weights:
        if any(e < 0 for e in w):
            raise ValueError(f"weight {w} has a negative coordinate")
        s = sum(w)
        if s == 0:
            raise ValueError("the zero weight admits no scaling degree")
        deg = max(deg, s)
    return deg


def mu_weight(
    rep_v: Representation,
    rep_w: Representation,
    v: Sequence[Fraction],
    w: Sequence[Fraction],
    arc: Arc,
):
    """Arc weight ord0(arc.w) - ord0(arc.v); +infinity when w = 0."""
    if all(Fraction(c) == 0 for c in v):
        raise ValueError("v must be nonzero")
    if all(Fraction(c) == 0 for c in w):
        return math.inf
    ord_v = ord0(act(rep_v, arc, v))
    ord_w = ord0(act(rep_w, arc, w))
    return ord_w - ord_v


def arc_norm(rep_v: Representation, v: Sequence[Fraction], arc: Arc):
    """ord0(arc.v) - deg(V) * ord0(arc), nonnegative for homogeneous actions."""
    if all(Fraction(c) == 0 for c in v):
        raise ValueError("v must be nonzero")
    d = deg_of_rep(rep_v, arc.size)
    ord_v = ord0(act(rep_v, arc, v))
    return ord_v - d * ord0(arc.entries())


def point_in_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact test for membership of a point in conv(generators)."""
    gens = list(generators)
    if not gens:
        return False
    k = len(point)
    a_eq = [[Fraction(g[i]) for g in gens] for i in range(k)]
    a_eq.append([Fraction(1)] * len(gens))
    b_eq = [Fraction(point[i]) for i in range(k)] + [Fraction(1)]
    return linprog.feasible(a_eq=a_eq, b_eq=b_eq, n=len(gens))


def diagonal_action(group: GroupPresentation, weights: Sequence[Sequence[int]]) -> MatrixAction:
    """Diagonal matrix action of a torus with one weight vector per coordinate.

    Negative weight components are written through the inverse-determinant
    variable, which equals the inverse of the diagonal product modulo the
    torus relations.
    """
    if not group.is_torus:
        raise ValueError("diagonal actions are defined over torus presentations")
    ring = group.variables
    k = group.size
    ws = TorusWeights(weights)
    if ws.rank != k:
        raise ValueError("weight vectors do not match the torus rank")
    zero = MultiPoly.zero(ring)
    matrix = [[zero for _ in range(ws.dim)] for _ in range(ws.dim)]
    for idx, w in enumerate(ws.weights):
        shift = max(0, -min(w))
        entry = MultiPoly.var(ring, INV_VAR, shift) if shift else MultiPoly.constant(ring, 1)
        for i, e in enumerate(w):
            entry = entry * MultiPoly.var(ring, f"g{i + 1}{i + 1}", e + shift)
        matrix[idx][idx] = entry
    return MatrixAction(group, matrix)


def sym_action(group: GroupPresentation, d: int) -> MatrixAction:
    """Sym^d of the standard two-dimensional action as an explicit matrix."""
    if group.size != 2:
        raise ValueError("symmetric-power helper is for 2x2 groups")
    if d < 1:
        raise ValueError("degree must be positive")
    gvars = list(group.variables)
    ring = gvars + ["x", "y"]
    gx = MultiPoly.var(ring, "g11") * MultiPoly.var(ring, "x") + MultiPoly.var(
        ring, "g21"
    ) * MultiPoly.var(ring, "y")
    gy = MultiPoly.var(ring, "g12") * MultiPoly.var(ring, "x") + MultiPoly.var(
        ring, "g22"
    ) * MultiPoly.var(ring, "y")
    xi, yi = ring.index("x"), ring.index("y")
    dim = d + 1
    cols = []
    for i in range(d, -1, -1):  # basis vector x^i y^{d-i}
        image = gx.pow(i) * gy.pow(d - i)
        col = [MultiPoly.zero(gvars) for _ in range(dim)]
        for mono, coeff in image.terms.items():
            r = mono[xi]  # x-degree of the target monomial
            gpart = list(mono)
            gpart[xi] = 0
            gpart[yi] = 0
            gmono = tuple(gpart[: len(gvars)])
            col[d - r] = col[d - r] + MultiPoly.monomial(gvars, gmono, coeff)
        cols.append(col)
    matrix = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return MatrixAction(group, matrix)
