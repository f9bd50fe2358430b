"""Matrix groups, their representations, and arcs.

A group is presented by polynomial relations on the m*m entry variables plus
one inverse-determinant variable, so arcs automatically have invertible
determinant wherever the relations hold.  Arcs are matrices of Laurent
polynomials in t; the valuation bookkeeping for weights never needs honest
power-series expansion: an arc's inverse only ever shows up as det(a) a^-1 b,
a Laurent matrix that fraction-free elimination returns.

Arcs enter arc weights and norms only through t-orders, so `image_order`
reads ord0(arc.v) off them without forming arc.v in the Laurent field: a
torus coordinate's order is a dot product of its weight with the valuations
of the diagonal.  A matrix action meets an arc by Kronecker substitution
t -> 2^k (Harvey, J. Symbolic Comput. 44, 2009): each arc entry the action
reads, its denominators cleared and its exponents shifted into Z[t], becomes
one integer, and each row of the action, contracted with v's primitive
integer coordinates, becomes one integer whose lowest set bit gives the
row's t-order.  Each ginv^e is cleared as det^(top - e), and k comes from an
a-priori bound on the coefficients that makes the reading exact; the
`image_order` docstring states the bound and proves the reading.
`check_arc` reads only the group's kind and the arc's determinant; the
relations are built where elimination reads them as polynomials.

Sym^d actions are built once per process for each group and degree and
shared by every caller.  A matrix action keeps its torus weights once
`rep_weights` has read them and its packed terms once `image_order` has
first met an arc, so a job that reuses an earlier job's group and
representation rebuilds none of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra.ideals import Ideal
from .algebra.laurent import LaurentPoly, ord0
from .algebra.multipoly import MultiPoly, _exact, _exponent, primitive

INV_VAR = "ginv"


def entry_variables(m: int) -> list[str]:
    """Entry variable names g11..gmm followed by the inverse-determinant."""
    if m < 1:
        raise ValueError("matrix size must be positive")
    if m > 9:
        raise ValueError("matrix size above 9 would make entry names ambiguous")
    return [f"g{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)] + [INV_VAR]


def det_polynomial(m: int, variables: Sequence[str]) -> MultiPoly:
    """Symbolic determinant of the generic m*m matrix in the given ring, by
    the Leibniz formula: one term sign(s) * g_{1,s(1)} * ... * g_{m,s(m)} per
    permutation s, in lexicographic order of s (the order in which cofactor
    expansion along the first row meets them)."""
    variables = tuple(variables)
    where = [
        [variables.index(f"g{i}{j}") for j in range(1, m + 1)] for i in range(1, m + 1)
    ]
    zero = [0] * len(variables)
    terms = {}
    for perm in itertools.permutations(range(m)):
        mono = zero[:]
        for row, col in zip(where, perm):
            mono[row[col]] = 1
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        terms[tuple(mono)] = -1 if inversions & 1 else 1
    return MultiPoly._trusted(variables, terms)


def _eliminate(a, b=None):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of a square
    matrix a over `Fraction` or `LaurentPoly`, whose `/` divides exactly.

    Without b, returns det(a) by forward elimination.  With a block b of as
    many rows, runs one-step Gauss-Jordan on [a | b] and returns (d, d a^-1 b)
    for d = +-det(a); a must be nonsingular.  Each updated entry is a minor
    of [a | b] (Sylvester's identity), so its division by the previous pivot
    is exact.  The first pivot divides nothing and a product with a zero
    factor is not formed, so a 2x2 determinant costs at most a11*a22 - a21*a12.
    """
    m = len(a)
    rows = [list(row) for row in a] if b is None else [[*r, *s] for r, s in zip(a, b)]
    sign, prev = 1, None
    for k in range(m):
        if not rows[k][k]:
            p = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if p is None:
                if b is None:
                    return rows[k][k]
                raise ValueError("elimination needs a nonsingular matrix")
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        head = rows[k]
        pivot, rest = head[k], head[k + 1 :]
        for row in rows[k + 1 :] if b is None else rows[:k] + rows[k + 1 :]:
            f = row[k]
            new = [pivot * x - f * y if f and y else pivot * x for x, y in zip(row[k + 1 :], rest)]
            row[k + 1 :] = new if prev is None else [x / prev for x in new]
        prev = pivot
    if b is None:
        return prev if sign > 0 else -prev
    return prev, [row[m:] for row in rows]


@dataclass(frozen=True)
class GroupPresentation:
    """A torus, SL_m or GL_m of size m.

    `kind` is the job schema's name for the group: "torus", "special-linear"
    or "general-linear".  Equality and hash compare (size, kind).  The
    relations that cut the group out of GL_m are built only where they are
    read as polynomials, by elimination in `locus`; `check_arc` decides
    membership from `kind` and the arc's determinant.
    """

    size: int
    kind: str
    variables: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("torus", "special-linear", "general-linear"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        object.__setattr__(self, "variables", tuple(entry_variables(self.size)))

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def rank(self) -> int:
        if not self.is_torus:
            raise ValueError("rank is defined for torus presentations only")
        return self.size

    @functools.cached_property
    def relations(self) -> Ideal:
        """The ideal cutting the group out of GL_m; its unit relation makes
        ginv the inverse determinant.  A torus's off-diagonal entries vanish,
        and its unit relation ginv*g11*...*gkk - 1 generates the same ideal as
        ginv*det - 1 without the k!-term determinant that SL and GL need."""
        variables = self.variables
        if self.is_torus:
            in_unit = {f"g{i}{i}" for i in range(1, self.size + 1)} | {INV_VAR}
            gens = [MultiPoly.var(variables, v) for v in variables if v not in in_unit]
            mono = tuple(int(v in in_unit) for v in variables)
            gens.append(MultiPoly(variables, {mono: 1, (0,) * len(variables): -1}))
            return Ideal(variables, gens)
        det = det_polynomial(self.size, variables)
        unit = MultiPoly.var(variables, INV_VAR) * det - 1
        return Ideal(variables, [det - 1, unit] if self.kind == "special-linear" else [unit])

    def random_point(self, rng: random.Random) -> list[list[Fraction]]:
        """A rational point of the group, for representation spot-checks."""
        m = self.size
        if self.is_torus:
            return _diag_matrix([_nonzero_rational(rng) for _ in range(m)], Fraction(0))
        if self.kind == "general-linear":
            while True:
                mat = [
                    [Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)
                ]
                if _eliminate(mat):
                    return mat
        # special-linear: the identity after three elementary row operations
        mat = _diag_matrix([Fraction(1)] * m, Fraction(0))
        if m >= 2:
            for _ in range(3):
                i, j = rng.sample(range(m), 2)
                c = Fraction(rng.randint(-3, 3))
                for col in range(m):
                    mat[i][col] += c * mat[j][col]
        return mat


def _diag_matrix(entries: Sequence, zero) -> list[list]:
    m = len(entries)
    return [[entries[i] if i == j else zero for j in range(m)] for i in range(m)]


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
        ws = tuple(tuple(map(_exponent, w)) for w in weights)
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

    The constructor checks only that the matrix is square and that its
    entries live in the group's ring.  Compatibility with the group
    multiplication is checked by `check_action`, where a matrix arrives from
    a job document.
    """

    __slots__ = ("group", "matrix", "_weights", "_packed")

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
        self._weights = None  # rep_weights' result, kept once it succeeds
        self._packed = None  # _pack_terms' result, built when image_order first meets an arc

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def evaluate_rational(self, point: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
        det = _eliminate([[Fraction(e) for e in row] for row in point])
        if det == 0:
            raise ValueError("singular matrix is not a group point")
        values = {f"g{i}{j}": e for i, row in enumerate(point, 1) for j, e in enumerate(row, 1)}
        values[INV_VAR] = Fraction(1) / det
        return [[p.subs(values) for p in row] for row in self.matrix]


Representation = TorusWeights | MatrixAction


def _matmul(a, b, zero):
    """Matrix product over any commutative ring; `zero` is the ring's zero."""
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


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
            self._det = _eliminate(self.matrix)
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
    def diagonal_arc(cls, entries: Sequence[LaurentPoly]) -> "Arc":
        return cls(_diag_matrix(entries, LaurentPoly.zero()))

    @classmethod
    def one_ps(cls, exponents: Sequence[int]) -> "Arc":
        """Diagonal one-parameter subgroup t -> diag(t^e1, ..., t^em)."""
        return cls.diagonal_arc([LaurentPoly.t_power(e) for e in exponents])

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


def check_arc(group: GroupPresentation, arc: Arc) -> bool:
    """True when the arc satisfies the group relations with nonzero determinant.

    Decided from the group's kind and the arc's determinant, without the
    relations: an arc lies in GL exactly when det != 0, in SL when moreover
    det = 1, and in the torus when moreover it is diagonal.
    """
    if arc.size != group.size:
        raise ValueError("arc size does not match the group")
    det = arc.det
    if det.is_zero():
        return False
    if group.kind == "special-linear":
        return det == LaurentPoly.constant(1)
    return group.kind == "general-linear" or arc.is_diagonal()


def check_action(action: MatrixAction) -> bool:
    """Spot check of compatibility with the group multiplication: rho sends
    the identity to the identity, as a representation must (rho(1) is an
    invertible idempotent), and rho(ab) = rho(a) rho(b) on three
    deterministic pseudo-random pairs of rational group points.
    """
    group = action.group
    one = _diag_matrix([Fraction(1)] * group.size, Fraction(0))
    if action.evaluate_rational(one) != _diag_matrix([1] * action.dim, 0):
        return False
    rng = random.Random(20240719)
    for _ in range(3):
        a = group.random_point(rng)
        b = group.random_point(rng)
        lhs = action.evaluate_rational(_matmul(a, b, Fraction(0)))
        rhs = _matmul(action.evaluate_rational(a), action.evaluate_rational(b), Fraction(0))
        if lhs != rhs:
            return False
    return True


def arcs_equivalent(a: Arc, b: Arc) -> bool:
    """Equivalence of arcs: both mixed composites are integral points.

    a^{-1} b and b a^{-1} share denominator det(a); elimination gives their
    numerators, from [a | b] and from the transposes.  The entries are
    integral iff every numerator valuation clears val(det a), and the shared
    determinant det(b)/det(a) is a power-series unit iff the valuations agree.
    """
    if a.size != b.size:
        raise ValueError("size mismatch between arcs")
    da, db = a.det, b.det
    if da.is_zero() or db.is_zero():
        raise ValueError("invalid arc: zero determinant")
    if da.val != db.val:
        return False
    for left, right in ((a.matrix, b.matrix), (list(zip(*a.matrix)), list(zip(*b.matrix)))):
        _, x = _eliminate(left, right)
        if any(entry.val < da.val for row in x for entry in row):
            return False
    return True


def rep_weights(rep: Representation, m: int) -> list[tuple[int, ...]]:
    """Occurring weights with respect to the diagonal torus of GL_m."""
    if isinstance(rep, TorusWeights):
        if rep.rank != m:
            raise ValueError("torus rank does not match m")
        return list(rep.weights)
    if isinstance(rep, MatrixAction):
        if rep.group.size != m:
            raise ValueError("group size does not match m")
        if rep._weights is None:
            rep._weights = tuple(_action_weights(rep.matrix, m))
        return list(rep._weights)
    raise TypeError(f"unknown representation type {type(rep).__name__}")


def _action_weights(matrix, m: int) -> list[tuple[int, ...]]:
    """Torus weights of an action matrix over GL_m, one per coordinate;
    ValueError when the action is not diagonal with monomial entries.  A
    diagonal entry that vanishes on the torus, zero included, is no monomial
    and leaves its coordinate without a weight, so it raises too."""
    # On the diagonal torus g_ij = 0 (i != j), g_ii = d_i and ginv is
    # 1/(d_1...d_m): a term survives only without off-diagonal
    # variables, and then has weight (e_ii - e_ginv)_i.
    n = m * m
    diagonal = [p for p in range(n) if p // m == p % m]
    off = [p for p in range(n) if p // m != p % m]
    weights = []
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            found: dict = {}
            for mono, c in entry.terms.items():
                if any(mono[p] for p in off):
                    continue
                w = tuple(mono[p] - mono[n] for p in diagonal)
                s = found.get(w, 0) + c
                if s:
                    found[w] = s
                else:
                    del found[w]
            if i != j:
                if found:
                    raise ValueError(
                        "action is not diagonal in the given basis; weights unavailable"
                    )
                continue
            if len(found) != 1:
                raise ValueError("diagonal action entry is not a monomial; weights unavailable")
            weights.extend(found)
    return weights


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


def image_order(rep: Representation, arc: Arc, v: Sequence[Fraction]):
    """ord0(arc.v) for a nonzero v: the term that mu_from_order and
    norm_from_order share, for callers that need both of one arc.

    Read off t-orders, without forming arc.v.  At diag(u_1, ..., u_m) a torus
    coordinate of weight chi has order <chi, (val u_1, ..., val u_m)>.

    A matrix action's coordinate is p(arc) for the row p = sum_j c_j g_ij,
    where c is v's primitive integer multiple (ord0 ignores the scale) and
    g_ij the action's entries.  Clearing each ginv^e as det^(top - e) makes
    it N / det^top, so a nonzero one has order ord(N) - top * val(det).
    ord(N) is read by Kronecker substitution.  With D the common denominator
    of the arc entries the action reads (all of them when top > 0) and
    lo = min(0, their lowest exponent), each entry e becomes E = D t^-lo e in
    Z[t], and det becomes det(E).  A term of degree tau, det^(top - e)
    counting m * (top - e), is padded by (D t^-lo)^(Delta - tau), Delta the
    action's largest degree, and the row's coefficients are cleared by the
    lcm L of their denominators: Q = L (D t^-lo)^Delta N lies in Z[t] and
    ord(N) = ord(Q) + lo * Delta.  Since t -> 2^k is a ring homomorphism
    Z[t] -> Z, Q(2^k) is one integer made from the integers E(2^k).

    Exactness: if every coefficient a_i of Q has |a_i| < 2^(k-1), then
    Q(2^k) = 2^(k ord Q) (a_ord + 2^k r) for an integer r, and a_ord != 0
    has v2(a_ord) <= k - 2, so v2(Q(2^k)) = k ord(Q) + v2(a_ord) and
    ord(Q) = v2(Q(2^k)) // k; and Q = 0 exactly when Q(2^k) = 0.  The
    1-norm is submultiplicative and ||det(E)||_1 <= m! M^m, with
    M = max(D, ||E||_1 over the entries read), so every |a_i| is at most
    ||Q||_1 <= sum_j |c_j| ||L g_ij||_1 (m!)^top M^Delta, and k is one more
    than the bit length of that bound.
    """
    if not any(map(_exact, v)):
        raise ValueError("v must be nonzero")
    if isinstance(rep, TorusWeights):
        if arc.size != rep.rank:
            raise ValueError("arc size does not match the torus rank")
        if not arc.is_diagonal():
            raise ValueError("TorusWeights representations act through diagonal arcs only")
        vals = [u.val for u in arc.diagonal()]
        if math.inf in vals:
            raise ValueError("invalid arc: zero diagonal entry")
        if len(v) != rep.dim:
            raise ValueError("vector length does not match the representation")
        return min(
            sum(map(operator.mul, chi, vals)) for chi, c in zip(rep.weights, v) if _exact(c)
        )
    if isinstance(rep, MatrixAction):
        if arc.size != rep.group.size:
            raise ValueError("arc size does not match the group")
        if len(v) != rep.dim:
            raise ValueError("vector length does not match the representation")
        if arc.det.is_zero():
            raise ValueError("invalid arc: zero determinant")
        if rep._packed is None:
            rep._packed = _pack_terms(rep)
        return _packed_order(rep._packed, arc, [_exact(c) for c in v])
    raise TypeError(f"unknown representation type {type(rep).__name__}")


def _pack_terms(action: MatrixAction) -> tuple:
    """The action's terms in the form `_packed_order` evaluates: (top,
    Delta, the entry slots read, (slot, largest exponent) for each slot a
    term uses, one tuple of (row, terms) per column, the largest
    ||L g_ij||_1 of each column), as `image_order` defines them.

    A term is (its coefficient times its row's L, its nonzero (slot,
    exponent) factors).  Slots 0..n-1 are the entries g11..gmm, slot n is
    det with exponent top - e for ginv^e, and slot n + 1 is the padding
    D t^-lo with exponent Delta - tau.  Equal factors are one object.
    """
    m = action.group.size
    n = m * m
    monos = [mono for row in action.matrix for p in row for mono in p.terms]
    top = max((mono[n] for mono in monos), default=0)
    delta = max((sum(mono[:n]) + m * (top - mono[n]) for mono in monos), default=0)
    largest = [0] * (n + 2)
    factors: dict = {}
    columns = [[] for _ in range(action.dim)]
    norms = [0] * action.dim
    for i, row in enumerate(action.matrix):
        scale = math.lcm(*(c.denominator for p in row for c in p.terms.values()))
        for j, p in enumerate(row):
            if not p.terms:
                continue
            terms = []
            for mono, c in p.terms.items():
                det = top - mono[n]
                exps = mono[:n] + (det, delta - sum(mono[:n]) - m * det)
                for slot, e in enumerate(exps):
                    largest[slot] = max(largest[slot], e)
                key = tuple(factors.setdefault((s, e), (s, e)) for s, e in enumerate(exps) if e)
                terms.append((c.numerator * (scale // c.denominator), key))
            columns[j].append((i, tuple(terms)))
            norms[j] = max(norms[j], sum(abs(c) for c, _ in terms))
    reads = tuple(range(n)) if top else tuple(s for s in range(n) if largest[s])
    slots = tuple((s, e) for s, e in enumerate(largest) if e)
    return top, delta, reads, slots, tuple(map(tuple, columns)), tuple(norms)


def _packed_order(packed: tuple, arc: Arc, values: list):
    """ord0 of the image of the nonzero vector `values` under the action
    `_pack_terms` packed, at an arc of nonzero determinant: `image_order`'s
    Kronecker reading.

    When no term has a factor, every term is c * ginv^top and each row is a
    constant over det^top, of order -top * val(det) where it is nonzero; no
    power is built.  A constant action (top = 0) is the identity once
    `check_action` passed it, of order 0."""
    top, delta, reads, slots, columns, norms = packed
    if not slots:
        rows: dict = {}
        for j, c in enumerate(values):
            if c:
                for i, terms in columns[j]:
                    rows[i] = rows.get(i, 0) + c * sum([coeff for coeff, _ in terms])
        if not any(rows.values()):
            raise ValueError("ord0 of an all-zero vector is undefined")
        return -top * arc.det.val
    coords = [(j, c) for j, c in enumerate(primitive(values)) if c]
    m = arc.size
    n = m * m
    entries = [e.terms for row in arc.matrix for e in row]
    read = [entries[s] for s in reads]
    den = math.lcm(*[c.denominator for terms in read for c in terms.values()])
    lo = min([0, *[e for terms in read for e in terms]])
    big = int(den * max([1, *[sum(map(abs, terms.values())) for terms in read]]))
    bound = sum([abs(c) * norms[j] for j, c in coords])
    k = (bound * math.factorial(m) ** top * big**delta).bit_length() + 1
    powers = [None] * (n + 2)
    for s, largest in slots:
        if s < n:
            x = sum([int(c * den) << (k * (e - lo)) for e, c in entries[s].items()])
        elif s == n:
            scale = den**m
            x = sum([int(c * scale) << (k * (e - m * lo)) for e, c in arc.det.terms.items()])
        else:
            x = den << (-k * lo)
        table = [1, x]
        while len(table) <= largest:
            table.append(table[-1] * x)
        powers[s] = table
    rows: dict = {}
    for j, c in coords:
        for i, terms in columns[j]:
            acc = 0
            for coeff, key in terms:
                for s, e in key:
                    coeff *= powers[s][e]
                acc += coeff
            rows[i] = rows.get(i, 0) + c * acc
    found = [((x & -x).bit_length() - 1) // k for x in rows.values() if x]
    if not found:
        raise ValueError("ord0 of an all-zero vector is undefined")
    return min(found) + lo * delta - top * arc.det.val


def mu_from_order(ord_v, rep_w: Representation, w: Sequence[Fraction], arc: Arc):
    """Arc weight ord0(arc.w) - ord_v, with ord_v = image_order(rep_v, arc, v);
    +infinity when w = 0, which must still fit rep_w and the arc."""
    if not any(map(_exact, w)):
        if isinstance(rep_w, TorusWeights):
            if arc.size != rep_w.rank:
                raise ValueError("arc size does not match the torus rank")
        elif arc.size != rep_w.group.size:
            raise ValueError("arc size does not match the group")
        if len(w) != rep_w.dim:
            raise ValueError("vector length does not match the representation")
        return math.inf
    return image_order(rep_w, arc, w) - ord_v


def norm_from_order(ord_v, d: int, arc: Arc):
    """Arc norm ord_v - d * ord0(arc), with ord_v = image_order(rep_v, arc, v)
    and d = deg_of_rep(rep_v, arc.size)."""
    return ord_v - d * ord0(arc.entries())


def mu_weight(
    rep_v: Representation,
    rep_w: Representation,
    v: Sequence[Fraction],
    w: Sequence[Fraction],
    arc: Arc,
):
    """Arc weight ord0(arc.w) - ord0(arc.v); +infinity when w = 0."""
    return mu_from_order(image_order(rep_v, arc, v), rep_w, w, arc)


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
    """Sym^d of the standard two-dimensional action as an explicit matrix.

    Built once per process for each equal group and degree, among the last
    `SYM_ACTIONS_KEPT` asked for, and shared by every caller, who must not
    change it.
    """
    if group.size != 2:
        raise ValueError("symmetric-power helper is for 2x2 groups")
    if d < 1:
        raise ValueError("degree must be positive")
    return _sym_action(group, d)


SYM_ACTIONS_KEPT = 16


# typed: a degree that is equal to an int but not one, such as 2.0, still
# fails in the builder as it did before actions were shared
@functools.lru_cache(maxsize=SYM_ACTIONS_KEPT, typed=True)
def _sym_action(group: GroupPresentation, d: int) -> MatrixAction:
    ring = group.variables  # g11, g12, g21, g22, ginv
    dim = d + 1
    matrix = [[{} for _ in range(dim)] for _ in range(dim)]
    for col in range(dim):
        # basis vector x^i y^(d-i) goes to (g11 x + g21 y)^i (g12 x + g22 y)^(d-i);
        # its x^(a+c) y^(d-a-c) part lands in row d - a - c
        i = d - col
        for a in range(i + 1):
            for c in range(d - i + 1):
                coeff = math.comb(i, a) * math.comb(d - i, c)
                matrix[d - a - c][col][(a, c, i - a, d - i - c, 0)] = coeff
    rows = [[MultiPoly._trusted(ring, terms) for terms in row] for row in matrix]
    return MatrixAction(group, rows)
