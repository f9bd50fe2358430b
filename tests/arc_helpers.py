"""Arcs and arc arithmetic that tests use and the package does not: the
identity, the elementary matrices, the product of two arcs, the arc norm as
one call, group-ring polynomials evaluated at an arc on term dicts, and the
cofactor determinant, adjugate and adjugate rule of arc equivalence.  The
falsifier applies elementary factors as column operations instead of
building them, `arcs.weight` composes the norm from `image_order`,
`deg_of_rep` and `norm_from_order` itself, `image_order` evaluates matrix
actions in packed integers, and determinants and equivalence come from one
fraction-free elimination."""

import operator

from stabkit.algebra import LaurentPoly
from stabkit.algebra.multipoly import _add_into, _mul_into, _scale_terms
from stabkit.groups import Arc, _matmul, deg_of_rep, image_order, norm_from_order


def identity_arc(m: int) -> Arc:
    return Arc.diagonal_arc([LaurentPoly.constant(1)] * m)


def elementary_arc(m: int, i: int, j: int, off: LaurentPoly) -> Arc:
    """Identity plus `off` in position (i, j), zero-indexed, i != j."""
    if i == j:
        raise ValueError("elementary arcs live off the diagonal")
    rows = [[LaurentPoly.constant(int(r == c)) for c in range(m)] for r in range(m)]
    rows[i][j] = off
    return Arc(rows)


def arc_product(a: Arc, b: Arc) -> Arc:
    """The matrix product a * b."""
    if a.size != b.size:
        raise ValueError("size mismatch in arc product")
    return Arc(_matmul(a.matrix, b.matrix, LaurentPoly.zero()))


def arc_norm(rep_v, v, arc: Arc):
    """ord0(arc.v) - deg(V) * ord0(arc), nonnegative for homogeneous actions."""
    return norm_from_order(image_order(rep_v, arc, v), deg_of_rep(rep_v, arc.size), arc)


def at_arc(polys, arc: Arc) -> tuple[list[dict], int]:
    """Polynomials of the group ring at an arc, with the inverse determinant
    cleared: the evaluator `image_order` used before it packed arcs into
    integers, kept as its reference.

    `polys` are term dicts over g11..gmm, ginv, and the arc's determinant is
    nonzero.  With top the largest ginv exponent among them, returns the
    term dicts of p(arc) * det^top, one per polynomial, and top.  A term's
    ginv^k becomes det^(top - k).  A term with a positive exponent on a
    variable whose entry is zero vanishes and is skipped before any of its
    factors is multiplied.  The powers of each entry, and of det, come from
    one table shared by every term of every polynomial.
    """
    entries = [e.terms for row in arc.matrix for e in row]
    n = len(entries)
    zeros = [v for v, base in enumerate(entries) if not base]
    top = max((mono[n] for p in polys for mono in p), default=0)
    tables = [[None, base] for base in entries]  # tables[v][e] = base^e, e >= 1
    dets = [None, arc.det.terms]
    for _ in range(top - 1):
        dets.append(_mul_into({}, dets[-1], dets[1], operator.add))
    tables.append(dets)
    out = []
    for p in polys:
        acc: dict = {}
        for mono, c in p.items():
            if any(mono[v] for v in zeros):
                continue
            prod = None
            for table, e in zip(tables, mono[:n] + (top - mono[n],)):
                if not e:
                    continue
                while len(table) <= e:
                    table.append(_mul_into({}, table[-1], table[1], operator.add))
                if prod is None:
                    prod = _scale_terms(table[e], c)
                else:
                    prod = _mul_into({}, prod, table[e], operator.add)
            _add_into(acc, {0: c} if prod is None else prod)
        out.append(acc)
    return out, top


def laurent_det(matrix) -> LaurentPoly:
    """Determinant of a Laurent matrix by cofactor expansion along the first
    row, skipping zero entries: the package's determinant before it
    eliminated, kept as its reference."""
    m = len(matrix)
    if m == 1:
        return matrix[0][0]
    out = LaurentPoly.zero()
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * laurent_det(minor)
        out = out - term if j % 2 else out + term
    return out


def laurent_adjugate(matrix) -> list[list[LaurentPoly]]:
    """The transpose of the cofactor matrix, each cofactor a `laurent_det`."""
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
            cof = laurent_det(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof  # transpose of cofactors
    return adj


def adjugate_equivalent(a: Arc, b: Arc) -> bool:
    """`arcs_equivalent` by the adjugate: adj(a) b and b adj(a), the
    numerators of a^-1 b and b a^-1 over det(a), must have every entry of
    order at least val(det a), and the determinant valuations must agree."""
    if a.size != b.size:
        raise ValueError("size mismatch between arcs")
    da, db = laurent_det(a.matrix), laurent_det(b.matrix)
    if da.is_zero() or db.is_zero():
        raise ValueError("invalid arc: zero determinant")
    if da.val != db.val:
        return False
    adj = laurent_adjugate(a.matrix)
    zero = LaurentPoly.zero()
    left = _matmul(adj, b.matrix, zero)
    right = _matmul(b.matrix, adj, zero)
    return all(entry.val >= da.val for mat in (left, right) for row in mat for entry in row)
