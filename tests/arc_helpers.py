"""Arcs and arc arithmetic that tests use and the package does not: the
identity, the elementary matrices, the product of two arcs, the arc norm as
one call, and group-ring polynomials evaluated at an arc on term dicts.  The
falsifier applies elementary factors as column operations instead of
building them, `arcs.weight` composes the norm from `image_order`,
`deg_of_rep` and `norm_from_order` itself, and `image_order` evaluates
matrix actions in packed integers."""

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
