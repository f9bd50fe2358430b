"""Arcs and arc arithmetic that tests use and the package does not: the
identity, the elementary matrices, the product of two arcs, and the arc norm
as one call.  The falsifier applies elementary factors as column operations
instead of building them, and `arcs.weight` composes the norm from
`image_order`, `deg_of_rep` and `norm_from_order` itself."""

from stabkit.algebra import LaurentPoly
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
