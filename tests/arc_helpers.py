"""Arcs that tests build and the package does not: the identity and the
elementary matrices.  The falsifier applies elementary factors as column
operations instead of building them."""

from stabkit.algebra import LaurentPoly
from stabkit.groups import Arc


def identity_arc(m: int) -> Arc:
    return Arc.diagonal_arc([LaurentPoly.constant(1)] * m)


def elementary_arc(m: int, i: int, j: int, off: LaurentPoly) -> Arc:
    """Identity plus `off` in position (i, j), zero-indexed, i != j."""
    if i == j:
        raise ValueError("elementary arcs live off the diagonal")
    rows = [[LaurentPoly.constant(int(r == c)) for c in range(m)] for r in range(m)]
    rows[i][j] = off
    return Arc(rows)
