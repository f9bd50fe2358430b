"""Exact commutative algebra: Laurent polynomials, multivariate rings,
monomial orders, and a budgeted Groebner engine."""

from .ideals import (
    Budget,
    BudgetError,
    DEFAULT_BUDGET,
    Ideal,
    buchberger,
    eliminate,
    fresh_name,
    groebner,
    intersect,
    member,
    radical_member,
    reduce_poly,
    saturate,
)
from .laurent import LaurentFrac, LaurentPoly, ord0
from .multipoly import GREVLEX, LEX, MonomialOrder, MultiPoly
from .parser import (
    ParseError,
    format_laurent,
    format_multi,
    format_rational,
    parse_laurent,
    parse_multi,
    parse_rational,
)

__all__ = [
    "Budget",
    "BudgetError",
    "DEFAULT_BUDGET",
    "GREVLEX",
    "Ideal",
    "LEX",
    "LaurentFrac",
    "LaurentPoly",
    "MonomialOrder",
    "MultiPoly",
    "ParseError",
    "buchberger",
    "eliminate",
    "format_laurent",
    "format_multi",
    "format_rational",
    "fresh_name",
    "groebner",
    "intersect",
    "member",
    "ord0",
    "parse_laurent",
    "parse_multi",
    "parse_rational",
    "radical_member",
    "reduce_poly",
    "saturate",
]
