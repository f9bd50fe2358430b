"""Laurent polynomials in one variable t with exact rational coefficients.

Terms are kept in a dict mapping integer exponents (possibly negative) to
nonzero coefficients, each an `int` when integral and a `Fraction` otherwise,
as in the multivariate module.  The t-adic valuation of the zero polynomial
is +infinity, matching the convention that ord0 runs over nonzero entries
only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from .multipoly import _add_into, _exact, _exponent, _mul_into, _quo, _scale_terms


class LaurentPoly:
    """Sparse Laurent polynomial over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int | Fraction] | None = None):
        clean: dict[int, int | Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = _exponent(exp)
                c = _exact(coeff)
                if c:
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> "LaurentPoly":
        """Wrap an arithmetic result without re-validating it: `terms` maps
        int exponents to nonzero coefficients, each an int when integral and
        a Fraction otherwise."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t_power(cls, n: int) -> "LaurentPoly":
        return cls({n: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def val(self):
        """t-adic valuation; +infinity for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _coerce(value) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return LaurentPoly.constant(value)
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._trusted(_add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._trusted(_mul_into({}, self.terms, other.terms, operator.add))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        """The exact quotient in Q[t, t^-1], by long division from the top
        term; ValueError when the top term of a remainder needs a quotient
        exponent below val(self) - val(other), where no Laurent quotient is."""
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("Laurent division by zero")
        rem = dict(self.terms)
        top = max(other.terms)
        low = min(rem, default=0) - min(other.terms)
        quot = {}
        while rem:
            e = max(rem)
            if e - top < low:
                raise ValueError("not divisible: the quotient is not a Laurent polynomial")
            c = quot[e - top] = _quo(rem[e], other.terms[top])
            _mul_into(rem, {e - top: -c}, other.terms, operator.add)
        return LaurentPoly._trusted(quot)

    def scale(self, c) -> "LaurentPoly":
        c = _exact(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly._trusted(_scale_terms(self.terms, c))

    def __repr__(self):
        from .parser import format_laurent

        return f"LaurentPoly({format_laurent(self)!r})"


def ord0(entries: Iterable[LaurentPoly | LaurentFrac]):
    """Minimum valuation over the nonzero entries of a vector.

    Raises ValueError on the all-zero vector: the order of vanishing of
    nothing is undefined.
    """
    best = None
    for p in entries:
        if p.is_zero():
            continue
        v = p.val
        if best is None or v < best:
            best = v
    if best is None:
        raise ValueError("ord0 of an all-zero vector is undefined")
    return best


class LaurentFrac:
    """Element of the Laurent field, kept as a numerator/denominator pair.

    Valuations, arithmetic and exact equality need no power-series
    expansion.  No package code builds one: arc weights read t-orders off
    `groups.image_order` without forming images in the Laurent field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.constant(1)
        if den.is_zero():
            raise ZeroDivisionError("LaurentFrac with zero denominator")
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def val(self):
        if self.num.is_zero():
            return math.inf
        return self.num.val - self.den.val

    @staticmethod
    def _coerce(value) -> "LaurentFrac":
        if isinstance(value, LaurentFrac):
            return value
        if isinstance(value, LaurentPoly):
            return LaurentFrac(value)
        if isinstance(value, (int, Fraction)):
            return LaurentFrac(LaurentPoly.constant(value))
        return NotImplemented

    def __add__(self, other) -> "LaurentFrac":
        other = LaurentFrac._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return LaurentFrac(self.num + other.num, self.den)
        return LaurentFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "LaurentFrac":
        return LaurentFrac(-self.num, self.den)

    def __sub__(self, other) -> "LaurentFrac":
        other = LaurentFrac._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentFrac":
        other = LaurentFrac._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentFrac":
        return LaurentFrac(self.num.scale(c), self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = LaurentFrac(other)
        if not isinstance(other, LaurentFrac):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # cross-multiplied equality has no cheap canonical hash

    def __repr__(self):
        from .parser import format_laurent

        return f"LaurentFrac({format_laurent(self.num)!r} / {format_laurent(self.den)!r})"
