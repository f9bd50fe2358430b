"""Laurent polynomials in one variable t with exact rational coefficients.

Terms are kept in a dict mapping integer exponents (possibly negative) to
nonzero Fractions.  The t-adic valuation of the zero polynomial is +infinity,
matching the convention that ord0 runs over nonzero entries only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from .multipoly import _add_into, _mul_into, _pow_terms


class LaurentPoly:
    """Sparse Laurent polynomial over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[int(exp)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> "LaurentPoly":
        """Wrap an arithmetic result without re-validating it: `terms` maps
        int exponents to nonzero Fractions."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def t_power(cls, n: int, coeff=1) -> "LaurentPoly":
        return cls({n: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def val(self):
        """t-adic valuation; +infinity for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(self.terms)

    @property
    def degree(self):
        if not self.terms:
            return -math.inf
        return max(self.terms)

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

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly()
        return LaurentPoly._trusted({e: k * c for e, k in self.terms.items()})

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by t^n."""
        return LaurentPoly._trusted({e + n: c for e, c in self.terms.items()})

    def pow(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use LaurentFrac")
        return LaurentPoly._trusted(_pow_terms(self.terms, n, 0, operator.add))

    def coeff(self, exp: int) -> Fraction:
        return self.terms.get(exp, Fraction(0))

    def __repr__(self):
        from .parser import format_laurent

        return f"LaurentPoly({format_laurent(self)!r})"


def val(p: LaurentPoly):
    """t-adic valuation of p, +infinity when p = 0."""
    return p.val


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


def poly_divmod(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Exact division with remainder in the Laurent ring.

    Shifts both arguments to ordinary polynomials, runs univariate long
    division, and shifts the quotient back.  den must be nonzero.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero():
        return LaurentPoly(), LaurentPoly()
    nv, dv = num.val, den.val
    # shifted copies have valuation 0
    n = {e - nv: c for e, c in num.terms.items()}
    d = {e - dv: c for e, c in den.terms.items()}
    ddeg = max(d)
    dlead = d[ddeg]
    q: dict[int, Fraction] = {}
    r = dict(n)
    while r and max(r) >= ddeg:
        rdeg = max(r)
        factor = r[rdeg] / dlead
        q[rdeg - ddeg] = factor
        for e, c in d.items():
            e2 = e + rdeg - ddeg
            s = r.get(e2, Fraction(0)) - factor * c
            if s == 0:
                r.pop(e2, None)
            else:
                r[e2] = s
    quot = LaurentPoly(q).shift(nv - dv)
    rem = LaurentPoly(r).shift(nv)
    return quot, rem


class LaurentFrac:
    """Element of the Laurent field, kept as a numerator/denominator pair.

    Group actions with negative torus weights or inverse-determinant factors
    land here; only valuations, arithmetic and exact equality are needed
    downstream, none of which require expanding power series.
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

    def as_polynomial(self) -> LaurentPoly:
        """Exact quotient; raises ValueError when the division is not exact."""
        quot, rem = poly_divmod(self.num, self.den)
        if not rem.is_zero():
            raise ValueError("LaurentFrac is not a Laurent polynomial")
        return quot

    def __repr__(self):
        from .parser import format_laurent

        return f"LaurentFrac({format_laurent(self.num)!r} / {format_laurent(self.den)!r})"


def frac_pow(base: LaurentPoly, exp: int) -> LaurentFrac:
    """base^exp in the Laurent field; negative exponents allowed."""
    if exp >= 0:
        return LaurentFrac(base.pow(exp))
    if base.is_zero():
        raise ZeroDivisionError("negative power of zero")
    return LaurentFrac(LaurentPoly.constant(1), base.pow(-exp))
