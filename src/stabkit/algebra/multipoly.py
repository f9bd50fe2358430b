"""Multivariate polynomials over the rationals with pluggable monomial orders.

A polynomial is a dict from exponent tuples to nonzero rational
coefficients, tagged with its ambient variable tuple.  A coefficient is an
`int` when it is integral and a `Fraction` only when it is not, so the common
integral case runs on plain int arithmetic; mixed int/Fraction arithmetic is
exact.  Exponents are nonnegative here; Laurent behaviour lives in the
one-variable module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, index, le, neg, sub
from typing import Callable, Mapping, Sequence

Monomial = tuple[int, ...]


class MonomialOrder:
    """Total order on monomials: graded-reverse-lex, lex, or a block order.

    A block order compares the first `split` exponents by grevlex and breaks
    ties with grevlex on the rest; with the dropped variables in the first
    block it is an elimination order.
    """

    def __init__(self, kind: str = "grevlex", split: int | None = None):
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown monomial order {kind!r}")
        if kind == "block":
            if split is None or split < 0:
                raise ValueError("block order needs a nonnegative split point")
        self.kind = kind
        self.split = split

    def key(self, m: Monomial) -> Monomial:
        """Sort key, a flat tuple of ints: larger key = larger monomial.

        grevlex: (deg, -e_n, ..., -e_1); block: the grevlex keys of the two
        blocks one after the other; lex: m itself.
        """
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return (sum(m), *map(neg, m[::-1]))
        a, b = m[: self.split], m[self.split :]
        return (sum(a), *map(neg, a[::-1]), sum(b), *map(neg, b[::-1]))

    def heap_key(self, m: Monomial) -> Monomial:
        """`key(m)` with every entry negated: a min-heap of these pops the
        largest monomial first."""
        if self.kind == "lex":
            return tuple(map(neg, m))
        if self.kind == "grevlex":
            return (-sum(m), *m[::-1])
        a, b = m[: self.split], m[self.split :]
        return (-sum(a), *a[::-1], -sum(b), *b[::-1])

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', split={self.split})"
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def _mul_mono(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


# The sparse-term kernel shared with the Laurent module.  A term dict maps
# exponents to nonzero coefficients, each an int when integral and a
# non-integral Fraction otherwise; `add` multiplies two monomials, which is
# exponent addition on ints or on tuples.  A sum or product of two
# coefficients is exact but may be an integral Fraction, so the loops hand
# such a result back as its numerator.


def _exact(c):
    """The kernel coefficient of the rational c: an int when c is integral,
    else a Fraction.  A float is refused: its binary value is rarely the
    rational that was meant."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"float coefficient {c!r}; pass an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def primitive(values) -> list[int]:
    """The primitive integer vector that is a positive multiple of the
    rationals `values` (a list or a dict view): denominators cleared,
    content divided out."""
    den = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _exponent(e) -> int:
    """The exponent e as an int.  A float or Fraction is refused, not
    truncated: 2.5 would silently become 2 and could merge two terms."""
    try:
        return index(e)
    except TypeError:
        raise TypeError(f"exponent {e!r} is not an int") from None


def _quo(a, b):
    """a / b for kernel coefficients, exactly, as a kernel coefficient."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _add_into(out: dict, terms: Mapping) -> dict:
    """out += terms in place, dropping cancelled terms; returns out."""
    for m, c in terms.items():
        s = out[m] + c if m in out else c
        if s:
            out[m] = s if type(s) is int or s.denominator != 1 else s.numerator
        else:
            del out[m]
    return out


def _mul_into(out: dict, a: Mapping, b: Mapping, add: Callable) -> dict:
    """out += a * b in place, dropping cancelled terms; returns out."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = add(m1, m2)
            s = out[m] + c1 * c2 if m in out else c1 * c2
            if s:
                out[m] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[m]
    return out


def _scale_terms(terms: Mapping, c) -> dict:
    """terms * c for a nonzero kernel coefficient c."""
    out = {}
    for m, k in terms.items():
        s = k * c
        out[m] = s if type(s) is int or s.denominator != 1 else s.numerator
    return out


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b componentwise."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


class MultiPoly:
    """Polynomial in the variables `variables` with rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(
        self, variables: Sequence[str], terms: Mapping[Monomial, int | Fraction] | None = None
    ):
        self.variables = tuple(variables)
        n = len(self.variables)
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(map(_exponent, mono))
                if len(mono) != n:
                    raise ValueError("exponent tuple does not match variable count")
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent in a polynomial ring element")
                c = _exact(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict) -> "MultiPoly":
        """Wrap an arithmetic result without re-validating it: `terms` maps
        exponent tuples of the ring's length to nonzero coefficients, each an
        int when integral and a Fraction otherwise."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables: Sequence[str], name: str, power: int = 1) -> "MultiPoly":
        idx = list(variables).index(name)
        mono = tuple(power if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def _check_ring(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise ValueError(f"ring mismatch: {self.variables} vs {other.variables}")

    def _coerce(self, value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.constant(self.variables, value)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        return MultiPoly._trusted(self.variables, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        return MultiPoly._trusted(self.variables, _mul_into({}, self.terms, other.terms, _mul_mono))

    __rmul__ = __mul__

    def lead(self, order: MonomialOrder) -> tuple[Monomial, int | Fraction]:
        """Leading (monomial, coefficient) under `order`; errors on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def uses_variable(self, name: str) -> bool:
        idx = self.variables.index(name)
        return any(m[idx] > 0 for m in self.terms)

    def rename(self, variables: Sequence[str]) -> "MultiPoly":
        """Reinterpret in a different ring with the same arity."""
        if len(variables) != len(self.variables):
            raise ValueError("arity mismatch in rename")
        return MultiPoly._trusted(tuple(variables), dict(self.terms))

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a superset ring (variables may be reordered)."""
        variables = tuple(variables)
        pos = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v!r} missing from target ring")
            pos.append(variables.index(v))
        out: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            mono = [0] * len(variables)
            for p, e in zip(pos, m):
                mono[p] = e
            out[tuple(mono)] = c
        return MultiPoly._trusted(variables, out)

    def restrict(self, variables: Sequence[str]) -> "MultiPoly":
        """Project onto a subring; errors if a dropped variable occurs."""
        variables = tuple(variables)
        keep = []
        for v in variables:
            keep.append(self.variables.index(v))
        drop = [i for i in range(len(self.variables)) if i not in keep]
        out: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            if any(m[i] > 0 for i in drop):
                raise ValueError("polynomial uses a dropped variable")
            out[tuple(m[i] for i in keep)] = c
        return MultiPoly._trusted(variables, out)

    def subs(self, values: Mapping[str, object]):
        """Evaluate at values living in any commutative ring.

        Values must support + and *, including * by a rational coefficient;
        rationals, MultiPoly, LaurentPoly and LaurentFrac all qualify.  Every
        variable must be assigned.  Powers come from one table per variable,
        built by repeated product up to the largest exponent used.
        """
        for v in self.variables:
            if v not in values:
                raise ValueError(f"no value for variable {v!r}")
        powers = []  # powers[i][e] is the i-th value to the e-th power, e >= 1
        for v, top in zip(self.variables, map(max, zip(*self.terms))):
            base = values[v]
            row = [None, base]
            for _ in range(top - 1):
                row.append(row[-1] * base)
            powers.append(row)
        total = None
        for m, c in self.terms.items():
            term = None
            for row, e in zip(powers, m):
                if e == 0:
                    continue
                p = row[e]
                term = p if term is None else term * p
            contrib = c if term is None else term * c
            total = contrib if total is None else total + contrib
        if total is None:
            return Fraction(0)
        return total

    def sorted_terms(
        self, order: MonomialOrder = GREVLEX
    ) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    def __repr__(self):
        from .parser import format_multi

        return f"MultiPoly({format_multi(self)!r})"
