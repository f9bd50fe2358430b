"""Multivariate polynomials over the rationals with pluggable monomial orders.

A polynomial is a dict from exponent tuples to nonzero Fractions, tagged with
its ambient variable tuple.  Exponents are nonnegative here; Laurent behaviour
lives in the one-variable module.
"""

from __future__ import annotations

from fractions import Fraction
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

    def key(self, m: Monomial):
        """Sort key: larger key = larger monomial."""
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return _grevlex_key(m)
        s = self.split
        return (_grevlex_key(m[:s]), _grevlex_key(m[s:]))

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', split={self.split})"
        return f"MonomialOrder({self.kind!r})"


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def _mul_mono(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


# The sparse-term kernel shared with the Laurent module.  A term dict maps
# exponents to nonzero Fractions; `add` multiplies two monomials, which is
# exponent addition on ints or on tuples.


def _add_into(out: dict, terms: Mapping) -> dict:
    """out += terms in place, dropping cancelled terms; returns out."""
    for m, c in terms.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _mul_into(out: dict, a: Mapping, b: Mapping, add: Callable) -> dict:
    """out += a * b in place, dropping cancelled terms; returns out."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = add(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pow_terms(terms: Mapping, n: int, one, add: Callable) -> dict:
    """terms ** n by square-and-multiply; `one` is the exponent of 1."""
    out = {one: Fraction(1)}
    while n:
        if n & 1:
            out = _mul_into({}, out, terms, add)
        n >>= 1
        if n:
            terms = _mul_into({}, terms, terms, add)
    return out


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


class MultiPoly:
    """Polynomial in the variables `variables` with Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None):
        self.variables = tuple(variables)
        n = len(self.variables)
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(int(e) for e in mono)
                if len(mono) != n:
                    raise ValueError("exponent tuple does not match variable count")
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent in a polynomial ring element")
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict) -> "MultiPoly":
        """Wrap an arithmetic result without re-validating it: `terms` maps
        exponent tuples of the ring's length to nonzero Fractions."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): Fraction(c)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str, power: int = 1) -> "MultiPoly":
        idx = list(variables).index(name)
        mono = tuple(power if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], mono: Monomial, coeff=1) -> "MultiPoly":
        return cls(variables, {tuple(mono): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        if not self.terms:
            return Fraction(0)
        return next(iter(self.terms.values()))

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

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return MultiPoly(self.variables)
        return MultiPoly._trusted(self.variables, {m: k * c for m, k in self.terms.items()})

    def mul_term(self, mono: Monomial, coeff: Fraction) -> "MultiPoly":
        if coeff == 0:
            return MultiPoly(self.variables)
        term = {tuple(mono): Fraction(coeff)}
        return MultiPoly._trusted(self.variables, _mul_into({}, self.terms, term, _mul_mono))

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        one = (0,) * len(self.variables)
        return MultiPoly._trusted(self.variables, _pow_terms(self.terms, n, one, _mul_mono))

    def lead(self, order: MonomialOrder) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under `order`; errors on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order: MonomialOrder) -> "MultiPoly":
        _, lc = self.lead(order)
        return self.scale(Fraction(1) / lc)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        if not self.terms:
            return 0
        return max(m[idx] for m in self.terms)

    def uses_variable(self, name: str) -> bool:
        idx = self.variables.index(name)
        return any(m[idx] > 0 for m in self.terms)

    def coefficients_in(self, name: str) -> dict[int, "MultiPoly"]:
        """Split into coefficients of powers of one variable.

        The returned polynomials live in the same ring with that variable's
        exponent zeroed out.
        """
        idx = self.variables.index(name)
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            k = m[idx]
            rest = tuple(0 if i == idx else e for i, e in enumerate(m))
            buckets.setdefault(k, {})[rest] = c
        return {k: MultiPoly._trusted(self.variables, b) for k, b in buckets.items()}

    def rename(self, variables: Sequence[str]) -> "MultiPoly":
        """Reinterpret in a different ring with the same arity."""
        if len(variables) != len(self.variables):
            raise ValueError("arity mismatch in rename")
        return MultiPoly(variables, self.terms)

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a superset ring (variables may be reordered)."""
        variables = tuple(variables)
        pos = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v!r} missing from target ring")
            pos.append(variables.index(v))
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            mono = [0] * len(variables)
            for p, e in zip(pos, m):
                mono[p] = e
            out[tuple(mono)] = c
        return MultiPoly(variables, out)

    def restrict(self, variables: Sequence[str]) -> "MultiPoly":
        """Project onto a subring; errors if a dropped variable occurs."""
        variables = tuple(variables)
        keep = []
        for v in variables:
            keep.append(self.variables.index(v))
        drop = [i for i in range(len(self.variables)) if i not in keep]
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if any(m[i] > 0 for i in drop):
                raise ValueError("polynomial uses a dropped variable")
            out[tuple(m[i] for i in keep)] = c
        return MultiPoly(variables, out)

    def subs(self, values: Mapping[str, object]):
        """Evaluate at values living in any commutative ring.

        Values must support +, * and integer powers via repeated product;
        rationals, MultiPoly, LaurentPoly and LaurentFrac all qualify.
        Every variable must be assigned.
        """
        for v in self.variables:
            if v not in values:
                raise ValueError(f"no value for variable {v!r}")
        vals = [values[v] for v in self.variables]
        total = None
        for m, c in self.terms.items():
            term = None
            for base, e in zip(vals, m):
                if e == 0:
                    continue
                p = base
                for _ in range(e - 1):
                    p = p * base
                term = p if term is None else term * p
            if term is None:
                contrib = c
            else:
                contrib = _scale_value(term, c)
            total = contrib if total is None else total + contrib
        if total is None:
            return Fraction(0)
        return total

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a rational point."""
        out = Fraction(0)
        vals = [Fraction(point[v]) for v in self.variables]
        for m, c in self.terms.items():
            term = c
            for base, e in zip(vals, m):
                if e:
                    term *= base**e
            out += term
        return out

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    def __repr__(self):
        from .parser import format_multi

        return f"MultiPoly({format_multi(self)!r})"


def _scale_value(value, c: Fraction):
    if isinstance(value, Fraction):
        return value * c
    scale = getattr(value, "scale", None)
    if scale is not None:
        return scale(c)
    return value * c
