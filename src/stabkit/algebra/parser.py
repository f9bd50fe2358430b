"""Parser and canonical printer for the polynomial string grammar.

Grammar: terms joined by + and -; a term is an optional rational coefficient
(p or p/q) and variable factors name^k joined by *; exponents are nonnegative
for ring elements and may be negative for Laurent polynomials.  Whitespace is
insignificant.  Variables are declared by the caller, never inferred; a
Laurent polynomial's one variable is t.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .laurent import LaurentPoly
from .multipoly import GREVLEX, MonomialOrder, MultiPoly


class ParseError(ValueError):
    """Syntax or binding error, carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign into a Fraction."""
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}", 0) from None


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos] if self.pos < len(self.text) else ""
        if not (ch.isalpha() or ch == "_"):
            raise ParseError("expected a variable name", start)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def _parse_terms(text: str, variables: Sequence[str], laurent: bool):
    """Shared term walker.

    Yields (coefficient, {variable: exponent}) pairs.
    """
    tok = _Tokenizer(text)
    names = set(variables)
    if tok.peek() is None:
        raise ParseError("empty polynomial", 0)
    terms = []
    sign = 1
    first = tok.peek()
    if first in "+-":
        tok.pos += 1
        sign = -1 if first == "-" else 1
    while True:
        coeff, exps = _parse_term(tok, names, laurent)
        terms.append((sign * coeff, exps))
        nxt = tok.peek()
        if nxt is None:
            break
        if nxt not in "+-":
            raise ParseError(f"unexpected character {nxt!r}", tok.pos)
        tok.pos += 1
        sign = -1 if nxt == "-" else 1
        if tok.peek() is None:
            raise ParseError("dangling sign", tok.pos)
    return terms


def _parse_term(tok: _Tokenizer, names: set[str], laurent: bool):
    ch = tok.peek()
    if ch is None:
        raise ParseError("expected a term", tok.pos)
    coeff = 1
    exps: dict[str, int] = {}
    saw_factor = False
    if ch.isdigit():
        num = tok.take_number()
        den = 1
        if tok.peek() == "/":
            tok.pos += 1
            dpos = tok.pos
            den = tok.take_number()
            if den == 0:
                raise ParseError("zero denominator", dpos)
        coeff = Fraction(num, den) if den != 1 else num
        saw_factor = True
        if tok.peek() == "*":
            tok.pos += 1
            _parse_factors(tok, names, laurent, exps)
    else:
        _parse_factors(tok, names, laurent, exps)
        saw_factor = True
    if not saw_factor:
        raise ParseError("expected a term", tok.pos)
    return coeff, exps


def _parse_factors(tok: _Tokenizer, names: set[str], laurent: bool, exps: dict[str, int]):
    while True:
        tok.skip_ws()
        name_pos = tok.pos
        name = tok.take_name()
        if name not in names:
            raise ParseError(f"unknown variable {name!r}", name_pos)
        power = 1
        if tok.peek() == "^":
            tok.pos += 1
            neg = False
            if tok.peek() == "-":
                tok.pos += 1
                neg = True
            ppos = tok.pos
            power = tok.take_number()
            if neg:
                power = -power
            if power < 0 and not laurent:
                raise ParseError("negative exponent outside a Laurent ring", ppos)
        exps[name] = exps.get(name, 0) + power
        if tok.peek() == "*":
            tok.pos += 1
            nxt = tok.peek()
            if nxt is None or nxt.isdigit():
                raise ParseError("expected a variable factor after '*'", tok.pos)
        else:
            break


def parse_multi(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse a polynomial in the declared variables."""
    terms = _parse_terms(text, variables, laurent=False)
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    acc: dict[tuple[int, ...], int | Fraction] = {}
    for coeff, exps in terms:
        mono = [0] * len(variables)
        for name, e in exps.items():
            mono[index[name]] += e
        key = tuple(mono)
        acc[key] = acc[key] + coeff if key in acc else coeff
    return MultiPoly(variables, acc)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse a Laurent polynomial in t; exponents may be negative."""
    terms = _parse_terms(text, ["t"], laurent=True)
    acc: dict[int, int | Fraction] = {}
    for coeff, exps in terms:
        e = exps.get("t", 0)
        acc[e] = acc[e] + coeff if e in acc else coeff
    return LaurentPoly(acc)


def _format_term(coeff: Fraction, factors: list[tuple[str, int]], lead: bool) -> str:
    parts = []
    for name, e in factors:
        if e == 1:
            parts.append(name)
        else:
            parts.append(f"{name}^{e}")
    mag = abs(coeff)
    if not parts:
        body = format_rational(mag)
    elif mag == 1:
        body = "*".join(parts)
    else:
        body = "*".join([format_rational(mag)] + parts)
    if lead:
        return body if coeff > 0 else "-" + body
    return (" + " if coeff > 0 else " - ") + body


def format_multi(p: MultiPoly, order: MonomialOrder = GREVLEX) -> str:
    """Canonical string, terms in descending monomial order."""
    if p.is_zero():
        return "0"
    out = []
    for i, (mono, coeff) in enumerate(p.sorted_terms(order)):
        factors = [(v, e) for v, e in zip(p.variables, mono) if e != 0]
        out.append(_format_term(coeff, factors, lead=(i == 0)))
    return "".join(out)


def format_laurent(p: LaurentPoly) -> str:
    """Canonical string in t, terms in ascending exponent order."""
    if p.is_zero():
        return "0"
    out = []
    for i, e in enumerate(sorted(p.terms)):
        coeff = p.terms[e]
        factors = [] if e == 0 else [("t", e)]
        out.append(_format_term(coeff, factors, lead=(i == 0)))
    return "".join(out)
