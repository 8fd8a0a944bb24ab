"""Expression front-end: text to canonical algebra elements.

Grammar (whitespace insensitive, '*' mandatory between factors):

    expr   := term (('+'|'-') term)*
    term   := '-'? factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := 'A' | 'B' | 'C' | 'I' | 'q' | rational
            | '[' expr ',' expr ']' | '(' expr ')'

Rationals are ``a`` or ``a/b``; 'C' is surface syntax for [A, B]; scalar
atoms commute with everything during elaboration.  Exponents are
nonnegative integers and are capped to keep elaboration finite; integer
literals are capped at ``MAX_LITERAL_DIGITS`` digits, a signed rational
literal or a power of one, inside any parentheses, raised to a power
that surely has more digits is refused before the power is taken, and
brackets and parentheses nest at most ``MAX_NESTING`` deep.  Digits are
ASCII ``0-9`` only.

One compiled regular expression scans the text to ``(kind, value)``
tokens.  A token carries no position: a ``ParseError`` scans the text
again to the offending token and reports its line and column.

A product is elaborated by folding its factors directly: its scalar
factors (rationals, q and their powers) into one scalar applied once,
and runs of letter powers whose products are single monomials into one
monomial.  Only the remaining factors are multiplied as elements.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .heisenberg import (MONO_A, MONO_B, MONO_C, MONO_I, Element, Monomial, _add_into,
                         _mono_product, commutator)
from .qscalar import Scalar, ScalarContext

__all__ = ["ParseError", "parse_expression", "elaborate", "parse_element"]

MAX_EXPONENT = 4096
# Python converts at most 4300 digits between int and str by default
MAX_LITERAL_DIGITS = 4300
# Deepest nesting of '(' and '[' together.  Parsing and elaboration recurse
# a few frames per level, and a CLI call reaches Python's default recursion
# limit near 247 levels; the cap stays well inside it.
MAX_NESTING = 100
# One token per match: a run of ASCII digits, a word, an operator, or any
# other non-space character.  \s and \w make the same Unicode tests as
# str.isspace and str.isalnum (plus '_'); str.isdigit would also accept
# other scripts' digits and superscripts.
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|(\w+)|([-+*^\[\](),/])|(\S))")
# x^n has at least n*(b - 1)*log10(2) digits when b is the larger bit length
# of x's numerator and denominator
_MAX_LITERAL_BITS = int(MAX_LITERAL_DIGITS * math.log2(10))


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _position(text: str, i: int) -> tuple[int, int]:
    """(line, column) of token i of text; past the last token, of the end of text."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i, None), None)
    offset = len(text) if m is None else m.start(m.lastindex)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple]:
    """(kind, value) tokens of text, ending with ("end", None)."""
    tokens = []
    for i, (digits, word, op, other) in enumerate(_TOKEN_RE.findall(text)):
        if digits:
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal of {len(digits)} digits exceeds "
                                 f"{MAX_LITERAL_DIGITS}", *_position(text, i))
            tokens.append(("int", int(digits)))
        elif op:
            tokens.append((op, op))
        elif word[:1].isalpha():
            tokens.append(("name", word))
        else:
            raise ParseError(f"unexpected character {(word or other)[0]!r}",
                             *_position(text, i))
    tokens.append(("end", None))
    return tokens


def _literal_power(node) -> tuple[Fraction, int] | None:
    """(x, e) when node is a signed rational literal x, or x^e, inside any parentheses.

    A sum or product of more than one term or factor is not a literal
    power, and neither is anything else; nested exponents multiply.
    """
    e = 1
    while True:
        kind = node[0]
        if kind == "num":
            return node[1], e
        if kind == "pow":
            e *= node[2]
            node = node[1]
        elif kind == "neg":
            node = node[1]
        elif kind in ("sum", "product") and len(node[1]) == 1:
            # a parenthesized term is a sum of one part, with sign +1
            node = node[1][0][1] if kind == "sum" else node[1][0]
        else:
            return None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # '(' and '[' open around the current token

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token `at`, by default the current token."""
        return ParseError(message, *_position(self.text, self.pos if at is None else at))

    def peek(self) -> str:
        """The kind of the current token."""
        return self.tokens[self.pos][0]

    def advance(self):
        """The value of the current token; moves past it."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def expect(self, kind: str):
        if self.peek() != kind:
            raise self.error(f"expected {kind!r}, found {self.tokens[self.pos][1]!r}")
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self):
        parts = [(1, self.term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.advance() == "+" else -1
            parts.append((sign, self.term()))
        return ("sum", tuple(parts))

    # term := '-'? factor ('*' factor)*
    def term(self):
        negate = self.peek() == "-"
        if negate:
            self.advance()
        factors = [self.factor()]
        while self.peek() == "*":
            self.advance()
            factors.append(self.factor())
        node = ("product", tuple(factors))
        return ("neg", node) if negate else node

    # factor := atom ('^' nat)?
    def factor(self):
        node = self.atom()
        if self.peek() == "^":
            self.advance()
            n = self.expect("int")
            if n > MAX_EXPONENT:
                raise self.error(f"exponent overflow: {n} > {MAX_EXPONENT}", self.pos - 1)
            literal = _literal_power(node)
            if literal is not None:
                x, e = literal
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                if n * e * (bits - 1) > _MAX_LITERAL_BITS:
                    raise self.error(f"literal power too long to print (more than "
                                     f"{MAX_LITERAL_DIGITS} digits)", self.pos - 1)
            node = ("pow", node, n)
        return node

    def atom(self):
        kind = self.peek()
        if kind == "name":
            name = self.advance()
            if name in ("A", "B", "C", "I", "q"):
                return ("atom", name)
            raise self.error(f"unknown symbol {name!r}", self.pos - 1)
        if kind == "int":
            num = self.advance()
            if self.peek() != "/":
                return ("num", Fraction(num))
            self.advance()
            den = self.expect("int")
            if den == 0:
                raise self.error("zero denominator in rational literal", self.pos - 1)
            return ("num", Fraction(num, den))
        if kind in ("[", "("):
            if self.depth == MAX_NESTING:
                raise self.error(f"brackets nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            if kind == "[":
                left = self.expr()
                self.expect(",")
                node = ("bracket", left, self.expr())
                self.expect("]")
            else:
                node = self.expr()
                self.expect(")")
            self.depth -= 1
            return node
        raise self.error(f"expected an atom, found {self.tokens[self.pos][1]!r}")


def parse_expression(text: str):
    """Parse expression text to an AST; raises ParseError with position."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek() != "end":
        raise parser.error(f"trailing input starting at {parser.tokens[parser.pos][1]!r}")
    return node


_ATOMS = {"A": MONO_A, "B": MONO_B, "C": MONO_C, "I": MONO_I}


def _scalar_factor(node, ctx: ScalarContext) -> Scalar | None:
    """The scalar a factor node denotes, or None when it is not a scalar."""
    base, n = (node[1], node[2]) if node[0] == "pow" else (node, 1)
    if base[0] == "num":
        return ctx.from_fraction(base[1] ** n)
    if base == ("atom", "q"):
        return ctx.q_power(n)
    return None


def _letter_power(node) -> Monomial | None:
    """The basis monomial a factor node denotes (A^n, B^n, C^n, I^n), or None."""
    base, n = (node[1], node[2]) if node[0] == "pow" else (node, 1)
    if base[0] == "atom" and base[1] in _ATOMS:
        m = _ATOMS[base[1]]
        return Monomial(m.k * n, m.d * n)
    return None


def _elaborate_product(factors, ctx: ScalarContext) -> Element:
    scalar = ctx.one()
    elements = []       # the factors left to multiply as elements, in order
    run = None          # trailing run of letter powers, as one monomial
    for sub in factors:
        s = _scalar_factor(sub, ctx)
        if s is not None:
            if s.is_zero():
                return Element.zero(ctx)
            scalar = scalar * s
            continue
        m = _letter_power(sub)
        if m is not None and run is not None and run.d * m.d >= 0:
            # the seven unmixed monomial products are single monomials
            ((run, c),) = _mono_product(ctx, run, m)
            scalar = scalar * c
            continue
        if run is not None:
            elements.append(Element.monomial(ctx, run))
            run = None
        if m is not None:
            run = m
        elif sub[0] == "pow":
            elements.append(elaborate(sub[1], ctx) ** sub[2])
        else:
            elements.append(elaborate(sub, ctx))
    if run is not None or not elements:
        elements.append(Element.monomial(ctx, MONO_I if run is None else run))
    out = elements[0]
    for x in elements[1:]:
        out = out * x
    return out.scale(scalar)


def elaborate(node, ctx: ScalarContext) -> Element:
    """Fold an AST into a canonical element of the algebra."""
    kind = node[0]
    if kind in ("atom", "num", "pow"):
        return _elaborate_product((node,), ctx)
    if kind == "product":
        return _elaborate_product(node[1], ctx)
    if kind == "neg":
        return -elaborate(node[1], ctx)
    if kind == "bracket":
        return commutator(elaborate(node[1], ctx), elaborate(node[2], ctx))
    if kind == "sum":
        out: dict = {}
        for sign, sub in node[1]:
            _add_into(out, elaborate(sub, ctx).terms.items(), subtract=sign < 0)
        return Element(ctx, out, _clean=True)
    raise AssertionError(f"unhandled node {node!r}")


def parse_element(text: str, ctx: ScalarContext) -> Element:
    return elaborate(parse_expression(text), ctx)
