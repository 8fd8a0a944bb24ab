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
literals are capped at ``MAX_LITERAL_DIGITS`` digits.  Digits are ASCII
``0-9`` only.

A product is elaborated by folding its factors directly: its scalar
factors (rationals, q and their powers) into one scalar applied once,
and runs of letter powers whose products are single monomials into one
monomial.  Only the remaining factors are multiplied as elements.
"""

from __future__ import annotations

from fractions import Fraction

from .heisenberg import (MONO_A, MONO_B, MONO_C, MONO_I, Element, Monomial, _add_into,
                         _mono_product, commutator)
from .qscalar import Scalar, ScalarContext

__all__ = ["ParseError", "parse_expression", "elaborate", "parse_element"]

MAX_EXPONENT = 4096
# Python converts at most 4300 digits between int and str by default
MAX_LITERAL_DIGITS = 4300
# str.isdigit also accepts other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "+-*^[](),/":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal of {j - i} digits exceeds {MAX_LITERAL_DIGITS}",
                                 line, col)
            tokens.append(_Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.col)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self):
        parts = [(1, self.term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            parts.append((sign, self.term()))
        return ("sum", tuple(parts))

    # term := '-'? factor ('*' factor)*
    def term(self):
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        node = ("product", tuple(factors))
        return ("neg", node) if negate else node

    # factor := atom ('^' nat)?
    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.expect("int")
            if tok.value > MAX_EXPONENT:
                raise ParseError(f"exponent overflow: {tok.value} > {MAX_EXPONENT}",
                                 tok.line, tok.col)
            node = ("pow", node, tok.value)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "name":
            self.advance()
            if tok.value in ("A", "B", "C", "I", "q"):
                return ("atom", tok.value)
            raise ParseError(f"unknown symbol {tok.value!r}", tok.line, tok.col)
        if tok.kind == "int":
            self.advance()
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("int")
                if den.value == 0:
                    raise ParseError("zero denominator in rational literal",
                                     den.line, den.col)
                return ("num", Fraction(tok.value, den.value))
            return ("num", Fraction(tok.value))
        if tok.kind == "[":
            self.advance()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return ("bracket", left, right)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected an atom, found {tok.value!r}", tok.line, tok.col)


def parse_expression(text: str):
    """Parse expression text to an AST; raises ParseError with position."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input starting at {tok.value!r}", tok.line, tok.col)
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
