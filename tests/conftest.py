import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from qheis import Element, Monomial, ScalarContext
from qheis.heisenberg import (MONO_A, MONO_B, commutator, multiply, normal_to_element,
                              normal_word_product, straighten)
from qheis.liepoly import RowReducer
from qheis.qscalar import _cyclo_canonical, _cyclo_eval, _cyclo_mul, q_int, specialize


@pytest.fixture
def generic():
    return ScalarContext.generic()


@pytest.fixture
def p2():
    return ScalarContext.torsion(2)


@pytest.fixture
def p3():
    return ScalarContext.torsion(3)


@pytest.fixture
def p5():
    return ScalarContext.torsion(5)


def mono(ctx, k, d, coeff=None):
    return Element.monomial(ctx, Monomial(k, d), coeff)


def letters(ctx):
    """(A, B, C, I) as elements."""
    return mono(ctx, 0, -1), mono(ctx, 0, 1), mono(ctx, 1, 0), mono(ctx, 0, 0)


# Generic mode and the torsion orders 2..7, keyed for hypothesis's sampled_from.
CONTEXTS = {"generic": ScalarContext.generic(),
            **{p: ScalarContext.torsion(p) for p in range(2, 8)}}
CONTEXT_NAMES = sorted(CONTEXTS, key=str)

# (k, d, a, b, e, c, n): the coefficient (a/b q^e + c) / {n}_q on C^k-and-letters (k, d)
TERM = st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3).filter(bool),
                 st.integers(1, 3), st.integers(0, 4), st.integers(-2, 2), st.integers(1, 3))
ELEMENT = st.lists(TERM, min_size=0, max_size=4)


def build(ctx, spec):
    """The element that an ``ELEMENT`` draw describes."""
    out = Element.zero(ctx)
    for k, d, a, b, e, c, n in spec:
        coeff = ctx.from_fraction(Fraction(a, b)) * ctx.q_power(e) + ctx.from_int(c)
        qn = q_int(ctx, n)
        if not qn.is_zero():
            coeff = coeff * qn.inverse()
        out = out + mono(ctx, k, d, coeff)
    return out


def monomial_text_reference(m):
    """The text of a basis monomial, written through one letter-power helper."""
    def pw(letter, e):
        return letter if e == 1 else f"{letter}^{e}"

    if m.k == 0 and m.d == 0:
        return "I"
    if m.d == 0:
        return pw("C", m.k)
    if m.k == 0:
        return pw("A", -m.d) if m.d < 0 else pw("B", m.d)
    if m.d < 0:
        return f"{pw('C', m.k)}*{pw('A', -m.d)}"
    return f"{pw('B', m.d)}*{pw('C', m.k)}"


def specialize_element(x, ctx, memo=None):
    """A generic element with every coefficient evaluated at the root of ctx.

    ``memo`` is an optional dict, for one ctx, that keeps evaluated
    coefficients across calls.
    """
    memo = {} if memo is None else memo
    terms = {}
    for m, c in x.terms.items():
        s = memo.get(c)
        if s is None:
            s = memo[c] = specialize(c, ctx)
        terms[m] = s
    return Element(ctx, terms)


_LETTERS = {"A": Monomial(0, -1), "B": Monomial(0, 1), "C": Monomial(1, 0), "I": Monomial(0, 0)}


def elaborate_reference(node, ctx):
    """An expression AST as an element, by full element products only.

    Every atom becomes an element, powers are repeated products and a
    product node is a left-to-right fold of ``*`` from the identity: the
    plain reading of the grammar, kept to check the folded elaboration.
    """
    kind = node[0]
    if kind == "atom":
        if node[1] == "q":
            return Element.identity(ctx).scale(ctx.q())
        return Element.monomial(ctx, _LETTERS[node[1]])
    if kind == "num":
        return Element.identity(ctx).scale(ctx.from_fraction(node[1]))
    if kind == "pow":
        return elaborate_reference(node[1], ctx) ** node[2]
    if kind == "product":
        out = Element.identity(ctx)
        for sub in node[1]:
            out = out * elaborate_reference(sub, ctx)
        return out
    if kind == "neg":
        return -elaborate_reference(node[1], ctx)
    if kind == "bracket":
        return commutator(elaborate_reference(node[1], ctx), elaborate_reference(node[2], ctx))
    if kind == "sum":
        out = Element.zero(ctx)
        for sign, sub in node[1]:
            val = elaborate_reference(sub, ctx)
            out = out + (val if sign > 0 else -val)
        return out
    raise AssertionError(f"unhandled node {node!r}")


# ---------------------------------------------------------------------------
# Whole-element routes of the Lie layer, kept to check the in-place ones
# ---------------------------------------------------------------------------

def commutator_reference(x, y):
    """[x, y] as two full products and an element difference."""
    return multiply(x, y) - multiply(y, x)


def reduce_reference(reducer, x):
    """Remainder of x against the reducer's rows, one new element per step."""
    while x.terms:
        lead = RowReducer._lead(x)
        row = reducer.rows.get(lead)
        if row is None:
            return x
        x = x - row.scale(x.terms[lead])
    return x


def rref_reference(reducer):
    """The reducer's rows back-substituted with whole-element steps."""
    order = sorted(reducer.rows, key=lambda m: (m.d, m.k))
    out = dict(reducer.rows)
    for i in range(len(order) - 1, -1, -1):
        row = out[order[i]]
        for other_lead in order[:i]:
            c = out[other_lead].terms.get(order[i])
            if c is not None:
                out[other_lead] = out[other_lead] - row.scale(c)
    return [out[lead] for lead in order]


def contains_reference(basis, x):
    """Membership by inserting every basis row into a fresh reducer."""
    reducer = RowReducer(x.ctx)
    for row in basis.rows:
        reducer.insert(row)
    return reduce_reference(reducer, x).is_zero()


def closure_rows_reference(ctx, depth):
    """The bracket closure of {A, B} by brackets of every pair of degrees.

    Degree d inserts [x, y] for every pair of new rows whose degrees sum
    to d: the plain reading of "all brackets up to degree d", kept to
    check the right-normed closure.  Returns (degree, row) pairs.
    """
    reducer = RowReducer(ctx)
    by_degree = {1: []}
    out = []
    for gen in (Element.monomial(ctx, MONO_A), Element.monomial(ctx, MONO_B)):
        row = reducer.insert(gen)
        if row is not None:
            by_degree[1].append(row)
            out.append((1, row))
    for deg in range(2, depth + 1):
        pairs = []
        for a in range(1, deg // 2 + 1):
            rows_a, rows_b = by_degree.get(a, []), by_degree.get(deg - a, [])
            pairs.extend(itertools.combinations(rows_a, 2) if a == deg - a
                         else itertools.product(rows_a, rows_b))
        fresh = []
        for x, y in pairs:
            row = reducer.insert(commutator(x, y))
            if row is not None:
                fresh.append(row)
                out.append((deg, row))
        by_degree[deg] = fresh
    return out


# ---------------------------------------------------------------------------
# Plain sparse sums, kept to check the in-place accumulation
# ---------------------------------------------------------------------------

def linear_reference(ctx, pairs):
    """sum of c * terms over (c, terms) pairs: every value of a key summed from zero.

    Returns the dict of the nonzero sums; nothing is updated in place.
    """
    values: dict = {}
    for c, terms in pairs:
        for key, v in terms.items():
            values.setdefault(key, []).append(v * c)
    sums = {}
    for key, vs in values.items():
        s = ctx.zero()
        for v in vs:
            s = s + v
        sums[key] = s
    return {key: s for key, s in sums.items() if not s.is_zero()}


def free_product_reference(x, y):
    """The words of x * y, every pair of words multiplied out and summed plainly."""
    pairs = [(c1, {w1 + w2: c2}) for w1, c1 in x.words.items() for w2, c2 in y.words.items()]
    return linear_reference(x.ctx, pairs)


# ---------------------------------------------------------------------------
# The word route on whole elements, kept to check the per-pair product table
# ---------------------------------------------------------------------------

def word_product_reference(x, y):
    """x * y by straightening both whole elements and multiplying their normal forms."""
    ctx = x.ctx
    return normal_to_element(ctx, normal_word_product(ctx, straighten(x), straighten(y)))


# ---------------------------------------------------------------------------
# The cyclotomic inverse by all conjugates, kept to check the Galois chain
# ---------------------------------------------------------------------------

def inverse_reference(scalar):
    """1 / scalar for a torsion scalar, the norm cofactor as the product of
    all phi(p) - 1 conjugates one by one (O(phi^3)); no table is read or filled.
    """
    ctx, num, den = scalar.ctx, scalar.num, scalar.den
    if not any(num[1:]):
        c = num[0]
        if not c:
            raise ZeroDivisionError("inverse of zero scalar")
        return _cyclo_canonical(ctx, [den] + [0] * (ctx.phi - 1), c)
    # x * prod_{k != 1} sigma_k(x) is the norm N(x), a nonzero integer,
    # where sigma_k (k a unit mod p) maps q^j to q^(j*k)
    p = ctx.p
    others = None
    for k in range(2, p):
        if math.gcd(k, p) == 1:
            conj = _cyclo_eval(((j * k, x) for j, x in enumerate(num)), ctx)
            others = conj if others is None else _cyclo_mul(others, conj, ctx)
    norm = _cyclo_mul(num, others, ctx)[0]
    return _cyclo_canonical(ctx, [den * x for x in others], norm)
