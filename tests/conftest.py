import pytest

from qheis import Element, Monomial, ScalarContext
from qheis.heisenberg import commutator, multiply
from qheis.liepoly import RowReducer
from qheis.qscalar import specialize


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
