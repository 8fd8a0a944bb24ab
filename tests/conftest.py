import pytest

from qheis import Element, Monomial, ScalarContext
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
