"""The one in-place sparse sum against plain sums, and the oracle glue.

Element and word-polynomial sums, differences and products accumulate
through one helper that drops every coefficient that cancels.  The
references in ``conftest`` sum each key's values from zero instead.
`straighten` and `normal_to_element` must round-trip every element and
agree with straightening the element's whole word expansion at once, and
`word_product`, summed from one straightened product per monomial pair,
must equal the word route on whole elements.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qheis.heisenberg import (
    Element,
    FreePoly,
    _add_into,
    cbasis_to_free,
    normal_to_element,
    reduce_word,
    straighten,
    word_product,
)

from conftest import (CONTEXT_NAMES, CONTEXTS, ELEMENT, build, free_product_reference,
                      linear_reference, word_product_reference)

# (word, a, b, e): the coefficient a/b q^e on a word of at most four letters
_WORD_TERM = st.tuples(st.text("AB", max_size=4), st.integers(-3, 3).filter(bool),
                       st.integers(1, 3), st.integers(0, 4))
_FREE = st.lists(_WORD_TERM, max_size=5)


def build_free(ctx, spec):
    words = {}
    for w, a, b, e in spec:
        words[w] = ctx.from_fraction(Fraction(a, b)) * ctx.q_power(e)
    return FreePoly(ctx, words)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), ELEMENT, ELEMENT)
def test_difference_is_sum_with_negation(name, xs, ys):
    ctx = CONTEXTS[name]
    x, y = build(ctx, xs), build(ctx, ys)
    diff = x - y
    assert diff == x + (-y)
    assert diff.to_json() == (x + (-y)).to_json()
    assert diff.terms == linear_reference(ctx, [(ctx.one(), x.terms), (-ctx.one(), y.terms)])
    assert not any(c.is_zero() for c in diff.terms.values())
    assert (x - x).terms == {} and (x + (-x)).terms == {}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), ELEMENT)
def test_straighten_round_trips(name, xs):
    ctx = CONTEXTS[name]
    x = build(ctx, xs)
    nf = straighten(x)
    assert not any(c.is_zero() for c in nf.values())
    assert normal_to_element(ctx, nf) == x


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), ELEMENT)
def test_straighten_equals_straightening_the_word_expansion(name, xs):
    ctx = CONTEXTS[name]
    x = build(ctx, xs)
    words = linear_reference(ctx, [(c, cbasis_to_free(m, ctx).words) for m, c in x.terms.items()])
    assert straighten(x) == reduce_word(FreePoly(ctx, words))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), ELEMENT, ELEMENT)
def test_word_product_equals_the_whole_element_word_route(name, xs, ys):
    ctx = CONTEXTS[name]
    x, y = build(ctx, xs), build(ctx, ys)
    got = word_product(x, y)
    assert got == word_product_reference(x, y)
    assert not any(c.is_zero() for c in got.terms.values())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), _FREE, _FREE)
def test_free_poly_sum_and_product_equal_plain_sums(name, xs, ys):
    ctx = CONTEXTS[name]
    x, y = build_free(ctx, xs), build_free(ctx, ys)
    one = ctx.one()
    assert (x + y).words == linear_reference(ctx, [(one, x.words), (one, y.words)])
    assert (x - y).words == linear_reference(ctx, [(one, x.words), (-one, y.words)])
    assert (x * y).words == free_product_reference(x, y)
    assert (x - x).words == {}


def test_a_zero_weight_adds_nothing(p3):
    x = Element.identity(p3)
    assert _add_into({}, x.terms, p3.zero()) == {}
    assert _add_into(dict(x.terms), x.terms, p3.zero(), subtract=True) == x.terms
