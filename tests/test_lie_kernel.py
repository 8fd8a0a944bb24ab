"""The one-pass Lie layer against its whole-element references.

`commutator` accumulates xy and -yx into one terms dict, `RowReducer`
eliminates in place and `SubspaceBasis.contains` reads an index built
once per basis.  Each must give exactly what the plain routes in
``conftest`` give: two products and a difference, one new element per
elimination step, and a reducer rebuilt for every membership query.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qheis.heisenberg import Element, Monomial, commutator
from qheis.liepoly import RowReducer, SubspaceBasis, lie_closure
from qheis.qscalar import ContextMismatchError, ScalarContext

from conftest import (
    CONTEXTS,
    ELEMENT as _ELEMENT,
    build,
    commutator_reference,
    contains_reference,
    mono,
    reduce_reference,
    rref_reference,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONTEXTS, key=str)), _ELEMENT, _ELEMENT)
def test_commutator_equals_difference_of_products(name, xs, ys):
    ctx = CONTEXTS[name]
    x, y = build(ctx, xs), build(ctx, ys)
    got = commutator(x, y)
    assert got == commutator_reference(x, y)
    assert got.to_json() == commutator_reference(x, y).to_json()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CONTEXTS, key=str)), st.lists(_ELEMENT, min_size=1, max_size=6),
       _ELEMENT, st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_row_reduction_equals_whole_element_steps(name, rows, probe, weights):
    ctx = CONTEXTS[name]
    reducer = RowReducer(ctx)
    for spec in rows:
        x = build(ctx, spec)
        assert reducer.reduce(x) == reduce_reference(reducer, x)
        reducer.insert(x)
    x = build(ctx, probe)
    assert reducer.reduce(x) == reduce_reference(reducer, x)
    rref = reducer.rref_rows()
    assert rref == rref_reference(reducer)
    assert [r.to_json() for r in rref] == [r.to_json() for r in rref_reference(reducer)]

    basis = SubspaceBasis(ctx=ctx, kmax=3, dmax=3, rows=tuple(rref))
    spanned = Element.zero(ctx)
    for w, row in zip(weights, rref):
        spanned = spanned + row.scale(ctx.from_int(w))
    for z in (x, spanned, spanned + x):
        assert basis.contains(z) == contains_reference(basis, z)
    assert basis.contains(spanned)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closure_membership_equals_rebuilt_reducer(p):
    ctx = ScalarContext.torsion(p)
    basis = lie_closure(ctx, 6, 3, 3)
    for k in range(4):
        for d in range(-3, 4):
            x = mono(ctx, k, d) + mono(ctx, 1, 0, ctx.q())
            assert basis.contains(x) == contains_reference(basis, x)


def test_membership_reads_insert_no_rows(p3, monkeypatch):
    basis = lie_closure(p3, 4, 2, 2)
    inserted = []
    monkeypatch.setattr(RowReducer, "insert", lambda self, x: inserted.append(x))
    for d in (-1, 1):
        assert basis.contains(mono(p3, 0, d))
    assert not basis.contains(mono(p3, 0, 0))
    assert inserted == []


def test_other_context_raises_whether_or_not_a_lead_matches(p3, p5):
    basis = lie_closure(p5, 4, 2, 2)
    reducer = RowReducer(p5)
    for row in basis.rows:
        reducer.insert(row)
    matching = mono(p3, 0, -1)           # A leads a p = 5 row
    unmatched = mono(p3, 3, 2)           # B^2 C^3 lies outside the window
    assert Monomial(0, -1) in reducer.rows and Monomial(3, 2) not in reducer.rows
    for x in (matching, unmatched):
        with pytest.raises(ContextMismatchError):
            basis.contains(x)
        with pytest.raises(ContextMismatchError):
            reducer.reduce(x)
        with pytest.raises(ContextMismatchError):
            reducer.insert(x)


def test_empty_basis_knows_its_context(p3, p5):
    basis = lie_closure(p5, 3, 0, 0)
    assert basis.dimension == 0
    with pytest.raises(ContextMismatchError):
        basis.contains(mono(p3, 0, -1))
    assert basis.contains(Element.zero(p5))
    assert not basis.contains(mono(p5, 0, -1))
