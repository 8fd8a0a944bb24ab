import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qheis.heisenberg import (
    Element,
    FreePoly,
    Monomial,
    ba_to_cbasis,
    bracket_support,
    cbasis_to_free,
    commutator,
    free_to_element,
    grade,
    multiply,
    normal_to_element,
    reduce_word,
    reduce_word_rewriting,
    straighten,
    word_product,
)
from qheis import heisenberg, verify
from qheis.liepoly import construct_basis_element, lie_closure
from qheis.qscalar import MAX_SERIALIZED_DEGREE, ContextMismatchError, ScalarContext, q_int, struct_d
from qheis.verify import verify_oracle

from conftest import letters, mono, monomial_text_reference, specialize_element


# ---------------------------------------------------------------------------
# products of basis monomials
# ---------------------------------------------------------------------------

def test_c_power_concatenation(generic):
    assert multiply(mono(generic, 2, 0), mono(generic, 3, 0)) == mono(generic, 5, 0)


def test_moving_a_powers_past_c(generic):
    # (C^m A^n) . C^k = q^(nk) C^(m+k) A^n
    for m, n, k in [(0, 1, 1), (2, 3, 1), (1, 2, 4)]:
        got = multiply(mono(generic, m, -n), mono(generic, k, 0))
        assert got == mono(generic, m + k, -n, generic.q_power(n * k))


def test_ab_and_ba(generic):
    A, B, C, I = letters(generic)
    one, q = generic.one(), generic.q()
    qm1inv = (q - one).inverse()
    assert multiply(A, B) == C.scale(q * qm1inv) - I.scale(qm1inv)
    assert multiply(B, A) == (C - I).scale(qm1inv)


def test_mixed_product_at_order_two(p2):
    # (C A) . (B C) = (C^2 + C^3)/2 when q = -1
    got = multiply(mono(p2, 1, -1), mono(p2, 1, 1))
    half = p2.from_fraction(Fraction(1, 2))
    assert got == mono(p2, 2, 0, half) + mono(p2, 3, 0, half)


def test_context_mismatch_rejected(p2, p3):
    with pytest.raises(ContextMismatchError):
        multiply(mono(p2, 0, 1), mono(p3, 0, 1))


def test_identity_is_neutral(generic):
    I = mono(generic, 0, 0)
    x = mono(generic, 2, -3, generic.q()) + mono(generic, 0, 1)
    assert multiply(I, x) == x
    assert multiply(x, I) == x


@pytest.mark.parametrize("p", range(2, 13))
def test_mono_product_holds_no_zero_scalar(p):
    # at a root of unity structure scalars vanish on q-Lucas zeros; whether one does
    # depends on (i, j) alone, the C exponents only move q powers, so the window runs
    # every letter pair with |d| <= 2p against the C exponents 0, 1, p and 2p
    ctx = ScalarContext.torsion(p)
    w = 2 * p
    window = [Monomial(k, d) for d in range(-w, w + 1) for k in sorted({0, 1, p, w})]
    for x, y in itertools.product(window, repeat=2):
        assert all(c for _, c in heisenberg._mono_product(ctx, x, y)), (x, y)
    if p == 2:
        # A^2 B^2 = c_0(2) I + c_1(2) C + c_2(2) C^2 with c_1(2) a multiple of (2 1)_q = 1 + q
        assert [m for m, _ in heisenberg._mono_product(ctx, Monomial(0, -2), Monomial(0, 2))] \
            == [Monomial(0, 0), Monomial(2, 0)]


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def test_commutator_definition(generic):
    A, B, C, _ = letters(generic)
    assert commutator(A, B) == C
    assert commutator(A, C) == mono(generic, 1, -1, generic.q() - generic.one())


@pytest.mark.parametrize("m,l,k", [(1, 1, 0), (2, 1, 3), (1, 2, 1), (3, 2, 2)])
def test_commutator_of_c_power_with_b_side(generic, m, l, k):
    # [C^m, B^l C^k] = -(1 - q^(lm)) B^l C^(m+k)
    got = commutator(mono(generic, m, 0), mono(generic, k, l))
    coeff = -(generic.one() - generic.q_power(l * m))
    assert got == mono(generic, m + k, l, coeff)


def _random_element(ctx, rng, terms=3, expmax=3):
    out = Element.zero(ctx)
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(0, expmax)
        d = rng.randint(-expmax, expmax)
        c = ctx.from_fraction(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
        out = out + mono(ctx, k, d, c)
    return out


@pytest.mark.parametrize("mode", ["generic", "torsion3", "torsion4"])
def test_associativity_on_random_triples(mode):
    ctx = {"generic": ScalarContext.generic(),
           "torsion3": ScalarContext.torsion(3),
           "torsion4": ScalarContext.torsion(4)}[mode]
    rng = random.Random(7)
    for _ in range(25):
        x, y, z = (_random_element(ctx, rng) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@pytest.mark.parametrize("mode", ["generic", "torsion5"])
def test_bracket_is_a_lie_bracket(mode):
    ctx = ScalarContext.generic() if mode == "generic" else ScalarContext.torsion(5)
    rng = random.Random(11)
    for _ in range(15):
        x, y, z = (_random_element(ctx, rng) for _ in range(3))
        assert commutator(x, y) == -commutator(y, x)
        s = ctx.from_fraction(Fraction(3, 2))
        assert commutator(x.scale(s) + y, z) == commutator(x, z).scale(s) + commutator(y, z)
        jac = (commutator(x, commutator(y, z))
               + commutator(y, commutator(z, x))
               + commutator(z, commutator(x, y)))
        assert jac.is_zero()


# ---------------------------------------------------------------------------
# gradation
# ---------------------------------------------------------------------------

def test_grade_values():
    assert grade(Monomial(3, 0)) == 0
    assert grade(Monomial(2, -5)) == -5
    assert grade(Monomial(0, 4)) == 4


def test_products_add_grades(generic):
    for d1, d2 in itertools.product(range(-3, 4), repeat=2):
        x = mono(generic, 1, d1)
        y = mono(generic, 2, d2)
        prod = multiply(x, y)
        assert all(m.d == d1 + d2 for m in prod.support())


def test_graded_components_partition(p3):
    x = mono(p3, 1, -2) + mono(p3, 0, 1, p3.q()) + mono(p3, 3, 1) + mono(p3, 2, 0)
    comps = x.graded_components()
    assert sorted(comps) == [-2, 0, 1]
    total = Element.zero(p3)
    for g, part in comps.items():
        assert all(m.d == g for m in part.support())
        total = total + part
    assert total == x


# ---------------------------------------------------------------------------
# word straightening
# ---------------------------------------------------------------------------

def test_reduce_word_examples(generic):
    one, q = generic.one(), generic.q()
    fp = FreePoly.word(generic, "AB")
    assert reduce_word(fp) == {(1, 1): q, (0, 0): one}
    assert reduce_word(FreePoly.word(generic, "A")) == {(0, 1): one}
    assert reduce_word(FreePoly.word(generic, "ABA")) == {(1, 2): q, (0, 1): one}


def test_reduce_word_matches_literal_rewriting(generic):
    rng = random.Random(3)
    for length in range(0, 7):
        for _ in range(8):
            w = "".join(rng.choice("AB") for _ in range(length))
            fast = reduce_word(FreePoly.word(generic, w))
            naive = reduce_word_rewriting(generic, w)
            assert fast == naive, w


def test_confluence_all_rewrite_orders():
    # every rewrite order on words of length <= 8 gives the same normal form
    ctx = ScalarContext.torsion(3)
    memo = {}

    def normal_forms(word):
        if word in memo:
            return memo[word]
        occ = [i for i in range(len(word) - 1) if word[i:i + 2] == "AB"]
        if not occ:
            res = {(word.count("B"), word.count("A")): ctx.one()}
        else:
            candidates = []
            for i in occ:
                swapped = normal_forms(word[:i] + "BA" + word[i + 2:])
                dropped = normal_forms(word[:i] + word[i + 2:])
                combined = dict(dropped)
                for key, c in swapped.items():
                    s = combined.get(key, ctx.zero()) + c * ctx.q_power(1)
                    if s.is_zero():
                        combined.pop(key, None)
                    else:
                        combined[key] = s
                candidates.append(combined)
            res = candidates[0]
            for other in candidates[1:]:
                assert other == res, f"rewrite orders diverge on {word!r}"
        memo[word] = res
        return res

    for length in range(0, 9):
        for bits in itertools.product("AB", repeat=length):
            word = "".join(bits)
            assert normal_forms(word) == reduce_word(FreePoly.word(ctx, word)), word


# ---------------------------------------------------------------------------
# basis conversions
# ---------------------------------------------------------------------------

def test_ba_to_cbasis_examples(generic):
    one, q = generic.one(), generic.q()
    qm1inv = (q - one).inverse()
    assert ba_to_cbasis(1, 1, generic) == (mono(generic, 1, 0) - mono(generic, 0, 0)).scale(qm1inv)
    assert ba_to_cbasis(0, 3, generic) == mono(generic, 0, -3)
    assert ba_to_cbasis(2, 1, generic) == (mono(generic, 1, 1) - mono(generic, 0, 1)).scale(qm1inv)


def test_cbasis_to_free_examples(generic):
    one = generic.one()
    assert cbasis_to_free(Monomial(0, -2), generic) == FreePoly.word(generic, "AA")
    assert cbasis_to_free(Monomial(1, 0), generic) == FreePoly(
        generic, {"AB": one, "BA": -one})
    assert cbasis_to_free(Monomial(1, 1), generic) == FreePoly(
        generic, {"BAB": one, "BBA": -one})


@pytest.mark.parametrize("mode", ["generic", "torsion2", "torsion3"])
def test_round_trip_through_free_words(mode):
    ctx = {"generic": ScalarContext.generic(),
           "torsion2": ScalarContext.torsion(2),
           "torsion3": ScalarContext.torsion(3)}[mode]
    for k in range(0, 5):
        for d in range(-4, 5):
            m = Monomial(k, d)
            assert free_to_element(cbasis_to_free(m, ctx)) == Element.monomial(ctx, m), m


def test_equal_power_conversion_against_pure_rewriting(generic):
    # sum_i d_i(l) * (free expansion of C^i) must straighten to B^l A^l
    for l in range(1, 6):
        acc = FreePoly(generic, {})
        for i in range(l + 1):
            acc = acc + cbasis_to_free(Monomial(i, 0), generic).scale(struct_d(generic, i, l))
        nf = reduce_word(acc)
        assert nf == {(l, l): generic.one()}, l


def test_oracle_equivalence_sample(p3):
    rng = random.Random(23)
    for _ in range(10):
        x = _random_element(p3, rng, terms=2, expmax=3)
        y = _random_element(p3, rng, terms=2, expmax=3)
        fx = FreePoly(p3, {})
        for m, c in x.terms.items():
            fx = fx + cbasis_to_free(m, p3).scale(c)
        fy = FreePoly(p3, {})
        for m, c in y.terms.items():
            fy = fy + cbasis_to_free(m, p3).scale(c)
        assert free_to_element(fx * fy) == multiply(x, y)


# ---------------------------------------------------------------------------
# element canonical form and serialization
# ---------------------------------------------------------------------------

def test_canonical_order_and_zero_removal(p3):
    x = mono(p3, 2, 1) + mono(p3, 0, -1) + mono(p3, 1, 0) + mono(p3, 0, 1)
    assert [m for m, _ in x.items()] == [
        Monomial(0, -1), Monomial(1, 0), Monomial(0, 1), Monomial(2, 1)]
    y = x - x
    assert y.is_zero() and y.terms == {}
    z = mono(p3, 1, 1) - mono(p3, 1, 1, p3.one())
    assert z.is_zero()


def test_monomial_text_forms():
    assert Monomial(0, 0).text() == "I"
    assert Monomial(3, 0).text() == "C^3"
    assert Monomial(2, -1).text() == "C^2*A"
    assert Monomial(1, 3).text() == "B^3*C"
    assert Monomial(0, -4).text() == "A^4"


def test_monomial_text_matches_the_reference_writer():
    for k in range(13):
        for d in range(-12, 13):
            assert Monomial(k, d).text() == monomial_text_reference(Monomial(k, d))


@pytest.mark.parametrize("mode", ["generic", "torsion5"])
def test_element_json_round_trip(mode):
    ctx = ScalarContext.generic() if mode == "generic" else ScalarContext.torsion(5)
    x = (mono(ctx, 1, -2, (ctx.q() - ctx.one()).inverse())
         + mono(ctx, 0, 3, ctx.from_fraction(Fraction(-5, 4)))
         + mono(ctx, 4, 0))
    again = Element.from_json(x.to_json())
    assert again == x
    # context pinning is validated
    with pytest.raises(ContextMismatchError):
        Element.from_json(x.to_json(), ScalarContext.torsion(7))


def _term(k=1, d=-1, coeff=("1", "1/2")):
    return {"k": k, "d": d, "coeff": list(coeff)}


@pytest.mark.parametrize("obj", [
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(k=2.7, d=-1.2)]}, id="float-exponents"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(k=True)]}, id="bool-exponent"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(d=None)]}, id="null-exponent"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(k=-1)]}, id="negative-c-exponent"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(coeff=(0.1, "0"))]}, id="float-coordinate"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(coeff=(True, "0"))]}, id="bool-coordinate"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [{"k": 1, "d": -1}]}, id="missing-coeff"),
    pytest.param({"mode": "torsion", "terms": []}, id="missing-p"),
    pytest.param({"mode": "torsion", "p": 3.0, "terms": []}, id="float-p"),
    pytest.param({"mode": "torsion", "p": 129, "terms": []}, id="order-above-the-cap"),
    pytest.param({"mode": "weird", "terms": []}, id="unknown-mode"),
    pytest.param({"terms": []}, id="missing-mode"),
    pytest.param({"mode": "generic", "terms": [{"k": 0, "d": 1, "coeff": 0.5}]}, id="float-generic-coeff"),
    pytest.param({"mode": "generic"}, id="missing-terms"),
    pytest.param(["generic"], id="not-an-object"),
    pytest.param({"mode": "generic", "terms": [{"k": 0, "d": 0, "coeff": "(1)/(0)"}]},
                 id="zero-generic-denominator"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(coeff=("1/0", "0"))]},
                 id="zero-torsion-denominator"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(coeff=("1e10000000", "0"))]},
                 id="exponent-notation-coordinate"),
    pytest.param({"mode": "torsion", "p": 3, "terms": [_term(coeff=("1.5", "0"))]},
                 id="decimal-string-coordinate"),
    pytest.param({"mode": "generic", "terms": [{"k": 0, "d": 0, "coeff": "q^99999999999999999999"}]},
                 id="huge-generic-exponent"),
    pytest.param({"mode": "generic", "terms": [{"k": 0, "d": 0, "coeff": f"(1)/(q^{MAX_SERIALIZED_DEGREE + 1})"}]},
                 id="generic-degree-above-the-cap"),
    pytest.param({"mode": "generic", "terms": [{"k": 0, "d": 0, "coeff": "2*q"},
                                               {"k": 0, "d": 0, "coeff": "3"}]},
                 id="repeated-monomial"),
])
def test_element_json_rejects_input_it_could_not_write(obj):
    with pytest.raises(ValueError):
        Element.from_json_obj(obj)


def test_element_json_reads_any_order_with_its_context():
    # above MAX_TORSION_ORDER only a caller-built context is read
    ctx = ScalarContext.torsion(131)
    x = mono(ctx, 130, -2, ctx.q() - ctx.one()) + mono(ctx, 0, 5, ctx.from_fraction(Fraction(1, 3)))
    assert Element.from_json(x.to_json(), ctx) == x
    with pytest.raises(ValueError, match="above the cap 128"):
        Element.from_json(x.to_json())


def test_element_json_reads_a_generic_degree_at_the_cap(generic):
    x = mono(generic, 0, 0, generic.q_power(MAX_SERIALIZED_DEGREE) - generic.one())
    assert Element.from_json(x.to_json()) == x


def test_element_json_reads_integer_coordinates(p3):
    got = Element.from_json_obj({"mode": "torsion", "p": 3, "terms": [_term(coeff=(2, "-3/4"))]})
    assert got == mono(p3, 1, -1, p3.from_int(2) + p3.q() * p3.from_fraction(Fraction(-3, 4)))


def test_negative_c_exponent_rejected(generic):
    with pytest.raises(ValueError):
        Element.monomial(generic, Monomial(-1, 0))


# ---------------------------------------------------------------------------
# generic-to-torsion specialization: an oracle independent of both engines
# ---------------------------------------------------------------------------

def random_generic_element(ctx, rng):
    """At most 3 terms, exponents at most 4, small polynomial coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = Monomial(rng.randint(0, 4), rng.randint(-4, 4))
        coeff = ctx.from_fraction(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
        terms[m] = coeff * ctx.q_power(rng.randint(0, 4)) + ctx.from_int(rng.randint(-2, 2))
    return Element(ctx, terms)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_specialized_generic_products_match_torsion(p):
    g, t = ScalarContext.generic(), ScalarContext.torsion(p)
    rng = random.Random(300 + p)
    for _ in range(8):
        x, y = random_generic_element(g, rng), random_generic_element(g, rng)
        xt, yt = specialize_element(x, t), specialize_element(y, t)
        assert specialize_element(multiply(x, y), t) == multiply(xt, yt)
        assert specialize_element(commutator(x, y), t) == commutator(xt, yt)


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("p", [3, 5])
def test_specialized_generic_power_products_match_torsion(n, p):
    g, t = ScalarContext.generic(), ScalarContext.torsion(p)
    a, b = mono(g, 0, -n), mono(g, 0, n)
    got = specialize_element(multiply(a, b), t)
    assert got == multiply(mono(t, 0, -n), mono(t, 0, n))
    assert not got.is_zero()


# ---------------------------------------------------------------------------
# commutators through the per-pair kernel table
# ---------------------------------------------------------------------------

# (k, d, a, e): the coefficient a q^e on C^k-and-letters (k, d); in torsion mode k
# is drawn up to 4p, so kernels are shifted and several term pairs land on one
# monomial; in generic mode up to 12, where a residue key would alias
def _shifted_element(ctx, draw):
    kmax, emax = (4 * ctx.p, ctx.p - 1) if ctx.is_torsion else (12, 4)
    spec = draw(st.lists(st.tuples(st.integers(0, kmax), st.integers(-3, 3),
                                   st.integers(-3, 3).filter(bool), st.integers(0, emax)),
                         max_size=5))
    out = Element.zero(ctx)
    for k, d, a, e in spec:
        out = out + mono(ctx, k, d, ctx.from_int(a) * ctx.q_power(e))
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, 2, 3, 4, 5, 6, 7]), st.data())
def test_torsion_commutator_equals_difference_of_products(p, data):
    # p None draws generic mode
    ctx = ScalarContext.generic() if p is None else ScalarContext.torsion(p)
    x, y = _shifted_element(ctx, data.draw), _shifted_element(ctx, data.draw)
    got = commutator(x, y)
    assert got == multiply(x, y) - multiply(y, x)
    assert commutator(y, x) == -got
    assert all(not c.is_zero() for c in got.terms.values())


def test_commutator_table_is_keyed_by_residues():
    p = 3
    ctx = ScalarContext.torsion(p)
    pairs = set()
    for k, m in itertools.product(range(6 * p + 1), repeat=2):
        for a, b in itertools.product(range(4), repeat=2):
            commutator(mono(ctx, k, -a), mono(ctx, m, b))
            pairs.add((k % p, -a, m % p, b))
    # one signed kernel per ordered residue pair read, and no other
    assert set(ctx._comm) == pairs


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_ordered_table_builds_one_kernel_per_unordered_pair(monkeypatch, p):
    # [x, y] for every ordered pair of a window with k up to 2p + 1, so that
    # C exponents at and above p read residue kernels with a shift; p None is generic
    ctx = ScalarContext.generic() if p is None else ScalarContext.torsion(p)
    built = []
    build = heisenberg._comm_kernel

    def counting(ctx, key):
        built.append(key)
        return build(ctx, key)

    monkeypatch.setattr(heisenberg, "_comm_kernel", counting)
    kmax = 2 * (p or 2) + 1
    units = [mono(ctx, k, d) for d in range(-3, 4) for k in range(kmax + 1)]
    for x, y in itertools.product(units, repeat=2):
        commutator(x, y)

    residues = {(k % p if p else k, d) for k in range(kmax + 1) for d in range(-3, 4)}
    assert set(ctx._comm) == {a + b for a, b in itertools.product(residues, repeat=2)}
    # the products are formed once per unordered residue pair
    assert len(built) == len(residues) * (len(residues) + 1) // 2
    assert {frozenset((key[:2], key[2:])) for key in built} == {
        frozenset((a, b)) for a, b in itertools.product(residues, repeat=2)}
    for a, b in itertools.product(residues, repeat=2):
        kernel, twin = ctx._comm[a + b], ctx._comm[b + a]
        assert twin == tuple((m, -c) for m, c in kernel), (a, b)
        # the negated kernel shares its twin's monomials
        assert all(m is n for (m, _), (n, _) in zip(kernel, twin)), (a, b)


@pytest.mark.parametrize("p", [None, 2, 3, 4, 5, 6, 7])
def test_bracket_support_is_the_support_of_the_commutator(p):
    # every ordered pair of a window with k up to 2p + 1, so that C exponents
    # at and above p read residue kernels with a shift; p None is generic
    def context():
        return ScalarContext.generic() if p is None else ScalarContext.torsion(p)

    kmax = 2 * (p or 2) + 1
    monos = [Monomial(k, d) for d in range(-3, 4) for k in range(kmax + 1)]
    pairs = list(itertools.product(monos, repeat=2))
    ref = context()
    want = {(m1, m2): set(commutator(Element.monomial(ref, m1), Element.monomial(ref, m2)).terms)
            for m1, m2 in pairs}

    # a fresh table, filled by bracket_support itself
    fresh = context()
    for m1, m2 in pairs:
        got = bracket_support(fresh, m1, m2)
        assert len(got) == len(set(got)) and set(got) == want[m1, m2], (m1, m2)

    # a table filled by commutator from the swapped pairs in the opposite order
    filled = context()
    for m1, m2 in reversed(pairs):
        commutator(Element.monomial(filled, m2), Element.monomial(filled, m1))
    size = len(filled._comm)
    for m1, m2 in pairs:
        assert set(bracket_support(filled, m1, m2)) == want[m1, m2], (m1, m2)
    assert len(filled._comm) == size == len(fresh._comm)


def test_independent_routes_leave_the_commutator_table_empty(monkeypatch):
    # the structure-constant routes never fill the word table
    t = ScalarContext.torsion(3)
    x = mono(t, 4, -2) + mono(t, 1, 3, t.q())
    commutator(x, multiply(x, x))
    lie_closure(t, depth=5, kmax=3, dmax=3)
    construct_basis_element(t, Monomial(4, 2))
    assert t._word == {}
    g = ScalarContext.generic()
    xg, yg = mono(g, 4, -2) + mono(g, 1, 3, g.q()), mono(g, 2, 1)
    difference = multiply(xg, yg) - multiply(yg, xg)
    assert g._comm == {}
    assert commutator(xg, yg) == difference
    assert g._word == {}

    # the word routes never fill the commutator table, and the word table
    # holds one entry at most per ordered pair of monomials read
    read = set()

    def recording(x, y):
        read.update(itertools.product(x.terms, y.terms))
        return word_product(x, y)

    monkeypatch.setattr(verify, "word_product", recording)
    for ctx, pairs in ((ScalarContext.torsion(3), 20), (ScalarContext.generic(), 5)):
        read.clear()
        verify_oracle(ctx, pairs=pairs, seed=0)
        assert ctx._comm == {}
        assert ctx._word and set(ctx._word) <= read
        x = mono(ctx, 4, -2) + mono(ctx, 1, 3, ctx.q())
        assert normal_to_element(ctx, straighten(multiply(x, x))) == multiply(x, x)
        assert ctx._comm == {}


def test_oracle_catches_a_planted_structure_constant_fault(monkeypatch):
    # c_1(2) off by one in the structure-constant product only: the word
    # route reads d_i(l) through `struct_d`, which this leaves alone
    right = heisenberg.scaled_struct_c

    def planted(ctx, i, l, e):
        v = right(ctx, i, l, e)
        return v + ctx.one() if (i, l) == (1, 2) else v

    monkeypatch.setattr(heisenberg, "scaled_struct_c", planted)
    for p in (3, 5, 7):
        assert verify_oracle(ScalarContext.torsion(p), pairs=50, seed=0).violations_total == 6


# sha256 of the JSON lines of op(x, y) for every pair of unit monomials C^k-and-letters
# (k, d) with k, |d| <= w; p None is generic.  The commutator grids were computed as
# the two products xy and yx before brackets read kernels, the multiply grids while
# `multiply` still dropped the vanishing structure scalars itself
GRID_DIGESTS = {
    (commutator, 2, 6): "55fee559ab409570a009c5a0337b121130f01dd656802e7187d23a033bda9f00",
    (commutator, 3, 8): "4f5ef610525b349ba1a12999e0a6d27bff1405c81d576c102f6608f38ebb56b4",
    (commutator, 5, 5): "10b7beaa2bc17e5430af92134abf5ff1a5863118c5701d3880b2b612be65cad2",
    (commutator, None, 4): "d16203a98118f3ca727fe3d5c7bb0efd5caa879e2c226c5777843293d9093c28",
    (multiply, 2, 6): "a10801d53090efaa0bc3298b7df247b64815838b1d8ec896a9894c5e0245e3fe",
    (multiply, 3, 8): "0930df679f1bce63f1d3682975b53f7091f91aff35e686659c0f031d55760fc9",
    (multiply, 5, 5): "b53737d748f01975f3b386ca3b27e9ba3cb1910801795ebba46ab50a60f26e07",
    (multiply, None, 4): "7c74e8ae0305e025526cd702edcb2509c781b3a154f2419b97cd323248aea67c",
}


# the commutator grids keep their earlier "p-w" ids, so test records naming them still match
@pytest.mark.parametrize("op, p, w", [
    pytest.param(op, p, w, id=f"{p}-{w}" if op is commutator else f"{op.__name__}-{p}-{w}")
    for op, p, w in GRID_DIGESTS
])
def test_commutator_grid_is_pinned(op, p, w):
    ctx = ScalarContext.generic() if p is None else ScalarContext.torsion(p)
    units = [mono(ctx, k, d) for d in range(-w, w + 1) for k in range(w + 1)]
    h = hashlib.sha256()
    for x, y in itertools.product(units, repeat=2):
        h.update(op(x, y).to_json().encode() + b"\n")
    assert h.hexdigest() == GRID_DIGESTS[op, p, w]
    if op is commutator and p is None:
        # no residues alias in generic mode: one signed kernel per ordered pair of monomials
        assert len(ctx._comm) == len(units) ** 2
