import hashlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from qheis import cli, liepoly, verify
from qheis.exprparse import parse_element
from qheis.heisenberg import Element, Monomial, commutator
from qheis.liepoly import (
    MAX_WITNESS_DEGREE,
    Bracket,
    ConstructionError,
    Leaf,
    NotLiePolynomialError,
    RowReducer,
    ScaledSum,
    SubspaceBasis,
    base_A,
    base_B,
    base_G,
    classify_monomial,
    closure_rows,
    construct_basis_element,
    eval_bracket_expr,
    is_lie_polynomial,
    lie_closure,
    obase_A,
    obase_B,
    obase_G,
    project_N,
    special_A,
    special_B,
)
from qheis.qscalar import ContextMismatchError, CycloScalar, ScalarContext, q_int

from conftest import closure_rows_reference, mono


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_rows(p3):
    assert not classify_monomial(p3, Monomial(0, 0)).is_lie          # I
    assert classify_monomial(p3, Monomial(2, 0)).is_lie              # C^2
    got = classify_monomial(p3, Monomial(3, -3))                     # C^3 A^3
    assert not got.is_lie and got.in_N
    assert classify_monomial(p3, Monomial(1, -3)).is_lie             # C A^3
    assert classify_monomial(p3, Monomial(0, -1)).is_lie             # A
    assert not classify_monomial(p3, Monomial(0, 2)).is_lie          # B^2
    assert not classify_monomial(p3, Monomial(0, -4)).is_lie         # A^4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_c_power_column(p):
    # closure-backed default: C^n is a Lie polynomial iff p does not divide n
    ctx = ScalarContext.torsion(p)
    for n in range(1, 3 * p + 1):
        got = classify_monomial(ctx, Monomial(n, 0))
        assert got.is_lie == (n % p != 0), n
        assert not got.in_N


def test_c_power_column_literal_reading(p2, p3):
    # literal spanning set keeps C^(np) but drops C^n for n ≡ 1 (mod p), n >= 2
    assert classify_monomial(p2, Monomial(2, 0), defn2_literal=True).is_lie
    assert not classify_monomial(p2, Monomial(3, 0), defn2_literal=True).is_lie
    assert classify_monomial(p3, Monomial(3, 0), defn2_literal=True).is_lie
    assert not classify_monomial(p3, Monomial(4, 0), defn2_literal=True).is_lie


def test_classification_needs_torsion(generic):
    with pytest.raises(ContextMismatchError):
        classify_monomial(generic, Monomial(1, 0))


# ---------------------------------------------------------------------------
# membership and the forbidden subspace
# ---------------------------------------------------------------------------

def test_membership_examples(p3):
    ok, res = is_lie_polynomial(mono(p3, 0, -1) + mono(p3, 0, 1))
    assert ok and res.is_zero()
    ok, res = is_lie_polynomial(Element.identity(p3))
    assert not ok and res == Element.identity(p3)
    x = mono(p3, 3, -3) + mono(p3, 1, -1)
    ok, res = is_lie_polynomial(x)
    assert not ok and res == mono(p3, 3, -3)


@pytest.mark.parametrize("defn2_literal", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_membership_reads_the_classification_termwise(p, defn2_literal):
    # is_lie_polynomial and classify_monomial read one rule; neither may drift
    ctx = ScalarContext.torsion(p)
    w = 2 * p + 2
    grid = [Monomial(k, d) for k in range(w + 1) for d in range(-w, w + 1)]
    lie = {m: classify_monomial(ctx, m, defn2_literal).is_lie for m in grid}
    assert any(lie.values()) and not all(lie.values())
    for m in grid:
        ok, res = is_lie_polynomial(mono(ctx, m.k, m.d), defn2_literal)
        assert (ok, res) == (lie[m], Element.zero(ctx) if lie[m] else mono(ctx, m.k, m.d))
    x = Element.zero(ctx)
    for i, m in enumerate(grid):
        x = x + mono(ctx, m.k, m.d, ctx.from_int(i + 1))
    ok, res = is_lie_polynomial(x, defn2_literal)
    assert not ok
    assert res.terms == {m: c for m, c in x.terms.items() if not lie[m]}


def test_project_N(p3):
    assert project_N(mono(p3, 3, -3)) == mono(p3, 3, -3)
    assert project_N(mono(p3, 1, -1)).is_zero()
    assert project_N(mono(p3, 3, 0)).is_zero()    # pure C powers are not in N
    assert project_N(mono(p3, 0, 3)).is_zero()    # pure letter powers either


@pytest.mark.parametrize("p", [2, 3])
def test_basis_commutators_avoid_N(p):
    ctx = ScalarContext.torsion(p)
    for k1, d1, k2, d2 in itertools.product(range(0, 4), range(-3, 4), repeat=2):
        f = commutator(mono(ctx, k1, d1), mono(ctx, k2, d2))
        assert project_N(f).is_zero(), (k1, d1, k2, d2)


# ---------------------------------------------------------------------------
# explicit constructors
# ---------------------------------------------------------------------------

def test_base_a_closed_form(generic):
    one, q = generic.one(), generic.q()
    assert base_A(generic, 0, 1) == mono(generic, 1, -1, q - one)
    for k in range(0, 4):
        for l in range(1, 4):
            expected = mono(generic, k + 1, -l,
                            -((one - q) ** l) * ((q ** l - one) ** k))
            assert base_A(generic, k, l) == expected


def test_base_b_closed_form(generic):
    one, q = generic.one(), generic.q()
    assert base_B(generic, 0, 1) == mono(generic, 1, 1, q - one)
    for k in range(0, 4):
        for l in range(1, 4):
            expected = mono(generic, k + 1, l,
                            ((q - one) ** (k + 1)) * ((one - q ** (k + 1)) ** (l - 1)))
            assert base_B(generic, k, l) == expected


def test_base_g_closed_form(generic):
    # bracket evaluation equals
    # (q-1)^(k+1) q^-(k+1) ({k+1}_q C^(k+1) - {k+2}_q C^(k+2))
    one, q = generic.one(), generic.q()
    for k in range(0, 5):
        pref = ((q - one) ** (k + 1)) * generic.q_power(-(k + 1))
        expected = (mono(generic, k + 1, 0, q_int(generic, k + 1))
                    - mono(generic, k + 2, 0, q_int(generic, k + 2))).scale(pref)
        assert base_G(generic, k) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normalized_constructors_are_exact(p):
    ctx = ScalarContext.torsion(p)
    for k in range(0, 2 * p + 2):
        for l in range(1, 2 * p + 2):
            if l % p != 0:
                assert obase_A(ctx, k, l) == mono(ctx, k + 1, -l)
            if (k + 1) % p != 0:
                assert obase_B(ctx, k, l) == mono(ctx, k + 1, l)


def test_normalized_constructor_domain_errors(p3):
    with pytest.raises(ConstructionError):
        obase_A(p3, 1, 3)
    with pytest.raises(ConstructionError):
        obase_B(p3, 2, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_obase_g_exact_where_possible(p):
    ctx = ScalarContext.torsion(p)
    for k in range(0, 2 * p + 2):
        if (k + 1) % p == 0 or (k + 2) % p == 0:
            with pytest.raises(ConstructionError):
                obase_G(ctx, k)
        else:
            assert obase_G(ctx, k) == mono(ctx, k + 2, 0)


def test_obase_g_error_messages(p3):
    with pytest.raises(ConstructionError, match="k\\+1"):
        obase_G(p3, 2)
    with pytest.raises(ConstructionError, match="not a Lie polynomial"):
        obase_G(p3, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_special_constructions(p):
    ctx = ScalarContext.torsion(p)
    one, q = ctx.one(), ctx.q()
    for k in range(0, 2 * p + 2):
        for l in range(1, 2 * p + 2):
            if l % p == 0 and (k + 1) % p != 0:
                assert special_A(ctx, k, l) == mono(ctx, k + 1, -l, one - q ** (k + 1))
            if (k + 1) % p == 0 and l % p != 0:
                assert special_B(ctx, k, l) == mono(ctx, k + 1, l, one - q ** l)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_eval_bracket_expr_basics(p3):
    assert eval_bracket_expr(p3, Leaf("A")) == mono(p3, 0, -1)
    assert eval_bracket_expr(p3, Bracket(Leaf("A"), Leaf("B"))) == mono(p3, 1, 0)
    half = p3.from_fraction(1)
    s = ScaledSum(((p3.q(), Leaf("A")), (half, Bracket(Leaf("A"), Leaf("B")))))
    assert eval_bracket_expr(p3, s) == mono(p3, 0, -1, p3.q()) + mono(p3, 1, 0)


def test_witness_examples(p2, p3, p5):
    # C^2 constructible whenever p does not divide 2
    for ctx in (p3, p5):
        w = construct_basis_element(ctx, Monomial(2, 0))
        assert w.value == mono(ctx, 2, 0)
    # central-power bracket reaches C^3 at p = 2
    w = construct_basis_element(p2, Monomial(3, 0))
    assert w.value == mono(p2, 3, 0)
    assert isinstance(w.expr, Bracket)
    # C A^3 at p = 3 through the letter-exponent variant
    w = construct_basis_element(p3, Monomial(1, -3))
    assert w.value == mono(p3, 1, -3)
    # B C through the normalized chain
    w = construct_basis_element(p3, Monomial(1, 1))
    assert w.value == mono(p3, 1, 1)


def test_witness_rejections(p2, p3):
    with pytest.raises(NotLiePolynomialError, match="identity"):
        construct_basis_element(p3, Monomial(0, 0))
    with pytest.raises(NotLiePolynomialError, match="letter power"):
        construct_basis_element(p3, Monomial(0, -2))
    with pytest.raises(NotLiePolynomialError, match="forbidden"):
        construct_basis_element(p3, Monomial(3, 3))
    with pytest.raises(NotLiePolynomialError, match="divisible by p"):
        construct_basis_element(p2, Monomial(2, 0))


def test_witness_under_literal_reading(p2):
    # the literal spanning set classifies C^2 as a member at p = 2, but no
    # bracket combination reaches it; the constructor refuses honestly
    assert classify_monomial(p2, Monomial(2, 0), defn2_literal=True).is_lie
    with pytest.raises(ConstructionError, match="divisible by p"):
        construct_basis_element(p2, Monomial(2, 0), defn2_literal=True)
    # and the member it rejects (C^3) is exactly the one the closure reaches
    with pytest.raises(NotLiePolynomialError, match="literal spanning set"):
        construct_basis_element(p2, Monomial(3, 0), defn2_literal=True)


@pytest.mark.parametrize("p", [2, 3])
def test_reachability_window(p):
    ctx = ScalarContext.torsion(p)
    built = 0
    for k in range(0, 5):
        for d in range(-4, 5):
            m = Monomial(k, d)
            if classify_monomial(ctx, m).is_lie:
                w = construct_basis_element(ctx, m)
                assert w.value == Element.monomial(ctx, m), m
                built += 1
    assert built > 20


def test_witness_text_renders(p2):
    w = construct_basis_element(p2, Monomial(3, 0))
    text = w.expr.text()
    assert text.startswith("[") and "[B, [B, A]]" in text


@pytest.mark.parametrize("p,k,d,text", [
    # plain A chain, its [A, .] bump, plain B chain, its [C, .] bump
    (5, 1, -2, "(2/5 + 3/5*q + 3/5*q^2 + 2/5*q^3)*[A, [A, [A, B]]]"),
    (3, 1, -3, "(-1/9 - 2/9*q)*[A, [A, [A, [A, B]]]]"),
    (5, 1, 2, "(-2/5 - 3/5*q - 3/5*q^2 - 2/5*q^3)*[B, [B, [B, A]]]"),
    (3, 3, 1, "(-1/9 - 2/9*q)*[[A, B], [[A, B], [B, [B, A]]]]"),
    # central-power bracket and telescoped grade-0 chain
    (2, 3, 0, "[(-1/2)*[A, [A, B]], (-1/2)*[B, [B, A]]]"),
    (3, 2, 0, "(-q)*[A, B] + (1/3 + 2/3*q)*[B, [[B, A], A]]"),
])
def test_witness_texts(p, k, d, text):
    assert construct_basis_element(ScalarContext.torsion(p), Monomial(k, d)).expr.text() == text


def test_witness_texts_on_the_verify_windows_are_pinned():
    # every witness text, or refusal, for k, |d| <= 2p + 2 at p = 2, 3, 5, 7
    pin = {}
    for p in (2, 3, 5, 7):
        ctx = ScalarContext.torsion(p)
        w = 2 * p + 2
        for k in range(w + 1):
            for d in range(-w, w + 1):
                try:
                    got = construct_basis_element(ctx, Monomial(k, d)).expr.text()
                except (NotLiePolynomialError, ConstructionError) as exc:
                    got = f"{type(exc).__name__}: {exc}"
                pin[f"{p},{k},{d}"] = got
    assert len(pin) == 1130
    digest = hashlib.sha256(json.dumps(pin, sort_keys=True).encode()).hexdigest()
    assert digest == "62fc70c54bcd04133a28780183141d0badd3e0075ea973664fc2a61375cf3b38"


def test_witness_texts_parse_back_to_their_monomials():
    # an independent route: the parser rebuilds each witness text through
    # `commutator` alone, on a context whose node, bracket and witness
    # tables are never read
    count = 0
    for p in (2, 3, 5, 7):
        fresh = ScalarContext.torsion(p)
        for m, text, _ in _window_witnesses(ScalarContext.torsion(p)):
            assert parse_element(text, fresh) == Element.monomial(fresh, m), (p, m)
            count += 1
        assert fresh._bracket == {} and fresh._witness == {}
    assert count == 999


def test_witness_degree_budget(p3):
    # C A^255 (an [A, .] bump at p = 3) is at the budget, C A^256 past it
    w = construct_basis_element(p3, Monomial(1, -(MAX_WITNESS_DEGREE - 1)))
    assert w.value == mono(p3, 1, -(MAX_WITNESS_DEGREE - 1))
    with pytest.raises(ValueError, match="MAX_WITNESS_DEGREE"):
        construct_basis_element(p3, Monomial(1, -MAX_WITNESS_DEGREE))
    # a non-member is refused as such, whatever its degree
    with pytest.raises(NotLiePolynomialError):
        construct_basis_element(p3, Monomial(300, 300))


def test_telescoped_witness_evaluates_shared_chains_once(p3, monkeypatch):
    calls = []
    real = liepoly.commutator
    monkeypatch.setattr(liepoly, "commutator", lambda x, y: calls.append(1) or real(x, y))
    n = 20  # n = 2 (mod 3): the telescoped witness, n - 1 grade-0 chains
    assert construct_basis_element(p3, Monomial(n, 0)).value == mono(p3, n, 0)
    # the chains extend one nest: 2n distinct brackets, not about n^2 / 2
    assert len(calls) == 2 * n


def _window_witnesses(ctx):
    """(monomial, witness text, value JSON) for every Lie monomial of the 2p + 2 window."""
    w = 2 * ctx.p + 2
    out = []
    for k in range(w + 1):
        for d in range(-w, w + 1):
            m = Monomial(k, d)
            if classify_monomial(ctx, m).is_lie:
                got = construct_basis_element(ctx, m)
                out.append((m, got.expr.text(), got.value.to_json_obj()))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_warm_witnesses_equal_fresh_ones(p):
    # a context warmed by every witness of the window builds each one again,
    # by text and by value, as a context that has built nothing
    warm = ScalarContext.torsion(p)
    _window_witnesses(warm)
    for m, text, value in _window_witnesses(warm):
        fresh = construct_basis_element(ScalarContext.torsion(p), m)
        assert (fresh.expr.text(), fresh.value.to_json_obj()) == (text, value), m


def test_second_pass_of_witnesses_reads_the_bracket_table(p5, monkeypatch):
    first = _window_witnesses(p5)
    stored = len(p5._bracket)
    # every key names a shared node, which _NODES keeps, so no key's id is reused
    assert stored and set(p5._bracket) <= {id(node) for node in liepoly._NODES.values()}
    calls = []
    real = liepoly.commutator

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(liepoly, "commutator", counting)
    # every witness but the central-power brackets of C^n, n = 1 (mod p), is
    # a chain or a sum of chains, and reads its chains from the table
    for m, text, value in first:
        calls.clear()
        got = construct_basis_element(p5, m)
        assert (got.expr.text(), got.value.to_json_obj()) == (text, value)
        central = m.d == 0 and m.k > 1 and m.k % 5 == 1
        assert len(calls) == (1 if central else 0), m
    assert len(p5._bracket) == stored
    # a tree built by hand is evaluated in full and stores nothing, even when
    # it has the structure of a stored chain
    calls.clear()
    by_hand = Bracket(Leaf("A"), Bracket(Leaf("A"), Leaf("B")))
    assert eval_bracket_expr(p5, by_hand) == mono(p5, 1, -1, p5.q() - p5.one())
    assert len(calls) == 2 and len(p5._bracket) == stored


def test_warm_witnesses_reuse_their_stored_expressions(p5, monkeypatch):
    # a witness's expression depends on (p, monomial) alone, so the second
    # pass reads it from the context's witness table: no normalizer is
    # rebuilt, and a mixed witness forms only normalizer x chain coefficient
    first = _window_witnesses(p5)
    calls = {"__mul__": 0, "inverse": 0, "__pow__": 0}
    for name in calls:
        def counting(*args, real=getattr(CycloScalar, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(CycloScalar, name, counting)
    for m, text, value in first:
        calls.update(dict.fromkeys(calls, 0))
        got = construct_basis_element(p5, m)
        assert (got.expr.text(), got.value.to_json_obj()) == (text, value)
        assert calls["inverse"] == calls["__pow__"] == 0, m
        if m.k and m.d:
            assert calls["__mul__"] == 1, m
        if m not in (Monomial(0, -1), Monomial(0, 1), Monomial(1, 0)):
            assert got.expr is p5._witness[m], m


def test_warm_witness_still_checks_its_value():
    # the stored expression is evaluated on every call: a wrong chain value in
    # the bracket table is caught by the warm witness too
    ctx = ScalarContext.torsion(5)
    m = Monomial(2, -3)
    expr = construct_basis_element(ctx, m).expr
    (_, chain), = expr.items
    ctx._bracket[id(chain)] = ctx._bracket[id(chain)] + mono(ctx, 1, 0)
    with pytest.raises(ConstructionError, match=r"witness for C\^2\*A\^3 evaluated to"):
        construct_basis_element(ctx, m)
    assert ctx._witness[m] is expr


def test_witnesses_switch_readings_on_one_warm_context(p5):
    # the witness table is keyed by the monomial alone: classification runs
    # first on every call, so the literal reading still refuses its C powers
    first = _window_witnesses(p5)
    stored = dict(p5._witness)
    for n in (6, 11):
        with pytest.raises(NotLiePolynomialError):
            construct_basis_element(p5, Monomial(n, 0), defn2_literal=True)
    for n in (5, 10):
        with pytest.raises(ConstructionError, match=f"no bracket combination reaches C\\^{n}"):
            construct_basis_element(p5, Monomial(n, 0), defn2_literal=True)
    both = 0
    for m, text, value in first:
        if classify_monomial(p5, m, defn2_literal=True).is_lie:
            got = construct_basis_element(p5, m, defn2_literal=True)
            assert (got.expr.text(), got.value.to_json_obj()) == (text, value), m
            both += 1
    assert both == len(first) - 2 and p5._witness == stored


def test_equal_chains_are_one_node():
    # the [A, .] bump of the k = 0 chain is the next chain, and C is (ad A) B
    assert liepoly._node(liepoly._A, liepoly._chain_A(0, 3)) is liepoly._chain_A(0, 4)
    assert liepoly._ad(liepoly._A, 1, liepoly._B) is liepoly._C
    assert liepoly._chain_B(2, 3) is liepoly._node(liepoly._B, liepoly._chain_B(2, 2))
    assert liepoly._chain_G(4).right is liepoly._node(liepoly._C, liepoly._chain_G(3).right)


def test_threads_building_witnesses_read_what_one_thread_reads():
    # bracket-table entries are stored once and never changed, so two threads
    # building the same witnesses on one context read what one thread reads
    expected = _window_witnesses(ScalarContext.torsion(7))
    for _ in range(2):
        ctx = ScalarContext.torsion(7)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_window_witnesses, ctx) for _ in range(2)]
            assert [f.result(timeout=120) for f in futures] == [expected, expected]
        # both threads read one stored expression per witness but A, B and C
        witnesses = [m for m, _, _ in expected]
        assert set(ctx._witness) == set(witnesses) - {Monomial(0, -1), Monomial(0, 1),
                                                        Monomial(1, 0)}
        for m in ctx._witness:
            assert construct_basis_element(ctx, m).expr is ctx._witness[m], m


# ---------------------------------------------------------------------------
# row reduction and closure
# ---------------------------------------------------------------------------

def test_row_reducer_rref(p3):
    red = RowReducer(p3)
    rows = [
        mono(p3, 0, -1) + mono(p3, 1, 0),
        mono(p3, 0, -1, p3.q()),
        mono(p3, 2, 0) + mono(p3, 1, 0, p3.from_fraction(2)),
    ]
    for r in rows:
        red.insert(r)
    rref = red.rref_rows()
    leads = [RowReducer._lead(r) for r in rref]
    assert leads == sorted(leads, key=lambda m: (m.d, m.k))
    assert len(set(leads)) == len(rref)
    for i, row in enumerate(rref):
        assert row.terms[leads[i]] == p3.one()
        for j, other in enumerate(rref):
            if i != j:
                assert leads[i] not in other.terms


def test_warm_membership_reads_form_no_scalar_product(monkeypatch):
    # the depth-16, window-8 closure at p = 5 is the benchmark's read basis; a
    # read sums x's terms against the row tails once, with no elimination step
    ctx = ScalarContext.torsion(5)
    basis = lie_closure(ctx, 16, 8, 8)
    q, half = ctx.q(), ctx.from_int(2).inverse()
    reads = [mono(ctx, 1, -1, q) + mono(ctx, 3, 2, half),        # two Lie monomials
             mono(ctx, 5, -5, q) + mono(ctx, 2, 0),              # C^5 A^5 lies in N
             mono(ctx, 5, 0, half), Element.identity(ctx),       # never generated
             mono(ctx, 9, 1), mono(ctx, 0, 3) + mono(ctx, 1, 1),  # outside the window
             Element.zero(ctx)]
    want = [True, False, False, False, False, False, True]
    assert [basis.contains(x) for x in reads] == want
    fresh = SubspaceBasis(ctx, 8, 8, basis.rows)     # its first read indexes the rows
    products, reduces = [], []
    mul, reduce = CycloScalar.__mul__, RowReducer.reduce
    monkeypatch.setattr(CycloScalar, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(RowReducer, "reduce", lambda self, x: reduces.append(1) or reduce(self, x))
    assert [basis.contains(x) for x in reads] == want
    assert [fresh.contains(x) for x in reads] == want
    assert (products, reduces) == ([], [])


def test_closure_small_windows(p2):
    assert lie_closure(p2, 2, 2, 2).dimension == 3      # A, B, C
    basis = lie_closure(p2, 3, 2, 2)
    assert basis.dimension == 5                          # + C A, B C
    leads = {m.text() for m in basis.leading_monomials()}
    assert leads == {"A", "B", "C", "C*A", "B*C"}


def test_closure_grade0_column(p2, p3):
    sb2 = lie_closure(p2, 6, 3, 0)
    assert sb2.contains(mono(p2, 1, 0))
    assert sb2.contains(mono(p2, 3, 0))
    assert not sb2.contains(mono(p2, 2, 0))
    sb3 = lie_closure(p3, 6, 3, 0)
    assert sb3.contains(mono(p3, 2, 0))
    assert not sb3.contains(mono(p3, 3, 0))


def test_theorem1_builds_the_closure_once(p3, monkeypatch):
    depths = []
    real = liepoly.closure_rows

    def counted(ctx, depth):
        depths.append(depth)
        return real(ctx, depth)

    monkeypatch.setattr(liepoly, "closure_rows", counted)
    monkeypatch.setattr(verify, "closure_rows", counted)
    verify.verify_theorem1(p3, depth=6, kmax=2, dmax=2)
    assert depths == [6]


@pytest.mark.parametrize("p", [2, 3])
def test_closure_rows_are_lie_polynomials(p):
    ctx = ScalarContext.torsion(p)
    for degree, row in closure_rows(ctx, 6):
        ok, residual = is_lie_polynomial(row)
        assert ok, (degree, row.text(), residual.text())


def test_closure_deterministic_and_parallel_identical(p3):
    a = lie_closure(p3, 5, 3, 3)
    b = lie_closure(p3, 5, 3, 3)
    dump = lambda sb: [row.to_json() for row in sb.rows]
    assert dump(a) == dump(b)


@pytest.mark.parametrize("depth", range(1, 11))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closure_matches_the_all_pairs_reference(p, depth, monkeypatch):
    ctx = ScalarContext.torsion(p)
    reference = closure_rows_reference(ctx, depth)
    calls = []
    real = liepoly.commutator
    monkeypatch.setattr(liepoly, "commutator", lambda x, y: calls.append(1) or real(x, y))
    rows = closure_rows(ctx, depth)
    per_degree = lambda rs: [sum(1 for deg, _ in rs if deg == d) for d in range(1, depth + 1)]
    assert per_degree(rows) == per_degree(reference)
    # only [A, r] and [B, r] for the rows r new at the degree before
    assert len(calls) == 2 * sum(1 for deg, _ in rows if deg < depth)
    for w in (3, 5, depth):
        got = [r.to_json() for r in lie_closure(ctx, depth, w, w).rows]
        want = [r.to_json() for r in liepoly._window_span(ctx, reference, w, w).rows]
        assert got == want, w


def test_closure_outputs_are_pinned(capsys):
    # the benchmark's closures (p = 3, 5; depth 16, window 8) and a depth-40
    # CLI closure; the digests were computed with the all-pairs route
    rows = {str(p): [r.to_json() for r in lie_closure(ScalarContext.torsion(p), 16, 8, 8).rows]
            for p in (3, 5)}
    assert (len(rows["3"]), len(rows["5"])) == (90, 95)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "34f11427d6cb2e2a35a703e1c84c90dd03df352d9b1b51164cbed45beb1adc33"
    argv = ["--p", "5", "--format", "json", "closure", "--depth", "40", "--kmax", "20", "--dmax", "20"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "c49cc453316661d13e9235171b62749217e1f8219cb58cdb3c7f88ed85881f9e"


@pytest.mark.parametrize("argv, digest", [
    (["--p", "128", "--format", "json", "closure", "--depth", "16"],
     "327d724c281a323de8535777f27cc362755f34e6613567cc6503d430860d1720"),
    (["--p", "127", "--format", "json", "normalize", "A^126*B^126"],
     "dad87477b54f80f4bb7878d0745c8c0b8f00d64a14ec22713591e392681cf7bd"),
], ids=["closure-p128", "normalize-p127"])
def test_large_order_outputs_are_pinned(argv, digest, capsys):
    # inverses at the largest orders the CLI takes; the digests were
    # computed with the all-conjugates inverse
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_closure_depth_validation(p3):
    with pytest.raises(ValueError):
        closure_rows(p3, 0)
