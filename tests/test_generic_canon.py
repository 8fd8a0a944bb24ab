"""Generic canonicalization: cancelling q and q - 1 before any gcd.

The canonical form of a rational function is unique, so the direct
cancellation route must give exactly what a primitive-PRS gcd gives;
the reference below uses only ``_pgcd`` and ``_pdiv_exact``.
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qheis import qscalar
from qheis.cli import main
from qheis.exprparse import parse_element
from qheis.qscalar import (
    GenericScalar,
    ScalarContext,
    _div_qm1,
    _is_q_qm1_power,
    _padd,
    _pdiv_exact,
    _pgcd,
    _pmul,
    inv_qm1_power,
    parse_scalar,
    q_binomial,
)

Q = (0, 1)
QM1 = (-1, 1)
# cofactors: 1 takes the direct route, the others force the gcd fallback
COFACTORS = [(1,), (1, 1), (1, 1, 1), (-3, 2)]


def _ppow(a, n):
    """The integer polynomial a^n, by repeated products."""
    out = (1,)
    for _ in range(n):
        out = _pmul(out, a)
    return out


def prs_canonical(num, den):
    """Canonical (num, den) through the primitive PRS gcd alone."""
    g = _pgcd(num, den)
    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    cn = math.gcd(*num, *den)
    if den[-1] < 0:
        cn = -cn
    return tuple(x // cn for x in num), tuple(x // cn for x in den)


def product(c, a, b, f):
    """c * q^a * (q - 1)^b * f."""
    return _pmul(_pmul((c,), _ppow(Q, a)), _pmul(_ppow(QM1, b), f))


side = st.tuples(
    st.integers(-6, 6).filter(bool),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(COFACTORS),
)


@settings(max_examples=300, deadline=None)
@given(side, side)
def test_direct_cancellation_matches_prs_reference(top, bottom):
    num, den = product(*top), product(*bottom)
    s = GenericScalar(num, den)
    assert (s.num, s.den) == prs_canonical(num, den)


@pytest.mark.parametrize("num, den, want", [
    # constant numerator
    ((3,), (0, 0, 6), ((1,), (0, 0, 2))),
    # constant denominator
    ((2, 4, 6), (4,), ((1, 2, 3), (2,))),
    ((2, 4, 6), (-4,), ((-1, -2, -3), (2,))),
    # negative leading coefficient of the denominator: 1 / (1 - q)
    ((1,), (1, -1), ((-1,), (-1, 1))),
    # both sides divisible several times by q and by q - 1:
    # q^3 (q-1)^3 (q+1) / (2 q^2 (q-1)^4) = q (q+1) / (2 (q-1))
    (product(1, 3, 3, (1, 1)), product(2, 2, 4, (1,)), ((0, 1, 1), (-2, 2))),
    # the same with the denominator's sign flipped
    (product(1, 3, 3, (1, 1)), product(-2, 2, 4, (1,)), ((0, -1, -1), (-2, 2))),
    # (q-1)^3 cancels completely and the content 5 goes
    (product(5, 0, 3, (1,)), product(10, 1, 3, (1,)), ((1,), (0, 2))),
])
def test_edge_cases(num, den, want):
    s = GenericScalar(num, den)
    assert (s.num, s.den) == want == prs_canonical(num, den)


def test_div_qm1_is_synthetic_division():
    for b in range(1, 6):
        for f in COFACTORS:
            a = product(3, 1, b, f)
            assert _pmul(_div_qm1(a), QM1) == a


def test_is_q_qm1_power():
    for c in (1, -2, 7):
        for a in range(3):
            for b in range(7):
                assert _is_q_qm1_power(product(c, a, b, (1,)))
    for f in COFACTORS[1:]:
        assert not _is_q_qm1_power(product(1, 1, 2, f))
    assert not _is_q_qm1_power((0, 1, -2, 2))  # q ((q - 1)^2 + 1)


def test_inverse_and_q_powers_are_canonical():
    g = ScalarContext.generic()
    x = GenericScalar(product(1, 1, 2, (1, 1)), product(-3, 0, 3, (1,)))
    for s in (x.inverse(), g.q_power(-4), g.q_power(3), g.from_int(-5)):
        assert (s.num, s.den) == prs_canonical(s.num, s.den)
    assert x.inverse().inverse() == x


@pytest.fixture
def pgcd_calls(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return _pgcd(a, b)

    monkeypatch.setattr(qscalar, "_pgcd", counting)
    return calls


def test_counter_sees_the_fallback(pgcd_calls):
    ctx = ScalarContext.generic()
    s = parse_scalar("(q^2 - 1)/(q^2 + 2*q + 1)", ctx)
    assert (s.num, s.den) == ((-1, 1), (1, 1))
    assert pgcd_calls


def test_algebra_never_reaches_the_gcd(pgcd_calls):
    ctx = ScalarContext.generic()
    for n in range(1, 25):
        parse_element(f"A^{n}*B^{n}", ctx)
    rng = random.Random(4)
    atoms = ["A", "B", "C", "A^2", "B^3", "C^2*A", "B*C^2", "q", "q^2", "2/3"]

    def expr():
        return " + ".join("*".join(rng.sample(atoms, 3)) for _ in range(rng.randint(1, 3)))

    for _ in range(6):
        for argv in (["normalize", f"({expr()})*({expr()})"], ["comm", expr(), expr()]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(["--format", "json", argv[0], "--", *argv[1:]]) == 0
    assert pgcd_calls == []


def test_unit_products_return_the_other_operand():
    ctx = ScalarContext.generic()
    one = ctx.one()
    samples = [
        GenericScalar(product(1, 1, 2, (1, 1)), product(-3, 0, 3, (1,))),
        GenericScalar(product(2, 0, 1, (1,)), (1,)),
        ctx.from_fraction(Fraction(-2, 9)),
        ctx.q_power(-3),
        ctx.zero(),
        one,
    ]
    for x in samples:
        # the product without a shortcut: canonicalize the convolutions
        want = GenericScalar(_pmul(x.num, one.num), _pmul(x.den, one.den))
        for got in (x * one, one * x, x * ctx.q_power(0), ctx.q_power(0) * x):
            assert got == want == x
            if got:
                assert (got.num, got.den) == prs_canonical(got.num, got.den)


def test_inverse_qm1_power_memo():
    ctx = ScalarContext.generic()
    qm1 = ctx.q() - ctx.one()
    for l in range(16):
        got = inv_qm1_power(ctx, l)
        assert got == (qm1 ** l).inverse()
        assert (got.num, got.den) == ((1,), _ppow(QM1, l))


def test_pascal_table_matches_the_mirrored_recursion():
    # (n k) = q^(n-k) (n-1 k-1) + (n-1 k), the other Pascal rule, by _pmul
    ref = {}
    for n in range(13):
        for k in range(n + 1):
            if k in (0, n):
                ref[n, k] = (1,)
            else:
                ref[n, k] = _padd(_pmul(_ppow(Q, n - k), ref[n - 1, k - 1]), ref[n - 1, k])
    ctx = ScalarContext.generic()
    for (n, k), want in ref.items():
        got = q_binomial(ctx, n, k)
        assert (got.num, got.den) == (want, (1,))
    assert q_binomial(ctx, 3, 5).is_zero()
