"""Generic canonicalization: q^v * num/den, cancelling q - 1 before any gcd.

The canonical form of a rational function is unique, so the direct
cancellation routes -- the constructor's, the lcm sum and the
cross-cancelling product -- must give exactly what a primitive-PRS gcd
gives on the dense fraction; the reference below uses only ``_pgcd`` and
``_pdiv_exact``, and reads a scalar through ``dense``.
"""

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qheis import qscalar
from qheis.cli import main
from qheis.exprparse import parse_element
from qheis.qscalar import (
    GenericScalar,
    ScalarContext,
    _cross_cancelled,
    _div_qm1,
    _is_qm1_power,
    _padd,
    _pdiv_exact,
    _pgcd,
    _pmul,
    _pneg,
    format_scalar,
    inv_qm1_power,
    parse_scalar,
    poly_to_str,
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


def dense(s):
    """(numerator, denominator) of s as dense polynomials, q^v moved into one of them."""
    shift = (0,) * abs(s.v)
    if s.v >= 0:
        return shift + s.num, s.den
    return s.num, shift + s.den


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
    assert dense(s) == prs_canonical(num, den)


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
    assert dense(s) == want == prs_canonical(num, den)


def test_div_qm1_is_synthetic_division():
    for b in range(1, 6):
        for f in COFACTORS:
            a = product(3, 1, b, f)
            assert _pmul(_div_qm1(a), QM1) == a


def test_is_qm1_power():
    # the test reads denominators with the power of q split off, so a factor q^a, a > 0, is no shape
    for c in (1, -2, 7):
        for a in range(3):
            for b in range(7):
                assert _is_qm1_power(product(c, a, b, (1,))) == (a == 0)
    for f in COFACTORS[1:]:
        assert not _is_qm1_power(product(1, 0, 2, f))
    assert not _is_qm1_power((1, -2, 2))  # (q - 1)^2 + 1


def test_inverse_and_q_powers_are_canonical():
    g = ScalarContext.generic()
    x = GenericScalar(product(1, 1, 2, (1, 1)), product(-3, 0, 3, (1,)))
    for s in (x.inverse(), g.q_power(-4), g.q_power(3), g.from_int(-5)):
        assert dense(s) == prs_canonical(*dense(s))
        assert s.num[0] and s.den[0]
    assert x.inverse().inverse() == x


@pytest.fixture
def pgcd_calls(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return _pgcd(a, b)

    monkeypatch.setattr(qscalar, "_pgcd", counting)
    return calls


@pytest.fixture
def fallback_calls(monkeypatch):
    calls = []

    def counting(v, num, den):
        calls.append((v, num, den))
        return _cross_cancelled(v, num, den)

    monkeypatch.setattr(qscalar, "_cross_cancelled", counting)
    return calls


def test_counter_sees_the_fallback(pgcd_calls, fallback_calls):
    ctx = ScalarContext.generic()
    s = parse_scalar("(q^2 - 1)/(q^2 + 2*q + 1)", ctx)
    assert dense(s) == ((-1, 1), (1, 1))
    assert pgcd_calls
    x = (ctx.q_power(3) - ctx.one()).inverse()  # 1/(q^3 - 1): no shape c (q-1)^b
    assert x * ctx.q_power(-2) == x / ctx.q_power(2) and not fallback_calls
    assert dense(x + ctx.q()) == ((1, -1, 0, 0, 1), (-1, 0, 0, 1)) and fallback_calls


def test_algebra_never_reaches_the_gcd(pgcd_calls, fallback_calls):
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
    assert fallback_calls == []


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
        (xn, xd), (on, od) = dense(x), dense(one)
        want = GenericScalar(_pmul(xn, on), _pmul(xd, od))
        for got in (x * one, one * x, x * ctx.q_power(0), ctx.q_power(0) * x):
            assert got == want == x
            if got:
                assert dense(got) == prs_canonical(*dense(got))


def test_inverse_qm1_power_memo():
    ctx = ScalarContext.generic()
    qm1 = ctx.q() - ctx.one()
    for l in range(16):
        got = inv_qm1_power(ctx, l)
        assert got == (qm1 ** l).inverse()
        assert dense(got) == ((1,), _ppow(QM1, l))


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
        assert dense(got) == (want, (1,))
    assert q_binomial(ctx, 3, 5).is_zero()


# ---------------------------------------------------------------------------
# The lcm sum and the cross-cancelling product against the dense reference
# ---------------------------------------------------------------------------

# q^(a1 - a2) c1 (q-1)^b1 f1 / (c2 (q-1)^b2 f2): valuations of both signs; the
# denominator has the shape c (q-1)^b when f2 = 1 and some other factor otherwise;
# and the powers of q and zero, which products and sums take apart
scalars = st.one_of(
    st.builds(lambda top, bottom: GenericScalar(product(*top), product(*bottom)), side, side),
    st.builds(lambda top, c, a, b: GenericScalar(product(*top), product(c, a, b, (1,))),
              side, st.integers(-6, 6).filter(bool), st.integers(0, 4), st.integers(0, 4)),
    st.builds(ScalarContext.generic().q_power, st.integers(-5, 5)),
    st.just(ScalarContext.generic().zero()),
)


def cross_multiplied(x, y, op):
    """The dense fraction x op y before any cancellation."""
    (xn, xd), (yn, yd) = dense(x), dense(y)
    if op == "*":
        return _pmul(xn, yn), _pmul(xd, yd)
    if op == "-":
        yn = _pneg(yn)
    return _padd(_pmul(xn, yd), _pmul(yn, xd)), _pmul(xd, yd)


def assert_canonical(s):
    if s:
        assert s.num[0] and s.den[0] and s.den[-1] > 0
    else:
        assert (s.v, s.num, s.den) == (0, (), (1,))


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_lcm_sum_and_cross_cancelling_product_match_prs_reference(x, y):
    with mock.patch.object(qscalar, "_cross_cancelled", wraps=_cross_cancelled) as fallback:
        got = {"+": x + y, "-": x - y, "*": x * y}
    if _is_qm1_power(x.den) and _is_qm1_power(y.den):
        assert not fallback.called
    for op, s in got.items():
        assert_canonical(s)
        assert dense(s) == prs_canonical(*cross_multiplied(x, y, op))
    assert x - x == x + (-x) == ScalarContext.generic().zero()
    if x:
        assert x * x.inverse() == ScalarContext.generic().one()


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_scalar_round_trips_through_its_text(x):
    text = format_scalar(x)
    back = parse_scalar(text, ScalarContext.generic())
    assert (back.v, back.num, back.den) == (x.v, x.num, x.den)
    # the text is the dense form's, whatever the valuation
    num, den = dense(x)
    assert text == (poly_to_str(num) if den == (1,) else f"({poly_to_str(num)})/({poly_to_str(den)})")


def test_q_powers_hold_one_entry_numerators():
    s = ScalarContext.generic().q_power(16_777_216)
    assert (s.v, s.num, s.den) == (16_777_216, (1,), (1,))
    assert format_scalar(s) == "q^16777216"
    assert format_scalar(s.inverse()) == "(1)/(q^16777216)"


# sha256 of the stdout of `--format json normalize -- EXPR`, computed while
# generic scalars still kept their power of q in a dense tuple
NORMALIZE_DIGESTS = {
    "(A+B)^16": "d2c2c41d828f8ba258dafc3de67d5ca9ea13366e507b8abc7638271b4021246a",
    "(2*A+q*B+C)^12": "bf21c384dab371bf9ba2213c7691ab12dc7864fda07d0fcc976453fc40467b37",
    "A^40*C^40*B^40": "25d2f4e032a4198a54fbd640a425ef8cc22b53b9b239952f64966c56374f94ed",
    "A^4096*C^4096": "be8b5f02aa784199759ab27e83a43847929004917e8ac5aa397ba455ecf3eef9",
}


def normalize_json(expr):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--format", "json", "normalize", "--", expr]) == 0
    return out.getvalue()


@pytest.mark.parametrize("expr", sorted(NORMALIZE_DIGESTS))
def test_generic_normalize_json_is_pinned(expr):
    assert hashlib.sha256(normalize_json(expr).encode()).hexdigest() == NORMALIZE_DIGESTS[expr]


def test_a_power_of_a_power_of_q_is_one_term():
    assert json.loads(normalize_json("(q^4096)^4096")) == {
        "mode": "generic", "terms": [{"coeff": "q^16777216", "d": 0, "k": 0}]}
