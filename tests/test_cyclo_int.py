"""The torsion scalar representation: integer numerators over one denominator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CONTEXTS, inverse_reference
from qheis.qscalar import (
    ContextMismatchError,
    ScalarContext,
    _cyclo_canonical,
    _cyclo_mul,
    cyclotomic_poly,
    format_scalar,
    inv_qm1_power,
    parse_scalar,
    q_binomial,
    q_binomial_lucas,
)

ORDERS = range(2, 13)


def random_scalar(ctx, rng, terms=None):
    """A random element with small rational coordinates, some of them zero."""
    coords = [Fraction(0)] * ctx.phi
    for _ in range(terms if terms is not None else rng.randint(1, ctx.phi)):
        coords[rng.randrange(ctx.phi)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return parse_scalar([str(c) for c in coords], ctx)


def assert_canonical(s):
    assert isinstance(s.den, int) and s.den > 0
    assert len(s.num) == s.ctx.phi
    assert all(isinstance(x, int) for x in s.num)
    assert math.gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1


def kernel_product(x, y):
    """x * y through the convolution kernel, with no unit shortcut."""
    return _cyclo_canonical(x.ctx, _cyclo_mul(x.num, y.num, x.ctx), x.den * y.den)


@pytest.mark.parametrize("p", ORDERS)
def test_operations_return_canonical_form(p):
    ctx = ScalarContext.torsion(p)
    rng = random.Random(p)
    # q^0 equals the shared 1 but is another object
    one, q0 = ctx.one(), ctx.q_power(0)
    for _ in range(40):
        x, y = random_scalar(ctx, rng), random_scalar(ctx, rng)
        units = (x * one, one * x, x * q0, q0 * x)
        for s in (x + y, x - y, -x, x * y, x - x, x * ctx.zero()) + units:
            assert_canonical(s)
        assert all(s == kernel_product(x, one) == x for s in units)
        if x:
            assert_canonical(x.inverse())


def test_unit_product_still_checks_contexts():
    with pytest.raises(ContextMismatchError):
        ScalarContext.torsion(3).one() * ScalarContext.torsion(5).one()
    with pytest.raises(ContextMismatchError):
        ScalarContext.torsion(5).q() * ScalarContext.torsion(3).one()


@pytest.mark.parametrize("p", ORDERS)
def test_inverse_qm1_power_memo(p):
    ctx = ScalarContext.torsion(p)
    qm1 = ctx.q() - ctx.one()
    for l in range(3 * p + 1):
        assert inv_qm1_power(ctx, l) == (qm1 ** l).inverse()
        assert inv_qm1_power(ctx, l) is inv_qm1_power(ctx, l)
    assert set(ctx._inv_qm1) == set(range(3 * p + 1))


@pytest.mark.parametrize("p", ORDERS)
def test_inverse_is_two_sided(p):
    ctx = ScalarContext.torsion(p)
    rng = random.Random(100 + p)
    for _ in range(40):
        x = random_scalar(ctx, rng)
        if not x:
            continue
        inv = x.inverse()
        assert x * inv == ctx.one()
        assert inv * x == ctx.one()
        assert inv.inverse() == x


# The unit group mod p is not cyclic at p = 8, 12, 15, 16, 20, 21, 24, ..., 64
# and 128, so the Galois chain there takes two or three steps.
@pytest.mark.parametrize("p", [*range(2, 41), 64, 127, 128])
def test_inverse_matches_the_all_conjugates_reference(p):
    ctx = ScalarContext.torsion(p)
    rng = random.Random(400 + p)
    for _ in range(20 if p <= 40 else 3):
        x = random_scalar(ctx, rng)
        if x:
            assert x.inverse() == inverse_reference(x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([p for p in CONTEXTS if p != "generic"]), st.data())
def test_inverse_times_scalar_is_one(p, data):
    ctx = CONTEXTS[p]
    coords = data.draw(st.lists(st.fractions(-9, 9, max_denominator=6),
                                min_size=ctx.phi, max_size=ctx.phi))
    x = parse_scalar([str(c) for c in coords], ctx)
    assume(x)
    assert x * x.inverse() == ctx.one()


@pytest.mark.parametrize("p", ORDERS)
def test_inverse_table_holds_each_norm_route_scalar_once(p):
    ctx = ScalarContext.torsion(p)
    rng = random.Random(500 + p)
    xs = [x for x in (random_scalar(ctx, rng) for _ in range(20)) if x]
    xs += [ctx.from_fraction(Fraction(-3, 4)), ctx.from_int(7), ctx.q() - ctx.one()]
    for x in xs:
        first = x.inverse()
        # the same object again, also from an equal scalar built anew
        if any(x.num[1:]):
            assert x.inverse() is first
            assert parse_scalar(format_scalar(x), ctx).inverse() is first
    assert set(ctx._inv) == {(x.num, x.den) for x in xs if any(x.num[1:])}
    assert all(any(num[1:]) for num, _ in ctx._inv)


def test_generic_inverses_leave_the_table_empty():
    ctx = ScalarContext.generic()
    qm1 = ctx.q() - ctx.one()
    for x in (qm1, qm1 ** 3 + ctx.q_power(-2), ctx.from_int(-5)):
        assert x * x.inverse() == ctx.one()
    for l in range(6):
        inv_qm1_power(ctx, l)
    assert ctx._inv == {}


def test_rational_inverse_and_zero():
    ctx = ScalarContext.torsion(5)
    assert ctx.from_fraction(Fraction(-3, 4)).inverse() == ctx.from_fraction(Fraction(-4, 3))
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


def test_shared_constants():
    ctx = ScalarContext.torsion(5)
    assert ctx.one() is ctx.one() and ctx.zero() is ctx.zero()
    assert ctx.one() == ctx.from_int(1) and ctx.zero() == ctx.from_int(0)
    assert_canonical(ctx.one())
    assert_canonical(ctx.zero())


@pytest.mark.parametrize("value, text", [
    (Fraction(1, 2), "1/2"),
    (Fraction(-3), "-3"),
    (Fraction(0), "0"),
    (Fraction(-6, 4), "-3/2"),
])
def test_format_matches_fraction_text(value, text):
    ctx = ScalarContext.torsion(5)
    s = ctx.from_fraction(value)
    assert format_scalar(s) == [text, "0", "0", "0"]
    assert parse_scalar(format_scalar(s), ctx) == s


@pytest.mark.parametrize("p", ORDERS)
def test_format_round_trip(p):
    ctx = ScalarContext.torsion(p)
    rng = random.Random(200 + p)
    for _ in range(20):
        x = random_scalar(ctx, rng) * ctx.q_power(rng.randrange(p))
        data = format_scalar(x)
        assert data == [str(Fraction(c, x.den)) for c in x.num]
        assert parse_scalar(data, ctx) == x


@pytest.mark.parametrize("p", [3, 5])
def test_binomial_matches_lucas_far_past_recursion_depth(p):
    ctx = ScalarContext.torsion(p)
    assert q_binomial(ctx, 1500, 3) == q_binomial_lucas(ctx, 1500, 3)


def test_binomial_table_keeps_the_row_prefix_asked_for():
    # one row per n: the polynomial of (n k) and the scalars (n 0) .. (n k),
    # for the smaller of k and n - k
    for ctx, n, k in ((ScalarContext.torsion(3), 1500, 3), (ScalarContext.generic(), 160, 80)):
        q_binomial(ctx, n, k)
        q_binomial(ctx, n, n - k)
        assert list(ctx._qbin) == [n] and len(ctx._qbin[n][1]) == k + 1


# ---------------------------------------------------------------------------
# cross-check against sympy's polynomial arithmetic modulo Phi_p
# ---------------------------------------------------------------------------

def _to_sympy(s, x, sympy):
    return sum(sympy.Rational(c, s.den) * x**e for e, c in enumerate(s.num))


def _from_sympy(expr, x, ctx, sympy):
    poly = sympy.Poly(expr, x)
    coeffs = [Fraction(0)] * ctx.phi
    for (e,), c in poly.terms():
        coeffs[e] = Fraction(int(c.p), int(c.q))
    return parse_scalar([str(c) for c in coeffs], ctx)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 9, 12])
def test_mul_and_inverse_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.cyclotomic_poly(p, x)
    assert sympy.Poly(modulus, x).all_coeffs()[::-1] == list(cyclotomic_poly(p))
    ctx = ScalarContext.torsion(p)
    rng = random.Random(300 + p)
    for _ in range(10):
        a, b = random_scalar(ctx, rng), random_scalar(ctx, rng)
        sa, sb = _to_sympy(a, x, sympy), _to_sympy(b, x, sympy)
        product = sympy.rem(sympy.expand(sa * sb), modulus, x)
        assert a * b == _from_sympy(product, x, ctx, sympy)
        if a:
            assert a.inverse() == _from_sympy(sympy.invert(sa, modulus, x), x, ctx, sympy)
