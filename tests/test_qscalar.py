import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qheis.heisenberg import Element, Monomial, commutator, word_product
from qheis.qscalar import (
    MAX_SERIALIZED_DEGREE,
    ContextMismatchError,
    CycloScalar,
    GenericScalar,
    ScalarContext,
    cyclotomic_poly,
    format_scalar,
    parse_scalar,
    poly_from_str,
    power_bits,
    poly_to_str,
    q_binomial,
    q_binomial_lucas,
    q_int,
    scalar_text,
    scaled_struct_c,
    scaled_struct_d,
    specialize,
    struct_c,
    struct_d,
)
from qheis.qscalar import P_ONE, _generic_row_size, _pmul, _pdiv_exact, _terms_text

from conftest import CONTEXT_NAMES, CONTEXTS


def totient(n):
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def test_cyclotomic_small_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)


@pytest.mark.parametrize("p", range(1, 16))
def test_cyclotomic_product_and_degree(p):
    # oracle: the product of Phi_d over all divisors d of p is x^p - 1
    prod = P_ONE
    for d in range(1, p + 1):
        if p % d == 0:
            prod = _pmul(prod, cyclotomic_poly(d))
    xp1 = tuple([-1] + [0] * (p - 1) + [1])
    assert prod == xp1
    phi = cyclotomic_poly(p)
    assert phi[-1] == 1  # monic
    assert len(phi) - 1 == totient(p)
    # divides x^p - 1 exactly
    _pdiv_exact(xp1, phi)


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
    with pytest.raises(ValueError):
        ScalarContext.torsion(1)


# ---------------------------------------------------------------------------
# context basics
# ---------------------------------------------------------------------------

def test_primitive_root_orders():
    for p in range(2, 13):
        ctx = ScalarContext.torsion(p)
        assert ctx.q_power(p) == ctx.one()
        for j in range(1, p):
            assert ctx.q_power(j) != ctx.one()
            # q^j - 1 must be invertible below the order
            inv = (ctx.q_power(j) - ctx.one()).inverse()
            assert inv * (ctx.q_power(j) - ctx.one()) == ctx.one()


def test_context_equality_and_mismatch(p2, p3):
    assert p2 != p3
    assert ScalarContext.torsion(3) == p3
    with pytest.raises(ContextMismatchError):
        p2.q() + p3.q()


def test_negative_power_is_inverse(generic, p5):
    for ctx in (generic, p5):
        assert ctx.q_power(-3) * ctx.q_power(3) == ctx.one()


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------

def test_q_int_generic(generic):
    assert q_int(generic, 0).is_zero()
    assert q_int(generic, 3) == GenericScalar((1, 1, 1), (1,))


@pytest.mark.parametrize("p", range(2, 8))
def test_q_int_vanishing(p):
    ctx = ScalarContext.torsion(p)
    for n in range(0, 4 * p + 1):
        assert q_int(ctx, n).is_zero() == (n % p == 0)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def product_formula(ctx, l, i):
    # (l i)_q = prod_{j=1..i} (1 - q^(l-j+1)) / (1 - q^j)
    num, den = ctx.one(), ctx.one()
    for j in range(1, i + 1):
        num = num * (ctx.one() - ctx.q_power(l - j + 1))
        den = den * (ctx.one() - ctx.q_power(j))
    return num * den.inverse()


def test_q_binomial_base_cases(generic, p3):
    assert q_binomial(generic, 7, 0) == generic.one()
    assert q_binomial(generic, 5, 1) == q_int(generic, 5)
    assert q_binomial(generic, 2, 5).is_zero()
    assert q_binomial(p3, 3, 1).is_zero()


def test_q_binomial_product_formula_oracle(generic):
    e42 = q_binomial(generic, 4, 2)
    assert e42 == GenericScalar((1, 0, 1), (1,)) * GenericScalar((1, 1, 1), (1,))
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert q_binomial(generic, n, k) == product_formula(generic, n, k)


def pascal_table(ctx, nmax):
    """Test-only reference: (n 0) = (n n) = 1, (n k) = (n-1 k-1) + q^k (n-1 k)."""
    table = {}
    for n in range(nmax + 1):
        for k in range(n + 1):
            if k in (0, n):
                table[n, k] = ctx.one()
            else:
                table[n, k] = table[n - 1, k - 1] + ctx.q_power(k) * table[n - 1, k]
    return table


@pytest.mark.parametrize("p", [None, *range(2, 8)], ids=lambda p: f"p{p}" if p else "generic")
def test_q_binomial_matches_pascal_recursion(p):
    ctx = ScalarContext.generic() if p is None else ScalarContext.torsion(p)
    for (n, k), want in pascal_table(ctx, 40 if p is None else 3 * p + 2).items():
        assert q_binomial(ctx, n, k) == want, (n, k)


@pytest.mark.parametrize("mode", ["generic", "torsion2", "torsion5", "torsion6"])
def test_q_binomial_symmetry(mode):
    ctx = {"generic": ScalarContext.generic(),
           "torsion2": ScalarContext.torsion(2),
           "torsion5": ScalarContext.torsion(5),
           "torsion6": ScalarContext.torsion(6)}[mode]
    for n in range(0, 13):
        for k in range(0, n + 1):
            assert q_binomial(ctx, n, k) == q_binomial(ctx, n, n - k)


@pytest.mark.parametrize("p", range(2, 8))
def test_lucas_factorization_matches_recursion(p):
    ctx = ScalarContext.torsion(p)
    for n in range(0, 3 * p + 3):
        for k in range(0, n + 2):
            assert q_binomial_lucas(ctx, n, k) == q_binomial(ctx, n, k)
    for n, k in ((-1, 0), (0, -1), (-p, -p)):
        with pytest.raises(ValueError):
            q_binomial_lucas(ctx, n, k)
        with pytest.raises(ValueError):
            q_binomial(ctx, n, k)


def _context_reads(ctx, n):
    """Binomials of row n, q-integers, a bracket grid with its text and word
    products, read through ctx."""
    out = [q_binomial(ctx, n, k) for k in range(n // 2 + 1)]
    out += [q_int(ctx, i) for i in range(40)]
    grid = [Element.monomial(ctx, Monomial(k, d)) for k in range(2) for d in range(-3, 4)]
    brackets = [commutator(x, y) for x in grid for y in grid]
    out += brackets
    out += [f.text() for f in brackets]
    out += [word_product(x, y) for x in grid[:4] for y in grid[-4:]]
    return out


@pytest.mark.parametrize("p, n", [(None, 120), (127, 80)], ids=["generic", "p127"])
def test_threads_sharing_a_context_read_what_one_thread_reads(p, n):
    # every table value is stored once and never changed, so two threads
    # racing through one context read exactly what one thread reads
    def fresh():
        return ScalarContext.torsion(p) if p else ScalarContext.generic()

    expected = _context_reads(fresh(), n)
    for _ in range(2):
        ctx = fresh()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_context_reads, ctx, n) for _ in range(2)]
            assert [f.result(timeout=120) for f in futures] == [expected, expected]


# ---------------------------------------------------------------------------
# structure scalars
# ---------------------------------------------------------------------------

def test_struct_scalar_definitions(generic):
    one, q = generic.one(), generic.q()
    qm1 = q - one
    assert struct_c(generic, 1, 1) == q * qm1.inverse()
    assert struct_c(generic, 0, 1) == -qm1.inverse()
    assert struct_d(generic, 1, 1) == qm1.inverse()
    assert struct_d(generic, 0, 1) == -qm1.inverse()
    for l in range(1, 7):
        low = (one - q).inverse() ** l
        assert struct_c(generic, 0, l) == low
        assert struct_d(generic, 0, l) == low


def test_struct_scalar_domain_checks(generic):
    with pytest.raises(ValueError):
        struct_c(generic, 0, 0)
    with pytest.raises(ValueError):
        struct_d(generic, 3, 2)
    with pytest.raises(ValueError):
        struct_c(generic, -1, 2)


@pytest.mark.parametrize("scaled_first", [True, False], ids=["scaled-first", "plain-first"])
@pytest.mark.parametrize("p", [None, 2, 3, 4, 5, 6, 7], ids=lambda p: f"p{p}" if p else "generic")
def test_scaled_struct_scalars_are_q_shifts(p, scaled_first):
    # q^e * c_i(l) and q^e * d_i(l) share one memo with the unshifted
    # scalars; computing either side first on a fresh context must not
    # change what the other side reads
    ctx = ScalarContext.generic() if p is None else ScalarContext.torsion(p)
    bound = 4 if p is None else p
    cases = [(scaled, plain, i, l, e)
             for scaled, plain in ((scaled_struct_c, struct_c), (scaled_struct_d, struct_d))
             for l in range(1, 2 * bound + 3) for i in range(l + 1)
             for e in range(-2 * bound, 2 * bound + 1)]

    def shifted():
        return [scaled(ctx, i, l, e) for scaled, _, i, l, e in cases]

    def reference():
        return [ctx.q_power(e) * plain(ctx, i, l) for _, plain, i, l, e in cases]

    if scaled_first:
        got = shifted()
        want = reference()
    else:
        want = reference()
        got = shifted()
    assert got == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_struct_scalars_vanish_at_order(p):
    # at l = p the middle Gaussian binomials vanish, so do c_i(p), d_i(p)
    ctx = ScalarContext.torsion(p)
    for i in range(1, p):
        assert struct_c(ctx, i, p).is_zero()
        assert struct_d(ctx, i, p).is_zero()


# ---------------------------------------------------------------------------
# field axioms (random scalars)
# ---------------------------------------------------------------------------

def scalars_strategy(ctx):
    frac = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    power = st.integers(min_value=0, max_value=5)

    def build(f, e):
        return ctx.from_fraction(f) * ctx.q_power(e) + ctx.one()

    return st.builds(build, frac, power)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(data):
    ctx = data.draw(st.sampled_from(
        [ScalarContext.generic(), ScalarContext.torsion(3), ScalarContext.torsion(4)]))
    a = data.draw(scalars_strategy(ctx))
    b = data.draw(scalars_strategy(ctx))
    c = data.draw(scalars_strategy(ctx))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ctx.zero()
    if not a.is_zero():
        assert a * a.inverse() == ctx.one()


def test_zero_inverse_raises(generic, p3):
    for ctx in (generic, p3):
        with pytest.raises(ZeroDivisionError):
            ctx.zero().inverse()


def test_generic_canonical_form():
    # content and polynomial gcd are stripped, denominator lead positive
    a = GenericScalar((2, 2), (4,))          # (2q+2)/4
    assert a == GenericScalar((1, 1), (2,))
    b = GenericScalar((1,), (-1, 1))         # 1/(q-1)
    c = GenericScalar((-1,), (1, -1))        # -1/(1-q)
    assert b == c
    d = GenericScalar((-1, 0, 1), (1, 1))    # (q^2-1)/(q+1) = q-1
    assert d == GenericScalar((-1, 1), (1,))


# ---------------------------------------------------------------------------
# specialization homomorphism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 6])
def test_specialize_is_a_homomorphism(p):
    g = ScalarContext.generic()
    t = ScalarContext.torsion(p)
    one, q = g.one(), g.q()
    samples = [one, q, q ** 3 + one, (q - one).inverse(),
               (q ** 2 + q + one) * (q - one).inverse() ** 2,
               GenericScalar((1, 2), (3,)),
               # valuations of both signs, over shaped and other denominators
               g.q_power(-3) * (q ** 2 - one) * (q - one).inverse() ** 3,
               g.q_power(7) * (q ** 2 + one).inverse(),
               GenericScalar((0, 0, 2, 1), (0, 0, 0, 0, 0, -2, 2))]
    assert [s.v for s in samples[-3:]] == [-3, 7, -3]
    for a in samples:
        for b in samples:
            assert specialize(a + b, t) == specialize(a, t) + specialize(b, t)
            assert specialize(a * b, t) == specialize(a, t) * specialize(b, t)


def test_specialize_rejects_vanishing_denominator(p3):
    g = ScalarContext.generic()
    bad = g.one() * GenericScalar((1,), (1, 1, 1))  # 1/(1+q+q^2) with p=3
    with pytest.raises(ZeroDivisionError):
        specialize(bad, p3)
    ok = GenericScalar((1,), (-1, 1))  # 1/(q-1) is fine at a primitive root
    specialize(ok, p3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_poly_string_round_trip():
    for coeffs in [(), (5,), (-3,), (0, 1), (2, 0, -7, 1), (1, 1, 1, 1)]:
        s = poly_to_str(tuple(coeffs))
        assert poly_from_str(s) == tuple(coeffs)


def test_generic_scalar_round_trip():
    g = ScalarContext.generic()
    one, q = g.one(), g.q()
    for s in [g.zero(), one, -one, q ** 4 - one,
              (q ** 2 + q + one) * (q - one).inverse(),
              GenericScalar((3, 0, -2), (2, 4))]:
        assert parse_scalar(format_scalar(s), g) == s


@pytest.mark.parametrize("p", [2, 3, 5, 6])
def test_torsion_scalar_round_trip(p):
    ctx = ScalarContext.torsion(p)
    vals = [ctx.zero(), ctx.one(), ctx.q_power(1),
            ctx.from_fraction(Fraction(-7, 3)) * ctx.q_power(p - 1) + ctx.one()]
    for s in vals:
        enc = format_scalar(s)
        assert isinstance(enc, list) and len(enc) == ctx.phi
        assert parse_scalar(enc, ctx) == s


def test_torsion_serialization_length_checked(p3):
    with pytest.raises(ValueError):
        parse_scalar(["1"], p3)


def test_scalar_text_forms(p3, p5, generic):
    assert scalar_text(p3.zero()) == "0"
    assert scalar_text(p3.one() - p3.q()) == "1 - q"
    assert scalar_text((generic.q() - generic.one()).inverse()) == "(1)/(q - 1)"
    # exact strings written at the parent of the shared term writer
    for coeffs, shift, text in [
        ((), 0, "0"),
        ((5,), 0, "5"),
        ((-1,), 0, "-1"),
        ((1, 1), 0, "q + 1"),
        ((0, 1), 0, "q"),
        ((-1, -1, 0, 1), 0, "q^3 - q - 1"),
        ((1, 0, -3), 0, "-3*q^2 + 1"),
        ((-1,), 1, "-q"),
        ((7, -1), 2, "-q^3 + 7*q^2"),
        ((2, 0, -1), 3, "-q^5 + 2*q^3"),
    ]:
        assert poly_to_str(coeffs, shift) == text
    for ctx, coords, text in [
        (p5, ["1/2", "-1", "0", "3/4"], "1/2 - q + 3/4*q^3"),
        (p5, ["-2/3", "1", "-1/3", "0"], "-2/3 + q - 1/3*q^2"),
        (p5, ["0", "-1", "0", "1"], "-q + q^3"),
        (p3, ["1/2", "1"], "1/2 + q"),
        (p3, ["-5", "-7/2"], "-5 - 7/2*q"),
    ]:
        assert scalar_text(parse_scalar(coords, ctx)) == text


# (a, b, e, c, j): the scalar (a/b q^e + c) / (q - 1)^j, zero when a = c = 0 and e = 0
POWER_BASE = st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(-4, 4),
                       st.integers(-2, 2), st.integers(0, 2))


def _power_base(ctx, spec):
    a, b, e, c, j = spec
    x = ctx.from_fraction(Fraction(a, b)) * ctx.q_power(e) + ctx.from_int(c)
    for _ in range(j):
        x = x * (ctx.q() - ctx.one()).inverse()
    return x


def test_torsion_scalar_text_is_written_once_per_context():
    ctx = ScalarContext.torsion(5)
    scalars = [q_binomial(ctx, 7, i) for i in range(8)] + [struct_c(ctx, 2, 6), ctx.zero()]
    first = [scalar_text(s) for s in scalars]
    again = [scalar_text(s) for s in scalars]
    assert all(a is b for a, b in zip(first, again))
    assert set(ctx._text) == {(s.num, s.den) for s in scalars}


def test_generic_scalar_text_fills_no_table():
    ctx = ScalarContext.generic()
    for spec in [(1, 2, 3, -1, 0), (-3, 1, 0, 2, 2), (0, 1, 0, 0, 0)]:
        scalar_text(_power_base(ctx, spec))
    assert ctx._text == {}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([name for name in CONTEXT_NAMES if name != "generic"]), POWER_BASE)
def test_torsion_scalar_text_reads_what_the_writer_writes(name, spec):
    x = _power_base(CONTEXTS[name], spec)
    assert scalar_text(x) == _terms_text(x.num, 0, 1, x.den)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), POWER_BASE, st.integers(-8, 16))
def test_power_is_the_product_of_its_factors(name, spec, n):
    ctx = CONTEXTS[name]
    x = _power_base(ctx, spec)
    assert x ** 0 == ctx.one()
    with pytest.raises(ZeroDivisionError):
        ctx.zero() ** -1
    if n < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x ** n
        return
    factor = x if n >= 0 else x.inverse()
    want = ctx.one()
    for _ in range(abs(n)):
        want = want * factor
    assert x ** n == want


def _largest_written_bits(x) -> int:
    """The largest bit length among the integers x's text and JSON write."""
    if isinstance(x, GenericScalar):
        ints = (*x.num, *x.den)     # written as stored
    else:
        # each coordinate in lowest terms, so not the common denominator itself
        ints = [v for c in format_scalar(x) for v in (Fraction(c).numerator, Fraction(c).denominator)]
    return max(abs(c).bit_length() for c in ints)


# a scalar m (sum of a_i/e_i q^i) / b / (c + q)^j with large integer parts;
# the e_i give the coordinates their own denominators, so that the common
# denominator, their lcm, can be larger than every denominator written
SIZED_SCALAR = st.tuples(st.lists(st.tuples(st.integers(-9, 9),
                                            st.one_of(st.just(1), st.integers(2, 10 ** 6))),
                                  min_size=1, max_size=4),
                         st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
                         st.integers(1, 9), st.integers(0, 1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONTEXT_NAMES), SIZED_SCALAR, st.integers(1, 6))
@example(3, ([(1, 3), (1, 5)], 1, 1, 1, 0), 1)
@example(5, ([(1, 999_983), (1, 999_979), (1, 999_961)], 1, 1, 1, 0), 4)
def test_power_bits_bound_the_integers_of_every_power(name, spec, n):
    # the rule that refuses a coefficient power before it is taken may refuse
    # only powers that really write an integer of n*(b - 1) + 1 bits or more
    ctx = CONTEXTS[name]
    coeffs, m, b, c, j = spec
    x = ctx.zero()
    for i, (a, e) in enumerate(coeffs):
        x = x + ctx.from_fraction(Fraction(a, e)) * ctx.q_power(i)
    x = x * ctx.from_fraction(Fraction(m, b))
    if j and not (ctx.q() + ctx.from_int(c)).is_zero():
        x = x * (ctx.q() + ctx.from_int(c)).inverse()
    if not x:
        assert power_bits(x) == 0
        return
    y = x ** n
    assert _largest_written_bits(y) >= n * (power_bits(x) - 1) + 1
    if isinstance(y, CycloScalar):
        # the lcm step of the torsion-denominator rule: the common denominator
        # D is the lcm of the phi written ones, so one of them is at least D^(1/phi)
        written = max(Fraction(v).denominator for v in format_scalar(y))
        assert written ** ctx.phi >= y.den


def test_power_bits_of_a_torsion_scalar_leave_its_denominator_out(p3):
    # ((1 - q)/3)^2 = -q/3 at p = 3: the denominator of a power can shrink,
    # and |a|_1 = 2 leaves no bit of den = 3 to the norm rule
    x = (p3.one() - p3.q()) * p3.from_fraction(Fraction(1, 3))
    assert x * x == -p3.q() * p3.from_fraction(Fraction(1, 3))
    assert power_bits(x) == 1
    assert power_bits(p3.from_fraction(Fraction(2, 9))) == 4


def test_power_bits_read_a_torsion_denominator_through_the_norm(p3, p5):
    # N(x) = x * sigma_2(x) = 1/3 for x = (1 - q)/3 at p = 3, and
    # x^40 = q^20/3^20 meets D^phi >= den(N(x))^40 exactly
    x = (p3.one() - p3.q()) * p3.from_fraction(Fraction(1, 3))
    assert x * ((p3.one() - p3.q_power(2)) * p3.from_fraction(Fraction(1, 3))) == \
        p3.from_fraction(Fraction(1, 3))
    assert (x ** 40).den ** p3.phi == 3 ** 40
    # q/(10^6 - 1) at p = 5: (bits(den) - 1 - bits(|a|_1)) // phi = (20 - 1 - 1) // 4
    y = p5.q() * p5.from_fraction(Fraction(1, 10 ** 6 - 1))
    assert power_bits(y) == 5
    for n in range(1, 9):
        assert _largest_written_bits(y ** n) >= n * (power_bits(y) - 1) + 1


def test_generic_products_past_the_serialized_degree_cap_are_refused(generic):
    half = MAX_SERIALIZED_DEGREE // 2
    x = generic.one() + generic.q_power(half)
    y = generic.one() + generic.q_power(half + 1)
    assert len((x * x).num) - 1 == MAX_SERIALIZED_DEGREE
    with pytest.raises(ValueError, match="product has a numerator of degree 1048577"):
        x * y
    # denominators other than c (q-1)^b are cross-multiplied, and capped the same way
    with pytest.raises(ValueError, match="product has a denominator of degree 1048577"):
        x.inverse() * y.inverse()
    # a power of q is its valuation alone, which is not capped
    big = generic.q_power(4 * MAX_SERIALIZED_DEGREE)
    assert big * big == generic.q_power(8 * MAX_SERIALIZED_DEGREE)


def test_generic_sums_past_the_serialized_degree_cap_are_refused_on_the_cross_route(generic):
    # denominators other than c (q-1)^b are cross-multiplied, and capped before the products
    x = (generic.one() + generic.q_power(MAX_SERIALIZED_DEGREE // 2)).inverse()
    y = (generic.one() + generic.q_power(MAX_SERIALIZED_DEGREE // 2 + 1)).inverse()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="sum has a denominator of degree 1048577"):
        x + y
    assert time.perf_counter() - t0 < 1.0
    assert x + x == x * generic.from_int(2)


def test_generic_structure_rows_are_capped_on_their_estimate():
    ctx = ScalarContext.generic()
    # the estimate counts the coefficients of the whole row
    for l in range(1, 12):
        assert _generic_row_size(l) == sum(len(q_binomial(ctx, l, i).num) for i in range(l + 1))
    assert _generic_row_size(160) == 682_801
    assert _generic_row_size(184) <= MAX_SERIALIZED_DEGREE < _generic_row_size(185)
    before = dict(ctx._qbin)
    with pytest.raises(ValueError, match="letter exponent 185 need a Gaussian row of 1055426"):
        struct_c(ctx, 1, 185)
    assert ctx._qbin == before and ctx._struct == {}
    # torsion structure scalars take q-Lucas rows below p, which are not capped
    assert not struct_c(ScalarContext.torsion(3), 1, 185).is_zero()
