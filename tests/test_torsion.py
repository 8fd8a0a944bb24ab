import hashlib
import itertools
import json

import pytest

from qheis import verify
from qheis.heisenberg import Element, Monomial, multiply
from qheis.qscalar import ContextMismatchError, ScalarContext, q_binomial
from qheis.torsion import (
    is_central,
    mixed_product_simplified,
    multiply_fastpath,
    pow_product_identity,
    power_product_exact,
    reduce_exponent,
)

from conftest import mono, specialize_element


def test_reduce_exponent():
    assert reduce_exponent(ScalarContext.torsion(3), 7) == 1
    assert reduce_exponent(ScalarContext.torsion(2), -1) == 1
    assert reduce_exponent(ScalarContext.torsion(5), 10) == 0


def test_reduce_exponent_rejects_generic(generic):
    with pytest.raises(ContextMismatchError):
        reduce_exponent(generic, 4)


def test_pow_product_identity_literal_form(p2, p3):
    # the formula object itself, independent of whether it matches the algebra
    got = pow_product_identity(p2, 2)
    quarter = (p2.one() - p2.q()).inverse() ** 2
    assert got == (mono(p2, 0, 0) - mono(p2, 2, 0)).scale(quarter)
    got3 = pow_product_identity(p3, 3)
    scale3 = (p3.one() - p3.q()).inverse() ** 3
    assert got3 == (mono(p3, 0, 0) + mono(p3, 3, 0)).scale(scale3)
    with pytest.raises(ValueError):
        pow_product_identity(p3, 2)


def test_pow_product_identity_matches_general_at_order_two(p2):
    ab = multiply(mono(p2, 0, -2), mono(p2, 0, 2))
    assert pow_product_identity(p2, 2) == ab


@pytest.mark.parametrize("p", range(2, 8))
def test_power_product_exact(p):
    ctx = ScalarContext.torsion(p)
    ab = multiply(mono(ctx, 0, -p), mono(ctx, 0, p))
    ba = multiply(mono(ctx, 0, p), mono(ctx, 0, -p))
    exact = power_product_exact(ctx)
    assert exact == ab == ba


def test_mixed_simplified_conditions(p3):
    # conditions not met -> no claim
    assert mixed_product_simplified(p3, Monomial(0, -1), Monomial(0, 1)) is None
    assert mixed_product_simplified(p3, Monomial(1, 0), Monomial(0, 1)) is None
    assert mixed_product_simplified(p3, Monomial(0, -4), Monomial(0, 2)) is None


def test_mixed_simplified_literal_form(p3):
    # the formula object itself: (head - tail) * scale, one rule per side
    q, inv = p3.q(), (p3.one() - p3.q()).inverse()
    # A side, n = 4 > l = 3: q^((n-l)k) and (-1)^l q^((n-l)(m+k)) on the two terms
    got = mixed_product_simplified(p3, Monomial(1, -4), Monomial(2, 3))
    assert got == (mono(p3, 3, -1, q ** 2) + mono(p3, 6, -1, q ** 3)).scale(inv ** 3)
    # A side, n = 4 < l = 5: q^(m(l-n)) and (-1)^n q^((l-n)(m+n))
    got = mixed_product_simplified(p3, Monomial(1, -4), Monomial(0, 5))
    assert got == (mono(p3, 1, 1, q) - mono(p3, 5, 1, q ** 5)).scale(inv ** 4)
    # B side: bare terms, q^(j(m+k)) in the scale
    got = mixed_product_simplified(p3, Monomial(1, 4), Monomial(1, -5))
    assert got == (mono(p3, 2, -1) - mono(p3, 6, -1)).scale(q ** 8 * inv ** 4)


def test_mixed_simplified_true_instance(p2):
    # A^2 . B^2 with p = 2 is a case where the documented formula is right
    claimed = mixed_product_simplified(p2, Monomial(0, -2), Monomial(0, 2))
    general = multiply(mono(p2, 0, -2), mono(p2, 0, 2))
    assert claimed == general


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fastpath_equals_general_sampled(p):
    # q-Lucas binomials on the torsion side, the product formula over Z[q] on the generic side
    ctx, generic = ScalarContext.torsion(p), ScalarContext.generic()
    exps = [0, 1, p - 1, p, p + 1, 2 * p]
    for k1, k2 in itertools.product([0, 1, p], repeat=2):
        for n, l in itertools.product(exps, repeat=2):
            x, y = Monomial(k1, -n), Monomial(k2, l)
            for a, b in ((x, y), (y, x)):
                got = multiply_fastpath(mono(ctx, *a), mono(ctx, *b))
                gen = multiply(mono(generic, *a), mono(generic, *b))
                assert got == specialize_element(gen, ctx)


def test_fastpath_needs_torsion(generic):
    with pytest.raises(ContextMismatchError):
        multiply_fastpath(mono(generic, 0, 1), mono(generic, 0, -1))


def test_fastpath_claim_catches_a_wrong_lucas_route(monkeypatch):
    ctx = ScalarContext.torsion(3)

    def claim():
        reports = verify.verify_torsion_paths(ctx, 1, 6)
        return next(r for r in reports if r.claim == "fastpath-equivalence")

    assert claim().violations_total == 0
    # q-Lucas without its outer factor binom(n // p, k // p)
    monkeypatch.setattr(verify, "q_binomial_lucas",
                        lambda ctx, n, k: q_binomial(ctx, n % ctx.p, k % ctx.p))
    bad = claim()
    # only j = 6 has binom(2, 1) = 2: A^6 against B^6 and B^6 against A^6,
    # with C exponents 0 or 1 on each side
    assert (bad.pairs_checked, bad.violations_total) == (676, 8)


# sha256 of the p = 5, k <= 3, |d| <= 5 torsion-paths reports without "elapsed"
TORSION_PATHS_P5_DIGEST = "a029d3e44e3818b0d53c92408e2e6434d89ebf5110a125eb8fbc0caa2e7f23dc"


def test_torsion_paths_render_only_recorded_violations(monkeypatch):
    renders = {"element": 0, "scalar": 0}
    element_text, scalar_text = Element.text, verify.scalar_text

    def count_element(self, *args, **kwargs):
        renders["element"] += 1
        return element_text(self, *args, **kwargs)

    def count_scalar(s):
        renders["scalar"] += 1
        return scalar_text(s)

    monkeypatch.setattr(Element, "text", count_element)
    monkeypatch.setattr(verify, "scalar_text", count_scalar)
    # |d| <= 5 reaches letter exponent p, so the mixed products get checked
    reports = verify.verify_torsion_paths(ScalarContext.torsion(5), 3, 5)
    rep = {r.claim: r for r in reports}
    assert rep["simplified-mixed-products"].violations_total > verify.MAX_RECORDED_VIOLATIONS
    assert rep["qbinomial-collapse"].violations_total > verify.MAX_RECORDED_VIOLATIONS
    # three elements per power entry and two per mixed entry; one scalar per
    # collapse entry and three per endpoint entry
    assert renders == {
        "element": 3 * len(rep["simplified-power-product"].violations)
                   + 2 * len(rep["simplified-mixed-products"].violations),
        "scalar": len(rep["qbinomial-collapse"].violations)
                  + 3 * len(rep["structure-scalar-endpoints"].violations),
    }
    objs = [r.to_json_obj() for r in reports]
    for obj in objs:
        del obj["elapsed"]
    text = json.dumps(objs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TORSION_PATHS_P5_DIGEST


@pytest.mark.parametrize("p, n", [(3, 40), (5, 40), (2, 100)])
def test_central_power_products_far_past_p(p, n):
    # A^p and B^p are central, so A^(np) B^(np) = (A^p B^p)^n
    ctx = ScalarContext.torsion(p)
    got = multiply(mono(ctx, 0, -n * p), mono(ctx, 0, n * p))
    assert got == power_product_exact(ctx) ** n


def test_torsion_products_build_binomial_rows_only_below_p(p3):
    multiply(mono(p3, 0, -1200), mono(p3, 0, 1200))
    assert p3._qbin and all(n < p3.p for n in p3._qbin)


@pytest.mark.parametrize("p", range(2, 8))
def test_central_powers(p):
    ctx = ScalarContext.torsion(p)
    for n in (1, 2):
        assert is_central(mono(ctx, 0, -n * p))      # A^(np)
        assert is_central(mono(ctx, 0, n * p))       # B^(np)
        assert is_central(mono(ctx, n * p, 0))       # C^(np)
    assert is_central(Element.identity(ctx))
    assert not is_central(mono(ctx, 0, 1))
    assert not is_central(mono(ctx, 1, 0))
    assert not is_central(mono(ctx, 0, -(p + 1)))
