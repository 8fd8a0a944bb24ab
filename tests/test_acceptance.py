"""Acceptance gate: every criterion at its stated bounds, all exact.

Each test prints one `[acceptance] ...` line (run with `-s` to see them
all).  Checks marked `falsified_claim` assert a documented identity
verbatim and are expected to stay red: the identity provably fails on
part of its stated domain.  The exact counterexamples and the corrected
statements live in tests/test_corrected_identities.py; running

    pytest -m "not falsified_claim"

gives the green gate for everything that actually holds.
"""

import itertools
import time

import pytest

from qheis.heisenberg import Element, Monomial, commutator, multiply
from qheis.liepoly import base_G, base_G_documented, obase_G_documented
from qheis.qscalar import ScalarContext, q_binomial, q_int
from qheis.torsion import multiply_fastpath, pow_product_identity
from qheis.verify import (
    verify_derived_algebra,
    verify_lemma3,
    verify_no_N_leakage,
    verify_oracle,
    verify_theorem1,
)

from conftest import mono, specialize_element


def _line(name, violations, checked, elapsed):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"[acceptance] {name}: {status} ({checked} checks, {elapsed:.1f}s)")
    assert not violations, f"{name}: first violations: {violations[:3]}"


def _window(kmax, dmax):
    return [Monomial(k, d) for d in range(-dmax, dmax + 1) for k in range(0, kmax + 1)]


def _ad_pow(x, v, times, negate=False):
    for _ in range(times):
        v = commutator(x, v)
        if negate:
            v = -v
    return v


# ---------------------------------------------------------------------------
# criterion 1: structure-constant products match the word-rewrite oracle
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    violations, checked = [], 0
    plan = [(ScalarContext.generic(), 34), (ScalarContext.torsion(2), 34),
            (ScalarContext.torsion(3), 33), (ScalarContext.torsion(4), 33),
            (ScalarContext.torsion(5), 33), (ScalarContext.torsion(6), 33)]
    for ctx, pairs in plan:  # 200 random pairs across the six scalar modes
        rep = verify_oracle(ctx, pairs=pairs, seed=20240 + (ctx.p or 0))
        checked += rep.pairs_checked
        violations += [dict(v, mode=ctx.mode, p=ctx.p) for v in rep.violations]
    _line("criterion 1 (oracle equivalence, exponents <= 6, <= 4 terms)",
          violations, checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 2: commutators never touch the forbidden subspace
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_forbidden_subspace_avoidance():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        rep = verify_no_N_leakage(ScalarContext.torsion(p), 2 * p + 2, 2 * p + 2)
        checked += rep.pairs_checked
        violations += [dict(v, p=p) for v in rep.violations]
    _line("criterion 2 (forbidden-subspace avoidance, exhaustive to 2p+2)",
          violations, checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 3: equal-grade commutators produce only positive C powers
# ---------------------------------------------------------------------------

def test_criterion_3_equal_grade_commutators():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        rep = verify_lemma3(ScalarContext.torsion(p), mmax=2 * p, nmax=2 * p)
        checked += rep.pairs_checked
        violations += [dict(v, p=p) for v in rep.violations]
    _line("criterion 3 (equal-grade commutators, bounds 2p)",
          violations, checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 4: constructor identities for k, l <= 2p+1, p in {2, 3, 5}
# ---------------------------------------------------------------------------

def _letters(ctx):
    return mono(ctx, 0, -1), mono(ctx, 0, 1), mono(ctx, 1, 0)


def test_criterion_4_base_chain_closed_forms():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        one, q = ctx.one(), ctx.q()
        A, B, C = _letters(ctx)
        for k in range(0, 2 * p + 2):
            for l in range(1, 2 * p + 2):
                checked += 2
                got_a = _ad_pow(C, _ad_pow(A, B, l + 1, negate=True), k, negate=True)
                want_a = mono(ctx, k + 1, -l, -((one - q) ** l) * ((q ** l - one) ** k))
                if got_a != want_a:
                    violations.append({"p": p, "which": "A-chain", "k": k, "l": l})
                got_b = _ad_pow(B, _ad_pow(C, commutator(B, commutator(B, A)), k), l - 1)
                want_b = mono(ctx, k + 1, l,
                              ((q - one) ** (k + 1)) * ((one - q ** (k + 1)) ** (l - 1)))
                if got_b != want_b:
                    violations.append({"p": p, "which": "B-chain", "k": k, "l": l})
    _line("criterion 4a (letter-chain closed forms)", violations, checked,
          time.time() - t0)


@pytest.mark.falsified_claim
def test_criterion_4_base_g_closed_form():
    # documented: base_G(k) = q^-k (q-1)^(k+1) (q {k}_q C^(k+1) - {k+1}_q C^(k+2))
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        for k in range(0, 2 * p + 2):
            checked += 1
            if base_G(ctx, k) != base_G_documented(ctx, k):
                violations.append({"p": p, "k": k})
    _line("criterion 4b (grade-0 chain documented closed form)", violations,
          checked, time.time() - t0)


@pytest.mark.falsified_claim
def test_criterion_4_base_g_sum_identity():
    # documented: q^k sum_{i<=k} (q-1)^-(i+1) base_G(i) = -{k+1}_q C^(k+2)
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        one, q = ctx.one(), ctx.q()
        for k in range(0, 2 * p + 2):
            checked += 1
            acc = Element.zero(ctx)
            for i in range(k + 1):
                acc = acc + base_G(ctx, i).scale((q - one).inverse() ** (i + 1))
            lhs = acc.scale(ctx.q_power(k))
            rhs = mono(ctx, k + 2, 0, -q_int(ctx, k + 1))
            if lhs != rhs:
                violations.append({"p": p, "k": k})
    _line("criterion 4c (grade-0 chain documented telescoping)", violations,
          checked, time.time() - t0)


def test_criterion_4_normalized_forms_letters():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        one, q = ctx.one(), ctx.q()
        A, B, C = _letters(ctx)
        for k in range(0, 2 * p + 2):
            for l in range(1, 2 * p + 2):
                if l % p != 0:
                    checked += 1
                    raw = _ad_pow(C, _ad_pow(A, B, l + 1, negate=True), k, negate=True)
                    norm = raw.scale(-((one - q).inverse() ** l)
                                     * ((q ** l - one).inverse() ** k))
                    if norm != mono(ctx, k + 1, -l):
                        violations.append({"p": p, "which": "A", "k": k, "l": l})
                if (k + 1) % p != 0:
                    checked += 1
                    raw = _ad_pow(B, _ad_pow(C, commutator(B, commutator(B, A)), k), l - 1)
                    norm = raw.scale(((q - one).inverse() ** (k + 1))
                                     * ((one - q ** (k + 1)).inverse() ** (l - 1)))
                    if norm != mono(ctx, k + 1, l):
                        violations.append({"p": p, "which": "B", "k": k, "l": l})
    _line("criterion 4d (normalized letter forms)", violations, checked,
          time.time() - t0)


@pytest.mark.falsified_claim
def test_criterion_4_grade0_normalized_form():
    # documented: (q^k / (1-q^(k+1))) sum (q-1)^-i base_G(i) = C^(k+2), k+1 != 0 mod p
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        for k in range(0, 2 * p + 2):
            if (k + 1) % p == 0:
                continue
            checked += 1
            if obase_G_documented(ctx, k) != mono(ctx, k + 2, 0):
                violations.append({"p": p, "k": k})
    _line("criterion 4e (grade-0 documented normalization)", violations,
          checked, time.time() - t0)


def test_criterion_4_special_cases():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        one, q = ctx.one(), ctx.q()
        A, B, C = _letters(ctx)
        for k in range(0, 2 * p + 2):
            for l in range(1, 2 * p + 2):
                if l % p == 0 and (k + 1) % p != 0:
                    checked += 1
                    got = commutator(mono(ctx, k + 1, -(l - 1)), A)
                    if got != mono(ctx, k + 1, -l, one - q ** (k + 1)):
                        violations.append({"p": p, "which": "letter-bump-A",
                                           "k": k, "l": l})
                if (k + 1) % p == 0 and l % p != 0:
                    checked += 1
                    got = commutator(mono(ctx, k, l), C)
                    if got != mono(ctx, k + 1, l, one - q ** l):
                        violations.append({"p": p, "which": "grade-bump-B",
                                           "k": k, "l": l})
    _line("criterion 4f (special constructions under stated congruences)",
          violations, checked, time.time() - t0)


def test_criterion_4_concise_constructions():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        one, q = ctx.one(), ctx.q()
        A, B, C = _letters(ctx)
        seed_b = commutator(B, commutator(B, A))
        for k in range(0, 2 * p + 2):
            # central-power bracket for C^(k+2), k+1 ≡ 0 (mod p)
            if (k + 1) % p == 0 and k >= 1:
                checked += 1
                left = _ad_pow(C, _ad_pow(A, B, 2, negate=True), k - 1, negate=True)
                left = left.scale((q - one).inverse() ** k)
                right = seed_b.scale((q - one).inverse())
                if commutator(left, right) != mono(ctx, k + 2, 0):
                    violations.append({"p": p, "which": "central-power", "k": k})
            for l in range(1, 2 * p + 2):
                # plain letter chains on their stated domains
                if l % p != 0:
                    checked += 1
                    raw = _ad_pow(C, _ad_pow(A, B, l + 1, negate=True), k, negate=True)
                    got = raw.scale(-((one - q).inverse() ** l)
                                    * ((q ** l - one).inverse() ** k))
                    if got != mono(ctx, k + 1, -l):
                        violations.append({"p": p, "which": "chain-A", "k": k, "l": l})
            for n in (1, 2):
                np_ = n * p
                if np_ > 2 * p + 1:
                    continue
                if (k + 1) % p != 0:
                    checked += 1
                    raw = commutator(A, _ad_pow(C, _ad_pow(A, B, np_, negate=True),
                                                k, negate=True))
                    pref = ((one - q) ** (1 - np_)) * (one - q ** (k + 1)).inverse() \
                        * ((q ** (np_ - 1) - one).inverse() ** k)
                    if raw.scale(pref) != mono(ctx, k + 1, -np_):
                        violations.append({"p": p, "which": "chain-A-np", "k": k, "n": n})
        for l in range(1, 2 * p + 2):
            if l % p == 0:
                continue
            for n in (1, 2):
                np_ = n * p
                if np_ > 2 * p + 1:
                    continue
                checked += 1
                raw = _ad_pow(B, _ad_pow(C, seed_b, np_ - 2), l - 1)
                raw = -commutator(C, raw)
                pref = (one - q ** l).inverse() * ((q - one).inverse() ** (np_ - 1)) \
                    * ((one - q ** (np_ - 1)).inverse() ** (l - 1))
                if raw.scale(pref) != mono(ctx, np_, l):
                    violations.append({"p": p, "which": "chain-B-np", "l": l, "n": n})
    _line("criterion 4g (concise nested-commutator constructions)",
          violations, checked, time.time() - t0)


@pytest.mark.falsified_claim
def test_criterion_4_grade0_concise_form():
    # documented concise grade-0 construction:
    # C^(k+2) = (-q^k (1-q) / (1-q^(k+1))) sum_{i<=k} base_G(i)/(q-1)^(1+i)
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        one, q = ctx.one(), ctx.q()
        for k in range(0, 2 * p + 2):
            if (k + 1) % p == 0:
                continue
            checked += 1
            acc = Element.zero(ctx)
            for i in range(k + 1):
                acc = acc + base_G(ctx, i).scale((q - one).inverse() ** (i + 1))
            got = acc.scale(-ctx.q_power(k) * (one - q)
                            * (one - q ** (k + 1)).inverse())
            if got != mono(ctx, k + 2, 0):
                violations.append({"p": p, "k": k})
    _line("criterion 4h (grade-0 documented concise construction)",
          violations, checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 5: closure soundness and constructive reachability
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_closure_and_reachability():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3):
        reports = verify_theorem1(ScalarContext.torsion(p), depth=6, kmax=4, dmax=4)
        for rep in reports:
            checked += rep.pairs_checked
            violations += [dict(v, p=p, claim=rep.claim) for v in rep.violations]
    _line("criterion 5 (closure soundness depth 6 + reachability to 4/4)",
          violations, checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 6: torsion reductions
# ---------------------------------------------------------------------------

@pytest.mark.falsified_claim
def test_criterion_6_power_product_identity():
    # documented: A^l B^l = (I - (-1)^l C^l)/(1-q)^l = B^l A^l for p <= l <= 2p
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 4, 5):
        ctx = ScalarContext.torsion(p)
        for l in range(p, 2 * p + 1):
            checked += 1
            lit = pow_product_identity(ctx, l)
            ab = multiply(mono(ctx, 0, -l), mono(ctx, 0, l))
            ba = multiply(mono(ctx, 0, l), mono(ctx, 0, -l))
            if lit != ab or lit != ba:
                violations.append({"p": p, "l": l})
    _line("criterion 6a (simplified power product vs general path)",
          violations, checked, time.time() - t0)


@pytest.mark.slow
def test_criterion_6_fastpath_equivalence():
    # The torsion product takes its Gaussian binomials through q-Lucas; the
    # generic product takes them from the product formula over Z[q].
    # Specializing the generic product at the root compares the two routes.
    t0 = time.time()
    violations, checked = [], 0
    generic = ScalarContext.generic()
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        memo = {}
        monos = _window(2 * p + 2, 2 * p + 2)
        for m1, m2 in itertools.product(monos, repeat=2):
            checked += 1
            got = multiply_fastpath(mono(ctx, *m1), mono(ctx, *m2))
            want = specialize_element(multiply(mono(generic, *m1), mono(generic, *m2)), ctx, memo)
            if got != want:
                violations.append({"p": p, "left": m1.text(), "right": m2.text()})
    _line("criterion 6b (torsion product == specialized generic product, exhaustive)",
          violations, checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 7: scalar layer
# ---------------------------------------------------------------------------

def test_criterion_7_q_integer_vanishing():
    t0 = time.time()
    violations, checked = [], 0
    for p in range(2, 8):
        ctx = ScalarContext.torsion(p)
        for n in range(0, 3 * p + 1):
            checked += 1
            if q_int(ctx, n).is_zero() != (n % p == 0):
                violations.append({"p": p, "n": n})
    _line("criterion 7a (q-integer vanishing iff p | n)", violations, checked,
          time.time() - t0)


def test_criterion_7_qbinomial_nonvanishing_below_p():
    t0 = time.time()
    violations, checked = [], 0
    for p in range(2, 8):
        ctx = ScalarContext.torsion(p)
        for l in range(1, p):
            for i in range(0, l + 1):
                checked += 1
                if q_binomial(ctx, l, i).is_zero():
                    violations.append({"p": p, "l": l, "i": i})
    _line("criterion 7b (Gaussian binomials nonzero below p)", violations,
          checked, time.time() - t0)


@pytest.mark.falsified_claim
def test_criterion_7_qbinomial_collapse():
    # documented: for l >= p, (l i)_q is 1 at the endpoints and 0 in between
    t0 = time.time()
    violations, checked = [], 0
    for p in range(2, 8):
        ctx = ScalarContext.torsion(p)
        for l in range(p, 3 * p + 1):
            for i in range(0, l + 1):
                checked += 1
                v = q_binomial(ctx, l, i)
                ok = (v == ctx.one()) if i in (0, l) else v.is_zero()
                if not ok:
                    violations.append({"p": p, "l": l, "i": i})
    _line("criterion 7c (documented Gaussian-binomial collapse above p)",
          violations, checked, time.time() - t0)


def test_criterion_7_qbinomial_symmetry():
    t0 = time.time()
    violations, checked = [], 0
    contexts = [ScalarContext.generic()] + [ScalarContext.torsion(p) for p in range(2, 8)]
    for ctx in contexts:
        for n in range(0, 13):
            for k in range(0, n + 1):
                checked += 1
                if q_binomial(ctx, n, k) != q_binomial(ctx, n, n - k):
                    violations.append({"mode": ctx.mode, "p": ctx.p, "n": n, "k": k})
    _line("criterion 7d (Gaussian-binomial symmetry to n = 12)", violations,
          checked, time.time() - t0)


# ---------------------------------------------------------------------------
# criterion 8: gradation
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_gradation():
    t0 = time.time()
    violations, checked = [], 0
    for p in (2, 3, 5):
        ctx = ScalarContext.torsion(p)
        monos = _window(2 * p + 2, 2 * p + 2)
        for m1, m2 in itertools.product(monos, repeat=2):
            checked += 1
            prod = multiply(mono(ctx, *m1), mono(ctx, *m2))
            if any(m.d != m1.d + m2.d for m in prod.support()):
                violations.append({"p": p, "left": m1.text(), "right": m2.text()})
        # homogeneous multi-term elements keep the grade additive too
        x = mono(ctx, 0, -2) + mono(ctx, 1, -2, ctx.q()) + mono(ctx, 3, -2)
        y = mono(ctx, 0, 2) + mono(ctx, 2, 2, ctx.from_int(3))
        checked += 1
        if any(m.d != 0 for m in multiply(x, y).support()):
            violations.append({"p": p, "left": "homogeneous(-2)",
                               "right": "homogeneous(2)"})
    _line("criterion 8 (products of homogeneous elements add grades)",
          violations, checked, time.time() - t0)
