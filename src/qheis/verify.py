"""Desk-scale verification suites with exact pass/fail reports.

Each suite exhaustively checks one documented claim about the torsion
algebra on a bounded window and returns :class:`VerifyReport` objects.
A violation is a report entry, never an exception: several of the
documented simplified identities provably fail off their true domain of
validity, and the whole point of these suites is to show exactly where.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .heisenberg import (
    Element,
    Monomial,
    commutator,
    multiply,
    normal_to_element,
    normal_word_product,
    straighten,
)
from .liepoly import (
    _window_span,
    classify_monomial,
    closure_rows,
    construct_basis_element,
    is_lie_polynomial,
    project_N,
    NotLiePolynomialError,
    ConstructionError,
)
from .qscalar import ScalarContext, q_binomial, q_binomial_lucas, scalar_text, struct_c, struct_d
from .torsion import mixed_product_simplified, pow_product_identity

__all__ = [
    "VerifyReport",
    "MAX_RECORDED_VIOLATIONS",
    "verify_no_N_leakage",
    "verify_lemma3",
    "verify_derived_algebra",
    "verify_theorem1",
    "verify_torsion_paths",
    "verify_oracle",
    "run_suites",
    "SUITE_NAMES",
]

MAX_RECORDED_VIOLATIONS = 20


@dataclass
class VerifyReport:
    claim: str
    parameters: dict
    pairs_checked: int = 0
    violations_total: int = 0
    violations: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def vacuous(self) -> bool:
        """True when the window gave the claim nothing to check."""
        return self.pairs_checked == 0

    @property
    def ok(self) -> bool:
        return self.violations_total == 0 and not self.vacuous

    def add_violation(self, entry: Callable[[], dict]) -> None:
        """Count a violation; build its entry only while entries are still kept.

        Entries render elements and scalars as text, which costs far more
        than the check itself once a suite reports thousands of violations.
        """
        self.violations_total += 1
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(entry())

    def to_json_obj(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": self.parameters,
            "pairs_checked": self.pairs_checked,
            "violations_total": self.violations_total,
            "violations": self.violations,
            "elapsed": round(self.elapsed, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def summary_line(self) -> str:
        if self.violations_total:
            status = f"FAILED ({self.violations_total} violations)"
        else:
            status = "vacuous" if self.vacuous else "ok"
        return f"{self.claim}: {status} [{self.pairs_checked} checks, {self.elapsed:.2f}s]"


def _window_monomials(kmax: int, dmax: int):
    for d in range(-dmax, dmax + 1):
        for k in range(0, kmax + 1):
            yield Monomial(k, d)


def _mono(ctx, k, d):
    return Element.monomial(ctx, Monomial(k, d))


# ---------------------------------------------------------------------------
# Forbidden-subspace avoidance (exhaustive commutator table)
# ---------------------------------------------------------------------------

def verify_no_N_leakage(ctx: ScalarContext, kmax: int, dmax: int) -> VerifyReport:
    """Commutators of basis monomials never touch the forbidden subspace."""
    t0 = time.time()
    rep = VerifyReport(
        claim="commutators-avoid-forbidden-subspace",
        parameters={"p": ctx.p, "kmax": kmax, "dmax": dmax},
    )
    monos = list(_window_monomials(kmax, dmax))
    for m1, m2 in itertools.product(monos, repeat=2):
        f = commutator(_mono(ctx, *m1), _mono(ctx, *m2))
        rep.pairs_checked += 1
        bad = project_N(f)
        if not bad.is_zero():
            rep.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                       "residual": bad.text()})
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Equal-letter-exponent commutators land in positive C powers
# ---------------------------------------------------------------------------

def verify_lemma3(ctx: ScalarContext, mmax: int, nmax: int) -> VerifyReport:
    """[C^m A^n, B^s C^r] stays in positive C powers (m, r >= 1).

    Equal exponents give pure C powers with exponent at least two; the
    unequal cases give single-sided letter powers decorated with a
    strictly positive C power.
    """
    t0 = time.time()
    rep = VerifyReport(
        claim="equal-grade-commutators-positive-C",
        parameters={"p": ctx.p, "mmax": mmax, "nmax": nmax},
    )
    for m, r in itertools.product(range(1, mmax + 1), repeat=2):
        for n, s in itertools.product(range(1, nmax + 1), repeat=2):
            f = commutator(_mono(ctx, m, -n), _mono(ctx, r, s))
            rep.pairs_checked += 1
            for mono in f.support():
                if n == s:
                    ok = mono.d == 0 and mono.k >= 2
                elif n < s:
                    ok = mono.d == s - n and mono.k >= 1
                else:
                    ok = mono.d == -(n - s) and mono.k >= 1
                if not ok:
                    rep.add_violation(lambda: {
                        "left": Monomial(m, -n).text(),
                        "right": Monomial(r, s).text(),
                        "term": mono.text(),
                    })
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Derived-algebra closure of the claimed basis
# ---------------------------------------------------------------------------

def verify_derived_algebra(ctx: ScalarContext, kmax: int, dmax: int,
                           defn2_literal: bool = False) -> VerifyReport:
    """Brackets of claimed basis monomials stay in the claimed span minus A, B."""
    t0 = time.time()
    rep = VerifyReport(
        claim="derived-algebra-closure",
        parameters={"p": ctx.p, "kmax": kmax, "dmax": dmax,
                    "defn2_literal": defn2_literal},
    )
    basis = [m for m in _window_monomials(kmax, dmax)
             if classify_monomial(ctx, m, defn2_literal).is_lie]
    for m1, m2 in itertools.combinations(basis, 2):
        f = commutator(_mono(ctx, *m1), _mono(ctx, *m2))
        rep.pairs_checked += 1
        for mono in f.support():
            in_der = (
                classify_monomial(ctx, mono, defn2_literal).is_lie
                and mono not in (Monomial(0, -1), Monomial(0, 1))
            )
            if not in_der:
                rep.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                           "term": mono.text()})
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Closure soundness, constructive reachability, grade-0 window facts
# ---------------------------------------------------------------------------

def verify_theorem1(ctx: ScalarContext, depth: int, kmax: int, dmax: int,
                    defn2_literal: bool = False) -> list[VerifyReport]:
    """Soundness and reachability of the claimed Lie-polynomial basis."""
    t0 = time.time()
    sound = VerifyReport(
        claim="closure-soundness",
        parameters={"p": ctx.p, "depth": depth, "defn2_literal": defn2_literal},
    )
    rows = closure_rows(ctx, depth)
    span = _window_span(ctx, rows, kmax=max(kmax, depth), dmax=max(dmax, depth))
    for deg, row in rows:
        sound.pairs_checked += 1
        ok, residual = is_lie_polynomial(row, defn2_literal)
        if not ok:
            sound.add_violation(lambda: {"degree": deg, "row": row.text(),
                                         "residual": residual.text()})
    sound.elapsed = time.time() - t0

    t1 = time.time()
    reach = VerifyReport(
        claim="constructive-reachability",
        parameters={"p": ctx.p, "kmax": kmax, "dmax": dmax,
                    "defn2_literal": defn2_literal},
    )
    for m in _window_monomials(kmax, dmax):
        if not classify_monomial(ctx, m, defn2_literal).is_lie:
            continue
        reach.pairs_checked += 1
        try:
            witness = construct_basis_element(ctx, m, defn2_literal)
        except (NotLiePolynomialError, ConstructionError) as exc:
            reach.add_violation(lambda: {"monomial": m.text(), "error": str(exc)})
            continue
        if witness.value != _mono(ctx, *m):
            reach.add_violation(lambda: {"monomial": m.text(),
                                         "evaluated": witness.value.text()})
    reach.elapsed = time.time() - t1

    t2 = time.time()
    grade0 = VerifyReport(
        claim="grade0-window-facts",
        parameters={"p": ctx.p, "depth": depth},
    )
    # C powers divisible by p must never enter the closure span; C^(p+1)
    # must enter as soon as the degree budget allows its bracket.
    for j in range(1, depth // 2 + 1):
        grade0.pairs_checked += 1
        cj = _mono(ctx, j, 0)
        in_span = span.contains(cj)
        if j % ctx.p == 0 and in_span:
            grade0.add_violation(lambda: {
                "monomial": Monomial(j, 0).text(),
                "detail": "power of C divisible by p entered the span"})
        if j == ctx.p + 1 and 2 * j <= depth and not in_span:
            grade0.add_violation(lambda: {
                "monomial": Monomial(j, 0).text(),
                "detail": "expected central-power bracket target missing"})
    grade0.elapsed = time.time() - t2
    return [sound, reach, grade0]


# ---------------------------------------------------------------------------
# Simplified torsion relations versus the general path
# ---------------------------------------------------------------------------

def verify_torsion_paths(ctx: ScalarContext, kmax: int, dmax: int) -> list[VerifyReport]:
    """Compare every documented torsion shortcut against the general engine."""
    p = ctx.p
    one, q = ctx.one(), ctx.q()
    reports = []

    t0 = time.time()
    power = VerifyReport(claim="simplified-power-product",
                         parameters={"p": p, "lmin": p, "lmax": 2 * p})
    for l in range(p, 2 * p + 1):
        lit = pow_product_identity(ctx, l)
        ab = multiply(_mono(ctx, 0, -l), _mono(ctx, 0, l))
        ba = multiply(_mono(ctx, 0, l), _mono(ctx, 0, -l))
        power.pairs_checked += 1
        if lit != ab or lit != ba:
            power.add_violation(lambda: {
                "l": l,
                "claimed": lit.text(),
                "general_AlBl": ab.text(),
                "general_BlAl": ba.text(),
            })
    power.elapsed = time.time() - t0
    reports.append(power)

    t0 = time.time()
    mixed = VerifyReport(claim="simplified-mixed-products",
                         parameters={"p": p, "kmax": kmax, "dmax": dmax})
    monos = list(_window_monomials(kmax, dmax))
    for m1, m2 in itertools.product(monos, repeat=2):
        lit = mixed_product_simplified(ctx, m1, m2)
        if lit is None:
            continue
        mixed.pairs_checked += 1
        gen = multiply(_mono(ctx, *m1), _mono(ctx, *m2))
        if lit != gen:
            mixed.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                         "claimed": lit.text(), "general": gen.text()})
    mixed.elapsed = time.time() - t0
    reports.append(mixed)

    # The torsion product takes its binomials through q-Lucas; a pair with
    # letter exponents of opposite signs expands through c_i(j) or d_i(j),
    # j = min(|d1|, |d2|).  Check those against the Pascal recursion; the
    # row depends on j alone, so each row is compared once and every pair
    # that uses it is counted against that outcome.
    t0 = time.time()
    fast = VerifyReport(claim="fastpath-equivalence",
                        parameters={"p": p, "kmax": kmax, "dmax": dmax})
    row_agrees = {j: all(q_binomial_lucas(ctx, j, i) == q_binomial(ctx, j, i) for i in range(j + 1))
                  for j in range(dmax + 1)}
    for m1, m2 in itertools.product(monos, repeat=2):
        fast.pairs_checked += 1
        j = min(abs(m1.d), abs(m2.d)) if m1.d * m2.d < 0 else 0
        if not row_agrees[j]:
            fast.add_violation(lambda: {"left": m1.text(), "right": m2.text()})
    fast.elapsed = time.time() - t0
    reports.append(fast)

    t0 = time.time()
    collapse = VerifyReport(claim="qbinomial-collapse",
                            parameters={"p": p, "lmax": 3 * p})
    for l in range(1, 3 * p + 1):
        for i in range(0, l + 1):
            collapse.pairs_checked += 1
            v = q_binomial(ctx, l, i)
            if l < p:
                ok = not v.is_zero()
            elif i in (0, l):
                ok = v == one
            else:
                ok = v.is_zero()
            if not ok:
                collapse.add_violation(lambda: {"l": l, "i": i, "value": scalar_text(v)})
    collapse.elapsed = time.time() - t0
    reports.append(collapse)

    t0 = time.time()
    endpoints = VerifyReport(claim="structure-scalar-endpoints",
                             parameters={"p": p, "lmin": p, "lmax": 3 * p})
    for l in range(p, 3 * p + 1):
        endpoints.pairs_checked += 1
        target = (q - one).inverse() ** l
        cl = struct_c(ctx, l, l)
        dl = struct_d(ctx, l, l)
        if cl != target or dl != target:
            endpoints.add_violation(lambda: {"l": l, "c_l": scalar_text(cl),
                                             "d_l": scalar_text(dl),
                                             "claimed": scalar_text(target)})
    endpoints.elapsed = time.time() - t0
    reports.append(endpoints)
    return reports


# ---------------------------------------------------------------------------
# Randomized oracle equivalence (structure constants vs word rewriting)
# ---------------------------------------------------------------------------

def verify_oracle(ctx: ScalarContext, pairs: int, seed: int,
                  expmax: int = 6, terms: int = 4) -> VerifyReport:
    """Random products via structure constants match the word-rewrite path.

    Each element is expanded into free words and straightened with the
    defining relation only (`straighten`); the straightened factors are
    multiplied by the memoized letter fold and converted back through the
    equal-power expansion (`normal_to_element`).  Nothing on that route
    touches the structure-constant product.
    """
    t0 = time.time()
    rep = VerifyReport(
        claim="multiply-matches-word-oracle",
        parameters={"p": ctx.p, "mode": ctx.mode, "pairs": pairs, "seed": seed,
                    "expmax": expmax, "terms": terms},
    )
    rng = random.Random(seed)

    def random_element():
        out = Element.zero(ctx)
        for _ in range(rng.randint(1, terms)):
            k = rng.randint(0, expmax)
            d = rng.randint(-expmax, expmax)
            num = rng.randint(-3, 3) or 1
            den = rng.randint(1, 3)
            coeff = ctx.from_fraction(Fraction(num, den))
            if rng.random() < 0.3:
                coeff = coeff * ctx.q_power(rng.randint(0, 3))
            out = out + Element.monomial(ctx, Monomial(k, d), coeff)
        return out

    for _ in range(pairs):
        x, y = random_element(), random_element()
        rep.pairs_checked += 1
        direct = multiply(x, y)
        via_words = normal_to_element(ctx, normal_word_product(ctx, straighten(x), straighten(y)))
        if direct != via_words:
            rep.add_violation(lambda: {"left": x.text(), "right": y.text()})
    rep.elapsed = time.time() - t0
    return rep


# ---------------------------------------------------------------------------
# Suite registry used by the command-line front-end
# ---------------------------------------------------------------------------

SUITE_NAMES = ("lemma2", "lemma3", "lemma4", "theorem1", "torsion-paths", "oracle", "all")


def run_suites(ctx: ScalarContext, names, *, kmax: int, dmax: int, depth: int,
               reach_kmax: int, reach_dmax: int, defn2_literal: bool,
               seed: int, pairs: int) -> list[VerifyReport]:
    wanted = set(names)
    if "all" in wanted:
        wanted = set(SUITE_NAMES) - {"all"}
    out: list[VerifyReport] = []
    if "lemma2" in wanted:
        out.append(verify_no_N_leakage(ctx, kmax, dmax))
    if "lemma3" in wanted:
        out.append(verify_lemma3(ctx, mmax=2 * ctx.p, nmax=2 * ctx.p))
    if "lemma4" in wanted:
        out.append(verify_derived_algebra(ctx, kmax, dmax, defn2_literal))
    if "theorem1" in wanted:
        out.extend(verify_theorem1(ctx, depth, reach_kmax, reach_dmax, defn2_literal))
    if "torsion-paths" in wanted:
        out.extend(verify_torsion_paths(ctx, kmax, dmax))
    if "oracle" in wanted:
        out.append(verify_oracle(ctx, pairs=pairs, seed=seed))
    return out
