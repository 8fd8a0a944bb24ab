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
    word_product,
)
from .liepoly import (
    MAX_WITNESS_DEGREE,
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
    """Outcome of one claim on one window.

    Suites open a report as ``with VerifyReport(...) as rep:`` so that
    ``elapsed`` times the block, and count each check through `check`:
    ``if not rep.check(ok): rep.add_violation(lambda: {...})``, so a
    passing check builds no entry closure.
    """

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

    def __enter__(self) -> "VerifyReport":
        self.elapsed = time.perf_counter()  # the start, until __exit__ turns it into the duration
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.elapsed

    def check(self, ok: bool) -> bool:
        """Count one check and return `ok`; a failed check records its
        violations through `add_violation`."""
        self.pairs_checked += 1
        return ok

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


def _window_units(ctx: ScalarContext, kmax: int, dmax: int) -> list[tuple[Monomial, Element]]:
    """(monomial, unit element) for every monomial of the window, built once."""
    return [(m, Element.monomial(ctx, m)) for m in _window_monomials(kmax, dmax)]


# ---------------------------------------------------------------------------
# Forbidden-subspace avoidance (exhaustive commutator table)
# ---------------------------------------------------------------------------

def verify_no_N_leakage(ctx: ScalarContext, kmax: int, dmax: int) -> VerifyReport:
    """Commutators of basis monomials never touch the forbidden subspace."""
    with VerifyReport(
        claim="commutators-avoid-forbidden-subspace",
        parameters={"p": ctx.p, "kmax": kmax, "dmax": dmax},
    ) as rep:
        units = _window_units(ctx, kmax, dmax)
        for (m1, x), (m2, y) in itertools.product(units, repeat=2):
            bad = project_N(commutator(x, y))
            if not rep.check(bad.is_zero()):
                rep.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                           "residual": bad.text()})
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
    with VerifyReport(
        claim="equal-grade-commutators-positive-C",
        parameters={"p": ctx.p, "mmax": mmax, "nmax": nmax},
    ) as rep:
        cs, letters = range(1, mmax + 1), range(1, nmax + 1)
        left = {(m, n): _mono(ctx, m, -n) for m in cs for n in letters}
        right = {(r, s): _mono(ctx, r, s) for r in cs for s in letters}
        for m, r in itertools.product(cs, repeat=2):
            for n, s in itertools.product(letters, repeat=2):
                f = commutator(left[m, n], right[r, s])
                # the grade is s - n; only the pure C power needs C^2
                bad = [mono for mono in f.support()
                       if mono.d != s - n or mono.k < (2 if n == s else 1)]
                if not rep.check(not bad):
                    for mono in bad:
                        rep.add_violation(lambda: {
                            "left": Monomial(m, -n).text(),
                            "right": Monomial(r, s).text(),
                            "term": mono.text(),
                        })
    return rep


# ---------------------------------------------------------------------------
# Derived-algebra closure of the claimed basis
# ---------------------------------------------------------------------------

def verify_derived_algebra(ctx: ScalarContext, kmax: int, dmax: int,
                           defn2_literal: bool = False) -> VerifyReport:
    """Brackets of claimed basis monomials stay in the claimed span minus A, B."""
    with VerifyReport(
        claim="derived-algebra-closure",
        parameters={"p": ctx.p, "kmax": kmax, "dmax": dmax,
                    "defn2_literal": defn2_literal},
    ) as rep:
        basis = [(m, u) for m, u in _window_units(ctx, kmax, dmax)
                 if classify_monomial(ctx, m, defn2_literal).is_lie]
        for (m1, x), (m2, y) in itertools.combinations(basis, 2):
            bad = [mono for mono in commutator(x, y).support()
                   if mono in (Monomial(0, -1), Monomial(0, 1))
                   or not classify_monomial(ctx, mono, defn2_literal).is_lie]
            if not rep.check(not bad):
                for mono in bad:
                    rep.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                               "term": mono.text()})
    return rep


# ---------------------------------------------------------------------------
# Closure soundness, constructive reachability, grade-0 window facts
# ---------------------------------------------------------------------------

def verify_theorem1(ctx: ScalarContext, depth: int, kmax: int, dmax: int,
                    defn2_literal: bool = False) -> list[VerifyReport]:
    """Soundness and reachability of the claimed Lie-polynomial basis.

    A reachability window with kmax + dmax above `MAX_WITNESS_DEGREE`
    holds monomials whose witnesses are refused, so it raises
    `ValueError` before any closure work.
    """
    if kmax + dmax > MAX_WITNESS_DEGREE:
        raise ValueError(f"reachability window kmax + dmax = {kmax + dmax} is above "
                         f"the budget MAX_WITNESS_DEGREE = {MAX_WITNESS_DEGREE}")
    with VerifyReport(
        claim="closure-soundness",
        parameters={"p": ctx.p, "depth": depth, "defn2_literal": defn2_literal},
    ) as sound:
        rows = closure_rows(ctx, depth)
        span = _window_span(ctx, rows, kmax=max(kmax, depth), dmax=max(dmax, depth))
        for deg, row in rows:
            ok, residual = is_lie_polynomial(row, defn2_literal)
            if not sound.check(ok):
                sound.add_violation(lambda: {"degree": deg, "row": row.text(),
                                             "residual": residual.text()})

    with VerifyReport(
        claim="constructive-reachability",
        parameters={"p": ctx.p, "kmax": kmax, "dmax": dmax,
                    "defn2_literal": defn2_literal},
    ) as reach:
        for m in _window_monomials(kmax, dmax):
            if not classify_monomial(ctx, m, defn2_literal).is_lie:
                continue
            # a witness that does not evaluate to m raises ConstructionError
            try:
                construct_basis_element(ctx, m, defn2_literal)
                error = None
            except (NotLiePolynomialError, ConstructionError) as exc:
                error = str(exc)
            if not reach.check(error is None):
                reach.add_violation(lambda: {"monomial": m.text(), "error": error})

    with VerifyReport(
        claim="grade0-window-facts",
        parameters={"p": ctx.p, "depth": depth},
    ) as grade0:
        # C powers divisible by p must never enter the closure span; C^(p+1)
        # must enter as soon as the degree budget allows its bracket.
        for j in range(1, depth // 2 + 1):
            in_span = span.contains(_mono(ctx, j, 0))
            entered = j % ctx.p == 0 and in_span
            missing = j == ctx.p + 1 and 2 * j <= depth and not in_span
            if not grade0.check(not (entered or missing)):
                grade0.add_violation(lambda: {
                    "monomial": Monomial(j, 0).text(),
                    "detail": "power of C divisible by p entered the span" if entered
                    else "expected central-power bracket target missing"})
    return [sound, reach, grade0]


# ---------------------------------------------------------------------------
# Simplified torsion relations versus the general path
# ---------------------------------------------------------------------------

def verify_torsion_paths(ctx: ScalarContext, kmax: int, dmax: int) -> list[VerifyReport]:
    """Compare every documented torsion shortcut against the general engine."""
    p = ctx.p
    one, q = ctx.one(), ctx.q()

    with VerifyReport(claim="simplified-power-product",
                      parameters={"p": p, "lmin": p, "lmax": 2 * p}) as power:
        for l in range(p, 2 * p + 1):
            lit = pow_product_identity(ctx, l)
            ab = multiply(_mono(ctx, 0, -l), _mono(ctx, 0, l))
            ba = multiply(_mono(ctx, 0, l), _mono(ctx, 0, -l))
            if not power.check(lit == ab and lit == ba):
                power.add_violation(lambda: {
                    "l": l,
                    "claimed": lit.text(),
                    "general_AlBl": ab.text(),
                    "general_BlAl": ba.text(),
                })

    with VerifyReport(claim="simplified-mixed-products",
                      parameters={"p": p, "kmax": kmax, "dmax": dmax}) as mixed:
        units = _window_units(ctx, kmax, dmax)
        for (m1, x), (m2, y) in itertools.product(units, repeat=2):
            lit = mixed_product_simplified(ctx, m1, m2)
            if lit is None:
                continue
            gen = multiply(x, y)
            if not mixed.check(lit == gen):
                mixed.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                             "claimed": lit.text(), "general": gen.text()})

    # The torsion product takes its binomials through q-Lucas; a pair with
    # letter exponents of opposite signs expands through c_i(j) or d_i(j),
    # j = min(|d1|, |d2|).  Check those against the product formula at the
    # root, an independent evaluation; the row depends on j alone, so each
    # row is compared once and every pair that uses it is counted against it.
    with VerifyReport(claim="fastpath-equivalence",
                      parameters={"p": p, "kmax": kmax, "dmax": dmax}) as fast:
        row_agrees = {j: all(q_binomial_lucas(ctx, j, i) == q_binomial(ctx, j, i) for i in range(j + 1))
                      for j in range(dmax + 1)}
        for (m1, _), (m2, _) in itertools.product(units, repeat=2):
            j = min(abs(m1.d), abs(m2.d)) if m1.d * m2.d < 0 else 0
            if not fast.check(row_agrees[j]):
                fast.add_violation(lambda: {"left": m1.text(), "right": m2.text()})

    with VerifyReport(claim="qbinomial-collapse",
                      parameters={"p": p, "lmax": 3 * p}) as collapse:
        for l in range(1, 3 * p + 1):
            for i in range(0, l + 1):
                v = q_binomial(ctx, l, i)
                if l < p:
                    ok = not v.is_zero()
                elif i in (0, l):
                    ok = v == one
                else:
                    ok = v.is_zero()
                if not collapse.check(ok):
                    collapse.add_violation(lambda: {"l": l, "i": i, "value": scalar_text(v)})

    with VerifyReport(claim="structure-scalar-endpoints",
                      parameters={"p": p, "lmin": p, "lmax": 3 * p}) as endpoints:
        for l in range(p, 3 * p + 1):
            target = (q - one).inverse() ** l
            cl = struct_c(ctx, l, l)
            dl = struct_d(ctx, l, l)
            if not endpoints.check(cl == target and dl == target):
                endpoints.add_violation(lambda: {
                    "l": l, "c_l": scalar_text(cl), "d_l": scalar_text(dl),
                    "claimed": scalar_text(target)})
    return [power, mixed, fast, collapse, endpoints]


# ---------------------------------------------------------------------------
# Randomized oracle equivalence (structure constants vs word rewriting)
# ---------------------------------------------------------------------------

def verify_oracle(ctx: ScalarContext, pairs: int, seed: int,
                  expmax: int = 6, terms: int = 4) -> VerifyReport:
    """Random products via structure constants match the word-rewrite path.

    The word route is `heisenberg.word_product`: each ordered pair of
    basis monomials is expanded into free words and straightened with the
    defining relation only, the straightened factors are multiplied by
    the memoized letter fold, and the result is converted back through
    the equal-power expansion.  That product is kept per pair in the
    context's ``_word`` table, and x * y is summed from it term pair by
    term pair.  Nothing on that route touches the structure-constant
    product or the commutator table.
    """
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

    with VerifyReport(
        claim="multiply-matches-word-oracle",
        parameters={"p": ctx.p, "mode": ctx.mode, "pairs": pairs, "seed": seed,
                    "expmax": expmax, "terms": terms},
    ) as rep:
        for _ in range(pairs):
            x, y = random_element(), random_element()
            if not rep.check(multiply(x, y) == word_product(x, y)):
                rep.add_violation(lambda: {"left": x.text(), "right": y.text()})
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
