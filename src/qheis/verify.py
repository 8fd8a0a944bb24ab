"""Desk-scale verification suites with exact pass/fail reports.

Each suite exhaustively checks one documented claim about the torsion
algebra on a bounded window and returns :class:`VerifyReport` objects.
A violation is a report entry, never an exception: several of the
documented simplified identities provably fail off their true domain of
validity, and the whole point of these suites is to show exactly where.

The bracket grids differ in what they read.  ``lemma2`` takes one full
`commutator` per pair, so it exercises the kernel read and builds each
bracket as an `Element`; its pairs are unit elements, whose coefficient
product is the context's one, so on stored kernels it forms no scalar
product.  ``lemma3`` and ``lemma4`` only ask which monomials a bracket
holds, and read them through `heisenberg.bracket_support`.  A check
that fails reports its offending monomials in the canonical order.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Callable

from .heisenberg import (
    MONO_A,
    MONO_B,
    Element,
    Monomial,
    _add_into,
    _mono_key,
    bracket_support,
    commutator,
    multiply,
    word_product,
)
from .liepoly import (
    MAX_WITNESS_DEGREE,
    _in_forbidden_subspace,
    _is_lie,
    _window_span,
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
    "plan",
    "SUITE_NAMES",
    "MAX_VERIFY_GRID",
    "MAX_BINOMIAL_ROW_TERMS",
]

MAX_RECORDED_VIOLATIONS = 20

# The oracle suite's random elements: exponents up to ORACLE_EXPMAX, at most ORACLE_TERMS terms
ORACLE_EXPMAX = 6
ORACLE_TERMS = 4


class VerifyReport:
    """Outcome of one claim on one window.

    Suites open a report as ``with VerifyReport(...) as rep:`` so that
    ``elapsed`` times the block, and count each check through `check`:
    ``if not rep.check(ok): rep.add_violation(lambda: {...})``, so a
    passing check builds no entry closure.
    """

    def __init__(self, claim: str, parameters: dict):
        self.claim = claim
        self.parameters = parameters
        self.pairs_checked = 0
        self.violations_total = 0
        self.violations: list = []
        self.elapsed = 0.0

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
    """Commutators of basis monomials never touch the forbidden subspace.

    Each pair of unit elements takes one `commutator` call, so this suite
    exercises the full bracket; both coefficients are the context's one,
    so the bracket takes its kernel terms with no scalar product.  Its
    terms are tested in place with a list comprehension (no generator
    frame per check), and the projection onto the forbidden subspace is
    built only for a violation entry.
    """
    ctx.require_torsion("verify_no_N_leakage")
    p = ctx.p
    with VerifyReport(
        claim="commutators-avoid-forbidden-subspace",
        parameters={"p": p, "kmax": kmax, "dmax": dmax},
    ) as rep:
        units = _window_units(ctx, kmax, dmax)
        for (m1, x), (m2, y) in itertools.product(units, repeat=2):
            f = commutator(x, y)
            if not rep.check(not [mono for mono in f.terms if _in_forbidden_subspace(p, mono)]):
                rep.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                           "residual": project_N(f).text()})
    return rep


# ---------------------------------------------------------------------------
# Equal-letter-exponent commutators land in positive C powers
# ---------------------------------------------------------------------------

def verify_lemma3(ctx: ScalarContext, mmax: int, nmax: int) -> VerifyReport:
    """[C^m A^n, B^s C^r] stays in positive C powers (m, r >= 1).

    Equal exponents give pure C powers with exponent at least two; the
    unequal cases give single-sided letter powers decorated with a
    strictly positive C power.  Only the monomials of each bracket are
    read, through `bracket_support`; a failed check reports its
    offending monomials in the canonical order.
    """
    ctx.require_torsion("verify_lemma3")
    with VerifyReport(
        claim="equal-grade-commutators-positive-C",
        parameters={"p": ctx.p, "mmax": mmax, "nmax": nmax},
    ) as rep:
        cs, letters = range(1, mmax + 1), range(1, nmax + 1)
        left = {(m, n): Monomial(m, -n) for m in cs for n in letters}
        right = {(r, s): Monomial(r, s) for r in cs for s in letters}
        for m, r in itertools.product(cs, repeat=2):
            for n, s in itertools.product(letters, repeat=2):
                x, y = left[m, n], right[r, s]
                # the grade is s - n; only the pure C power needs C^2
                kmin = 2 if n == s else 1
                bad = [mono for mono in bracket_support(ctx, x, y)
                       if mono.d != s - n or mono.k < kmin]
                if not rep.check(not bad):
                    for mono in sorted(bad, key=_mono_key):
                        rep.add_violation(lambda: {"left": x.text(), "right": y.text(),
                                                   "term": mono.text()})
    return rep


# ---------------------------------------------------------------------------
# Derived-algebra closure of the claimed basis
# ---------------------------------------------------------------------------

def verify_derived_algebra(ctx: ScalarContext, kmax: int, dmax: int,
                           defn2_literal: bool = False) -> VerifyReport:
    """Brackets of claimed basis monomials stay in the claimed span minus A, B.

    Only the monomials of each bracket are read, through
    `bracket_support`; a failed check reports its offending monomials in
    the canonical order.
    """
    ctx.require_torsion("verify_derived_algebra")
    p = ctx.p
    with VerifyReport(
        claim="derived-algebra-closure",
        parameters={"p": p, "kmax": kmax, "dmax": dmax, "defn2_literal": defn2_literal},
    ) as rep:
        basis = [m for m in _window_monomials(kmax, dmax) if _is_lie(p, m, defn2_literal)]
        for m1, m2 in itertools.combinations(basis, 2):
            bad = [mono for mono in bracket_support(ctx, m1, m2)
                   if mono in (MONO_A, MONO_B) or not _is_lie(p, mono, defn2_literal)]
            if not rep.check(not bad):
                for mono in sorted(bad, key=_mono_key):
                    rep.add_violation(lambda: {"left": m1.text(), "right": m2.text(),
                                               "term": mono.text()})
    return rep


# ---------------------------------------------------------------------------
# Closure soundness, constructive reachability, grade-0 window facts
# ---------------------------------------------------------------------------

def _check_reach(kmax: int, dmax: int) -> None:
    """Refuse a reachability window with kmax + dmax above `MAX_WITNESS_DEGREE`:
    it holds monomials whose witnesses `construct_basis_element` refuses."""
    if kmax + dmax > MAX_WITNESS_DEGREE:
        raise ValueError(f"verify theorem1 reachability window kmax + dmax must be at most "
                         f"{MAX_WITNESS_DEGREE}, got {kmax + dmax}: the witness budget "
                         f"MAX_WITNESS_DEGREE = {MAX_WITNESS_DEGREE}")


def verify_theorem1(ctx: ScalarContext, depth: int, kmax: int, dmax: int,
                    defn2_literal: bool = False) -> list[VerifyReport]:
    """Soundness and reachability of the claimed Lie-polynomial basis.

    A reachability window over `_check_reach` raises `ValueError` before
    any closure work.
    """
    _check_reach(kmax, dmax)
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
            # a non-member is skipped; a witness that does not evaluate to m
            # raises ConstructionError
            try:
                construct_basis_element(ctx, m, defn2_literal)
                error = None
            except NotLiePolynomialError:
                continue
            except ConstructionError as exc:
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

# Work budget on the Gaussian-binomial rows over Z[q] that torsion-paths
# builds: qbinomial-collapse reads rows up to 3p and fastpath-equivalence
# rows up to dmax, where entry i <= l/2 of row l has i(l - i) + 1
# coefficients.  Measured as a process on a 2-core x86-64 host: --p 3
# verify torsion-paths --kmax 0 --dmax 120 (4.4 million coefficients)
# takes 2.8 s; --dmax 200 (33.8 million) took 16.4 s and p = 61 (23.8
# million) 15.3 s.
MAX_BINOMIAL_ROW_TERMS = 5_000_000


def _check_rows(ctx: ScalarContext, dmax: int) -> None:
    """Refuse a torsion-paths run whose binomial rows would hold more than
    `MAX_BINOMIAL_ROW_TERMS` coefficients, before any row is built."""
    size = 0
    for l in range(max(3 * ctx.p, dmax) + 1):
        h = l // 2  # the sum over i <= h of i(l - i) + 1, in closed form
        size += l * h * (h + 1) // 2 - h * (h + 1) * (2 * h + 1) // 6 + h + 1
    if size > MAX_BINOMIAL_ROW_TERMS:
        raise ValueError(f"verify torsion-paths at p = {ctx.p}, dmax = {dmax} would build "
                         f"binomial rows of {size} coefficients, above the budget "
                         f"MAX_BINOMIAL_ROW_TERMS = {MAX_BINOMIAL_ROW_TERMS}")


def verify_torsion_paths(ctx: ScalarContext, kmax: int, dmax: int) -> list[VerifyReport]:
    """Compare every documented torsion shortcut against the general engine.

    The simplified mixed products apply only where both letter exponents
    are at least p, so that claim pairs only the window units with
    |d| >= p; every pair of the window still counts in
    ``fastpath-equivalence``.  Binomial rows over `_check_rows` raise
    `ValueError` before any work.
    """
    ctx.require_torsion("verify_torsion_paths")
    _check_rows(ctx, dmax)
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

    # j = min(|d1|, |d2|) >= p is needed; `mixed_product_simplified` decides each pair
    monos = list(_window_monomials(kmax, dmax))
    with VerifyReport(claim="simplified-mixed-products",
                      parameters={"p": p, "kmax": kmax, "dmax": dmax}) as mixed:
        units = [(m, Element.monomial(ctx, m)) for m in monos if abs(m.d) >= p]
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
        for m1, m2 in itertools.product(monos, repeat=2):
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
        # (q - 1)^(-l), each power one product from the last
        step = (q - one).inverse()
        target = step ** (p - 1)
        for l in range(p, 3 * p + 1):
            target = target * step
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
                  expmax: int = ORACLE_EXPMAX, terms: int = ORACLE_TERMS) -> VerifyReport:
    """Random products via structure constants match the word-rewrite path.

    The word route is `heisenberg.word_product`: each ordered pair of
    basis monomials is expanded into free words and straightened with the
    defining relation only, the straightened factors are multiplied by
    the memoized letter fold, and the result is converted back through
    the equal-power expansion.  That product is kept per pair in the
    context's ``_word`` table, and x * y is summed from it term pair by
    term pair.  That route takes neither `multiply` nor the commutator
    table, but it is not independent of `multiply`'s scalars: its last
    step, `normal_to_element` through `ba_to_cbasis`, reads `struct_d`
    from the same ``ctx._struct`` memo that `multiply` reads, so a wrong
    structure scalar can pass on both routes alike (ROADMAP item 9).
    """
    rng = random.Random(seed)

    def random_element():
        out: dict = {}
        for _ in range(rng.randint(1, terms)):
            k = rng.randint(0, expmax)
            d = rng.randint(-expmax, expmax)
            num = rng.randint(-3, 3) or 1
            den = rng.randint(1, 3)
            coeff = ctx.from_fraction(Fraction(num, den))
            if rng.random() < 0.3:
                coeff = coeff * ctx.q_power(rng.randint(0, 3))
            _add_into(out, ((Monomial(k, d), coeff),))
        return Element(ctx, out, _clean=True)

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


def _selected(names) -> list[str]:
    """The suites `names` selects, in output order, "all" standing for every one;
    raises `ValueError` on a name in `names` that is no suite."""
    for name in names:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown verify suite {name!r} in {names!r}; "
                             f"the suites are {', '.join(SUITE_NAMES)}")
    return [name for name in SUITE_NAMES[:-1] if "all" in names or name in names]


# Work budget on a verify run: the most work one suite may take, as `plan`
# estimates it.  Measured as a process on a 2-core x86-64 host: the default
# window passes up to p = 8, where verify all takes 11 s (lemma2 494,209
# checks in 5 s), and --p 5 verify lemma2 --kmax 100 --dmax 3 (499,849
# checks) takes 2.5 s.
MAX_VERIFY_GRID = 500_000


def plan(ctx: ScalarContext, names, *, kmax: int, dmax: int, depth: int, reach_kmax: int,
         reach_dmax: int, defn2_literal: bool, pairs: int) -> list[tuple[str, int]]:
    """(claim, checks) of each report the suites `names` make, in output order,
    from the windows alone; exact but for closure-soundness's floor of 2 (A and
    B), as only a closure run gives its rows.  Raises `ValueError` at the first
    suite over its budget, checked before its monomials are classified, or
    claim planned at 0 checks."""
    ctx.require_torsion("plan")
    p, n = ctx.p, 2 * ctx.p
    w = (kmax + 1) * (2 * dmax + 1)
    u = (kmax + 1) * max(0, dmax - p + 1)  # the units with d >= p; as many have d <= -p

    def lie(kmax, dmax):
        return sum(_is_lie(p, m, defn2_literal) for m in _window_monomials(kmax, dmax))

    def claims(name):
        if name == "lemma2":
            yield "commutators-avoid-forbidden-subspace", w * w
        elif name == "lemma3":
            yield "equal-grade-commutators-positive-C", n ** 4
        elif name == "lemma4":
            basis = lie(kmax, dmax)
            yield "derived-algebra-closure", basis * (basis - 1) // 2
        elif name == "theorem1":
            _check_reach(reach_kmax, reach_dmax)
            yield "closure-soundness", 2
            yield "constructive-reachability", lie(reach_kmax, reach_dmax)
            yield "grade0-window-facts", depth // 2
        elif name == "torsion-paths":
            _check_rows(ctx, dmax)
            yield from [("simplified-power-product", p + 1), ("simplified-mixed-products", 2 * u * u),
                        ("fastpath-equivalence", w * w),
                        ("qbinomial-collapse", sum(l + 1 for l in range(1, 3 * p + 1))),
                        ("structure-scalar-endpoints", 2 * p + 1)]
        else:
            yield "multiply-matches-word-oracle", pairs

    window = f", kmax = {kmax}, dmax = {dmax}"
    # suite: (the options it reads, its work as MAX_VERIFY_GRID counts it, what that counts);
    # lemma3 reads about min(n, s) + 1 terms of each [C^m A^n, B^s C^r] with m, n, r, s <= N,
    # the oracle forms at most terms^2 term-pair products of expmax + 1 terms per pair and route
    work = {"lemma2": (window, w * w, "checks"),
            "lemma3": ("", n * n * (n * n + n * (n + 1) * (2 * n + 1) // 6), "bracket terms"),
            "lemma4": (window, w * (w - 1) // 2, "checks"),
            "theorem1": (f", depth = {depth}, reach_kmax = {reach_kmax}, "
                         f"reach_dmax = {reach_dmax}", 0, ""),
            "torsion-paths": (window, w * w, "checks"),
            "oracle": (f", pairs = {pairs}", 2 * pairs * ORACLE_TERMS ** 2 * (ORACLE_EXPMAX + 1),
                       "product terms")}
    out = []
    for name in _selected(names):
        inputs, size, unit = work[name]
        if size > MAX_VERIFY_GRID:
            raise ValueError(f"verify {name} at p = {p}{inputs} would take {size} {unit}, "
                             f"above the budget MAX_VERIFY_GRID = {MAX_VERIFY_GRID}")
        for claim, checks in claims(name):
            if checks == 0:
                raise ValueError(f"verify {name} at p = {p}{inputs} is vacuous: "
                                 f"{claim} has 0 checks")
            out.append((claim, checks))
    return out


def run_suites(ctx: ScalarContext, names, *, kmax: int | None, dmax: int | None, depth: int,
               reach_kmax: int, reach_dmax: int, defn2_literal: bool,
               seed: int, pairs: int) -> list[VerifyReport]:
    """The reports of the suites `names` selects, kmax and dmax 2p + 2 where not
    given.  A generic context and whatever `plan` refuses raise `ValueError`
    before any suite runs; a report off its plan is a fault (`RuntimeError`)."""
    ctx.require_torsion("run_suites")
    kmax, dmax = (2 * ctx.p + 2 if x is None else x for x in (kmax, dmax))
    planned = plan(ctx, names, kmax=kmax, dmax=dmax, depth=depth, reach_kmax=reach_kmax,
                   reach_dmax=reach_dmax, defn2_literal=defn2_literal, pairs=pairs)
    runs = {
        "lemma2": lambda: [verify_no_N_leakage(ctx, kmax, dmax)],
        "lemma3": lambda: [verify_lemma3(ctx, mmax=2 * ctx.p, nmax=2 * ctx.p)],
        "lemma4": lambda: [verify_derived_algebra(ctx, kmax, dmax, defn2_literal)],
        "theorem1": lambda: verify_theorem1(ctx, depth, reach_kmax, reach_dmax, defn2_literal),
        "torsion-paths": lambda: verify_torsion_paths(ctx, kmax, dmax),
        "oracle": lambda: [verify_oracle(ctx, pairs=pairs, seed=seed)],
    }
    reports = [rep for name in _selected(names) for rep in runs[name]()]
    made = [(rep.claim, rep.pairs_checked) for rep in reports]
    for (claim, checks), (got, count) in itertools.zip_longest(planned, made, fillvalue=(None, 0)):
        if got != claim or count < checks or count > checks and claim != "closure-soundness":
            raise RuntimeError(f"verify planned {claim} at {checks} checks, "
                               f"but the suites reported {got} at {count}")
    return reports
