"""The claim suites' reports: pinned JSON and self-timing."""

import hashlib
import itertools
import json
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from qheis import verify
from qheis.cli import main
from qheis.heisenberg import Element, Monomial, commutator, multiply
from qheis.liepoly import project_N
from qheis.qscalar import CycloScalar, ScalarContext, q_binomial
from qheis.torsion import mixed_product_simplified
from qheis.verify import (plan, run_suites, verify_derived_algebra, verify_lemma3,
                          verify_no_N_leakage, verify_oracle, verify_theorem1)

# sha256 of the theorem1 reports (depth 6, reachability window 4 x 4) and the
# derived-algebra report (window 2p+2 x 2p+2), without "elapsed".  The literal
# spanning-set reading records violation entries, so both readings are pinned.
THEOREM1_LEMMA4_DIGESTS = {
    (2, False): "7334ad22d4244ddbfed31db515cdcee55a2b2b5c75f9fc2cebca756606f7774c",
    (2, True): "ad9de69e8a32d955881e38dacaaef16fc86852ff304d7cb04bdf0ed8a1d41cea",
    (3, False): "b15cd38bed8a8de533d710f12f1cfc1fdd7f18a246c4c4dab724982e554c9b82",
    (3, True): "e99363c469fb6bcd722e9ba55bbe2ad17648a83ef07207adf5b91ae1c798c67e",
}


@pytest.mark.parametrize("p, literal", sorted(THEOREM1_LEMMA4_DIGESTS))
def test_theorem1_and_lemma4_reports_are_pinned(p, literal):
    ctx = ScalarContext.torsion(p)
    reports = verify_theorem1(ctx, depth=6, kmax=4, dmax=4, defn2_literal=literal)
    reports.append(verify_derived_algebra(ctx, 2 * p + 2, 2 * p + 2, defn2_literal=literal))
    objs = [r.to_json_obj() for r in reports]
    for obj in objs:
        del obj["elapsed"]
    text = json.dumps(objs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == THEOREM1_LEMMA4_DIGESTS[p, literal]


# sha256 of the `--p N --format json verify oracle --seed S` payload and of the
# generic oracle report (20 pairs, seed 0), without "elapsed", computed with
# the word route straightening and multiplying whole elements
ORACLE_DIGESTS = {
    ("2", 0): "db1acc379954465bc8a975fb7cb7eea5736bda57b00c14d48735fb00ac5c75ec",
    ("2", 1): "7233ed38035b05fe95531eadde3649c988f90df46e7a4cf176bfc0b38b5561b4",
    ("3", 0): "fa0c722bfc4c2fb621d6a5b7bb26d1ccdfb4b3f8088ae24c3bc75d43987988dc",
    ("3", 7): "7bf7167d12eb6ac36f77294bc029253362b156b5916bce32101a7d59a77122c6",
    ("5", 0): "8f59bd3aafc83f1ddd4562de8acf1ad97c464d321fe824f4154f99397742d5d0",
    ("5", 3): "e8aa3390c2abd8a75d0c9d7a4acba3345b4f0b33a3acf4ebfaf3c22b1719d2dc",
    ("7", 0): "f4b04926dbc62a7a4623a3ccf6ff0d5b13518482af3379766e3fc5e161ab1b46",
    ("7", 11): "952ca1eb6dfc8dcc6813bc7430042742e6c13c36e4736af6991ca44010a2aceb",
    ("generic", 0): "27ff38c38a2603915b904f62dc33d93b9c4d933ae90edd1d86756cc3db9ae185",
}


@pytest.mark.parametrize("p, seed", sorted(ORACLE_DIGESTS))
def test_oracle_reports_are_pinned(capsys, p, seed):
    if p == "generic":
        # the CLI verifies torsion contexts only
        obj = verify_oracle(ScalarContext.generic(), pairs=20, seed=seed).to_json_obj()
        del obj["elapsed"]
    else:
        assert main(["--p", p, "--format", "json", "verify", "oracle", "--seed", str(seed)]) == 0
        obj = json.loads(capsys.readouterr().out)
        for rep in obj["reports"]:
            del rep["elapsed"]
    text = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGESTS[p, seed]


# sha256 of the `--p N --format json verify lemma2 lemma3 torsion-paths` payload
# without "elapsed", computed while lemma3 read whole commutators and lemma2 and
# the mixed products decided every pair of the window on its own; torsion-paths
# records red mixed-product violations, so this fixes their order too.  At
# p = 7 the default window (kmax = 16) holds classes of 3 C exponents per residue.
GRID_SUITE_DIGESTS = {
    "2": "70b3e69567f891b7e06e47d4bf1b0697ba2e49139d8739c72e91f35f1a83cf8b",
    "3": "e933a0d77860966e1be72cf6a67e9db1028c9576a17eb923ed27fdbb6f1a2b31",
    "5": "90e8dd64115490e8d13e0a3450bf8cbd2674be608711aaf6ed49d9c5316899ec",
    "7": "f65a8c5d96952e36618d987e94cd2a734e84bacc849a2be77359bfdc2ac544f6",
}


# sha256 of the `--p N --format json [--defn2-literal] verify lemma4` payload
# without "elapsed", computed while lemma4 classified every bracket monomial
# afresh; the literal reading reports violations, the default none
LEMMA4_DIGESTS = {
    ("2", False): "2ba12d3fe8ead0ce5047607662f281162cd761dd8605af79b4e3276b9e94c030",
    ("2", True): "0989c380c7c6992a79d0afee117a13126a3eb518e4bdd3f1dcbfa5a204fe46ea",
    ("3", False): "4707d5d3b9c76a06f336369391f7c4769d1d3fc7afe4333b0c084793f9854c8d",
    ("3", True): "fa2196ce894987a01a02ccc76d1e0d6f5e1ef14e41b6622bba80c44ea373ddd2",
    ("5", False): "61f581967f999e0617b53dcb9030f53af23bd71a624b60f3c5a09cde81ec22e7",
    ("5", True): "8834ee77ea8f80adc598cf4f05551329554e1b48b289c222c8cb1b1ef040e713",
    ("7", False): "129b475add70da94d0d35ae60d879ab4a2cd4cdf33f98a5039ad1b2e2eccad06",
    ("7", True): "efad33e4f460b9e48fbb29fcf9c24cf8efd45eb61b335dff06d506a39ef3b4f0",
}


def _report_digest(capsys, argv, code):
    assert main(argv) == code
    obj = json.loads(capsys.readouterr().out)
    for rep in obj["reports"]:
        del rep["elapsed"]
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("p", sorted(GRID_SUITE_DIGESTS))
def test_grid_suite_reports_are_pinned(capsys, p):
    argv = ["--p", p, "--format", "json", "verify", "lemma2", "lemma3", "torsion-paths"]
    assert _report_digest(capsys, argv, 1) == GRID_SUITE_DIGESTS[p]
    for literal in (False, True):
        flags = ["--defn2-literal"] if literal else []
        argv = ["--p", p, "--format", "json", *flags, "verify", "lemma4"]
        assert _report_digest(capsys, argv, int(literal)) == LEMMA4_DIGESTS[p, literal]


def _entries(rep):
    return rep.pairs_checked, rep.violations_total, rep.violations


def test_lemma2_forms_no_scalar_product_on_a_warm_context(monkeypatch):
    # every lemma2 pair brackets two unit elements, so once the kernels are
    # stored no coefficient product is formed; each pair is still one commutator
    ctx = ScalarContext.torsion(5)
    warm = _entries(verify_no_N_leakage(ctx, 1, 1))
    products, brackets = [], []
    mul, bracket = CycloScalar.__mul__, verify.commutator
    monkeypatch.setattr(CycloScalar, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(verify, "commutator", lambda x, y: brackets.append(1) or bracket(x, y))
    assert _entries(verify_no_N_leakage(ctx, 1, 1)) == warm == (36, 0, [])
    assert (len(products), len(brackets)) == (0, 36)


@pytest.mark.parametrize("p", [3, 5])
def test_planted_kernels_reach_the_violation_entries(p):
    # kmax, mmax < p: each planted residue key is read by exactly one pair
    ctx = ScalarContext.torsion(p)
    one, q = ctx.one(), ctx.q()
    # [B, B] planted as C + q B^p C^p: only the second term lies in N
    ctx._comm[0, 1, 0, 1] = ((Monomial(1, 0), one), (Monomial(p, p), q))
    assert _entries(verify_no_N_leakage(ctx, 1, 2)) == (
        100, 1, [{"left": "B", "right": "B", "residual": f"(q)*B^{p}*C^{p}"}])

    # [C A, B C] planted as C^2 + q I: the identity has C power 0
    ctx = ScalarContext.torsion(p)
    ctx._comm[1, -1, 1, 1] = ((Monomial(2, 0), one), (Monomial(0, 0), q))
    assert _entries(verify_lemma3(ctx, 2, 2)) == (
        16, 1, [{"left": "C*A", "right": "B*C", "term": "I"}])

    # two offending monomials are reported in the canonical order, not kernel order
    ctx = ScalarContext.torsion(p)
    ctx._comm[1, -1, 1, 1] = ((Monomial(0, 1), q), (Monomial(2, 0), one), (Monomial(0, 0), one))
    assert _entries(verify_lemma3(ctx, 2, 2)) == (16, 2, [
        {"left": "C*A", "right": "B*C", "term": "I"},
        {"left": "C*A", "right": "B*C", "term": "B"}])
    ctx = ScalarContext.torsion(p)
    ctx._comm[0, -1, 0, 1] = ((Monomial(0, 1), one), (Monomial(0, 0), q), (Monomial(1, 0), one))
    rep = verify_derived_algebra(ctx, 2, 2)
    assert (rep.violations_total, rep.violations) == (2, [
        {"left": "A", "right": "B", "term": "I"},
        {"left": "A", "right": "B", "term": "B"}])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_kernel_term_with_no_c_power_is_forbidden_only_c_p_higher(p):
    # [A, B C] planted as B^p: outside N, but C^s B^p with s > 0 lies in N.  So of
    # the key (0, -1, 1, 1) and of its twin (1, 1, 0, -1), read as the planted kernel
    # negated, exactly the pairs whose C exponents lie above their residues fail
    ctx = ScalarContext.torsion(p)
    ctx._comm[0, -1, 1, 1] = ((Monomial(0, p), ctx.one()),)
    kmax = p + 1  # the classes {0, p} and {1, p + 1}
    window = [Monomial(k, d) for d in (-1, 0, 1) for k in range(kmax + 1)]
    A, CpA, BC, BCp = Monomial(0, -1), Monomial(p, -1), Monomial(1, 1), Monomial(p + 1, 1)
    expected = [{"left": x.text(), "right": y.text(), "residual": f"({sign})*B^{p}*C^{s}"}
                for x, y, sign, s in [(A, BCp, 1, p), (CpA, BC, 1, p), (CpA, BCp, 1, 2 * p),
                                      (BC, CpA, -1, p), (BCp, A, -1, p), (BCp, CpA, -1, 2 * p)]]
    assert _entries(verify_no_N_leakage(ctx, kmax, 1)) == (len(window) ** 2, 6, expected)


def _lemma2_by_pairs(ctx, kmax, dmax):
    # every pair of the window bracketed and tested on its own
    checks, entries = 0, []
    for m1, m2 in itertools.product(verify._window_monomials(kmax, dmax), repeat=2):
        residual = project_N(commutator(Element.monomial(ctx, m1), Element.monomial(ctx, m2)))
        checks += 1
        if residual:
            entries.append({"left": m1.text(), "right": m2.text(), "residual": residual.text()})
    return checks, len(entries), entries


def _mixed_products_by_pairs(ctx, kmax, dmax):
    # every pair of window units with |d| >= p compared on its own
    units = [m for m in verify._window_monomials(kmax, dmax) if abs(m.d) >= ctx.p]
    checks, entries = 0, []
    for m1, m2 in itertools.product(units, repeat=2):
        lit = mixed_product_simplified(ctx, m1, m2)
        if lit is None:
            continue
        gen = multiply(Element.monomial(ctx, m1), Element.monomial(ctx, m2))
        checks += 1
        if lit != gen:
            entries.append({"left": m1.text(), "right": m2.text(),
                            "claimed": lit.text(), "general": gen.text()})
    return checks, len(entries), entries


@pytest.mark.parametrize("p", [2, 3, 4])
def test_residue_keys_decide_as_every_pair_does(monkeypatch, p):
    # kmax = 2p + 1 gives classes of 3 C exponents (r <= 1) and of 2; every entry is kept,
    # so each failing pair's rendering, C^s above its key's, is compared
    monkeypatch.setattr(verify, "MAX_RECORDED_VIOLATIONS", 10 ** 6)
    kmax = 2 * p + 1
    ctx = ScalarContext.torsion(p)
    assert _entries(verify_no_N_leakage(ctx, kmax, 2)) == _lemma2_by_pairs(ctx, kmax, 2) == (
        (kmax + 1) ** 2 * 25, 0, [])
    mixed = verify.verify_torsion_paths(ctx, kmax, p + 1)[1]
    assert mixed.claim == "simplified-mixed-products"
    want = _mixed_products_by_pairs(ctx, kmax, p + 1)
    assert _entries(mixed) == want and want[1] > 0

    # planted kernels: in N at every s, in N only at s > 0, in N nowhere, and an
    # offending term in a kernel of another grade than d1 + d2
    ctx = ScalarContext.torsion(p)
    one, q = ctx.one(), ctx.q()
    ctx._comm[1, 1, 1, 1] = ((Monomial(p, p), q), (Monomial(1, 0), one))
    ctx._comm[0, -2, 1, 0] = ((Monomial(0, -p), one), (Monomial(1, -2), q))
    ctx._comm[p - 1, 2, 0, 1] = ((Monomial(1, 0), one),)
    ctx._comm[1, 0, 0, 0] = ((Monomial(2 * p, 2 * p), one),)
    got, want = _entries(verify_no_N_leakage(ctx, kmax, 2)), _lemma2_by_pairs(ctx, kmax, 2)
    assert got == want and want[1] > 0


def test_every_report_times_its_own_block():
    t0 = time.perf_counter()
    reports = run_suites(ScalarContext.torsion(2), ["all"], kmax=3, dmax=3, depth=6,
                         reach_kmax=2, reach_dmax=2, defn2_literal=False, seed=0, pairs=5)
    wall = time.perf_counter() - t0
    assert len(reports) == 12
    for rep in reports:
        assert 0 <= rep.elapsed <= wall, rep.claim


def test_theorem1_refuses_a_window_over_the_witness_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "closure_rows", lambda *a: calls.append(a) or [])
    with pytest.raises(ValueError, match="MAX_WITNESS_DEGREE = 256"):
        verify_theorem1(ScalarContext.torsion(3), depth=1, kmax=257, dmax=0)
    with pytest.raises(ValueError, match="MAX_WITNESS_DEGREE"):
        verify_theorem1(ScalarContext.torsion(3), depth=1, kmax=200, dmax=57)
    assert len(calls) == 0


def test_grade0_facts_report_a_c_power_divisible_by_p_in_the_span(monkeypatch):
    # a span that holds everything holds C^2 at p = 2; C^3 = C^(p+1) is not missing
    class Everything:
        def contains(self, x):
            return True

    monkeypatch.setattr(verify, "_window_span", lambda *a, **k: Everything())
    grade0 = verify_theorem1(ScalarContext.torsion(2), depth=6, kmax=1, dmax=1)[2]
    assert grade0.claim == "grade0-window-facts"
    assert (grade0.pairs_checked, grade0.violations_total, grade0.violations) == (3, 1, [
        {"monomial": "C^2", "detail": "power of C divisible by p entered the span"}])


SUITE_FUNCTIONS = ("verify_no_N_leakage", "verify_lemma3", "verify_derived_algebra",
                   "verify_theorem1", "verify_torsion_paths", "verify_oracle", "closure_rows")


@pytest.mark.parametrize("ctx, window, message", [
    (ScalarContext.torsion(3), {"kmax": 60, "dmax": 60},
     "verify lemma2 at p = 3, kmax = 60, dmax = 60 would take 54479161 checks"),
    (ScalarContext.torsion(3), {"reach_kmax": 200, "reach_dmax": 57},
     "must be at most 256, got 257: the witness budget MAX_WITNESS_DEGREE = 256"),
    (ScalarContext.torsion(3), {"pairs": 10 ** 6}, "MAX_VERIFY_GRID = 500000"),
    (ScalarContext.generic(), {}, "run_suites needs a torsion context"),
    (ScalarContext.torsion(5), {"kmax": 3, "dmax": 3},
     "torsion-paths at p = 5, kmax = 3, dmax = 3 is vacuous: simplified-mixed-products has 0 checks"),
    (ScalarContext.torsion(3), {"depth": 1}, "theorem1 at p = 3, depth = 1, reach_kmax = 4, "
     "reach_dmax = 4 is vacuous: grade0-window-facts has 0 checks"),
    (ScalarContext.torsion(3), {"reach_kmax": 0, "reach_dmax": 0}, "theorem1 at p = 3, depth = 6, "
     "reach_kmax = 0, reach_dmax = 0 is vacuous: constructive-reachability has 0 checks"),
    # I and C: one Lie monomial, so derived-algebra-closure pairs none
    (ScalarContext.torsion(8), {"kmax": 1, "dmax": 0},
     "lemma4 at p = 8, kmax = 1, dmax = 0 is vacuous: derived-algebra-closure has 0 checks"),
    (ScalarContext.torsion(3), {"kmax": 0, "dmax": 0}, "lemma4 at p = 3, kmax = 0, dmax = 0"),
    # C^2 is Lie at p = 2 under the literal reading only
    (ScalarContext.torsion(2), {"kmax": 2, "dmax": 0}, "lemma4 at p = 2, kmax = 2, dmax = 0"),
])
def test_run_suites_refuses_before_any_suite_runs(monkeypatch, ctx, window, message):
    calls = []
    for name in SUITE_FUNCTIONS:
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name) or [])
    options = {"kmax": None, "dmax": None, "depth": 6, "reach_kmax": 4, "reach_dmax": 4,
               "defn2_literal": False, "seed": 0, "pairs": 5, **window}
    with pytest.raises(ValueError, match=message):
        run_suites(ctx, ["all"], **options)
    assert calls == []
    # a reachability window only theorem1 reads refuses nothing else
    if "reach_kmax" in window:
        del options["seed"]
        assert plan(ctx, ["lemma2"], **{**options, "kmax": 8, "dmax": 8}) == [
            ("commutators-avoid-forbidden-subspace", (9 * 17) ** 2)]


@pytest.mark.parametrize("names, unknown", [
    (["lemma5"], "'lemma5'"),
    (["lemma2", "Lemma3"], "'Lemma3'"),
    # a string is no list of names, not a substring match
    ("lemma2", "'l' in 'lemma2'"),
])
def test_run_suites_refuses_an_unknown_suite_before_any_suite_runs(monkeypatch, names, unknown):
    calls = []
    for name in SUITE_FUNCTIONS:
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name) or [])
    options = {"kmax": 2, "dmax": 2, "depth": 6, "reach_kmax": 4, "reach_dmax": 4,
               "defn2_literal": False, "pairs": 5}
    ctx = ScalarContext.torsion(3)
    with pytest.raises(ValueError, match=f"unknown verify suite {unknown}"):
        run_suites(ctx, names, seed=0, **options)
    with pytest.raises(ValueError, match=f"unknown verify suite {unknown}"):
        plan(ctx, names, **options)
    assert calls == []


def test_run_suites_refuses_an_empty_selection_before_any_suite_runs(monkeypatch):
    calls = []
    for name in SUITE_FUNCTIONS:
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name) or [])
    options = {"kmax": 2, "dmax": 2, "depth": 6, "reach_kmax": 4, "reach_dmax": 4,
               "defn2_literal": False, "pairs": 5}
    ctx = ScalarContext.torsion(3)
    for names in ([], ()):
        with pytest.raises(ValueError, match="no verify suite selected; the suites are lemma2, "):
            run_suites(ctx, names, seed=0, **options)
        with pytest.raises(ValueError, match="no verify suite selected"):
            plan(ctx, names, **options)
    assert calls == []


def test_torsion_paths_rows_are_capped_on_their_estimate(monkeypatch):
    # rows l <= max(3p, dmax), each entry i <= l/2 a polynomial of i(l - i) + 1 coefficients
    generic = ScalarContext.generic()
    size = sum(len(q_binomial(generic, l, i).num) for l in range(31) for i in range(l // 2 + 1))
    ctx = ScalarContext.torsion(3)
    monkeypatch.setattr(verify, "MAX_BINOMIAL_ROW_TERMS", size)
    verify._check_rows(ctx, 30)
    monkeypatch.setattr(verify, "MAX_BINOMIAL_ROW_TERMS", size - 1)
    with pytest.raises(ValueError, match=f"dmax = 30 would build binomial rows of {size} "):
        verify._check_rows(ctx, 30)
    monkeypatch.undo()
    verify._check_rows(ctx, 123)
    verify._check_rows(ScalarContext.torsion(41), 2 * 41 + 2)
    for p, dmax in [(3, 124), (42, 0)]:
        with pytest.raises(ValueError, match="MAX_BINOMIAL_ROW_TERMS = 5000000"):
            verify._check_rows(ScalarContext.torsion(p), dmax)
    # the suite and run_suites refuse before any row is built
    ctx = ScalarContext.torsion(61)
    with pytest.raises(ValueError, match="binomial rows of 23755734 coefficients"):
        verify.verify_torsion_paths(ctx, 0, 0)
    with pytest.raises(ValueError, match="binomial rows of 23755734 coefficients"):
        run_suites(ctx, ["torsion-paths"], kmax=0, dmax=0, depth=6, reach_kmax=4, reach_dmax=4,
                   defn2_literal=False, seed=0, pairs=5)
    assert ctx._qbin == {}


def _assert_planned(planned, reports):
    # every count is exact but closure-soundness's, a floor of 2 (A and B)
    assert [claim for claim, _ in planned] == [rep.claim for rep in reports]
    for (claim, checks), rep in zip(planned, reports):
        if claim == "closure-soundness":
            assert checks == 2 <= rep.pairs_checked
        else:
            assert rep.pairs_checked == checks, claim


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_plan_counts_every_reports_checks_at_the_default_windows(p, literal):
    ctx = ScalarContext.torsion(p)
    window = {"depth": 6, "reach_kmax": 4, "reach_dmax": 4, "defn2_literal": literal, "pairs": 50}
    reports = run_suites(ctx, ["all"], kmax=None, dmax=None, seed=0, **window)
    planned = plan(ctx, ["all"], kmax=2 * p + 2, dmax=2 * p + 2, **window)
    assert len(planned) == 12
    _assert_planned(planned, reports)
    assert plan(ctx, ["oracle", "lemma3"], kmax=0, dmax=0, **window) == [
        ("equal-grade-commutators-positive-C", (2 * p) ** 4), ("multiply-matches-word-oracle", 50)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.booleans(), st.integers(0, 4), st.integers(0, 5),
       st.integers(2, 8), st.integers(0, 3), st.integers(0, 3), st.integers(1, 5))
def test_the_plan_counts_every_reports_checks_on_small_windows(p, literal, kmax, dmax, depth,
                                                               reach_kmax, reach_dmax, pairs):
    assume(dmax >= p and reach_kmax + reach_dmax > 0)
    ctx = ScalarContext.torsion(p)
    window = {"kmax": kmax, "dmax": dmax, "depth": depth, "reach_kmax": reach_kmax,
              "reach_dmax": reach_dmax, "defn2_literal": literal, "pairs": pairs}
    # the window holds A and B, so no claim is vacuous
    _assert_planned(plan(ctx, ["all"], **window), run_suites(ctx, ["all"], seed=0, **window))


def test_a_suite_that_skips_a_check_is_caught(monkeypatch, capsys):
    real = verify.verify_lemma3

    def skipping(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.pairs_checked -= 1
        return rep

    monkeypatch.setattr(verify, "verify_lemma3", skipping)
    options = {"kmax": 1, "dmax": 2, "depth": 6, "reach_kmax": 4, "reach_dmax": 4,
               "defn2_literal": False, "seed": 0, "pairs": 5}
    with pytest.raises(RuntimeError, match="verify planned equal-grade-commutators-positive-C at "
                       "256 checks, but the suites reported equal-grade-commutators-positive-C "
                       "at 255"):
        run_suites(ScalarContext.torsion(2), ["lemma2", "lemma3"], **options)
    # a mismatch is a program fault, not bad input: the CLI does not map it to an exit code
    with pytest.raises(RuntimeError, match="equal-grade-commutators-positive-C"):
        main(["--p", "2", "verify", "lemma3"])
    assert capsys.readouterr().err == ""
    # so is a suite that drops a report
    theorem1 = verify.verify_theorem1
    monkeypatch.setattr(verify, "verify_theorem1", lambda *a, **k: theorem1(*a, **k)[:2])
    with pytest.raises(RuntimeError, match="planned grade0-window-facts at 3 checks, "
                       "but the suites reported None at 0"):
        run_suites(ScalarContext.torsion(2), ["theorem1"], **options)
