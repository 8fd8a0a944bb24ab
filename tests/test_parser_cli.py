import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qheis import heisenberg, qscalar, verify
from qheis.cli import MAX_TABLE_TERMS, _build_parser, _table_terms, main
from qheis.exprparse import MAX_NESTING, ParseError, parse_element, parse_expression
from qheis.heisenberg import Element, Monomial, bracket_support, commutator
from qheis.qscalar import ScalarContext
from qheis.verify import plan

from conftest import elaborate_reference, letters, mono


# ---------------------------------------------------------------------------
# grammar and elaboration
# ---------------------------------------------------------------------------

def test_defining_relation_collapses_to_identity(generic):
    assert parse_element("A*B - q*B*A", generic) == Element.identity(generic)


def test_bracket_power_product(generic):
    assert parse_element("[A,B]^2*A", generic) == mono(generic, 2, -1)


def test_nested_bracket(generic):
    # [[B,A],A] = AC - CA = (q-1) C A
    got = parse_element("[[B,A],A]", generic)
    assert got == mono(generic, 1, -1, generic.q() - generic.one())


def test_c_is_surface_syntax_for_bracket(generic):
    assert parse_element("C", generic) == parse_element("[A,B]", generic)


def test_identity_and_scalars(generic, p3):
    assert parse_element("I", generic) == Element.identity(generic)
    got = parse_element("B^2*A", generic)
    qm1inv = (generic.q() - generic.one()).inverse()
    assert got == (mono(generic, 1, 1) - mono(generic, 0, 1)).scale(qm1inv)
    assert parse_element("q^3*A", p3) == mono(p3, 0, -1)
    assert parse_element("-3/2*I + 1/2*I", p3) == Element.identity(p3).scale(
        p3.from_int(-1))


def test_exponent_binds_tightest(generic):
    assert parse_element("q*C^2", generic) == mono(generic, 2, 0, generic.q())


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("A*B +\n* C")
    assert err.value.line == 2 and err.value.col == 1
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_expression("A^99999")
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("2A")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_expression("1/0*A")
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_expression("A*x")
    with pytest.raises(ParseError):
        parse_expression("[A B]")
    for text, message, line, col in [
        ("A\t*\u00e9", "unknown symbol '\u00e9'", 1, 4),
        ("A1*B", "unknown symbol 'A1'", 1, 1),
        ("A+\r\n", "expected an atom, found None", 2, 1),
        ("[A,\nB\n", "expected ']'", 3, 1),
        ("A +\n  " + "1" * 4301, "integer literal of 4301 digits", 2, 3),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_expression(text)
        assert (err.value.line, err.value.col) == (line, col), text
    # an information separator is whitespace to str.isspace
    assert parse_expression("A\x1c*B") == parse_expression("A*B")


@pytest.mark.parametrize("text, col", [("A^\u00b2", 3), ("A^3\u0663", 4), ("A*\u2167", 3),
                                       ("A*_B", 3), ("A*\uff11", 3)])
def test_digits_are_ascii_only(capsys, text, col):
    # a superscript two is not an exponent, and an Arabic-Indic three does
    # not extend the ASCII 3 to 33; a Roman numeral, a fullwidth one and an
    # underscore start no name
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_expression(text)
    assert (err.value.line, err.value.col) == (1, col)
    code, out, err = run_cli(capsys, "normalize", "--", text)
    assert code == 2 and out == ""
    assert err == f"error: unexpected character {text[col - 1]!r} (line 1, column {col})\n"


# (text, degree) for atoms; degree counts A and B once and C twice
_ATOMS = st.sampled_from([("A", 1), ("B", 1), ("C", 2), ("I", 0), ("q", 0),
                          ("0", 0), ("1", 0), ("2", 0), ("3/2", 0), ("1/3", 0)])
MAX_DEGREE = 12     # keeps generic products of nested powers small


def _grammar_exprs(expr):
    group = st.one_of(
        expr.map(lambda e: (f"({e[0]})", e[1])),
        st.tuples(expr, expr).map(lambda lr: (f"[{lr[0][0]}, {lr[1][0]}]", lr[0][1] + lr[1][1])),
    )
    factor = st.tuples(st.one_of(_ATOMS, group), st.none() | st.integers(0, 6)).map(
        lambda bn: bn[0] if bn[1] is None else (f"{bn[0][0]}^{bn[1]}", bn[0][1] * bn[1]))
    term = st.tuples(st.booleans(), st.lists(factor, min_size=1, max_size=4)).map(
        lambda t: (("-" if t[0] else "") + "*".join(f[0] for f in t[1]), sum(f[1] for f in t[1])))
    terms = st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=3)
    return terms.map(lambda ts: (
        ts[0][1][0] + "".join(f" {sign} {t[0]}" for sign, t in ts[1:]),
        max(t[1] for _, t in ts),
    ))


GRAMMAR = st.recursive(_ATOMS, _grammar_exprs, max_leaves=10).filter(lambda e: e[1] <= MAX_DEGREE)


@settings(max_examples=100, deadline=None)
@given(GRAMMAR)
def test_elaboration_matches_full_products(expr):
    text, _ = expr
    node = parse_expression(text)
    for ctx in [ScalarContext.generic()] + [ScalarContext.torsion(p) for p in range(2, 8)]:
        assert parse_element(text, ctx) == elaborate_reference(node, ctx), (text, ctx)


@pytest.mark.parametrize("p", [None, 3, 7])
@pytest.mark.parametrize("text", ["(3*C*A)^4", "(-2/3*B^2)^7", "(1/2+1/3)^5*B", "-(2*I)^3"])
def test_powers_of_rational_monomials_match_full_products(p, text):
    # the base's rational folds into the scalar and its monomial is powered alone
    ctx = ScalarContext.generic() if p is None else ScalarContext.torsion(p)
    assert parse_element(text, ctx) == elaborate_reference(parse_expression(text), ctx)


def test_scalar_factors_fold_and_letter_powers_are_monomials(monkeypatch, generic, p5):
    # a letter power is one basis monomial, and scalar factors fold into one
    # scalar; only the non-scalar factors are multiplied as elements
    calls = []
    real = heisenberg.multiply
    monkeypatch.setattr(heisenberg, "multiply", lambda x, y: calls.append(1) or real(x, y))
    for ctx in (generic, p5):
        assert parse_element("A^4096", ctx) == mono(ctx, 0, -4096)
        assert parse_element("2*q^4096*q^3", ctx) == mono(
            ctx, 0, 0, ctx.from_int(2) * ctx.q_power(4099))
        assert calls == []
        assert parse_element("2*q^4096*C^3*A^2", ctx) == mono(
            ctx, 3, -2, ctx.from_int(2) * ctx.q_power(4096))
        assert len(calls) == 1
        parse_element("A^2*B^3", ctx)
        assert len(calls) == 2
        calls.clear()


@pytest.mark.parametrize("text, m, n", [
    ("((1+q)*B)^4096", Monomial(0, 1), 4096),
    ("((1+q)*C)^512", Monomial(1, 0), 512),
])
def test_a_one_term_power_takes_its_coefficient_by_squaring(monkeypatch, p5, text, m, n):
    # (c*m)^n = c^n * m^n for any central c: c^n takes O(log n) scalar
    # products, where n element products would take n - 1
    calls = []
    real = qscalar._cyclo_mul
    monkeypatch.setattr(qscalar, "_cyclo_mul", lambda *args: calls.append(1) or real(*args))
    got = parse_element(text, p5)
    assert 0 < len(calls) <= 2 * n.bit_length()
    assert got == Element.monomial(p5, m, p5.one() + p5.q()) ** n


def test_print_parse_round_trip_torsion(p2, p3):
    corpus = [
        "A*B - q*B*A",
        "[A,B]^2*A - 1/2*B^3",
        "B^2*A + q*C",
        "[C, B*C] + I",
        "[[B,A],A]*B - 7/3*C^2",
    ]
    for ctx in (p2, p3):
        for text in corpus:
            norm = parse_element(text, ctx)
            assert parse_element(norm.text(), ctx) == norm, (ctx, text, norm.text())


def test_print_parse_round_trip_generic_polynomial_coeffs(generic):
    for text in ["A*B - q*B*A", "q^2*C + 3*I", "[A,B]*A - B"]:
        norm = parse_element(text, generic)
        if all("/" not in str(c) for c in (norm.text(),)):
            assert parse_element(norm.text(), generic) == norm


# ---------------------------------------------------------------------------
# command-line front-end
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qheis", "--p", "3", "normalize", "A*B - q*B*A"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(1)*I\n", "")


def test_a_closed_output_pipe_leaves_no_traceback():
    # 414,743 bytes of text, past a pipe's 64 KiB buffer, so the writer is
    # still printing when the reader closes after the first line
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "qheis", "--p", "3", "tables", "--kmax", "6",
                             "--lmax", "6"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    assert proc.stdout.readline() == "A^6 . A^6 = (1)*A^12\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, "")


def test_cli_normalize(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "normalize", "A*B - q*B*A")
    assert code == 0 and out.strip() == "(1)*I"


def test_cli_normalize_json(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "--format", "json", "normalize", "B*A")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "torsion" and obj["p"] == 2
    assert Element.from_json_obj(obj) == parse_element("B*A", ScalarContext.torsion(2))


# sha256 of the printed `--format json normalize` output for letter exponents
# well past the binomial tests' rows
NORMALIZE_DIGESTS = {
    ("generic", "A^40*B^40"): "25438f0b4c4b53b62580ab801c5a6ed168dcf74e4401cbba4eba7c1c51bb1fad",
    ("generic", "B^40*A^40"): "a9ed3e7c2e3fcdcbabbff79f1ae09fe2da433b5982660ad6b240f1dea21f10ad",
    ("generic", "(2*C^2*A^3 + q*B^2*C)*(B^5*C - A^4 + 1/2*C^2*A)"):
        "a5366fb91be69304b2ced4da5620db78d7c4a9d9e326692b757061d3aa34cc3f",
    ("7", "C*A^30*B^20*C^2"): "5dcc4cd3d4152e3af3eb05231d70d919956bcd37452ff3cc69e33e4f02854cac",
}


@pytest.mark.parametrize("p, expr", sorted(NORMALIZE_DIGESTS))
def test_cli_normalize_json_is_pinned(capsys, p, expr):
    code, out, _ = run_cli(capsys, "--p", p, "--format", "json", "normalize", expr)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NORMALIZE_DIGESTS[p, expr]


def test_cli_comm(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "comm", "C*A", "B*C")
    assert code == 0 and out.strip() == "(1)*C^3"


def test_cli_member_yes_and_no(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "member", "B*C")
    assert code == 0
    assert "lie polynomial: yes" in out and "witness:" in out
    code, out, _ = run_cli(capsys, "--p", "3", "member", "C^3")
    assert code == 1
    assert "lie polynomial: no" in out


def test_cli_construct(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "construct", "C^3")
    assert code == 0 and out.startswith("C^3 = [")
    code, _, err = run_cli(capsys, "--p", "2", "construct", "C^2")
    assert code == 1 and "not constructible" in err


def test_cli_construct_requires_single_monomial(capsys):
    code, _, err = run_cli(capsys, "--p", "2", "construct", "A + B")
    assert code == 2


def test_cli_closure(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "closure", "--depth", "3",
                           "--kmax", "2", "--dmax", "2")
    assert code == 0 and out.splitlines()[0].startswith("dimension 5")


def test_cli_empty_closure_prints_its_header_alone(capsys):
    code, out, _ = run_cli(capsys, "--p", "5", "closure", "--depth", "1",
                           "--kmax", "0", "--dmax", "0")
    assert (code, out) == (0, "dimension 0 (depth 1, k <= 0, |d| <= 0)\n")
    code, out, _ = run_cli(capsys, "--p", "2", "closure", "--depth", "1",
                           "--kmax", "1", "--dmax", "1")
    assert (code, out) == (0, "dimension 2 (depth 1, k <= 1, |d| <= 1)\n(1)*A\n(1)*B\n")


def test_cli_verify_green_suite(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "verify", "lemma3")
    assert code == 0 and "ok" in out


def test_cli_verify_finds_documented_violations(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "verify", "torsion-paths",
                           "--kmax", "3", "--dmax", "3")
    assert code == 1
    assert "simplified-power-product: FAILED" in out
    assert "fastpath-equivalence: ok" in out


def test_cli_verify_vacuous_claim_is_usage_error(capsys, monkeypatch):
    # a letter-exponent window below p never reaches exponent p, so
    # simplified-mixed-products would have nothing to check; that is not "ok",
    # and the window alone says so before any suite runs
    calls = []
    for name in ("verify_no_N_leakage", "verify_lemma3", "verify_derived_algebra",
                 "verify_theorem1", "verify_torsion_paths", "verify_oracle"):
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name) or [])
    for p, kmax, dmax in [(5, 3, 3), (41, 0, 0)]:
        code, out, err = run_cli(capsys, "--p", str(p), "verify", "torsion-paths",
                                 "--kmax", str(kmax), "--dmax", str(dmax))
        assert (code, out, calls) == (2, "", [])
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert (f"p = {p}, kmax = {kmax}, dmax = {dmax} is vacuous: simplified-mixed-products "
                "has 0 checks") in lines[0]


def test_cli_vacuous_theorem1_window_is_refused_before_any_suite(capsys, monkeypatch):
    # depth 1 gives grade0-window-facts no C power to read, and a reach window
    # of kmax = dmax = 0 holds the identity alone; either window refuses `all`
    # before the first suite runs
    calls = []
    for name in ("verify_no_N_leakage", "verify_lemma3", "verify_derived_algebra",
                 "verify_theorem1", "verify_torsion_paths", "verify_oracle"):
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name) or [])
    for window, message in [
            (("--depth", "1"), "theorem1 at p = 7, depth = 1, reach_kmax = 4, reach_dmax = 4 "
             "is vacuous: grade0-window-facts has 0 checks"),
            (("--reach-kmax", "0", "--reach-dmax", "0"), "theorem1 at p = 7, depth = 6, "
             "reach_kmax = 0, reach_dmax = 0 is vacuous: constructive-reachability has 0 checks")]:
        code, out, err = run_cli(capsys, "--p", "7", "verify", "all", *window)
        assert (code, out, calls) == (2, "", [])
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    monkeypatch.undo()
    # the smallest windows that are not vacuous still run: C^1, then B or C
    for window, checks in ((("--depth", "2"), (3, 38, 1)),
                           (("--reach-kmax", "0", "--reach-dmax", "1"), (17, 2, 3)),
                           (("--reach-kmax", "1", "--reach-dmax", "0"), (17, 1, 3))):
        code, out, err = run_cli(capsys, "--p", "7", "--format", "json", "verify", "theorem1",
                                 *window)
        assert (code, err) == (0, "")
        assert [r["pairs_checked"] for r in json.loads(out)["reports"]] == list(checks)


def test_cli_vacuous_lemma4_window_is_refused_before_any_suite(capsys, monkeypatch):
    # a window whose only Lie monomial is C gives derived-algebra-closure no
    # pair; it refuses the whole run before the first suite, whatever else
    # the run would cost
    calls = []
    for name in ("verify_no_N_leakage", "verify_lemma3", "verify_derived_algebra",
                 "verify_theorem1", "verify_torsion_paths", "verify_oracle", "closure_rows"):
        monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name) or [])
    code, out, err = run_cli(capsys, "--p", "8", "verify", "lemma3", "lemma4", "theorem1",
                             "oracle", "--kmax", "1", "--dmax", "0", "--depth", "300",
                             "--pairs", "2200")
    assert (code, out, calls) == (2, "", [])
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0] == (
        "error: verify lemma4 at p = 8, kmax = 1, dmax = 0 is vacuous: derived-algebra-closure "
        "has 0 checks")
    monkeypatch.undo()
    # the smallest windows with a check still run: A and B, C and C^2, and at
    # p = 2 C and C^2 under the literal reading, where C^2 is Lie
    for argv in (("--p", "5", "verify", "lemma4", "--kmax", "0", "--dmax", "1"),
                 ("--p", "3", "verify", "lemma4", "--kmax", "2", "--dmax", "0"),
                 ("--p", "2", "--defn2-literal", "verify", "lemma4", "--kmax", "2", "--dmax", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("derived-algebra-closure: ok [1 checks, "), argv


def test_cli_verify_json_payload_is_stable(capsys, tmp_path):
    def payload():
        code, out, _ = run_cli(capsys, "--p", "2", "--format", "json",
                               "verify", "lemma3")
        assert code == 0
        obj = json.loads(out)
        for rep in obj["reports"]:
            rep.pop("elapsed")
        return json.dumps(obj, sort_keys=True)

    assert payload() == payload()


def test_cli_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "--p", "2", "--out", str(target),
                         "verify", "lemma3")
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["reports"][0]["claim"] == "equal-grade-commutators-positive-C"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_cli_unwritable_out_is_usage_error(capsys, tmp_path, where):
    target = tmp_path / "absent" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "--p", "3", "--out", str(target), "normalize", "A")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--p", "2", "normalize", "A*")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [["member", "A"], ["construct", "A"], ["closure"],
                                  ["verify", "all"]], ids=lambda argv: argv[0])
def test_cli_torsion_required(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--p" in lines[0]
    assert "Traceback" not in err


def test_cli_bad_p(capsys):
    code, _, _ = run_cli(capsys, "--p", "1", "normalize", "A")
    assert code == 2


# sha256 of the printed `--format json tables --kmax 2 --lmax 2` output
TABLES_DIGESTS = {
    "generic": "f07c7fc120f3be0eaf2b645aa3720451c6d1bcfc0fa1c9c68763f66763378d58",
    "3": "cb0562bbdf42cedcb84a139b3097e3b14f855bec80773405363f4cfa32f75dca",
}


@pytest.mark.parametrize("p", sorted(TABLES_DIGESTS))
def test_cli_tables_json_is_pinned(capsys, p):
    code, out, _ = run_cli(capsys, "--p", p, "--format", "json", "tables", "--kmax", "2", "--lmax", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_DIGESTS[p]


@pytest.mark.parametrize("p", ["generic", "3"])
def test_tables_estimate_bounds_the_printed_terms(capsys, p):
    for kmax, lmax in [(0, 0), (1, 2), (2, 3)]:
        code, out, _ = run_cli(capsys, "--p", p, "--format", "json", "tables",
                               "--kmax", str(kmax), "--lmax", str(lmax))
        assert code == 0
        terms = sum(len(row["product"]) for row in json.loads(out)["rows"])
        # exact in generic mode; binomials that vanish at a root drop terms
        assert terms == _table_terms(kmax, lmax) if p == "generic" else terms <= _table_terms(kmax, lmax)
    # 10/10 (146,531 terms) runs, 11/11 is refused
    assert _table_terms(10, 10) <= MAX_TABLE_TERMS < _table_terms(11, 11)


def test_cli_tables(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "tables", "--kmax", "1", "--lmax", "1")
    assert code == 0
    assert "A . B = " in out
    code, out, _ = run_cli(capsys, "--p", "3", "--format", "json", "tables",
                           "--kmax", "1", "--lmax", "1")
    obj = json.loads(out)
    assert any(r["left"] == "A" and r["right"] == "B" for r in obj["rows"])


def test_cli_defn2_literal_flag(capsys):
    # under the literal reading, C^3 at p = 2 is rejected as a witness target
    code, _, err = run_cli(capsys, "--p", "2", "--defn2-literal", "construct", "C^3")
    assert code == 1 and "literal spanning set" in err


def test_cli_defn2_literal_closure_documents_discrepancy(capsys):
    # the closure suites disagree with the literal spanning set and say so
    code, out, _ = run_cli(capsys, "--p", "2", "--defn2-literal",
                           "verify", "theorem1")
    assert code == 1
    assert "closure-soundness: FAILED" in out
    assert "constructive-reachability: FAILED" in out
    code, out, _ = run_cli(capsys, "--p", "2", "verify", "theorem1")
    assert code == 0


def test_cli_verify_oracle_seed(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "verify", "oracle",
                           "--pairs", "5", "--seed", "9")
    assert code == 0 and "multiply-matches-word-oracle: ok" in out


@pytest.mark.parametrize("argv", [
    ("closure", "--depth", "0"),
    ("closure", "--kmax", "-1"),
    ("closure", "--dmax", "-2"),
    ("verify", "lemma2", "--kmax", "-1"),
    ("verify", "lemma2", "--dmax", "-1"),
    ("verify", "theorem1", "--depth", "0"),
    ("verify", "theorem1", "--reach-kmax", "-1"),
    ("verify", "oracle", "--pairs", "0"),
    ("tables", "--lmax", "-1"),
    # integer options take ASCII digits only, as the expression grammar does
    ("--p", "\uff13", "normalize", "A"),
    ("--p", "1_1", "normalize", "A"),
    ("closure", "--depth", "\u0663"),
    ("closure", "--kmax", "1_0"),
    ("verify", "oracle", "--seed", "\u00b2"),
])
def test_cli_rejects_empty_or_invalid_bounds(capsys, argv):
    code, out, err = run_cli(capsys, "--p", "3", *argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["normalize", "1" * 4400], "integer literal of 4400 digits"),
    (["--p", "3", "normalize", "99999^1000*A"], "too long to print"),
    (["--format", "json", "normalize", "99999^1000*A"], "too long to print"),
    # each literal power is under the digit limit, their product is not
    (["--format", "json", "normalize", "99999^800*99999^800*A"], "too long to print"),
])
def test_cli_rejects_numbers_past_the_digit_limit(tmp_path, argv, message):
    out = tmp_path / "out.json"
    code, stdout, err = _call(["--out", str(out), *argv])
    assert (code, stdout) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--p", "3", "construct", "C^1200*A"], "k + |d| = 1201"),
    (["--p", "3", "construct", "C^5*A^1200"], "k + |d| = 1205"),
    (["--p", "3", "member", "C^1200*A"], "k + |d| = 1201"),
    (["--p", "3", "construct", "C*A^256"], "MAX_WITNESS_DEGREE = 256"),
    (["--p", "3", "verify", "theorem1", "--reach-kmax", "200", "--reach-dmax", "57"],
     "must be at most 256, got 257"),
    (["--p", "129", "normalize", "A*B"], "--p must be at most 128, got 129"),
    (["--p", "3001", "normalize", "A*B"], "--p must be at most 128"),
    # a literal power past the digit limit is refused before it is taken
    (["--format", "json", "normalize", "--", "9" * 4300 + "^4096"], "too long to print"),
    (["normalize", "--", "9" * 4300 + "/7^4096"], "too long to print"),
    # so is one inside parentheses, signed, or a power of one; exponents multiply
    (["--format", "json", "normalize", "--", "(" + "9" * 4300 + ")^256"], "too long to print"),
    (["--p", "3", "--format", "json", "normalize", "--", "(" + "9" * 4300 + ")^256"],
     "too long to print"),
    (["normalize", "--", "((-" + "9" * 4300 + "/7))^256*A"], "too long to print"),
    (["--p", "3", "normalize", "--", "(" + "9" * 4300 + "^2)^200"], "too long to print"),
    # a verify grid is estimated before any work
    (["--p", "5", "verify", "lemma2", "--kmax", "60", "--dmax", "60"], "would take 54479161 checks"),
    (["--p", "3", "verify", "lemma4", "--kmax", "10", "--dmax", "50"], "verify lemma4 at p = 3"),
    (["--p", "3", "verify", "torsion-paths", "--kmax", "0", "--dmax", "400"],
     "verify torsion-paths at p = 3, kmax = 0, dmax = 400"),
    (["--p", "14", "verify", "lemma3"], "MAX_VERIFY_GRID = 500000"),
    (["--p", "9", "verify", "all"], "verify lemma2 at p = 9, kmax = 20, dmax = 20"),
    # lemma3 counts the bracket terms it reads, the oracle the product terms it forms
    (["--p", "13", "verify", "lemma3"], "would take 4648852 bracket terms"),
    (["--p", "7", "verify", "oracle", "--pairs", "1000000"],
     "verify oracle at p = 7, pairs = 1000000 would take 224000000 product terms"),
    # a generic sum of powers of q too far apart is refused before its dense numerator is built
    (["--format", "json", "normalize", "--", "(q^4096)^4096 + 1"], "MAX_SERIALIZED_DEGREE = 1048576"),
    (["comm", "--", "A + B", "B + (q^2048)^1024*A"], "numerator of degree 2097152"),
    # so is a generic product whose numerator would be past the same cap
    (["--format", "json", "normalize", "--", "(1 + (q^1024)^1000)^2"],
     "product has a numerator of degree 2048000"),
    # tables estimates the product terms it prints before any product
    (["--p", "3", "tables", "--kmax", "30", "--lmax", "30"],
     "would print 21748391 product terms, above the budget MAX_TABLE_TERMS = 150000"),
    # a power of a base that elaborates to a rational times a monomial is refused by value
    (["normalize", "--", "(" + "9" * 4300 + "+1)^4096"], "too long to print"),
    (["--format", "json", "normalize", "--", "(" + "9" * 4300 + "*A)^256"], "too long to print"),
    # a generic structure scalar's Gaussian row is estimated before any entry is built
    (["normalize", "A^320*B^320"], "letter exponent 320 need a Gaussian row of 5461601"),
    # torsion-paths estimates the binomial rows it builds over Z[q]
    (["--p", "61", "verify", "torsion-paths", "--kmax", "0", "--dmax", "0"],
     "binomial rows of 23755734 coefficients, above the budget MAX_BINOMIAL_ROW_TERMS"),
    (["--p", "3", "verify", "torsion-paths", "--kmax", "0", "--dmax", "200"],
     "verify torsion-paths at p = 3, dmax = 200 would build binomial rows of 33845201"),
    # so is a power of one term whose coefficient is not rational, on its integer parts
    (["normalize", "--", "(" + "9" * 4300 + "*q*A)^256"], "coefficient power too long to print"),
    (["--p", "3", "normalize", "--", "(" + "9" * 4300 + "*q)^256"],
     "coefficient power too long to print"),
    (["normalize", "--", "((" + "9" * 4300 + "+q)*A)^256"], "coefficient power too long to print"),
    # and on its torsion denominator, through the norm
    (["--p", "5", "normalize", "--", "(1/" + "9" * 4300 + "*q*B)^256"],
     "coefficient power too long to print"),
    (["--p", "5", "normalize", "--", "(1/" + "9" * 4300 + "*q)^256"],
     "coefficient power too long to print"),
])
def test_cli_rejects_inputs_over_a_work_budget(argv, message):
    t0 = time.perf_counter()
    code, stdout, err = _call(argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, stdout) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--p", "3", "construct", "C*A^255"],
    ["--p", "128", "normalize", "A*B"],
    ["normalize", "9^4096*A"],      # a coefficient of 3,909 digits
    ["normalize", "--", "((-9)^64)^64*A"],
    ["--p", "3", "normalize", "--", "(9^64)^65*A"],   # 3,970 digits
    ["normalize", "--", "(1/2+1/3)^4096*A"],    # 5/6 to the 4096th, 3,188 digits
    ["normalize", "--", "0*99^4096*A"],         # the zero factor is met first
    ["normalize", "A^160*B^160"],
    ["normalize", "--", "(9^64*q*A)^60"],         # (9^64*q)^60: 3,435 digits
    ["--p", "3", "normalize", "--", "(9^64*q*B)^60"],
    # ((1 - q)/3)^40 = q^20/3^20: its denominator meets the norm bound D^2 >= 3^40 exactly
    ["--p", "3", "normalize", "--", "((1/3 - 1/3*q)*B)^40"],
])
def test_cli_accepts_inputs_at_a_work_budget(argv):
    code, stdout, err = _call(argv)
    assert code == 0 and stdout and err == ""


def test_verify_grid_estimates_count_the_suites_checks(monkeypatch):
    p, kmax, dmax, pairs = 3, 1, 3, 50
    w = (kmax + 1) * (2 * dmax + 1)
    code, stdout, _ = _call(["--p", str(p), "--format", "json", "verify", "lemma2", "lemma3",
                             "lemma4", "torsion-paths", "--kmax", str(kmax), "--dmax", str(dmax)])
    assert code == 1
    checks = [(r["claim"], r["pairs_checked"]) for r in json.loads(stdout)["reports"]]
    ctx = ScalarContext.torsion(p)
    window = {"kmax": kmax, "dmax": dmax, "depth": 6, "reach_kmax": 4, "reach_dmax": 4,
              "defn2_literal": False, "pairs": pairs}
    assert plan(ctx, ["lemma2", "lemma3", "lemma4", "torsion-paths"], **window) == checks
    assert checks[0] == ("commutators-avoid-forbidden-subspace", w * w)
    assert checks[1] == ("equal-grade-commutators-positive-C", (2 * p) ** 4)
    assert checks[5] == ("fastpath-equivalence", w * w)

    # a budget of 0 refuses every suite and names its work estimate
    monkeypatch.setattr(verify, "MAX_VERIFY_GRID", 0)

    def estimate(suite):
        with pytest.raises(ValueError, match="MAX_VERIFY_GRID = 0") as refused:
            plan(ctx, [suite], **window)
        return int(re.search(r"would take (\d+) ", str(refused.value)).group(1))

    assert estimate("lemma2") == estimate("torsion-paths") == w * w
    # lemma4 pairs only the claimed basis monomials of the window
    assert checks[2][1] <= estimate("lemma4") == w * (w - 1) // 2
    # lemma3 counts the terms of the brackets it reads, not its (2p)^4 checks
    n = 2 * p
    terms = sum(len(bracket_support(ctx, Monomial(m, -a), Monomial(r, b)))
                for m, a, r, b in itertools.product(range(1, n + 1), repeat=4))
    assert n ** 4 < terms <= estimate("lemma3")
    # the oracle forms at most 4 x 4 term-pair products per random pair on each of its
    # two routes, each of at most 6 + 1 terms
    assert estimate("oracle") == 2 * pairs * 4 * 4 * 7
    # theorem1's budget is its reachability window alone
    assert len(plan(ctx, ["theorem1"], **window)) == 3
    monkeypatch.undo()

    def passes(p, suites):
        try:
            plan(ScalarContext.torsion(p), suites, **{**window, "kmax": 2 * p + 2,
                                                       "dmax": 2 * p + 2})
        except ValueError as exc:
            assert "MAX_VERIFY_GRID" in str(exc)
            return False
        return True

    # the default window kmax = dmax = 2p + 2 passes up to p = 8, and so does lemma3 alone
    assert passes(8, ["all"]) and not passes(9, ["all"])
    assert passes(8, ["lemma3"]) and not passes(9, ["lemma3"])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["lemma2", "lemma4", "torsion-paths", "all"]), st.integers(2, 13),
       st.sampled_from([[], ["--format", "json"]]), st.integers(0, 300), st.integers(0, 300))
def test_cli_fuzz_over_budget_verify_exits_cleanly(suite, p, fmt, kmax, dmax):
    # W >= 1001 window monomials put every window suite over the budget
    assume((kmax + 1) * (2 * dmax + 1) >= 1001)
    t0 = time.perf_counter()
    code, stdout, err = _call(["--p", str(p), *fmt, "verify", suite,
                               "--kmax", str(kmax), "--dmax", str(dmax)])
    assert time.perf_counter() - t0 < 1.0
    assert (code, stdout) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "MAX_VERIFY_GRID" in lines[0]


NESTED = {
    "parentheses": lambda n: "(" * n + "A" + ")" * n,
    "brackets": lambda n: "[A," * n + "B" + "]" * n,
}


@pytest.mark.parametrize("p", ["generic", "3"])
@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_is_capped(p, kind):
    ctx = ScalarContext.generic() if p == "generic" else ScalarContext.torsion(int(p))
    a, b, _, _ = letters(ctx)
    want = a
    if kind == "brackets":
        want = b
        for _ in range(MAX_NESTING):
            want = commutator(a, want)
    text = NESTED[kind](MAX_NESTING)
    assert parse_element(text, ctx) == want
    code, stdout, err = _call(["--p", p, "normalize", "--", text])
    assert (code, err) == (0, "") and stdout
    for depth in (MAX_NESTING + 1, 400):
        code, stdout, err = _call(["--p", p, "normalize", "--", NESTED[kind](depth)])
        assert (code, stdout) == (2, "")
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"nested deeper than {MAX_NESTING}" in lines[0]


def test_cli_member_without_a_witness_is_a_mathematical_no(capsys):
    # the literal reading counts C^2 as a member at p = 2, but nothing reaches it
    code, out, err = run_cli(capsys, "--p", "2", "--defn2-literal", "member", "C^2")
    assert (code, out) == (1, "")
    assert err.startswith("not constructible: ") and "Traceback" not in err


def test_literals_up_to_the_digit_limit_parse(generic):
    big = "9" * 4300
    assert parse_element(big + "*A", generic) == mono(generic, 0, -1, generic.from_int(int(big)))


def _call(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_is_reentrant(tmp_path):
    """Calls sharing the cached parser match calls with a freshly built one."""
    out_text, out_json = tmp_path / "text.json", tmp_path / "json.json"
    sequence = [
        ["--p", "3", "--format", "json", "--defn2-literal", "normalize", "--", "-B^2*A + q*C"],
        ["normalize", "--", "B^2*A"],
        ["--p", "5", "comm", "--", "C*A^2", "B^3"],
        ["--format", "json", "comm", "--", "A^2", "B"],
        ["--p", "2", "verify", "oracle", "--pairs", "3", "--seed", "7"],
        ["--p", "3", "verify", "lemma2", "--kmax", "1", "--dmax", "2"],
        ["--p", "3", "verify", "lemma3"],
        ["--format", "yaml", "normalize", "A"],
        ["--p", "3", "normalize", "--", "A*"],
        ["--p", "1", "normalize", "A"],
        ["--p", "3", "--out", str(out_text), "normalize", "--", "A*B"],
        ["--p", "3", "--out", str(out_json), "--format", "json", "comm", "--", "A", "B^2"],
        ["--p", "3", "member", "C^3"],
        ["normalize", "A"],
    ]
    elapsed = re.compile(r"\d+\.\d+s\]")
    shared = []
    for argv in sequence:
        code, out, err = _call(argv)
        files = [p.read_text() if p.exists() else None for p in (out_text, out_json)]
        shared.append((code, elapsed.sub("s]", out), err, files))
    for path in (out_text, out_json):
        path.unlink()
    for argv, want in zip(sequence, shared):
        _build_parser.cache_clear()
        code, out, err = _call(argv)
        files = [p.read_text() if p.exists() else None for p in (out_text, out_json)]
        assert (code, elapsed.sub("s]", out), err, files) == want, argv
    codes = [r[0] for r in shared]
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 1, 0]
    assert shared[-1][1] == "(1)*A\n"     # no --p, --format or --out left over
    assert json.loads(out_json.read_text())["mode"] == "torsion"
    assert json.loads(out_text.read_text()) == json.loads(
        _call(["--p", "3", "--format", "json", "normalize", "--", "A*B"])[1])


# the grammar's alphabet plus other whitespace, '_', non-ASCII digits and
# letters, and grammar text
_FUZZ_TEXT = st.one_of(
    st.text(alphabet="ABCIq0123+-*^[](),/ \n\t\r_\x1c\u00b2\u0663\u2167\u00e9\u00dfx\uff11",
            max_size=12).filter(
        lambda s: not re.search("[0-9]{2}", s)),    # exponents stay at most 3
    GRAMMAR.map(lambda e: e[0]),
)


@pytest.mark.parametrize("argv", [
    ["comm", "--", "A", "--"],
    ["comm", "A", "--", "--"],
    ["--p", "3", "--format", "json", "comm", "--", "--", "--"],
    ["normalize", "--", "--"],
    ["--p", "5", "construct", "--", "--"],
])
def test_cli_a_lone_double_dash_is_a_usage_error(argv):
    # argparse before Python 3.12 hands `comm -- A --`'s second expression
    # over as []; from 3.12 it is the text '--', a parse error
    code, stdout, err = _call(argv)
    assert (code, stdout) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=200, deadline=None)
@example("comm", [], [], "A", "--")
@example("comm", ["--p", "3"], ["--format", "json"], "--", "--")
@example("normalize", ["--p", "2"], [], "--", "A")
@given(st.sampled_from(["normalize", "comm", "member", "construct"]),
       st.sampled_from([[], ["--p", "2"], ["--p", "3"], ["--p", "5"]]),
       st.sampled_from([[], ["--format", "json"]]),
       _FUZZ_TEXT, _FUZZ_TEXT)
def test_cli_fuzz_exits_cleanly(command, p, fmt, left, right):
    args = [left, right] if command == "comm" else [left]
    code, _, err = _call([*p, *fmt, command, "--", *args])
    assert code in ((0, 1, 2) if command in ("member", "construct") else (0, 2)), (command, args, code)
    assert "Traceback" not in err
