import json

import pytest

from qheis.cli import main
from qheis.exprparse import ParseError, parse_element, parse_expression
from qheis.heisenberg import Element, Monomial
from qheis.qscalar import ScalarContext

from conftest import mono


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


def test_cli_normalize(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "normalize", "A*B - q*B*A")
    assert code == 0 and out.strip() == "(1)*I"


def test_cli_normalize_json(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "--format", "json", "normalize", "B*A")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "torsion" and obj["p"] == 2
    assert Element.from_json_obj(obj) == parse_element("B*A", ScalarContext.torsion(2))


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


def test_cli_verify_green_suite(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "verify", "lemma3")
    assert code == 0 and "ok" in out


def test_cli_verify_finds_documented_violations(capsys):
    code, out, _ = run_cli(capsys, "--p", "2", "verify", "torsion-paths",
                           "--kmax", "3", "--dmax", "3")
    assert code == 1
    assert "simplified-power-product: FAILED" in out
    assert "fastpath-equivalence: ok" in out


def test_cli_verify_vacuous_claim_is_usage_error(capsys):
    # at p = 5 a letter-exponent window of 3 never reaches exponent p, so
    # simplified-mixed-products has nothing to check; that is not "ok"
    code, out, err = run_cli(capsys, "--p", "5", "verify", "torsion-paths",
                             "--kmax", "3", "--dmax", "3")
    assert code == 2
    assert "simplified-mixed-products: vacuous [0 checks" in out
    assert "simplified-power-product: FAILED" in out
    assert "simplified-mixed-products: ok" not in out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "simplified-mixed-products" in lines[0]


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


def test_cli_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--p", "2", "normalize", "A*")
    assert code == 2 and "error" in err


def test_cli_torsion_required(capsys):
    code, _, err = run_cli(capsys, "member", "A")
    assert code == 2 and "--p" in err


def test_cli_bad_p(capsys):
    code, _, _ = run_cli(capsys, "--p", "1", "normalize", "A")
    assert code == 2


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
])
def test_cli_rejects_empty_or_invalid_bounds(capsys, argv):
    code, out, err = run_cli(capsys, "--p", "3", *argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
