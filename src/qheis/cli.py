"""Command-line front-end.

Exit codes: 0 success (and every verified claim holds), 1 at least one
verification violation or a monomial with no bracket witness, 2 usage or
parse errors, including a verify window that gives some claim nothing
to check and an input over a work budget (2 takes precedence over 1).

The library refuses and `main` maps each refusal to its exit code in one
handler: `NotLiePolynomialError` and `ConstructionError` exit 1, and any
other `ValueError` (a parse error, a generic context where the Lie layer
needs ``--p``, an input over a work budget) prints one ``error:`` line
and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from .exprparse import parse_element
from .heisenberg import Element, Monomial, commutator
from .liepoly import (
    ConstructionError,
    NotLiePolynomialError,
    construct_basis_element,
    is_lie_polynomial,
    lie_closure,
)
from .qscalar import MAX_TORSION_ORDER, ContextMismatchError, ScalarContext
from .verify import SUITE_NAMES, _window_monomials, run_suites

USAGE_ERROR = 2
VIOLATION_ERROR = 1

# Work budget on `tables`: the most product terms it may print, as
# `_table_terms` estimates them.  Measured as a process on a 2-core x86-64
# host with --format json: --kmax 10 --lmax 10 (146,531 terms) takes 3.6 s
# and 274 MB, 13/13 (463,932) 12.4 s and 774 MB.
MAX_TABLE_TERMS = 150_000


def _ascii_int(least: int) -> Callable[[str], int]:
    """The integer option type with its least value: ASCII digits, as in the
    expression grammar (``int`` also reads other scripts' digits and ``_``)."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Every usage error is one ``error:`` line and exit 2."""
        raise SystemExit(_usage_error(message))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    ``parse_args`` returns a fresh namespace on every call, so sharing
    the parser carries no option value from one ``main`` call to the next.
    """
    ap = _Parser(
        prog="qheis",
        description="Exact computation in the q-deformed Heisenberg algebra "
                    "with q a primitive p-th root of unity.",
    )
    ap.add_argument("--p", default="generic",
                    help="torsion order (integer >= 2) or 'generic'")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--out", help="write the JSON report/output to this path")
    ap.add_argument("--defn2-literal", action="store_true",
                    help="use the literal spanning-set classification of C powers")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="print the canonical form of an expression")
    sp.add_argument("expr")

    sp = sub.add_parser("comm", help="commutator of two expressions")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("member", help="Lie-polynomial membership of an expression")
    sp.add_argument("expr")

    sp = sub.add_parser("construct", help="bracket witness for a basis monomial")
    sp.add_argument("monomial")

    sp = sub.add_parser("closure", help="bracket-closure span of {A, B}")
    sp.add_argument("--depth", type=_ascii_int(1), default=6)
    sp.add_argument("--kmax", type=_ascii_int(0), default=3)
    sp.add_argument("--dmax", type=_ascii_int(0), default=3)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("suites", nargs="+", choices=SUITE_NAMES)
    sp.add_argument("--kmax", type=_ascii_int(0), default=None,
                    help="window bound on C exponents (default 2p+2)")
    sp.add_argument("--dmax", type=_ascii_int(0), default=None,
                    help="window bound on letter exponents (default 2p+2)")
    sp.add_argument("--depth", type=_ascii_int(1), default=6)
    sp.add_argument("--reach-kmax", type=_ascii_int(0), default=4)
    sp.add_argument("--reach-dmax", type=_ascii_int(0), default=4)
    sp.add_argument("--pairs", type=_ascii_int(1), default=50,
                    help="random pairs for the oracle suite")
    sp.add_argument("--seed", type=_ascii_int(0), default=0, help="seed for the oracle suite")

    sp = sub.add_parser("tables", help="structure constants of basis products")
    sp.add_argument("--kmax", type=_ascii_int(0), default=2)
    sp.add_argument("--lmax", type=_ascii_int(0), default=2)
    return ap


def _context(args) -> ScalarContext:
    if args.p == "generic":
        return ScalarContext.generic()
    if not (args.p.isascii() and args.p.isdigit()):
        raise ValueError(f"--p must be an integer >= 2 or 'generic', got {args.p!r}")
    p = int(args.p)
    if p < 2:
        raise ValueError("--p must be at least 2")
    if p > MAX_TORSION_ORDER:
        raise ValueError(f"--p must be at most {MAX_TORSION_ORDER}, got {p}")
    return ScalarContext.torsion(p)


def _table_terms(kmax: int, lmax: int) -> int:
    """The product terms `tables` prints, at most: each of the (2·lmax + 1)²
    letter pairs of a C-exponent pair gives one term, and a pair of opposite
    signs min(|d1|, |d2|) more."""
    return (kmax + 1) ** 2 * ((2 * lmax + 1) ** 2 + lmax * (lmax + 1) * (2 * lmax + 1) // 3)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _emit(args, text: Callable[[], str], json_obj: Callable[[], dict]) -> None:
    """Print the text or JSON form of a result and write its JSON to --out.

    Both forms are zero-argument callables, so only the forms that are
    printed or written get rendered.
    """
    try:
        payload = None
        if args.format == "json" or args.out:
            payload = json.dumps(json_obj(), sort_keys=True, indent=2)
        shown = payload if args.format == "json" else text()
    except ValueError:
        # the only ValueError rendering raises: Python's int-to-str digit limit
        raise ValueError("result has a coefficient too long to print "
                         f"(more than {sys.get_int_max_str_digits()} digits)") from None
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from None
    print(shown)


def _single_monomial(x: Element) -> Monomial | None:
    if len(x.terms) != 1:
        return None
    m, c = next(iter(x.terms.items()))
    return m if c == x.ctx.one() else None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args, _context(args))
    except (NotLiePolynomialError, ConstructionError) as exc:
        print(f"not constructible: {exc}", file=sys.stderr)
        return VIOLATION_ERROR
    except ContextMismatchError as exc:
        return _usage_error(f"{exc}: pass --p <int>, generic mode is not enough")
    except ValueError as exc:
        return _usage_error(str(exc))


def _run(args, ctx: ScalarContext) -> int:
    """Run the command `args` names; refusals raise and `main` maps them."""
    if args.command == "normalize":
        elem = parse_element(args.expr, ctx)
        _emit(args, elem.text, elem.to_json_obj)
        return 0

    if args.command == "comm":
        result = commutator(parse_element(args.left, ctx), parse_element(args.right, ctx))
        _emit(args, result.text, result.to_json_obj)
        return 0

    if args.command == "member":
        elem = parse_element(args.expr, ctx)
        verdict, residual = is_lie_polynomial(elem, args.defn2_literal)
        mono = _single_monomial(elem)
        witness = None
        if verdict and mono is not None:
            witness = construct_basis_element(ctx, mono, args.defn2_literal).expr.text()

        def member_text():
            lines = [f"lie polynomial: {'yes' if verdict else 'no'}",
                     f"residual: {residual.text()}"]
            if witness is not None:
                lines.append(f"witness: {witness}")
            return "\n".join(lines)

        def member_obj():
            obj = {
                "element": elem.to_json_obj(),
                "is_lie_polynomial": verdict,
                "residual": residual.to_json_obj(),
            }
            if witness is not None:
                obj["witness"] = witness
            return obj

        _emit(args, member_text, member_obj)
        return 0 if verdict else VIOLATION_ERROR

    if args.command == "construct":
        mono = _single_monomial(parse_element(args.monomial, ctx))
        if mono is None:
            raise ValueError("construct needs a single monomial with coefficient 1")
        witness = construct_basis_element(ctx, mono, args.defn2_literal)
        _emit(args, lambda: f"{mono.text()} = {witness.expr.text()}",
              lambda: {
                  "monomial": mono.text(),
                  "witness": witness.expr.text(),
                  "value": witness.value.to_json_obj(),
              })
        return 0

    if args.command == "closure":
        basis = lie_closure(ctx, args.depth, args.kmax, args.dmax)
        _emit(args,
              lambda: (f"dimension {basis.dimension} "
                       f"(depth {args.depth}, k <= {args.kmax}, |d| <= {args.dmax})\n"
                       + basis.text()),
              lambda: {
                  "depth": args.depth,
                  "kmax": args.kmax,
                  "dmax": args.dmax,
                  "dimension": basis.dimension,
                  "rows": [row.to_json_obj() for row in basis.rows],
              })
        return 0

    if args.command == "verify":
        reports = run_suites(
            ctx, args.suites, kmax=args.kmax, dmax=args.dmax, depth=args.depth,
            reach_kmax=args.reach_kmax, reach_dmax=args.reach_dmax,
            defn2_literal=args.defn2_literal, seed=args.seed, pairs=args.pairs,
        )
        _emit(args, lambda: "\n".join(r.summary_line() for r in reports),
              lambda: {"p": ctx.p, "reports": [r.to_json_obj() for r in reports]})
        vacuous = [r.claim for r in reports if r.vacuous]
        if vacuous:
            return _usage_error("vacuous, 0 checks in this window: " + ", ".join(vacuous))
        return 0 if all(r.ok for r in reports) else VIOLATION_ERROR

    if args.command == "tables":
        kmax, lmax = args.kmax, args.lmax
        terms = _table_terms(kmax, lmax)
        if terms > MAX_TABLE_TERMS:
            raise ValueError(f"tables at kmax = {kmax}, lmax = {lmax} would print {terms} "
                             f"product terms, above the budget MAX_TABLE_TERMS = {MAX_TABLE_TERMS}")
        monos = list(_window_monomials(kmax, lmax))
        products = [(m1, m2, Element.monomial(ctx, m1) * Element.monomial(ctx, m2))
                    for m1 in monos for m2 in monos]
        _emit(args,
              lambda: "\n".join(f"{m1.text()} . {m2.text()} = {prod.text()}"
                                for m1, m2, prod in products),
              lambda: {"p": ctx.p, "mode": ctx.mode, "rows": [
                  {"left": m1.text(), "right": m2.text(),
                   "product": prod.to_json_obj()["terms"]}
                  for m1, m2, prod in products]})
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
