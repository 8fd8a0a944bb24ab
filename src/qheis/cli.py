"""Command-line front-end.

Exit codes: 0 success (and every verified claim holds), 1 at least one
verification violation, 2 usage or parse errors, including a verify
window that gives some claim nothing to check and an input over a work
budget (2 takes precedence over 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from .exprparse import ParseError, parse_element
from .heisenberg import Element, Monomial, commutator
from .liepoly import (
    MAX_WITNESS_DEGREE,
    ConstructionError,
    LieWitness,
    NotLiePolynomialError,
    construct_basis_element,
    is_lie_polynomial,
    lie_closure,
)
from .qscalar import ScalarContext
from .verify import SUITE_NAMES, run_suites

USAGE_ERROR = 2
VIOLATION_ERROR = 1
# Work budget on --p.  Measured in-process on a 2-core x86-64 host: at
# p = 127 a default closure takes 0.1 s and normalize "A^126*B^126" 0.6 s;
# normalize "A^(p-1)*B^(p-1)" passes 1 s near p = 150 (1.3 s at p = 149,
# 8 s at p = 257), its cost then being dense cyclotomic products
MAX_TORSION_ORDER = 128


def _ascii_int(text: str) -> int:
    """The integer option type: ASCII digits, as in the expression grammar (``int``
    also reads other scripts' digits and ``_``); `_check_bounds` words negatives."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


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
    sp.add_argument("--depth", type=_ascii_int, default=6)
    sp.add_argument("--kmax", type=_ascii_int, default=3)
    sp.add_argument("--dmax", type=_ascii_int, default=3)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("suites", nargs="+", choices=SUITE_NAMES)
    sp.add_argument("--kmax", type=_ascii_int, default=None,
                    help="window bound on C exponents (default 2p+2)")
    sp.add_argument("--dmax", type=_ascii_int, default=None,
                    help="window bound on letter exponents (default 2p+2)")
    sp.add_argument("--depth", type=_ascii_int, default=6)
    sp.add_argument("--reach-kmax", type=_ascii_int, default=4)
    sp.add_argument("--reach-dmax", type=_ascii_int, default=4)
    sp.add_argument("--pairs", type=_ascii_int, default=50,
                    help="random pairs for the oracle suite")
    sp.add_argument("--seed", type=_ascii_int, default=0, help="seed for the oracle suite")

    sp = sub.add_parser("tables", help="structure constants of basis products")
    sp.add_argument("--kmax", type=_ascii_int, default=2)
    sp.add_argument("--lmax", type=_ascii_int, default=2)
    return ap


def _context(args) -> ScalarContext:
    if args.p == "generic":
        return ScalarContext.generic()
    try:
        p = _ascii_int(args.p)
    except argparse.ArgumentTypeError:
        raise SystemExit(_usage_error(f"--p must be an integer >= 2 or 'generic', got {args.p!r}"))
    if p < 2:
        raise SystemExit(_usage_error("--p must be at least 2"))
    if p > MAX_TORSION_ORDER:
        raise SystemExit(_usage_error(f"--p must be at most {MAX_TORSION_ORDER}, got {p}"))
    return ScalarContext.torsion(p)


def _require_torsion(ctx: ScalarContext, what: str) -> None:
    if not ctx.is_torsion:
        raise SystemExit(_usage_error(f"{what} needs --p <int>; generic mode is not enough"))


def _check_bounds(args) -> None:
    """Reject window bounds below 0, depth or pair counts below 1, and a
    reachability window whose witnesses exceed `MAX_WITNESS_DEGREE`."""
    for name in ("kmax", "dmax", "lmax", "reach_kmax", "reach_dmax"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise SystemExit(_usage_error(f"{flag} must be at least 0, got {value}"))
    for name in ("depth", "pairs"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise SystemExit(_usage_error(f"--{name} must be at least 1, got {value}"))
    reach = getattr(args, "reach_kmax", 0) + getattr(args, "reach_dmax", 0)
    if reach > MAX_WITNESS_DEGREE:
        raise SystemExit(_usage_error(
            f"--reach-kmax + --reach-dmax must be at most {MAX_WITNESS_DEGREE}, got {reach}"))


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
        raise SystemExit(_usage_error(
            "result has a coefficient too long to print "
            f"(more than {sys.get_int_max_str_digits()} digits)"))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise SystemExit(_usage_error(f"cannot write --out: {exc}"))
    print(shown)


def _parse_or_exit(text: str, ctx: ScalarContext) -> Element:
    try:
        return parse_element(text, ctx)
    except ParseError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _witness_or_exit(ctx: ScalarContext, mono: Monomial, defn2_literal: bool) -> LieWitness:
    """The bracket witness of mono; exits 1 when there is none, 2 over the degree budget."""
    try:
        return construct_basis_element(ctx, mono, defn2_literal)
    except (NotLiePolynomialError, ConstructionError) as exc:
        print(f"not constructible: {exc}", file=sys.stderr)
        raise SystemExit(VIOLATION_ERROR)
    except ValueError as exc:
        # k + |d| is over MAX_WITNESS_DEGREE
        raise SystemExit(_usage_error(str(exc)))


def _single_monomial(x: Element) -> Monomial | None:
    if len(x.terms) != 1:
        return None
    m, c = next(iter(x.terms.items()))
    return m if c == x.ctx.one() else None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    ctx = _context(args)
    _check_bounds(args)

    if args.command == "normalize":
        elem = _parse_or_exit(args.expr, ctx)
        _emit(args, elem.text, elem.to_json_obj)
        return 0

    if args.command == "comm":
        left = _parse_or_exit(args.left, ctx)
        right = _parse_or_exit(args.right, ctx)
        result = commutator(left, right)
        _emit(args, result.text, result.to_json_obj)
        return 0

    if args.command == "member":
        _require_torsion(ctx, "membership")
        elem = _parse_or_exit(args.expr, ctx)
        verdict, residual = is_lie_polynomial(elem, args.defn2_literal)
        mono = _single_monomial(elem)
        witness = None
        if verdict and mono is not None:
            witness = _witness_or_exit(ctx, mono, args.defn2_literal).expr.text()

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
        _require_torsion(ctx, "construction")
        elem = _parse_or_exit(args.monomial, ctx)
        mono = _single_monomial(elem)
        if mono is None:
            return _usage_error("construct needs a single monomial with coefficient 1")
        witness = _witness_or_exit(ctx, mono, args.defn2_literal)
        _emit(args, lambda: f"{mono.text()} = {witness.expr.text()}",
              lambda: {
                  "monomial": mono.text(),
                  "witness": witness.expr.text(),
                  "value": witness.value.to_json_obj(),
              })
        return 0

    if args.command == "closure":
        _require_torsion(ctx, "closure")
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
        _require_torsion(ctx, "verification")
        kmax = args.kmax if args.kmax is not None else 2 * ctx.p + 2
        dmax = args.dmax if args.dmax is not None else 2 * ctx.p + 2
        reports = run_suites(
            ctx, args.suites, kmax=kmax, dmax=dmax, depth=args.depth,
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
        monos = []
        for m in range(0, args.kmax + 1):
            monos.append(Monomial(m, 0))
            for n in range(1, args.lmax + 1):
                monos.append(Monomial(m, -n))
                monos.append(Monomial(m, n))
        monos.sort(key=lambda mm: (mm.d, mm.k))
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

    return _usage_error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
