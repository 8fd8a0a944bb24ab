"""Lie polynomials in the generators A, B at a root of unity.

Provides the per-monomial Lie/not-Lie classification, membership
decision with residual, the forbidden-subspace projection, the explicit
nested-commutator constructors with their normalizations, constructive
witnesses (`BracketExpr` trees) for every claimed basis monomial, and a
brute-force bracket-closure oracle with exact row reduction.

Classification of the grade-0 column.  The documented characterization
lists every positive C power as a Lie polynomial, while the literal
spanning-set definition excludes C^n for n ≡ 1 (mod p), n >= 2.  Both
disagree with what the bracket closure actually generates: the grade-0
component of any commutator of basis monomials has an exactly vanishing
coefficient on every C^(np), and the remaining C powers are all reached
(C^n with n ≡ 1 mod p through the central-power bracket
[C^(n-2) A, B C] = C^n, the rest through the telescoped grade-0 chain).
The default classification therefore treats C^n as a Lie polynomial iff
n is not divisible by p; the `defn2_literal` flag switches to the
literal spanning-set reading so the closure oracle can document the
discrepancy, which the verification reports do.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .heisenberg import (
    Element,
    Monomial,
    MONO_A,
    MONO_B,
    MONO_C,
    _add_into,
    _mono_key,
    commutator,
)
from .qscalar import (
    Scalar,
    ScalarContext,
    inv_qm1_power,
    q_int,
    scalar_text,
)

__all__ = [
    "MonomialClass",
    "NotLiePolynomialError",
    "ConstructionError",
    "classify_monomial",
    "is_lie_polynomial",
    "project_N",
    "base_A",
    "base_B",
    "base_G",
    "base_G_documented",
    "obase_A",
    "obase_B",
    "obase_G",
    "obase_G_documented",
    "special_A",
    "special_B",
    "Leaf",
    "Bracket",
    "ScaledSum",
    "BracketExpr",
    "eval_bracket_expr",
    "LieWitness",
    "construct_basis_element",
    "SubspaceBasis",
    "RowReducer",
    "lie_closure",
    "closure_rows",
]


# Work budget of `construct_basis_element` on k + |d|, a bound on output
# size: a witness is a bracket tree of about that depth, and the text of
# the telescoped C^n witness grows as n^2 (C^254 prints 339 kB)
MAX_WITNESS_DEGREE = 256


class NotLiePolynomialError(ValueError):
    """Raised when a constructive witness is requested for a non-member."""


class ConstructionError(RuntimeError):
    """Raised when a constructor cannot produce its target exactly."""


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class MonomialClass(NamedTuple):
    is_lie: bool
    in_N: bool   # member of the forbidden subspace (only when not Lie)
    reason: str


def _in_forbidden_subspace(p: int, m: Monomial) -> bool:
    """The forbidden subspace's monomials: k >= 1, d != 0, p | k and p | |d|."""
    return m.k >= 1 and m.d != 0 and m.k % p == 0 and m.d % p == 0


def _is_lie(p: int, m: Monomial, defn2_literal: bool) -> bool:
    """Whether the basis monomial m (k >= 0) is a Lie polynomial: the classification rule.

    The grade-0 column holds C^n for n not divisible by p (with
    `defn2_literal`, C and the C^n with n - 1 not divisible by p); the
    identity is not Lie.  A pure letter power is Lie only as a
    generator, and a mixed monomial unless it lies in the forbidden
    subspace.
    """
    k, d = m
    if d == 0:
        if defn2_literal:
            return k == 1 or (k >= 2 and (k - 1) % p != 0)
        return k % p != 0
    if k == 0:
        return d == 1 or d == -1
    return not _in_forbidden_subspace(p, m)


# The rows of the classification, each verdict as `_is_lie` gives it
_IDENTITY = MonomialClass(False, False, "the identity monomial")
_LIE_C = MonomialClass(True, False, "C power with exponent not divisible by p")
_NOT_LIE_C = MonomialClass(False, False,
                           "C power with exponent divisible by p (never generated by brackets)")
_LIE_C_LITERAL = MonomialClass(True, False, "C power in the literal spanning set")
_NOT_LIE_C_LITERAL = MonomialClass(
    False, False, "C power excluded by the literal spanning set (k-1 divisible by p)")
_GENERATOR = MonomialClass(True, False, "a generator")
_LIE_MIXED = MonomialClass(True, False, "mixed monomial with an exponent not divisible by p")
_FORBIDDEN = MonomialClass(False, True, "forbidden subspace: both exponents divisible by p")


def classify_monomial(ctx: ScalarContext, m: Monomial, defn2_literal: bool = False) -> MonomialClass:
    """Decide whether a basis monomial is a Lie polynomial in A, B.

    With `defn2_literal` the grade-0 column follows the literal
    spanning-set reading (C^n excluded when n >= 2 and n-1 ≡ 0 mod p)
    instead of the closure-backed default (C^n excluded iff p | n).  The
    verdict is `_is_lie`'s, the rule `is_lie_polynomial` reads too; this
    function only picks the row, which carries the reason.
    """
    ctx.require_torsion("classify_monomial")
    p = ctx.p
    k, d = m
    if k < 0:
        raise ValueError("negative C exponent")
    if _is_lie(p, m, defn2_literal):
        if d == 0:
            return _LIE_C_LITERAL if defn2_literal else _LIE_C
        return _GENERATOR if k == 0 else _LIE_MIXED
    if d == 0:
        if k == 0:
            return _IDENTITY
        return _NOT_LIE_C_LITERAL if defn2_literal else _NOT_LIE_C
    if k == 0:
        return MonomialClass(False, False, f"pure letter power with exponent {abs(d)} >= 2")
    return _FORBIDDEN


def project_N(x: Element) -> Element:
    """Component of x on the forbidden subspace (see `_in_forbidden_subspace`)."""
    x.ctx.require_torsion("project_N")
    p = x.ctx.p
    terms = {m: c for m, c in x.terms.items() if _in_forbidden_subspace(p, m)}
    return Element(x.ctx, terms, _clean=True)


def is_lie_polynomial(x: Element, defn2_literal: bool = False):
    """Membership decision: (verdict, residual on non-member monomials).

    An element is a Lie polynomial exactly when its coordinates on the
    non-member basis monomials all vanish, because the claimed basis
    monomials are linearly independent.  Each term is decided by
    `_is_lie`, the rule behind `classify_monomial`, with no reason text
    written.
    """
    ctx = x.ctx
    ctx.require_torsion("is_lie_polynomial")
    p = ctx.p
    residual = {m: c for m, c in x.terms.items() if not _is_lie(p, m, defn2_literal)}
    return not residual, Element(ctx, residual, _clean=True)


# ---------------------------------------------------------------------------
# Bracket expression trees (constructive witnesses)
# ---------------------------------------------------------------------------

class Leaf(NamedTuple):
    gen: str  # "A" or "B"

    def text(self) -> str:
        return self.gen


class Bracket(NamedTuple):
    left: "BracketExpr"
    right: "BracketExpr"

    def text(self) -> str:
        return f"[{self.left.text()}, {self.right.text()}]"


class ScaledSum(NamedTuple):
    items: tuple  # of (Scalar, BracketExpr)

    def text(self) -> str:
        return " + ".join(f"({scalar_text(c)})*{e.text()}" for c, e in self.items)


BracketExpr = Leaf | Bracket | ScaledSum

_A = Leaf("A")
_B = Leaf("B")

# The one shared node of each pure bracket, keyed by the identities of its
# children (hash-consing).  A pure node has only A and B as leaves and no
# ScaledSum inside; its children are themselves shared, and the node holds
# them, so their ids are never reused.  No node is ever dropped, so a
# context's ``_bracket`` table keys on the node's id alone.  No tree is
# hashed by structure: the tuple hash recurses, which would cost a chain
# of n nodes O(n^2).
_NODES: dict[tuple[int, int], Bracket] = {}


def _node(left: BracketExpr, right: BracketExpr) -> Bracket:
    """The shared node [left, right] of two shared nodes or leaves, made on first use."""
    key = (id(left), id(right))
    node = _NODES.get(key)
    if node is None:
        node = _NODES.setdefault(key, Bracket(left, right))
    return node


_C = _node(_A, _B)


def eval_bracket_expr(ctx: ScalarContext, e: BracketExpr) -> Element:
    """Evaluate a witness tree inside the algebra.

    A shared node (one of the ad-chains this module builds) is evaluated
    once per context: its value is stored in the context's ``_bracket``
    table, keyed by the node's id, and read from there on every later
    occurrence.  Any other node -- a `ScaledSum`, a bracket holding one,
    a tree built by the caller -- is evaluated where it occurs and
    stored nowhere.
    """
    table = ctx._bracket

    def value(node: BracketExpr) -> Element:
        if isinstance(node, Leaf):
            return Element.monomial(ctx, MONO_A if node.gen == "A" else MONO_B)
        if not isinstance(node, Bracket):
            out: dict = {}
            for c, sub in node.items:
                _add_into(out, value(sub).terms.items(), c)
            return Element(ctx, out, _clean=True)
        if _NODES.get((id(node.left), id(node.right))) is not node:
            return commutator(value(node.left), value(node.right))
        got = table.get(id(node))
        if got is None:
            # stored once: a racing thread reads the value stored first
            got = table.setdefault(id(node), commutator(value(node.left), value(node.right)))
        return got

    return value(e)


# ---------------------------------------------------------------------------
# The ad-chains, their normalizations and the constructors built on them
# ---------------------------------------------------------------------------

def _ad(g: BracketExpr, n: int, node: BracketExpr) -> BracketExpr:
    """(ad g)^n node, one shared node per step."""
    for _ in range(n):
        node = _node(g, node)
    return node


def _chain_A(k: int, l: int) -> BracketExpr:
    """(ad C)^k (ad A)^(l+1) B, which evaluates to (-1)^k (q-1)^l (q^l-1)^k C^(k+1) A^l."""
    if k < 0 or l < 1:
        raise ValueError("base_A needs k >= 0 and l >= 1")
    return _ad(_C, k, _ad(_A, l + 1, _B))


def _chain_B(k: int, l: int) -> BracketExpr:
    """(ad B)^(l-1) (ad C)^k [B, [B, A]], which evaluates to (q-1)^(k+1) (1-q^(k+1))^(l-1) B^l C^(k+1)."""
    if k < 0 or l < 1:
        raise ValueError("base_B needs k >= 0 and l >= 1")
    return _ad(_B, l - 1, _ad(_C, k, _node(_B, _node(_B, _A))))


def _chain_G(k: int) -> BracketExpr:
    """The grade-0 chain [B, (ad C)^k [[B, A], A]]."""
    return _node(_B, _ad(_C, k, _node(_node(_B, _A), _A)))


def _norm_A(ctx: ScalarContext, k: int, l: int) -> Scalar:
    """(-1)^k (q-1)^-l (q^l-1)^-k, which takes `_chain_A(k, l)` to C^(k+1) A^l."""
    s = inv_qm1_power(ctx, l) * ((ctx.q_power(l) - ctx.one()).inverse() ** k)
    return -s if k % 2 else s


def _norm_B(ctx: ScalarContext, k: int, l: int) -> Scalar:
    """(q-1)^-(k+1) (1-q^(k+1))^-(l-1), which takes `_chain_B(k, l)` to B^l C^(k+1)."""
    return inv_qm1_power(ctx, k + 1) * ((ctx.one() - ctx.q_power(k + 1)).inverse() ** (l - 1))


def _telescoped_C(ctx: ScalarContext, n: int) -> ScaledSum:
    """C^n = (C - sum_{i<n-1} q^(i+1) (q-1)^-(i+1) base_G(i)) / {n}_q.

    base_G(i) is (-1)^i times `_chain_G(i)`.  Exact whenever {n}_q is
    invertible, i.e. n not divisible by p.  The chains extend one nest
    (ad C)^i [[B, A], A], one node per step.
    """
    inv_n = q_int(ctx, n).inverse()
    items = [(inv_n, _C)]
    nest = _node(_node(_B, _A), _A)
    for i in range(n - 1):
        c = inv_n * ctx.q_power(i + 1) * inv_qm1_power(ctx, i + 1)
        items.append((c if i % 2 else -c, _node(_B, nest)))
        nest = _node(_C, nest)
    return ScaledSum(tuple(items))


def base_A(ctx: ScalarContext, k: int, l: int) -> Element:
    """((-ad C)^k o (-ad A)^(l+1))(B); equals -(1-q)^l (q^l-1)^k C^(k+1) A^l."""
    v = eval_bracket_expr(ctx, _chain_A(k, l))
    return -v if (k + l + 1) % 2 else v


def base_B(ctx: ScalarContext, k: int, l: int) -> Element:
    """((ad B)^(l-1) o (ad C)^k)([B,[B,A]]); equals (q-1)^(k+1) (1-q^(k+1))^(l-1) B^l C^(k+1)."""
    return eval_bracket_expr(ctx, _chain_B(k, l))


def base_G(ctx: ScalarContext, k: int) -> Element:
    """((ad B) o (-ad C)^k)([[B,A],A]).

    Exact closed form (established by direct evaluation and covered by
    the tests): (q-1)^(k+1) q^-(k+1) ({k+1}_q C^(k+1) - {k+2}_q C^(k+2)).
    """
    if k < 0:
        raise ValueError("base_G needs k >= 0")
    v = eval_bracket_expr(ctx, _chain_G(k))
    return -v if k % 2 else v


def base_G_documented(ctx: ScalarContext, k: int) -> Element:
    """The documented closed form q^-k (q-1)^(k+1) (q {k}_q C^(k+1) - {k+1}_q C^(k+2)).

    Does not agree with the bracket evaluation `base_G`; kept so the
    acceptance and corrected-identity tests can exhibit the mismatch.
    """
    q = ctx.q()
    pref = ctx.q_power(-k) * (q - ctx.one()) ** (k + 1)
    return (Element.monomial(ctx, Monomial(k + 1, 0), q * q_int(ctx, k))
            - Element.monomial(ctx, Monomial(k + 2, 0), q_int(ctx, k + 1))).scale(pref)


def obase_A(ctx: ScalarContext, k: int, l: int) -> Element:
    """Normalized form returning exactly C^(k+1) A^l; needs l not divisible by p."""
    if ctx.is_torsion and l % ctx.p == 0:
        raise ConstructionError(
            f"obase_A needs l not divisible by p (got l={l}, p={ctx.p}): q^l - 1 vanishes"
        )
    return eval_bracket_expr(ctx, _chain_A(k, l)).scale(_norm_A(ctx, k, l))


def obase_B(ctx: ScalarContext, k: int, l: int) -> Element:
    """Normalized form returning exactly B^l C^(k+1); needs k+1 not divisible by p."""
    if ctx.is_torsion and (k + 1) % ctx.p == 0:
        raise ConstructionError(
            f"obase_B needs k+1 not divisible by p (got k={k}, p={ctx.p}): 1 - q^(k+1) vanishes"
        )
    return eval_bracket_expr(ctx, _chain_B(k, l)).scale(_norm_B(ctx, k, l))


def obase_G(ctx: ScalarContext, k: int) -> Element:
    """Normalized grade-0 chain returning exactly C^(k+2).

    Evaluates the telescoped combination `_telescoped_C(k + 2)`, which
    is exact whenever {k+2}_q is invertible, i.e. k+2 not divisible by
    p.  The documented normalization divides by 1-q^(k+1) instead and
    is rejected here: when k+2 ≡ 0 (mod p) no grade-0 bracket
    combination reaches C^(k+2) at all, and when k+1 ≡ 0 the
    central-power bracket [C^k A, B C] is the construction that works.
    """
    ctx.require_torsion("obase_G")
    p = ctx.p
    if (k + 1) % p == 0:
        raise ConstructionError(
            f"obase_G needs k+1 not divisible by p (got k={k}, p={p}); "
            "use the central-power bracket [C^k A, B C] = C^(k+2) instead"
        )
    if (k + 2) % p == 0:
        raise ConstructionError(
            f"obase_G target C^{k + 2} has exponent divisible by p={p} "
            "and is not a Lie polynomial: no bracket combination reaches it"
        )
    return eval_bracket_expr(ctx, _telescoped_C(ctx, k + 2))


def obase_G_documented(ctx: ScalarContext, k: int) -> Element:
    """The documented normalization (q^k / (1-q^(k+1))) sum (q-1)^-i base_G(i).

    Evaluates the stated formula verbatim (needs k+1 not divisible by
    p).  The acceptance and corrected-identity tests compare it with C^(k+2).
    """
    ctx.require_torsion("obase_G_documented")
    if (k + 1) % ctx.p == 0:
        raise ConstructionError("documented normalization divides by 1 - q^(k+1)")
    one, q = ctx.one(), ctx.q()
    acc: dict = {}
    for i in range(k + 1):
        _add_into(acc, base_G(ctx, i).terms.items(), (q - one).inverse() ** i)
    return Element(ctx, acc, _clean=True).scale(ctx.q_power(k) * (one - q ** (k + 1)).inverse())


def special_A(ctx: ScalarContext, k: int, l: int) -> Element:
    """[obase_A(k, l-1), A], the letter-power bump used when l ≡ 0 (mod p).

    Equals (1 - q^(k+1)) C^(k+1) A^l under the stated congruences
    (l ≡ 0, k+1 not ≡ 0 mod p).
    """
    return commutator(obase_A(ctx, k, l - 1), Element.monomial(ctx, MONO_A))


def special_B(ctx: ScalarContext, k: int, l: int) -> Element:
    """[obase_B(k-1, l), C]; equals (1 - q^l) B^l C^(k+1) when k+1 ≡ 0, l not ≡ 0 (mod p)."""
    return commutator(obase_B(ctx, k - 1, l), Element.monomial(ctx, MONO_C))


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------

class LieWitness(NamedTuple):
    expr: BracketExpr
    value: Element


def _witness_mixed(ctx: ScalarContext, k: int, d: int) -> BracketExpr:
    """Witness for C^k A^(-d) (d < 0) or B^d C^k (d > 0), k >= 1.

    The normalized chain reaches the target when the exponent it divides
    by avoids p (the letter exponent on the A side, the C exponent on
    the B side).  Otherwise the chain one step short is bumped by
    [A, .] or [C, .], which multiplies it by q^k - 1 or q^d - 1.
    """
    p, one = ctx.p, ctx.one()
    if d < 0:
        l = -d
        if l % p:
            return ScaledSum(((_norm_A(ctx, k - 1, l), _chain_A(k - 1, l)),))
        bump = (ctx.q_power(k) - one).inverse()
        return ScaledSum(((_norm_A(ctx, k - 1, l - 1) * bump, _node(_A, _chain_A(k - 1, l - 1))),))
    if k % p:
        return ScaledSum(((_norm_B(ctx, k - 1, d), _chain_B(k - 1, d)),))
    bump = (ctx.q_power(d) - one).inverse()
    return ScaledSum(((_norm_B(ctx, k - 2, d) * bump, _node(_C, _chain_B(k - 2, d))),))


def _witness_c_pow(ctx: ScalarContext, n: int) -> BracketExpr:
    """Witness for C^n, n >= 2, n not divisible by p."""
    p = ctx.p
    if n % p == 0:
        # reachable only under the literal spanning-set classification,
        # which the closure contradicts; there is nothing to construct
        raise ConstructionError(
            f"no bracket combination reaches C^{n}: its exponent is divisible by p={p}"
        )
    if n % p == 1:
        # central-power bracket: [C^(n-2) A, B C] = C^n when n-1 ≡ 0 (mod p);
        # n ≡ 1 (mod p) and n >= 2 force n >= p + 1, so n - 2 >= 1 here
        return Bracket(_witness_mixed(ctx, n - 2, -1), _witness_mixed(ctx, 1, 1))
    return _telescoped_C(ctx, n)


def construct_basis_element(ctx: ScalarContext, m: Monomial, defn2_literal: bool = False) -> LieWitness:
    """Constructive witness: a bracket expression evaluating exactly to m.

    Dispatch: generators and C are leaves / one bracket; C powers split
    on n mod p (central-power bracket when n ≡ 1, telescoped chain
    otherwise); mixed monomials use the normalized ad-chain matching the
    letter exponent (plain chain when it avoids p, the letter-power or
    grade-0 bump otherwise).  Raises for monomials that are not Lie
    polynomials, naming the classification row, and raises ValueError
    above the work budget `MAX_WITNESS_DEGREE` on k + |d|.

    The expression depends on (p, m) alone, so past those checks it is
    built once per context and stored in the context's ``_witness``
    table; either reading may store it, since classification runs first
    on every call.  Every call evaluates the expression and raises
    ConstructionError unless its value is exactly m.
    """
    cls = classify_monomial(ctx, m, defn2_literal)
    if not cls.is_lie:
        raise NotLiePolynomialError(f"{m.text()} is not a Lie polynomial: {cls.reason}")
    k, d = m
    if k + abs(d) > MAX_WITNESS_DEGREE:
        raise ValueError(f"witness for {m.text()} has degree k + |d| = {k + abs(d)}, "
                         f"above the budget MAX_WITNESS_DEGREE = {MAX_WITNESS_DEGREE}")
    if m == MONO_A:
        expr: BracketExpr = _A
    elif m == MONO_B:
        expr = _B
    elif m == MONO_C:
        expr = _C
    else:
        expr = ctx._witness.get(m)
        if expr is None:
            # stored once: a racing thread reads the expression stored first
            expr = ctx._witness.setdefault(
                m, _witness_c_pow(ctx, k) if d == 0 else _witness_mixed(ctx, k, d))
    value = eval_bracket_expr(ctx, expr)
    if value != Element.monomial(ctx, m):
        raise ConstructionError(
            f"witness for {m.text()} evaluated to {value.text()} instead"
        )
    return LieWitness(expr, value)


# ---------------------------------------------------------------------------
# Exact row reduction and the bracket-closure oracle
# ---------------------------------------------------------------------------

def _tail(terms: dict, lead: Monomial):
    """The (monomial, coefficient) pairs of a row's terms but its lead."""
    tail = dict(terms)
    del tail[lead]
    return tail.items()


class RowReducer:
    """Incremental exact Gaussian elimination over the scalar field.

    Rows are elements with pairwise distinct leading monomials in the
    canonical order (grade, then C exponent); each stored row is monic,
    normalized to leading coefficient one, and its tail (the terms after
    the lead) is kept beside it.  An elimination step therefore pops the
    lead coefficient c from the remainder and subtracts c times the
    row's tail: the lead cancels exactly, with no product c * 1 formed.
    """

    def __init__(self, ctx: ScalarContext):
        self.ctx = ctx
        self.rows: dict[Monomial, Element] = {}
        self._tails: dict = {}

    @staticmethod
    def _lead(x: Element) -> Monomial:
        return min(x.terms, key=_mono_key)

    def _eliminate(self, terms: dict) -> Monomial | None:
        """Reduce a terms dict in place; returns the lead no row holds, or None at zero."""
        tails = self._tails
        while terms:
            lead = min(terms, key=_mono_key)
            tail = tails.get(lead)
            if tail is None:
                return lead
            _add_into(terms, tail, terms.pop(lead), subtract=True)
        return None

    def reduce(self, x: Element) -> Element:
        """Remainder of x against the current rows."""
        self.ctx.ensure_same(x.ctx)
        terms = dict(x.terms)
        self._eliminate(terms)
        return Element(self.ctx, terms, _clean=True)

    def insert(self, x: Element) -> Element | None:
        """Insert x; returns the normalized new row, or None if dependent."""
        self.ctx.ensure_same(x.ctx)
        terms = dict(x.terms)
        lead = self._eliminate(terms)
        if lead is None:
            return None
        row = Element(self.ctx, terms, _clean=True).scale(terms[lead].inverse())
        self.rows[lead] = row
        self._tails[lead] = _tail(row.terms, lead)
        return row

    def contains(self, x: Element) -> bool:
        return self.reduce(x).is_zero()

    def rref_rows(self) -> list[Element]:
        """Rows fully back-substituted, sorted by leading monomial.

        Pivots are cleared from the last up.  A row holds no monomial
        below its pivot, so by the time a pivot is cleared its row holds
        no other pivot, and subtracting it adds only non-pivot monomials.
        The rows holding each pivot therefore never change before it is
        cleared, and are indexed once.  As in `reduce`, a holder's
        coefficient at the pivot is popped and the monic row's tail
        subtracted.
        """
        order = sorted(self.rows, key=_mono_key)
        out = {lead: dict(self.rows[lead].terms) for lead in order}
        holders: dict = {lead: [] for lead in order}
        for lead, terms in out.items():
            for mono in terms:
                if mono != lead and mono in holders:
                    holders[mono].append(lead)
        for lead in reversed(order):
            if holders[lead]:
                tail = _tail(out[lead], lead)
                for other_lead in holders[lead]:
                    other = out[other_lead]
                    _add_into(other, tail, other.pop(lead), subtract=True)
        return [Element(self.ctx, out[lead], _clean=True) for lead in order]


class SubspaceBasis:
    """Row-reduced exact basis of a spanned subspace, windowed.

    The rows are in reduced echelon form and monic: each row's leading
    monomial (its pivot) has coefficient one, and no row holds another
    row's pivot.  `lie_closure` builds them so; a caller building a basis
    by hand must keep both invariants, which `contains` relies on.
    """

    def __init__(self, ctx: ScalarContext, kmax: int, dmax: int, rows: tuple):
        self.ctx = ctx
        self.kmax = kmax
        self.dmax = dmax
        self.rows = rows

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @cached_property
    def _tails(self) -> dict:
        """Each row's tail (its terms but the pivot), keyed by pivot; built on first use."""
        tails = {}
        for row in self.rows:
            lead = RowReducer._lead(row)
            tails[lead] = _tail(row.terms, lead)
        return tails

    def contains(self, x: Element) -> bool:
        """Whether x lies in the span; raises for an element of another context.

        A span element is the sum of x_l times row l over the pivots l,
        x_l its coordinate at l, since no row holds another's pivot.  So
        x is in the span exactly when x minus that sum is zero, and each
        monic row's lead cancels x_l exactly: the residual is x's terms
        off the pivots minus x_l times each tail, summed in one pass over
        x's terms.
        """
        self.ctx.ensure_same(x.ctx)
        tails = self._tails
        residual: dict = {}
        for m, c in x.terms.items():
            tail = tails.get(m)
            if tail is None:
                _add_into(residual, ((m, c),))
            else:
                _add_into(residual, tail, c, subtract=True)
        return not residual

    def leading_monomials(self) -> list[Monomial]:
        return list(self._tails)

    def text(self) -> str:
        return "\n".join(r.text() for r in self.rows)


def closure_rows(ctx: ScalarContext, depth: int):
    """Echelonized generators of the bracket closure of {A, B} by degree.

    Degree counts generator leaves: A, B have degree 1 and a bracket of
    degrees a, b has degree a + b.  The closure is spanned by right-normed
    brackets [g1, [g2, ..., gn]] of generators (Jacobi: [[g, u], v] =
    [g, [u, v]] - [u, [g, v]]), so degree d inserts only [A, r] and
    [B, r] for the rows r new at degree d - 1.  The span up to depth 6
    still holds e.g. the bracket of two degree-3 elements, through
    Jacobi rather than as a computed bracket.  Returns (degree, row)
    pairs, unprojected, in a deterministic order.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = (Element.monomial(ctx, MONO_A), Element.monomial(ctx, MONO_B))
    reducer = RowReducer(ctx)
    out = []
    brackets = gens
    for deg in range(1, depth + 1):
        fresh = [row for row in map(reducer.insert, brackets) if row is not None]
        out.extend((deg, row) for row in fresh)
        # lazy, so the brackets past the last degree are never made
        brackets = (commutator(g, r) for r in fresh for g in gens)
    return out


def lie_closure(
    ctx: ScalarContext,
    depth: int,
    kmax: int,
    dmax: int,
) -> SubspaceBasis:
    """Bracket-closure span of {A, B} up to the given degree, windowed.

    Every generated element is projected to the window (k <= kmax,
    |d| <= dmax) and the projections are row-reduced exactly into a
    deterministic reduced-echelon basis.
    """
    ctx.require_torsion("lie_closure")
    return _window_span(ctx, closure_rows(ctx, depth), kmax, dmax)


def _window_span(ctx: ScalarContext, rows, kmax: int, dmax: int) -> SubspaceBasis:
    """The reduced-echelon span of closure rows projected to the window."""
    reducer = RowReducer(ctx)
    for _, row in rows:
        projected = Element(
            ctx,
            {m: c for m, c in row.terms.items() if m.k <= kmax and abs(m.d) <= dmax},
            _clean=True,
        )
        if not projected.is_zero():
            reducer.insert(projected)
    return SubspaceBasis(ctx=ctx, kmax=kmax, dmax=dmax, rows=tuple(reducer.rref_rows()))
