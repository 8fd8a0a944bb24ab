"""The deformed Heisenberg algebra on generators A, B with AB - qBA = I.

Basis monomials are encoded as pairs ``(k, d)`` where ``k`` is the
exponent of C = [A, B] and the signed integer ``d`` carries the letter
power: ``d < 0`` is a trailing ``A^(-d)``, ``d > 0`` a leading ``B^d``,
``d = 0`` a pure C power (and ``(0, 0)`` the identity).  ``d`` is exactly
the integer grade of the monomial, so the Z-gradation is the first-class
sort key.

Multiplication of two basis monomials takes one rule unless the product
holds both an A power and a B power: the letter powers concatenate and
each one moved past a C power contributes a power of q.  The two mixed
cases take one rule each: with j the smaller letter exponent, A^j B^j
or B^j A^j expands through the structure scalars c_i(j) or d_i(j), and
the leftover letter power moves past a C power.

Two routes read the bracket of two basis monomials from a per-context
table ``ctx._comm`` of cancelled kernels, one per ordered pair of keys,
each stored with its sign: `commutator`, which adds the kernels scaled
by the coefficients of its elements, and `bracket_support`, which
returns the monomials of one bracket with no scalar product, for checks
that only read which monomials a bracket holds.  In generic mode the key
is the ordered pair of monomials itself.  At a primitive p-th root of
unity C^p is central, so the bracket depends on (k1 mod p, d1, k2 mod p,
d2) alone, up to raising every C exponent of the result by the multiples
of p dropped from k1 and k2; the key is that residue pair.  The kernel
of a key whose twin (the swapped pair) is stored is the twin negated, so
the monomial products are formed once per unordered pair.  Both routes
find a kernel through `_kernel_read`, the one statement of that rule.
`multiply` and the word oracle below never read the table, so both stay
independent checks of it.

An independent oracle is provided by free words in A, B: `reduce_word`
straightens a word polynomial into the B^a A^b normal form using only
the defining relation, and `ba_to_cbasis` converts normal words into the
C basis.  `straighten` takes an element to its normal form through
`cbasis_to_free`, and `normal_to_element` brings a normal form back, so
round trips tie the two routes together.  `word_product` multiplies
elements on that route, one straightened product per ordered pair of
basis monomials, read from its own per-context table ``ctx._word``.

Every sparse sum of the package -- element and word-polynomial sums,
the products of `multiply`, the straightening folds, row elimination in
`liepoly` -- goes through `_add_into`, which adds (key, coefficient)
pairs into a dict and keeps the invariant that a terms dict never holds
a zero coefficient.  `_mono_product` drops the structure scalars that
vanish, so its pairs go in unfiltered.  Only the kernel read loop of
`commutator` writes out its own get/add/drop-zero step.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, NamedTuple

from .qscalar import (
    MAX_TORSION_ORDER,
    ContextMismatchError,
    Scalar,
    ScalarContext,
    format_scalar,
    parse_scalar,
    q_int,
    scalar_text,
    scaled_struct_c,
    scaled_struct_d,
    struct_d,
)

__all__ = [
    "Monomial",
    "Element",
    "FreePoly",
    "MONO_I",
    "MONO_A",
    "MONO_B",
    "MONO_C",
    "multiply",
    "commutator",
    "bracket_support",
    "grade",
    "graded_components",
    "reduce_word",
    "reduce_word_rewriting",
    "normal_word_product",
    "ba_to_cbasis",
    "cbasis_to_free",
    "straighten",
    "normal_to_element",
    "word_product",
    "free_to_element",
]


class Monomial(NamedTuple):
    k: int  # exponent of C = [A, B]
    d: int  # grade: -l encodes C^k A^l, +l encodes B^l C^k

    def text(self) -> str:
        k, d = self.k, self.d
        if d < 0:
            letter = "A" if d == -1 else f"A^{-d}"
        elif d:
            letter = "B" if d == 1 else f"B^{d}"
        else:
            return ("C" if k == 1 else f"C^{k}") if k else "I"
        if not k:
            return letter
        c = "C" if k == 1 else f"C^{k}"
        return f"{c}*{letter}" if d < 0 else f"{letter}*{c}"


MONO_I = Monomial(0, 0)
MONO_A = Monomial(0, -1)
MONO_B = Monomial(0, 1)
MONO_C = Monomial(1, 0)


def grade(m: Monomial) -> int:
    """Z-grade of a basis monomial: the signed letter exponent d."""
    return m.d


def _mono_key(m: Monomial):
    return (m.d, m.k)


def _add_into(out: dict, terms: Iterable[tuple], c: Scalar | None = None,
              subtract: bool = False) -> dict:
    """out += c * terms (or -=, with ``subtract``) in place; returns ``out``.

    The one sparse sum.  ``terms`` is an iterable of (key, coefficient)
    pairs with nonzero coefficients, such as a dict's ``.items()`` or the
    output of `_mono_product`; a key whose sum cancels is deleted, so a
    terms dict never holds a zero.  ``c`` omitted means 1 and no multiply
    is done; a zero ``c`` leaves ``out`` as it is.
    """
    if c is not None and c.is_zero():
        return out
    for key, v in terms:
        if c is not None:
            v = v * c
        got = out.get(key)
        if got is None:
            out[key] = -v if subtract else v
            continue
        s = got - v if subtract else got + v
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
    return out


class Element:
    """A finite linear combination of basis monomials, canonically stored.

    Zero coefficients are removed eagerly; iteration follows the
    canonical order (grade d ascending, then k ascending).  Values are
    immutable: all arithmetic returns new elements.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: ScalarContext, terms: dict | None = None, _clean: bool = False):
        self.ctx = ctx
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            for m in terms:
                if m.k < 0:
                    raise ValueError(f"negative C exponent in {m}")
            self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx: ScalarContext) -> "Element":
        return cls(ctx, {}, _clean=True)

    @classmethod
    def monomial(cls, ctx: ScalarContext, m: Monomial, coeff: Scalar | None = None) -> "Element":
        return cls(ctx, {m: ctx.one() if coeff is None else coeff})

    @classmethod
    def identity(cls, ctx: ScalarContext) -> "Element":
        return cls.monomial(ctx, MONO_I)

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    def support(self) -> list[Monomial]:
        return sorted(self.terms, key=_mono_key)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        self.ctx.ensure_same(other.ctx)
        return Element(self.ctx, _add_into(dict(self.terms), other.terms.items()), _clean=True)

    def __sub__(self, other: "Element") -> "Element":
        self.ctx.ensure_same(other.ctx)
        out = _add_into(dict(self.terms), other.terms.items(), subtract=True)
        return Element(self.ctx, out, _clean=True)

    def __neg__(self) -> "Element":
        return Element(self.ctx, {m: -c for m, c in self.terms.items()}, _clean=True)

    def scale(self, s: Scalar) -> "Element":
        if s.is_zero():
            return Element.zero(self.ctx)
        return Element(self.ctx, {m: c * s for m, c in self.terms.items()}, _clean=True)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative powers of elements are not defined")
        out = Element.identity(self.ctx)
        for _ in range(n):
            out = multiply(out, self)
        return out

    # -- gradation --------------------------------------------------------

    def graded_components(self) -> dict[int, "Element"]:
        buckets: dict[int, dict] = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.d, {})[m] = c
        return {
            g: Element(self.ctx, t, _clean=True)
            for g, t in sorted(buckets.items())
        }

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({scalar_text(c)})*{m.text()}" for m, c in self.items())

    def __repr__(self) -> str:
        return f"Element<{self.text()}>"

    def to_json_obj(self) -> dict:
        obj: dict = {"mode": self.ctx.mode}
        if self.ctx.is_torsion:
            obj["p"] = self.ctx.p
        obj["terms"] = [
            {"k": m.k, "d": m.d, "coeff": format_scalar(c)} for m, c in self.items()
        ]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict, ctx: ScalarContext | None = None) -> "Element":
        """Inverse of :meth:`to_json_obj`; input it could not have written raises ValueError.

        Without ``ctx``, a torsion order above ``MAX_TORSION_ORDER`` raises
        ValueError before any context is built; with a matching ``ctx``
        any order reads.  Coefficients are read by `qscalar.parse_scalar`:
        a torsion coordinate is an int or a string ``n`` or ``n/d``, and a
        generic polynomial of degree above ``MAX_SERIALIZED_DEGREE`` raises
        ValueError before it is built.
        """
        if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
            raise ValueError("serialized element needs a 'terms' list")
        mode = obj.get("mode")
        p = _json_int(obj, "p") if mode == "torsion" else None
        if ctx is None:
            if p is not None and p > MAX_TORSION_ORDER:
                raise ValueError(f"serialized element has torsion order {p}, above the cap "
                                 f"{MAX_TORSION_ORDER}; pass its context to read it")
            ctx = ScalarContext(mode, p)
        elif (ctx.mode, ctx.p) != (mode, p):
            raise ContextMismatchError("serialized element belongs to a different context")
        # the constructor drops zero coefficients and rejects negative C exponents
        terms: dict = {}
        for t in obj["terms"]:
            m = Monomial(_json_int(t, "k"), _json_int(t, "d"))
            if m in terms:
                raise ValueError(f"serialized element repeats the monomial {m.text()}")
            terms[m] = parse_scalar(t.get("coeff"), ctx)
        return cls(ctx, terms)

    @classmethod
    def from_json(cls, s: str, ctx: ScalarContext | None = None) -> "Element":
        return cls.from_json_obj(json.loads(s), ctx)


def _json_int(obj, key: str) -> int:
    """obj[key] as an exact int: a float, a bool or a missing key raises ValueError."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not int:
        raise ValueError(f"serialized element needs an integer {key!r}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Structure-constant multiplication (one unmixed rule, one rule per mixed case)
# ---------------------------------------------------------------------------

def _mono_product(ctx: ScalarContext, x: Monomial, y: Monomial):
    """Product of two basis monomials as nonzero (Monomial, Scalar) pairs.

    A mixed rule drops each structure scalar that vanishes (q-Lucas zeros
    at a root of unity), so no caller filters them.
    """
    m, d1 = x
    k, d2 = y
    if d1 * d2 >= 0:
        # no letter passes a letter: A^n C^k = q^(nk) C^k A^n, C^m B^l = q^(ml) B^l C^m
        e = (-d1 * k if d1 < 0 else 0) + (m * d2 if d2 > 0 else 0)
        return ((Monomial(m + k, d1 + d2), ctx.q_power(e) if e else ctx.one()),)
    if d1 < 0:
        # C^m A^n . B^l C^k through A^j B^j = sum c_i(j) C^i, j = min(n, l); the leftover
        # A^(n-l) passes C^(i+k) on its right, the leftover B^(l-n) C^(m+i) on its left
        n, l = -d1, d2
        j = min(n, l)
        return tuple(
            (Monomial(m + i + k, l - n), c) for i in range(j + 1)
            if (c := scaled_struct_c(ctx, i, j, (i + k) * (n - l) if n >= l else (m + i) * (l - n)))
        )
    # B^n C^m . C^k A^l through B^j A^j = sum d_i(j) C^i with j = min(n, l)
    n, l = d1, -d2
    j = min(n, l)
    e = -(m + k) * j
    return tuple(
        (Monomial(m + k + i, n - l), c) for i in range(j + 1)
        if (c := scaled_struct_d(ctx, i, j, e))
    )


def multiply(x: Element, y: Element) -> Element:
    """Bilinear extension of the basis-monomial product `_mono_product`.

    Each pair of terms adds its monomial product, scaled by the product
    of the two coefficients, through `_add_into`.
    """
    ctx = x.ctx
    ctx.ensure_same(y.ctx)
    out: dict = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            _add_into(out, _mono_product(ctx, mx, my), cx * cy)
    return Element(ctx, out, _clean=True)


def _comm_kernel(ctx: ScalarContext, key: tuple) -> tuple:
    """The cancelled terms of [C^r1 x, C^r2 y] for ``key = (r1, d1, r2, d2)``.

    The two monomial products go through `_add_into`, the second one
    subtracted.
    """
    r1, d1, r2, d2 = key
    x, y = Monomial(r1, d1), Monomial(r2, d2)
    out = _add_into({}, _mono_product(ctx, x, y))
    return tuple(_add_into(out, _mono_product(ctx, y, x), subtract=True).items())


def _kernel_read(ctx: ScalarContext, x: Monomial, y: Monomial) -> tuple[tuple, int]:
    """(kernel, shift) for the bracket [x, y] of two basis monomials.

    The one statement of the residue and shift rule: [x, y] is the
    kernel of the ordered key (r1, d1, r2, d2) with every C exponent
    raised by ``shift`` = (k1 - r1) + (k2 - r2).  In generic mode r = k
    and the shift is 0.  In torsion mode C^p is central, so
    [C^(k1 + p) x, y] = C^p [C^k1 x, y] and r = k mod p.  The
    per-context table ``ctx._comm`` holds the signed kernel of each
    ordered key read.  A missing kernel is its twin (r2, d2, r1, d1)
    negated term by term when the twin is stored, since [y, x] = -[x, y];
    otherwise `_comm_kernel` builds it on unit monomials.  So the two
    monomial products are formed once per unordered key pair.
    """
    p = ctx.p
    k1, d1 = x
    k2, d2 = y
    r1 = k1 % p if p else k1
    r2 = k2 % p if p else k2
    table = ctx._comm
    key = (r1, d1, r2, d2)
    kernel = table.get(key)
    if kernel is None:
        twin = table.get((r2, d2, r1, d1))
        kernel = table[key] = (_comm_kernel(ctx, key) if twin is None
                               else tuple((mono, -coef) for mono, coef in twin))
    return kernel, k1 - r1 + k2 - r2


def bracket_support(ctx: ScalarContext, x: Monomial, y: Monomial) -> list[Monomial]:
    """The monomials of [x, y] for basis monomials x and y, in kernel order.

    They are the monomials of the signed kernel `_kernel_read` finds,
    each C exponent raised by its shift; no scalar is multiplied and no
    `Element` is built.  A kernel holds no zero coefficient and the
    shift maps monomials one to one, so this is the support of
    ``commutator`` of the two unit elements.
    """
    kernel, shift = _kernel_read(ctx, x, y)
    if shift:
        return [Monomial(mono.k + shift, mono.d) for mono, _ in kernel]
    return [mono for mono, _ in kernel]


def commutator(x: Element, y: Element) -> Element:
    """Lie bracket [x, y] = xy - yx, read from signed per-pair kernels.

    Each pair of terms reads its kernel and shift from `_kernel_read`
    and adds the kernel scaled by the product of the two coefficients;
    the kernel carries the sign of its ordered key, so every term is
    added.  The kernel read writes out the get/add/drop-zero step with
    the C shift folded in: through `_add_into` (a generator for the
    shift) the torsion-grid benchmark lost 4% ops/s and 10% median op
    time, in each of 4 alternating pairs of 8 s runs on a 2-core host.

    ``cx * cy`` is not formed when ``cy`` *is* the context's one object,
    nor ``cxy * coef`` when ``cxy`` is: the other factor is taken as it
    stands.  That is an identity test only; a coefficient equal to 1 held
    in another object still goes through ``__mul__``, which gives the
    same value.  Each pair of the
    ``lemma2`` grid brackets two unit elements, so on stored kernels it
    forms no scalar product at all: in-process on the default window
    (min of 60 warm grids, 3 alternating runs on a 2-core host), a lemma2
    check went from 3.0-3.5 to 2.6-2.8 us at p = 3 and from 3.6-4.0 to
    3.0-3.2 us at p = 5; ``BENCH_30.json`` has the end-to-end numbers.
    """
    ctx = x.ctx
    ctx.ensure_same(y.ctx)
    one = ctx._one
    out: dict = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            kernel, shift = _kernel_read(ctx, mx, my)
            cxy = cx if cy is one else cx * cy
            for mono, coef in kernel:
                if shift:
                    mono = Monomial(mono.k + shift, mono.d)
                term = coef if cxy is one else cxy * coef
                got = out.get(mono)
                if got is None:
                    out[mono] = term
                    continue
                s = got + term
                if s.is_zero():
                    del out[mono]
                else:
                    out[mono] = s
    return Element(ctx, out, _clean=True)


def graded_components(x: Element) -> dict[int, Element]:
    return x.graded_components()


# ---------------------------------------------------------------------------
# Free words and the straightening oracle
# ---------------------------------------------------------------------------

class FreePoly:
    """A scalar combination of words over {A, B}; '' is the identity word."""

    __slots__ = ("ctx", "words")

    def __init__(self, ctx: ScalarContext, words: dict | None = None):
        self.ctx = ctx
        self.words = {w: c for w, c in (words or {}).items() if not c.is_zero()}

    @classmethod
    def word(cls, ctx: ScalarContext, w: str, coeff: Scalar | None = None) -> "FreePoly":
        if set(w) - {"A", "B"}:
            raise ValueError(f"free words use the alphabet A, B only: {w!r}")
        return cls(ctx, {w: ctx.one() if coeff is None else coeff})

    def __add__(self, other: "FreePoly") -> "FreePoly":
        self.ctx.ensure_same(other.ctx)
        return FreePoly(self.ctx, _add_into(dict(self.words), other.words.items()))

    def __neg__(self) -> "FreePoly":
        return FreePoly(self.ctx, {w: -c for w, c in self.words.items()})

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        self.ctx.ensure_same(other.ctx)
        return FreePoly(self.ctx, _add_into(dict(self.words), other.words.items(), subtract=True))

    def scale(self, s: Scalar) -> "FreePoly":
        return FreePoly(self.ctx, {w: c * s for w, c in self.words.items()})

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        self.ctx.ensure_same(other.ctx)
        out: dict = {}
        for w1, c1 in self.words.items():
            _add_into(out, ((w1 + w2, c2) for w2, c2 in other.words.items()), c1)
        return FreePoly(self.ctx, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreePoly)
            and self.ctx == other.ctx
            and self.words == other.words
        )

    def __repr__(self) -> str:
        return f"FreePoly({self.words})"


def _fold_letter(ctx: ScalarContext, state: dict, letter: str) -> dict:
    """Append one letter to a normal-form state {(b, a): coeff}.

    Uses A^a B = q^a B A^a + {a}_q A^(a-1), an iterate of the defining
    relation, so the result equals any exhaustive rewriting.  Each of the
    two terms maps the keys of the state one to one; {a}_q vanishes at
    a = 0 (and at multiples of p), where the second adds nothing.
    """
    if letter == "A":
        return {(b, a + 1): c for (b, a), c in state.items()}
    out = {(b + 1, a): c * ctx.q_power(a) for (b, a), c in state.items()}
    return _add_into(out, (((b, a - 1), c * s) for (b, a), c in state.items()
                           if (s := q_int(ctx, a))))


def reduce_word(fp: FreePoly) -> dict:
    """Normal form of a word polynomial: coefficients on pairs (a, b).

    Repeatedly applying AB -> qBA + I terminates with every word in the
    shape B^a A^b; the map returned sends (a, b) to its coefficient.
    The result is independent of rewrite order (confluence is checked
    separately by the exhaustive rewriter).
    """
    ctx = fp.ctx
    total: dict = {}
    for w, c in fp.words.items():
        state = {(0, 0): c}
        for letter in w:
            state = _fold_letter(ctx, state, letter)
        _add_into(total, state.items())
    return total


def reduce_word_rewriting(ctx: ScalarContext, word: str, choose: Callable[[list[int]], int] | None = None) -> dict:
    """Straighten a single word by literal AB -> qBA + I rewriting.

    `choose` picks which occurrence to rewrite from the list of AB
    positions (default: leftmost).  Exists to exercise confluence; the
    fast `reduce_word` is the production path.
    """
    pending = [(word, ctx.one())]
    done: dict = {}
    while pending:
        w, c = pending.pop()
        occ = [i for i in range(len(w) - 1) if w[i] == "A" and w[i + 1] == "B"]
        if not occ:
            _add_into(done, (((w.count("B"), w.count("A")), c),))
            continue
        i = occ[0] if choose is None else occ[choose(occ)]
        pending.append((w[:i] + "BA" + w[i + 2:], c * ctx.q_power(1)))
        pending.append((w[:i] + w[i + 2:], c))
    return done


def ba_to_cbasis(a: int, b: int, ctx: ScalarContext) -> Element:
    """Express the normal word B^a A^b in the C basis.

    B^a A^b equals sum_i d_i(min(a,b)) applied to the matching basis
    family: C^i A^(b-a) when a <= b, B^(a-b) C^i when a > b.
    """
    if a < 0 or b < 0:
        raise ValueError("word exponents must be nonnegative")
    if a == 0 or b == 0:
        return Element.monomial(ctx, Monomial(0, a - b))
    j = min(a, b)
    d = -(b - a) if a <= b else a - b
    terms = {}
    for i in range(j + 1):
        c = struct_d(ctx, i, j)
        if not c.is_zero():
            terms[Monomial(i, d)] = c
    return Element(ctx, terms, _clean=True)


def cbasis_to_free(m: Monomial, ctx: ScalarContext) -> FreePoly:
    """Expand a basis monomial into free words via C = AB - BA."""
    if m.k < 0:
        raise ValueError("negative C exponent")
    c_gen = FreePoly(ctx, {"AB": ctx.one(), "BA": -ctx.one()})
    c_power = FreePoly(ctx, {"": ctx.one()})
    for _ in range(m.k):
        c_power = c_power * c_gen
    if m.d == 0:
        return c_power
    if m.d < 0:
        return c_power * FreePoly.word(ctx, "A" * (-m.d))
    return FreePoly.word(ctx, "B" * m.d) * c_power


def _mono_normal_form(ctx: ScalarContext, m: Monomial) -> dict:
    """Normal form of one basis monomial: `cbasis_to_free`, then `reduce_word`, once per context."""
    nf = ctx._mono_nf.get(m)
    if nf is None:
        nf = ctx._mono_nf[m] = reduce_word(cbasis_to_free(m, ctx))
    return nf


def straighten(x: Element) -> dict:
    """Normal form of an element through free words: pairs (a, b) to coefficients.

    The memoized normal forms of the basis monomials are combined with
    the coefficients of x.
    """
    ctx = x.ctx
    out: dict = {}
    for m, c in x.terms.items():
        _add_into(out, _mono_normal_form(ctx, m).items(), c)
    return out


def normal_to_element(ctx: ScalarContext, nf: dict) -> Element:
    """The element with normal form ``nf``, each B^a A^b through `ba_to_cbasis`."""
    out: dict = {}
    for (a, b), c in nf.items():
        _add_into(out, ba_to_cbasis(a, b, ctx).terms.items(), c)
    return Element(ctx, out, _clean=True)


def free_to_element(fp: FreePoly) -> Element:
    """Oracle conversion: straighten a word polynomial, then change basis."""
    return normal_to_element(fp.ctx, reduce_word(fp))


def _letters_fold(ctx: ScalarContext, m: int, n: int) -> dict:
    """Normal form of A^m B^n, memoized per context."""
    got = ctx._awb.get((m, n))
    if got is None:
        state = {(0, m): ctx.one()}
        for _ in range(n):
            state = _fold_letter(ctx, state, "B")
        got = state
        ctx._awb[(m, n)] = got
    return got


def normal_word_product(ctx: ScalarContext, nf1: dict, nf2: dict) -> dict:
    """Straightened product of two already-straightened word polynomials.

    Inputs and output map (a, b) to the coefficient of B^a A^b.  Only the
    defining relation is used, through the memoized A^m B^n fold, so the
    result agrees with straightening the concatenated words directly
    (confluence) without materializing them.
    """
    out: dict = {}
    for (a1, b1), c1 in nf1.items():
        for (a2, b2), c2 in nf2.items():
            fold = _letters_fold(ctx, b1, a2)
            _add_into(out, (((a + a1, b + b2), w) for (a, b), w in fold.items()), c1 * c2)
    return out


def word_product(x: Element, y: Element) -> Element:
    """x * y on the word route: the sum of c1 * c2 * K(m1, m2) over term pairs.

    K(m1, m2) is the element whose normal form is the straightened
    product of the normal forms of m1 and m2 (`normal_word_product`, then
    `normal_to_element`).  The route is linear, so this equals
    straightening and multiplying whole elements.  Each K is built on
    its first read and kept in the per-context table ``ctx._word``, keyed
    by the ordered pair of full monomials: it uses only the defining
    relation (no C^p centrality, no residue keys), and neither the
    product loop of `multiply` nor the commutator table is read.
    """
    ctx = x.ctx
    ctx.ensure_same(y.ctx)
    table = ctx._word
    out: dict = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            kernel = table.get((m1, m2))
            if kernel is None:
                nf = normal_word_product(ctx, _mono_normal_form(ctx, m1), _mono_normal_form(ctx, m2))
                kernel = table[(m1, m2)] = tuple(normal_to_element(ctx, nf).terms.items())
            _add_into(out, kernel, c1 * c2)
    return Element(ctx, out, _clean=True)
