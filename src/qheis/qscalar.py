"""Exact coefficient arithmetic for the deformed Heisenberg algebra.

Two scalar fields are supported, selected by a :class:`ScalarContext`:

* generic mode -- the field of rational functions in an indeterminate ``q``,
  each stored as ``q^v * num/den`` with integer polynomials num and den
  that do not vanish at 0, kept in canonical reduced form so that equality
  is structural.  A power of q is its valuation v alone, so ``q^n`` costs
  O(1) whatever n.  Every denominator the algebra produces has the form
  ``c * (q-1)^b`` (the structure scalars carry ``(q-1)^(-l)``), so a sum
  is taken over the lcm of the two denominators (Henrici's rational
  addition, Knuth, TAOCP vol. 2, 4.5.1) and a product cancels (q - 1)
  only across the operands, by synthetic division at 1 (a denominator 1
  is the case c = 1, b = 0); a polynomial gcd runs only for a
  denominator with some other factor;
* torsion mode -- the cyclotomic field generated by a primitive ``p``-th
  root of unity, represented by integer numerators over the power basis
  ``1, q, ..., q^(phi(p)-1)`` modulo the ``p``-th cyclotomic polynomial,
  all over one common positive integer denominator.  Arithmetic is
  integer arithmetic with one gcd normalization per result; ``Fraction``
  appears only where scalars are built from or written as rationals.

Both fields raise powers by one square-and-multiply (:func:`_power`) and
write their text through one signed-term writer (:func:`_terms_text`).

On top of the two fields the module provides the q-combinatorial scalars:
q-integers, Gaussian (q-)binomial coefficients, and the structure-constant
scalars ``c_i(l)``, ``d_i(l)`` used by the multiplication engine, which
with their q-shifts fill one memo per context.  Gaussian binomials come
from the product formula over Z[q], one row per n; the structure scalars
take them from there in generic mode and through the q-Lucas
factorization in torsion mode, where only rows below the order p are
built.

No floating point is used anywhere.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "MAX_TORSION_ORDER",
    "MAX_SERIALIZED_DEGREE",
    "ScalarContext",
    "GenericScalar",
    "CycloScalar",
    "Scalar",
    "power_bits",
    "ContextMismatchError",
    "cyclotomic_poly",
    "q_int",
    "q_binomial",
    "q_binomial_lucas",
    "inv_qm1_power",
    "struct_c",
    "struct_d",
    "specialize",
    "format_scalar",
    "scalar_text",
    "parse_scalar",
]


class ContextMismatchError(ValueError):
    """Raised when scalar contexts are mixed, or a generic one reaches a torsion-only operation."""


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient tuples, ascending degree)
# ---------------------------------------------------------------------------

IntPoly = tuple  # tuple of ints, no trailing zeros; () is the zero polynomial

P_ZERO: IntPoly = ()
P_ONE: IntPoly = (1,)


def _ptrim(coeffs) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a: IntPoly) -> IntPoly:
    return tuple(-x for x in a)


def _pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) == 1:  # a constant, as in each structure scalar's (q-1)^(-l) times a binomial
        return b if a[0] == 1 else tuple([a[0] * y for y in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _pdiv_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division of integer polynomials with integral quotient.

    Valid whenever b genuinely divides a over Z (dividing by a primitive
    factor or by a monic polynomial); raises otherwise.
    """
    if not a:
        return P_ZERO
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        top = rem[i + len(b) - 1]
        if top % lead:
            raise ArithmeticError("polynomial quotient is not integral")
        f = top // lead
        if f:
            quo[i] = f
            for j, d in enumerate(b):
                rem[i + j] -= f * d
    if any(rem):
        raise ArithmeticError("polynomial division is not exact")
    return _ptrim(quo)


def _primitive(a: list) -> list:
    cont = 0
    for x in a:
        cont = math.gcd(cont, x)
    if cont > 1:
        return [x // cont for x in a]
    return a


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b over Z (a is scaled by powers of lead(b))."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        top = a[-1]
        a = [x * lead for x in a]
        shift = len(a) - len(b)
        for j, d in enumerate(b):
            a[shift + j] -= top * d
        a.pop()  # the leading term cancels exactly
        while a and a[-1] == 0:
            a.pop()
    return a


def _pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over Z (positive leading coefficient), primitive PRS."""
    fa = _primitive(list(a))
    fb = _primitive(list(b))
    while fa and fa[-1] == 0:
        fa.pop()
    while fb and fb[-1] == 0:
        fb.pop()
    while fb:
        if len(fa) < len(fb):
            fa, fb = fb, fa
            continue
        rem = _pseudo_rem(fa, fb)
        fa, fb = fb, _primitive(rem)
    if not fa:
        return P_ZERO
    if fa[-1] < 0:
        fa = [-x for x in fa]
    return tuple(fa)


def _div_qm1(a: IntPoly) -> IntPoly:
    """Quotient of a by (q - 1) by synthetic division; a must vanish at 1.

    The coefficient of q^(k-1) in the quotient is a_k + a_(k+1) + ... .
    """
    out = []
    acc = 0
    for x in reversed(a[1:]):
        acc += x
        out.append(acc)
    out.reverse()
    return tuple(out)


def _mul_qm1(a: IntPoly, m: int) -> IntPoly:
    """a * (q - 1)^m for a nonzero a, one shift-and-subtract per factor."""
    for _ in range(m):
        a = tuple([x - y for x, y in zip((0, *a), (*a, 0))])
    return a


def _qm1_power(c: int, b: int) -> IntPoly:
    """c * (q - 1)^b, coefficient by coefficient from the top."""
    out = [0] * (b + 1)
    term = c  # c * (-1)^(b-k) * binom(b, k) for k = b, b-1, ..., 0
    for k in range(b, -1, -1):
        out[k] = term
        term = -term * k // (b - k + 1)
    return tuple(out)


def _is_qm1_power(a: IntPoly) -> bool:
    """True when the nonzero a is c * (q - 1)^b for integers c, b.

    Compares a with c * (q - 1)^b coefficient by coefficient, binomial
    by binomial from the top, so it costs O(b) integer operations.
    """
    b = k = len(a) - 1
    term = a[-1]
    while k:
        if a[k] != term:
            return False
        term = -term * k // (b - k + 1)
        k -= 1
    return a[0] == term


def _strip_qm1(num: IntPoly, b: int) -> tuple:
    """(num / (q-1)^j, b - j) for the largest j <= b with (q - 1)^j dividing num."""
    while b and sum(num) == 0:
        num, b = _div_qm1(num), b - 1
    return num, b


def _valuation(a: IntPoly) -> int:
    """The exponent of the lowest nonzero term of the nonzero a."""
    i = 0
    while a[i] == 0:
        i += 1
    return i


def _cancel(num: IntPoly, den: IntPoly) -> tuple:
    """Canonical (num, den) of the fraction num/den; both nonzero at 0.

    Common powers of (q - 1) are cancelled directly.  What is left has no
    common factor q - 1, so when either side is constant, or the
    denominator is c * (q-1)^b, the gcd is a constant and no polynomial
    gcd runs; otherwise ``_pgcd`` removes the remaining common factor.
    Last, the integer content and the sign of the denominator's leading
    coefficient are normalized.
    """
    while sum(num) == 0 and sum(den) == 0:
        num, den = _div_qm1(num), _div_qm1(den)
    if len(num) > 1 and not _is_qm1_power(den):
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
    cn = math.gcd(*num, *den)
    if den[-1] < 0:
        cn = -cn
    if cn != 1:
        num = tuple([x // cn for x in num])
        den = tuple([x // cn for x in den])
    return num, den


def _terms_text(coeffs: Iterable, e: int, step: int, den: int = 1) -> str:
    """Signed text of the sum of (c/den) * q^e over coeffs in order, e moving by step, zeros skipped."""
    parts = []
    for c in coeffs:
        if c:
            body = str(abs(c)) if den == 1 else _rational_text(abs(c), den)
            if e:
                head = "q" if e == 1 else f"q^{e}"
                body = head if body == "1" else f"{body}*{head}"
            if parts:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
            else:
                parts.append(body if c > 0 else f"-{body}")
        e += step
    return " ".join(parts) or "0"


def poly_to_str(a: IntPoly, shift: int = 0) -> str:
    """Sparse text form of q^shift * a (shift >= 0), descending degree, e.g. ``3*q^5 - q + 2``."""
    return _terms_text(reversed(a), len(a) - 1 + shift, -1)


# Largest degree of a polynomial read from text: 80 times the largest
# exponent in the output of generic normalize "A^160*B^160" (12,880).  At
# the cap a read takes about 0.1 s and 41 MB; the list it fills grows with
# the degree, whatever the length of the text.
MAX_SERIALIZED_DEGREE = 1 << 20

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>[0-9]+)\s*\*?\s*)?(?:(?P<var>q)(?:\^(?P<exp>[0-9]+))?)?\s*"
)


def poly_from_str(s: str) -> IntPoly:
    """Inverse of :func:`poly_to_str`; a degree above ``MAX_SERIALIZED_DEGREE``
    raises ValueError before any coefficient list is built."""
    s = s.strip()
    if s in ("0", "-0", "+0"):
        return P_ZERO
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {s!r} at offset {pos}")
        sign, coef, v, exp = m.group("sign", "coef", "var", "exp")
        if coef is None and v is None:
            raise ValueError(f"cannot parse polynomial {s!r} at offset {pos}")
        if sign is None and not first:
            raise ValueError(f"missing sign in polynomial {s!r} at offset {pos}")
        c = int(coef) if coef is not None else 1
        if sign == "-":
            c = -c
        e = 0 if v is None else 1 if exp is None else int(exp)
        if e > MAX_SERIALIZED_DEGREE:
            raise ValueError(f"polynomial exponent above the cap MAX_SERIALIZED_DEGREE = "
                             f"{MAX_SERIALIZED_DEGREE} at offset {pos}")
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
        first = False
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return _ptrim(out)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

_CYCLO_CACHE: dict[int, IntPoly] = {}


def cyclotomic_poly(p: int) -> IntPoly:
    """The p-th cyclotomic polynomial as an integer coefficient tuple.

    Computed by exact division: x^p - 1 divided by the product of the
    cyclotomic polynomials of the proper divisors of p.  The result is
    monic with integer coefficients and divides x^p - 1 exactly.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p in _CYCLO_CACHE:
        return _CYCLO_CACHE[p]
    xp_minus_1 = _ptrim([-1] + [0] * (p - 1) + [1])
    divisor = P_ONE
    for d in range(1, p):
        if p % d == 0:
            divisor = _pmul(divisor, cyclotomic_poly(d))
    phi = _pdiv_exact(xp_minus_1, divisor)
    _CYCLO_CACHE[p] = phi
    return phi


def _galois_chain(p: int) -> tuple:
    """Pairs (g, n) that build the unit group (Z/p)^x as a chain of cyclic steps.

    With H_0 = {1} and H_(j+1) = H_j <g_j>, n_j is the order of g_j
    modulo H_j (the least n with g_j^n in H_j), so the powers g_j^i,
    i < n_j, are coset representatives of H_j in H_(j+1), and the last H
    is the whole group.  Each g_j is the smallest unit of largest order
    modulo H_j: one step when the group is cyclic (p prime, for one),
    more when it is not (two at p = 8 and 128, three at p = 24).
    """
    units = [k for k in range(2, p) if math.gcd(k, p) == 1]
    order = len(units) + 1
    group, chain = {1}, []
    while len(group) < order:
        best = (0, 0)
        for g in units:
            n, h = 1, g
            while h not in group:
                h = h * g % p
                n += 1
            if n > best[1]:
                best = (g, n)
                if n * len(group) == order:  # no order modulo H exceeds |G| / |H|
                    break
        g, n = best
        chain.append(best)
        group = {h * pow(g, i, p) % p for h in group for i in range(n)}
    return tuple(chain)


# ---------------------------------------------------------------------------
# Scalar context
# ---------------------------------------------------------------------------

# Work budget on a torsion order read from input (the CLI's --p, a JSON
# element read without a context).  Measured in-process on a 2-core x86-64
# host: at p = 127 a default closure takes 0.1 s and normalize
# "A^126*B^126" 0.6 s; normalize "A^(p-1)*B^(p-1)" passes 1 s near p = 150
# (1.3 s at p = 149, 8 s at p = 257), its cost then being dense cyclotomic
# products.  A context's reduction table alone holds p * phi(p) integers.
MAX_TORSION_ORDER = 128


class ScalarContext:
    """Carrier for the scalar field: generic q or a primitive p-th root.

    Every operation that holds only at a root of unity (the q-Lucas
    binomials, specialization, the torsion claims, the Lie layer and its
    suites) first calls :meth:`require_torsion`, the one place that
    refuses a generic context with `ContextMismatchError`.

    Contexts are shareable across threads under one rule: a table value
    is never changed after it is stored.  Each entry is computed on the
    side and stored with one assignment, so a racing thread at worst
    recomputes an entry or replaces it with an equal one (for ``_qbin``,
    possibly a shorter prefix of the same row).  The scalar tables
    (``_qbin``, ``_struct``, ``_inv_qm1``, ``_inv``, ``_text``) belong to
    this module: ``_inv`` maps the canonical ``(num, den)`` of each torsion
    scalar inverted through the Galois norm to its inverse, and stays
    empty in generic mode, where an inverse is a swap; ``_text`` maps the
    canonical ``(num, den)`` of each torsion scalar rendered by
    :func:`scalar_text` to its text, and stays empty in generic mode,
    where the CLI builds a fresh context for each query.  A torsion
    context also keeps ``_galois``, the chain of cyclic steps through
    the Galois group (Z/p)^x (see :func:`_galois_chain`) along which
    the norm is multiplied up, built once in the constructor.
    ``_mono_nf`` and ``_awb`` hold the word oracle's normal forms,
    ``_word`` its straightened product per ordered pair of basis
    monomials, and ``_comm`` the cancelled commutator kernels of
    `heisenberg.commutator`, and only `heisenberg` reads them.
    ``_bracket`` maps the id of each shared ad-chain node that
    `liepoly.eval_bracket_expr` has evaluated to its value, and
    ``_witness`` each basis monomial other than A, B and C to the bracket
    expression `liepoly.construct_basis_element` built for it, stored
    once with ``setdefault``; only `liepoly` reads them.
    """

    __slots__ = (
        "mode", "p", "modulus", "phi", "_red", "_zero", "_one", "_qbin",
        "_struct", "_qpow", "_inv_qm1", "_inv", "_galois", "_mono_nf", "_awb",
        "_word", "_comm", "_text", "_bracket", "_witness",
    )

    def __init__(self, mode: str, p: int | None = None):
        if mode not in ("generic", "torsion"):
            raise ValueError("mode must be 'generic' or 'torsion'")
        if mode == "torsion":
            if p is None or p < 2:
                raise ValueError("torsion mode requires an order p >= 2")
            self.modulus = cyclotomic_poly(p)
            phi = self.phi = len(self.modulus) - 1
            # reduction table: q^j mod Phi_p for 0 <= j < p; Phi_p is monic,
            # so every entry is an integer vector
            red = []
            for j in range(p):
                if j < phi:
                    vec = [0] * phi
                    vec[j] = 1
                else:
                    vec = [0] + list(red[j - 1])
                    top = vec.pop()
                    if top:
                        for i in range(phi):
                            vec[i] -= top * self.modulus[i]
                red.append(tuple(vec))
            self._red = tuple(red)
            self._qpow = tuple(CycloScalar(self, vec, 1) for vec in red)
            self._zero = CycloScalar(self, (0,) * phi, 1)
            self._one = self._qpow[0]
            self._galois = _galois_chain(p)
        else:
            if p is not None:
                raise ValueError("generic mode takes no order")
            self.modulus = None
            self.phi = 0
            self._red = self._qpow = self._galois = ()
            self._zero = _G_ZERO
            self._one = _G_ONE
        self.mode = mode
        self.p = p
        self._qbin: dict = {}
        self._struct: dict = {}
        self._inv_qm1: dict = {}
        self._inv: dict = {}
        self._text: dict = {}
        self._mono_nf: dict = {}
        self._awb: dict = {}
        self._word: dict = {}
        self._comm: dict = {}
        self._bracket: dict = {}
        self._witness: dict = {}

    @classmethod
    def generic(cls) -> "ScalarContext":
        return cls("generic")

    @classmethod
    def torsion(cls, p: int) -> "ScalarContext":
        return cls("torsion", p)

    @property
    def is_torsion(self) -> bool:
        return self.mode == "torsion"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarContext)
            and self.mode == other.mode
            and self.p == other.p
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.p))

    def __repr__(self) -> str:
        if self.is_torsion:
            return f"ScalarContext(torsion, p={self.p})"
        return "ScalarContext(generic)"

    # -- constructors -------------------------------------------------

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def q(self) -> "Scalar":
        return self.q_power(1)

    def from_int(self, n: int) -> "Scalar":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, f: Fraction) -> "Scalar":
        f = Fraction(f)
        if self.is_torsion:
            return CycloScalar(self, (f.numerator,) + (0,) * (self.phi - 1), f.denominator)
        if not f:
            return _G_ZERO
        return _generic(0, (f.numerator,), (f.denominator,))

    def q_power(self, n: int) -> "Scalar":
        """q^n; negative n allowed (inverse power).  O(1) in both modes."""
        if self.is_torsion:
            return self._qpow[n % self.p]
        return _generic(n, P_ONE, P_ONE)

    def ensure_same(self, other: "ScalarContext") -> None:
        if other is not self and self != other:
            raise ContextMismatchError(f"context mismatch: {self} vs {other}")

    def require_torsion(self, what: str) -> None:
        """Refuse a generic context for the operation `what` (formatted only on a raise)."""
        if self.mode != "torsion":
            raise ContextMismatchError(f"{what} needs a torsion context")


# ---------------------------------------------------------------------------
# Generic scalars: q^v times a reduced fraction of integer polynomials in q
# ---------------------------------------------------------------------------

class GenericScalar:
    """A rational function in q, stored as ``q^v * num/den``, canonically reduced.

    Canonical form: num and den do not vanish at q = 0 (the power of q
    lives in v alone), gcd(num, den) is constant, gcd of the integer
    contents is 1, and the denominator has positive leading coefficient;
    zero is ``(0, (), (1,))``.  Equality is therefore structural.

    The constructor takes a dense numerator and denominator, q-powers
    included, splits off the valuation and canonicalizes through
    :func:`_cancel`, which reaches the polynomial gcd only for a
    denominator with a factor other than q - 1.  Sums and products whose
    denominators are both c * (q-1)^b -- everything the algebra itself
    makes, 1 included -- are reduced directly and built by
    :func:`_generic`; any other denominator is cross-multiplied and goes
    through the constructor.  No scalar changes after it is made.  A sum
    whose numerator, lifted to the lower valuation, would have degree above
    ``MAX_SERIALIZED_DEGREE`` raises ValueError before the lift, and so
    does a cross-multiplied sum or a product whose numerator or
    denominator would, before it is multiplied out, so every scalar built
    can be read back by :func:`parse_scalar`.  The valuation is not
    capped: q^n is one integer.
    """

    __slots__ = ("v", "num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.v, self.num, self.den = 0, P_ZERO, P_ONE
            return
        i, j = _valuation(num), _valuation(den)
        self.v = i - j
        self.num, self.den = _cancel(num[i:], den[j:])

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenericScalar)
            and self.v == other.v
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.v, self.num, self.den))

    # -- field operations ----------------------------------------------

    def __add__(self, other: "GenericScalar") -> "GenericScalar":
        if not other.num:
            return self
        if not self.num:
            return other
        # only the operand of larger valuation is shifted
        low, high = (self, other) if self.v <= other.v else (other, self)
        v, n1, d1, n2, d2 = low.v, low.num, low.den, high.num, high.den
        if high.v > v:
            # refused before the dense lift, so every sum built can be read back
            _check_degrees("sum", high.v - v + len(n2) - 1, 0)
            n2 = (0,) * (high.v - v) + n2
        if not (_is_qm1_power(d1) and _is_qm1_power(d2)):
            _check_degrees("sum", max(len(n1) + len(d2), len(n2) + len(d1)) - 2,
                           len(d1) + len(d2) - 2)
            return _cross_cancelled(v, _padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
        # over lcm(c1, c2) (q-1)^b, b = max(b1, b2), each numerator lifted to it
        c1, c2, b, b2 = d1[-1], d2[-1], len(d1) - 1, len(d2) - 1
        c = math.lcm(c1, c2)
        if c != c1:
            n1 = tuple([x * (c // c1) for x in n1])
        if c != c2:
            n2 = tuple([x * (c // c2) for x in n2])
        if b < b2:
            n1, b = _mul_qm1(n1, b2 - b), b2
        elif b > b2:
            n2 = _mul_qm1(n2, b - b2)
        num = _padd(n1, n2)
        if not num:
            return _G_ZERO
        i = _valuation(num)
        if i:
            num, v = num[i:], v + i
        if b:
            num, b = _strip_qm1(num, b)
        return _generic(v, *_drop_content(num, c, b))

    def __sub__(self, other: "GenericScalar") -> "GenericScalar":
        return self + (-other)

    def __neg__(self) -> "GenericScalar":
        return _generic(self.v, _pneg(self.num), self.den)

    def __mul__(self, other: "GenericScalar") -> "GenericScalar":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1 or not n2:
            return _G_ZERO
        # a power of q (1 included) only moves the valuation; scalars are immutable
        v = self.v + other.v
        if n2 == P_ONE and d2 == P_ONE:
            return _generic(v, n1, d1) if other.v else self
        if n1 == P_ONE and d1 == P_ONE:
            return _generic(v, n2, d2) if self.v else other
        if not (_is_qm1_power(d1) and _is_qm1_power(d2)):
            _check_degrees("product", len(n1) + len(n2) - 2, len(d1) + len(d2) - 2)
            return _cross_cancelled(v, _pmul(n1, n2), _pmul(d1, d2))
        # each side is reduced, so only a factor q - 1 of one numerator can
        # meet the other denominator
        b1, b2 = len(d1) - 1, len(d2) - 1
        if b2:
            n1, b2 = _strip_qm1(n1, b2)
        if b1:
            n2, b1 = _strip_qm1(n2, b1)
        _check_degrees("product", len(n1) + len(n2) - 2, b1 + b2)
        return _generic(v, *_drop_content(_pmul(n1, n2), d1[-1] * d2[-1], b1 + b2))

    def inverse(self) -> "GenericScalar":
        num, den = self.num, self.den
        if not num:
            raise ZeroDivisionError("inverse of zero scalar")
        # swapping a canonical pair keeps it reduced; only the sign moves
        if num[-1] < 0:
            return _generic(-self.v, _pneg(den), _pneg(num))
        return _generic(-self.v, den, num)

    def __truediv__(self, other: "GenericScalar") -> "GenericScalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "GenericScalar":
        return _power(self, n, _G_ONE)

    def __repr__(self) -> str:
        return f"GenericScalar({format_scalar(self)!r})"


def _check_degrees(what: str, num_degree: int, den_degree: int) -> None:
    """Refuse a sum or product (`what`) whose numerator or denominator would
    have degree above ``MAX_SERIALIZED_DEGREE``, before it is built."""
    for part, degree in (("numerator", num_degree), ("denominator", den_degree)):
        if degree > MAX_SERIALIZED_DEGREE:
            raise ValueError(f"{what} has a {part} of degree {degree}, above the cap "
                             f"MAX_SERIALIZED_DEGREE = {MAX_SERIALIZED_DEGREE}")


def _generic(v: int, num: IntPoly, den: IntPoly) -> GenericScalar:
    """q^v * num/den from a pair already canonical, bypassing the constructor."""
    s = object.__new__(GenericScalar)
    s.v, s.num, s.den = v, num, den
    return s


_G_ZERO = _generic(0, P_ZERO, P_ONE)
_G_ONE = _generic(0, P_ONE, P_ONE)


def _drop_content(num: IntPoly, c: int, b: int) -> tuple:
    """(num', c' (q-1)^b) for num / (c (q-1)^b), c > 0, with the integer content moved out."""
    g = math.gcd(c, *num)
    if g != 1:
        num, c = tuple([x // g for x in num]), c // g
    return num, P_ONE if c == 1 and not b else _qm1_power(c, b)


def _cross_cancelled(v: int, num: IntPoly, den: IntPoly) -> GenericScalar:
    """q^v * num/den for any cross-multiplied pair (num may be zero), through
    the constructor's gcd route; the valuation is added after."""
    s = GenericScalar(num, den)
    return _generic(s.v + v, s.num, s.den) if s.num else s


def _power(x: "Scalar", n: int, one: "Scalar") -> "Scalar":
    """x^n by square-and-multiply, with one the unit of x's field; n < 0 inverts x first."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# Cyclotomic scalars: integer vectors over one denominator, modulo Phi_p
# ---------------------------------------------------------------------------

def _cyclo_mul(a: tuple, b: tuple, ctx: ScalarContext) -> list:
    """Integer product of two numerator vectors, reduced modulo Phi_p."""
    phi = ctx.phi
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:phi]
    red, p = ctx._red, ctx.p
    for e in range(phi, 2 * phi - 1):
        c = prod[e]
        if c:
            for i, r in enumerate(red[e % p]):
                if r:
                    out[i] += c * r
    return out


def _cyclo_eval(terms: Iterable, ctx: ScalarContext) -> list:
    """Integer vector of sum(c * q^e) over (e, c) pairs, reduced modulo Phi_p."""
    out = [0] * ctx.phi
    red, p = ctx._red, ctx.p
    for e, c in terms:
        if c:
            for i, r in enumerate(red[e % p]):
                if r:
                    out[i] += c * r
    return out


def _cyclo_conj(a, k: int, ctx: ScalarContext) -> list:
    """sigma_k(a) for k a unit mod p: the automorphism that maps q^j to q^(j*k)."""
    return _cyclo_eval(((j * k, x) for j, x in enumerate(a)), ctx)


def _norm_cofactor(a: tuple, ctx: ScalarContext) -> tuple:
    """(prod_{k != 1} sigma_k(a), N(a)) for a nonzero numerator vector a.

    Walks the context's Galois chain: with N_H(a) the product of the
    conjugates over H, N_(H<g>)(a) = prod_(i < n) sigma_g^i(N_H(a)), and
    the cofactor gains the factors with i >= 1.  The run
    P(m) = prod_(i < m) sigma_g^i(y) doubles as P(2m) = P(m) sigma_g^m(P(m))
    and steps as P(m + 1) = y sigma_g(P(m)), so a step of order n costs
    O(log n) products (the "rotate and combine" of Halevi and Shoup,
    Algorithms in HElib, 2014) where the conjugates one by one cost n.
    """
    p = ctx.p
    cof, norm = None, a
    for g, n in ctx._galois:
        # rest = P(n - 1) for y = sigma_g(norm), i.e. prod_(1 <= i < n) sigma_g^i(norm)
        y = rest = _cyclo_conj(norm, g, ctx)
        m = 1
        for bit in bin(n - 1)[3:]:
            rest = _cyclo_mul(rest, _cyclo_conj(rest, pow(g, m, p), ctx), ctx)
            m *= 2
            if bit == "1":
                rest = _cyclo_mul(y, _cyclo_conj(rest, g, ctx), ctx)
                m += 1
        cof = rest if cof is None else _cyclo_mul(cof, rest, ctx)
        norm = _cyclo_mul(norm, rest, ctx)
    return cof, norm[0]


def _cyclo_sum(a: "CycloScalar", b: "CycloScalar", op) -> "CycloScalar":
    """op(a, b) for op ``operator.add`` or ``operator.sub``, over the lcm of the denominators.

    Over their product, the integers and the final gcd grow with den^2:
    a sum of two scalars over 343 took 2.05 us at p = 7 and 15.4 us at
    p = 127, against 1.46 and 9.4 us over the lcm (best of 5 runs of
    20,000 on a 2-core x86-64 host).  Unequal coprime denominators cost
    the same either way.
    """
    a.ctx.ensure_same(b.ctx)
    da, db = a.den, b.den
    g = math.gcd(da, db)
    ma, mb = db // g, da // g
    return _cyclo_canonical(a.ctx, [op(x * ma, y * mb) for x, y in zip(a.num, b.num)], da * ma)


def _cyclo_canonical(ctx: ScalarContext, num: list | tuple, den: int) -> "CycloScalar":
    """The scalar num/den (den != 0) with common factors and the sign moved out."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        return CycloScalar(ctx, tuple([x // g for x in num]), den // g)
    return CycloScalar(ctx, tuple(num), den)


class CycloScalar:
    """An element of the cyclotomic field of order p.

    Stored as ``num / den``: exactly phi(p) integer numerators over the
    power basis, reduced modulo the cyclotomic polynomial, and one
    common integer denominator.  The form is canonical -- ``den > 0``,
    ``gcd(den, *num) == 1``, and zero is ``(0, ..., 0) / 1`` -- so
    zero-testing and equality are plain tuple comparisons.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: ScalarContext, num: tuple, den: int):
        self.ctx = ctx
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloScalar)
            and self.ctx == other.ctx
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.num, self.den))

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        return _cyclo_sum(self, other, operator.add)

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        return _cyclo_sum(self, other, operator.sub)

    def __neg__(self) -> "CycloScalar":
        return CycloScalar(self.ctx, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        ctx = self.ctx
        ctx.ensure_same(other.ctx)
        # 75%, 81% and 84% of the products of `verify all` at p = 3, 5, 7 have an operand equal to 1
        one = ctx._one.num
        if other.den == 1 and other.num == one:
            return self
        if self.den == 1 and self.num == one:
            return other
        return _cyclo_canonical(ctx, _cyclo_mul(self.num, other.num, ctx), self.den * other.den)

    def inverse(self) -> "CycloScalar":
        """1 / self; a rational inverts directly, any other scalar by its norm.

        x * prod_{k != 1} sigma_k(x) is the norm N(x), a nonzero integer,
        where sigma_k (k a unit mod p) maps q^j to q^(j*k).  The cofactor
        is multiplied up along the context's Galois chain in O(log phi(p))
        products (:func:`_norm_cofactor`), and each result is kept in the
        context's ``_inv`` table, so a scalar is inverted once per context.
        """
        ctx, num, den = self.ctx, self.num, self.den
        if not any(num[1:]):
            c = num[0]
            if not c:
                raise ZeroDivisionError("inverse of zero scalar")
            return _cyclo_canonical(ctx, [den] + [0] * (ctx.phi - 1), c)
        got = ctx._inv.get((num, den))
        if got is None:
            others, norm = _norm_cofactor(num, ctx)
            got = ctx._inv[num, den] = _cyclo_canonical(ctx, [den * x for x in others], norm)
        return got

    def __truediv__(self, other: "CycloScalar") -> "CycloScalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycloScalar":
        return _power(self, n, self.ctx._one)

    def __repr__(self) -> str:
        return f"CycloScalar(p={self.ctx.p}, {format_scalar(self)})"


Scalar = Union[GenericScalar, CycloScalar]


def power_bits(s: Scalar) -> int:
    """A bit length b such that s^n writes an integer of at least n*(b - 1) + 1
    bits for every n >= 1, read from s's integer parts (0 for zero).  It is
    the one size rule on a scalar power that `exprparse` takes.

    A rational a/b in lowest terms gives, in either mode, the larger bit
    length of a and b, exactly: its n-th power writes a^n and b^n.
    Generic: s^n is q^(nv) num^n / den^n, already reduced, whose end
    coefficients are the n-th powers of those of num and den.  Torsion:
    the numerators of s^n are multiples of c^n, c the content gcd(num)
    (Gauss's lemma, and reduction mod the monic Phi_p keeps the content),
    and c is prime to den, so cancelling den^n leaves c^n.

    A torsion denominator is read through the norm N, since a power can
    cancel part of it (((1 - q)/3)^2 = -q/3 at p = 3).  For s = a/den,
    N(a) is an integer of at most |a|_1^phi (no conjugate of a exceeds
    |a|_1 = sum |a_i|), so N(s) has a denominator of at least
    (den/|a|_1)^phi.  N(s^n) = N(s)^n, and its denominator divides D^phi,
    D the reduced denominator of s^n, so D >= (den/|a|_1)^n.  D is the
    lcm of the phi denominators written, one per coordinate in lowest
    terms, so one of them is at least D^(1/phi).
    """
    if not s:
        return 0
    if isinstance(s, GenericScalar):
        parts = (s.num[0], s.num[-1], s.den[0], s.den[-1])
    elif any(s.num[1:]):
        # den/|a|_1 > 2^(bits(den) - 1 - bits(|a|_1)), taken to the power n/phi
        norm_bits = (s.den.bit_length() - 1 - sum(map(abs, s.num)).bit_length()) // s.ctx.phi
        return max(math.gcd(*s.num).bit_length(), norm_bits + 1)
    else:
        parts = (s.num[0], s.den)
    return max(abs(x).bit_length() for x in parts)


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_int(ctx: ScalarContext, n: int) -> Scalar:
    """The q-integer 1 + q + ... + q^(n-1) = (n 1)_q; zero when n = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    return q_binomial(ctx, n, 1)


def q_binomial(ctx: ScalarContext, n: int, k: int) -> Scalar:
    """Gaussian binomial (n k)_q by the product formula over Z[q].

    (n k) = (n k-1) (1 - q^(n-k+1)) / (1 - q^k), for k <= n/2 only, as
    (n k) = (n n-k).  Row n of the context's table is the pair (polynomial
    of the last entry, tuple of the scalars for k = 0, 1, ...) asked for
    so far; only the last polynomial feeds the next step, and the scalar
    is the polynomial at the root in torsion mode.  A short row is
    extended on a local list and stored with one assignment, never
    changed in place, so a racing thread at worst recomputes a row or
    stores a shorter one.
    """
    if n < 0 or k < 0:
        raise ValueError("q_binomial needs n, k >= 0")
    if k > n:
        return ctx.zero()
    k = min(k, n - k)
    row = ctx._qbin.get(n)
    if row is None or len(row[1]) <= k:
        a, vals = row or (P_ONE, (ctx.one(),))
        vals = list(vals)
        for j in range(len(vals), k + 1):
            m = n - j + 1
            c = list(a) + [0] * m  # a (1 - q^m)
            for i, x in enumerate(a):
                c[i + m] -= x
            top = len(c) - j  # divide by 1 - q^j in place: quo[i] = c[i] + quo[i-j]
            for i in range(j, top):
                c[i] += c[i - j]
            a = tuple(c[:top])
            vals.append(_eval_poly_cyclo(a, ctx) if ctx.is_torsion else _generic(0, a, P_ONE))
        row = ctx._qbin[n] = (a, tuple(vals))
    return row[1][k]


def q_binomial_lucas(ctx: ScalarContext, n: int, k: int) -> Scalar:
    """Torsion-mode Gaussian binomial via the root-of-unity factorization.

    For q a primitive p-th root of unity (q-Lucas),
    (n k)_q = binom(n // p, k // p) * (n % p  k % p)_q,
    so only rows n < p of the binomial table are built.  This is the
    route the structure scalars take in torsion mode; :func:`q_binomial`
    evaluated at the root on the full row stays the independent reference
    it is checked against (the ``fastpath-equivalence`` claim and the
    test suite).
    """
    ctx.require_torsion("q_binomial_lucas")
    if n < 0 or k < 0:
        raise ValueError("q_binomial needs n, k >= 0")
    p = ctx.p
    return ctx.from_int(math.comb(n // p, k // p)) * q_binomial(ctx, n % p, k % p)


def inv_qm1_power(ctx: ScalarContext, l: int) -> Scalar:
    """(q - 1)^(-l), memoized per context (l >= 0).

    Every structure scalar of letter exponent l carries this factor, and
    the simplified torsion products carry (1 - q)^(-j) = (-1)^j (q - 1)^(-j).
    Only (q - 1) itself is inverted: a miss takes the largest stored power
    j < l times (q - 1)^(-1) to the power l - j, by square-and-multiply, and
    stores l alone, so a power costs O(log l) products and no prefix of
    powers is filled.  A torsion inverse goes through the norm: with one
    inverse per power, cold `--p 128 construct "C^255"` took 6.1 s, nearly
    all of it 254 inverses; it takes 1.0 s now (as a process on a 2-core
    x86-64 host).
    """
    memo = ctx._inv_qm1
    got = memo.get(l)
    if got is None:
        if l == 1:
            got = (ctx.q() - ctx.one()).inverse()
        else:
            j = max((i for i in memo if i < l), default=0)
            got = inv_qm1_power(ctx, 1) ** (l - j)
            if j:
                got = memo[j] * got
        memo[l] = got
    return got


def _check_cd_args(i: int, l: int) -> None:
    if l < 1:
        raise ValueError("structure scalars need l >= 1")
    if i < 0 or i > l:
        raise ValueError("structure scalar index i must satisfy 0 <= i <= l")


def _generic_row_size(l: int) -> int:
    """Coefficients of the generic Gaussian row l over Z[q]: the sum over
    i <= l of i(l - i) + 1, as (l i)_q has degree i(l - i)."""
    return l * (l * l - 1) // 6 + l + 1


def _struct_scalar(ctx: ScalarContext, i: int, l: int, e: int) -> Scalar:
    """q^e (q-1)^(-l) (-1)^(l-i) (l i)_q, the body of c_i(l), d_i(l) and their q-shifts.

    Fills the context's one structure-scalar memo at (i, l, e), e reduced
    mod p in torsion mode.  The one place the binomial route is chosen:
    q-Lucas in torsion mode, the product-formula row in generic mode.  A
    generic row l whose coefficients would number more than
    ``MAX_SERIALIZED_DEGREE`` raises ValueError before any entry is built.
    """
    if ctx.is_torsion:
        qb = q_binomial_lucas(ctx, l, i)
    else:
        size = _generic_row_size(l)
        if size > MAX_SERIALIZED_DEGREE:
            raise ValueError(f"structure scalars of letter exponent {l} need a Gaussian row "
                             f"of {size} coefficients, above the cap "
                             f"MAX_SERIALIZED_DEGREE = {MAX_SERIALIZED_DEGREE}")
        qb = q_binomial(ctx, l, i)
    if not qb.is_zero():
        qb = inv_qm1_power(ctx, l) * ctx.q_power(e) * (-qb if (l - i) % 2 else qb)
    ctx._struct[(i, l, e)] = qb
    return qb


def struct_c(ctx: ScalarContext, i: int, l: int) -> Scalar:
    """c_i(l) = (q-1)^(-l) (-1)^(l-i) q^binom(i+1,2) (l i)_q."""
    _check_cd_args(i, l)
    return scaled_struct_c(ctx, i, l, 0)


def struct_d(ctx: ScalarContext, i: int, l: int) -> Scalar:
    """d_i(l) = q^(-binom(l,2)) (q-1)^(-l) (-1)^(l-i) q^binom(l-i,2) (l i)_q."""
    _check_cd_args(i, l)
    return scaled_struct_d(ctx, i, l, 0)


# The scaled readers read the memo inline: a mixed monomial product calls one per term
def scaled_struct_c(ctx: ScalarContext, i: int, l: int, e: int) -> Scalar:
    """q^e * c_i(l), memoized (e reduced mod p in torsion mode)."""
    e += math.comb(i + 1, 2)
    if ctx.is_torsion:
        e %= ctx.p
    got = ctx._struct.get((i, l, e))
    return _struct_scalar(ctx, i, l, e) if got is None else got


def scaled_struct_d(ctx: ScalarContext, i: int, l: int, e: int) -> Scalar:
    """q^e * d_i(l), memoized (e reduced mod p in torsion mode)."""
    e += math.comb(i + 1, 2) - i * l  # binom(l-i, 2) - binom(l, 2)
    if ctx.is_torsion:
        e %= ctx.p
    got = ctx._struct.get((i, l, e))
    return _struct_scalar(ctx, i, l, e) if got is None else got


# ---------------------------------------------------------------------------
# Generic -> torsion specialization
# ---------------------------------------------------------------------------

def _eval_poly_cyclo(poly: IntPoly, ctx: ScalarContext) -> CycloScalar:
    """poly at the root: coefficients summed by exponent mod p, then reduced."""
    p = ctx.p
    return CycloScalar(ctx, tuple(_cyclo_eval(((r, sum(poly[r::p])) for r in range(p)), ctx)), 1)


def specialize(s: GenericScalar, ctx: ScalarContext) -> CycloScalar:
    """Evaluate a generic scalar at the primitive root of the torsion context.

    Raises ZeroDivisionError when the denominator vanishes there; the
    library never specializes silently.
    """
    ctx.require_torsion("specialize")
    den = _eval_poly_cyclo(s.den, ctx)
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes at the root of unity")
    return _eval_poly_cyclo(s.num, ctx) * ctx.q_power(s.v) * den.inverse()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _rational_text(n: int, d: int) -> str:
    """n/d in lowest terms, written as ``str(Fraction(n, d))`` writes it."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_scalar(s: Scalar):
    """Serialize a scalar: generic to a string, torsion to a list of rationals."""
    if isinstance(s, GenericScalar):
        # the dense form of q^v * num/den puts q^v on the numerator or q^(-v) on the denominator
        v = s.v
        if s.den == P_ONE and v >= 0:
            return poly_to_str(s.num, v)
        return f"({poly_to_str(s.num, max(v, 0))})/({poly_to_str(s.den, max(-v, 0))})"
    return [_rational_text(x, s.den) for x in s.num]


def scalar_text(s: Scalar) -> str:
    """Human-readable (and, in torsion mode, parseable) scalar text.

    A torsion scalar's text is written once per context and read back
    from the context's ``_text`` table.
    """
    if isinstance(s, GenericScalar):
        return format_scalar(s)
    key = (s.num, s.den)
    text = s.ctx._text.get(key)
    if text is None:
        text = s.ctx._text[key] = _terms_text(s.num, 0, 1, s.den)
    return text


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_scalar(data, ctx: ScalarContext) -> Scalar:
    """Inverse of :func:`format_scalar`; input it could not have written
    raises ValueError.  That covers a zero denominator, a torsion
    coordinate other than an int or a string ``n`` or ``n/d`` of ASCII
    digits (no decimal point, exponent, space or underscore), and a
    generic polynomial of degree above ``MAX_SERIALIZED_DEGREE``.  A generic
    scalar is read in its dense written form, and the constructor splits
    off its power of q as the valuation."""
    if ctx.is_torsion:
        if not isinstance(data, (list, tuple)) or len(data) != ctx.phi:
            raise ValueError(f"torsion scalar needs exactly {ctx.phi} coordinates")
        if not all(type(c) is int or (type(c) is str and _RATIONAL_RE.fullmatch(c)) for c in data):
            raise ValueError("torsion coordinates must be integers or strings n or n/d")
        try:
            coords = [Fraction(c) for c in data]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in torsion coordinates {data!r}") from None
        den = math.lcm(*(f.denominator for f in coords))
        return _cyclo_canonical(ctx, [f.numerator * (den // f.denominator) for f in coords], den)
    if not isinstance(data, str):
        raise ValueError("generic scalar must be a string")
    text = data.strip()
    m = re.fullmatch(r"\((?P<num>[^()]*)\)/\((?P<den>[^()]*)\)", text)
    if not m:
        return GenericScalar(poly_from_str(text), P_ONE)
    den = poly_from_str(m.group("den"))
    if not den:
        raise ValueError(f"zero denominator in generic scalar {data!r}")
    return GenericScalar(poly_from_str(m.group("num")), den)
