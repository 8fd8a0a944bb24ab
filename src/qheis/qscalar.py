"""Exact coefficient arithmetic for the deformed Heisenberg algebra.

Two scalar fields are supported, selected by a :class:`ScalarContext`:

* generic mode -- the field of rational functions in an indeterminate ``q``
  with integer polynomial numerator/denominator, kept in canonical reduced
  form so that equality is structural.  Every denominator the algebra
  produces has the form ``c * q^a * (q-1)^b`` (the structure scalars carry
  ``(q-1)^(-l)``, inverse powers of q carry ``q^n``), so reduction cancels
  those two factors directly -- trailing zeros for q, synthetic division
  at 1 for q-1 -- and runs a polynomial gcd only for a denominator with
  some other factor;
* torsion mode -- the cyclotomic field generated by a primitive ``p``-th
  root of unity, represented by integer numerators over the power basis
  ``1, q, ..., q^(phi(p)-1)`` modulo the ``p``-th cyclotomic polynomial,
  all over one common positive integer denominator.  Arithmetic is
  integer arithmetic with one gcd normalization per result; ``Fraction``
  appears only where scalars are built from or written as rationals.

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
import re
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "MAX_TORSION_ORDER",
    "ScalarContext",
    "GenericScalar",
    "CycloScalar",
    "Scalar",
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
    """Raised when values from different scalar contexts are combined."""


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
    if not a or not b:
        return P_ZERO
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


def _is_q_qm1_power(a: IntPoly) -> bool:
    """True when the nonzero a is c * q^i * (q - 1)^b for integers c, i, b.

    Compares a with c * (q - 1)^b coefficient by coefficient, binomial
    by binomial from the top, so it costs O(b) integer operations.
    """
    i = 0
    while a[i] == 0:
        i += 1
    b = len(a) - 1 - i
    term = a[-1]  # c * (-1)^(b-k) * binom(b, k) for k = b, b-1, ..., 0
    for k in range(b, 0, -1):
        if a[i + k] != term:
            return False
        term = -term * k // (b - k + 1)
    return a[i] == term


def _cancel(num: IntPoly, den: IntPoly) -> tuple:
    """Canonical (num, den) of the fraction num/den; both nonzero.

    Common powers of q and of (q - 1) are cancelled directly.  What is
    left has no common factor q or q - 1, so when either side is
    constant, or the denominator is c * q^a * (q-1)^b, the gcd is a
    constant and no polynomial gcd runs; otherwise ``_pgcd`` removes the
    remaining common factor.  Last, the integer content and the sign of
    the denominator's leading coefficient are normalized.
    """
    i = 0
    while num[i] == 0 and den[i] == 0:
        i += 1
    if i:
        num, den = num[i:], den[i:]
    while sum(num) == 0 and sum(den) == 0:
        num, den = _div_qm1(num), _div_qm1(den)
    if len(num) > 1 and not _is_q_qm1_power(den):
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


def poly_to_str(a: IntPoly, var: str = "q") -> str:
    """Sparse text form, descending degree, e.g. ``3*q^5 - q + 2``."""
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            head = var if e == 1 else f"{var}^{e}"
            body = head if abs(c) == 1 else f"{abs(c)}*{head}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>\d+)\s*\*?\s*)?(?:(?P<var>[a-zA-Z]\w*)(?:\^(?P<exp>\d+))?)?\s*"
)


def poly_from_str(s: str, var: str = "q") -> IntPoly:
    """Inverse of :func:`poly_to_str`."""
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
        if v is None:
            e = 0
        else:
            if v != var:
                raise ValueError(f"unexpected variable {v!r} in {s!r}")
            e = int(exp) if exp is not None else 1
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

    Contexts are immutable and shareable; per-context memo tables are
    only ever populated with idempotent values, so a memoized entry is
    the same whichever computation filled it first.  The scalar tables
    (``_qbin``, ``_struct``, ``_inv_qm1``, ``_inv``) belong to this
    module: ``_inv`` maps the canonical ``(num, den)`` of each torsion
    scalar inverted through the Galois norm to its inverse, and stays
    empty in generic mode, where an inverse is a swap.  A torsion
    context also keeps ``_galois``, the chain of cyclic steps through
    the Galois group (Z/p)^x (see :func:`_galois_chain`) along which
    the norm is multiplied up, built once in the constructor.
    ``_mono_nf`` and ``_awb`` hold the word oracle's normal forms,
    ``_word`` its straightened product per ordered pair of basis
    monomials, and ``_comm`` the cancelled commutator kernels of
    `heisenberg.commutator`, and only `heisenberg` reads them.
    """

    __slots__ = (
        "mode", "p", "modulus", "phi", "_red", "_zero", "_one", "_qbin",
        "_struct", "_qpow", "_inv_qm1", "_inv", "_galois", "_mono_nf", "_awb",
        "_word", "_comm",
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
            self._zero = GenericScalar(P_ZERO, P_ONE, _canonical=True)
            self._one = GenericScalar(P_ONE, P_ONE, _canonical=True)
        self.mode = mode
        self.p = p
        self._qbin: dict = {}
        self._struct: dict = {}
        self._inv_qm1: dict = {}
        self._inv: dict = {}
        self._mono_nf: dict = {}
        self._awb: dict = {}
        self._word: dict = {}
        self._comm: dict = {}

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
        return GenericScalar((f.numerator,) if f.numerator else P_ZERO,
                             (f.denominator,), _canonical=True)

    def q_power(self, n: int) -> "Scalar":
        """q^n; negative n allowed (inverse power)."""
        if self.is_torsion:
            return self._qpow[n % self.p]
        if n >= 0:
            return GenericScalar((0,) * n + (1,), P_ONE, _canonical=True)
        return GenericScalar(P_ONE, (0,) * (-n) + (1,), _canonical=True)

    def ensure_same(self, other: "ScalarContext") -> None:
        if other is not self and self != other:
            raise ContextMismatchError(f"context mismatch: {self} vs {other}")


# ---------------------------------------------------------------------------
# Generic scalars: reduced fractions of integer polynomials in q
# ---------------------------------------------------------------------------

class GenericScalar:
    """A rational function in q, canonically reduced.

    Canonical form: gcd(num, den) is constant, gcd of the integer
    contents is 1, and the denominator has positive leading coefficient.
    Equality is therefore structural.

    The constructor is the one canonicalizing entry.  Callers whose result
    is canonical by construction (polynomial sums and products, ``q^n``,
    rationals, negation, inversion) pass ``_canonical=True``; every other
    input goes through :func:`_cancel`, which cancels q and (q - 1)
    without a gcd and reaches the polynomial gcd only for a denominator
    with a factor other than q and q - 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly, _canonical: bool = False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = P_ZERO
            self.den = P_ONE
            return
        self.num, self.den = _cancel(num, den)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenericScalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- field operations ----------------------------------------------

    def __add__(self, other: "GenericScalar") -> "GenericScalar":
        if self.den == P_ONE and other.den == P_ONE:
            # polynomial + polynomial is already canonical
            return GenericScalar(_padd(self.num, other.num), P_ONE, _canonical=True)
        return GenericScalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "GenericScalar") -> "GenericScalar":
        return self + (-other)

    def __neg__(self) -> "GenericScalar":
        return GenericScalar(_pneg(self.num), self.den, _canonical=True)

    def __mul__(self, other: "GenericScalar") -> "GenericScalar":
        # unit coefficients make x * 1 common in products; scalars are immutable
        if other.num == P_ONE and other.den == P_ONE:
            return self
        if self.num == P_ONE and self.den == P_ONE:
            return other
        if self.den == P_ONE and other.den == P_ONE:
            return GenericScalar(_pmul(self.num, other.num), P_ONE, _canonical=True)
        return GenericScalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def inverse(self) -> "GenericScalar":
        num, den = self.num, self.den
        if not num:
            raise ZeroDivisionError("inverse of zero scalar")
        # swapping a canonical pair keeps it reduced; only the sign moves
        if num[-1] < 0:
            return GenericScalar(_pneg(den), _pneg(num), _canonical=True)
        return GenericScalar(den, num, _canonical=True)

    def __truediv__(self, other: "GenericScalar") -> "GenericScalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "GenericScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = GenericScalar(P_ONE, P_ONE, _canonical=True)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"GenericScalar({format_scalar(self)!r})"


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


def _cyclo_canonical(ctx: ScalarContext, num: list, den: int) -> "CycloScalar":
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
        ctx = self.ctx
        ctx.ensure_same(other.ctx)
        da, db = self.den, other.den
        if da == db:
            num = [x + y for x, y in zip(self.num, other.num)]
            if da == 1:
                return CycloScalar(ctx, tuple(num), 1)
            return _cyclo_canonical(ctx, num, da)
        return _cyclo_canonical(ctx, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        ctx = self.ctx
        ctx.ensure_same(other.ctx)
        da, db = self.den, other.den
        if da == db:
            num = [x - y for x, y in zip(self.num, other.num)]
            if da == 1:
                return CycloScalar(ctx, tuple(num), 1)
            return _cyclo_canonical(ctx, num, da)
        return _cyclo_canonical(ctx, [x * db - y * da for x, y in zip(self.num, other.num)], da * db)

    def __neg__(self) -> "CycloScalar":
        return CycloScalar(self.ctx, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        ctx = self.ctx
        ctx.ensure_same(other.ctx)
        # about 80% of the products of a verify grid have an operand equal to 1
        one = ctx._one.num
        if other.den == 1 and other.num == one:
            return self
        if self.den == 1 and self.num == one:
            return other
        num = _cyclo_mul(self.num, other.num, ctx)
        den = self.den * other.den
        if den == 1:
            return CycloScalar(ctx, tuple(num), 1)
        return _cyclo_canonical(ctx, num, den)

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
        if n < 0:
            return self.inverse() ** (-n)
        # by squaring: the structure scalars raise q - 1 to letter exponents
        out, base = self.ctx.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __repr__(self) -> str:
        return f"CycloScalar(p={self.ctx.p}, {format_scalar(self)})"


Scalar = Union[GenericScalar, CycloScalar]


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
    (n k) = (n n-k).  Row n of the context's table holds the (polynomial,
    scalar) pairs for k = 0, 1, ... asked for so far; the scalar is the
    polynomial at the root in torsion mode.  Only the last polynomial of
    a row feeds the next step, so a torsion row keeps that one alone (the
    others read None); a generic scalar is its polynomial, so generic
    rows keep them all at no cost.
    """
    if n < 0 or k < 0:
        raise ValueError("q_binomial needs n, k >= 0")
    if k > n:
        return ctx.zero()
    k = min(k, n - k)
    row = ctx._qbin.get(n)
    if row is None:
        row = ctx._qbin[n] = [(P_ONE, ctx.one())]
    while len(row) <= k:
        j = len(row)
        a, m = row[-1][0], n - j + 1
        c = list(a) + [0] * m  # a (1 - q^m)
        for i, x in enumerate(a):
            c[i + m] -= x
        top = len(c) - j  # divide by 1 - q^j in place: quo[i] = c[i] + quo[i-j]
        for i in range(j, top):
            c[i] += c[i - j]
        poly = tuple(c[:top])
        if ctx.is_torsion:
            row[-1] = (None, row[-1][1])
            row.append((poly, _eval_poly_cyclo(poly, ctx)))
        else:
            row.append((poly, GenericScalar(poly, P_ONE, _canonical=True)))
    return row[k][1]


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
    if not ctx.is_torsion:
        raise ContextMismatchError("lucas factorization needs a torsion context")
    if n < 0 or k < 0:
        raise ValueError("q_binomial needs n, k >= 0")
    p = ctx.p
    return ctx.from_int(math.comb(n // p, k // p)) * q_binomial(ctx, n % p, k % p)


def inv_qm1_power(ctx: ScalarContext, l: int) -> Scalar:
    """(q - 1)^(-l), memoized per context (l >= 0).

    Every structure scalar of letter exponent l carries this factor, and
    the simplified torsion products carry (1 - q)^(-j) = (-1)^j (q - 1)^(-j).
    """
    got = ctx._inv_qm1.get(l)
    if got is None:
        got = ctx._inv_qm1[l] = ((ctx.q() - ctx.one()) ** l).inverse()
    return got


def _check_cd_args(i: int, l: int) -> None:
    if l < 1:
        raise ValueError("structure scalars need l >= 1")
    if i < 0 or i > l:
        raise ValueError("structure scalar index i must satisfy 0 <= i <= l")


def _struct_scalar(ctx: ScalarContext, i: int, l: int, e: int) -> Scalar:
    """q^e (q-1)^(-l) (-1)^(l-i) (l i)_q, the body of c_i(l), d_i(l) and their q-shifts.

    Fills the context's one structure-scalar memo at (i, l, e), e reduced
    mod p in torsion mode.  The one place the binomial route is chosen:
    q-Lucas in torsion mode, the product-formula row in generic mode.
    """
    qb = q_binomial_lucas(ctx, l, i) if ctx.is_torsion else q_binomial(ctx, l, i)
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
    if not ctx.is_torsion:
        raise ContextMismatchError("specialization target must be a torsion context")
    den = _eval_poly_cyclo(s.den, ctx)
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes at the root of unity")
    return _eval_poly_cyclo(s.num, ctx) * den.inverse()


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
        if s.den == P_ONE:
            return poly_to_str(s.num)
        return f"({poly_to_str(s.num)})/({poly_to_str(s.den)})"
    return [_rational_text(x, s.den) for x in s.num]


def scalar_text(s: Scalar) -> str:
    """Human-readable (and, in torsion mode, parseable) scalar text."""
    if isinstance(s, GenericScalar):
        return format_scalar(s)
    out = ""
    for e, x in enumerate(s.num):
        if x == 0:
            continue
        mag = _rational_text(abs(x), s.den)
        if e == 0:
            body = mag
        else:
            head = "q" if e == 1 else f"q^{e}"
            body = head if mag == "1" else f"{mag}*{head}"
        if not out:
            out = body if x > 0 else f"-{body}"
        else:
            out += f" + {body}" if x > 0 else f" - {body}"
    return out or "0"


def parse_scalar(data, ctx: ScalarContext) -> Scalar:
    """Inverse of :func:`format_scalar`; input it could not have written,
    such as a zero denominator, raises ValueError."""
    if ctx.is_torsion:
        if not isinstance(data, (list, tuple)) or len(data) != ctx.phi:
            raise ValueError(f"torsion scalar needs exactly {ctx.phi} coordinates")
        if not all(type(c) in (int, str) for c in data):
            raise ValueError("torsion coordinates must be integers or rational strings")
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
