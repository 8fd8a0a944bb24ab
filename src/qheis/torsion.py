"""Root-of-unity specializations: reduced exponents, simplified products,
the torsion-checked product, and centrality tests.

The simplified product identities stated for torsion order p come in two
flavours here:

* `pow_product_identity` and `mixed_product_simplified` evaluate the
  documented simplified formulas literally, so the verification suite
  can compare them against the general structure-constant path and
  report exactly where they hold.  They are claims, not shortcuts.
* `multiply_fastpath` is `multiply` for a torsion context.  There is one
  product route: in torsion mode the structure scalars always take their
  Gaussian binomials through the root-of-unity factorization
  (`q_binomial_lucas`) and reduce q-exponents modulo p.  The
  ``fastpath-equivalence`` claim checks that factorization against the
  product formula at the root on every binomial a window product uses.

The comparison (see the verification reports) shows the literal mixed
formulas and the power-product identity hold only at letter exponent
exactly p, and for odd p only with the C^p sign flipped; the corrected
exact statement is A^p B^p = B^p A^p = (I - C^p)/(1-q)^p, available as
`power_product_exact`.
"""

from __future__ import annotations

from .heisenberg import Element, Monomial, commutator, multiply
from .qscalar import ContextMismatchError, Scalar, ScalarContext, inv_qm1_power

__all__ = [
    "reduce_exponent",
    "pow_product_identity",
    "power_product_exact",
    "mixed_product_simplified",
    "multiply_fastpath",
    "is_central",
]


def _require_torsion(ctx: ScalarContext) -> None:
    if not ctx.is_torsion:
        raise ContextMismatchError("operation needs a torsion context")


def _inv_one_minus_q(ctx: ScalarContext, j: int) -> Scalar:
    """(1 - q)^(-j) = (-1)^j (q - 1)^(-j), from the per-context memo."""
    inv = inv_qm1_power(ctx, j)
    return inv if j % 2 == 0 else -inv


def reduce_exponent(ctx: ScalarContext, n: int) -> int:
    """Least nonnegative residue of n modulo the torsion order.

    Negative inputs are accepted; q^n equals q^(reduced) in the context.
    """
    _require_torsion(ctx)
    return n % ctx.p


def pow_product_identity(ctx: ScalarContext, l: int) -> Element:
    """The documented simplified value of A^l B^l (= B^l A^l) for l >= p.

    Returns (I - (-1)^l C^l) / (1-q)^l literally.  Whether this equals
    the general-path product is a verified claim, not an assumption:
    the torsion-paths suite compares it against `multiply` and records
    the outcome per (p, l).
    """
    _require_torsion(ctx)
    if l < ctx.p:
        raise ValueError(
            f"simplified power product needs l >= p (got l={l}, p={ctx.p}); "
            "below p the general expansion is the only valid form"
        )
    one = ctx.one()
    inv = _inv_one_minus_q(ctx, l)
    sign = one if l % 2 == 0 else -one
    return (Element.identity(ctx) - Element.monomial(ctx, Monomial(l, 0), sign)).scale(inv)


def power_product_exact(ctx: ScalarContext) -> Element:
    """Exact closed form A^p B^p = B^p A^p = (I - C^p)/(1-q)^p.

    This is the corrected statement that holds for every torsion order;
    it follows from c_0(p) = (1-q)^(-p), the vanishing of the middle
    Gaussian binomials at l = p, and c_p(p) = -(1-q)^(-p).
    """
    _require_torsion(ctx)
    inv = _inv_one_minus_q(ctx, ctx.p)
    return (Element.identity(ctx) - Element.monomial(ctx, Monomial(ctx.p, 0))).scale(inv)


def mixed_product_simplified(ctx: ScalarContext, x: Monomial, y: Monomial) -> Element | None:
    """Literal simplified mixed-case product, when its conditions apply.

    For x = (m, d1) and y = (k, d2) with letter exponents of opposite
    signs and j = min(|d1|, |d2|) >= p, the documented relations collapse
    the structure-constant sum into (head - tail) * scale, with
    head = q^eh (m+k, d1+d2) and tail = (-1)^j q^et (m+k+j, d1+d2).  One
    rule covers each side:

    * A side (d1 < 0, n = -d1, l = d2): (eh, et) = ((n-l)k, (n-l)(m+k))
      if n >= l, else (m(l-n), (l-n)(m+n)); scale = (1-q)^(-j).
    * B side (d1 > 0): eh = et = 0; scale = q^(j(m+k)) (1-q)^(-j).

    This evaluates that expression verbatim and returns None when the
    stated exponent inequalities do not hold.  Used only by the
    verification suite; `multiply_fastpath` never calls it.
    """
    _require_torsion(ctx)
    m, d1 = x
    k, d2 = y
    n, l = abs(d1), abs(d2)
    j = min(n, l)
    if d1 * d2 >= 0 or j < ctx.p:
        return None
    inv = _inv_one_minus_q(ctx, j)
    if d1 < 0:
        eh, et = ((n - l) * k, (n - l) * (m + k)) if n >= l else (m * (l - n), (l - n) * (m + n))
        scale = inv
    else:
        eh = et = 0
        scale = ctx.q_power(j * (m + k)) * inv
    sign = ctx.one() if j % 2 == 0 else -ctx.one()
    head = Element.monomial(ctx, Monomial(m + k, d1 + d2), ctx.q_power(eh))
    tail = Element.monomial(ctx, Monomial(m + k + j, d1 + d2), sign * ctx.q_power(et))
    return (head - tail).scale(scale)


def multiply_fastpath(x: Element, y: Element) -> Element:
    """The product `multiply`, after checking for a torsion context.

    In torsion mode `multiply` already evaluates Gaussian binomials
    through the root-of-unity factorization and reduces exponents modulo
    p in the scalar layer; this entry only rejects a generic context.
    """
    _require_torsion(x.ctx)
    return multiply(x, y)


def is_central(x: Element) -> bool:
    """True iff x commutes with both generators (which generate H(q))."""
    a = Element.monomial(x.ctx, Monomial(0, -1))
    b = Element.monomial(x.ctx, Monomial(0, 1))
    return commutator(x, a).is_zero() and commutator(x, b).is_zero()
