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
  Pascal recursion on every binomial a window product uses.

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

    For C^m A^n . B^l C^k with n >= l >= p (and the three sibling cases)
    the documented relations collapse the structure-constant sum into a
    two-term expression built from the simplified power product.  This
    evaluates that expression verbatim and returns None when the stated
    exponent inequalities do not hold.  Used only by the verification
    suite; `multiply_fastpath` never calls it.
    """
    _require_torsion(ctx)
    p = ctx.p
    one = ctx.one()
    inv = lambda j: _inv_one_minus_q(ctx, j)
    qp = lambda e: ctx.q_power(e % p)
    sgn = lambda j: one if j % 2 == 0 else -one
    m, d1 = x
    k, d2 = y
    if d1 < 0 and d2 > 0:
        n, l = -d1, d2
        if n >= l >= p:
            head = Element.monomial(ctx, Monomial(m + k, -(n - l)), qp((n - l) * k))
            tail = Element.monomial(ctx, Monomial(l + m + k, -(n - l)),
                                    sgn(l) * qp((n - l) * (m + k)))
            return (head - tail).scale(inv(l))
        if l > n >= p:
            head = Element.monomial(ctx, Monomial(m + k, l - n), qp(m * (l - n)))
            tail = Element.monomial(ctx, Monomial(m + k + n, l - n),
                                    sgn(n) * qp((l - n) * (m + n)))
            return (head - tail).scale(inv(n))
        return None
    if d1 > 0 and d2 < 0:
        n, l = d1, -d2
        if n >= l >= p:
            head = Element.monomial(ctx, Monomial(m + k, n - l))
            tail = Element.monomial(ctx, Monomial(m + k + l, n - l), sgn(l))
            return (head - tail).scale(qp(l * (m + k)) * inv(l))
        if l > n >= p:
            head = Element.monomial(ctx, Monomial(m + k, -(l - n)))
            tail = Element.monomial(ctx, Monomial(m + k + n, -(l - n)), sgn(n))
            return (head - tail).scale(qp((m + k) * n) * inv(n))
        return None
    return None


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
