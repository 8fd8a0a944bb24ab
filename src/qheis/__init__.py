"""Exact symbolic computation in the q-deformed Heisenberg algebra.

The algebra is generated by A, B with the relation AB - qBA = I; the
scalar q is either a generic indeterminate or a primitive p-th root of
unity.  The package provides canonical normal forms, structure-constant
multiplication with an independent word-rewriting oracle, commutators,
Lie-polynomial classification and membership, explicit nested-commutator
constructors with evaluable witnesses, a bracket-closure oracle with
exact row reduction, and verification suites for the documented
simplified identities.
"""

from .qscalar import (
    ContextMismatchError,
    CycloScalar,
    GenericScalar,
    Scalar,
    ScalarContext,
    cyclotomic_poly,
    q_binomial,
    q_binomial_lucas,
    q_int,
    specialize,
    struct_c,
    struct_d,
)
from .heisenberg import (
    Element,
    FreePoly,
    Monomial,
    ba_to_cbasis,
    cbasis_to_free,
    commutator,
    free_to_element,
    grade,
    graded_components,
    multiply,
    normal_to_element,
    reduce_word,
    reduce_word_rewriting,
    straighten,
)
from .torsion import (
    is_central,
    mixed_product_simplified,
    multiply_fastpath,
    pow_product_identity,
    power_product_exact,
    reduce_exponent,
)
from .liepoly import (
    Bracket,
    BracketExpr,
    ConstructionError,
    Leaf,
    LieWitness,
    MonomialClass,
    NotLiePolynomialError,
    ScaledSum,
    SubspaceBasis,
    base_A,
    base_B,
    base_G,
    classify_monomial,
    construct_basis_element,
    eval_bracket_expr,
    is_lie_polynomial,
    lie_closure,
    obase_A,
    obase_B,
    obase_G,
    project_N,
)
from .exprparse import ParseError, elaborate, parse_element, parse_expression
from .verify import (
    VerifyReport,
    verify_derived_algebra,
    verify_lemma3,
    verify_no_N_leakage,
    verify_oracle,
    verify_theorem1,
    verify_torsion_paths,
)

__version__ = "0.1.0"
