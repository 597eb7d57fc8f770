"""Exact-arithmetic toolkit for finite-dimensional nonassociative algebras.

``import jordankit`` loads the numpy-free modules only: algebra, errors,
linalg, peirce and scalars. The names of carrier, maps and search load
on first use (see ``_LAZY``), so the CLI commands that build no carrier
(example, check, idempotents, peirce) start without numpy, in about 0.13
instead of 0.32 s (README, "CLI").
"""

import importlib

from .algebra import (
    Algebra,
    Element,
    IdentityReport,
    Leaf,
    MonomialTree,
    MultOperator,
    Node,
    algebra_from_dict,
    algebra_to_dict,
    all_trees,
    associator,
    canonical_tree,
    commutator,
    identity_element,
    identity_report,
    jordanify,
    load_algebra,
    matrix_units_algebra,
    monomial_eval,
    mult_operators,
    multiply,
    save_algebra,
    xi_eval,
)
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    BudgetExceeded,
    CarrierInfinite,
    CarrierSizeMismatch,
    CharacteristicUnsupported,
    DecompositionIncomplete,
    DerivationOfIdempotentNotHalf,
    EnumerationTooLarge,
    FormatError,
    JordankitError,
    ModeUnsupported,
    NonPrimeModulus,
    NoncommutativeDomain,
    NotDerivation,
    NotIdempotent,
    PreconditionViolated,
    TorsionViolation,
    ZeroDenominator,
)
from .peirce import (
    ConditionReport,
    IdempotentHit,
    PeirceDecomposition,
    PeirceRelationReport,
    check_theorem_conditions,
    find_idempotents,
    idempotent_class,
    peirce_decompose,
    peirce_project,
    symmetrized_product,
    verify_peirce_relations,
)
from .scalars import (
    Field,
    PrimeField,
    RationalField,
    field_from_spec,
    is_torsion_free,
    prime_field,
    rational_field,
)

__version__ = "0.1.0"

# name -> its module; carrier, maps and search import numpy, so each loads
# on the first read of one of its names
_LAZY = {
    **dict.fromkeys(("FiniteCarrier", "carrier_of"), "carrier"),
    **dict.fromkeys((
        "DerivationTable", "MapTable", "Verdict",
        "derivation_peirce_check", "inner_derivation", "is_additive", "is_bijective",
        "is_jordan_semitriple", "is_jordan_triple_derivation", "is_n_derivation",
        "is_n_multiplicative", "load_map_table", "map_table_from_dict",
        "map_table_to_dict", "reduce_derivation", "save_map_table",
    ), "maps"),
    **dict.fromkeys((
        "AuditReport", "DerivationSearch", "MultiplicativeBijectionSearch", "SearchBudget",
        "additivity_audit", "enumerate_multiplicative_bijections", "enumerate_n_derivations",
    ), "search"),
}


def __getattr__(name):
    """PEP 562: import the module behind a name of ``_LAZY`` on first use."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
