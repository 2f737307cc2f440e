"""Weighted poset block metric spaces over Z_m.

Posets with block labelings and scalar weights induce a metric on
Z_m^n; this package builds those spaces, analyzes codes in them
(minimum distance, Singleton bound, MDS, packing radius, perfect
codes) and enumerates their groups of linear isometries, verifying
the triangular-times-automorphism factorization by brute force.

The pure-Python layers load with the package; the numpy layers `codes`,
`isometry` and `verify` load on first use of one of their names.
"""

import importlib
import types

from .algebra import (
    Alphabet,
    WeightFunction,
    custom_weight,
    hamming_weight,
    lee_weight,
)
from .errors import (
    ArityError,
    AxiomError,
    BudgetError,
    ContextMismatchError,
    CycleError,
    DecompositionError,
    InvalidValueError,
    LabelError,
    NegativeRadiusError,
    NonPrincipalError,
    NotChainError,
    NotFinerError,
    NotIsometryError,
    NotLabeledAutomorphismError,
    OutOfRangeError,
    ParseError,
    PosetBlockError,
    SizeMismatchError,
    TooSmallError,
    ValidationError,
)
from .poset import Labeling, Permutation, Poset, all_posets
from .space import BlockVector, SpaceContext, ball, space_context

__version__ = "0.1.0"

_LAZY = {
    "codes": (
        "Code", "CodeReport", "MdsPerfectCheck", "SingletonParams", "analyze",
        "enumerate_linear_codes", "finer_mds_check", "hamming_min_distance",
        "identity_tail_map", "is_r_perfect", "mds_iff_perfect_check", "min_distance",
        "packing_radius", "perfect_code_from_function", "random_code", "random_tail_map",
        "reconstruct_tail_map", "singleton_params", "zero_tail_map",
    ),
    "isometry": (
        "BlockMatrix", "GroupReport", "IsometryDecomposition", "decompose",
        "enumerate_isometry_group", "from_automorphism", "in_triangular_group",
        "induced_automorphism", "is_isometry", "triangular_group_order", "verify_semidirect",
    ),
    "verify": ("AxiomCheck", "check_weight_axioms", "check_weight_axioms_bruteforce"),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_LAZY_SOURCE)


def __getattr__(name: str):
    if name not in _LAZY_SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY_SOURCE[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_SOURCE))
