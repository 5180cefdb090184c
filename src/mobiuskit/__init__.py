"""mobiuskit: exact Mobius inversion for finite and patch-finite categories.

Fine, coarse and patch incidence algebras over generic rigs, Euler
characteristic, metric-space magnitude, functoriality machinery (ULF,
pushforward/pullback, Beck-Chevalley), the Mobius-category classifier,
and subtraction-free transitive-matrix tools.
"""

from .category import (
    Arrow,
    DirectedGraph,
    FinCategory,
    Functor,
    codiscrete_completion,
    coproduct,
    endomorphism_report,
    enumerate_subcategories,
    is_mobius_category,
    is_skeletal,
    monoid_to_category,
    patch,
    poset_to_category,
    preorder_reflection,
    product,
    underlying_graph,
    validate_category,
)
from .enriched import (
    GradedGraphCategory,
    MetricSpace,
    enriched_coarse_mobius,
    enriched_coarse_zeta,
    graded_mobius,
    graded_zeta,
    magnitude,
    similarity_matrix,
    tensor_mobius,
)
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    DivisionByZero,
    MalformedInput,
    MobiusKitError,
    NotAnInverse,
    NotInvertible,
    NotNerveFinite,
    RigMismatch,
    UnknownObject,
    UnsupportedRig,
)
from .incidence import (
    CoarseElement,
    FineElement,
    PatchElement,
    coarse_delta,
    coarse_mobius,
    coarse_multiply,
    coarse_zeta,
    euler_characteristic,
    fine_convolve,
    fine_delta,
    fine_invert,
    fine_mobius,
    fine_zeta,
    nerve_euler_characteristic,
    patch_mobius,
    patch_multiply,
    patch_zeta,
    sigma_to_coarse,
    sigma_to_patch,
    verify_inverse,
)
from .infinite import (
    PatchOracleCategory,
    builtin,
    family_mobius,
    oracle_zeta,
    patchwise_mobius,
)
from .matrixrig import (
    RigMatrix,
    adj_halves,
    det_halves,
    inverse_zero_check,
    invert,
    is_transitive,
)
from .rigs import BOOL, INT, NAT, RAT, REAL, Rig, TruncatedSeries, get_rig, polynomial_rig

__version__ = "0.1.0"

# functoriality loads at the first read of one of its names (PEP 562): only
# functor-check among the commands uses it
_FUNCTORIALITY = (
    "Adjunction",
    "Span",
    "beck_chevalley_check",
    "category_pullback",
    "compose_spans",
    "fibre_sizes",
    "is_bijective_on_objects",
    "is_ulf",
    "pullback_transform",
    "pushforward",
    "rota_check",
    "validate_adjunction",
)
# every public name, the deferred ones included, for `from mobiuskit import *`
__all__ = sorted(name for name in globals() if not name.startswith("_")) + ["functoriality", *_FUNCTORIALITY]


def __getattr__(name):
    if name == "functoriality" or name in _FUNCTORIALITY:
        from importlib import import_module

        functoriality = import_module(".functoriality", __name__)
        return functoriality if name == "functoriality" else getattr(functoriality, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()).union(__all__))
