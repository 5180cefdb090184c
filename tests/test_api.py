"""The public API of mobiuskit, pinned: a name added to or removed from
`mobiuskit.__all__` must be added to or removed from PUBLIC here too.
"""

import os
import subprocess
import sys

import mobiuskit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PUBLIC = [
    "Adjunction", "Arrow", "BOOL", "BudgetExceeded", "CoarseElement", "DegreeMismatch", "DirectedGraph",
    "DivisionByZero", "FinCategory", "FineElement", "Functor", "GradedGraphCategory", "INT",
    "MalformedInput", "MetricSpace", "MobiusKitError", "NAT", "NotAnInverse", "NotInvertible",
    "NotNerveFinite", "PatchElement", "PatchOracleCategory", "RAT", "REAL", "Rig", "RigMatrix",
    "RigMismatch", "Span", "TruncatedSeries", "UnknownObject", "UnsupportedRig", "adj_halves",
    "beck_chevalley_check", "builtin", "category", "category_pullback", "coarse_delta", "coarse_mobius",
    "coarse_multiply", "coarse_zeta", "codiscrete_completion", "compose_spans", "coproduct",
    "det_halves", "endomorphism_report", "enriched", "enriched_coarse_mobius", "enriched_coarse_zeta",
    "enumerate_subcategories", "errors", "euler_characteristic", "family_mobius", "fibre_sizes",
    "fine_convolve", "fine_delta", "fine_invert", "fine_mobius", "fine_zeta", "functoriality",
    "get_rig", "graded_mobius", "graded_zeta", "incidence", "infinite", "inverse_zero_check", "invert",
    "is_bijective_on_objects", "is_mobius_category", "is_skeletal", "is_transitive", "is_ulf",
    "magnitude", "matrixrig", "monoid_to_category", "nerve_euler_characteristic", "oracle_zeta",
    "patch", "patch_mobius", "patch_multiply", "patch_zeta", "patchwise_mobius", "polynomial_rig",
    "poset_to_category", "preorder_reflection", "product", "pullback_transform", "pushforward", "rigs",
    "rota_check", "sigma_to_coarse", "sigma_to_patch", "similarity_matrix", "tensor_mobius",
    "underlying_graph", "validate_adjunction", "validate_category", "verify_inverse",
]


def test_the_public_names_are_the_pinned_list():
    assert len(PUBLIC) == 97
    assert sorted(mobiuskit.__all__) == PUBLIC


def test_every_public_name_resolves_in_a_fresh_interpreter():
    # a fresh process, so the deferred names (functoriality's) resolve from
    # an unloaded module too, one by one and through `import *`
    script = """
import mobiuskit
missing = [name for name in mobiuskit.__all__ if not hasattr(mobiuskit, name)]
star = {}
exec("from mobiuskit import *", star)
missing += [name for name in mobiuskit.__all__ if name not in star]
print(missing)
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr
