"""Regenerate the committed golden CLI reports.

Run from the repository root:  python3 tests/make_goldens.py
Each golden case pins the full stdout byte stream and the exit code for one
CLI invocation over the shipped sample inputs.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(DATA, "golden")

CASES = [
    ("validate_six", ["validate", "--category", "{D}/six.json"]),
    ("validate_nonassociative", ["validate", "--category", "{D}/nonassociative.json"]),
    ("mobius_fine_six", ["mobius", "--algebra", "fine", "--category", "{D}/six.json", "--rig", "rat"]),
    ("mobius_coarse_six", ["mobius", "--algebra", "coarse", "--category", "{D}/six.json", "--rig", "rat"]),
    ("mobius_patch_six", ["mobius", "--algebra", "patch", "--category", "{D}/six.json"]),
    ("mobius_patch_c2_int", ["mobius", "--algebra", "patch", "--category", "{D}/group_c2.json", "--rig", "int"]),
    ("mobius_fine_c2", ["mobius", "--algebra", "fine", "--category", "{D}/group_c2.json"]),
    ("mobius_fine_square_int", ["mobius", "--algebra", "fine", "--category", "{D}/square.json", "--rig", "int"]),
    ("euler_c2", ["euler", "--category", "{D}/group_c2.json"]),
    ("euler_six", ["euler", "--category", "{D}/six.json"]),
    ("euler_c2_int", ["euler", "--category", "{D}/group_c2.json", "--rig", "int"]),
    ("mobius_coarse_c2_int", ["mobius", "--algebra", "coarse", "--category", "{D}/group_c2.json", "--rig", "int"]),
    ("nerve_euler_square", ["nerve-euler", "--category", "{D}/square.json"]),
    ("nerve_euler_six", ["nerve-euler", "--category", "{D}/six.json"]),
    ("nerve_euler_composite_endpoints", ["nerve-euler", "--category", "{D}/composite_endpoints.json"]),
    ("magnitude_two_points", ["magnitude", "--metric", "{D}/two_points_d1.json"]),
    ("magnitude_two_points_study", ["magnitude", "--metric", "{D}/two_points_d1.json", "--study", "2,10,100"]),
    ("magnitude_near_twins", ["magnitude", "--metric", "{D}/near_twins.json"]),
    ("graded_two_loops", ["graded", "--graph", "{D}/one_vertex_two_loops.json", "--degree", "6"]),
    ("classify_six", ["classify", "--category", "{D}/six.json"]),
    ("classify_chain3", ["classify", "--category", "{D}/chain3.json"]),
    ("classify_composite_endpoints", ["classify", "--category", "{D}/composite_endpoints.json"]),
    ("functor_check_collapse", ["functor-check", "--src", "{D}/six.json", "--tgt", "{D}/six_codiscrete.json", "--map", "{D}/six_collapse_functor.json"]),
    ("matrix_detpm", ["matrix", "--op", "detpm", "--in", "{D}/matrix_3x3.json"]),
    ("matrix_adjpm", ["matrix", "--op", "adjpm", "--in", "{D}/matrix_3x3.json"]),
    ("matrix_transitive_no", ["matrix", "--op", "transitive", "--in", "{D}/matrix_nontransitive.json"]),
    ("matrix_zeros", ["matrix", "--op", "zeros", "--in", "{D}/matrix_3x3.json"]),
    ("matrix_zeros_nontransitive_int", ["matrix", "--op", "zeros", "--in", "{D}/matrix_nontransitive.json", "--rig", "int"]),
    ("matrix_zeros_singular", ["matrix", "--op", "zeros", "--in", "{D}/matrix_singular.json"]),
    ("compare_parallel", ["compare", "--category-a", "{D}/parallel_first.json", "--category-b", "{D}/parallel_second.json"]),
    ("compare_c2_c2", ["compare", "--category-a", "{D}/group_c2.json", "--category-b", "{D}/group_c2.json"]),
    ("zeta_coarse_divisors6", ["zeta", "--algebra", "coarse", "--category", "{D}/divisors6.json", "--rig", "int"]),
    ("zeta_fine_chain3", ["zeta", "--algebra", "fine", "--category", "{D}/chain3.json"]),
    ("mobius_family_dinj", ["mobius", "--family", "dinj", "--from", "0", "--to", "4"]),
    ("mobius_family_div", ["mobius", "--family", "divisibility", "--from", "1", "--to", "12", "--rig", "int"]),
    ("mobius_family_dsurj_int", ["mobius", "--family", "dsurj", "--from", "0", "--to", "6", "--rig", "int"]),
]


def run_case(argv):
    from mobiuskit.cli import main

    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    return stream.getvalue(), code


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    manifest = {}
    for name, template in CASES:
        argv = [part.replace("{D}", DATA) for part in template]
        stdout, code = run_case(argv)
        out_path = os.path.join(GOLDEN, f"{name}.out.json")
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(stdout)
        manifest[name] = {"argv": template, "exit_code": code}
        print(f"{name}: exit {code}, {len(stdout)} bytes")
    with open(os.path.join(GOLDEN, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} goldens to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
