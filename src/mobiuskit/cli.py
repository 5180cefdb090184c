"""Command-line interface: parse input files, dispatch, emit JSON reports.

Exit codes: 0 success, 2 for a negative mathematical outcome
(NotInvertible, failed classification, failed comparison), 1 for malformed
input, unknown flags, incompatible rig/operation pairs or requests beyond a
size limit (BudgetExceeded).  Reports are byte-identical for identical
inputs and flags; timing is only attached when --timing is passed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time

from . import matrixrig
from .category import endomorphism_report, graphs_equal, underlying_graph, validate_category
from .enriched import GradedGraphCategory, graded_mobius, graded_zeta, magnitude, segment_refinement_study
from .errors import (
    BudgetExceeded,
    MalformedInput,
    MobiusKitError,
    NotInvertible,
    NotNerveFinite,
    UnsupportedRig,
)
from .fileio import MAX_METRIC_POINTS, load_category, load_functor, load_graph, load_matrix, load_metric
from .incidence import (
    coarse_mobius,
    coarse_zeta,
    euler_characteristic,
    fine_mobius,
    fine_zeta,
    nerve_euler_characteristic,
    patch_mobius,
    patch_zeta,
    sigma_to_coarse,
)
from .infinite import _family_table, builtin
from .rigs import INT, NAMED_RIGS, RAT, get_rig, polynomial_rig, render

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_NEGATIVE = 2

# the named rigs an exact solve lands in (invert_counting_matrix's rig rule),
# for mobius, euler, compare and matrix --op zeros
SOLVE_RIGS = tuple(name for name, rig in NAMED_RIGS.items() if rig.from_quotient is not None)

# a --family table is inverted and held whole.  dinj and dsurj have a map
# between almost every pair, so their forward pass takes about range^3 / 6
# big-integer steps: at 500 indices dinj took 5.2 s and dsurj 5.5 s end to
# end on a 2-vCPU host, each writing a 12 MB report, against 0.75 s for
# nat_leq, most of it the patch-closure walk, and 0.13 s for divisibility,
# whose inverses are sparse (cold commands, medians of 3, Python 3.11).
# Larger requests are refused before any hom-set is counted
MAX_FAMILY_INDICES = 500

# matrix --op zeros inverts the matrix and checks the inverse on both sides
# in integers, cubic work on growing numbers over rat.  A dense 50x50 matrix
# takes about 0.3 s with one-digit integer entries and about 5 s with
# two-digit fractions, almost all of it the inversion, whose entries reach
# about 3850 bits (cold CLI, Python 3.11, one x86_64 core); 60 rows of such
# fractions take about 15 s
MAX_ZEROS_DIM = 50

# graded_zeta takes the degree's powers of the vertices x vertices edge-count
# matrix, about vertices^3 * degree integer products, whose entries grow to
# degree * log2(vertices * edges per pair) bits.  End to end on a 2-vCPU
# host, 12 vertices at degree 512 took 1.8-2.0 s with 8 edges per ordered
# pair, 3.1 s with 64 and 4.8 s with 512 (a 73 728-edge graph), most of it
# rendering reports of 38, 55 and 72 MB; 16 vertices at degree 256 took
# 0.7-1.5 s and 101 vertices at degree 1 0.5 s.  Larger requests are
# refused after the graph is read and before any path is counted
MAX_GRADED_WORK = 2**20


class _Sparse(list):
    """A row of entry texts that holds the text zero at every column but
    the ascending columns; _dumps writes its runs of zeros by repetition."""

    __slots__ = ("zero", "columns")


def matrix_json(rig, matrix, columns=None) -> list:
    """The rows of matrix as lists of entry texts.

    Most entries of a large Mobius table are rig.zero itself (the exact
    solves land zeros as that object), so its text is rendered once.
    columns, when given, lists for each row the ascending columns where it
    holds anything but rig.zero, as family tables know them from their
    solve; no other entry is then read.  A row with at most half of them
    nonzero is a _Sparse; a denser one stays a list, joined at C level.
    """
    zero = rig.zero
    zero_text = render(rig, zero)
    if columns is None:
        return [[zero_text if v is zero else render(rig, v) for v in row] for row in matrix.rows]
    rows = []
    for row, nonzero in zip(matrix.rows, columns):
        texts = [zero_text] * len(row)
        if 2 * len(nonzero) <= len(row):
            texts = _Sparse(texts)
            texts.zero, texts.columns = zero_text, nonzero
        for j in nonzero:
            texts[j] = render(rig, row[j])
        rows.append(texts)
    return rows


def coarse_json(element) -> dict:
    return {
        "objects": list(element.objects),
        "matrix": matrix_json(element.rig, element.matrix),
    }


def fine_json(element) -> dict:
    return {k: render(element.rig, v) for k, v in element.values.items()}


# the types json writes as one token; a container of only these is flat
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _Encoded(dict):
    """The JSON text of each string looked up, encoded on first use."""

    def __missing__(self, text):
        self[text] = encoded = json.encoder.encode_basestring(text)
        return encoded


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False),
    byte for byte.

    json.dumps takes its C encoder only when indent is None, so _write
    walks the containers in Python and appends the text to one list,
    joined once at the end: no part of a large report is copied again at
    each level of nesting.  The strings of the report's flat lists are
    encoded once per distinct text, through json's own encode_basestring.
    Every call goes through this module's json global, so a stand-in for
    cli.json sees the encoding.
    """
    out = []
    _write(value, "", out, _Encoded())
    return "".join(out)


def _write(value, indent: str, out: list, encoded: _Encoded):
    """Append the text of value at the given indentation to out.

    A flat list of strings is joined from their encoded texts with an item
    separator that carries the newline and the indentation, and a _Sparse
    row repeats the encoded text of its zero over each run of zeros.  Any
    other flat list or dict takes one C-encoder call with that separator.
    The keys and scalar values of a dict that holds a container also take
    one call, separated by "\0", which json writes inside a string only as
    an escape.
    """
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = value, "[]"
    else:
        out.append(json.dumps(value, ensure_ascii=False))
        return
    if not value:
        out.append(brackets)
        return
    inner = indent + "  "
    separator = ",\n" + inner
    out.append(f"{brackets[0]}\n{inner}")
    if type(value) is _Sparse:
        zeros, last, body = encoded[value.zero] + separator, 0, []
        for j in value.columns:
            body += (zeros * (j - last), encoded[value[j]], separator)
            last = j + 1
        body.append(zeros * (len(value) - last))
        out.append("".join(body)[: -len(separator)])
    elif (types := set(map(type, items))) == {str} and brackets == "[]":
        out.append(separator.join(map(encoded.__getitem__, value)))
    elif _SCALARS.issuperset(types):
        out.append(json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(separator, ": "))[1:-1])
    elif brackets == "[]":
        for item in value:
            _write(item, inner, out, encoded)
            out.append(separator)
        out.pop()
    else:
        # a container is written as 0 here and replaced by its own text
        flat = {key: item if type(item) in _SCALARS else 0 for key, item in value.items()}
        pairs = json.dumps(flat, ensure_ascii=False, sort_keys=True, separators=("\0", ": "))[1:-1].split("\0")
        for pair, item in zip(pairs, map(value.__getitem__, sorted(value))):
            out.append(pair if type(item) in _SCALARS else pair[:-1])
            if type(item) not in _SCALARS:
                _write(item, inner, out, encoded)
            out.append(separator)
        out.pop()
    out.append(f"\n{indent}{brackets[1]}")


def _resolve_rig(args, allowed=None):
    spec = args.rig if args.rig is not None else os.environ.get("MOBIUSKIT_RIG")
    rig = get_rig(spec or "rat")
    if allowed is not None and rig.name not in allowed:
        raise UnsupportedRig(
            f"rig '{rig.name}' is not usable with this command (allowed: {', '.join(allowed)})"
        )
    return rig


def _not_invertible(rig_name: str, error: NotInvertible, **head):
    """The refusal of a solve that found no inverse: the keys head names,
    then the status and the solver's witness, with exit 2."""
    return rig_name, {**head, "status": "not_invertible", "witness": str(error)}, EXIT_NEGATIVE


def _algebra(name: str):
    """The zeta, the Mobius solver and the element renderer of one algebra.

    The table is read at the call, so a module global rebound after import
    (as perfbench/tracing.py rebinds each traced function) is the one used.
    """
    return {
        "fine": (fine_zeta, fine_mobius, fine_json),
        "coarse": (coarse_zeta, coarse_mobius, coarse_json),
        "patch": (patch_zeta, patch_mobius, coarse_json),
    }[name]


def _broken_law(cat):
    """The results naming the first category law cat breaks, as validate
    names it, or None when it obeys them all."""
    validation = validate_category(cat)
    if not validation.ok:
        return {"category_valid": False, "law": validation.law, "witness": validation.witness}


def cmd_validate(args):
    cat = load_category(args.category)
    report = validate_category(cat)
    results = {"valid": report.ok, "objects": len(cat.objects), "arrows": len(cat.arrow_names())}
    if not report.ok:
        results.update(law=report.law, witness=report.witness)
    return "rat", results, EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_zeta(args):
    rig = _resolve_rig(args)
    cat = load_category(args.category)
    zeta, _, as_json = _algebra(args.algebra)
    z = zeta(cat, rig)
    results = {"algebra": args.algebra, "zeta": as_json(z)}
    if args.algebra == "patch":
        results["support"] = sorted(f"{a}->{b}" for (a, b) in z.support)
    return rig.name, results, EXIT_OK


def cmd_mobius(args):
    if args.family and args.category:
        raise MalformedInput("give --category or --family, not both")
    if args.family:
        # a family table is the patch inverse, the one algebra it has
        if args.algebra not in (None, "patch"):
            raise MalformedInput(f"--family tables are patch inversions, --algebra {args.algebra} needs --category")
        rig = _resolve_rig(args, SOLVE_RIGS)
        if args.start is None or args.end is None:
            raise MalformedInput("--family needs --from and --to")
        if args.end < args.start:
            raise MalformedInput("--to must be at least --from")
        count = args.end - args.start + 1
        if count > MAX_FAMILY_INDICES:
            raise MalformedInput(
                f"--family tables are limited to {MAX_FAMILY_INDICES} indices, "
                f"--from {args.start} --to {args.end} asks for {count}"
            )
        least = 1 if args.family == "divisibility" else 0
        if args.start < least:
            raise MalformedInput(f"family '{args.family}' indexes integers >= {least}")
        try:
            mu, columns = _family_table(builtin(args.family), args.start, args.end, rig)
        except NotInvertible as e:
            return _not_invertible(rig.name, e, family=args.family)
        results = {
            "family": args.family,
            "algebra": "patch",
            "objects": [str(i) for i in range(args.start, args.end + 1)],
            "mobius": matrix_json(rig, mu, columns),
        }
        return rig.name, results, EXIT_OK
    if not args.category:
        raise MalformedInput("mobius needs --category or --family")
    rig = _resolve_rig(args, SOLVE_RIGS)
    cat = load_category(args.category)
    algebra = args.algebra or "coarse"
    _, mobius, as_json = _algebra(algebra)
    try:
        mu = mobius(cat, rig)
    except NotInvertible as e:
        return _not_invertible(rig.name, e, algebra=algebra)
    return rig.name, {"algebra": algebra, "status": "ok", "mobius": as_json(mu)}, EXIT_OK


def cmd_euler(args):
    rig = _resolve_rig(args, SOLVE_RIGS)
    cat = load_category(args.category)
    try:
        value = euler_characteristic(cat, rig)
    except NotInvertible as e:
        return _not_invertible(rig.name, e)
    return rig.name, {"status": "ok", "euler_characteristic": render(rig, value)}, EXIT_OK


def cmd_nerve_euler(args):
    cat = load_category(args.category)
    # the chain count is the coarse inverse only for a table that obeys the
    # laws, so a broken law is reported as classify reports it
    if broken := _broken_law(cat):
        return "int", broken, EXIT_NEGATIVE
    try:
        value = nerve_euler_characteristic(cat)
    except NotNerveFinite as e:
        return "int", {"status": "not_nerve_finite", "reason": str(e)}, EXIT_NEGATIVE
    return "int", {"status": "ok", "euler_characteristic": str(value)}, EXIT_OK


def cmd_magnitude(args):
    try:
        counts = [int(x) for x in (args.study or "").split(",") if x]
    except ValueError:
        raise MalformedInput(f"--study must be comma-separated point counts, got {args.study!r}") from None
    if max(counts, default=0) > MAX_METRIC_POINTS:
        raise MalformedInput(f"--study is limited to {MAX_METRIC_POINTS} points, got {max(counts)}")
    if min(counts, default=1) < 1:
        raise MalformedInput(f"--study needs at least one point, got {min(counts)}")
    space = load_metric(args.metric)
    results = {"status": "ok"}
    try:
        if args.study:
            results["study"] = [[n, f"{value:.12g}"] for n, value in segment_refinement_study(counts)]
        results["magnitude"] = f"{magnitude(space):.12g}"
    except NotInvertible as e:
        return _not_invertible("real", e)
    return "real", results, EXIT_OK


def cmd_graded(args):
    if args.degree < 1:
        raise MalformedInput("--degree must be >= 1")
    rig = polynomial_rig(args.degree)  # refuses a degree above MAX_SERIES_DEGREE
    graph = load_graph(args.graph)
    vertices = len(graph.vertices)
    if vertices**3 * args.degree > MAX_GRADED_WORK:
        raise BudgetExceeded(
            f"graded is limited to vertices^3 * degree <= {MAX_GRADED_WORK}, "
            f"got {vertices} vertices at degree {args.degree}"
        )
    graded = GradedGraphCategory(graph, args.degree)
    zeta = graded_zeta(graded)
    mobius = graded_mobius(graded)
    results = {
        "degree": args.degree,
        "zeta": coarse_json(zeta),
        "mobius": coarse_json(mobius),
        "mobius_total": render(mobius.rig, mobius.total()),
    }
    return rig.name, results, EXIT_OK


def cmd_classify(args):
    cat = load_category(args.category)
    inversions = {}
    for label, attempt_rig in (("q", RAT), ("z", INT)):
        for algebra, solve in (("fine", fine_mobius), ("coarse", coarse_mobius)):
            try:
                solve(cat, attempt_rig)
                status = "ok"
            except NotInvertible as e:
                status = f"not_invertible: {e}"
            inversions[f"{algebra}_inversion_{label}"] = status
    # the Mobius-category predicate assumes the laws, so a table that breaks
    # one is reported as validate reports it.  The inversions come first
    # only so that a composite starting at another object stays malformed
    # input to the fine solve (exit 1), as in mobius and compare
    if broken := _broken_law(cat):
        return "rat", broken, EXIT_NEGATIVE
    report = endomorphism_report(cat)
    results = {
        "skeletal": report.skeletal,  # is_skeletal, from the one walk of the isomorphisms
        "nontrivial_isos": sorted(report.nontrivial_isos),
        "nontrivial_idempotents": sorted(report.nontrivial_idempotents),
        "nontrivial_endos": sorted(report.nontrivial_endos),
        "mobius_category": report.mobius,
        **inversions,
    }
    return "rat", results, EXIT_OK if report.mobius else EXIT_NEGATIVE


def cmd_functor_check(args):
    # the one command that needs the functor machinery loads it
    from .functoriality import fibre_sizes, is_bijective_on_objects, is_ulf

    source = load_category(args.src)
    target = load_category(args.tgt)
    functor = load_functor(args.map, source, target)
    validation = functor.validate()
    if not validation.ok:
        return "rat", {"functor_valid": False, "law": validation.law, "witness": validation.witness}, EXIT_NEGATIVE
    ulf, witness = is_ulf(functor)
    results = {
        "functor_valid": True,
        "bijective_on_objects": is_bijective_on_objects(functor),
        "ulf": ulf,
        "fibre_sizes": fibre_sizes(functor),
    }
    if not ulf:
        h, g1, g2, count = witness
        results["ulf_counterexample"] = {"arrow": h, "factorization": [g1, g2], "lifts": count}
    return "rat", results, EXIT_OK


def cmd_matrix(args):
    rig = _resolve_rig(args, SOLVE_RIGS if args.op == "zeros" else None)
    m = load_matrix(args.infile, rig)
    ok = True
    if args.op == "detpm":
        plus, minus = matrixrig.det_halves(m)
        results = {"det_plus": render(rig, plus), "det_minus": render(rig, minus)}
    elif args.op == "adjpm":
        plus, minus = matrixrig.adj_halves(m)
        results = {"adj_plus": matrix_json(rig, plus), "adj_minus": matrix_json(rig, minus)}
    elif args.op == "transitive":
        ok, witness = matrixrig.is_transitive(m)
        results = {"transitive": ok}
        if not ok:
            results["counterexample_path"] = list(witness)
    else:  # zeros, the last of the parser's choices
        if m.n > MAX_ZEROS_DIM:
            raise BudgetExceeded(f"matrix --op zeros is limited to {MAX_ZEROS_DIM} rows, got {m.n}")
        try:
            inverse = matrixrig.invert(m)
        except NotInvertible as e:
            return _not_invertible(rig.name, e)
        ok, violation = matrixrig.inverse_zero_check(m, inverse)
        results = {"status": "ok", "inverse": matrix_json(rig, inverse), "zero_pattern_inherited": ok}
        if not ok:
            results["violation"] = list(violation)
    return rig.name, results, EXIT_OK if ok else EXIT_NEGATIVE


def cmd_compare(args):
    rig = _resolve_rig(args, SOLVE_RIGS)
    cat_a = load_category(args.category_a)
    cat_b = load_category(args.category_b)
    if not graphs_equal(underlying_graph(cat_a), underlying_graph(cat_b)):
        raise MalformedInput("compare needs two categories on the same underlying graph")
    try:
        mu_a = fine_mobius(cat_a, rig)
        mu_b = fine_mobius(cat_b, rig)
    except NotInvertible as e:
        return _not_invertible(rig.name, e, same_graph=True)
    sums_a = sigma_to_coarse(mu_a)
    sums_b = sigma_to_coarse(mu_b)
    checks = {
        "haigh_first": sums_a.equal(coarse_mobius(cat_a, rig)),
        "haigh_second": sums_b.equal(coarse_mobius(cat_b, rig)),
        "menni_hom_sums_agree": sums_a.equal(sums_b),
        "euler_characteristics_agree": rig.eq(mu_a.rig.sum(mu_a.values.values()), mu_b.rig.sum(mu_b.values.values())),
    }
    results = {"same_graph": True, "status": "ok", **checks, "hom_sums": coarse_json(sums_a)}
    return rig.name, results, EXIT_OK if all(checks.values()) else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and each subcommand's handler is bound here."""
    parser = argparse.ArgumentParser(
        prog="mobiuskit",
        description="Exact Mobius inversion for finite and patch-finite categories",
    )
    # only the commands whose answer depends on the rig take --rig
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timing", action="store_true", help="attach wall-clock timing to the report")
    rigged = argparse.ArgumentParser(add_help=False, parents=[common])
    rigged.add_argument("--rig", help="nat|int|rat|real|bool (default from MOBIUSKIT_RIG, then rat)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check the category laws of a file")
    p.add_argument("--category", required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("zeta", parents=[rigged], help="zeta element of a category")
    p.add_argument("--category", required=True)
    p.add_argument("--algebra", choices=["fine", "coarse", "patch"], default="coarse")
    p.set_defaults(handler=cmd_zeta)

    p = sub.add_parser("mobius", parents=[rigged], help="Mobius function (category file or built-in family)")
    p.add_argument("--category")
    # no default: --category reads none as coarse, --family accepts only patch
    p.add_argument("--algebra", choices=["fine", "coarse", "patch"])
    p.add_argument("--family", choices=["dinj", "dsurj", "divisibility", "nat_leq"])
    p.add_argument("--from", dest="start", type=int)
    p.add_argument("--to", dest="end", type=int)
    p.set_defaults(handler=cmd_mobius)

    p = sub.add_parser("euler", parents=[rigged], help="Euler characteristic via coarse Mobius inversion")
    p.add_argument("--category", required=True)
    p.set_defaults(handler=cmd_euler)

    p = sub.add_parser("nerve-euler", parents=[common], help="Euler characteristic of the classifying space")
    p.add_argument("--category", required=True)
    p.set_defaults(handler=cmd_nerve_euler)

    p = sub.add_parser("magnitude", parents=[common], help="magnitude of a finite metric space")
    p.add_argument("--metric", required=True)
    p.add_argument("--study", help="comma-separated point counts for the segment refinement table")
    p.set_defaults(handler=cmd_magnitude)

    p = sub.add_parser("graded", parents=[common], help="graded zeta/Mobius of the free category on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=cmd_graded)

    p = sub.add_parser("classify", parents=[common], help="Mobius-category classification report")
    p.add_argument("--category", required=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("functor-check", parents=[common], help="ULF / bijective-on-objects / fibre report")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(handler=cmd_functor_check)

    p = sub.add_parser("matrix", parents=[rigged], help="determinant/adjugate halves, transitivity, zero patterns")
    p.add_argument("--op", choices=["detpm", "adjpm", "transitive", "zeros"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=cmd_matrix)

    p = sub.add_parser("compare", parents=[rigged], help="Haigh/Menni checks for two categories on one graph")
    p.add_argument("--category-a", required=True)
    p.add_argument("--category-b", required=True)
    p.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Each cmd_* handler returns (rig name, results, exit code), and main
    alone wraps them in the report it writes.

    The cyclic garbage collector is paused for the one command: parsing,
    the handler and rendering.  A large load allocates hundreds of
    thousands of tuples and dicts that live to the end of the command, and
    each collection would walk them again.  Reference counting still frees
    everything outside a cycle at once; a cycle waits for the first
    collection after the command.  A finally then restores the collector
    state the caller had, whether the command succeeds, fails or raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return EXIT_OK if e.code in (0, None) else EXIT_MALFORMED
        started = time.perf_counter()
        try:
            rig_name, results, code = args.handler(args)
        except MobiusKitError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_MALFORMED if isinstance(e, (MalformedInput, UnsupportedRig, BudgetExceeded)) else EXIT_NEGATIVE
        report = {"command": args.command, "rig": rig_name, "results": results, "warnings": []}
        if args.timing:
            report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        sys.stdout.write(_dumps(report) + "\n")
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
