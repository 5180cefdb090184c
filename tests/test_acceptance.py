"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  All random data is seeded; the seeds are printed so runs
are reproducible.
"""

import contextlib
import io
import json
import math
import os
import random
import time
from fractions import Fraction
from math import comb

from mobiuskit.category import product
from mobiuskit.category import endomorphism_report, is_skeletal
from corpus import (
    fine_invertible_corpus,
    galois_connection_corpus,
    general_corpus,
    functor_corpus,
    parallel_composite_category,
    random_dag,
    random_matrix,
    random_poset_category,
    random_table_category,
    random_transitive_invertible_matrix,
    same_graph_composition_pairs,
    six_example_category,
)
from mobiuskit.enriched import (
    GradedGraphCategory,
    MetricSpace,
    graded_mobius,
    graded_zeta,
    magnitude,
    segment_refinement_study,
)
from mobiuskit.errors import NotInvertible
from mobiuskit.functoriality import (
    beck_chevalley_check,
    is_bijective_on_objects,
    is_mobius_category,
    is_ulf,
    mobius_by_subcategories,
    pullback_is_homomorphism,
    pushforward_is_homomorphism,
    rota_check,
    validate_adjunction,
)
from mobiuskit.incidence import (
    coarse_mobius,
    coarse_zeta,
    fine_mobius,
    nerve_euler_characteristic,
    sigma_to_coarse,
)
from mobiuskit.infinite import builtin, classical_mobius, patchwise_mobius
from mobiuskit.matrixrig import (
    RigMatrix,
    inverse_zero_check,
    invert,
    is_transitive,
    lemma_identity_check,
)
from mobiuskit.rigs import INT, NAT, RAT, TruncatedSeries, polynomial_rig
from leroux import chain_counts

CORPUS_SEED = 2026


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_six_example_exact():
    started = time.perf_counter()
    six = six_example_category()
    mu = fine_mobius(six, RAT)
    expected = {
        "1a": Fraction(1),
        "1b": Fraction(2),
        "s": Fraction(-1),
        "i": Fraction(-1),
        "e": Fraction(0),
    }
    fine_ok = mu.values == expected
    coarse = coarse_mobius(six, RAT)
    haigh_ok = sigma_to_coarse(mu).equal(coarse)
    elapsed = time.perf_counter() - started
    report(
        1,
        fine_ok and haigh_ok and elapsed < 1.0,
        f"split-idempotent example: fine mu exact={fine_ok}, "
        f"coarse = summed fine = {haigh_ok}, {elapsed:.3f}s < 1s",
    )


def test_criterion_02_injection_surjection_families():
    started = time.perf_counter()
    dinj = builtin("dinj")
    dsurj = builtin("dsurj")
    checked = 0
    ok = True
    for m in range(0, 11):
        for n in range(0, 11):
            got = patchwise_mobius(dinj, m, n, RAT)
            want = Fraction((-1) ** (n - m) * comb(n, m)) if m <= n else Fraction(0)
            ok = ok and got == want
            got = patchwise_mobius(dsurj, m, n, RAT)
            if m == n == 0:
                want = Fraction(1)
            elif n >= 1 and m >= n:
                want = Fraction((-1) ** (m - n) * comb(m - 1, n - 1))
            else:
                want = Fraction(0)
            ok = ok and got == want
            checked += 2
    elapsed = time.perf_counter() - started
    report(
        2,
        ok and elapsed < 5.0,
        f"order-injection/surjection mu formulas exact on {checked} pairs "
        f"(0 <= m, n <= 10), {elapsed:.3f}s < 5s",
    )


def test_criterion_03_divisibility_against_classical_oracle():
    div = builtin("divisibility")
    checked = 0
    ok = True
    for b in range(1, 61):
        for a in range(1, b + 1):
            if b % a != 0:
                continue
            ok = ok and patchwise_mobius(div, a, b, INT) == classical_mobius(b // a)
            checked += 1
    report(3, ok, f"divisibility mu equals classical mu(b/a) on {checked} pairs, 1 <= a | b <= 60")


def test_criterion_04_hall_formula_equivalence():
    seed = CORPUS_SEED + 4
    rng = random.Random(seed)
    ok = True
    for _ in range(200):
        cat = random_poset_category(rng, rng.randint(1, 8))
        solved = fine_mobius(cat, INT)
        ok = ok and solved.values == chain_counts(cat)
    report(4, ok, f"linear-solve mu = chain-count mu on 200 random posets (seed {seed})")


def test_criterion_05_haigh_and_menni():
    seed = CORPUS_SEED + 5
    corpus = fine_invertible_corpus(seed, 100)
    haigh_ok = True
    for cat in corpus:
        mu = fine_mobius(cat, RAT)
        haigh_ok = haigh_ok and sigma_to_coarse(mu).equal(coarse_mobius(cat, RAT))
    pairs_checked = 0
    menni_ok = True
    for left, right in same_graph_composition_pairs():
        try:
            mu_left = fine_mobius(left, RAT)
            mu_right = fine_mobius(right, RAT)
        except NotInvertible:
            continue
        menni_ok = menni_ok and sigma_to_coarse(mu_left).equal(sigma_to_coarse(mu_right))
        pairs_checked += 1
    report(
        5,
        haigh_ok and menni_ok and pairs_checked >= 5,
        f"summed fine mu = coarse mu on 100 categories (seed {seed}); "
        f"hom-sums agree on {pairs_checked} same-graph composition pairs",
    )


def test_criterion_06_nerve_euler_characteristic():
    seed = CORPUS_SEED + 6
    corpus = general_corpus(seed, 40)
    checked = 0
    ok = True
    for cat in corpus:
        if not is_skeletal(cat) or endomorphism_report(cat).nontrivial_endos:
            continue
        ok = ok and nerve_euler_characteristic(cat) == sum(chain_counts(cat).values())
        checked += 1
    pair_values = []
    for n_par, first, second in [(2, 0, 1), (3, 0, 2), (4, 1, 3)]:
        left = parallel_composite_category(n_par, first)
        right = parallel_composite_category(n_par, second)
        pair_values.append(
            nerve_euler_characteristic(left) == nerve_euler_characteristic(right)
        )
    report(
        6,
        ok and checked >= 10 and all(pair_values),
        f"nerve chi = alternating chain count on {checked} corpus categories (seed {seed}); "
        f"nerve chi agrees across {len(pair_values)} same-graph composition pairs",
    )


def test_criterion_07_graded_free_categories():
    seed = CORPUS_SEED + 7
    rng = random.Random(seed)
    degree = 12
    rig = polynomial_rig(degree)
    t = TruncatedSeries.variable(degree)
    ok = True
    graphs = 0
    while graphs < 20:
        graph = random_dag(rng, rng.randint(1, 6), density=0.5, parallel=2)
        graded = GradedGraphCategory(graph, degree)
        zeta = graded_zeta(graded)
        mu = graded_mobius(graded)
        ident = RigMatrix.identity(rig, len(graph.vertices))
        ok = ok and zeta.matrix.mul(mu.matrix).equal(ident)
        ok = ok and mu.matrix.mul(zeta.matrix).equal(ident)
        want_total = rig.sub(
            rig.from_int(len(graph.vertices)),
            rig.mul(rig.from_int(len(graph.edges)), t),
        )
        ok = ok and mu.total() == want_total
        graphs += 1
    from mobiuskit.category import Arrow, DirectedGraph

    for m in range(1, 6):
        loops = DirectedGraph(("v",), tuple(Arrow(f"l{k}", "v", "v") for k in range(m)))
        mu = graded_mobius(GradedGraphCategory(loops, degree))
        want = rig.sub(rig.one, rig.mul(rig.from_int(m), t))
        ok = ok and mu.total() == want
    report(
        7,
        ok,
        f"graded mu*zeta = zeta*mu = delta (degree {degree}) on {graphs} random graphs "
        f"(seed {seed}); total mu = |G0| - |G1| t; one-vertex m-loop cases exact",
    )


def test_criterion_08_magnitude():
    started = time.perf_counter()
    closed_ok = True
    for d in (0.25, 1.0, 3.0):
        space = MetricSpace.from_distances(["p", "q"], [[0, d], [d, 0]])
        closed_ok = closed_ok and abs(magnitude(space) - 2.0 / (1.0 + math.exp(-d))) < 1e-10
    study = segment_refinement_study([11, 101, 1001])
    values = [value for _, value in study]
    monotone = values[0] < values[1] < values[2] <= 2.0
    final_ok = abs(values[2] - 2.0) < 0.01
    elapsed = time.perf_counter() - started
    report(
        8,
        closed_ok and monotone and final_ok and elapsed < 10.0,
        f"two-point closed form within 1e-10; segment study {[f'{v:.6f}' for v in values]} "
        f"approaches 2.0 monotonically, final within 0.01; {elapsed:.2f}s < 10s "
        "(compact-space magnitude beyond this finite refinement is out of scope)",
    )


def test_criterion_09_tensor_multiplicativity():
    seed = CORPUS_SEED + 9
    rng = random.Random(seed)
    from mobiuskit.enriched import tensor_mobius

    pairs = 0
    ok = True
    while pairs < 50:
        def pick():
            if rng.random() < 0.7:
                return random_poset_category(rng, rng.randint(1, 3))
            return random_table_category(rng)

        left, right = pick(), pick()
        if left is None or right is None:
            continue
        try:
            mu_left = coarse_mobius(left, RAT)
            mu_right = coarse_mobius(right, RAT)
        except NotInvertible:
            continue
        combined = tensor_mobius(mu_left, mu_right)
        direct = coarse_mobius(product(left, right), RAT)
        ok = ok and combined.objects == direct.objects and combined.matrix.equal(direct.matrix)
        pairs += 1
    report(
        9,
        ok,
        f"coarse mu of product = Kronecker product of factor mu on {pairs} "
        f"invertible pairs (seed {seed}), exact over Q",
    )


def test_criterion_10_matrix_identities_and_zero_patterns():
    seed = CORPUS_SEED + 10
    rng = random.Random(seed)
    lemma_ok = True
    for rig in (NAT, INT):
        for _ in range(500):
            n = rng.randint(1, 4)
            x = random_matrix(rng, rig, n)
            y = random_matrix(rng, rig, n)
            lemma_ok = lemma_ok and lemma_identity_check(x, y).ok
    zero_ok = True
    for index in range(200):
        if index % 2 == 0:
            z = random_transitive_invertible_matrix(rng, rng.randint(2, 7))
        else:
            z = perturbed_zeta_matrix(rng)
        transitive, _ = is_transitive(z)
        inherited, violation = inverse_zero_check(z, invert(z))
        zero_ok = zero_ok and transitive and inherited
    corpus_checked = 0
    corpus_ok = True
    for cat in general_corpus(seed, 40):
        zeta = coarse_zeta(cat, RAT)
        try:
            mu = coarse_mobius(cat, RAT)
        except NotInvertible:
            continue
        transitive, _ = is_transitive(zeta.matrix)
        inherited, _ = inverse_zero_check(zeta.matrix, mu.matrix)
        corpus_ok = corpus_ok and transitive and inherited
        corpus_checked += 1
    report(
        10,
        lemma_ok and zero_ok and corpus_ok,
        f"determinant/adjugate identities exact on 500 pairs over N and over Z; "
        f"zero-pattern inheritance on 200 transitive invertible matrices and "
        f"{corpus_checked} corpus zeta/mu pairs (seed {seed})",
    )


def perturbed_zeta_matrix(rng):
    """Coarse zeta of a random category, nonzero entries rescaled positively."""
    while True:
        cat = random_table_category(rng) or random_poset_category(rng, rng.randint(2, 5))
        if len(cat.objects) > 7:
            continue
        zeta = coarse_zeta(cat, RAT)
        rows = [
            [
                value * Fraction(rng.randint(1, 5), rng.randint(1, 3)) if value else Fraction(0)
                for value in row
            ]
            for row in zeta.matrix.rows
        ]
        candidate = RigMatrix.from_rows(RAT, rows)
        try:
            invert(candidate)
        except NotInvertible:
            continue
        return candidate


def test_criterion_11_functoriality_suite():
    corpus = functor_corpus()
    push_ok = pull_ok = True
    bo_pos = bo_neg = ulf_pos = ulf_neg = 0
    for rig in (RAT, INT):
        for label, functor in corpus:
            hom_push, _ = pushforward_is_homomorphism(functor, rig)
            hom_pull, _ = pullback_is_homomorphism(functor, rig)
            bo = is_bijective_on_objects(functor)
            ulf, _ = is_ulf(functor)
            push_ok = push_ok and hom_push == bo
            pull_ok = pull_ok and hom_pull == ulf
            if rig is RAT:
                bo_pos += bo
                bo_neg += not bo
                ulf_pos += ulf
                ulf_neg += not ulf
    from corpus import beck_chevalley_instances

    bc_count = 0
    bc_ok = True
    for f, g in beck_chevalley_instances():
        for rig in (RAT, INT):
            result = beck_chevalley_check(f, g, rig)
            bc_ok = bc_ok and result.hypotheses_ok and result.square_commutes
        bc_count += 1
    report(
        11,
        push_ok and pull_ok and bc_ok
        and bo_pos >= 10 and bo_neg >= 10 and ulf_pos >= 10 and ulf_neg >= 10
        and bc_count >= 5,
        f"pushforward-hom <=> bijective-on-objects ({bo_pos}+/{bo_neg}-) and "
        f"pullback-hom <=> ULF ({ulf_pos}+/{ulf_neg}-) over Q and Z; "
        f"{bc_count} Beck-Chevalley squares commute exactly",
    )


def test_criterion_12_rota_identity():
    connections = galois_connection_corpus()
    ok = len(connections) >= 3
    for label, adjunction in connections:
        valid, why = validate_adjunction(adjunction)
        ok = ok and valid
        for a in adjunction.left.source.objects:
            for b in adjunction.right.source.objects:
                equal, _, _ = rota_check(adjunction, a, b, RAT)
                ok = ok and equal
    report(
        12,
        ok,
        f"adjoint-pair Mobius identity holds at every object pair for "
        f"{len(connections)} validated Galois connections",
    )


def test_criterion_13_mobius_classifier():
    seed = CORPUS_SEED + 13
    checked = 0
    ok = True
    for cat in general_corpus(seed, 40):
        if len(cat.arrows) > 8:
            continue
        subcategory_answer, _ = mobius_by_subcategories(cat)
        ok = ok and subcategory_answer == is_mobius_category(cat)
        checked += 1
    six = six_example_category()
    six_ok = not is_mobius_category(six)
    try:
        fine_mobius(six, RAT)
        six_fine = True
    except NotInvertible:
        six_fine = False
    report(
        13,
        ok and checked >= 15 and six_ok and six_fine,
        f"classifier = exhaustive subcategory Z-inversion on {checked} corpus "
        f"categories (seed {seed}); split-idempotent example: not Mobius yet "
        f"Q-fine-invertible",
    )


def test_criterion_14_cli_golden_files():
    from mobiuskit.cli import main as cli_main

    here = os.path.dirname(os.path.abspath(__file__))
    data = os.path.join(here, "data")
    golden = os.path.join(data, "golden")
    with open(os.path.join(golden, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    ok = len(manifest) >= 20
    for name, case in sorted(manifest.items()):
        argv = [part.replace("{D}", data) for part in case["argv"]]
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            code = cli_main(argv)
        with open(os.path.join(golden, f"{name}.out.json"), encoding="utf-8") as handle:
            expected = handle.read()
        ok = ok and stream.getvalue() == expected and code == case["exit_code"]
    report(14, ok, f"{len(manifest)} shipped CLI reports reproduce byte-for-byte")
