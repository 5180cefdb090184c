import math
import os
import random
from fractions import Fraction

import pytest

from mobiuskit.category import (
    FinCategory,
    coproduct,
    is_mobius_category,
    monoid_to_category,
    patch_objects,
    poset_to_category,
    product,
    underlying_graph,
)
from corpus import (
    chain_category,
    cyclic_group_category,
    discrete_category,
    divisor_poset_category,
    fine_invertible_corpus,
    free_category_on_acyclic_graph,
    general_corpus,
    idempotent_monoid_category,
    materialize,
    named_categories,
    random_poset_category,
    random_dag,
    random_poset_relation,
    rig_sampler,
    same_graph_composition_pairs,
    six_example_category,
    square_poset_category,
    terminal_category,
    walking_iso_category,
)
from mobiuskit.errors import MalformedInput, NotInvertible, NotNerveFinite, RigMismatch, UnsupportedRig
from mobiuskit.fileio import load_category
from mobiuskit import matrixrig
from mobiuskit.incidence import (
    FineElement,
    PatchElement,
    coarse_delta,
    coarse_mobius,
    coarse_multiply,
    coarse_support,
    coarse_zeta,
    euler_characteristic,
    fine_convolve,
    fine_delta,
    fine_invert,
    fine_mobius,
    fine_zeta,
    nerve_euler_characteristic,
    patch_delta,
    patch_mobius,
    patch_multiply,
    patch_zeta,
    sigma_to_coarse,
    sigma_to_patch,
    verify_inverse,
)
from mobiuskit.infinite import builtin, family_mobius
from leroux import chain_counts
from oracles import classical_mobius
import pairwise
from mobiuskit.matrixrig import RigMatrix, invert_counting_matrix, is_transitive
from mobiuskit.rigs import BOOL, INT, NAT, RAT, REAL, render


def random_fine_element(cat, rig, rng):
    sample = rig_sampler(rig)
    return FineElement(cat, rig, {name: sample(rng) for name in cat.arrow_names()})


def test_fine_delta_and_zeta_basics():
    term = terminal_category()
    assert fine_delta(term, INT).values == fine_zeta(term, INT).values
    chain2 = chain_category(2)
    zeta = fine_zeta(chain2, INT)
    assert all(v == 1 for v in zeta.values.values())
    c2 = cyclic_group_category(2)
    delta = fine_delta(c2, INT)
    assert delta.values[("el", 0)] == 1
    assert delta.values[("el", 1)] == 0


def test_fine_convolution_unit_laws():
    rng = random.Random(31)
    for cat in [six_example_category(), chain_category(3), cyclic_group_category(3)]:
        delta = fine_delta(cat, RAT)
        for _ in range(5):
            x = random_fine_element(cat, RAT, rng)
            assert fine_convolve(x, delta).equal(x)
            assert fine_convolve(delta, x).equal(x)


def test_fine_convolution_counts_factorizations():
    chain2 = chain_category(2)
    zeta = fine_zeta(chain2, INT)
    square = fine_convolve(zeta, zeta)
    assert square.values[("le", 0, 1)] == 2
    c2 = cyclic_group_category(2)
    zeta2 = fine_zeta(c2, INT)
    square2 = fine_convolve(zeta2, zeta2)
    assert square2.values[("el", 0)] == 2
    assert square2.values[("el", 1)] == 2


def test_fine_convolution_associativity_on_random_triples():
    rng = random.Random(37)
    corpus = [c for c in general_corpus(41, 25) if len(c.arrows) <= 12]
    for rig in (INT, RAT, BOOL):
        for cat in corpus[:10]:
            x = random_fine_element(cat, rig, rng)
            y = random_fine_element(cat, rig, rng)
            z = random_fine_element(cat, rig, rng)
            left = fine_convolve(fine_convolve(x, y), z)
            right = fine_convolve(x, fine_convolve(y, z))
            assert left.equal(right)


def test_fine_convolution_rejects_rig_mismatch():
    six = six_example_category()
    with pytest.raises(RigMismatch):
        fine_convolve(fine_zeta(six, INT), fine_zeta(six, RAT))


def test_fine_mobius_six_example_paper_values():
    six = six_example_category()
    mu = fine_mobius(six, RAT)
    assert mu.values == {
        "1a": Fraction(1),
        "1b": Fraction(2),
        "s": Fraction(-1),
        "i": Fraction(-1),
        "e": Fraction(0),
    }
    assert verify_inverse(mu, fine_zeta(six, RAT))


def test_no_nontrivial_group_has_fine_inversion():
    for n in (2, 3, 4):
        with pytest.raises(NotInvertible):
            fine_mobius(cyclic_group_category(n), RAT)


def test_fine_mobius_chain_matches_hand_values():
    chain3 = chain_category(3)
    mu = fine_mobius(chain3, RAT)
    assert mu.values[("le", 0, 2)] == 0
    assert mu.values[("le", 0, 1)] == -1
    assert mu.values[("le", 0, 0)] == 1


def test_fine_mobius_integer_route():
    chain3 = chain_category(3)
    mu = fine_mobius(chain3, INT)
    assert mu.values[("le", 0, 1)] == -1
    idem = idempotent_monoid_category()
    mu_q = fine_mobius(idem, RAT)
    assert mu_q.values[("el", "e")] == Fraction(-1, 2)
    with pytest.raises(NotInvertible) as err:
        fine_mobius(idem, INT)
    assert err.value.witness[0] == "non-integral"


def test_fine_mobius_unsupported_rig():
    with pytest.raises(UnsupportedRig):
        fine_mobius(chain_category(2), BOOL)


def test_fine_mobius_hall_examples():
    div6 = divisor_poset_category(6)
    mu = chain_counts(div6)
    assert mu[("le", 1, 6)] == 1
    assert mu[("le", 1, 2)] == -1
    assert mu[("le", 1, 1)] == 1
    chain3 = chain_category(3)
    mu3 = chain_counts(chain3)
    assert mu3[("le", 0, 2)] == 0


def test_fine_mobius_hall_refuses_non_mobius_categories():
    # a nontrivial idempotent, a nontrivial automorphism, an isomorphism
    # between distinct objects: each gives chains of every length
    for cat in (six_example_category(), cyclic_group_category(2), walking_iso_category()):
        with pytest.raises(NotNerveFinite):
            chain_counts(cat)


def test_hall_oracle_agrees_with_linear_solve():
    rng = random.Random(43)
    for _ in range(30):
        cat = random_poset_category(rng, rng.randint(1, 8))
        solved = fine_mobius(cat, INT)
        counted = chain_counts(cat)
        assert solved.values == counted


def shuffled_random_poset(rng, n):
    """Random poset whose objects are listed in a random order, so the
    arrows out of an object are not sorted by a linear extension: the
    forward pass has to find its order, and the block solve has to pivot
    off the diagonal."""
    relation = random_poset_relation(rng, n)
    elements = list(range(n))
    rng.shuffle(elements)
    return poset_to_category(elements, relation)


def decline(later):
    """Stands in for matrixrig._kahn_order: no order, so that every system
    goes to the Bareiss blocks."""
    return None


def test_block_solve_matches_hall_oracle_at_scale(monkeypatch):
    rng = random.Random(61)
    cats = [
        product(chain_category(6), chain_category(6)),
        divisor_poset_category(720),
    ] + [shuffled_random_poset(rng, n) for n in (20, 25, 30)]
    counts = [chain_counts(cat) for cat in cats]
    for forward in (True, False):
        if not forward:
            monkeypatch.setattr(matrixrig, "_kahn_order", decline)
        for cat, counted in zip(cats, counts):
            for rig in (INT, RAT):
                assert fine_mobius(cat, rig).values == counted


def random_free_dag_categories(seed, count):
    """Free categories on random acyclic graphs with 9 or 10 vertices and
    parallel edges, kept when they have 250 to 400 arrows."""
    rng = random.Random(seed)
    cats = []
    while len(cats) < count:
        cat = free_category_on_acyclic_graph(random_dag(rng, rng.choice((9, 10)), 0.35, 2))
        if 250 <= len(cat.arrows) <= 400:
            cats.append(cat)
    return cats


def no_bareiss(rows, rhs):
    raise AssertionError("a Bareiss block ran")


def test_forward_pass_matches_leroux_chain_count_on_non_thin_categories(monkeypatch):
    # Leroux's formula: mu(f) = sum over n of (-1)^n (chains of n
    # non-identity arrows composing to f), on Mobius categories whose
    # hom-sets are not thin, up to free categories of 2000+ arrows.  The
    # Bareiss blocks are patched to fail, so the forward pass served all
    monkeypatch.setattr(matrixrig, "_bareiss", no_bareiss)
    cats = [
        materialize("dinj", 0, 7),
        materialize("dinj", 0, 8),
        materialize("dsurj", 9, 1),
        product(chain_category(8), chain_category(8)),
    ]
    free = random_free_dag_categories(83, 4) + [
        free_category_on_acyclic_graph(random_dag(random.Random(seed), 13, 0.35, 2)) for seed in (1, 4)
    ]
    assert [len(cat.arrows) for cat in free[-2:]] == [2101, 2310]
    for cat in cats + free:
        counted = chain_counts(cat)
        for rig in (INT, RAT):
            mu = fine_mobius(cat, rig)
            assert mu.values == counted
            if cat in free:
                # fine_invert certifies one side; verify_inverse checks both
                assert verify_inverse(fine_zeta(cat, rig), mu)
    assert max(len(cat.hom(a, b)) for cat in cats + free for a in cat.objects for b in cat.objects) > 40


def test_block_solve_obeys_product_rule():
    chain6 = chain_category(6)
    for rig in (RAT, INT):
        mu = fine_mobius(chain6, rig)
        mu_square = fine_mobius(product(chain6, chain6), rig)
        assert mu_square.values == {
            (f, g): rig.mul(mu.values[f], mu.values[g])
            for f in chain6.arrow_names()
            for g in chain6.arrow_names()
        }


def c2_objects_after_a_chain(*endos):
    """Chain a < b, then one object per name in `endos`, each with the
    identity 1x and an involution sx (sx o sx = 1x).  Arrows are listed in
    the order 1a, f, 1b, then the identities, then the involutions in
    reverse order."""
    arrows = [("1a", "a", "a"), ("f", "a", "b"), ("1b", "b", "b")]
    arrows += [(f"1{o}", o, o) for o in endos] + [(f"s{o}", o, o) for o in reversed(endos)]
    compose = {("1a", "1a"): "1a", ("f", "1a"): "f", ("1b", "f"): "f", ("1b", "1b"): "1b"}
    for o in endos:
        one, s = f"1{o}", f"s{o}"
        compose.update({(one, one): one, (s, one): s, (one, s): s, (s, s): one})
    identity = {"a": "1a", "b": "1b", **{o: f"1{o}" for o in endos}}
    return FinCategory(("a", "b") + endos, arrows, identity, compose)


def test_singular_block_reports_global_column():
    # arrows 0..4 are 1a, f, 1b, 1t, st.  Under zeta both rows of the t
    # block read w(1t) + w(st), so column 4 (st) equals column 3 (1t); the
    # columns 0..3 are independent, so 4 is the first dependent column
    cat = c2_objects_after_a_chain("t")
    for rig in (RAT, INT):
        with pytest.raises(NotInvertible, match=r"^singular convolution system: no pivot in column 4$") as err:
            fine_mobius(cat, rig)
        assert err.value.witness == ("column", 4)


def test_first_dependent_column_wins_across_singular_blocks():
    # arrows 0..6 are 1a, f, 1b, 1t, 1u, su, st.  Block t (columns 3, 6)
    # starts first but fails at 6; block u (columns 4, 5) fails at 5, where
    # su repeats the column of 1u.  Columns 0..4 are independent, so the
    # first dependent column of the whole system is 5
    cat = c2_objects_after_a_chain("t", "u")
    for rig in (RAT, INT):
        with pytest.raises(NotInvertible, match=r"^singular convolution system: no pivot in column 5$") as err:
            fine_mobius(cat, rig)
        assert err.value.witness == ("column", 5)


def test_blocks_with_different_determinants_land_on_one_denominator(monkeypatch):
    # six (blocks of determinant 1 at a and at b) beside the max-monoid on
    # 0 < 1 < 2 (one block of determinant 6): the blocks' solutions share
    # d = 6, and land as the rationals each block gives on its own
    maximum = monoid_to_category(range(3), 0, {(x, y): max(x, y) for x in range(3) for y in range(3)})
    cat = coproduct(load_category(os.path.join(os.path.dirname(__file__), "data", "six.json")), maximum)
    bareiss = matrixrig._bareiss
    determinants = []

    def recording_bareiss(rows, rhs):
        d, values = bareiss(rows, rhs)
        determinants.append(d)
        return d, values

    monkeypatch.setattr(matrixrig, "_bareiss", recording_bareiss)
    names = [("L", "1a"), ("L", "1b"), ("L", "s"), ("L", "i"), ("L", "e")] + [("R", ("el", k)) for k in range(3)]
    expected = [1, 2, -1, -1, 0, 1, Fraction(-1, 2), Fraction(-1, 6)]
    mu = fine_mobius(cat, RAT)
    assert determinants == [1, 1, 6]
    assert list(mu.values) == names
    assert list(mu.values.values()) == expected
    assert all(type(v) is Fraction for v in mu.values.values())
    real = list(fine_mobius(cat, REAL).values.values())
    assert real == [1.0, 2.0, -1.0, -1.0, 0.0, 1.0, -0.5, -0.16666666666666666]
    assert all(type(v) is float for v in real)
    with pytest.raises(NotInvertible) as err:
        fine_mobius(cat, INT)
    assert str(err.value) == "inverse value on arrow ('R', ('el', 1)) = -1/2 is not an integer"
    assert err.value.witness == ("non-integral", ("R", ("el", 1)), "-1/2")


def test_forward_pass_matches_the_block_solve_on_the_corpus(monkeypatch):
    # the forward pass and the Bareiss blocks solve the same system, so
    # values, refusals, messages and witnesses agree, on zeta and on a
    # random integer element that is 1 on identities, over int, rat and
    # real; the blocks run when _kahn_order finds no order
    push = matrixrig._push_forward
    served = []

    def recording_push(*args):
        served.append(True)
        return push(*args)

    rng = random.Random(17)
    forward = 0
    for cat in certificate_corpus():
        values = {n: 1 if cat.is_identity(n) else rng.randint(-2, 2) for n in cat.arrow_names()}
        elements = [fine_zeta(cat, rig) for rig in (INT, RAT, REAL)] + [
            FineElement(cat, INT, values),
            FineElement(cat, RAT, {n: Fraction(v) for n, v in values.items()}),
            FineElement(cat, REAL, {n: float(v) for n, v in values.items()}),
        ]
        monkeypatch.setattr(matrixrig, "_push_forward", recording_push)
        served.clear()
        fast = [fine_invert_outcome(elements[0])]
        forward += bool(served)  # zeta over int took the pass
        fast += [fine_invert_outcome(x) for x in elements[1:]]
        monkeypatch.setattr(matrixrig, "_kahn_order", decline)
        blocks = [fine_invert_outcome(x) for x in elements]
        monkeypatch.undo()
        # repr: the same values, of the same types, in the same order
        assert repr(blocks) == repr(fast)
    assert forward >= 300


def non_associative_table_with_an_order():
    """Objects 0 < 1 < 2 < 3 with a: 0 -> 1, b: 1 -> 2, c: 2 -> 3 and the
    parallel pairs p, p' : 0 -> 2, q, q' : 1 -> 3 and r, r' : 0 -> 3, where
    c o (b o a) = c o p = r but (c o b) o a = q o a = r'.  Every non-identity
    factorization runs along 0 < 1 < 2 < 3, so the system has an order."""
    arrows = [(f"1{o}", o, o) for o in range(4)] + [
        ("a", 0, 1), ("b", 1, 2), ("c", 2, 3), ("p", 0, 2), ("p'", 0, 2),
        ("q", 1, 3), ("q'", 1, 3), ("r", 0, 3), ("r'", 0, 3),
    ]
    compose = {("b", "a"): "p", ("c", "b"): "q", ("c", "p"): "r", ("q", "a"): "r'",
               ("c", "p'"): "r'", ("q'", "a"): "r"}
    for name, s, t in arrows:
        compose[(f"1{t}", name)] = name
        compose[(name, f"1{s}")] = name
    return FinCategory(range(4), arrows, {o: f"1{o}" for o in range(4)}, compose)


def test_a_non_associative_table_with_an_order_fails_the_certificate(monkeypatch):
    cat = non_associative_table_with_an_order()
    assert cat.validate().law == "associativity"
    monkeypatch.setattr(matrixrig, "_bareiss", no_bareiss)
    for rig in (INT, RAT, REAL):
        with pytest.raises(NotInvertible, match=r"^left inverse exists but is not two-sided$") as err:
            fine_mobius(cat, rig)
        assert err.value.witness == ("one-sided", None)


def test_a_composite_starting_elsewhere_is_malformed_on_both_paths(monkeypatch):
    # 1b o 1b lands on 1a, an arrow out of another object
    arrows = [("1a", "a", "a"), ("1b", "b", "b")]
    cat = FinCategory(("a", "b"), arrows, {"a": "1a", "b": "1b"}, {("1a", "1a"): "1a", ("1b", "1b"): "1a"})
    message = r"^compose\('1b', '1b'\) = '1a': the composite starts at 'a', not at the source 'b' of '1b'$"
    with pytest.raises(MalformedInput, match=message):
        fine_mobius(cat, RAT)
    monkeypatch.setattr(matrixrig, "_kahn_order", decline)
    with pytest.raises(MalformedInput, match=message):
        fine_mobius(cat, RAT)


def test_systems_without_a_unit_diagonal_order_take_the_blocks(monkeypatch):
    # zeta / 2 on chain(3) scales to zeta (e = 2), unit-diagonal and
    # acyclic, so it takes the forward pass with d = 1.  A diagonal
    # coefficient 2 (composite_endpoints.json, where g o f = f adds x(g)
    # to the coefficient of w(f)) looks for no order, and the cycle of a
    # group of order 2 under zeta and under 1 + 2s, both unit-diagonal,
    # looks for one ("kahn") and finds none
    kahn, push, bareiss = matrixrig._kahn_order, matrixrig._push_forward, matrixrig._bareiss
    calls = []
    monkeypatch.setattr(matrixrig, "_kahn_order", lambda later: calls.append("kahn") or kahn(later))
    monkeypatch.setattr(matrixrig, "_push_forward", lambda *args: calls.append("pass") or push(*args))
    monkeypatch.setattr(matrixrig, "_bareiss", lambda rows, rhs: calls.append("block") or bareiss(rows, rhs))

    chain3 = chain_category(3)
    half = FineElement(chain3, RAT, {n: Fraction(1, 2) for n in chain3.arrow_names()})
    assert fine_invert(half).values == {n: 2 * v for n, v in chain_counts(chain3).items()}
    assert calls == ["kahn", "pass"]

    calls.clear()
    endpoints = load_category(os.path.join(os.path.dirname(__file__), "data", "composite_endpoints.json"))
    with pytest.raises(NotInvertible, match=r"^singular convolution system: no pivot in column 3$") as err:
        fine_mobius(endpoints, RAT)
    assert err.value.witness == ("column", 3)
    assert calls == ["block", "block"]

    c2 = cyclic_group_category(2)
    calls.clear()
    with pytest.raises(NotInvertible, match=r"^singular convolution system: no pivot in column 1$"):
        fine_mobius(c2, RAT)
    assert calls == ["kahn", "block"]
    calls.clear()
    one, s = c2.arrow_names()
    assert c2.is_identity(one)
    x = FineElement(c2, RAT, {one: Fraction(1), s: Fraction(2)})
    assert fine_invert(x).values == {one: Fraction(-1, 3), s: Fraction(2, 3)}
    assert calls == ["kahn", "block"]


def test_verify_inverse_examples():
    six = six_example_category()
    delta = fine_delta(six, RAT)
    assert verify_inverse(delta, delta)
    chain2 = chain_category(2)
    zeta = fine_zeta(chain2, INT)
    assert not verify_inverse(zeta, zeta)


def test_fine_invert_general_elements():
    # over the rationals, any element of the six-example algebra with
    # nonzero "determinant" inverts; over the integers, unit diagonal
    # suffices in a Mobius category (here: a chain)
    six = six_example_category()
    values = {
        "1a": Fraction(1),
        "1b": Fraction(-1),
        "s": Fraction(3),
        "i": Fraction(2),
        "e": Fraction(-4),
    }
    x = FineElement(six, RAT, values)
    inverse = fine_invert(x)
    assert verify_inverse(x, inverse)

    chain3 = chain_category(3)
    values_int = {
        name: (1 if chain3.is_identity(name) else 5) for name in chain3.arrow_names()
    }
    values_int[("le", 1, 1)] = -1
    y = FineElement(chain3, INT, values_int)
    inverse_int = fine_invert(y)
    assert verify_inverse(y, inverse_int)


def test_a_non_associative_table_fails_the_one_sided_certificate():
    # unital but not associative: (a o a) o b = b, a o (a o b) = a.  The
    # constructor checks structure only, so fine_mobius sees this table.
    # w * zeta = delta solves over Q with w(1) = -2/3, but zeta * w is not
    # delta; over Z the non-integral value is reported first
    arrows = [("1", "o", "o"), ("a", "o", "o"), ("b", "o", "o")]
    compose = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("1", "b"): "b", ("b", "1"): "b",
               ("a", "a"): "1", ("a", "b"): "1", ("b", "a"): "a", ("b", "b"): "1"}
    cat = FinCategory(("o",), arrows, {"o": "1"}, compose)
    assert not cat.validate().ok
    for rig in (RAT, REAL):
        with pytest.raises(NotInvertible, match=r"^left inverse exists but is not two-sided$") as err:
            fine_mobius(cat, rig)
        assert err.value.witness == ("one-sided", None)
    with pytest.raises(NotInvertible, match=r"^inverse value on arrow '1' = -2/3 is not an integer$") as err:
        fine_mobius(cat, INT)
    assert err.value.witness == ("non-integral", "1", "-2/3")


def certificate_corpus():
    """415 categories: the named ones and two random corpora, with
    singular, non-integral and invertible fine zeta functions."""
    return list(named_categories().values()) + general_corpus(5, 300) + fine_invertible_corpus(7, 100)


def fine_invert_outcome(x):
    try:
        return fine_invert(x)
    except NotInvertible as err:
        return str(err), err.witness


def test_fine_mobius_passes_the_two_sided_check_on_the_corpus():
    # fine_invert certifies one side only; verify_inverse checks both.
    # Over the reals every value is the rational one rounded once
    outcomes = set()
    for cat in certificate_corpus():
        rat_zeta = fine_zeta(cat, RAT)
        rat = fine_invert_outcome(rat_zeta)
        real = fine_invert_outcome(fine_zeta(cat, REAL))
        if isinstance(rat, tuple):
            assert real == rat
            assert rat[1][0] == "column"
            outcomes.add("singular")
            continue
        assert verify_inverse(rat_zeta, rat)
        assert real.values == {n: float(v) for n, v in rat.values.items()}
        integral = all(v.denominator == 1 for v in rat.values.values())
        int_zeta = fine_zeta(cat, INT)
        mu = fine_invert_outcome(int_zeta)
        assert isinstance(mu, FineElement) == integral
        if integral:
            assert verify_inverse(int_zeta, mu)
        outcomes.add("integral" if integral else "fractional")
    assert outcomes == {"singular", "integral", "fractional"}


def test_fine_invert_of_random_fractional_elements_passes_the_two_sided_check(monkeypatch):
    # fractional values scale x by e > 1, and dense blocks of random values
    # end elimination on determinants d other than 1, negative ones too, so
    # the certificate's common denominator D is not 1.  The values are
    # dyadic, so the real element holds the rational one exactly
    denominators = []
    bareiss = matrixrig._bareiss

    def recording_bareiss(rows, rhs):
        d, scaled = bareiss(rows, rhs)
        denominators.append(d)
        return d, scaled

    monkeypatch.setattr(matrixrig, "_bareiss", recording_bareiss)
    rng = random.Random(29)
    checked = 0
    for cat in certificate_corpus():
        floats = {n: rng.randint(-24, 24) / rng.choice((1, 2, 4, 8)) for n in cat.arrow_names()}
        x = FineElement(cat, RAT, {n: Fraction(v) for n, v in floats.items()})
        inverse = fine_invert_outcome(x)
        real = fine_invert_outcome(FineElement(cat, REAL, floats))
        if isinstance(inverse, tuple):
            assert real == inverse
            assert inverse[1][0] == "column"
            continue
        assert verify_inverse(x, inverse)
        assert real.values == {n: float(v) for n, v in inverse.values.items()}
        checked += 1
    assert checked > 300
    assert min(denominators) < -1 and max(denominators) > 1


def test_coarse_zeta_examples():
    c3 = cyclic_group_category(3)
    assert coarse_zeta(c3, INT).matrix.rows == ((3,),)
    disc = discrete_category(3)
    assert coarse_zeta(disc, INT).matrix.equal(RigMatrix.identity(INT, 3))
    six = six_example_category()
    assert coarse_zeta(six, INT).matrix.rows == ((2, 1), (1, 1))


def test_coarse_mobius_examples():
    c3 = cyclic_group_category(3)
    assert coarse_mobius(c3, RAT).matrix.rows == ((Fraction(1, 3),),)
    six = six_example_category()
    assert coarse_mobius(six, RAT).matrix.rows == (
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
    )


def test_coarse_mobius_needs_skeletal():
    with pytest.raises(NotInvertible):
        coarse_mobius(walking_iso_category(), RAT)


def test_coarse_multiply_and_delta():
    six = six_example_category()
    zeta = coarse_zeta(six, RAT)
    mu = coarse_mobius(six, RAT)
    assert coarse_multiply(zeta, mu).matrix.equal(RigMatrix.identity(RAT, 2))
    assert coarse_multiply(mu, zeta).matrix.equal(RigMatrix.identity(RAT, 2))
    delta = coarse_delta(six, RAT)
    assert coarse_multiply(zeta, delta).equal(zeta)


def test_sigma_maps_zeta_to_zeta_and_delta_to_delta():
    for cat in general_corpus(47, 15):
        assert sigma_to_coarse(fine_zeta(cat, INT)).equal(coarse_zeta(cat, INT))
        assert sigma_to_coarse(fine_delta(cat, INT)).equal(coarse_delta(cat, INT))


def test_sigma_is_an_algebra_homomorphism():
    rng = random.Random(53)
    for cat in [six_example_category(), chain_category(3), cyclic_group_category(2)]:
        for _ in range(5):
            x = random_fine_element(cat, INT, rng)
            y = random_fine_element(cat, INT, rng)
            left = sigma_to_coarse(fine_convolve(x, y))
            right = coarse_multiply(sigma_to_coarse(x), sigma_to_coarse(y))
            assert left.equal(right)


def test_haigh_comparison_six_example():
    six = six_example_category()
    summed = sigma_to_coarse(fine_mobius(six, RAT))
    assert summed.equal(coarse_mobius(six, RAT))


def test_haigh_comparison_on_corpus():
    for cat in fine_invertible_corpus(59, 30):
        summed = sigma_to_coarse(fine_mobius(cat, RAT))
        assert summed.equal(coarse_mobius(cat, RAT))


def test_menni_same_graph_pairs():
    pairs = same_graph_composition_pairs()
    assert len(pairs) >= 5
    checked = 0
    for left, right in pairs:
        assert set(underlying_graph(left).edges) == set(underlying_graph(right).edges)
        try:
            mu_left = fine_mobius(left, RAT)
            mu_right = fine_mobius(right, RAT)
        except NotInvertible:
            continue
        assert sigma_to_coarse(mu_left).equal(sigma_to_coarse(mu_right))
        total_left = RAT.sum(mu_left.values.values())
        total_right = RAT.sum(mu_right.values.values())
        assert total_left == total_right
        checked += 1
    assert checked >= 5


def test_coarse_zeta_depends_only_on_graph():
    for left, right in same_graph_composition_pairs():
        assert coarse_zeta(left, INT).matrix.equal(coarse_zeta(right, INT).matrix)


def test_zero_pattern_of_coarse_mobius():
    for cat in general_corpus(61, 30):
        try:
            mu = coarse_mobius(cat, RAT)
        except NotInvertible:
            continue
        zeta = coarse_zeta(cat, RAT)
        ok, _ = is_transitive(zeta.matrix)
        assert ok
        for i in range(len(cat.objects)):
            for j in range(len(cat.objects)):
                if zeta.matrix.entry(i, j) == 0:
                    assert mu.matrix.entry(i, j) == 0


def test_patch_zeta_and_support():
    six = six_example_category()
    z = patch_zeta(six, INT)
    assert z.support == frozenset({("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")})
    chain2 = chain_category(2)
    z2 = patch_zeta(chain2, INT)
    assert (1, 0) not in z2.support


def patch_sum_product(x, y):
    """The patch product by its definition: sum over z in patch(a,b) only."""
    c, rig = x.category, x.rig
    rows = [
        [rig.sum(rig.mul(x.value(a, z), y.value(z, b)) for z in patch_objects(c, a, b)) for b in c.objects]
        for a in c.objects
    ]
    return RigMatrix.from_rows(rig, rows)


def test_patch_multiply_matches_the_patch_sum_definition():
    rng = random.Random(67)
    corpus = [divisor_poset_category(12), square_poset_category()] + general_corpus(7, 40)
    for rig in (RAT, BOOL):
        sample = rig_sampler(rig)
        for cat in corpus:
            support = coarse_support(cat)

            def supported():
                rows = [[sample(rng) if (a, b) in support else rig.zero for b in cat.objects] for a in cat.objects]
                return PatchElement(cat.objects, rig, RigMatrix.from_rows(rig, rows), support, cat)

            x, y = supported(), supported()
            xy = patch_multiply(x, y)
            assert xy.support == support
            assert xy.matrix.equal(patch_sum_product(x, y))


def test_patch_mobius_equals_coarse_mobius_for_finite_categories():
    for cat in general_corpus(71, 25):
        try:
            coarse = coarse_mobius(cat, RAT)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                patch_mobius(cat, RAT)
            continue
        patchwise = patch_mobius(cat, RAT)
        assert patchwise.matrix.equal(coarse.matrix)


def test_patch_mobius_divisors_matches_hall():
    div6 = divisor_poset_category(6)
    mu = patch_mobius(div6, INT)
    assert mu.value(1, 6) == 1
    hall = chain_counts(div6)
    assert mu.value(1, 6) == hall[("le", 1, 6)]


def test_patch_mobius_is_inverse_in_patch_algebra():
    for cat in [divisor_poset_category(12), six_example_category(), square_poset_category()]:
        mu = patch_mobius(cat, RAT)
        zeta = patch_zeta(cat, RAT)
        delta = patch_delta(cat, RAT)
        assert patch_multiply(mu, zeta).matrix.equal(delta.matrix)
        assert patch_multiply(zeta, mu).matrix.equal(delta.matrix)


def per_patch_reference(cat, rig):
    """The patch Mobius function by its definition: each supported pair
    (a,b) inverts the hom-count matrix of its own patch and reads off the
    (a,b) entry.  A failing patch raises its NotInvertible."""
    rows = [[rig.zero] * len(cat.objects) for _ in cat.objects]
    for i, a in enumerate(cat.objects):
        for j, b in enumerate(cat.objects):
            if cat.hom(a, b):
                objs = patch_objects(cat, a, b)
                inverse = invert_counting_matrix([[len(cat.hom(u, v)) for v in objs] for u in objs], rig)
                rows[i][j] = inverse.entry(objs.index(a), objs.index(b))
    return RigMatrix.from_rows(rig, rows)


def mobius_outcome(compute):
    """Entries with their types, or None when the inversion is refused."""
    try:
        matrix = compute()
    except NotInvertible:
        return None
    return [[(type(x), x) for x in row] for row in matrix.rows]


def test_patch_mobius_matches_per_patch_reference():
    rng = random.Random(5)
    corpus = (
        list(named_categories().values())
        + general_corpus(7, 120)
        + fine_invertible_corpus(3, 60)
        + [random_poset_category(rng, rng.randint(3, 14)) for _ in range(40)]
    )
    for rig in (RAT, INT, REAL):
        outcomes = set()
        for cat in corpus:
            want = mobius_outcome(lambda: per_patch_reference(cat, rig))
            assert mobius_outcome(lambda: patch_mobius(cat, rig).matrix) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}


def patch_refuses(cat, a, b, rig):
    """Whether inverting the hom-count matrix of patch(a,b) is refused."""
    objs = patch_objects(cat, a, b)
    try:
        invert_counting_matrix([[len(cat.hom(u, v)) for v in objs] for u in objs], rig)
    except NotInvertible:
        return True
    return False


def test_patch_mobius_failure_names_patch():
    # the coarse refusal's witness names a pair with a map whose own patch is refused
    iso = walking_iso_category()
    with pytest.raises(NotInvertible) as err:
        patch_mobius(iso, RAT)
    assert str(err.value) == "coarse zeta is singular: no pivot for object 'y'"
    assert err.value.witness == ("column", 1)
    y = iso.objects[1]
    assert iso.hom(y, y) and patch_refuses(iso, y, y, RAT)
    c2 = cyclic_group_category(2)
    with pytest.raises(NotInvertible) as err:
        patch_mobius(c2, INT)
    assert str(err.value) == "inverse entry (0,0) = 1/2 is not an integer"
    assert err.value.witness == ("non-integral", 0, 0, "1/2")
    star = c2.objects[0]
    assert c2.hom(star, star) and patch_refuses(c2, star, star, INT)
    assert patch_mobius(cyclic_group_category(2), RAT).value("*", "*") == Fraction(1, 2)
    # no solver over a rig without from_quotient, even with no pair to answer
    with pytest.raises(UnsupportedRig):
        patch_mobius(discrete_category(0), NAT)


def test_patch_mobius_at_scale_matches_closed_forms():
    def chain_mu(i, j):
        return {0: 1, 1: -1}.get(j - i, 0)

    square = product(chain_category(8), chain_category(8))
    divisors = divisor_poset_category(5040)
    for rig in (INT, RAT):
        mu = patch_mobius(square, rig)
        for (a1, a2) in square.objects:
            for (b1, b2) in square.objects:
                assert mu.value((a1, a2), (b1, b2)) == chain_mu(a1, b1) * chain_mu(a2, b2)
        mu = patch_mobius(divisors, rig)
        for a in divisors.objects:
            for b in divisors.objects:
                assert mu.value(a, b) == (classical_mobius(b // a) if b % a == 0 else 0)


def test_boolean_lattice_matches_closed_form():
    # subsets of a 6-element set as bitmasks: mu(A, B) = (-1)^|B - A| for A <= B
    subsets = range(64)
    lattice = poset_to_category(subsets, [(a, b) for a in subsets for b in subsets if a & ~b == 0])
    assert len(lattice.arrows) == 729

    def mu(a, b):
        return (-1) ** bin(b & ~a).count("1") if a & ~b == 0 else 0

    for rig in (INT, RAT):
        fine = fine_mobius(lattice, rig)
        assert all(fine(("le", a, b)) == mu(a, b) for (_, a, b) in fine.values)
        for mobius in (coarse_mobius, patch_mobius):
            matrix = mobius(lattice, rig)
            assert all(matrix.value(a, b) == mu(a, b) for a in subsets for b in subsets)
        assert euler_characteristic(lattice, rig) == 1


def test_boolean_lattice_on_eight_elements_by_chain_count():
    # 256 subsets, 6561 pairs A <= B: the thin-category builder is linear in
    # the composable pairs, and Hall's chain count gives (-1)^|B - A|
    subsets = range(256)
    lattice = poset_to_category(subsets, [(a, b) for a in subsets for b in subsets if a & ~b == 0])
    assert len(lattice.arrows) == 3 ** 8
    mu = chain_counts(lattice)
    assert all(value == (-1) ** bin(b & ~a).count("1") for (_, a, b), value in mu.items())
    assert nerve_euler_characteristic(lattice) == 1


def test_patch_element_rejects_offsupport_values():
    chain2 = chain_category(2)
    support = frozenset({(0, 0), (0, 1), (1, 1)})
    bad_rows = [[Fraction(1), Fraction(0)], [Fraction(5), Fraction(1)]]
    with pytest.raises(RigMismatch):
        PatchElement(chain2.objects, RAT, RigMatrix.from_rows(RAT, bad_rows), support, chain2)


def test_patch_element_names_the_first_offsupport_value_in_row_major_order():
    rng = random.Random(5)
    for c in (divisor_poset_category(60), chain_category(6), random_poset_category(rng, 9)):
        objs, support = c.objects, coarse_support(c)
        off = [(i, j) for i, a in enumerate(objs) for j, b in enumerate(objs) if (a, b) not in support]
        for rig in (INT, RAT, REAL, BOOL):
            base = coarse_zeta(c, rig).matrix.rows
            assert PatchElement(objs, rig, RigMatrix.from_rows(rig, base), support, c).support == support
            for picks in (off[:1], off[-1:], off[len(off) // 2:], rng.sample(off, 3)):
                rows = [list(row) for row in base]
                for i, j in picks:
                    rows[i][j] = rig.one
                if rig is REAL:
                    # within the tolerance of zero, so not a value off the support
                    i, j = min(picks)
                    rows[i][j] = 1e-300
                    picks = sorted(picks)[1:]
                matrix = RigMatrix.from_rows(rig, rows)
                if not picks:
                    assert PatchElement(objs, rig, matrix, support, c).matrix is matrix
                    continue
                i, j = min(picks)
                with pytest.raises(RigMismatch) as err:
                    PatchElement(objs, rig, matrix, support, c)
                assert str(err.value) == f"patch element has a nonzero value off-support at ({objs[i]!r},{objs[j]!r})"


def test_patch_element_counts_eq_zeros_that_are_not_the_zero_object():
    chain3 = chain_category(3)
    objs, support = chain3.objects, coarse_support(chain3)
    off = [(i, j) for i, a in enumerate(objs) for j, b in enumerate(objs) if (a, b) not in support]
    assert off == [(1, 0), (2, 0), (2, 1)]
    for rig, zeros, nonzero in ((RAT, [Fraction(0)], Fraction(2)), (REAL, [-0.0, 1e-13], 0.5)):
        base = coarse_zeta(chain3, rig).matrix.rows
        for zero in zeros:
            # zero by eq, but not the rig.zero object, so the identity scan passes it to eq
            assert zero is not rig.zero and rig.eq(zero, rig.zero)
            rows = [list(row) for row in base]
            for i, j in off:
                rows[i][j] = zero
            matrix = RigMatrix.from_rows(rig, rows)
            assert PatchElement(objs, rig, matrix, support, chain3).matrix is matrix
            # a real nonzero value off the support is named, the first in row-major order
            rows[2][0] = rows[2][1] = nonzero
            with pytest.raises(RigMismatch) as err:
                PatchElement(objs, rig, RigMatrix.from_rows(rig, rows), support, chain3)
            assert str(err.value) == f"patch element has a nonzero value off-support at ({objs[2]!r},{objs[0]!r})"


def _coarse_outcome(compute):
    """(type, repr) of each entry of the rows compute returns, with the
    support it returns beside them, or the error's type, message and witness."""
    try:
        rows, support = compute()
    except (NotInvertible, RigMismatch) as e:
        return type(e).__name__, str(e), e.witness
    return [[(type(v).__name__, repr(v)) for v in row] for row in rows], support


def test_hom_table_reads_match_the_pair_by_pair_reference():
    # coarse_zeta, coarse_mobius, sigma_to_coarse, coarse_support and
    # patch_mobius read the nonempty hom-sets off FinCategory.nonempty_homs,
    # and PatchElement sends only the entries that are not rig.zero to eq;
    # tests/pairwise.py asks every object pair and compares every entry
    corpus = list(named_categories().values()) + general_corpus(5, 300) + fine_invertible_corpus(7, 100)
    refused = 0
    for cat in corpus:
        assert coarse_support(cat) == pairwise.support(cat)
        for rig in (INT, RAT, REAL):
            zeta = fine_zeta(cat, rig)

            def patch():
                mu = patch_mobius(cat, rig)
                return mu.matrix.rows, mu.support

            cases = (
                (lambda: (coarse_zeta(cat, rig).matrix.rows, None), lambda: (pairwise.coarse_zeta_rows(cat, rig), None)),
                (lambda: (coarse_mobius(cat, rig).matrix.rows, None), lambda: (pairwise.coarse_mobius_rows(cat, rig), None)),
                (lambda: (sigma_to_coarse(zeta).matrix.rows, None), lambda: (pairwise.sigma_to_coarse_rows(zeta), None)),
                (patch, lambda: (pairwise.patch_mobius_rows(cat, rig), pairwise.support(cat))),
            )
            for compute, reference in cases:
                outcome = _coarse_outcome(compute)
                assert outcome == _coarse_outcome(reference)
                refused += len(outcome) == 3
    # the refusals are compared too: singular and non-integral inverses
    assert refused >= 200


def test_patch_mu_and_zeta_walk_the_hom_table_once():
    # the category keeps what nonempty_homs reads, so coarse_mobius and
    # coarse_support inside patch_mobius, and patch_zeta after it, share one walk
    walks = []

    class CountingHoms(dict):
        def items(self):
            walks.append(1)
            return super().items()

    cat = product(chain_category(7), chain_category(7))
    cat._hom = CountingHoms(cat._hom)
    mu = patch_mobius(cat, RAT)
    zeta = patch_zeta(cat, RAT)
    assert len(walks) == 1
    assert cat.nonempty_homs() is cat.nonempty_homs()
    assert mu.support == zeta.support == pairwise.support(cat) and len(mu.support) == 784
    assert patch_multiply(mu, zeta).equal(patch_delta(cat, RAT))


def test_sigma_to_patch_support_constraint():
    six = six_example_category()
    p = sigma_to_patch(fine_mobius(six, RAT))
    assert p.support == frozenset({("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")})
    assert p.matrix.equal(coarse_mobius(six, RAT).matrix)


def test_euler_characteristic_examples():
    assert euler_characteristic(cyclic_group_category(2), RAT) == Fraction(1, 2)
    assert euler_characteristic(cyclic_group_category(3), RAT) == Fraction(1, 3)
    assert euler_characteristic(discrete_category(4), RAT) == 4
    assert euler_characteristic(six_example_category(), RAT) == 1
    with pytest.raises(NotInvertible):
        euler_characteristic(walking_iso_category(), RAT)


def test_nerve_euler_characteristic_examples():
    assert nerve_euler_characteristic(chain_category(2)) == 1
    assert nerve_euler_characteristic(discrete_category(5)) == 5
    assert nerve_euler_characteristic(square_poset_category()) == 1  # 4 - 5 + 2


def test_nerve_euler_characteristic_precondition():
    with pytest.raises(NotNerveFinite):
        nerve_euler_characteristic(six_example_category())
    with pytest.raises(NotNerveFinite):
        nerve_euler_characteristic(cyclic_group_category(2))
    with pytest.raises(NotNerveFinite):
        nerve_euler_characteristic(walking_iso_category())


def test_nerve_matches_coarse_euler_characteristic():
    from mobiuskit.category import endomorphism_report, is_skeletal

    checked = 0
    for cat in general_corpus(73, 30):
        if not is_skeletal(cat) or endomorphism_report(cat).nontrivial_endos:
            continue
        assert nerve_euler_characteristic(cat) == sum(chain_counts(cat).values())
        checked += 1
    assert checked >= 10


def test_nerve_euler_matches_chain_count_oracle_refusal_for_refusal():
    # nerve-euler is the coarse total behind the Mobius-category predicate;
    # Leroux's count refuses by finding a chain of |objects| arrows.  The two
    # must agree on every value and every refusal, so a predicate that let
    # through an automorphism or an idempotent would show here
    cats = (
        list(named_categories().values())
        + general_corpus(5, 300)
        + fine_invertible_corpus(7, 100)
        + [product(chain_category(8), chain_category(8)), divisor_poset_category(720)]
        + random_free_dag_categories(83, 4)
    )
    refused = 0
    for cat in cats:
        try:
            counted = sum(chain_counts(cat).values())
        except NotNerveFinite as oracle:
            assert not is_mobius_category(cat)
            with pytest.raises(NotNerveFinite) as err:
                nerve_euler_characteristic(cat)
            assert str(err.value) == str(oracle)
            refused += 1
            continue
        assert is_mobius_category(cat)
        assert nerve_euler_characteristic(cat) == counted
    assert len(cats) == 421 and refused == 96


def test_real_rig_coarse_mobius():
    six = six_example_category()
    mu = coarse_mobius(six, REAL)
    assert REAL.eq(mu.matrix.entry(0, 0), 1.0)
    assert REAL.eq(mu.matrix.entry(1, 1), 2.0)


def test_empty_category_has_alternating_counts_too():
    empty = discrete_category(0)
    assert nerve_euler_characteristic(empty) == 0
    assert chain_counts(empty) == {}


@pytest.mark.parametrize("rig, kind", [(INT, int), (RAT, Fraction), (REAL, float)], ids=["int", "rat", "real"])
def test_exact_solves_land_the_rig_element_type(rig, kind):
    # divisors(12) has mu(1,4) = 0 and mu(1,12) = 0 next to the values +-1
    cat = divisor_poset_category(12)
    chain = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    landed = {
        "fine_mobius": list(fine_mobius(cat, rig).values.values()),
        "coarse_mobius": [x for row in coarse_mobius(cat, rig).matrix.rows for x in row],
        "patch_mobius": [x for row in patch_mobius(cat, rig).matrix.rows for x in row],
        "invert_counting_matrix": [x for row in invert_counting_matrix(chain, rig).rows for x in row],
        "family_mobius": [x for row in family_mobius(builtin("divisibility"), 1, 12, rig).rows for x in row],
    }
    for name, values in landed.items():
        assert {type(x) for x in values} == {kind}, name
        assert rig.zero in values and rig.one in values, name
        assert all(math.copysign(1, x) == 1 for x in values if x == 0), name
    rat = [x for row in coarse_mobius(cat, RAT).matrix.rows for x in row]
    assert [Fraction(x) for x in landed["coarse_mobius"]] == rat


def test_a_negative_elimination_denominator_lands_zero_as_plus_zero():
    # Bareiss ends with d = -1 on this matrix; 0 / -1 would be -0.0
    inverse = invert_counting_matrix([[1, 1], [1, 0]], REAL)
    assert inverse.rows == ((0.0, 1.0), (1.0, -1.0))
    assert math.copysign(1, inverse.entry(0, 0)) == 1
    assert render(REAL, inverse.entry(0, 0)) == "0"
    assert invert_counting_matrix([[1, 1], [1, 0]], INT).rows == ((0, 1), (1, -1))


def test_a_fine_inverse_beyond_the_float_range_is_not_invertible():
    point = discrete_category(1)
    (name,) = point.arrow_names()
    x = FineElement(point, REAL, {name: 1e-320})
    with pytest.raises(NotInvertible) as err:
        fine_invert(x)
    assert err.value.witness == ("overflow", None)
    assert fine_invert(FineElement(point, REAL, {name: 2.0 ** -1000})).values == {name: 2.0 ** 1000}
