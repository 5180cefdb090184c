import random

import pytest

from mobiuskit.category import (
    Arrow,
    FinCategory,
    ValidationReport,
    categories_equal,
    codiscrete_completion,
    coproduct,
    endomorphism_report,
    enumerate_subcategories,
    full_subcategory,
    identity_functor,
    is_skeletal,
    monoid_to_category,
    patch,
    poset_to_category,
    preorder_reflection,
    product,
    underlying_graph,
    validate_category,
)
from corpus import (
    chain_category,
    cyclic_group_category,
    discrete_category,
    divisor_poset_category,
    free_category_on_acyclic_graph,
    general_corpus,
    named_categories,
    random_dag,
    six_example_category,
    terminal_category,
    walking_iso_category,
)
from mobiuskit.errors import BudgetExceeded, MalformedInput, UnknownObject


def test_terminal_category_is_valid():
    assert validate_category(terminal_category()).ok


def test_six_example_closes_to_five_arrows():
    six = six_example_category()
    assert len(six.arrows) == 5
    assert six.arrow_names() == ("1a", "1b", "s", "i", "e")
    # built once, in the constructor
    assert six.arrow_names() is six.arrow_names()
    assert validate_category(six).ok
    # s o i = 1_b and i o s is the idempotent
    assert six.compose[("s", "i")] == "1b"
    assert six.compose[("i", "s")] == "e"
    assert six.compose[("e", "e")] == "e"


def test_wrong_endpoint_composite_is_reported():
    cat = FinCategory(
        objects=["a", "b"],
        arrows=[Arrow("1a", "a", "a"), Arrow("1b", "b", "b"), Arrow("f", "a", "b")],
        identity={"a": "1a", "b": "1b"},
        compose={
            ("1a", "1a"): "1a",
            ("1b", "1b"): "1b",
            ("f", "1a"): "f",
            ("1b", "f"): "1a",  # wrong endpoints
        },
    )
    report = validate_category(cat)
    assert not report.ok
    assert report.law == "composite-endpoints"


def test_missing_compose_pair_is_reported():
    with pytest.raises(MalformedInput) as err:
        FinCategory(
            objects=["a"],
            arrows=[Arrow("1a", "a", "a"), Arrow("f", "a", "a")],
            identity={"a": "1a"},
            compose={("1a", "1a"): "1a", ("f", "1a"): "f", ("1a", "f"): "f"},
        )
    assert str(err.value) == "compose: missing entry for composable pair ('f', 'f')"


def test_broken_associativity_is_reported():
    # two loops with x o x = 1 but unit laws intact and a bad triple
    cat = FinCategory(
        objects=["a"],
        arrows=[Arrow("1", "a", "a"), Arrow("x", "a", "a"), Arrow("y", "a", "a")],
        identity={"a": "1"},
        compose={
            ("1", "1"): "1",
            ("1", "x"): "x",
            ("x", "1"): "x",
            ("1", "y"): "y",
            ("y", "1"): "y",
            ("x", "x"): "y",
            ("x", "y"): "1",
            ("y", "x"): "x",
            ("y", "y"): "x",
        },
    )
    report = validate_category(cat)
    assert not report.ok
    assert report.law == "associativity"


def test_underlying_graph_counts():
    assert len(underlying_graph(terminal_category()).edges) == 1
    chain2 = chain_category(2)
    g = underlying_graph(chain2)
    assert len(g.vertices) == 2 and len(g.edges) == 3
    six = six_example_category()
    g6 = underlying_graph(six)
    assert len(g6.vertices) == 2 and len(g6.edges) == 5


def test_codiscrete_completion():
    cod, functor = codiscrete_completion(discrete_category(2))
    assert len(cod.arrows) == 4
    assert functor.validate().ok
    term, _ = codiscrete_completion(terminal_category())
    assert len(term.arrows) == 1
    six_cod, collapse = codiscrete_completion(six_example_category())
    assert len(six_cod.arrows) == 4
    assert collapse.validate().ok
    # collapse merges s, i, e with the identities
    assert collapse.arrow_map["e"] == collapse.arrow_map["1a"]


def test_codiscrete_edge_count_is_objects_squared():
    for cat in general_corpus(5, 20):
        cod, _ = codiscrete_completion(cat)
        assert len(underlying_graph(cod).edges) == len(cat.objects) ** 2


def test_preorder_reflection():
    ref, functor = preorder_reflection(cyclic_group_category(2))
    assert len(ref.objects) == 1 and len(ref.arrows) == 1
    assert functor.validate().ok
    chain3 = chain_category(3)
    ref3, _ = preorder_reflection(chain3)
    assert categories_equal(ref3, chain3)
    six_ref, _ = preorder_reflection(six_example_category())
    assert len(six_ref.arrows) == 4  # all four hom-sets are nonempty


def test_preorder_reflection_idempotent():
    for cat in general_corpus(6, 15):
        once, _ = preorder_reflection(cat)
        twice, _ = preorder_reflection(once)
        assert categories_equal(once, twice)


def test_reflection_and_codiscrete_outputs_are_valid_categories():
    for cat in general_corpus(8, 15):
        reflected, to_reflected = preorder_reflection(cat)
        assert validate_category(reflected).ok
        assert to_reflected.validate().ok
        codisc, to_codisc = codiscrete_completion(cat)
        assert validate_category(codisc).ok
        assert to_codisc.validate().ok


def test_poset_to_category_divisors_of_six():
    cat = divisor_poset_category(6)
    assert len(cat.objects) == 4
    assert len(cat.arrows) == 9
    assert validate_category(cat).ok


def test_poset_to_category_rejects_bad_relations():
    with pytest.raises(MalformedInput):
        poset_to_category([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(MalformedInput):
        poset_to_category([0, 1, 2], [(0, 1), (1, 2)])  # not transitive


@pytest.mark.parametrize(
    "relation, message",
    [
        ([("d", "e"), ("a", "z"), ("a", "y")], "relation pair ('a','y') uses unknown elements"),
        ([("d", "c"), ("b", "a"), ("c", "d"), ("a", "b")], "antisymmetry fails at ('a','b')"),
        ([("c", "d"), ("b", "c"), ("a", "b")], "transitivity fails at ('a','b','c')"),
    ],
    ids=["unknown", "antisymmetry", "transitivity"],
)
def test_poset_to_category_names_the_first_bad_pair_in_repr_order(relation, message):
    # string elements hash differently in every process; the witness must not
    with pytest.raises(MalformedInput) as err:
        poset_to_category("abcd", relation)
    assert str(err.value) == message


def test_monoid_to_category():
    assert len(terminal_category().arrows) == 1
    c2 = cyclic_group_category(2)
    assert len(c2.objects) == 1 and len(c2.arrows) == 2
    with pytest.raises(MalformedInput):
        monoid_to_category([0, 1], 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2})


def test_product_with_terminal_is_isomorphic_copy():
    six = six_example_category()
    prod = product(six, terminal_category())
    assert len(prod.objects) == len(six.objects)
    assert len(prod.arrows) == len(six.arrows)
    assert validate_category(prod).ok
    hom_counts = {
        (a, b): len(six.hom(a, b)) for a in six.objects for b in six.objects
    }
    prod_counts = {
        (a[0], b[0]): len(prod.hom(a, b)) for a in prod.objects for b in prod.objects
    }
    assert hom_counts == prod_counts


def test_product_of_chains_is_square_poset():
    square = product(chain_category(2), chain_category(2))
    assert len(square.objects) == 4
    assert len(square.arrows) == 9
    assert validate_category(square).ok


def test_coproduct_counts():
    six = six_example_category()
    chain3 = chain_category(3)
    cop = coproduct(six, chain3)
    assert len(cop.arrows) == len(six.arrows) + len(chain3.arrows)
    assert validate_category(cop).ok


def test_patch_examples():
    chain3 = chain_category(3)
    assert set(patch(chain3, 0, 2).objects) == {0, 1, 2}
    assert patch(chain3, 2, 0).objects == ()
    div6 = divisor_poset_category(6)
    assert set(patch(div6, 2, 6).objects) == {2, 6}
    with pytest.raises(UnknownObject):
        patch(chain3, 0, 99)


def test_patch_idempotence():
    for cat in general_corpus(7, 15):
        for a in cat.objects:
            for b in cat.objects:
                once = patch(cat, a, b)
                if a in set(once.objects) and b in set(once.objects):
                    twice = patch(once, a, b)
                    assert categories_equal(once, twice)


def test_skeletal():
    assert is_skeletal(six_example_category())
    assert not is_skeletal(walking_iso_category())
    assert is_skeletal(chain_category(4))


def test_endomorphism_report():
    six = endomorphism_report(six_example_category())
    assert six.nontrivial_idempotents == ("e",)
    assert six.nontrivial_isos == ()
    poset = endomorphism_report(divisor_poset_category(12))
    assert poset.nontrivial_isos == ()
    assert poset.nontrivial_idempotents == ()
    assert poset.nontrivial_endos == ()
    c2 = endomorphism_report(cyclic_group_category(2))
    assert c2.nontrivial_isos == (("el", 1),)
    assert (six.mobius, poset.mobius, c2.mobius) == (False, True, False)


def test_enumerate_subcategories_counts():
    assert len(list(enumerate_subcategories(terminal_category()))) == 1
    subs = list(enumerate_subcategories(discrete_category(2)))
    assert len(subs) == 3
    for sub in subs:
        assert validate_category(sub).ok


def test_six_contains_idempotent_subcategory():
    six = six_example_category()
    subs = list(enumerate_subcategories(six))
    matches = [
        s for s in subs if set(s.objects) == {"a"} and set(s.arrow_names()) == {"1a", "e"}
    ]
    assert len(matches) == 1
    assert validate_category(matches[0]).ok


def test_every_enumerated_subcategory_is_valid():
    for cat in [six_example_category(), chain_category(3), cyclic_group_category(2)]:
        for sub in enumerate_subcategories(cat):
            assert validate_category(sub).ok


def test_enumerate_subcategories_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subcategories(six_example_category(), max_count=2))


def test_functor_validation():
    six = six_example_category()
    ident = identity_functor(six)
    assert ident.validate().ok
    broken = identity_functor(six)
    broken.arrow_map = dict(broken.arrow_map)
    broken.arrow_map["e"] = "1b"
    assert not broken.validate().ok


def test_corpus_categories_all_validate():
    for name, cat in named_categories().items():
        assert validate_category(cat).ok, name
    for cat in general_corpus(99, 40):
        assert validate_category(cat).ok


# the composable pairs and validate_category as they were before FinCategory
# kept its arrows by target: every pair and every triple of arrows (the
# totality and typing of the table are checked at construction instead)


def all_pairs_composable(c):
    for g in c.arrows:
        for f in c.arrows:
            if f.tgt == g.src:
                yield g.name, f.name


def all_triples_validate(c):
    for obj, name in c.identity.items():
        a = c.arrow(name)
        if a.src != obj or a.tgt != obj:
            return ValidationReport(False, "identity-endpoints", f"1_{obj!r} = {name!r}: {a.src!r} -> {a.tgt!r}")
    for (g, f), gf in c.compose.items():
        if c.src(gf) != c.src(f) or c.tgt(gf) != c.tgt(g):
            return ValidationReport(
                False, "composite-endpoints",
                f"compose({g!r}, {f!r}) = {gf!r} has endpoints {c.src(gf)!r} -> {c.tgt(gf)!r}",
            )
    for a in c.arrows:
        left = c.compose[(c.identity[a.tgt], a.name)]
        if left != a.name:
            return ValidationReport(False, "left-unit", f"1 o {a.name!r} = {left!r}")
        right = c.compose[(a.name, c.identity[a.src])]
        if right != a.name:
            return ValidationReport(False, "right-unit", f"{a.name!r} o 1 = {right!r}")
    for h in c.arrows:
        for g in c.arrows:
            if g.tgt != h.src:
                continue
            for f in c.arrows:
                if f.tgt != g.src:
                    continue
                one = c.compose[(h.name, c.compose[(g.name, f.name)])]
                two = c.compose[(c.compose[(h.name, g.name)], f.name)]
                if one != two:
                    return ValidationReport(
                        False, "associativity",
                        f"h={h.name!r}, g={g.name!r}, f={f.name!r}: {one!r} != {two!r}",
                    )
    return ValidationReport(True)


def broken_tables(c, rng):
    """Composition tables of c with one entry changed: a composite swapped
    for another arrow with the same endpoints (breaking a unit law or
    associativity) or with other endpoints, an entry dropped, and an entry
    for a pair that does not compose."""
    keys = list(c.compose)
    for key in rng.sample(keys, min(6, len(keys))):
        gf = c.compose[key]
        others = [n for n in c.hom(c.src(gf), c.tgt(gf)) if n != gf]
        if others:
            yield {**c.compose, key: rng.choice(others)}
        elsewhere = [a.name for a in c.arrows if (a.src, a.tgt) != (c.src(gf), c.tgt(gf))]
        if elsewhere:
            yield {**c.compose, key: rng.choice(elsewhere)}
    dropped = rng.choice(keys)
    yield {k: v for k, v in c.compose.items() if k != dropped}
    loose = [(g.name, f.name) for g in c.arrows for f in c.arrows if f.tgt != g.src]
    if loose:
        yield {**c.compose, rng.choice(loose): c.arrows[0].name}


def first_untyped_entry(c, compose):
    """The construction error for a table on c's arrows that misses a
    composable pair or has an entry for a pair that does not compose
    (the first such pair by repr, missing pairs first), or None."""
    expected = set(all_pairs_composable(c))
    missing = expected - compose.keys()
    if missing:
        g, f = sorted(missing, key=repr)[0]
        return f"compose: missing entry for composable pair ({g!r}, {f!r})"
    extra = compose.keys() - expected
    if extra:
        g, f = sorted(extra, key=repr)[0]
        return f"compose: pair ({g!r}, {f!r}) is not composable"
    return None


def test_arrow_index_matches_all_pairs_and_triples():
    rng = random.Random(7)
    laws = set()
    refused = set()
    cats = list(named_categories().values()) + general_corpus(99, 40)
    for c in cats:
        assert sorted(c.compose, key=repr) == sorted(all_pairs_composable(c), key=repr)
        assert validate_category(c) == all_triples_validate(c)
        for compose in broken_tables(c, rng):
            message = first_untyped_entry(c, compose)
            if message is not None:
                with pytest.raises(MalformedInput) as err:
                    FinCategory(c.objects, c.arrows, c.identity, compose)
                assert str(err.value) == message
                refused.add(message.split(" (")[0])
                continue
            broken = FinCategory(c.objects, c.arrows, c.identity, compose)
            assert sorted(broken.compose, key=repr) == sorted(all_pairs_composable(broken), key=repr)
            report = validate_category(broken)
            assert report == all_triples_validate(broken)
            laws.add(report.law)
    # construction refuses dropped and loose entries; the other broken
    # tables reach every law after the identity check
    assert refused == {"compose: missing entry for composable pair", "compose: pair"}
    assert laws >= {"composite-endpoints", "left-unit", "right-unit", "associativity"}
    # at size, non-thin: every hom-set of C2 x chain(14) has two arrows, and
    # the free category on a DAG with parallel edges mixes one-arrow and
    # crowded hom-sets, so the associativity check skips some triples but
    # must still find the same first witness
    big = [
        product(cyclic_group_category(2), chain_category(14)),
        product(free_category_on_acyclic_graph(random_dag(rng, 6, parallel=2)), chain_category(4)),
    ]
    mixed = big[1]
    sizes = {len(mixed.hom(a, b)) for a in mixed.objects for b in mixed.objects}
    assert 1 in sizes and max(sizes) >= 2
    laws = []
    for c in big:
        assert len(c.arrows) >= 200
        assert validate_category(c) == all_triples_validate(c)
        swappable = [
            (key, other)
            for key, gf in c.compose.items()
            if not (c.is_identity(key[0]) or c.is_identity(key[1]))
            for other in c.hom(c.src(gf), c.tgt(gf))
            if other != gf
        ]
        for key, other in swappable[:1] + swappable[-1:] + rng.sample(swappable, 6):
            broken = FinCategory(c.objects, c.arrows, c.identity, {**c.compose, key: other})
            report = validate_category(broken)
            assert report == all_triples_validate(broken)
            laws.append(report.law)
    assert laws.count("associativity") >= 8


def test_full_subcategory():
    div6 = divisor_poset_category(6)
    sub = full_subcategory(div6, [1, 6])
    assert set(sub.objects) == {1, 6}
    assert len(sub.arrows) == 3
