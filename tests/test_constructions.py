"""The constructions, functor checks and classifier searches on position
tables against the same built through names (tests/oracles.py).

product, coproduct, subcategory, full_subcategory, patch,
poset_to_category, preorder_reflection, codiscrete_completion,
monoid_to_category and category_pullback must give what the name
constructions give: the objects, the arrow names, the arrows, the
identity table, the composition table in its order and the
factorizations, and the projections of a pullback; and they must refuse
the same inputs with the same message.  Functor.validate must name the
same law and witness, and is_ulf, fibre_sizes, iso_witnesses,
endomorphism_report and is_skeletal give the same answers and
witnesses.  preorder_reflection and patch_objects also match
tests/pairwise.py, which asks len(c.hom(a, b)) of each object pair.  The
inputs are the corpus of tests/test_incidence.py (certificate_corpus,
which holds general_corpus), seeded subsets and relations drawn from it,
and the sizes of tests/test_scale.py.
"""

import random
from itertools import combinations

import pytest

import oracles
import pairwise
from mobiuskit import category
from mobiuskit.category import (
    FinCategory,
    Functor,
    codiscrete_completion,
    coproduct,
    endomorphism_report,
    enumerate_subcategories,
    full_subcategory,
    identity_functor,
    is_skeletal,
    iso_witnesses,
    monoid_to_category,
    patch,
    patch_objects,
    poset_to_category,
    preorder_reflection,
    product,
    subcategory,
)
from mobiuskit.errors import MalformedInput, UnknownObject
from mobiuskit.functoriality import category_pullback, fibre_sizes, is_ulf
from corpus import (
    beck_chevalley_instances,
    chain_category,
    collapse_to_terminal,
    functor_corpus,
    parallel_composite_category,
    random_poset_relation,
    six_example_category,
)
from test_incidence import certificate_corpus
from test_scale import PRODUCTS, free_case, square


def shown(c):
    """Everything a category shows by names, each in its order."""
    return (
        c.objects,
        c.arrow_names(),
        c.arrows,
        list(c.identity.items()),
        list(c.compose.items()),
        list(c.factorizations().items()),
    )


def outcome(build, *args):
    """What build(*args) shows: a category, with the functors into or out
    of it that some constructions return, or the message of the
    MalformedInput it raises.  A functor's end is None where it is the
    category built, and the given category itself otherwise."""
    try:
        built = build(*args)
    except MalformedInput as e:
        return str(e)
    if not isinstance(built, tuple):
        return shown(built)
    c, *functors = built
    ends = [[None if end is c else end for end in (f.source, f.target)] for f in functors]
    return shown(c), [(end, list(f.object_map.items()), list(f.arrow_map.items())) for end, f in zip(ends, functors)]


@pytest.fixture(scope="module")
def corpus():
    return certificate_corpus()


def test_products_and_coproducts_match_the_name_constructions(corpus):
    for c, d in zip(corpus, corpus[1:] + corpus[:1]):
        assert outcome(product, c, d) == outcome(oracles.product_by_names, c, d)
        assert outcome(coproduct, c, d) == outcome(oracles.coproduct_by_names, c, d)


def test_subcategories_and_patches_match_the_name_constructions(corpus):
    rng = random.Random(35)
    refusals = set()
    for c in corpus:
        for a, b in combinations(c.objects, 2):
            assert outcome(patch, c, a, b) == outcome(oracles.full_subcategory_by_names, c, patch_objects(c, a, b))
        objs = [o for o in c.objects if rng.random() < 0.7]
        assert outcome(full_subcategory, c, objs) == outcome(oracles.full_subcategory_by_names, c, objs)
        # any arrows, closed or not: most sets are refused, some are subcategories
        for _ in range(4):
            names = [name for name in c.arrow_names() if rng.random() < 0.8]
            result = outcome(subcategory, c, objs, names)
            assert result == outcome(oracles.subcategory_by_names, c, objs, names)
            if isinstance(result, str):
                refusals.add(result.split(" ")[0])
    # an arrow off the objects, an identity off the arrows, a composite off the arrows
    assert refusals == {"arrow", "identity", "compose"}


def test_thin_categories_match_the_name_construction(corpus, monkeypatch):
    rng = random.Random(36)
    relations = []
    for n in range(1, 7):
        for _ in range(6):
            relation = sorted(random_poset_relation(rng, n, 0.5))
            relations.append((range(n), relation))
            # one pair dropped: often no longer transitive
            relations.append((range(n), [pair for pair in relation if pair != rng.choice(relation)]))
    relations += [((0, 1, 0), [(0, 1)]), ("abcd", [("c", "d"), ("b", "c"), ("a", "b")])]
    built = [outcome(poset_to_category, *args) for args in relations]
    # the identity of a is an arrow a -> b: hom(a, a) is empty, so its reflection has no arrow (le, a, a)
    broken = FinCategory(("a", "b"), [("x", "a", "b"), ("y", "b", "b")], {"a": "x", "b": "y"},
                         {("y", "x"): "x", ("y", "y"): "y"})
    categories = corpus + [broken]
    reflected = [outcome(preorder_reflection, c) for c in categories]
    completed = [outcome(codiscrete_completion, c) for c in categories]

    monkeypatch.setattr(category, "_thin_category", oracles.thin_category_by_names)
    assert built == [outcome(poset_to_category, *args) for args in relations]
    assert reflected == [outcome(preorder_reflection, c) for c in categories]
    assert completed == [outcome(codiscrete_completion, c) for c in categories]
    refusals = {result.split(" ")[0] for result in built + reflected if isinstance(result, str)}
    assert refusals == {"transitivity", "duplicate", "identity"}


def test_reflection_and_patch_objects_match_the_pair_by_pair_reference(corpus):
    # both read the hom-count table; tests/pairwise.py asks len(c.hom(a, b))
    # of each object pair.  The copies list the objects and arrows in reverse
    # order, so the reflection's arrows must follow the objects, not the arrows
    copies = [FinCategory(c.objects[::-1], c.arrows[::-1], c.identity, c.compose) for c in corpus]
    for c in corpus + copies:
        assert outcome(preorder_reflection, c) == outcome(pairwise.preorder_reflection, c)
        for a in c.objects:
            for b in c.objects:
                assert patch_objects(c, a, b) == pairwise.patch_objects(c, a, b)
        with pytest.raises(UnknownObject, match="must be objects"):
            patch_objects(c, c.objects[0], "nowhere")


def test_monoids_match_the_name_construction():
    rng = random.Random(37)
    tables = [(range(n), 0, {(a, b): (a + b) % n for a in range(n) for b in range(n)}) for n in (1, 2, 5)]
    for n in (2, 3):
        for _ in range(60):
            # magmas with a unit: most are not associative, a few are monoids
            table = {(a, b): rng.randrange(n) for a in range(n) for b in range(n)}
            table.update({(0, a): a for a in range(n)})
            table.update({(a, 0): a for a in range(n)})
            tables.append((range(n), 0, table))
    square_table = {(a, b): a * b for a in range(3) for b in range(3)}
    tables += [
        (range(3), 1, square_table),  # leaves the element set
        (range(3), 1, {key: value % 3 for key, value in square_table.items() if key != (2, 2)}),
        (range(3), 5, square_table),
        (range(2), 1, {(a, b): 0 for a in range(2) for b in range(2)}),  # no unit
        ((0, 1, 0), 0, {(a, b): (a + b) % 2 for a in range(2) for b in range(2)}),  # an element twice
    ]
    results = [outcome(monoid_to_category, *args) for args in tables]
    assert results == [outcome(oracles.monoid_to_category_by_names, *args) for args in tables]
    refusals = {result.split(" ")[0] for result in results if isinstance(result, str)}
    assert refusals == {"associativity", "table", "multiplication", "unit", "duplicate"}


def test_pullbacks_match_the_name_construction(corpus):
    cospans = beck_chevalley_instances()
    for _, f in functor_corpus():
        cospans += [(f, f), (f, identity_functor(f.target)), (identity_functor(f.target), f)]
    small = [c for c in corpus if len(c.arrow_names()) <= 12]
    cospans += [(collapse_to_terminal(c), collapse_to_terminal(d)) for c, d in zip(small, small[1:])]
    # maps that are no functors: one breaks composition, so a pair of table
    # entries composes outside the pairs; one swaps objects under identical
    # arrows, so an arrow pair has endpoints outside the object pairs
    first, second = parallel_composite_category(2, 0), parallel_composite_category(2, 1)
    same = dict(zip(first.arrow_names(), first.arrow_names()))
    six = six_example_category()
    swapped = Functor(six, six, {"a": "b", "b": "a"}, identity_functor(six).arrow_map)
    cospans += [(Functor(first, second, {o: o for o in first.objects}, same), identity_functor(second)),
                (swapped, identity_functor(six))]
    refusals = set()
    for f, g in cospans:
        result = outcome(category_pullback, f, g)
        assert result == outcome(oracles.category_pullback_by_names, f, g)
        if isinstance(result, str):
            refusals.add(result.split(" ")[0])
    assert refusals == {"arrow", "compose"}


@pytest.mark.parametrize("seed, vertices, density, parallel, k", PRODUCTS)
def test_products_and_coproducts_match_at_scale(seed, vertices, density, parallel, k):
    # the 4 860- and 5 100-arrow products of tests/test_scale.py and its
    # coproducts, and the patches of a product of F with a chain
    f = free_case(seed, vertices, density, parallel)[0]
    assert outcome(product, f, square(k)) == outcome(oracles.product_by_names, f, square(k))
    assert outcome(coproduct, f, square(9)) == outcome(oracles.coproduct_by_names, f, square(9))
    c = product(f, chain_category(4))
    for a, b in zip(c.objects, c.objects[::-1]):
        assert outcome(patch, c, a, b) == outcome(oracles.full_subcategory_by_names, c, patch_objects(c, a, b))


def test_pullbacks_match_at_scale():
    # the 1 296-arrow pullbacks of tests/test_scale.py
    ident = identity_functor(square(8))
    assert outcome(category_pullback, ident, ident) == outcome(oracles.category_pullback_by_names, ident, ident)
    a, b = collapse_to_terminal(square(3)), collapse_to_terminal(square(3))
    assert outcome(category_pullback, a, b) == outcome(oracles.category_pullback_by_names, a, b)


def test_enumerated_subcategories_are_the_closed_sets(corpus):
    for c in [c for c in corpus[:15] if len(c.arrow_names()) <= 8]:
        found = [(sub.objects, sub.arrow_names()) for sub in enumerate_subcategories(c)]
        assert found == oracles.subcategories_by_names(c)


def test_functor_checks_match_the_name_walks(corpus):
    # each functor of the corpus, then maps that break one law each: an
    # object or arrow left out or sent outside, and an arrow sent to a
    # random arrow, which breaks endpoints, identities or composites
    rng = random.Random(38)
    laws = set()
    for _, f in functor_corpus():
        first, last = f.source.objects[0], f.source.objects[-1]
        partial = {o: f.object_map[o] for o in f.source.objects if o != first}
        maps = [f, Functor(f.source, f.target, partial, f.arrow_map),
                Functor(f.source, f.target, {**f.object_map, last: "nowhere"}, f.arrow_map)]
        for _ in range(8):
            name = rng.choice(f.source.arrow_names())
            image = rng.choice(f.target.arrow_names() + ("nowhere",))
            maps.append(Functor(f.source, f.target, f.object_map, {**f.arrow_map, name: image}))
        name = rng.choice(f.source.arrow_names())
        maps.append(Functor(f.source, f.target, f.object_map, {k: v for k, v in f.arrow_map.items() if k != name}))
        for g in maps:
            report = g.validate()
            assert report == oracles.validate_functor_by_names(g)
            laws.add(report.law)
            if report.ok:
                assert is_ulf(g) == oracles.is_ulf_by_names(g)
                assert list(fibre_sizes(g).items()) == list(oracles.fibre_sizes_by_names(g).items())
    assert laws == {"", "object-map-totality", "object-map-range", "arrow-map-totality", "arrow-map-range",
                    "endpoint-preservation", "identity-preservation", "composition-preservation"}


def test_classifier_searches_match_the_name_walks(corpus):
    for c in corpus + [product(c, d) for c, d in zip(corpus[:40], corpus[1:41])]:
        assert iso_witnesses(c) == oracles.iso_witnesses_by_names(c)
        report = endomorphism_report(c)
        expected = oracles.endomorphism_report_by_names(c)
        assert (report.nontrivial_isos, report.nontrivial_idempotents, report.nontrivial_endos) == expected
        assert is_skeletal(c) == all(c.src(f) == c.tgt(f) for f, _ in oracles.iso_witnesses_by_names(c))
