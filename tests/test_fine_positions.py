"""The fine level, the functor transforms and the adjunction check on arrow
positions against the same walks through the name views (tests/oracles.py).

fine_convolve, sigma_to_coarse, pushforward, pullback_transform and
validate_adjunction must give what the name walks give: every value in
its order, compared by repr so that a float summed in another order
shows, the rig.zero object in each empty hom-set cell, and the same
failure message.  The inputs are the corpus of tests/test_incidence.py
(certificate_corpus), functor_corpus and the Galois connections of
tests/corpus.py over int, rat and real, with elements and functors on
categories_equal copies whose arrows lie in another order.

The last test checks that these calls, the verify, Beck-Chevalley and
span checks, the thin, full and patch constructions, the coarse and patch
zeta and Mobius functions, euler_characteristic and validate_category
read positions only: no category they are given gets its arrows or
compose view, its factorizations() or a table of hom-set names built.
"""

import random

import pytest

import oracles
from mobiuskit.category import (
    FinCategory,
    Functor,
    categories_equal,
    codiscrete_completion,
    full_subcategory,
    identity_functor,
    patch,
    preorder_reflection,
    product,
    validate_category,
)
from mobiuskit.errors import RigMismatch
from mobiuskit.functoriality import (
    Adjunction,
    beck_chevalley_check,
    compose_spans,
    identity_span,
    pullback_transform,
    pushforward,
    validate_adjunction,
)
from mobiuskit.incidence import (
    coarse_mobius,
    coarse_zeta,
    euler_characteristic,
    fine_convolve,
    fine_mobius,
    fine_zeta,
    patch_mobius,
    patch_zeta,
    sigma_to_coarse,
    verify_inverse,
)
from mobiuskit.rigs import INT, RAT, REAL
from corpus import (
    beck_chevalley_instances,
    chain_category,
    collapse_to_terminal,
    cyclic_group_category,
    functor_corpus,
    galois_connection_corpus,
    idempotent_monoid_category,
    same_graph_composition_pairs,
    six_example_category,
    terminal_category,
)
from test_incidence import certificate_corpus, random_fine_element

RIGS = (INT, RAT, REAL)


def shown(x):
    """A fine element's category, then each arrow with the repr of its value, in its order."""
    return x.category, [(name, repr(value)) for name, value in x.values.items()]


def shown_coarse(x):
    """A coarse element's objects and category, then each entry's repr and
    whether it is the rig.zero object, row by row."""
    return x.objects, x.category, [[(repr(v), v is x.rig.zero) for v in row] for row in x.matrix.rows]


def reordered(c: FinCategory) -> FinCategory:
    """A category equal to c with its objects and arrows in reverse order and
    its table in c's order, so that a hom-set's arrows come in one order and
    its entries h o 1 in the other."""
    return FinCategory(c.objects[::-1], c.arrows[::-1], c.identity, c.compose)


@pytest.fixture(scope="module")
def corpus():
    return certificate_corpus()


def test_category_equality_matches_the_name_comparison(corpus):
    # equal copies, neighbours in the corpus, one graph with two tables, and
    # names that agree but for one identity or one arrow's endpoints
    loops = [("x", "a", "a"), ("y", "a", "a")]
    table = {("x", "x"): "x", ("x", "y"): "y", ("y", "x"): "y", ("y", "y"): "x"}
    swap = {"x": "y", "y": "x"}.get
    c2 = [FinCategory(("a",), loops, {"a": "x"}, table),
          FinCategory(("a",), loops, {"a": "y"}, {(swap(p), swap(q)): swap(r) for (p, q), r in table.items()})]
    ids = {0: "i", 1: "j"}
    ends = [FinCategory((0, 1), [("i", 0, 0), ("j", 1, 1), ("f", s, t)], ids,
                        {("i", "i"): "i", ("j", "j"): "j", (ids[t], "f"): "f", ("f", ids[s]): "f"})
            for s, t in ((0, 1), (1, 0))]
    unequal = same_graph_composition_pairs() + [tuple(c2), tuple(ends), (c2[0], ends[0])]
    pairs = [(c, reordered(c)) for c in corpus] + list(zip(corpus, corpus[1:])) + unequal
    results = [categories_equal(c, d) for c, d in pairs]
    assert results == [oracles.categories_equal_by_names(c, d) for c, d in pairs]
    assert results[:len(corpus)] == [True] * len(corpus) and not any(results[-len(unequal):])


def test_convolution_and_sigma_match_the_name_walks(corpus):
    rng = random.Random(36)
    swapped = 0
    for rig in RIGS:
        for c in corpus + list(map(reordered, corpus)):
            x, y = random_fine_element(c, rig, rng), random_fine_element(c, rig, rng)
            expected = shown(oracles.fine_convolve_by_names(x, y))
            assert shown(fine_convolve(x, y)) == expected
            swapped += expected != shown(oracles.fine_convolve_by_names(y, x))
            assert shown_coarse(sigma_to_coarse(x)) == shown_coarse(oracles.sigma_to_coarse_by_names(x))
    # the algebra does not commute on most of the corpus, posets among it
    assert swapped > 2 * len(corpus)
    x, y = random_fine_element(chain_category(3), RAT, rng), random_fine_element(chain_category(3), RAT, rng)
    assert not fine_convolve(x, y).equal(fine_convolve(y, x))


def test_fine_elements_on_different_categories_are_refused():
    # chain(2)'s arrows are all arrows of chain(3), and the two tables of one
    # graph differ only in their composites: each pair is refused both ways
    # round, and an equal copy in another order is accepted
    three = chain_category(3)
    pairs = [(chain_category(2), three)] + same_graph_composition_pairs()[:3]
    for rig in (INT, RAT):
        for c, d in pairs:
            x, y = fine_zeta(c, rig), fine_zeta(d, rig)
            for a, b in ((x, y), (y, x)):
                for call in (a.equal, lambda b: fine_convolve(a, b), lambda b: verify_inverse(a, b)):
                    with pytest.raises(RigMismatch, match="^fine elements on different categories$"):
                        call(b)
        x, twin = fine_zeta(three, rig), fine_zeta(reordered(three), rig)
        assert twin.equal(x) and x.equal(twin)
        assert fine_convolve(twin, x).equal(fine_convolve(x, x)) and verify_inverse(fine_mobius(three, rig), twin)


def test_transforms_match_the_name_walks():
    # each functor of the corpus, then the same maps into a reordered copy of
    # the target; the elements live on the functor's end or on a reordered copy
    rng = random.Random(37)
    functors = [f for _, f in functor_corpus()]
    functors += [Functor(f.source, reordered(f.target), f.object_map, f.arrow_map) for f in functors]
    for rig in RIGS:
        for f in functors:
            for c in (f.source, reordered(f.source)):
                x = random_fine_element(c, rig, rng)
                assert shown(pushforward(f, x)) == shown(oracles.pushforward_by_names(f, x))
            for c in (f.target, reordered(f.target)):
                y = random_fine_element(c, rig, rng)
                assert shown(pullback_transform(f, y)) == shown(oracles.pullback_transform_by_names(f, y))
    f = functors[0]
    elsewhere = random_fine_element(chain_category(2), INT, rng)
    for transform in (pushforward, pullback_transform, oracles.pushforward_by_names,
                      oracles.pullback_transform_by_names):
        with pytest.raises(RigMismatch):
            transform(f, elsewhere)


def _picked(source: FinCategory, target: FinCategory) -> Functor:
    """The functor from a one-object category with one arrow onto target's
    first object and its identity."""
    (obj,), first = source.objects, target.objects[0]
    return Functor(source, target, {obj: first}, {source.identity[obj]: target.identity[first]})


def adjunction_cases(corpus) -> list:
    """The Galois connections, each broken in one way at a time, one-object
    cases whose unit, counit or a triangle fails, and identity adjunctions
    with random endomorphisms as unit and counit."""
    rng = random.Random(38)
    cases = []
    for _, adj in galois_connection_corpus():
        f, g, unit, counit = adj.left, adj.right, adj.unit, adj.counit
        a, b = f.source, g.source
        first_a, first_b = a.objects[0], b.objects[0]
        wrong_unit = {o: a.identity[o] for o in a.objects}
        wrong_counit = {o: b.identity[o] for o in b.objects}
        partial = dict(list(f.arrow_map.items())[1:])
        cases += [
            adj,
            Adjunction(Functor(a, reordered(b), f.object_map, f.arrow_map), g, unit, counit),
            Adjunction(f, Functor(b, reordered(a), g.object_map, g.arrow_map), unit, counit),
            Adjunction(f, identity_functor(a), unit, counit),
            Adjunction(identity_functor(b), g, unit, counit),
            Adjunction(Functor(a, b, f.object_map, partial), g, unit, counit),
            Adjunction(f, Functor(b, a, g.object_map, dict(list(g.arrow_map.items())[1:])), unit, counit),
            Adjunction(f, g, {o: u for o, u in unit.items() if o != first_a}, counit),
            Adjunction(f, g, {**unit, first_a: "nowhere"}, counit),
            Adjunction(f, g, wrong_unit, counit),
            Adjunction(f, g, unit, {o: e for o, e in counit.items() if o != first_b}),
            Adjunction(f, g, unit, wrong_counit),
        ]
    term, c2, idem = terminal_category(), cyclic_group_category(2), idempotent_monoid_category()
    one, s, e = term.identity["*"], ("el", 1), ("el", "e")
    cases += [
        # unit s at the object of C2 -| 1 does not commute with the collapse of s
        Adjunction(collapse_to_terminal(c2), _picked(term, c2), {"*": s}, {"*": one}),
        # counit s of 1 -| C2: s o s is no s o 1
        Adjunction(_picked(term, c2), collapse_to_terminal(c2), {"*": one}, {"*": s}),
        # identities on C2 with unit s: natural, and 1 o s is no identity
        Adjunction(identity_functor(c2), identity_functor(c2), {"*": s}, {"*": c2.identity["*"]}),
        # the idempotent e as unit into the object G picks: only the second triangle fails
        Adjunction(collapse_to_terminal(idem), _picked(term, idem), {"*": e}, {"*": one}),
    ]
    for c in corpus[:80]:
        ident = identity_functor(c)
        endos = [{o: rng.choice(c.hom(o, o)) for o in c.objects} for _ in range(2)]
        cases += [Adjunction(ident, ident, c.identity, c.identity), Adjunction(ident, ident, *endos)]
    return cases


def test_adjunction_check_matches_the_name_walk(corpus):
    outcomes = set()
    for adj in adjunction_cases(corpus):
        result = validate_adjunction(adj)
        assert result == oracles.validate_adjunction_by_names(adj)
        outcomes.add((result[1] or "valid").split(" at ")[0])
    # "unit" and "counit": an arrow with other endpoints
    assert outcomes == {
        "valid", "F must land in G's source", "G must land in F's source", "F is not a functor",
        "G is not a functor", "unit missing", "unit", "counit missing", "counit", "unit not natural",
        "counit not natural", "first triangle identity fails", "second triangle identity fails",
    }


# the name views, and tables of hom-set names by object pairs: the coarse
# level, the patches and validate_category read hom-counts, not names
VIEWS = ("arrows", "compose", "_factorizations", "_hom", "_nonempty_homs")


def views_built(call, *categories) -> list:
    """Which name views call() builds on the categories given, each of them
    first cleared of any view it holds."""
    for c in categories:
        for view in VIEWS:
            vars(c).pop(view, None)
    call()
    return [sorted(set(VIEWS) & set(vars(c))) for c in categories]


def test_library_calls_build_no_name_view():
    rng = random.Random(39)
    six, square = six_example_category(), product(chain_category(3), chain_category(2))
    none = [[]]
    for c in (six, square, reordered(six)):
        x, y = random_fine_element(c, RAT, rng), random_fine_element(c, RAT, rng)
        assert views_built(lambda: fine_convolve(x, y), c) == none
        assert views_built(lambda: sigma_to_coarse(x), c) == none
        for build in (preorder_reflection, codiscrete_completion):
            assert views_built(lambda: build(c), c) == none
            thin, collapse = build(c)
            twin = reordered(c)
            on_twin, on_thin = random_fine_element(twin, RAT, rng), random_fine_element(thin, RAT, rng)
            assert views_built(lambda: pushforward(collapse, x), c, thin) == none * 2
            assert views_built(lambda: pushforward(collapse, on_twin), c, thin, twin) == none * 3
            assert views_built(lambda: pullback_transform(collapse, on_thin), c, thin) == none * 2
        for call in (coarse_zeta, coarse_mobius, patch_zeta, patch_mobius, euler_characteristic):
            assert views_built(lambda: call(c, RAT), c) == none
        assert views_built(lambda: validate_category(c), c) == none
        assert views_built(lambda: full_subcategory(c, c.objects[1:]), c) == none
        assert views_built(lambda: patch(c, c.objects[0], c.objects[-1]), c) == none
        twin = reordered(c)
        spans = identity_span(c), identity_span(c), identity_span(twin)
        assert views_built(lambda: compose_spans(spans[0], spans[1]), c) == none
        assert views_built(lambda: compose_spans(spans[0], spans[2]), c, twin) == none * 2
    mu, zeta = fine_mobius(square, RAT), fine_zeta(square, RAT)
    assert views_built(lambda: verify_inverse(mu, zeta), square) == none
    for f, g in beck_chevalley_instances():
        assert views_built(lambda: beck_chevalley_check(f, g), f.source, f.target, g.source) == none * 3
    for adj in adjunction_cases(certificate_corpus()[:20]):
        ends = adj.left.source, adj.left.target, adj.right.source, adj.right.target
        assert views_built(lambda: validate_adjunction(adj), *ends) == none * 4
    assert categories_equal(six, reordered(six))
