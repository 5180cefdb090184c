import random
from fractions import Fraction

import pytest

from mobiuskit.category import (
    Functor,
    codiscrete_completion,
    compose_functors,
    full_subcategory,
    identity_functor,
    validate_category,
)
from corpus import (
    chain_category,
    cyclic_group_category,
    discrete_category,
    divisor_poset_category,
    functor_corpus,
    general_corpus,
    idempotent_monoid_category,
    six_example_category,
    slice_category,
    thin_functor,
)
from mobiuskit.errors import BudgetExceeded, MalformedInput, NotInvertible
from mobiuskit.functoriality import (
    Adjunction,
    Span,
    beck_chevalley_check,
    category_pullback,
    compose_spans,
    fibre_sizes,
    identity_span,
    is_bijective_on_objects,
    is_mobius_category,
    is_ulf,
    mobius_by_subcategories,
    pullback_is_homomorphism,
    pullback_transform,
    pushforward,
    pushforward_is_homomorphism,
    rota_check,
    ulf_via_pullback_squares,
    validate_adjunction,
)
from mobiuskit.incidence import (
    FineElement,
    coarse_zeta,
    fine_basis,
    fine_convolve,
    fine_delta,
    fine_invert,
    fine_mobius,
    fine_zeta,
    verify_inverse,
)
from mobiuskit.rigs import INT, RAT


from corpus import beck_chevalley_instances, hasse_free_collapse


def test_bijective_on_objects_examples():
    six = six_example_category()
    _, collapse = codiscrete_completion(six)
    assert is_bijective_on_objects(collapse)
    from corpus import collapse_to_terminal

    assert not is_bijective_on_objects(collapse_to_terminal(discrete_category(2)))
    ident = identity_functor(six)
    assert is_bijective_on_objects(ident)
    assert all(v == 1 for v in fibre_sizes(ident).values())


def test_fibre_sizes_of_codiscrete_collapse():
    six = six_example_category()
    _, collapse = codiscrete_completion(six)
    sizes = fibre_sizes(collapse)
    assert sizes[("co", "a", "a")] == 2  # 1a and e
    assert sizes[("co", "a", "b")] == 1


def test_is_ulf_examples():
    six = six_example_category()
    ok, witness = is_ulf(identity_functor(six))
    assert ok and witness is None
    _, collapse = codiscrete_completion(six)
    ok, witness = is_ulf(collapse)
    assert not ok
    assert witness is not None
    for x in (0, 1):
        _, projection = slice_category(chain_category(3), x)
        assert is_ulf(projection)[0]


def test_ulf_square_characterization_agrees_across_corpus():
    for label, functor in functor_corpus():
        direct, _ = is_ulf(functor)
        via_squares = ulf_via_pullback_squares(functor)
        assert direct == via_squares, label


def test_composable_pairs_square_forces_identity_reflection():
    # a functor passing the length-2 square but failing identity
    # reflection never occurs: verified as an implication over the corpus
    from mobiuskit.functoriality import (
        composable_pairs_square_is_pullback,
        reflects_identities,
    )

    for label, functor in functor_corpus():
        if composable_pairs_square_is_pullback(functor):
            assert reflects_identities(functor), label


def test_pushforward_examples():
    six = six_example_category()
    ident = identity_functor(six)
    zeta = fine_zeta(six, INT)
    assert pushforward(ident, zeta).equal(zeta)
    # collapsing onto the codiscrete category turns fine zeta into coarse zeta
    codisc, collapse = codiscrete_completion(six)
    pushed = pushforward(collapse, zeta)
    z = coarse_zeta(six, INT)
    for i, a in enumerate(six.objects):
        for j, b in enumerate(six.objects):
            assert pushed.values[("co", a, b)] == z.matrix.entry(i, j)


def test_pushforward_preserves_delta_iff_bijective_on_objects():
    for label, functor in functor_corpus():
        lhs = pushforward(functor, fine_delta(functor.source, INT))
        rhs = fine_delta(functor.target, INT)
        assert lhs.equal(rhs) == is_bijective_on_objects(functor), label


def test_pushforward_homomorphism_iff_bijective_on_objects():
    positives = negatives = 0
    for rig in (INT, RAT):
        for label, functor in functor_corpus():
            hom, _ = pushforward_is_homomorphism(functor, rig)
            bo = is_bijective_on_objects(functor)
            assert hom == bo, (label, rig.name)
            if rig is INT:
                positives += bo
                negatives += not bo
    assert positives >= 10 and negatives >= 10


def test_pullback_transform_examples():
    six = six_example_category()
    ident = identity_functor(six)
    zeta = fine_zeta(six, RAT)
    assert pullback_transform(ident, zeta).equal(zeta)
    _, collapse = codiscrete_completion(six)
    codisc_zeta = fine_zeta(collapse.target, RAT)
    assert pullback_transform(collapse, codisc_zeta).equal(zeta)


def test_pullback_of_zeta_is_zeta_for_every_functor():
    for label, functor in functor_corpus():
        pulled = pullback_transform(functor, fine_zeta(functor.target, RAT))
        assert pulled.equal(fine_zeta(functor.source, RAT)), label


def test_pullback_homomorphism_iff_ulf():
    positives = negatives = 0
    for rig in (RAT, INT):
        for label, functor in functor_corpus():
            hom, _ = pullback_is_homomorphism(functor, rig)
            ulf, _ = is_ulf(functor)
            assert hom == ulf, (label, rig.name)
            if rig is RAT:
                positives += ulf
                negatives += not ulf
    assert positives >= 10 and negatives >= 10


def test_slice_projection_pullback_is_homomorphism_on_random_pairs():
    rng = random.Random(101)
    sliced, projection = slice_category(divisor_poset_category(6), 1)
    target = projection.target
    names = list(target.arrow_names())
    for _ in range(10):
        x = FineElement(target, RAT, {n: Fraction(rng.randint(-5, 5)) for n in names})
        y = FineElement(target, RAT, {n: Fraction(rng.randint(-5, 5)) for n in names})
        lhs = pullback_transform(projection, fine_convolve(x, y))
        rhs = fine_convolve(
            pullback_transform(projection, x), pullback_transform(projection, y)
        )
        assert lhs.equal(rhs)


def test_category_pullback_along_identity():
    six = six_example_category()
    ident = identity_functor(six)
    pulled, proj1, proj2 = category_pullback(ident, ident)
    assert len(pulled.objects) == len(six.objects)
    assert len(pulled.arrows) == len(six.arrows)
    assert validate_category(pulled).ok
    assert proj1.validate().ok and proj2.validate().ok


def test_category_pullback_of_inclusions_is_intersection():
    chain3 = chain_category(3)
    lower = full_subcategory(chain3, [0, 1])
    upper = full_subcategory(chain3, [1, 2])
    from corpus import inclusion_functor

    pulled, _, _ = category_pullback(
        inclusion_functor(lower, chain3), inclusion_functor(upper, chain3)
    )
    assert len(pulled.objects) == 1
    assert len(pulled.arrows) == 1


def test_category_pullback_hand_enumerated_counts():
    # slice projection against the free Hasse collapse over the chain 0<1<2
    chain3 = chain_category(3)
    _, projection = slice_category(chain3, 0)
    collapse = hasse_free_collapse(3)
    pulled, to_slice, to_free = category_pullback(projection, collapse)
    # objects pair (u, hv): slice objects are the three arrows 0<=v, and the
    # matching free-category objects are determined: 3 objects
    assert len(pulled.objects) == 3
    # arrows: slice arrows (one per pair v <= w) match free paths hv -> hw,
    # of which there is exactly one: 6 arrows
    assert len(pulled.arrows) == 6
    assert validate_category(pulled).ok
    assert to_slice.validate().ok and to_free.validate().ok


def test_beck_chevalley_on_constructed_instances():
    instances = beck_chevalley_instances()
    assert len(instances) >= 5
    for rig in (RAT, INT):
        for f, g in instances:
            report = beck_chevalley_check(f, g, rig)
            assert report.hypotheses_ok, report.detail
            assert report.square_commutes, report.detail


def test_beck_chevalley_reports_hypothesis_failure():
    six = six_example_category()
    _, collapse = codiscrete_completion(six)  # not ULF
    report = beck_chevalley_check(collapse, identity_functor(collapse.target), RAT)
    assert not report.hypotheses_ok
    assert report.square_commutes is None
    assert "ULF" in report.detail


def test_span_construction_and_rejection():
    chain3 = chain_category(3)
    sliced, projection = slice_category(chain3, 1)
    span = Span(sliced, projection, identity_functor(sliced))
    assert span.apex is sliced
    six = six_example_category()
    _, collapse = codiscrete_completion(six)
    with pytest.raises(MalformedInput):
        Span(six, collapse, identity_functor(six))  # left leg not ULF


def test_identity_span_acts_as_identity():
    six = six_example_category()
    span = identity_span(six)
    zeta = fine_zeta(six, RAT)
    assert span.algebra_map(zeta).equal(zeta)


def test_compose_spans_matches_composite_algebra_map():
    chain3 = chain_category(3)
    sliced, projection = slice_category(chain3, 0)
    first = Span(sliced, projection, identity_functor(sliced))
    second = identity_span(sliced)
    composite = compose_spans(first, second)
    # composing with the identity span keeps the apex the same size
    assert len(composite.apex.objects) == len(sliced.objects)
    assert len(composite.apex.arrows) == len(sliced.arrows)
    for name in chain3.arrow_names():
        basis = fine_basis(chain3, RAT, name)
        direct = second.algebra_map(first.algebra_map(basis))
        through = composite.algebra_map(basis)
        assert direct.equal(through)


def test_compose_spans_requires_matching_middle():
    six = six_example_category()
    with pytest.raises(MalformedInput):
        compose_spans(identity_span(six), identity_span(chain_category(2)))


def test_compose_nontrivial_spans_on_the_idempotent_example():
    # six <- slice(six, a) -> reflection, then a slice of the reflection:
    # the composite's induced algebra map must equal the two-step map on
    # the whole fine basis of the idempotent example
    from mobiuskit.category import preorder_reflection

    six = six_example_category()
    sliced, projection = slice_category(six, "a")
    reflected, to_reflected = preorder_reflection(sliced)
    first = Span(sliced, projection, to_reflected)
    inner, inner_projection = slice_category(reflected, reflected.objects[0])
    second = Span(inner, inner_projection, identity_functor(inner))
    composite = compose_spans(first, second)
    ok, witness = is_ulf(composite.left)
    assert ok, witness
    assert is_bijective_on_objects(composite.right)
    for name in six.arrow_names():
        basis = fine_basis(six, RAT, name)
        direct = second.algebra_map(first.algebra_map(basis))
        through = composite.algebra_map(basis)
        assert direct.equal(through)


def test_ulf_stable_under_pullback():
    # pull an ULF functor back along arbitrary corpus functors into the
    # same codomain and observe the projection is still ULF
    chain3 = chain_category(3)
    _, projection = slice_category(chain3, 0)  # ULF into chain3
    others = [
        identity_functor(chain3),
        hasse_free_collapse(3),
        thin_functor(chain_category(2), chain3, {0: 0, 1: 2}),
    ]
    for other in others:
        _, _, to_other_source = category_pullback(projection, other)
        pulled_projection = to_other_source
        ok, witness = is_ulf(pulled_projection)
        assert ok, witness


def test_three_for_two_property():
    # g ULF: then (g o f) ULF iff f ULF
    chain3 = chain_category(3)
    sliced, g = slice_category(chain3, 0)  # g : slice -> chain3, ULF
    inner_sliced, f_ulf = slice_category(sliced, sliced.objects[0])
    composite = compose_functors(g, f_ulf)
    assert is_ulf(f_ulf)[0]
    assert is_ulf(composite)[0]
    # now a non-ULF f into the slice
    constant = Functor(
        cyclic_group_category(2),
        sliced,
        {"*": sliced.objects[0]},
        {
            ("el", 0): sliced.identity[sliced.objects[0]],
            ("el", 1): sliced.identity[sliced.objects[0]],
        },
    )
    assert constant.validate().ok
    assert not is_ulf(constant)[0]
    composite_bad = compose_functors(g, constant)
    assert not is_ulf(composite_bad)[0]


def test_identity_adjunction():
    six = six_example_category()
    ident = identity_functor(six)
    adj = Adjunction(
        ident, ident, {o: six.identity[o] for o in six.objects}, {o: six.identity[o] for o in six.objects}
    )
    ok, why = validate_adjunction(adj)
    assert ok, why
    for a in six.objects:
        for b in six.objects:
            equal, lhs, rhs = rota_check(adj, a, b, RAT)
            assert equal and lhs == rhs


def test_galois_connections_validate_and_satisfy_rota():
    from corpus import galois_connection_corpus

    for label, adj in galois_connection_corpus():
        ok, why = validate_adjunction(adj)
        assert ok, (label, why)
        a_objects = adj.left.source.objects
        b_objects = adj.right.source.objects
        for a in a_objects:
            for b in b_objects:
                equal, lhs, rhs = rota_check(adj, a, b, RAT)
                assert equal, (label, a, b, lhs, rhs)


def test_broken_unit_is_rejected():
    from corpus import galois_chain_adjunction

    adj = galois_chain_adjunction()
    broken_unit = dict(adj.unit)
    broken_unit[0] = ("le", 0, 0)  # must reach g(f(0)) = 1
    broken = Adjunction(adj.left, adj.right, broken_unit, adj.counit)
    ok, why = validate_adjunction(broken)
    assert not ok
    assert "unit" in why


def test_is_mobius_category_examples():
    assert not is_mobius_category(six_example_category())
    assert is_mobius_category(chain_category(4))
    assert is_mobius_category(divisor_poset_category(12))
    assert not is_mobius_category(cyclic_group_category(2))
    assert not is_mobius_category(idempotent_monoid_category())


def test_six_example_fine_invertible_but_not_mobius():
    six = six_example_category()
    assert not is_mobius_category(six)
    mu = fine_mobius(six, RAT)
    assert verify_inverse(mu, fine_zeta(six, RAT))
    ok, witness = mobius_by_subcategories(six)
    assert not ok
    assert set(witness.arrow_names()) == {"1a", "e"}


def test_classifier_agrees_with_subcategory_search():
    for cat in general_corpus(103, 40):
        if len(cat.arrows) > 8:
            continue
        ok, _ = mobius_by_subcategories(cat)
        assert ok == is_mobius_category(cat)


def test_subcategory_search_budget():
    big = divisor_poset_category(12)
    assert len(big.arrows) > 8
    with pytest.raises(BudgetExceeded):
        mobius_by_subcategories(big)


def test_unit_diagonal_invertibility_in_mobius_categories():
    # invertible iff every diagonal value is a unit, spot-checked over Z
    rng = random.Random(107)
    for cat in [chain_category(3), divisor_poset_category(6)]:
        assert is_mobius_category(cat)
        for _ in range(5):
            values = {}
            for name in cat.arrow_names():
                if cat.is_identity(name):
                    values[name] = rng.choice([1, -1])
                else:
                    values[name] = rng.randint(-6, 6)
            x = FineElement(cat, INT, values)
            inverse = fine_invert(x)
            assert verify_inverse(x, inverse)
        bad_values = {
            name: (2 if cat.is_identity(name) else rng.randint(-6, 6))
            for name in cat.arrow_names()
        }
        with pytest.raises(NotInvertible):
            fine_invert(FineElement(cat, INT, bad_values))
