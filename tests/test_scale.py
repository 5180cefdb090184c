"""Paper identities as oracles at 2 000 to 5 100 arrows.

Products and coproducts of a seeded free category F on an acyclic graph
with parallel edges and the square chain(k)^2 are checked, over rat,
against closed forms that need no slow path:

- fine mu of F is 1 on identities, -1 on edges and 0 on longer paths,
  fine mu of chain(k)^2 is the product of the chains' (1 on identities,
  -1 on covers), and fine mu of a product is the product of the factors';
- chi(C x D) = chi(C) chi(D) and chi(C + D) = chi(C) + chi(D), with
  chi(F) = vertices - edges and chi(chain(k)^2) = 1;
- summing over each hom-set (sigma_to_coarse) takes fine zeta to coarse
  zeta and fine mu to coarse mu;
- the name views of a product and a coproduct, built from positions,
  are the tables the constructions were given.

These categories take the forward pass.  Two take the per-object
blocks, and over int their inverses are refused as non-integral:
C2 x chain(3)^2 with the element (1 + 2s) x zeta, and {1, e} x chain(8)^2
(2 592 arrows), whose fine mu is the product (1 - e/2) x mu of the
factors'.

Pullbacks at 1 296 arrows are checked against closed forms too: along
the identity of chain(8)^2 on both sides the pullback is the diagonal,
C's objects, arrows and table paired with themselves in C's order; over
the terminal category the pullback of the collapses of two copies of
chain(3)^2 is their product, in the product's table order.

A functor on 2 000 objects validates in one pass: the identity of the
discrete category passes, and an object sent outside the target is named.

Budget: the whole file runs in under 8 s in tier-1 (about 4 s on a shared
2-vCPU x86_64 host).
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from mobiuskit import cli, matrixrig
from mobiuskit.category import Arrow, Functor, ValidationReport, coproduct, identity_functor, product
from mobiuskit.errors import NotInvertible
from mobiuskit.functoriality import category_pullback, is_bijective_on_objects, is_ulf
from mobiuskit.incidence import (
    FineElement,
    coarse_mobius,
    coarse_zeta,
    euler_characteristic,
    fine_invert,
    fine_mobius,
    fine_zeta,
    sigma_to_coarse,
)
from mobiuskit.rigs import INT, RAT
from corpus import (
    chain_category,
    collapse_to_terminal,
    cyclic_group_category,
    discrete_category,
    free_category_on_acyclic_graph,
    idempotent_monoid_category,
    random_dag,
)
from test_fileio import category_document

# (seed, vertices, edge density, parallel edges) of F, and the k of its
# product F x chain(k)^2: 4860 and 5100 arrows; F + chain(9)^2 has 2160
# and 2076
FREE = [(1, 7, 0.5, 2), (3, 8, 0.4, 2)]
PRODUCTS = [(*case, k) for case, k in zip(FREE, (3, 4))]


def square(k):
    return product(chain_category(k), chain_category(k))


def free_mu(name) -> int:
    """mu of the free category on an acyclic graph at the path ("path", v, edges)."""
    return {0: 1, 1: -1}.get(len(name[2]), 0)


def square_mu(name) -> int:
    """mu of chain(k)^2 at ((le, a, b), (le, c, d)): a product of the chains'."""
    (_, a, b), (_, c, d) = name
    return {0: 1, 1: -1}.get(b - a, 0) * {0: 1, 1: -1}.get(d - c, 0)


def free_case(seed, vertices, density, parallel):
    graph = random_dag(random.Random(seed), vertices, density, parallel)
    return free_category_on_acyclic_graph(graph), len(graph.vertices) - len(graph.edges)


def spy_routes(monkeypatch):
    """The solver steps fine_invert takes, in order: kahn, pass and block."""
    kahn, push, bareiss = matrixrig._kahn_order, matrixrig._push_forward, matrixrig._bareiss
    calls = []
    monkeypatch.setattr(matrixrig, "_kahn_order", lambda later: calls.append("kahn") or kahn(later))
    monkeypatch.setattr(matrixrig, "_push_forward", lambda *args: calls.append("pass") or push(*args))
    monkeypatch.setattr(matrixrig, "_bareiss", lambda rows, rhs: calls.append("block") or bareiss(rows, rhs))
    return calls


@pytest.mark.parametrize("seed, vertices, density, parallel, k", PRODUCTS)
def test_product_of_a_free_category_and_a_square(monkeypatch, seed, vertices, density, parallel, k):
    f, chi_f = free_case(seed, vertices, density, parallel)
    d = square(k)
    c = product(f, d)
    assert 2000 <= len(c.arrow_names()) <= 10000
    # the name views, built from positions, are the tables product was given
    expected = {
        ((g1, g2), (f1, f2)): (h1, h2) for (g1, f1), h1 in f.compose.items() for (g2, f2), h2 in d.compose.items()
    }
    assert list(c.compose.items()) == list(expected.items())
    assert c.arrows == tuple(Arrow((a.name, b.name), (a.src, b.src), (a.tgt, b.tgt)) for a in f.arrows for b in d.arrows)

    routes = spy_routes(monkeypatch)
    mu = fine_mobius(c, RAT)
    assert routes == ["kahn", "pass"]
    assert fine_mobius(f, RAT).values == {name: free_mu(name) for name in f.arrow_names()}
    assert fine_mobius(d, RAT).values == {name: square_mu(name) for name in d.arrow_names()}
    assert mu.values == {(a, b): free_mu(a) * square_mu(b) for a, b in c.arrow_names()}

    # summing over hom-sets is a homomorphism onto the coarse algebra: it
    # takes fine zeta, nonzero on every arrow, to coarse zeta, and mu to mu
    assert sigma_to_coarse(fine_zeta(c, RAT)).equal(coarse_zeta(c, RAT))
    assert sigma_to_coarse(mu).equal(coarse_mobius(c, RAT))
    assert euler_characteristic(f, RAT) == chi_f and euler_characteristic(d, RAT) == 1
    assert euler_characteristic(c, RAT) == chi_f * euler_characteristic(d, RAT)


@pytest.mark.parametrize("seed, vertices, density, parallel", FREE)
def test_coproduct_of_a_free_category_and_a_square(tmp_path, seed, vertices, density, parallel):
    f, chi_f = free_case(seed, vertices, density, parallel)
    d = square(9)
    c = coproduct(f, d)
    assert 2000 <= len(c.arrow_names()) <= 10000
    expected = {(("L", g), ("L", f1)): ("L", h) for (g, f1), h in f.compose.items()}
    expected.update({(("R", g), ("R", f1)): ("R", h) for (g, f1), h in d.compose.items()})
    assert list(c.compose.items()) == list(expected.items())

    mu = fine_mobius(c, RAT)
    want = {("L", a): free_mu(a) for a in f.arrow_names()}
    want.update({("R", b): square_mu(b) for b in d.arrow_names()})
    assert mu.values == want
    assert sigma_to_coarse(fine_zeta(c, RAT)).equal(coarse_zeta(c, RAT))
    assert sigma_to_coarse(mu).equal(coarse_mobius(c, RAT))
    assert euler_characteristic(c, RAT) == chi_f + 1

    # the same answer from the command line, on the category written to a file
    path = tmp_path / "coproduct.json"
    path.write_text(json.dumps(category_document(c)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["euler", "--category", str(path)]) == 0
    assert json.loads(out.getvalue())["results"] == {"status": "ok", "euler_characteristic": str(chi_f + 1)}


def test_a_group_times_a_square_takes_the_blocks_and_is_refused_over_int(monkeypatch):
    c2 = cyclic_group_category(2)
    d = square(3)
    c = product(c2, d)
    one, s = c2.arrow_names()
    # (1 + 2s) x zeta inverts to (-1/3 + 2/3 s) x mu, through one block per object
    x = {one: 1, s: 2}
    inverse = {one: Fraction(-1, 3), s: Fraction(2, 3)}
    element = {(a, b): Fraction(x[a]) for a, b in c.arrow_names()}
    routes = spy_routes(monkeypatch)
    assert fine_invert(FineElement(c, RAT, element)).values == {
        (a, b): inverse[a] * square_mu(b) for a, b in c.arrow_names()
    }
    assert routes == ["kahn"] + ["block"] * len(c.objects)
    # zeta itself is singular, as it is on C2
    with pytest.raises(NotInvertible, match="^singular convolution system"):
        fine_mobius(c, RAT)
    assert euler_characteristic(c, RAT) == euler_characteristic(c2, RAT) * euler_characteristic(d, RAT) == Fraction(1, 2)

    with pytest.raises(NotInvertible, match="is not an integer") as err:
        fine_invert(FineElement(c, INT, {name: x[name[0]] for name in c.arrow_names()}))
    assert err.value.witness[0] == "non-integral"
    with pytest.raises(NotInvertible, match="is not an integer"):
        euler_characteristic(c, INT)


def test_an_idempotent_times_a_square_takes_the_blocks_at_scale(monkeypatch):
    # {1, e} x chain(8)^2 has 2592 arrows; e o e = e puts 2 on the diagonal
    # of the system, so every object's block of up to 128 arrows goes to
    # Bareiss, and the blocks land on one denominator
    m = idempotent_monoid_category()
    d = square(8)
    c = product(m, d)
    assert len(c.arrow_names()) == 2592
    one, e = m.arrow_names()
    mu_m = {one: 1, e: Fraction(-1, 2)}  # mu = 1 - e/2
    routes = spy_routes(monkeypatch)
    mu = fine_mobius(c, RAT)
    assert routes == ["block"] * len(c.objects)
    assert mu.values == {(a, b): mu_m[a] * square_mu(b) for a, b in c.arrow_names()}
    assert sigma_to_coarse(mu).equal(coarse_mobius(c, RAT))
    assert euler_characteristic(c, RAT) == Fraction(1, 2)

    with pytest.raises(NotInvertible) as err:
        fine_mobius(c, INT)
    assert str(err.value) == "inverse value on arrow (('el', 'e'), (('le', 0, 0), ('le', 0, 0))) = -1/2 is not an integer"
    assert err.value.witness == ("non-integral", (e, (("le", 0, 0), ("le", 0, 0))), "-1/2")


def test_the_identity_pullback_of_a_square_is_its_diagonal():
    # chain(8)^2 has 1296 arrows; along the identity on both sides only the
    # pairs (x, x) and (p, p) match, so the pullback is C on the diagonal,
    # in C's order, table included
    c = square(8)
    ident = identity_functor(c)
    pulled, proj1, proj2 = category_pullback(ident, ident)
    assert len(c.arrow_names()) == 1296
    assert pulled.objects == tuple((x, x) for x in c.objects)
    assert pulled.arrows == tuple(Arrow((a.name, a.name), (a.src, a.src), (a.tgt, a.tgt)) for a in c.arrows)
    assert pulled.identity == {(x, x): (name, name) for x, name in c.identity.items()}
    assert list(pulled.compose.items()) == [(((g, g), (f, f)), (h, h)) for (g, f), h in c.compose.items()]
    for proj in (proj1, proj2):
        assert proj.target is c and is_bijective_on_objects(proj) and is_ulf(proj) == (True, None)
        assert proj.arrow_map == {(name, name): name for name in c.arrow_names()}


def test_the_pullback_over_the_terminal_category_is_the_product():
    # every object, arrow and pair of arrows of chain(3)^2 goes to the one
    # of the terminal category, so every pair matches: 1296 arrows
    a, b = square(3), square(3)
    pulled, proj1, proj2 = category_pullback(collapse_to_terminal(a), collapse_to_terminal(b))
    paired = product(a, b)
    assert len(pulled.arrow_names()) == 1296
    assert (pulled.objects, pulled.arrows, pulled.identity) == (paired.objects, paired.arrows, paired.identity)
    assert list(pulled.compose.items()) == list(paired.compose.items())
    assert proj1.arrow_map == {(p, q): p for p, q in paired.arrow_names()}
    assert proj2.object_map == {(x, y): y for x, y in paired.objects}


def test_a_functor_on_2000_objects_validates_in_one_pass():
    # each image is looked up in the target's object index, not in a set
    # rebuilt per source object, so the range check is linear
    c = discrete_category(2000)
    ident = identity_functor(c)
    assert ident.validate() == ValidationReport(True)
    stray = Functor(c, c, {**ident.object_map, "d1999": "elsewhere"}, ident.arrow_map)
    assert stray.validate() == ValidationReport(False, "object-map-range", "'d1999'")
