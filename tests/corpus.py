"""Named example categories and seeded random generators: the corpus that
the tests hold the library to.

The random generators are deterministic for a fixed seed; tests record the
seed they use.  Categories come from several strategies: random posets,
free categories on small acyclic graphs, random composition-table search
with rejection, and hand-built families (parallel composites, the
split-idempotent two-object example, monoids, the walking isomorphism).
The patches of the built-in families are materialized here as explicit
finite categories, and rig_sampler feeds verify_rig_laws.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from mobiuskit.category import (
    Arrow,
    DirectedGraph,
    FinCategory,
    Functor,
    codiscrete_completion,
    full_subcategory,
    identity_functor,
    monoid_to_category,
    poset_to_category,
    preorder_reflection,
    product,
    validate_category,
)
from mobiuskit.errors import MalformedInput, NotInvertible
from mobiuskit.functoriality import Adjunction
from mobiuskit.incidence import fine_mobius
from mobiuskit.infinite import builtin
from mobiuskit.matrixrig import RigMatrix, invert
from mobiuskit.rigs import RAT, Rig, TruncatedSeries


# named categories


def terminal_category() -> FinCategory:
    return monoid_to_category(("1",), "1", {("1", "1"): "1"})


def discrete_category(n: int) -> FinCategory:
    objs = tuple(f"d{i}" for i in range(n))
    arrows = [Arrow(("id", o), o, o) for o in objs]
    identity = {o: ("id", o) for o in objs}
    compose = {(("id", o), ("id", o)): ("id", o) for o in objs}
    return FinCategory(objs, arrows, identity, compose)


def chain_category(n: int) -> FinCategory:
    """The poset 0 < 1 < ... < n-1 as a category."""
    elems = tuple(range(n))
    return poset_to_category(elems, [(i, j) for i in elems for j in elems if i <= j])


def square_poset_category() -> FinCategory:
    return product(chain_category(2), chain_category(2))


def divisor_poset_category(n: int) -> FinCategory:
    divisors = tuple(d for d in range(1, n + 1) if n % d == 0)
    return poset_to_category(divisors, [(a, b) for a in divisors for b in divisors if b % a == 0])


def cyclic_group_category(n: int) -> FinCategory:
    elems = tuple(range(n))
    return monoid_to_category(elems, 0, {(a, b): (a + b) % n for a in elems for b in elems})


def idempotent_monoid_category() -> FinCategory:
    """The monoid {1, e} with e*e = e: fine inversion over Q but not Z."""
    table = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return monoid_to_category(("1", "e"), "1", table)


def six_example_category() -> FinCategory:
    """Two objects a, b with s: a -> b and i: b -> a satisfying s o i = 1_b.

    The composite e = i o s is a nontrivial idempotent, so the category is
    not Mobius, yet its fine zeta inverts over any ring.
    """
    objects = ("a", "b")
    arrows = [
        Arrow("1a", "a", "a"),
        Arrow("1b", "b", "b"),
        Arrow("s", "a", "b"),
        Arrow("i", "b", "a"),
        Arrow("e", "a", "a"),
    ]
    identity = {"a": "1a", "b": "1b"}
    compose = {
        ("1a", "1a"): "1a",
        ("1b", "1b"): "1b",
        ("s", "1a"): "s",
        ("1b", "s"): "s",
        ("i", "1b"): "i",
        ("1a", "i"): "i",
        ("e", "1a"): "e",
        ("1a", "e"): "e",
        ("s", "i"): "1b",
        ("i", "s"): "e",
        ("e", "e"): "e",
        ("s", "e"): "s",
        ("e", "i"): "i",
    }
    return FinCategory(objects, arrows, identity, compose)


def walking_iso_category() -> FinCategory:
    """Two isomorphic objects: not skeletal, coarse zeta is singular."""
    objects = ("x", "y")
    arrows = [
        Arrow("1x", "x", "x"),
        Arrow("1y", "y", "y"),
        Arrow("u", "x", "y"),
        Arrow("v", "y", "x"),
    ]
    identity = {"x": "1x", "y": "1y"}
    compose = {
        ("1x", "1x"): "1x",
        ("1y", "1y"): "1y",
        ("u", "1x"): "u",
        ("1y", "u"): "u",
        ("v", "1y"): "v",
        ("1x", "v"): "v",
        ("v", "u"): "1x",
        ("u", "v"): "1y",
    }
    return FinCategory(objects, arrows, identity, compose)


def parallel_composite_category(n_parallel: int, choice: int) -> FinCategory:
    """Objects a -> b -> c plus n_parallel arrows a -> c; g o f = p_choice.

    Different choices give distinct category structures on one graph.
    """
    if not 0 <= choice < n_parallel:
        raise MalformedInput("choice must index a parallel arrow")
    objects = ("a", "b", "c")
    arrows = [
        Arrow("1a", "a", "a"),
        Arrow("1b", "b", "b"),
        Arrow("1c", "c", "c"),
        Arrow("f", "a", "b"),
        Arrow("g", "b", "c"),
    ] + [Arrow(f"p{k}", "a", "c") for k in range(n_parallel)]
    identity = {"a": "1a", "b": "1b", "c": "1c"}
    compose = {}
    for a in arrows:
        compose[(a.name, identity[a.src])] = a.name
        compose[(identity[a.tgt], a.name)] = a.name
    for o in objects:
        compose[(identity[o], identity[o])] = identity[o]
    compose[("g", "f")] = f"p{choice}"
    return FinCategory(objects, arrows, identity, compose)


def named_categories() -> dict:
    """The fixed menagerie used throughout the test-suite corpus."""
    return {
        "terminal": terminal_category(),
        "discrete2": discrete_category(2),
        "discrete3": discrete_category(3),
        "chain2": chain_category(2),
        "chain3": chain_category(3),
        "square": square_poset_category(),
        "divisors6": divisor_poset_category(6),
        "divisors12": divisor_poset_category(12),
        "c2": cyclic_group_category(2),
        "c3": cyclic_group_category(3),
        "idempotent_monoid": idempotent_monoid_category(),
        "six": six_example_category(),
        "walking_iso": walking_iso_category(),
        "parallel2_first": parallel_composite_category(2, 0),
        "parallel2_second": parallel_composite_category(2, 1),
    }


# random posets and graphs


def _transitive_closure(pairs) -> set:
    """The transitive closure of a relation given as a set of pairs."""
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (b2, c) in list(closure):
                if b2 == b and (a, c) not in closure:
                    closure.add((a, c))
                    changed = True
    return closure


def random_poset_relation(rng: random.Random, n: int, density: float = 0.35):
    """Random partial order on 0..n-1: random DAG edges i < j, then closure."""
    leq = {(i, i) for i in range(n)}
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    return leq | _transitive_closure(edges)


def random_poset_category(rng: random.Random, n: int, density: float = 0.35) -> FinCategory:
    relation = random_poset_relation(rng, n, density)
    return poset_to_category(tuple(range(n)), relation)


def random_dag(rng: random.Random, n: int, density: float = 0.4, parallel: int = 1) -> DirectedGraph:
    """Random acyclic graph, possibly with parallel edges (as name suffixes)."""
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(parallel):
                if rng.random() < density:
                    edges.append(Arrow(f"e{i}_{j}_{k}", f"v{i}", f"v{j}"))
    return DirectedGraph(vertices, tuple(edges))


def free_category_on_acyclic_graph(g: DirectedGraph) -> FinCategory:
    """Arrows are the paths of the graph, composition is concatenation.

    Finite because the graph is acyclic; raises MalformedInput otherwise.
    """
    order = {v: i for i, v in enumerate(g.vertices)}
    for e in g.edges:
        if order[e.src] >= order[e.tgt]:
            raise MalformedInput("free path category needs an acyclic graph (edges must ascend)")
    out_edges: dict = {v: [] for v in g.vertices}
    for e in g.edges:
        out_edges[e.src].append(e)
    # tip[p] is the vertex where path p ends, recorded as p is made
    tip = {("path", v, ()): v for v in g.vertices}
    paths = list(tip)
    frontier = list(paths)
    while frontier:
        new_frontier = []
        for p in frontier:
            _, start, edge_names = p
            for e in out_edges[tip[p]]:
                q = ("path", start, edge_names + (e.name,))
                tip[q] = e.tgt
                new_frontier.append(q)
        paths.extend(new_frontier)
        frontier = new_frontier
    arrows = [Arrow(p, p[1], tip[p]) for p in paths]
    identity = {v: ("path", v, ()) for v in g.vertices}
    ending_at: dict = {v: [] for v in g.vertices}
    for p in paths:
        ending_at[tip[p]].append(p)
    # q o p for every path p that ends where q starts
    compose = {}
    for q in paths:
        for p in ending_at[q[1]]:
            compose[(q, p)] = ("path", p[1], p[2] + q[2])
    return FinCategory(g.vertices, arrows, identity, compose)


def random_table_category(rng: random.Random, attempts: int = 60):
    """Composition-table search with rejection.

    Draws a small graph, forces the unit laws, fills the remaining
    composites randomly among arrows with matching endpoints, and keeps
    the result only if it satisfies the category laws.
    """
    for _ in range(attempts):
        n_obj = rng.choice([1, 2, 2, 3])
        objects = tuple(f"o{i}" for i in range(n_obj))
        arrows = [Arrow(("id", o), o, o) for o in objects]
        n_extra = rng.choice([1, 2, 2, 3])
        for k in range(n_extra):
            src = rng.choice(objects)
            tgt = rng.choice(objects)
            arrows.append(Arrow(("x", k), src, tgt))
        identity = {o: ("id", o) for o in objects}
        compose = {}
        ok = True
        for g in arrows:
            for f in arrows:
                if f.tgt != g.src:
                    continue
                if f.name == identity[g.src]:
                    compose[(g.name, f.name)] = g.name
                elif g.name == identity[f.tgt]:
                    compose[(g.name, f.name)] = f.name
                else:
                    candidates = [
                        a.name for a in arrows if a.src == f.src and a.tgt == g.tgt
                    ]
                    if not candidates:
                        ok = False
                        break
                    compose[(g.name, f.name)] = rng.choice(candidates)
            if not ok:
                break
        if not ok:
            continue
        cat = FinCategory(objects, arrows, identity, compose)
        if validate_category(cat).ok:
            return cat
    return None


def fine_invertible_corpus(seed: int, count: int) -> list:
    """Seeded finite categories with fine Mobius inversion over the rationals.

    Mixes the deterministic strategies and filters by actually inverting.
    """
    rng = random.Random(seed)
    out = []
    strategies = ["poset", "free", "table", "parallel", "named"]
    named_pool = [
        six_example_category(),
        idempotent_monoid_category(),
        chain_category(4),
        divisor_poset_category(12),
        square_poset_category(),
    ]
    named_index = 0
    while len(out) < count:
        kind = rng.choice(strategies)
        cat = None
        if kind == "poset":
            cat = random_poset_category(rng, rng.randint(2, 5))
        elif kind == "free":
            graph = random_dag(rng, rng.randint(2, 4), density=0.5, parallel=2)
            cat = free_category_on_acyclic_graph(graph)
            if len(cat.arrows) > 14:
                cat = None
        elif kind == "table":
            cat = random_table_category(rng)
        elif kind == "parallel":
            n_par = rng.randint(1, 3)
            cat = parallel_composite_category(n_par, rng.randrange(n_par))
        else:
            cat = named_pool[named_index % len(named_pool)]
            named_index += 1
        if cat is None:
            continue
        try:
            fine_mobius(cat, RAT)
        except NotInvertible:
            continue
        out.append(cat)
    return out


def general_corpus(seed: int, count: int) -> list:
    """Seeded finite categories with no invertibility filter applied."""
    rng = random.Random(seed)
    out = list(named_categories().values())
    while len(out) < count:
        kind = rng.choice(["poset", "free", "table"])
        if kind == "poset":
            cat = random_poset_category(rng, rng.randint(1, 5))
        elif kind == "free":
            graph = random_dag(rng, rng.randint(2, 4), density=0.5, parallel=2)
            cat = free_category_on_acyclic_graph(graph)
            if len(cat.arrows) > 14:
                cat = None
        else:
            cat = random_table_category(rng)
        if cat is not None:
            out.append(cat)
    return out


def same_graph_composition_pairs() -> list:
    """Pairs of distinct category structures sharing an underlying graph."""
    pairs = []
    for n_par in (2, 3, 4):
        for first in range(n_par):
            for second in range(first + 1, n_par):
                pairs.append(
                    (
                        parallel_composite_category(n_par, first),
                        parallel_composite_category(n_par, second),
                    )
                )
    # one-object pair: cyclic group C2 vs the idempotent monoid on the same graph
    c2 = cyclic_group_category(2)
    renamed = monoid_to_category((0, 1), 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    pairs.append((c2, renamed))
    return pairs


# slices and functors


def slice_category(c: FinCategory, x):
    """Slice x/C together with the forgetful projection (always ULF).

    Objects are arrows out of x; a map (u -> v) is an arrow h with
    h o u = v, named (u, h, v).
    """
    if x not in set(c.objects):
        raise MalformedInput(f"{x!r} is not an object")
    objs = [a.name for a in c.arrows if a.src == x]
    arrows = []
    for u in objs:
        for h in c.arrow_names():
            if c.src(h) == c.tgt(u):
                v = c.compose[(h, u)]
                arrows.append(Arrow((u, h, v), u, v))
    identity = {u: (u, c.identity[c.tgt(u)], u) for u in objs}
    compose = {}
    for a2 in arrows:
        for a1 in arrows:
            if a1.tgt == a2.src:
                u1, h1, _ = a1.name
                _, h2, v2 = a2.name
                compose[(a2.name, a1.name)] = (u1, c.compose[(h2, h1)], v2)
    sliced = FinCategory(objs, arrows, identity, compose)
    projection = Functor(
        sliced,
        c,
        {u: c.tgt(u) for u in objs},
        {a.name: a.name[1] for a in arrows},
    )
    return sliced, projection


def graph_functor_between_free_categories(
    src_graph: DirectedGraph, tgt_graph: DirectedGraph, vertex_map: dict, edge_map: dict
) -> Functor:
    """Functor between free path categories induced by a graph morphism; ULF."""
    src_cat = free_category_on_acyclic_graph(src_graph)
    tgt_cat = free_category_on_acyclic_graph(tgt_graph)
    arrow_map = {}
    for a in src_cat.arrows:
        _, start, edge_names = a.name
        arrow_map[a.name] = ("path", vertex_map[start], tuple(edge_map[e] for e in edge_names))
    return Functor(src_cat, tgt_cat, dict(vertex_map), arrow_map)


def inclusion_functor(sub: FinCategory, sup: FinCategory) -> Functor:
    return Functor(
        sub,
        sup,
        {o: o for o in sub.objects},
        {a.name: a.name for a in sub.arrows},
    )


def thin_functor(src: FinCategory, tgt: FinCategory, object_map: dict) -> Functor:
    """Functor into a thin category (a poset among them), determined by any
    monotone object map."""
    arrow_map = {}
    for a in src.arrows:
        candidates = tgt.hom(object_map[a.src], object_map[a.tgt])
        if len(candidates) != 1:
            raise MalformedInput(
                f"target hom({object_map[a.src]!r},{object_map[a.tgt]!r}) is not a single arrow"
            )
        arrow_map[a.name] = candidates[0]
    return Functor(src, tgt, dict(object_map), arrow_map)


def monoid_functor(src: FinCategory, tgt: FinCategory, element_map: dict) -> Functor:
    """Functor between one-object monoid categories from an element map."""
    return Functor(
        src,
        tgt,
        {"*": "*"},
        {("el", x): ("el", element_map[x]) for x in element_map},
    )


def collapse_to_terminal(c: FinCategory) -> Functor:
    term = terminal_category()
    return Functor(
        c,
        term,
        {o: "*" for o in c.objects},
        {a.name: ("el", "1") for a in c.arrows},
    )


def functor_corpus() -> list:
    """Functors with a spread of ULF / bijective-on-objects behaviour.

    Returns (label, functor) pairs; predicates are intentionally not
    hard-coded here, tests compute them.
    """
    out = []
    six = six_example_category()
    chain3 = chain_category(3)
    chain2 = chain_category(2)
    divisors6 = divisor_poset_category(6)
    out.append(("id_six", identity_functor(six)))
    out.append(("id_chain3", identity_functor(chain3)))
    out.append(("id_terminal", identity_functor(terminal_category())))
    _, collapse = codiscrete_completion(six)
    out.append(("six_to_codiscrete", collapse))
    _, reflect_six = preorder_reflection(six)
    out.append(("six_to_preorder", reflect_six))
    for n_par in (2, 3):
        cat = parallel_composite_category(n_par, 0)
        _, reflect = preorder_reflection(cat)
        out.append((f"parallel{n_par}_to_preorder", reflect))
    for x in (0, 1, 2):
        _, proj = slice_category(chain3, x)
        out.append((f"slice_chain3_{x}", proj))
    _, proj = slice_category(six, "a")
    out.append(("slice_six_a", proj))
    _, proj = slice_category(divisors6, 1)
    out.append(("slice_divisors6_1", proj))
    _, proj = slice_category(idempotent_monoid_category(), "*")
    out.append(("slice_idem_monoid", proj))
    out.append(("discrete2_to_terminal", collapse_to_terminal(discrete_category(2))))
    out.append(("c2_to_terminal", collapse_to_terminal(cyclic_group_category(2))))
    out.append(("idem_to_terminal", collapse_to_terminal(idempotent_monoid_category())))
    sub = full_subcategory(chain3, [0, 2])
    out.append(("gappy_inclusion", inclusion_functor(sub, chain3)))
    sub_upper = full_subcategory(chain3, [1, 2])
    out.append(("upper_inclusion", inclusion_functor(sub_upper, chain3)))
    # free-category functors from graph morphisms
    two_par = DirectedGraph(("v0", "v1"), (Arrow("e0", "v0", "v1"), Arrow("e1", "v0", "v1")))
    one_edge = DirectedGraph(("v0", "v1"), (Arrow("e", "v0", "v1"),))
    out.append(
        (
            "free_two_to_one",
            graph_functor_between_free_categories(
                two_par, one_edge, {"v0": "v0", "v1": "v1"}, {"e0": "e", "e1": "e"}
            ),
        )
    )
    path2 = DirectedGraph(
        ("v0", "v1", "v2"), (Arrow("a01", "v0", "v1"), Arrow("a12", "v1", "v2"))
    )
    out.append(
        (
            "free_path_inclusion",
            graph_functor_between_free_categories(
                one_edge, path2, {"v0": "v0", "v1": "v1"}, {"e": "a01"}
            ),
        )
    )
    out.append(
        ("chain3_to_chain2", thin_functor(chain3, chain2, {0: 0, 1: 1, 2: 1}))
    )
    out.append(
        (
            "divisors6_to_chain2",
            thin_functor(divisors6, chain2, {1: 0, 2: 1, 3: 1, 6: 1}),
        )
    )
    out.append(("c3_to_terminal", collapse_to_terminal(cyclic_group_category(3))))
    out.append(("walking_iso_to_terminal", collapse_to_terminal(walking_iso_category())))
    c4 = cyclic_group_category(4)
    c2 = cyclic_group_category(2)
    out.append(
        ("c4_to_c2", monoid_functor(c4, c2, {x: x % 2 for x in range(4)}))
    )
    out.append(("slice_square_corner", slice_category(square_poset_category(), (0, 0))[1]))
    return out


def hasse_free_collapse(chain_len: int) -> Functor:
    """Free category on the Hasse diagram of a chain, collapsing onto it.

    Bijective on objects with finite fibres; the canonical counterpart to
    slice projections when building pullback squares.
    """
    chain = chain_category(chain_len)
    vertices = tuple(f"h{i}" for i in range(chain_len))
    edges = tuple(Arrow(f"h{i}{i + 1}", f"h{i}", f"h{i + 1}") for i in range(chain_len - 1))
    free = free_category_on_acyclic_graph(DirectedGraph(vertices, edges))
    return thin_functor(free, chain, {f"h{i}": i for i in range(chain_len)})


def beck_chevalley_instances() -> list:
    """Cospans (F ULF, G bijective-on-objects) into a common codomain."""
    instances = []
    for chain_len in (2, 3):
        for base in range(chain_len):
            _, projection = slice_category(chain_category(chain_len), base)
            instances.append((projection, hasse_free_collapse(chain_len)))
    six = six_example_category()
    instances.append((identity_functor(six), identity_functor(six)))
    _, div_proj = slice_category(divisor_poset_category(6), 1)
    instances.append((div_proj, identity_functor(divisor_poset_category(6))))
    return instances


# explicit Galois connections (unit/counit data included)


def galois_chain_adjunction():
    """floor-halving left adjoint between the chains [0..4] and [0..2]."""
    a = chain_category(5)
    b = chain_category(3)
    f = thin_functor(a, b, {x: x // 2 for x in range(5)})
    g = thin_functor(b, a, {y: min(2 * y + 1, 4) for y in range(3)})
    unit = {x: ("le", x, min(2 * (x // 2) + 1, 4)) for x in range(5)}
    counit = {y: ("le", min(2 * y + 1, 4) // 2, y) for y in range(3)}
    return Adjunction(f, g, unit, counit)


def galois_divisor_adjunction():
    """divisors of 6 include into divisors of 12; right adjoint is gcd(-, 6)."""
    small = divisor_poset_category(6)
    large = divisor_poset_category(12)
    f = thin_functor(small, large, {d: d for d in small.objects})
    g = thin_functor(large, small, {d: math.gcd(d, 6) for d in large.objects})
    unit = {d: ("le", d, d) for d in small.objects}
    counit = {d: ("le", math.gcd(d, 6), d) for d in large.objects}
    return Adjunction(f, g, unit, counit)


def galois_square_adjunction():
    """emptiness-collapse of the square poset onto the chain 0 < 1."""
    square = square_poset_category()
    chain2 = chain_category(2)
    bottom = (0, 0)
    f_map = {o: (0 if o == bottom else 1) for o in square.objects}
    g_map = {0: bottom, 1: (1, 1)}
    f = thin_functor(square, chain2, f_map)
    g = thin_functor(chain2, square, g_map)
    unit = {o: square.hom(o, g_map[f_map[o]])[0] for o in square.objects}
    counit = {y: ("le", f_map[g_map[y]], y) for y in (0, 1)}
    return Adjunction(f, g, unit, counit)


def galois_connection_corpus():
    return [
        ("chain5_chain3", galois_chain_adjunction()),
        ("divisors6_divisors12", galois_divisor_adjunction()),
        ("square_chain2", galois_square_adjunction()),
    ]


# patches of the built-in families as explicit finite categories


def _monotone_injections(m: int, n: int):
    """Images of order-preserving injections {1..m} -> {1..n}."""
    return combinations(range(1, n + 1), m)


def _monotone_surjections(m: int, n: int):
    """Images of order-preserving surjections {1..m} -> {1..n}.

    Determined by the fibre sizes, a composition of m into n positive
    parts; yielded as image tuples of length m.
    """
    if m == 0 and n == 0:
        yield ()
        return
    if n == 0 or m < n:
        return
    for cut in combinations(range(1, m), n - 1):
        bounds = (0,) + cut + (m,)
        image = []
        for value in range(1, n + 1):
            image.extend([value] * (bounds[value] - bounds[value - 1]))
        yield tuple(image)


def _map_category(objects, maps_between, tag: str) -> FinCategory:
    """Finite category whose arrows are explicit monotone maps m -> n."""
    arrows = []
    for m in objects:
        for n in objects:
            for image in maps_between(m, n):
                arrows.append(Arrow((tag, m, n, image), m, n))
    identity = {m: (tag, m, m, tuple(range(1, m + 1))) for m in objects}
    compose = {}
    for g in arrows:
        for f in arrows:
            if f.tgt != g.src:
                continue
            g_img = g.name[3]
            f_img = f.name[3]
            image = tuple(g_img[v - 1] for v in f_img)
            compose[(g.name, f.name)] = (tag, f.src, g.tgt, image)
    return FinCategory(objects, arrows, identity, compose)


def materialize(family: str, a, b) -> FinCategory:
    """The patch of builtin(family) at (a, b) as an explicit finite category.

    dinj and dsurj get their order-preserving maps as arrows, divisibility
    and nat_leq are posets, so the fine theory and the chain count can be
    run on a patch whose coarse Mobius value the oracle also gives.
    """
    objects = tuple(builtin(family).patch_objects(a, b))
    if family == "dinj":
        return _map_category(objects, _monotone_injections, "inj")
    if family == "dsurj":
        return _map_category(objects, _monotone_surjections, "surj")
    if family == "divisibility":
        return poset_to_category(objects, [(x, y) for x in objects for y in objects if y % x == 0])
    return poset_to_category(objects, [(x, y) for x in objects for y in objects if x <= y])


# rig element samplers and random matrices


def rig_sampler(rig: Rig):
    """Deterministic-random element sampler for each concrete rig."""
    name = rig.name
    if name == "nat":
        return lambda rng: rng.randint(0, 12)
    if name == "int":
        return lambda rng: rng.randint(-12, 12)
    if name == "rat":
        return lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    if name == "real":
        return lambda rng: rng.uniform(-10.0, 10.0)
    if name == "bool":
        return lambda rng: rng.randint(0, 1)
    if name.startswith("poly"):
        degree = rig.zero.truncation_degree

        def sample(rng):
            coeffs = tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)
            )
            return TruncatedSeries(coeffs, degree)

        return sample
    raise MalformedInput(f"no sampler for rig '{name}'")


def verify_rig_laws(rig: Rig, triples) -> None:
    """Check the rig axioms on sampled (a, b, c) triples; raises on failure.

    Exact rigs use exact equality; the floating-real rig's ``eq`` already
    carries the 1e-12 relative tolerance.
    """
    eq, add, mul = rig.eq, rig.add, rig.mul
    zero, one = rig.zero, rig.one
    for a, b, c in triples:
        assert eq(add(a, b), add(b, a)), f"add not commutative at {a!r},{b!r}"
        assert eq(add(add(a, b), c), add(a, add(b, c))), "add not associative"
        assert eq(add(a, zero), a), f"zero not a unit at {a!r}"
        assert eq(mul(a, b), mul(b, a)), f"mul not commutative at {a!r},{b!r}"
        assert eq(mul(mul(a, b), c), mul(a, mul(b, c))), "mul not associative"
        assert eq(mul(a, one), a), f"one not a unit at {a!r}"
        assert eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))), "no distributivity"
        assert eq(mul(a, zero), zero), f"zero not absorbing at {a!r}"
        if rig.neg is not None:
            assert eq(add(a, rig.neg(a)), zero), f"neg broken at {a!r}"
        if rig.inv is not None and not rig.is_zero(a):
            assert eq(mul(a, rig.inv(a)), one), f"inv broken at {a!r}"


def random_matrix(rng: random.Random, rig: Rig, n: int) -> RigMatrix:
    sample = rig_sampler(rig)
    return RigMatrix.from_rows(rig, [[sample(rng) for _ in range(n)] for _ in range(n)])


def random_transitive_invertible_matrix(rng: random.Random, n: int) -> RigMatrix:
    """Random preorder support filled with positive rationals: transitive by
    construction; resampled until invertible."""
    while True:
        reflexive = {(i, i) for i in range(n)}
        base = {
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.3
        }
        support = reflexive | _transitive_closure(base)
        rows = [
            [
                Fraction(rng.randint(1, 6), rng.randint(1, 4)) if (i, j) in support else Fraction(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        matrix = RigMatrix.from_rows(RAT, rows)
        try:
            invert(matrix)
        except NotInvertible:
            continue
        return matrix
