"""Finite categories as explicit data, with validation and standard constructions.

A category is stored as object list, arrow list, identity table and a
composition table keyed by arrow-name pairs (g, f) with tgt(f) = src(g),
mapping to the name of g after f.  Construction refuses a table that misses
a composable pair or has an entry for a pair that does not compose;
validate_category then reports the first violated law: identity endpoints,
composite endpoints, units or associativity.  Associativity is checked only
on the triples whose outer hom-set hom(src f, tgt h) has two or more arrows:
once the composite endpoints hold, both sides of the law lie in that
hom-set, so with one arrow there they agree.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ._record import Frozen, Record
from .errors import BudgetExceeded, MalformedInput, UnknownObject


class Arrow(Frozen):
    __slots__ = ("name", "src", "tgt")

    def __init__(self, name, src, tgt):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)


class DirectedGraph(Frozen):
    __slots__ = ("vertices", "edges")  # edges: a tuple of Arrow

    def __init__(self, vertices: tuple, edges: tuple):
        if len({e.name for e in edges}) != len(edges):
            raise MalformedInput("duplicate edge names")
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise MalformedInput("duplicate vertex identifiers")
        for e in edges:
            if e.src not in vs or e.tgt not in vs:
                raise MalformedInput(f"edge {e.name!r} has an endpoint outside the vertex list")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)


class ValidationReport(Frozen):
    __slots__ = ("ok", "law", "witness")

    def __init__(self, ok: bool, law: str = "", witness: str = ""):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "witness", witness)

    def message(self) -> str:
        return "valid" if self.ok else f"{self.law}: {self.witness}"


class FinCategory:
    """Immutable finite category; construct then treat as read-only.

    The constructor checks structure only and raises MalformedInput: names
    are unique and resolve, the identity table covers exactly the objects,
    and compose is defined on exactly the composable pairs.  The category
    *laws* are the business of validate(), which reports rather than raises.
    """

    def __init__(self, objects, arrows, identity, compose):
        objects = tuple(objects)
        arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        if len(set(objects)) != len(objects):
            raise MalformedInput("duplicate object identifiers")
        names = tuple(a.name for a in arrows)
        if len(set(names)) != len(names):
            raise MalformedInput("duplicate arrow names")
        by_name = {a.name: a for a in arrows}
        obj_set = set(objects)
        for a in arrows:
            if a.src not in obj_set or a.tgt not in obj_set:
                raise MalformedInput(f"arrow {a.name!r} has an endpoint outside the object list")
        identity = dict(identity)
        if set(identity) != obj_set:
            raise MalformedInput("identity table must cover exactly the objects")
        for obj, name in identity.items():
            if name not in by_name:
                raise MalformedInput(f"identity of {obj!r} names unknown arrow {name!r}")
        compose = dict(compose)
        try:
            # the target of each f against the source of its g, key by key
            composes = [by_name[f].tgt for _, f in compose] == [by_name[g].src for g, _ in compose]
        except KeyError:
            composes = None
        if composes is None or not all(map(by_name.__contains__, compose.values())):
            for (g, f), gf in compose.items():
                if g not in by_name or f not in by_name or gf not in by_name:
                    raise MalformedInput(f"compose entry ({g!r},{f!r})->{gf!r} names unknown arrows")
        self.objects = objects
        self.arrows = arrows
        self._names = names
        self.identity = identity
        self.compose = compose
        self._by_name = by_name
        self._identity_names = set(identity.values())
        hom: dict = {}
        into: dict = {}
        for a in arrows:
            hom.setdefault((a.src, a.tgt), []).append(a.name)
            into.setdefault(a.tgt, []).append(a)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        # object -> the arrows into it, in arrow order: the f with g o f defined
        self._into = {k: tuple(v) for k, v in into.items()}
        self._factorizations = None
        self._nonempty_homs = None
        # the keys are distinct, so when every key composes and there are as
        # many keys as composable pairs, the keys are the composable pairs
        pairs = sum(len(self._into.get(a.src, ())) for a in arrows)
        if not composes or pairs != len(compose):
            composable = set(self.composable_pairs())
            missing = composable.difference(compose)
            if missing:
                g, f = min(missing, key=repr)
                raise MalformedInput(f"compose: missing entry for composable pair ({g!r}, {f!r})")
            g, f = min(compose.keys() - composable, key=repr)
            raise MalformedInput(f"compose: pair ({g!r}, {f!r}) is not composable")

    # basic lookups

    def arrow(self, name) -> Arrow:
        return self._by_name[name]

    def has_arrow(self, name) -> bool:
        return name in self._by_name

    def src(self, name):
        return self._by_name[name].src

    def tgt(self, name):
        return self._by_name[name].tgt

    def hom(self, a, b) -> tuple:
        return self._hom.get((a, b), ())

    def nonempty_homs(self) -> tuple:
        """(cells, pairs), read off the nonempty hom-sets in one pass.

        cells lists each nonempty hom(a, b) as (i, j, names), with i and j
        the positions of a and b in objects; pairs is the frozenset of the
        (a, b) with a map a -> b.  Every other hom-set is empty, so work
        over all object pairs can skip them.  Read once and kept, since the
        category is immutable.
        """
        if self._nonempty_homs is None:
            index = {a: i for i, a in enumerate(self.objects)}
            cells = tuple([(index[a], index[b], names) for (a, b), names in self._hom.items()])
            self._nonempty_homs = cells, frozenset(self._hom)
        return self._nonempty_homs

    def is_identity(self, name) -> bool:
        return name in self._identity_names

    def arrow_names(self) -> tuple:
        return self._names

    def composable_pairs(self) -> Iterator[tuple]:
        """All (g, f) with tgt(f) = src(g), g then f in arrow order."""
        for g in self.arrows:
            for f in self._into.get(g.src, ()):
                yield g.name, f.name

    def factorizations(self) -> dict:
        """composite -> list of (first, second) with second o first = composite."""
        if self._factorizations is None:
            table: dict = {name: [] for name in self._by_name}
            for (outer, inner), composite in self.compose.items():
                table[composite].append((inner, outer))
            self._factorizations = table
        return self._factorizations

    def validate(self) -> ValidationReport:
        return validate_category(self)

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_category(c: FinCategory) -> ValidationReport:
    """Check the category laws, returning the first violation with witnesses.

    Composite endpoints are checked before associativity, so both sides of
    (h o g) o f = h o (g o f) lie in hom(src f, tgt h); a triple whose outer
    hom-set has one arrow cannot fail, and only the others are looked at.
    """
    for obj, name in c.identity.items():
        a = c.arrow(name)
        if a.src != obj or a.tgt != obj:
            return ValidationReport(False, "identity-endpoints", f"1_{obj!r} = {name!r}: {a.src!r} -> {a.tgt!r}")
    by_name = c._by_name
    for (g, f), gf in c.compose.items():
        composite = by_name[gf]
        if composite.src != by_name[f].src or composite.tgt != by_name[g].tgt:
            return ValidationReport(
                False, "composite-endpoints",
                f"compose({g!r}, {f!r}) = {gf!r} has endpoints {composite.src!r} -> {composite.tgt!r}",
            )
    for a in c.arrows:
        left = c.compose[(c.identity[a.tgt], a.name)]
        if left != a.name:
            return ValidationReport(False, "left-unit", f"1 o {a.name!r} = {left!r}")
        right = c.compose[(a.name, c.identity[a.src])]
        if right != a.name:
            return ValidationReport(False, "right-unit", f"{a.name!r} o 1 = {right!r}")
    # target -> the sources s with two or more arrows s -> target
    crowded: dict = {}
    for (s, t), names in c._hom.items():
        if len(names) > 1:
            crowded.setdefault(t, set()).add(s)
    if not crowded:
        return ValidationReport(True)
    compose, into = c.compose, c._into
    for h in c.arrows:
        sources = crowded.get(h.tgt)
        if sources is None:
            continue
        for g in into.get(h.src, ()):
            hg = compose[(h.name, g.name)]
            for f in into.get(g.src, ()):
                if f.src not in sources:
                    continue
                one = compose[(h.name, compose[(g.name, f.name)])]
                two = compose[(hg, f.name)]
                if one != two:
                    return ValidationReport(
                        False, "associativity",
                        f"h={h.name!r}, g={g.name!r}, f={f.name!r}: {one!r} != {two!r}",
                    )
    return ValidationReport(True)


def underlying_graph(c: FinCategory) -> DirectedGraph:
    """Vertices = objects, edges = all arrows (identities included)."""
    return DirectedGraph(c.objects, c.arrows)


def graphs_equal(g1: DirectedGraph, g2: DirectedGraph) -> bool:
    return set(g1.vertices) == set(g2.vertices) and set(g1.edges) == set(g2.edges)


def _thin_category(objects, leq, tag) -> FinCategory:
    """Category with one arrow (tag, a, b) for each pair a <= b, in the
    order of leq, a reflexive relation on the objects.

    Raises MalformedInput naming the first pair (a, b) of leq whose up-set
    misses some c >= b; otherwise compose, one entry per composable pair,
    is read off the up-sets.
    """
    up: dict = {a: [] for a in objects}
    for a, b in leq:
        up[a].append(b)
    up_set = {a: set(bs) for a, bs in up.items()}
    for a, b in leq:
        missing = up_set[b].difference(up_set[a])
        if missing:
            c = min(missing, key=repr)
            raise MalformedInput(f"transitivity fails at ({a!r},{b!r},{c!r})")
    arrows = [Arrow((tag, a, b), a, b) for a, b in leq]
    identity = {a: (tag, a, a) for a in objects}
    compose = {((tag, b, c), (tag, a, b)): (tag, a, c) for a, b in leq for c in up[b]}
    return FinCategory(objects, arrows, identity, compose)


def codiscrete_completion(c: FinCategory):
    """The codiscrete category on the same objects plus the canonical functor."""
    objects = c.objects
    cod = _thin_category(objects, [(a, b) for a in objects for b in objects], "co")
    functor = Functor(
        source=c,
        target=cod,
        object_map={a: a for a in objects},
        arrow_map={a.name: ("co", a.src, a.tgt) for a in c.arrows},
    )
    return cod, functor


def preorder_reflection(c: FinCategory):
    """Collapse each nonempty hom-set to a single arrow; canonical functor along."""
    objects = c.objects
    ref = _thin_category(objects, [(a, b) for a in objects for b in objects if c.hom(a, b)], "le")
    functor = Functor(
        source=c,
        target=ref,
        object_map={a: a for a in objects},
        arrow_map={a.name: ("le", a.src, a.tgt) for a in c.arrows},
    )
    return ref, functor


def poset_to_category(elements, relation: Iterable[tuple]) -> FinCategory:
    """Category of a finite partial order; relation pairs mean a <= b.

    Reflexive pairs may be omitted.  Raises MalformedInput unless the
    completed relation is transitive and antisymmetric, naming the first
    offending pair in repr order.
    """
    elements = tuple(elements)
    known = set(elements)
    leq = sorted(set((a, a) for a in elements) | set(relation), key=repr)
    for (a, b) in leq:
        if a not in known or b not in known:
            raise MalformedInput(f"relation pair ({a!r},{b!r}) uses unknown elements")
    pairs = set(leq)
    for (a, b) in leq:
        if a != b and (b, a) in pairs:
            raise MalformedInput(f"antisymmetry fails at ({a!r},{b!r})")
    return _thin_category(elements, leq, "le")


def monoid_to_category(elements, unit, table: dict) -> FinCategory:
    """One-object category of a finite monoid given by its multiplication table."""
    elements = tuple(elements)
    if unit not in elements:
        raise MalformedInput(f"unit {unit!r} is not an element")
    for x in elements:
        for y in elements:
            if (x, y) not in table:
                raise MalformedInput(f"multiplication table missing ({x!r},{y!r})")
            if table[(x, y)] not in elements:
                raise MalformedInput(f"table entry ({x!r},{y!r}) leaves the element set")
    for x in elements:
        if table[(unit, x)] != x or table[(x, unit)] != x:
            raise MalformedInput(f"unit law fails at {x!r}")
    for x in elements:
        for y in elements:
            for z in elements:
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    raise MalformedInput(f"associativity fails at ({x!r},{y!r},{z!r})")
    obj = "*"
    arrows = [Arrow(("el", x), obj, obj) for x in elements]
    identity = {obj: ("el", unit)}
    compose = {
        (("el", g), ("el", f)): ("el", table[(g, f)]) for g in elements for f in elements
    }
    return FinCategory((obj,), arrows, identity, compose)


def product(c: FinCategory, d: FinCategory) -> FinCategory:
    """Product category; objects and arrows are pairs, composition componentwise."""
    objects = [(a, b) for a in c.objects for b in d.objects]
    arrows = [Arrow((f.name, g.name), (f.src, g.src), (f.tgt, g.tgt)) for f in c.arrows for g in d.arrows]
    identity = {(a, b): (c.identity[a], d.identity[b]) for a in c.objects for b in d.objects}
    compose = {}
    for (g1, f1), h1 in c.compose.items():
        for (g2, f2), h2 in d.compose.items():
            compose[((g1, g2), (f1, f2))] = (h1, h2)
    return FinCategory(objects, arrows, identity, compose)


def coproduct(c: FinCategory, d: FinCategory) -> FinCategory:
    """Disjoint union, objects and arrows tagged L/R."""
    objects = [("L", a) for a in c.objects] + [("R", b) for b in d.objects]
    arrows = [Arrow(("L", a.name), ("L", a.src), ("L", a.tgt)) for a in c.arrows]
    arrows += [Arrow(("R", a.name), ("R", a.src), ("R", a.tgt)) for a in d.arrows]
    identity = {("L", o): ("L", c.identity[o]) for o in c.objects}
    identity.update({("R", o): ("R", d.identity[o]) for o in d.objects})
    compose = {(("L", g), ("L", f)): ("L", h) for (g, f), h in c.compose.items()}
    compose.update({(("R", g), ("R", f)): ("R", h) for (g, f), h in d.compose.items()})
    return FinCategory(objects, arrows, identity, compose)


def full_subcategory(c: FinCategory, objs) -> FinCategory:
    keep = set(objs)
    return subcategory(c, keep, [a.name for a in c.arrows if a.src in keep and a.tgt in keep])


def patch(c: FinCategory, a, b) -> FinCategory:
    """Full subcategory on the objects through which some map a -> z -> b passes."""
    return full_subcategory(c, patch_objects(c, a, b))


def patch_objects(c: FinCategory, a, b) -> tuple:
    if a not in set(c.objects) or b not in set(c.objects):
        raise UnknownObject(f"patch endpoints {a!r}, {b!r} must be objects")
    return tuple(z for z in c.objects if c.hom(a, z) and c.hom(z, b))


def subcategory(c: FinCategory, objs, arrow_names) -> FinCategory:
    """Subcategory on the given objects and arrows (assumed closed)."""
    keep = set(objs)
    objs = [o for o in c.objects if o in keep]
    names = set(arrow_names)
    arrows = [a for a in c.arrows if a.name in names]
    identity = {o: c.identity[o] for o in objs}
    compose = {k: v for k, v in c.compose.items() if k[0] in names and k[1] in names}
    return FinCategory(objs, arrows, identity, compose)


def iso_witnesses(c: FinCategory):
    """All (f, g) with g o f and f o g identities."""
    out = []
    for f in c.arrows:
        for g_name in c.hom(f.tgt, f.src):
            if (
                c.compose[(g_name, f.name)] == c.identity[f.src]
                and c.compose[(f.name, g_name)] == c.identity[f.tgt]
            ):
                out.append((f.name, g_name))
    return out


def is_skeletal(c: FinCategory) -> bool:
    """No isomorphisms between distinct objects."""
    for f_name, _ in iso_witnesses(c):
        f = c.arrow(f_name)
        if f.src != f.tgt:
            return False
    return True


class EndomorphismReport(Frozen):
    __slots__ = ("nontrivial_isos", "nontrivial_idempotents", "nontrivial_endos")

    def __init__(self, nontrivial_isos: tuple, nontrivial_idempotents: tuple, nontrivial_endos: tuple):
        object.__setattr__(self, "nontrivial_isos", nontrivial_isos)
        object.__setattr__(self, "nontrivial_idempotents", nontrivial_idempotents)
        object.__setattr__(self, "nontrivial_endos", nontrivial_endos)

    @property
    def mobius(self) -> bool:
        """No isomorphism or idempotent but the identities (is_mobius_category)."""
        return not self.nontrivial_isos and not self.nontrivial_idempotents


def endomorphism_report(c: FinCategory) -> EndomorphismReport:
    """Brute-force search for non-identity isos, idempotents and endos."""
    isos = tuple(
        f for f, _ in iso_witnesses(c) if not c.is_identity(f)
    )
    idempotents = tuple(
        a.name
        for a in c.arrows
        if a.src == a.tgt and not c.is_identity(a.name) and c.compose[(a.name, a.name)] == a.name
    )
    endos = tuple(a.name for a in c.arrows if a.src == a.tgt and not c.is_identity(a.name))
    return EndomorphismReport(isos, idempotents, endos)


def is_mobius_category(c: FinCategory) -> bool:
    """Every isomorphism and idempotent is an identity.

    For a finite category this is being skeletal with no nontrivial
    endomorphism: some power of an endomorphism e is idempotent, so an
    identity, and then e is an isomorphism.  Maps f: a -> b and g: b -> a
    make g o f and f o g identities, so f is an isomorphism and a = b: the
    hom-count matrix is unitriangular along a linear extension.
    """
    return endomorphism_report(c).mobius


def enumerate_subcategories(c: FinCategory, max_count: int = 100000) -> Iterator[FinCategory]:
    """All nonempty subcategories: object subsets plus arrow subsets that
    contain the identities of the chosen objects, stay within them, and are
    closed under composition.  The empty subcategory is excluded.
    """
    count = 0
    objs = list(c.objects)
    for obj_mask in range(1, 1 << len(objs)):
        chosen = [o for i, o in enumerate(objs) if obj_mask >> i & 1]
        chosen_set = set(chosen)
        required = {c.identity[o] for o in chosen}
        optional = [
            a.name
            for a in c.arrows
            if a.src in chosen_set and a.tgt in chosen_set and a.name not in required
        ]
        for arr_mask in range(1 << len(optional)):
            names = set(required)
            names.update(n for i, n in enumerate(optional) if arr_mask >> i & 1)
            closed = True
            for g in names:
                for f in names:
                    if c.tgt(f) == c.src(g) and c.compose[(g, f)] not in names:
                        closed = False
                        break
                if not closed:
                    break
            if not closed:
                continue
            count += 1
            if count > max_count:
                raise BudgetExceeded(f"more than {max_count} subcategories")
            yield subcategory(c, chosen, names)


class Functor(Record):
    """Functor between finite categories as explicit object and arrow tables."""

    __slots__ = ("source", "target", "object_map", "arrow_map")

    def __init__(self, source: FinCategory, target: FinCategory, object_map: dict, arrow_map: dict):
        self.source = source
        self.target = target
        self.object_map = object_map
        self.arrow_map = arrow_map

    def validate(self) -> ValidationReport:
        for o in self.source.objects:
            if o not in self.object_map:
                return ValidationReport(False, "object-map-totality", repr(o))
            if self.object_map[o] not in set(self.target.objects):
                return ValidationReport(False, "object-map-range", repr(o))
        for a in self.source.arrows:
            if a.name not in self.arrow_map:
                return ValidationReport(False, "arrow-map-totality", repr(a.name))
            image = self.arrow_map[a.name]
            if not self.target.has_arrow(image):
                return ValidationReport(False, "arrow-map-range", repr(a.name))
            img = self.target.arrow(image)
            if img.src != self.object_map[a.src] or img.tgt != self.object_map[a.tgt]:
                return ValidationReport(
                    False, "endpoint-preservation", f"{a.name!r} -> {image!r}"
                )
        for o in self.source.objects:
            if self.arrow_map[self.source.identity[o]] != self.target.identity[self.object_map[o]]:
                return ValidationReport(False, "identity-preservation", repr(o))
        for (g, f), gf in self.source.compose.items():
            composed = self.target.compose[(self.arrow_map[g], self.arrow_map[f])]
            if composed != self.arrow_map[gf]:
                return ValidationReport(
                    False, "composition-preservation", f"({g!r}, {f!r})"
                )
        return ValidationReport(True)


def identity_functor(c: FinCategory) -> Functor:
    return Functor(c, c, {o: o for o in c.objects}, {a.name: a.name for a in c.arrows})


def compose_functors(outer: Functor, inner: Functor) -> Functor:
    if outer.source is not inner.target and not categories_equal(outer.source, inner.target):
        raise MalformedInput("functors are not composable")
    return Functor(
        inner.source,
        outer.target,
        {o: outer.object_map[inner.object_map[o]] for o in inner.source.objects},
        {a.name: outer.arrow_map[inner.arrow_map[a.name]] for a in inner.source.arrows},
    )


def categories_equal(c: FinCategory, d: FinCategory) -> bool:
    """Strict equality of the presenting data (names included)."""
    return (
        set(c.objects) == set(d.objects)
        and set(c.arrows) == set(d.arrows)
        and c.identity == d.identity
        and c.compose == d.compose
    )
