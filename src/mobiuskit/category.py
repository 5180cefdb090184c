"""Finite categories as explicit data, with validation and standard constructions.

A category keeps its objects and arrows at positions 0..m-1 and 0..n-1.
Each arrow has the positions of its source and target objects, each
object the position of its identity, and the composition table is three
int lists in table order, (g, f, g after f) for every pair with
tgt(f) = src(g), with one int-keyed lookup g*n + f -> g after f.  The
names live in one tuple and appear only in reports, messages and
witnesses; arrows, compose (the table keyed by arrow-name pairs) and
factorizations() are name views of the same lists.

Construction refuses a table that misses a composable pair or has an
entry for a pair that does not compose; validate_category then reports
the first violated law: identity endpoints, composite endpoints, units or
associativity.  Associativity is checked only on the triples whose outer
hom-set hom(src f, tgt h) has two or more arrows: once the composite
endpoints hold, both sides of the law lie in that hom-set, so with one
arrow there they agree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product as cartesian, repeat, starmap
from operator import add, attrgetter, itemgetter, mul
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

    The arrows (Arrow or (name, src, tgt) tuples) and the table
    {(g, f): g after f} of arrow names given here are mapped to positions
    and not kept: arrows and compose, like the other name views, are
    built from the positions on first read, as for a loaded category
    (fileio.load_category).
    """

    def __init__(self, objects, arrows, identity, compose):
        fields = [attrgetter("name", "src", "tgt")(a if isinstance(a, Arrow) else Arrow(*a)) for a in arrows]
        compose = dict(compose)
        self._structure(objects, fields, identity, list(map(add, compose, zip(compose.values()))))

    @classmethod
    def _from_entries(cls, objects, fields, identity, entries):
        """The category of (name, src, tgt) arrow fields and a table of
        [g, f, gf] name triples, in table order, as a file lists them.  A
        pair given twice is refused with a MalformedInput that does not
        name it."""
        c = cls.__new__(cls)
        c._structure(objects, fields, identity, entries)
        return c

    def _structure(self, objects, fields, identity, entries):
        """Map the names to positions once, check the structure and keep
        the index tables.

        Each check compares whole int lists at C level; only a check that
        fails walks the names, to word the first fault as the messages
        always have.  The map of the table's names raises KeyError at a
        name that is no arrow's.  With every table key g*n + f, the table
        is defined on exactly the composable pairs when its sorted keys
        are those of the composable pairs.
        """
        objects = tuple(objects)
        where = dict(zip(objects, range(len(objects))))
        if len(where) != len(objects):
            raise MalformedInput("duplicate object identifiers")
        names = tuple(map(itemgetter(0), fields))
        n = len(names)
        index = dict(zip(names, range(n)))
        if len(index) != n:
            raise MalformedInput("duplicate arrow names")
        try:
            src = list(map(where.__getitem__, map(itemgetter(1), fields)))
            tgt = list(map(where.__getitem__, map(itemgetter(2), fields)))
        except KeyError:
            for name, a, b in fields:
                if a not in where or b not in where:
                    raise MalformedInput(f"arrow {name!r} has an endpoint outside the object list") from None
        identity = dict(identity)
        if identity.keys() != where.keys():
            raise MalformedInput("identity table must cover exactly the objects")
        try:
            ids = list(map(index.__getitem__, map(identity.__getitem__, objects)))
        except KeyError:
            for obj, name in identity.items():
                if name not in index:
                    raise MalformedInput(f"identity of {obj!r} names unknown arrow {name!r}") from None
        try:
            flat = list(map(index.__getitem__, chain.from_iterable(entries)))
        except KeyError:
            for g, f, gf in entries:
                if g not in index or f not in index or gf not in index:
                    raise MalformedInput(f"compose entry ({g!r},{f!r})->{gf!r} names unknown arrows") from None
        outer, inner = flat[0::3], flat[1::3]
        # object position -> the arrows into it, in arrow order: the f with g o f defined
        into = [[] for _ in objects]
        for a, t in enumerate(tgt):
            into[t].append(a)
        composable = [g * n + f for g, a in enumerate(src) for f in into[a]]
        keys = sorted(map(add, map(mul, outer, repeat(n)), inner))
        if keys != composable:
            def first(pairs):  # the first of a set of keys by the repr of its names
                g, f = min([(names[g], names[f]) for g, f in map(divmod, pairs, repeat(n))], key=repr)
                return f"({g!r}, {f!r})"

            if missing := set(composable).difference(keys):
                raise MalformedInput(f"compose: missing entry for composable pair {first(missing)}")
            if extra := set(keys).difference(composable):
                raise MalformedInput(f"compose: pair {first(extra)} is not composable")
            raise MalformedInput("compose: a pair has two entries")
        self.objects, self.identity, self._identity_names = objects, identity, set(identity.values())
        self._names, self._index, self._where = names, index, where
        # arrow position -> source, target; object position -> identity
        self._src, self._tgt, self._ids, self._into = src, tgt, ids, into
        # the table, entry by entry: g, f and g o f
        self._outer, self._inner, self._composite = outer, inner, flat[2::3]

    # name views and tables built on first read

    @cached_property
    def arrows(self) -> tuple:
        """The arrows, in arrow order, as Arrow(name, src, tgt)."""
        objects = self.objects.__getitem__
        return tuple(map(Arrow, self._names, map(objects, self._src), map(objects, self._tgt)))

    @cached_property
    def compose(self) -> dict:
        """The composition table {(g, f): g after f} by arrow names, in table order."""
        names = self._names.__getitem__
        return dict(zip(zip(map(names, self._outer), map(names, self._inner)), map(names, self._composite)))

    @cached_property
    def _table(self) -> dict:
        """The composition table by positions, g*n + f -> g after f."""
        n = len(self._names)
        return dict(zip(map(add, map(mul, self._outer, repeat(n)), self._inner), self._composite))

    @cached_property
    def _hom(self) -> dict:
        """(i, j) -> the names of the arrows from objects[i] to objects[j],
        in arrow order, for each nonempty hom-set."""
        hom: dict = {}
        for name, key in zip(self._names, zip(self._src, self._tgt)):
            hom.setdefault(key, []).append(name)
        return {key: tuple(names) for key, names in hom.items()}

    @cached_property
    def _nonempty_homs(self) -> tuple:
        objects = self.objects
        cells = tuple([(i, j, names) for (i, j), names in self._hom.items()])
        return cells, frozenset([(objects[i], objects[j]) for i, j, _ in cells])

    @cached_property
    def _factorizations(self) -> dict:
        names = self._names
        pairs = [[] for _ in names]
        for g, f, gf in zip(self._outer, self._inner, self._composite):
            pairs[gf].append((names[f], names[g]))
        return dict(zip(names, pairs))

    # basic lookups

    def arrow(self, name) -> Arrow:
        return self.arrows[self._index[name]]

    def has_arrow(self, name) -> bool:
        return name in self._index

    def src(self, name):
        return self.arrow(name).src

    def tgt(self, name):
        return self.arrow(name).tgt

    def hom(self, a, b) -> tuple:
        return self._hom.get((self._where.get(a), self._where.get(b)), ())

    def nonempty_homs(self) -> tuple:
        """(cells, pairs), read off the nonempty hom-sets in one pass.

        cells lists each nonempty hom(a, b) as (i, j, names), with i and j
        the positions of a and b in objects; pairs is the frozenset of the
        (a, b) with a map a -> b.  Every other hom-set is empty, so work
        over all object pairs can skip them.  Built on first read and kept,
        since the category is immutable.
        """
        return self._nonempty_homs

    def is_identity(self, name) -> bool:
        return name in self._identity_names

    def arrow_names(self) -> tuple:
        return self._names

    def factorizations(self) -> dict:
        """composite -> list of (first, second) with second o first = composite,
        by arrow names: the composites in arrow order, each list in table order."""
        return self._factorizations

    def validate(self) -> ValidationReport:
        return validate_category(self)

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {len(self._names)} arrows)"


def validate_category(c: FinCategory) -> ValidationReport:
    """Check the category laws, returning the first violation with witnesses.

    Every check and witness reads positions, so none builds the arrows
    view.  The identity endpoints are checked object by object; the
    composite endpoints and unit laws are list comparisons, and only a
    law that fails walks the table, in the order the witness has always
    been named in.  Composite endpoints are checked before
    associativity, so both sides of (h o g) o f = h o (g o f) lie in
    hom(src f, tgt h); a triple whose outer hom-set has one arrow cannot
    fail, and only the others are looked at.
    """
    objects, names, src, tgt, ids = c.objects, c._names, c._src, c._tgt, c._ids
    n = len(names)
    for obj, name in c.identity.items():
        a, i = c._index[name], c._where[obj]
        if src[a] != i or tgt[a] != i:
            return ValidationReport(
                False, "identity-endpoints", f"1_{obj!r} = {name!r}: {objects[src[a]]!r} -> {objects[tgt[a]]!r}"
            )
    outer, inner, composite = c._outer, c._inner, c._composite
    if (
        list(map(src.__getitem__, composite)) != list(map(src.__getitem__, inner))
        or list(map(tgt.__getitem__, composite)) != list(map(tgt.__getitem__, outer))
    ):
        for g, f, gf in zip(outer, inner, composite):
            if src[gf] != src[f] or tgt[gf] != tgt[g]:
                return ValidationReport(
                    False, "composite-endpoints",
                    f"compose({names[g]!r}, {names[f]!r}) = {names[gf]!r} has endpoints "
                    f"{objects[src[gf]]!r} -> {objects[tgt[gf]]!r}",
                )
    # 1_tgt(a) o a and a o 1_src(a), at the keys id*n + a and a*n + id
    table = c._table
    every_arrow = list(range(n))
    left = list(map(table.__getitem__, map(add, map(mul, map(ids.__getitem__, tgt), repeat(n)), every_arrow)))
    right = list(map(table.__getitem__, map(add, range(0, n * n, n or 1), map(ids.__getitem__, src))))
    if left != every_arrow or right != every_arrow:
        for a in every_arrow:
            if left[a] != a:
                return ValidationReport(False, "left-unit", f"1 o {names[a]!r} = {names[left[a]]!r}")
            if right[a] != a:
                return ValidationReport(False, "right-unit", f"{names[a]!r} o 1 = {names[right[a]]!r}")
    # target -> the sources s with two or more arrows s -> target
    crowded: dict = {}
    for (s, t), hom in c._hom.items():
        if len(hom) > 1:
            crowded.setdefault(t, set()).add(s)
    if not crowded:
        return ValidationReport(True)
    into = c._into
    for h in every_arrow:
        sources = crowded.get(tgt[h])
        if sources is None:
            continue
        for g in into[src[h]]:
            hg = table[h * n + g]
            for f in into[src[g]]:
                if src[f] not in sources:
                    continue
                one = table[h * n + table[g * n + f]]
                two = table[hg * n + f]
                if one != two:
                    return ValidationReport(
                        False, "associativity",
                        f"h={names[h]!r}, g={names[g]!r}, f={names[f]!r}: {names[one]!r} != {names[two]!r}",
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


def _thin_image(c: FinCategory, leq, tag):
    """The thin category on c's objects with one arrow (tag, a, b) for each
    pair of leq, and the functor from c sending each arrow a -> b to it."""
    thin = _thin_category(c.objects, leq, tag)
    return thin, Functor(c, thin, {a: a for a in c.objects}, {a.name: (tag, a.src, a.tgt) for a in c.arrows})


def codiscrete_completion(c: FinCategory):
    """The codiscrete category on the same objects plus the canonical functor."""
    return _thin_image(c, [(a, b) for a in c.objects for b in c.objects], "co")


def preorder_reflection(c: FinCategory):
    """Collapse each nonempty hom-set to a single arrow; canonical functor along."""
    return _thin_image(c, [(a, b) for a in c.objects for b in c.objects if c.hom(a, b)], "le")


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


def _entries(c: FinCategory):
    """c's table as (g, f, g after f) name triples, in table order."""
    names = c._names.__getitem__
    return zip(map(names, c._outer), map(names, c._inner), map(names, c._composite))


def _paired(c: FinCategory, d: FinCategory, objects, arrows, entries) -> FinCategory:
    """The category of the pairs given over c and d, each in the order given:
    object pairs (x, y) with identity (1_x, 1_y), Arrow pairs (p, q) named
    (p.name, q.name) from (p.src, q.src) to (p.tgt, q.tgt), and pairs of
    (g, f, g o f) table entries, composed componentwise."""
    objects = list(objects)
    fields = [((p.name, q.name), (p.src, q.src), (p.tgt, q.tgt)) for p, q in arrows]
    identity = {(x, y): (c.identity[x], d.identity[y]) for x, y in objects}
    return FinCategory._from_entries(objects, fields, identity, list(map(tuple, starmap(zip, entries))))


def product(c: FinCategory, d: FinCategory) -> FinCategory:
    """Product category: every pair of objects, arrows and table entries, c-major."""
    pairs = cartesian(c.objects, d.objects), cartesian(c.arrows, d.arrows), cartesian(_entries(c), _entries(d))
    return _paired(c, d, *pairs)


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
    return all(c.src(f) == c.tgt(f) for f, _ in iso_witnesses(c))


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
    isos = tuple(f for f, _ in iso_witnesses(c) if not c.is_identity(f))
    endos = tuple(a.name for a in c.arrows if a.src == a.tgt and not c.is_identity(a.name))
    idempotents = tuple(e for e in endos if c.compose[(e, e)] == e)
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
            if any(c.tgt(f) == c.src(g) and c.compose[(g, f)] not in names for g in names for f in names):
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
            if self.object_map[o] not in self.target._where:
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
