"""Finite categories as explicit data, with validation and standard constructions.

A category keeps its objects and arrows at positions 0..m-1 and 0..n-1.
Each arrow has the positions of its source and target objects, each
object the position of its identity, and the composition table is three
int lists in table order, (g, f, g after f) for every pair with
tgt(f) = src(g), with one int-keyed lookup g*n + f -> g after f.  The
names live in one tuple and appear only in reports, messages and
witnesses; arrows, compose (the table keyed by arrow-name pairs) and
factorizations() are name views of the same lists.  The constructions,
functor checks and classifier are arithmetic on these lists.

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
from itertools import chain, compress, product as cartesian, repeat
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
        # built as a loaded category is; this instance takes its tables
        entries = list(map(add, compose, zip(compose.values())))
        vars(self).update(vars(self._from_entries(objects, fields, identity, entries)))

    @classmethod
    def _from_entries(cls, objects, fields, identity, entries, keys=None, name_of=lambda name: name):
        """The category of (name, src, tgt) arrow fields and (g, f, gf) table
        entries in table order, as a file lists them; the identity table and
        the entries give arrows by name, or by key when keys lists one per
        arrow, named by name_of(key) in messages.  Each map to positions runs
        at C level, and only one that fails walks the names to word the first
        fault as always; a pair given twice is refused without its name."""
        objects = tuple(objects)
        where = dict(zip(objects, range(len(objects))))
        if len(where) != len(objects):
            raise MalformedInput("duplicate object identifiers")
        names = tuple(map(itemgetter(0), fields))
        index = dict(zip(names if keys is None else keys, range(len(names))))
        if len(index) != len(names):
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
            for obj, key in identity.items():
                if key not in index:
                    raise MalformedInput(f"identity of {obj!r} names unknown arrow {name_of(key)!r}") from None
        try:
            flat = list(map(index.__getitem__, chain.from_iterable(entries)))
        except KeyError:
            for g, f, gf in entries:
                if g not in index or f not in index or gf not in index:
                    g, f, gf = map(name_of, (g, f, gf))
                    raise MalformedInput(f"compose entry ({g!r},{f!r})->{gf!r} names unknown arrows") from None
        if keys is not None:  # index and identity are by keys: the constructor builds them by names
            index = identity = None
        return cls._from_positions(objects, names, src, tgt, ids, flat[0::3], flat[1::3], flat[2::3],
                                   where, index, identity)

    @classmethod
    def _from_positions(cls, objects, names, src, tgt, ids, outer, inner, composite,
                        where=None, index=None, identity=None):  # name dicts the caller has built
        """The constructor from position tables, name tuples and int lists.
        With every table key g*n + f, the table is defined on exactly the
        composable pairs when its sorted keys are those of the composable
        pairs; only a table that is not walks the names, to word the fault."""
        n = len(names)
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
        c = cls.__new__(cls)
        c.objects, c._names, c.identity = objects, names, identity or dict(zip(objects, map(names.__getitem__, ids)))
        c._where, c._index = where or dict(zip(objects, range(len(objects)))), index or dict(zip(names, range(n)))
        # arrow position -> source, target; object position -> identity
        c._src, c._tgt, c._ids, c._into, c._identities = src, tgt, ids, into, frozenset(ids)
        # the table, entry by entry: g, f and g o f
        c._outer, c._inner, c._composite = outer, inner, composite
        return c

    # name views, lookups and tables built on first read

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
        return self.objects[self._src[self._index[name]]]

    def tgt(self, name):
        return self.objects[self._tgt[self._index[name]]]

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
        return self._index.get(name) in self._identities

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
    view.  The composite endpoints and unit laws are list comparisons, and
    only a law that fails walks the table, in the order the witness has
    always been named in; once the identity endpoints hold, the entries
    1 o f and g o 1 are those with an identity on one side.  Composite
    endpoints are checked before associativity, so both sides of
    (h o g) o f = h o (g o f) lie in hom(src f, tgt h); a triple whose outer
    hom-set has one arrow cannot fail, and the table by keys is built only
    for the others.
    """
    objects, names, src, tgt = c.objects, c._names, c._src, c._tgt
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
    # a -> 1_tgt(a) o a and a -> a o 1_src(a)
    left, right = list(map(c._identities.__contains__, outer)), list(map(c._identities.__contains__, inner))
    left = dict(zip(compress(inner, left), compress(composite, left)))
    right = dict(zip(compress(outer, right), compress(composite, right)))
    if list(left) != list(left.values()) or list(right) != list(right.values()):
        for a in range(n):
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
    table, into = c._table, c._into
    for h in range(n):
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
    misses some c >= b; otherwise the table, one entry per composable
    pair, is read off the up-sets, with the pairs of leq as arrow keys.
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
    fields = [((tag, a, b), a, b) for a, b in leq]
    entries = [((b, c), (a, b), (a, c)) for a, b in leq for c in up[b]]
    identity = {a: (a, a) for a in objects}
    return FinCategory._from_entries(objects, fields, identity, entries, leq, lambda pair: (tag, *pair))


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
    """One-object category of a finite monoid given by its multiplication
    table: the arrow ("el", x) is keyed by the element x."""
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
    fields = [(("el", x), obj, obj) for x in elements]
    entries = [(g, f, table[(g, f)]) for g in elements for f in elements]
    return FinCategory._from_entries((obj,), fields, {obj: unit}, entries, elements)


def _pairs(xs: list, ys: list, base: int) -> list:
    """x*base + y for each x of xs and y of ys, xs-major: the product's position of each pair."""
    return list(map(add, chain.from_iterable(map(repeat, map(mul, xs, repeat(base)), repeat(len(ys)))), ys * len(xs)))


def product(c: FinCategory, d: FinCategory) -> FinCategory:
    """Product category: every pair of objects, arrows and table entries,
    c-major, so the pair (p, q) lies at p*|d| + q.  The identity of (x, y)
    is (1_x, 1_y), and pairs of entries compose componentwise."""
    m, n = len(d.objects), len(d._names)
    return FinCategory._from_positions(
        tuple(cartesian(c.objects, d.objects)), tuple(cartesian(c._names, d._names)),
        _pairs(c._src, d._src, m), _pairs(c._tgt, d._tgt, m), _pairs(c._ids, d._ids, n),
        _pairs(c._outer, d._outer, n), _pairs(c._inner, d._inner, n), _pairs(c._composite, d._composite, n),
    )


def coproduct(c: FinCategory, d: FinCategory) -> FinCategory:
    """Disjoint union, objects and arrows tagged L/R: c's tables, then d's
    shifted past c's objects and arrows."""
    m, n = len(c.objects), len(c._names)
    return FinCategory._from_positions(
        tuple(zip(repeat("L"), c.objects)) + tuple(zip(repeat("R"), d.objects)),
        tuple(zip(repeat("L"), c._names)) + tuple(zip(repeat("R"), d._names)),
        c._src + [s + m for s in d._src], c._tgt + [t + m for t in d._tgt], c._ids + [a + n for a in d._ids],
        c._outer + [g + n for g in d._outer], c._inner + [f + n for f in d._inner],
        c._composite + [gf + n for gf in d._composite],
    )


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
    """Subcategory on the given objects and arrows, with c's table between
    the arrows, all in c's order.  The arrows are keyed by their positions
    in c, and a set that is not closed is refused as FinCategory refuses it."""
    keep, names, objects = set(objs), set(arrow_names), c.objects
    kept = list(map(names.__contains__, c._names))
    fields = [(name, objects[s], objects[t]) for name, s, t in compress(zip(c._names, c._src, c._tgt), kept)]
    entries = [e for e in zip(c._outer, c._inner, c._composite) if kept[e[0]] and kept[e[1]]]
    identity = {o: a for o, a in zip(objects, c._ids) if o in keep}
    keys = list(compress(range(len(kept)), kept))
    return FinCategory._from_entries(list(identity), fields, identity, entries, keys, c._names.__getitem__)


def iso_witnesses(c: FinCategory):
    """All (f, g) with g o f and f o g identities, in arrow order."""
    ids, src, names = c._ids, c._src, c._names
    # (g, f) with g o f = 1_src(f)
    units = {(g, f) for g, f, gf in zip(c._outer, c._inner, c._composite) if gf == ids[src[f]]}
    return [(names[f], names[g]) for f, g in sorted(units) if (g, f) in units]


def is_skeletal(c: FinCategory) -> bool:
    """No isomorphisms between distinct objects."""
    return _skeletal(endomorphism_report(c))


def _skeletal(report: "EndomorphismReport") -> bool:
    """is_skeletal, read off an endomorphism report: an iso between distinct objects is no endo."""
    return set(report.nontrivial_isos) <= set(report.nontrivial_endos)


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
    """Brute-force search for non-identity isos, idempotents and endos; the
    idempotents are the endos e with a table entry (e, e, e)."""
    isos = tuple(f for f, _ in iso_witnesses(c) if not c.is_identity(f))
    endos = tuple(name for name, s, t in zip(c._names, c._src, c._tgt) if s == t and not c.is_identity(name))
    idempotent = {c._names[g] for g, f, gf in zip(c._outer, c._inner, c._composite) if g == f == gf}
    return EndomorphismReport(isos, tuple(e for e in endos if e in idempotent), endos)


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
    src, tgt, table, n = c._src, c._tgt, c._table, len(c._names)
    for obj_mask in range(1, 1 << len(c.objects)):
        chosen = [i for i in range(len(c.objects)) if obj_mask >> i & 1]
        required = {c._ids[i] for i in chosen}
        optional = [a for a in range(n) if obj_mask >> src[a] & obj_mask >> tgt[a] & 1 and a not in required]
        for arr_mask in range(1 << len(optional)):
            arrows = required.union(a for i, a in enumerate(optional) if arr_mask >> i & 1)
            if any(tgt[f] == src[g] and table[g * n + f] not in arrows for g in arrows for f in arrows):
                continue
            count += 1
            if count > max_count:
                raise BudgetExceeded(f"more than {max_count} subcategories")
            yield subcategory(c, map(c.objects.__getitem__, chosen), map(c._names.__getitem__, arrows))


class Functor(Record):
    """Functor between finite categories as explicit object and arrow tables."""

    __slots__ = ("source", "target", "object_map", "arrow_map")

    def __init__(self, source: FinCategory, target: FinCategory, object_map: dict, arrow_map: dict):
        self.source = source
        self.target = target
        self.object_map = object_map
        self.arrow_map = arrow_map

    def _images(self) -> list:
        """The target position of each source arrow's image, in arrow order."""
        return list(map(self.target._index.__getitem__, map(self.arrow_map.__getitem__, self.source._names)))

    def validate(self) -> ValidationReport:
        """Check the functor laws, returning the first violation with its
        witness; the images are walked by their positions in the target."""
        source, target, object_map, arrow_map = self.source, self.target, self.object_map, self.arrow_map
        for o in source.objects:
            if o not in object_map:
                return ValidationReport(False, "object-map-totality", repr(o))
            if object_map[o] not in target._where:
                return ValidationReport(False, "object-map-range", repr(o))
        objects = list(map(target._where.__getitem__, map(object_map.__getitem__, source.objects)))
        arrows = []
        for name, s, t in zip(source._names, source._src, source._tgt):
            if name not in arrow_map:
                return ValidationReport(False, "arrow-map-totality", repr(name))
            if not target.has_arrow(arrow_map[name]):
                return ValidationReport(False, "arrow-map-range", repr(name))
            arrows.append(target._index[arrow_map[name]])
            if target._src[arrows[-1]] != objects[s] or target._tgt[arrows[-1]] != objects[t]:
                return ValidationReport(False, "endpoint-preservation", f"{name!r} -> {arrow_map[name]!r}")
        for o, i, a in zip(source.objects, objects, source._ids):
            if arrows[a] != target._ids[i]:
                return ValidationReport(False, "identity-preservation", repr(o))
        n, names, table = len(target._names), source._names, target._table
        for g, f, gf in zip(source._outer, source._inner, source._composite):
            if table[arrows[g] * n + arrows[f]] != arrows[gf]:
                return ValidationReport(False, "composition-preservation", f"({names[g]!r}, {names[f]!r})")
        return ValidationReport(True)


def identity_functor(c: FinCategory) -> Functor:
    return Functor(c, c, {o: o for o in c.objects}, dict(zip(c._names, c._names)))


def compose_functors(outer: Functor, inner: Functor) -> Functor:
    if outer.source is not inner.target and not categories_equal(outer.source, inner.target):
        raise MalformedInput("functors are not composable")
    return Functor(
        inner.source,
        outer.target,
        {o: outer.object_map[inner.object_map[o]] for o in inner.source.objects},
        {name: outer.arrow_map[inner.arrow_map[name]] for name in inner.source._names},
    )


def categories_equal(c: FinCategory, d: FinCategory) -> bool:
    """Strict equality of the presenting data (names included)."""
    return (
        set(c.objects) == set(d.objects)
        and set(c.arrows) == set(d.arrows)
        and c.identity == d.identity
        and c.compose == d.compose
    )
