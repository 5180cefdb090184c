"""Theorem checkers and brute-force oracles, each a second way to compute
or confirm something a mobiuskit function computes.

- lemma_identity_check: the paper's determinant and adjugate identities
  for matrixrig.det_halves and adj_halves;
- mobius_by_subcategories: the exhaustive cross-check of
  category.is_mobius_category (fine inversion on every subcategory);
- ulf_via_pullback_squares: unique lifting of factorizations by the two
  pullback squares of the free path construction, beside
  functoriality.is_ulf;
- pushforward_is_homomorphism, pullback_is_homomorphism: the definitional
  checks of the maps functoriality.pushforward and pullback_transform;
- classical_mobius: the number-theoretic Mobius function by trial
  division, for the divisibility family;
- check_multiplicativity: that a size assignment of mobiuskit.enriched is
  a monoid homomorphism on sampled hom-descriptors;
- product_by_names, coproduct_by_names, subcategory_by_names,
  full_subcategory_by_names, thin_category_by_names,
  monoid_to_category_by_names and category_pullback_by_names: the
  constructions of mobiuskit.category and functoriality built from arrow
  names and name-keyed tables, mapped to positions by the FinCategory
  constructor, beside the library's arithmetic on position tables;
- subcategories_by_names: category.enumerate_subcategories, closing
  each arrow set by the name-keyed table;
- validate_functor_by_names, is_ulf_by_names, fibre_sizes_by_names,
  iso_witnesses_by_names and endomorphism_report_by_names: the functor
  checks and the classifier's searches through the name views;
- categories_equal_by_names: category.categories_equal by sets and dicts
  of names;
- fine_convolve_by_names, sigma_to_coarse_by_names, pushforward_by_names,
  pullback_transform_by_names and validate_adjunction_by_names: the fine
  level, the functor transforms and the adjunction check through
  factorizations(), the hom-set name lists, arrow_map and compose, beside
  the library's walks on arrow positions.
"""

from itertools import product as cartesian

from mobiuskit._record import Frozen
from mobiuskit.category import Arrow, FinCategory, Functor, ValidationReport, categories_equal, enumerate_subcategories
from mobiuskit.enriched import SizeAssignment
from mobiuskit.errors import BudgetExceeded, MalformedInput, NotInvertible, RigMismatch
from mobiuskit.functoriality import pullback_transform, pushforward
from mobiuskit.incidence import CoarseElement, FineElement, fine_basis, fine_convolve, fine_delta, fine_mobius
from mobiuskit.matrixrig import RigMatrix, adj_halves, det_halves
from mobiuskit.rigs import INT, Rig


class LemmaIdentityReport(Frozen):
    __slots__ = ("det_identity_holds", "adjugate_identity_holds")

    def __init__(self, det_identity_holds: bool, adjugate_identity_holds: bool):
        object.__setattr__(self, "det_identity_holds", det_identity_holds)
        object.__setattr__(self, "adjugate_identity_holds", adjugate_identity_holds)

    @property
    def ok(self) -> bool:
        return self.det_identity_holds and self.adjugate_identity_holds


# three determinant expansions and one adjugate expansion, each over all n! permutations
MAX_LEMMA_DIM = 5


def lemma_identity_check(x: RigMatrix, y: RigMatrix) -> LemmaIdentityReport:
    """Verify both subtraction-free determinant/adjugate identities exactly.

    det+X det+Y + det-X det-Y + det-(XY) = det+X det-Y + det-X det+Y + det+(XY)
    and X adj+X + (det-X) I = X adj-X + (det+X) I.
    """
    x._check_compatible(y)
    if x.n > MAX_LEMMA_DIM:
        raise BudgetExceeded(f"identity check limited to n <= {MAX_LEMMA_DIM}")
    rig = x.rig
    dpx, dmx = det_halves(x)
    dpy, dmy = det_halves(y)
    dpxy, dmxy = det_halves(x.mul(y))
    lhs = rig.sum([rig.mul(dpx, dpy), rig.mul(dmx, dmy), dmxy])
    rhs = rig.sum([rig.mul(dpx, dmy), rig.mul(dmx, dpy), dpxy])
    det_ok = rig.eq(lhs, rhs)

    ap, am = adj_halves(x)
    ident = RigMatrix.identity(rig, x.n)
    left = x.mul(ap).add(ident.scale(dmx))
    right = x.mul(am).add(ident.scale(dpx))
    adj_ok = left.equal(right)
    return LemmaIdentityReport(det_ok, adj_ok)


# the search solves fine inversion on every subcategory, up to 2^arrows of them
MAX_SUBCATEGORY_ARROWS = 8


def mobius_by_subcategories(c: FinCategory):
    """Exhaustive test: every subcategory has fine inversion over the integers.

    Returns (True, None) or (False, witness_subcategory).  Intentionally
    brute-force, so restricted to small categories.
    """
    if len(c.arrow_names()) > MAX_SUBCATEGORY_ARROWS:
        raise BudgetExceeded(f"subcategory search limited to {MAX_SUBCATEGORY_ARROWS} arrows")
    for sub in enumerate_subcategories(c):
        try:
            fine_mobius(sub, INT)
        except NotInvertible:
            return False, sub
    return True, None


def reflects_identities(f: Functor) -> bool:
    """Length-0 square: arrows over identities are exactly the identities."""
    src, tgt = f.source, f.target
    identity_preimage = {h for h in src.arrow_names() if tgt.is_identity(f.arrow_map[h])}
    return identity_preimage == {src.identity[o] for o in src.objects}


def composable_pairs_square_is_pullback(f: Functor) -> bool:
    """Length-2 square: composable pairs of the source must biject with
    pairs (target factorization, source arrow over its composite)."""
    src, tgt = f.source, f.target
    image_of_pairs = {}
    for (g, h) in src.compose:
        key = ((f.arrow_map[h], f.arrow_map[g]), src.compose[(g, h)])
        image_of_pairs[key] = image_of_pairs.get(key, 0) + 1
    for h in src.arrow_names():
        for (g1, g2) in tgt.factorizations()[f.arrow_map[h]]:
            if image_of_pairs.get(((g1, g2), h), 0) != 1:
                return False
    return True


def ulf_via_pullback_squares(f: Functor) -> bool:
    """ULF by the two finite pullback-square conditions of the free path
    construction: identity reflection (length 0) and the composable-pairs
    square (length 2)."""
    return reflects_identities(f) and composable_pairs_square_is_pullback(f)


def _is_homomorphism(transform, domain: FinCategory, codomain: FinCategory, rig: Rig):
    """Definitional check that transform, from fine elements on domain to
    fine elements on codomain, preserves delta and all basis products."""
    if not transform(fine_delta(domain, rig)).equal(fine_delta(codomain, rig)):
        return False, ("delta",)
    for a in domain.arrow_names():
        ea = fine_basis(domain, rig, a)
        for b in domain.arrow_names():
            eb = fine_basis(domain, rig, b)
            lhs = transform(fine_convolve(ea, eb))
            rhs = fine_convolve(transform(ea), transform(eb))
            if not lhs.equal(rhs):
                return False, (a, b)
    return True, None


def pushforward_is_homomorphism(f: Functor, rig: Rig):
    """Definitional check: F_! preserves delta and all basis products."""
    return _is_homomorphism(lambda x: pushforward(f, x), f.source, f.target, rig)


def pullback_is_homomorphism(f: Functor, rig: Rig):
    """Definitional check: F* preserves delta and all basis products."""
    return _is_homomorphism(lambda y: pullback_transform(f, y), f.target, f.source, rig)


def classical_mobius(n: int) -> int:
    """Number-theoretic Mobius function by brute-force trial division."""
    if n < 1:
        raise MalformedInput(f"classical Mobius needs n >= 1, got {n}")
    factors = 0
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            remaining //= p
            if remaining % p == 0:
                return 0
            factors += 1
        else:
            p += 1
    if remaining > 1:
        factors += 1
    return -1 if factors % 2 else 1


def check_multiplicativity(sa: SizeAssignment, samples) -> bool:
    """size is a monoid homomorphism on the sampled hom-descriptors."""
    rig = sa.rig
    if not rig.eq(sa.size(sa.unit), rig.one):
        return False
    for x in samples:
        for y in samples:
            lhs = sa.size(sa.tensor(x, y))
            rhs = rig.mul(sa.size(x), sa.size(y))
            if not rig.eq(lhs, rhs):
                return False
    return True


# constructions through names: each builds the arrows, identity table and
# composition table of its result by arrow names, in the order the library
# keeps, and hands them to the FinCategory constructor


def _entries(c: FinCategory) -> list:
    """c's table as (g, f, g after f) name triples, in table order."""
    return [(g, f, gf) for (g, f), gf in c.compose.items()]


def _paired(c: FinCategory, d: FinCategory, objects, arrows, entries) -> FinCategory:
    """The category of the object pairs (x, y), the Arrow pairs (p, q) and the
    pairs of table entries given over c and d, composed componentwise."""
    objects = list(objects)
    fields = [((p.name, q.name), (p.src, q.src), (p.tgt, q.tgt)) for p, q in arrows]
    identity = {(x, y): (c.identity[x], d.identity[y]) for x, y in objects}
    return FinCategory._from_entries(objects, fields, identity, [tuple(zip(e, h)) for e, h in entries])


def product_by_names(c: FinCategory, d: FinCategory) -> FinCategory:
    pairs = cartesian(c.objects, d.objects), cartesian(c.arrows, d.arrows), cartesian(_entries(c), _entries(d))
    return _paired(c, d, *pairs)


def coproduct_by_names(c: FinCategory, d: FinCategory) -> FinCategory:
    objects = [("L", a) for a in c.objects] + [("R", b) for b in d.objects]
    arrows = [Arrow(("L", a.name), ("L", a.src), ("L", a.tgt)) for a in c.arrows]
    arrows += [Arrow(("R", a.name), ("R", a.src), ("R", a.tgt)) for a in d.arrows]
    identity = {("L", o): ("L", c.identity[o]) for o in c.objects}
    identity.update({("R", o): ("R", d.identity[o]) for o in d.objects})
    compose = {(("L", g), ("L", f)): ("L", h) for (g, f), h in c.compose.items()}
    compose.update({(("R", g), ("R", f)): ("R", h) for (g, f), h in d.compose.items()})
    return FinCategory(objects, arrows, identity, compose)


def subcategory_by_names(c: FinCategory, objs, arrow_names) -> FinCategory:
    keep = set(objs)
    objs = [o for o in c.objects if o in keep]
    names = set(arrow_names)
    arrows = [a for a in c.arrows if a.name in names]
    identity = {o: c.identity[o] for o in objs}
    compose = {k: v for k, v in c.compose.items() if k[0] in names and k[1] in names}
    return FinCategory(objs, arrows, identity, compose)


def full_subcategory_by_names(c: FinCategory, objs) -> FinCategory:
    keep = set(objs)
    return subcategory_by_names(c, keep, [a.name for a in c.arrows if a.src in keep and a.tgt in keep])


def thin_category_by_names(objects, leq, tag) -> FinCategory:
    """category._thin_category: one arrow (tag, a, b) per pair of leq."""
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


def monoid_to_category_by_names(elements, unit, table: dict) -> FinCategory:
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
    compose = {(("el", g), ("el", f)): ("el", table[(g, f)]) for g in elements for f in elements}
    return FinCategory((obj,), arrows, identity, compose)


def _over(items, image) -> dict:
    groups: dict = {}
    for item in items:
        groups.setdefault(image(item), []).append(item)
    return groups


def category_pullback_by_names(f: Functor, g: Functor):
    """The pairs of product(A, B) that F and G send to one object, arrow
    and pair of arrows, found by a join on the images' names."""
    if f.target is not g.target and not categories_equal(f.target, g.target):
        raise MalformedInput("pullback needs a common codomain")
    a, b, fo, fa, ga = f.source, g.source, f.object_map, f.arrow_map, g.arrow_map
    objects = _over(b.objects, g.object_map.__getitem__)
    arrows = _over(b.arrows, lambda q: ga[q.name])
    entries = _over(_entries(b), lambda e: (ga[e[0]], ga[e[1]]))
    pullback_cat = _paired(
        a, b, ((x, y) for x in a.objects for y in objects.get(fo[x], ())),
        ((p, q) for p in a.arrows for q in arrows.get(fa[p.name], ())),
        ((e, h) for e in _entries(a) for h in entries.get((fa[e[0]], fa[e[1]]), ())),
    )
    pairs, names = pullback_cat.objects, pullback_cat.arrow_names()
    proj1 = Functor(pullback_cat, a, {(x, y): x for x, y in pairs}, {(p, q): p for p, q in names})
    proj2 = Functor(pullback_cat, b, {(x, y): y for x, y in pairs}, {(p, q): q for p, q in names})
    return pullback_cat, proj1, proj2


def subcategories_by_names(c: FinCategory) -> list:
    """The (objects, arrow names) of every nonempty subcategory, in the
    order enumerate_subcategories yields them."""
    found = []
    for obj_mask in range(1, 1 << len(c.objects)):
        chosen = {o for i, o in enumerate(c.objects) if obj_mask >> i & 1}
        required = {c.identity[o] for o in chosen}
        optional = [a.name for a in c.arrows if a.src in chosen and a.tgt in chosen and a.name not in required]
        for arr_mask in range(1 << len(optional)):
            names = required | {name for i, name in enumerate(optional) if arr_mask >> i & 1}
            if all(c.compose[(g, f)] in names for g in names for f in names if c.tgt(f) == c.src(g)):
                objects = tuple(o for o in c.objects if o in chosen)
                found.append((objects, tuple(a for a in c.arrow_names() if a in names)))
    return found


# functor checks and the classifier's searches through the name views


def validate_functor_by_names(f: Functor) -> ValidationReport:
    """Functor.validate: the first violated law with its witness."""
    for o in f.source.objects:
        if o not in f.object_map:
            return ValidationReport(False, "object-map-totality", repr(o))
        if f.object_map[o] not in set(f.target.objects):
            return ValidationReport(False, "object-map-range", repr(o))
    for a in f.source.arrows:
        if a.name not in f.arrow_map:
            return ValidationReport(False, "arrow-map-totality", repr(a.name))
        image = f.arrow_map[a.name]
        if not f.target.has_arrow(image):
            return ValidationReport(False, "arrow-map-range", repr(a.name))
        img = f.target.arrow(image)
        if img.src != f.object_map[a.src] or img.tgt != f.object_map[a.tgt]:
            return ValidationReport(False, "endpoint-preservation", f"{a.name!r} -> {image!r}")
    for o in f.source.objects:
        if f.arrow_map[f.source.identity[o]] != f.target.identity[f.object_map[o]]:
            return ValidationReport(False, "identity-preservation", repr(o))
    for (g, h), gh in f.source.compose.items():
        if f.target.compose[(f.arrow_map[g], f.arrow_map[h])] != f.arrow_map[gh]:
            return ValidationReport(False, "composition-preservation", f"({g!r}, {h!r})")
    return ValidationReport(True)


def fibre_sizes_by_names(f: Functor) -> dict:
    sizes = {a.name: 0 for a in f.target.arrows}
    for a in f.source.arrows:
        sizes[f.arrow_map[a.name]] += 1
    return sizes


def is_ulf_by_names(f: Functor):
    """functoriality.is_ulf: (True, None) or (False, (h, g1, g2, lift_count))."""
    for h in f.source.arrow_names():
        lifts: dict = {}
        for h1, h2 in f.source.factorizations()[h]:
            key = (f.arrow_map[h1], f.arrow_map[h2])
            lifts[key] = lifts.get(key, 0) + 1
        for g1, g2 in f.target.factorizations()[f.arrow_map[h]]:
            if lifts.get((g1, g2), 0) != 1:
                return False, (h, g1, g2, lifts.get((g1, g2), 0))
    return True, None


def iso_witnesses_by_names(c: FinCategory) -> list:
    out = []
    for f in c.arrows:
        for g in c.hom(f.tgt, f.src):
            if c.compose[(g, f.name)] == c.identity[f.src] and c.compose[(f.name, g)] == c.identity[f.tgt]:
                out.append((f.name, g))
    return out


def endomorphism_report_by_names(c: FinCategory) -> tuple:
    """(nontrivial isos, nontrivial idempotents, nontrivial endos)."""
    isos = tuple(f for f, _ in iso_witnesses_by_names(c) if not c.is_identity(f))
    endos = tuple(a.name for a in c.arrows if a.src == a.tgt and not c.is_identity(a.name))
    return isos, tuple(e for e in endos if c.compose[(e, e)] == e), endos


# the fine level, the functor transforms and the adjunction check through
# the name views


def categories_equal_by_names(c: FinCategory, d: FinCategory) -> bool:
    return (
        set(c.objects) == set(d.objects)
        and set(c.arrows) == set(d.arrows)
        and c.identity == d.identity
        and c.compose == d.compose
    )


def fine_convolve_by_names(x: FineElement, y: FineElement) -> FineElement:
    """incidence.fine_convolve: each composite's terms summed in the order of factorizations()."""
    c, rig = x.category, x.rig
    values = {}
    for name, pairs in c.factorizations().items():
        values[name] = rig.sum(rig.mul(x.values[g], y.values[h]) for g, h in pairs)
    return FineElement(c, rig, values)


def sigma_to_coarse_by_names(x: FineElement) -> CoarseElement:
    """incidence.sigma_to_coarse: rig.sum over each nonempty hom-set's names."""
    c, rig = x.category, x.rig
    rows = [[rig.zero] * len(c.objects) for _ in c.objects]
    for i, a in enumerate(c.objects):
        for j, b in enumerate(c.objects):
            if names := c.hom(a, b):
                rows[i][j] = rig.sum(map(x.values.__getitem__, names))
    return CoarseElement(c.objects, rig, RigMatrix.from_rows(rig, rows), c)


def pushforward_by_names(f: Functor, x: FineElement) -> FineElement:
    if x.category is not f.source and not categories_equal(x.category, f.source):
        raise RigMismatch("element does not live on the functor's source")
    rig = x.rig
    values = dict.fromkeys(f.target.arrow_names(), rig.zero)
    for name in f.source.arrow_names():
        image = f.arrow_map[name]
        values[image] = rig.add(values[image], x.values[name])
    return FineElement(f.target, rig, values)


def pullback_transform_by_names(f: Functor, y: FineElement) -> FineElement:
    if y.category is not f.target and not categories_equal(y.category, f.target):
        raise RigMismatch("element does not live on the functor's target")
    values = {name: y.values[f.arrow_map[name]] for name in f.source.arrow_names()}
    return FineElement(f.source, y.rig, values)


def validate_adjunction_by_names(adj):
    """functoriality.validate_adjunction: (True, None) or (False, the first failure)."""
    f, g = adj.left, adj.right
    a_cat, b_cat = f.source, g.source
    if f.target is not b_cat and not categories_equal(f.target, b_cat):
        return False, "F must land in G's source"
    if g.target is not a_cat and not categories_equal(g.target, a_cat):
        return False, "G must land in F's source"
    if not f.validate().ok:
        return False, "F is not a functor"
    if not g.validate().ok:
        return False, "G is not a functor"
    for a in a_cat.objects:
        eta = adj.unit.get(a)
        if eta is None or not a_cat.has_arrow(eta):
            return False, f"unit missing at {a!r}"
        arr = a_cat.arrow(eta)
        if arr.src != a or arr.tgt != g.object_map[f.object_map[a]]:
            return False, f"unit at {a!r} is not an arrow {a!r} -> GF{a!r}"
    for b in b_cat.objects:
        eps = adj.counit.get(b)
        if eps is None or not b_cat.has_arrow(eps):
            return False, f"counit missing at {b!r}"
        arr = b_cat.arrow(eps)
        if arr.src != f.object_map[g.object_map[b]] or arr.tgt != b:
            return False, f"counit at {b!r} is not an arrow FG{b!r} -> {b!r}"
    for arrow in a_cat.arrows:
        lhs = a_cat.compose[(adj.unit[arrow.tgt], arrow.name)]
        rhs = a_cat.compose[(g.arrow_map[f.arrow_map[arrow.name]], adj.unit[arrow.src])]
        if lhs != rhs:
            return False, f"unit not natural at {arrow.name!r}"
    for arrow in b_cat.arrows:
        lhs = b_cat.compose[(arrow.name, adj.counit[arrow.src])]
        rhs = b_cat.compose[(adj.counit[arrow.tgt], f.arrow_map[g.arrow_map[arrow.name]])]
        if lhs != rhs:
            return False, f"counit not natural at {arrow.name!r}"
    for a in a_cat.objects:
        fa = f.object_map[a]
        if b_cat.compose[(adj.counit[fa], f.arrow_map[adj.unit[a]])] != b_cat.identity[fa]:
            return False, f"first triangle identity fails at {a!r}"
    for b in b_cat.objects:
        gb = g.object_map[b]
        if a_cat.compose[(g.arrow_map[adj.counit[b]], adj.unit[gb])] != a_cat.identity[gb]:
            return False, f"second triangle identity fails at {b!r}"
    return True, None
