"""Functor predicates and the maps they induce on incidence algebras.

Covers bijectivity-on-objects and fibre sizes, unique lifting of
factorizations, pushforward and pullback of fine elements, pullbacks of
categories, the Beck-Chevalley square, span composition, and adjunction
validation with the adjoint-pair Mobius identity.
"""

from __future__ import annotations

from collections import Counter

from ._record import Frozen, Record
from .category import FinCategory, Functor, categories_equal, compose_functors, identity_functor
from .errors import MalformedInput, RigMismatch
from .incidence import FineElement, coarse_mobius, fine_basis
from .rigs import RAT, Rig


def is_bijective_on_objects(f: Functor) -> bool:
    images = [f.object_map[o] for o in f.source.objects]
    return len(set(images)) == len(images) and set(images) == set(f.target.objects)


def fibre_sizes(f: Functor) -> dict:
    """Arrow-fibre cardinalities, one entry per arrow of the target."""
    sizes = Counter(f._images())
    return {name: sizes[a] for a, name in enumerate(f.target.arrow_names())}


def is_ulf(f: Functor):
    """Unique lifting of factorizations.

    For every arrow h of the source and factorization F(h) = g2 o g1 in the
    target there must be exactly one pair (h1, h2) with h2 o h1 = h over
    (g1, g2).  Returns (True, None) or (False, (h, g1, g2, lift_count)).
    Each source entry h2 o h1 = h counts a lift at (h, F h1, F h2), by positions.
    """
    src, tgt, images = f.source, f.target, f._images()
    lifts = Counter(zip(src._composite, map(images.__getitem__, src._inner), map(images.__getitem__, src._outer)))
    over = [[] for _ in tgt._names]  # target arrow -> its factorizations (g1, g2), in table order
    for g2, g1, g in zip(tgt._outer, tgt._inner, tgt._composite):
        over[g].append((g1, g2))
    for h, image in enumerate(images):
        for g1, g2 in over[image]:
            if lifts[h, g1, g2] != 1:
                return False, (src._names[h], tgt._names[g1], tgt._names[g2], lifts[h, g1, g2])
    return True, None


def pushforward(f: Functor, x: FineElement) -> FineElement:
    """(F_! x)(g) = sum of x over the fibre of g."""
    if x.category is not f.source and not categories_equal(x.category, f.source):
        raise RigMismatch("element does not live on the functor's source")
    rig = x.rig
    values = dict.fromkeys(f.target.arrow_names(), rig.zero)
    for name in f.source.arrow_names():
        image = f.arrow_map[name]
        values[image] = rig.add(values[image], x.values[name])
    return FineElement(f.target, rig, values)


def pullback_transform(f: Functor, y: FineElement) -> FineElement:
    """(F* y)(h) = y(F h)."""
    if y.category is not f.target and not categories_equal(y.category, f.target):
        raise RigMismatch("element does not live on the functor's target")
    values = {name: y.values[f.arrow_map[name]] for name in f.source.arrow_names()}
    return FineElement(f.source, y.rig, values)


def _over(items, image) -> dict:
    """image(item) -> the items with that image, in the order given."""
    groups: dict = {}
    for item in items:
        groups.setdefault(image(item), []).append(item)
    return groups


def category_pullback(f: Functor, g: Functor):
    """Pullback of two functors with a common codomain, and its two projections.

    The subcategory of product(A, B) of the sources on the pairs that F and
    G send to one object, arrow and pair of arrows, in the product's order.
    A join finds them: B's objects, arrows and table entries are grouped by
    image once, and each item of A looks up its own image.
    """
    if f.target is not g.target and not categories_equal(f.target, g.target):
        raise MalformedInput("pullback needs a common codomain")
    a, b, fo, fa, ga = f.source, g.source, f.object_map, f.arrow_map, g.arrow_map
    ao, an, bo, bn = a.objects, a._names, b.objects, b._names
    objects = _over(range(len(bo)), lambda y: g.object_map[bo[y]])
    arrows = _over(range(len(bn)), lambda q: ga[bn[q]])
    entries = _over(zip(b._outer, b._inner, b._composite), lambda e: (ga[bn[e[0]]], ga[bn[e[1]]]))
    identity = {(ao[x], bo[y]): (a._ids[x], b._ids[y]) for x, o in enumerate(ao) for y in objects.get(fo[o], ())}
    arrow_pairs = [(p, q) for p, name in enumerate(an) for q in arrows.get(fa[name], ())]
    fields = [((an[p], bn[q]), (ao[a._src[p]], bo[b._src[q]]), (ao[a._tgt[p]], bo[b._tgt[q]])) for p, q in arrow_pairs]
    table = [tuple(zip(e, h)) for e in zip(a._outer, a._inner, a._composite)
             for h in entries.get((fa[an[e[0]]], fa[an[e[1]]]), ())]
    pullback_cat = FinCategory._from_entries(
        list(identity), fields, identity, table, arrow_pairs, lambda pair: (an[pair[0]], bn[pair[1]]))
    pairs, names = pullback_cat.objects, pullback_cat.arrow_names()
    proj1 = Functor(pullback_cat, a, {(x, y): x for x, y in pairs}, {(p, q): p for p, q in names})
    proj2 = Functor(pullback_cat, b, {(x, y): y for x, y in pairs}, {(p, q): q for p, q in names})
    return pullback_cat, proj1, proj2


class BeckChevalleyReport(Frozen):
    __slots__ = ("hypotheses_ok", "detail", "square_commutes")

    def __init__(self, hypotheses_ok: bool, detail: str, square_commutes: bool | None):
        object.__setattr__(self, "hypotheses_ok", hypotheses_ok)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "square_commutes", square_commutes)


def beck_chevalley_check(f: Functor, g: Functor, rig: Rig = RAT) -> BeckChevalleyReport:
    """Verify the pullback square of F (ULF) against G (bijective on objects).

    Builds the pullback, re-checks that the induced legs inherit ULF and
    bijectivity-on-objects, then tests G* F_! = F'_! G'* on the basis of
    the fine algebra of F's source.
    """
    ulf_ok, witness = is_ulf(f)
    if not ulf_ok:
        return BeckChevalleyReport(False, f"F is not ULF at {witness!r}", None)
    if not is_bijective_on_objects(g):
        return BeckChevalleyReport(False, "G is not bijective on objects", None)
    pullback_cat, proj_to_a, proj_to_b = category_pullback(f, g)
    f_prime = proj_to_b  # pullback of F along G
    g_prime = proj_to_a  # pullback of G along F
    ulf_prime, witness = is_ulf(f_prime)
    if not ulf_prime:
        return BeckChevalleyReport(False, f"F' failed ULF at {witness!r}", None)
    if not is_bijective_on_objects(g_prime):
        return BeckChevalleyReport(False, "G' is not bijective on objects", None)
    for name in f.source.arrow_names():
        e = fine_basis(f.source, rig, name)
        west_then_north = pushforward(f_prime, pullback_transform(g_prime, e))
        south_then_east = pullback_transform(g, pushforward(f, e))
        if not west_then_north.equal(south_then_east):
            return BeckChevalleyReport(True, f"square fails at basis arrow {name!r}", False)
    return BeckChevalleyReport(True, "", True)


class Span(Record):
    """Span of categories: ULF left leg, bijective-on-objects right leg."""

    __slots__ = ("apex", "left", "right")

    def __init__(self, apex: FinCategory, left: Functor, right: Functor):
        if left.source is not apex or right.source is not apex:
            raise MalformedInput("span legs must start at the apex")
        if not left.validate().ok or not right.validate().ok:
            raise MalformedInput("span legs must be functors")
        ok, witness = is_ulf(left)
        if not ok:
            raise MalformedInput(f"span left leg is not ULF, witness {witness!r}")
        if not is_bijective_on_objects(right):
            raise MalformedInput("span right leg is not bijective on objects")
        self.apex = apex
        self.left = left
        self.right = right

    def algebra_map(self, x: FineElement) -> FineElement:
        """Induced map along the span: pull back, then push forward."""
        return pushforward(self.right, pullback_transform(self.left, x))


def identity_span(c: FinCategory) -> Span:
    ident = identity_functor(c)
    return Span(c, ident, ident)


def compose_spans(s: Span, t: Span) -> Span:
    """Composite span through the pullback of the middle cospan."""
    if not categories_equal(s.right.target, t.left.target):
        raise MalformedInput("spans are not composable: middle categories differ")
    _, proj_to_s_apex, proj_to_t_apex = category_pullback(s.right, t.left)
    apex = proj_to_s_apex.source
    left = compose_functors(s.left, proj_to_s_apex)
    right = compose_functors(t.right, proj_to_t_apex)
    return Span(apex, left, right)


class Adjunction(Record):
    """Adjunction F -| G given by explicit unit and counit arrow tables."""

    __slots__ = ("left", "right", "unit", "counit")

    def __init__(self, left: Functor, right: Functor, unit: dict, counit: dict):
        self.left = left      # F : A -> B
        self.right = right    # G : B -> A
        self.unit = unit      # object a -> arrow a -> GFa in A
        self.counit = counit  # object b -> arrow FGb -> b in B


def validate_adjunction(adj: Adjunction):
    """Check naturality of unit/counit and both triangle identities."""
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
        expected_tgt = g.object_map[f.object_map[a]]
        if arr.src != a or arr.tgt != expected_tgt:
            return False, f"unit at {a!r} is not an arrow {a!r} -> GF{a!r}"
    for b in b_cat.objects:
        eps = adj.counit.get(b)
        if eps is None or not b_cat.has_arrow(eps):
            return False, f"counit missing at {b!r}"
        arr = b_cat.arrow(eps)
        expected_src = f.object_map[g.object_map[b]]
        if arr.src != expected_src or arr.tgt != b:
            return False, f"counit at {b!r} is not an arrow FG{b!r} -> {b!r}"
    for arrow in a_cat.arrows:
        lhs = a_cat.compose[(adj.unit[arrow.tgt], arrow.name)]
        gf_arrow = g.arrow_map[f.arrow_map[arrow.name]]
        rhs = a_cat.compose[(gf_arrow, adj.unit[arrow.src])]
        if lhs != rhs:
            return False, f"unit not natural at {arrow.name!r}"
    for arrow in b_cat.arrows:
        lhs = b_cat.compose[(arrow.name, adj.counit[arrow.src])]
        fg_arrow = f.arrow_map[g.arrow_map[arrow.name]]
        rhs = b_cat.compose[(adj.counit[arrow.tgt], fg_arrow)]
        if lhs != rhs:
            return False, f"counit not natural at {arrow.name!r}"
    for a in a_cat.objects:
        fa = f.object_map[a]
        composite = b_cat.compose[(adj.counit[fa], f.arrow_map[adj.unit[a]])]
        if composite != b_cat.identity[fa]:
            return False, f"first triangle identity fails at {a!r}"
    for b in b_cat.objects:
        gb = g.object_map[b]
        composite = a_cat.compose[(g.arrow_map[adj.counit[b]], adj.unit[gb])]
        if composite != a_cat.identity[gb]:
            return False, f"second triangle identity fails at {b!r}"
    return True, None


def rota_check(adj: Adjunction, a, b, rig: Rig = RAT):
    """Adjoint-pair Mobius identity at (a, b).

    sum over a' with F(a') = b of mu_A(a, a') must equal the sum over b'
    with G(b') = a of mu_B(b', b).  Returns (equal, lhs, rhs).
    """
    f, g = adj.left, adj.right
    mu_a = coarse_mobius(f.source, rig)
    mu_b = coarse_mobius(g.source, rig)
    lhs = rig.sum(
        mu_a.value(a, a_prime)
        for a_prime in f.source.objects
        if f.object_map[a_prime] == b
    )
    rhs = rig.sum(
        mu_b.value(b_prime, b)
        for b_prime in g.source.objects
        if g.object_map[b_prime] == a
    )
    return rig.eq(lhs, rhs), lhs, rhs
