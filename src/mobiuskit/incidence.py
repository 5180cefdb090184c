"""The three incidence algebras of a finite category.

Fine elements live on arrows, coarse elements on object pairs, patch
elements on object pairs with support restricted to nonempty hom-sets.
Zeta, Mobius, the summation homomorphisms between the levels, Euler
characteristic, and the nerve Euler characteristic all live here.

Fine inversion solves a linear system on arrows, coarse and patch
inversion one on objects, each by one call of matrixrig._solve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import is_not, mul

from ._record import Record
from .category import FinCategory, categories_equal, is_mobius_category
from .errors import (
    MalformedInput,
    NotInvertible,
    NotNerveFinite,
    RigMismatch,
    UnsupportedRig,
)
from .matrixrig import RigMatrix, _land, _solve, _to_integers, invert_counting_matrix
from .rigs import INT, Rig


def _check_same_rig(x, y):
    if x.rig.name != y.rig.name:
        raise RigMismatch(f"elements over {x.rig.name} and {y.rig.name}")


def _check_same_table(x, y):
    """Fine elements combine only over one rig and on one category, or on two equal ones."""
    _check_same_rig(x, y)
    if not categories_equal(x.category, y.category):
        raise RigMismatch("fine elements on different categories")


class FineElement(Record):
    """Function from the arrows of a category into a rig.

    values maps exactly the arrow names into the rig: a missing arrow, or a
    key that is not an arrow, is refused with RigMismatch.  Library calls
    read values once, in the arrow order of the category they walk (_row),
    and build their results from values in arrow order (_element), so the
    walks in between are on arrow positions.
    """

    __slots__ = ("category", "rig", "values")

    def __init__(self, category: FinCategory, rig: Rig, values: dict):
        if values.keys() != category._index.keys():
            for name in category.arrow_names():
                if name not in values:
                    raise RigMismatch(f"fine element missing a value on arrow {name!r}")
            extra = next(key for key in values if key not in category._index)
            raise RigMismatch(f"fine element has a value on {extra!r}, which is not an arrow")
        self.category = category
        self.rig = rig
        self.values = values

    def __call__(self, arrow_name):
        return self.values[arrow_name]

    def equal(self, other: "FineElement") -> bool:
        _check_same_table(self, other)
        return all(map(self.rig.eq, _row(self, self.category), _row(other, self.category)))


def _row(x: FineElement, c: FinCategory) -> list:
    """x's values in the arrow order of c, x's category or one equal to it."""
    return list(map(x.values.__getitem__, c._names))


def _element(c: FinCategory, rig: Rig, row) -> FineElement:
    """The fine element on c with the values of row, in c's arrow order."""
    return FineElement(c, rig, dict(zip(c._names, row)))


class CoarseElement(Record):
    """Function on object pairs, stored as a square matrix in object order."""

    __slots__ = ("objects", "rig", "matrix", "category", "enrichment")

    def __init__(
        self,
        objects: tuple,
        rig: Rig,
        matrix: RigMatrix,
        category: FinCategory | None = None,
        enrichment: str = "finite_sets",
    ):
        if matrix.n != len(objects):
            raise RigMismatch("matrix size does not match the object list")
        self.objects = objects
        self.rig = rig
        self.matrix = matrix
        self.category = category
        self.enrichment = enrichment

    def value(self, a, b):
        return self.matrix.entry(self.objects.index(a), self.objects.index(b))

    def equal(self, other: "CoarseElement") -> bool:
        _check_same_rig(self, other)
        return self.objects == other.objects and self.matrix.equal(other.matrix)

    def total(self):
        return self.matrix.entry_sum()


class PatchElement(Record):
    """Coarse-style element supported on pairs with nonempty hom-set."""

    __slots__ = ("objects", "rig", "matrix", "support", "category")

    def __init__(
        self,
        objects: tuple,
        rig: Rig,
        matrix: RigMatrix,
        support: frozenset,
        category: FinCategory | None = None,
    ):
        if matrix.n != len(objects):
            raise RigMismatch("matrix size does not match the object list")
        zero, eq = rig.zero, rig.eq
        for a, row in zip(objects, matrix.rows):
            # the entries of row a that are not the rig.zero object, in column
            # order, found by a C-level identity test; only those off the
            # support go to eq, which may still count one as zero (a second
            # Fraction(0), or a float within the tolerance of 0.0)
            for b, v in compress(zip(objects, row), map(is_not, row, repeat(zero))):
                if (a, b) not in support and not eq(v, zero):
                    raise RigMismatch(
                        f"patch element has a nonzero value off-support at ({a!r},{b!r})"
                    )
        self.objects = objects
        self.rig = rig
        self.matrix = matrix
        self.support = support
        self.category = category

    def value(self, a, b):
        return self.matrix.entry(self.objects.index(a), self.objects.index(b))

    def equal(self, other: "PatchElement") -> bool:
        _check_same_rig(self, other)
        return (
            self.objects == other.objects
            and self.support == other.support
            and self.matrix.equal(other.matrix)
        )


# fine level


def fine_delta(c: FinCategory, rig: Rig) -> FineElement:
    values = dict.fromkeys(c._names, rig.zero)
    values.update(dict.fromkeys(map(c._names.__getitem__, c._ids), rig.one))
    return FineElement(c, rig, values)


def fine_zeta(c: FinCategory, rig: Rig) -> FineElement:
    return FineElement(c, rig, dict.fromkeys(c._names, rig.one))


def fine_basis(c: FinCategory, rig: Rig, arrow_name) -> FineElement:
    values = dict.fromkeys(c._names, rig.zero)
    values[arrow_name] = rig.one
    return FineElement(c, rig, values)


def fine_convolve(x: FineElement, y: FineElement) -> FineElement:
    """(x * y)(f) = sum over factorizations h o g = f of x(g) y(h), summed
    in table order by one walk of the table."""
    _check_same_table(x, y)
    c, rig = x.category, x.rig
    xs, ys, values = _row(x, c), _row(y, c), [rig.zero] * len(c._names)
    for h, g, f in zip(c._outer, c._inner, c._composite):
        values[f] = rig.add(values[f], rig.mul(xs[g], ys[h]))
    return _element(c, rig, values)


def verify_inverse(x: FineElement, y: FineElement) -> bool:
    """True iff x * y = y * x = delta, exactly in the shared rig."""
    _check_same_rig(x, y)
    delta = fine_delta(x.category, x.rig)
    return fine_convolve(x, y).equal(delta) and fine_convolve(y, x).equal(delta)


def fine_invert(x: FineElement) -> FineElement:
    """Two-sided convolution inverse of a fine element.

    Solves w * x = delta for a left inverse w, one unknown per arrow,
    exactly in integers, then certifies the other side.  x is scaled once
    to integers, X = e x with e the LCM of its denominators (1 for every
    zeta).  The solution lands in the rig through its from_quotient; over
    a rig without division (the integers) it must come out integral.
    Rigs without from_quotient have no solver: use verify_inverse with a
    candidate instead.

    Equation f sums X(h) over the factorizations h o g = f into the
    coefficient of w(g), with right-hand side e [f is an identity].  One
    walk over the composition table, on arrow positions, collects the
    coefficients; no arrow name is read unless a message needs it.
    (w * x)(f) involves only the w(g) with src(g) = src(f), so the arrows
    out of each object form one block, and matrixrig._solve picks the
    route.  In a Mobius category zeta, and any zeta / k, takes its
    forward push: h o f = f forces h to be an identity, and h o g = f with
    h not an identity leads from the target of g to another target, up a
    partial order of the objects.  Groups and nontrivial idempotents take
    the blocks.  The route reads the system, not the category, since
    fine_mobius does not validate the laws.

    The certificate checks x * w = delta only, in integers: it tests
    sum X(g) W(h) = e d [f is an identity].  w * x = delta holds exactly,
    and in a finite-dimensional associative unital algebra a left inverse
    is also a right inverse.  A composition table that is not
    associative breaks that argument, even when the system has an order,
    and there this check is what refuses a one-sided answer.  The same
    exact check serves the floating reals, whose values are the exact
    solution rounded once.

    The checks run in this order: a composite that does not start where
    its first factor starts, which would put an entry outside the blocks
    (MalformedInput, as validate_category would report it as
    composite-endpoints), then a singular system, which names the first
    arrow whose unknown has no pivot, then a non-integral value over a rig
    without division, then the certificate; only then do the values land
    in the rig.
    """
    rig = x.rig
    if rig.from_quotient is None:
        raise UnsupportedRig(f"fine inversion needs a field or the integers, not '{rig.name}'")
    c = x.category
    names = c.arrow_names()
    n = len(names)
    e, scaled = _to_integers(_row(x, c))
    # the table as (h, g, f) arrow positions with h o g = f, in table order
    outer, inner, composite, sources = c._outer, c._inner, c._composite, c._src
    if list(map(sources.__getitem__, inner)) != list(map(sources.__getitem__, composite)):
        # the first in the order of factorizations(): by composite, then table order
        _, k = min((f, k) for k, (g, f) in enumerate(zip(inner, composite)) if sources[g] != sources[f])
        h, g, f = outer[k], inner[k], composite[k]
        raise MalformedInput(
            f"compose({names[h]!r}, {names[g]!r}) = {names[f]!r}: the composite starts at "
            f"{c.objects[sources[f]]!r}, not at the source {c.objects[sources[g]]!r} of {names[g]!r}"
        )
    # (w * x)(f) = sum_g [sum_{h : h o g = f} x(h)] w(g), with src(g) = src(f):
    # the coefficient of w(f) in row f sums into diagonal[f], and each other
    # term is an entry (f, X(h)) of later[g]
    diagonal = [0] * n
    later = [[] for _ in range(n)]
    for h, g, f in zip(outer, inner, composite):
        if g == f:
            diagonal[f] += scaled[h]
        else:
            later[g].append((f, scaled[h]))
    blocks = [[] for _ in c.objects]
    for f, a in enumerate(sources):
        blocks[a].append(f)
    identities = dict.fromkeys(c._ids, e)
    try:
        d, (w,) = _solve(later, diagonal, [identities], blocks)
    except NotInvertible as err:
        raise NotInvertible(f"singular convolution system: no pivot in column {err.witness[1]}", witness=err.witness)
    if d != 1 and not rig.has_division:
        for name, value in zip(names, w):
            if value % d:
                val = Fraction(value, d)
                raise NotInvertible(
                    f"inverse value on arrow {name!r} = {val} is not an integer",
                    witness=("non-integral", name, str(val)),
                )
    # (x * w)(f) = sum over h o g = f of x(g) w(h), on the common denominator e d
    product = [0] * n
    for f, term in zip(composite, map(mul, map(scaled.__getitem__, inner), map(w.__getitem__, outer))):
        product[f] += term
    for f in identities:
        product[f] -= e * d
    if any(product):
        raise NotInvertible("left inverse exists but is not two-sided", witness=("one-sided", None))
    return _element(c, rig, _land(rig, d, [w], [compress(range(n), w)])[0])


def fine_mobius(c: FinCategory, rig: Rig) -> FineElement:
    """Convolution inverse of the fine zeta function."""
    return fine_invert(fine_zeta(c, rig))


# coarse level


def coarse_delta(c: FinCategory, rig: Rig) -> CoarseElement:
    return CoarseElement(c.objects, rig, RigMatrix.identity(rig, len(c.objects)), c)


def _hom_rows(c: FinCategory, empty, value) -> list:
    """Rows in object order holding value(|hom(a, b)|) at each nonempty
    hom-set and the one object empty everywhere else, so the work is
    proportional to the nonempty hom-sets, not to the object pairs."""
    n = len(c.objects)
    rows = [[empty] * n for _ in range(n)]
    for (i, j), count in c._hom_counts.items():
        rows[i][j] = value(count)
    return rows


def coarse_zeta(c: FinCategory, rig: Rig) -> CoarseElement:
    rows = _hom_rows(c, rig.zero, rig.from_int)
    return CoarseElement(c.objects, rig, RigMatrix.from_rows(rig, rows), c)


def coarse_multiply(x: CoarseElement, y: CoarseElement) -> CoarseElement:
    _check_same_rig(x, y)
    if x.objects != y.objects:
        raise RigMismatch("coarse elements indexed by different object lists")
    return CoarseElement(x.objects, x.rig, x.matrix.mul(y.matrix), x.category, x.enrichment)


def coarse_mobius(c: FinCategory, rig: Rig) -> CoarseElement:
    """Inverse of the hom-count matrix, exactly."""
    try:
        inverse = invert_counting_matrix(_hom_rows(c, 0, int), rig)
    except NotInvertible as e:
        if e.witness and e.witness[0] == "column":
            col = e.witness[1]
            raise NotInvertible(
                f"coarse zeta is singular: no pivot for object {c.objects[col]!r}",
                witness=e.witness,
            )
        raise
    return CoarseElement(c.objects, rig, inverse, c)


def sigma_to_coarse(x: FineElement) -> CoarseElement:
    """Sum a fine element over each hom-set: the canonical homomorphism
    into the coarse incidence algebra.  Each hom-set sums in arrow order,
    and an empty one keeps the rig.zero object."""
    c = x.category
    rig = x.rig
    rows = [[rig.zero] * len(c.objects) for _ in c.objects]
    for i, j, value in zip(c._src, c._tgt, _row(x, c)):
        rows[i][j] = rig.add(rows[i][j], value)
    return CoarseElement(c.objects, rig, RigMatrix.from_rows(rig, rows), c)


def coarse_support(c: FinCategory) -> frozenset:
    """The object pairs (a, b) with a map a -> b."""
    objects = c.objects
    return frozenset([(objects[i], objects[j]) for i, j in c._hom_counts])


def sigma_to_patch(x: FineElement) -> PatchElement:
    coarse = sigma_to_coarse(x)
    return PatchElement(coarse.objects, coarse.rig, coarse.matrix, coarse_support(x.category), x.category)


# patch level


def patch_delta(c: FinCategory, rig: Rig) -> PatchElement:
    return PatchElement(c.objects, rig, RigMatrix.identity(rig, len(c.objects)), coarse_support(c), c)


def patch_zeta(c: FinCategory, rig: Rig) -> PatchElement:
    z = coarse_zeta(c, rig)
    return PatchElement(z.objects, rig, z.matrix, coarse_support(c), c)


def patch_multiply(x: PatchElement, y: PatchElement) -> PatchElement:
    """(x * y)(a,b) = sum over z in the patch of a,b of x(a,z) y(z,b).

    For a finite category this is the matrix product: a term x(a,z) y(z,b)
    with both factors supported needs maps a -> z -> b, that is, z in the
    patch of (a,b), and every other term is zero.
    """
    _check_same_rig(x, y)
    if x.objects != y.objects or x.category is None:
        raise RigMismatch("patch product needs elements over one category")
    return PatchElement(x.objects, x.rig, x.matrix.mul(y.matrix), x.support, x.category)


def patch_mobius(c: FinCategory, rig: Rig) -> PatchElement:
    """Mobius function of the patch algebra: the coarse Mobius function.

    The value at a supported pair (a,b) is the (a,b) entry of the inverse
    of the hom-count matrix of the finite patch at (a,b).  For a finite
    category one coarse inversion answers every pair, and it fails exactly
    when some patch inversion does.

    Zero-pattern inheritance (Leinster, Notions of Mobius inversion): the
    coarse inverse mu is zero wherever zeta is, which PatchElement checks
    on every result.  Then for u, v in patch(a,b) every nonzero term
    mu(u,z) zeta(z,v) has maps a -> u -> z -> v -> b, so z lies in the
    patch too; mu restricted to the patch inverts the patch zeta, and
    mu(a,b) is the patch answer.

    The two levels fail together.  With the objects ordered by their
    strongly connected parts the count matrix is block triangular, so it
    is singular exactly when the block of some part S is, and for a in S
    patch(a,a) = S.  Over 'int' a non-integral entry of mu lies where
    there is a map, since every other entry is 0, and it is the same entry
    of that pair's patch inverse.  So the NotInvertible of coarse_mobius,
    message and witness, is the patch refusal.
    """
    mu = coarse_mobius(c, rig)
    return PatchElement(c.objects, rig, mu.matrix, coarse_support(c), c)


# Euler characteristics


def euler_characteristic(c: FinCategory, rig: Rig):
    """Sum of all coarse Mobius entries; raises NotInvertible when undefined."""
    return coarse_mobius(c, rig).total()


def nerve_euler_characteristic(c: FinCategory) -> int:
    """Alternating count of chains of non-identity arrows, for a finite
    Mobius category.  Leroux's chain count is the fine Mobius function,
    whose sums over hom-sets give the coarse one, so the count is the total
    of the inverse hom-count matrix: integral, as that matrix is
    unitriangular up to order.  Any other category has chains of every
    length and raises NotNerveFinite.
    """
    if not is_mobius_category(c):
        raise NotNerveFinite(
            "nerve Euler characteristic needs a skeletal category with no nontrivial endomorphisms"
        )
    return euler_characteristic(c, INT)
