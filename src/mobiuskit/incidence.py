"""The three incidence algebras of a finite category.

Fine elements live on arrows, coarse elements on object pairs, patch
elements on object pairs with support restricted to nonempty hom-sets.
Zeta, Mobius, the summation homomorphisms between the levels, Euler
characteristic, and the nerve Euler characteristic all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import not_

from .category import FinCategory, is_mobius_category
from .errors import (
    MalformedInput,
    NotInvertible,
    NotNerveFinite,
    RigMismatch,
    UnsupportedRig,
)
from .matrixrig import RigMatrix, _bareiss, _land, _to_integers, invert_counting_matrix
from .rigs import INT, Rig


def _check_same_rig(x, y):
    if x.rig.name != y.rig.name:
        raise RigMismatch(f"elements over {x.rig.name} and {y.rig.name}")


@dataclass
class FineElement:
    """Function from the arrows of a category into a rig."""

    category: FinCategory
    rig: Rig
    values: dict

    def __post_init__(self):
        for name in self.category.arrow_names():
            if name not in self.values:
                raise RigMismatch(f"fine element missing a value on arrow {name!r}")

    def __call__(self, arrow_name):
        return self.values[arrow_name]

    def equal(self, other: "FineElement") -> bool:
        _check_same_rig(self, other)
        return all(
            self.rig.eq(self.values[n], other.values[n])
            for n in self.category.arrow_names()
        )


@dataclass
class CoarseElement:
    """Function on object pairs, stored as a square matrix in object order."""

    objects: tuple
    rig: Rig
    matrix: RigMatrix
    category: FinCategory | None = None
    enrichment: str = "finite_sets"

    def __post_init__(self):
        if self.matrix.n != len(self.objects):
            raise RigMismatch("matrix size does not match the object list")

    def value(self, a, b):
        return self.matrix.entry(self.objects.index(a), self.objects.index(b))

    def equal(self, other: "CoarseElement") -> bool:
        _check_same_rig(self, other)
        return self.objects == other.objects and self.matrix.equal(other.matrix)

    def total(self):
        return self.matrix.entry_sum()


@dataclass
class PatchElement:
    """Coarse-style element supported on pairs with nonempty hom-set."""

    objects: tuple
    rig: Rig
    matrix: RigMatrix
    support: frozenset
    category: FinCategory | None = None

    def __post_init__(self):
        if self.matrix.n != len(self.objects):
            raise RigMismatch("matrix size does not match the object list")
        zeros = repeat(self.rig.zero)
        for a, row in zip(self.objects, self.matrix.rows):
            # the columns of the nonzero entries of row a, in order
            for b in compress(self.objects, map(not_, map(self.rig.eq, row, zeros))):
                if (a, b) not in self.support:
                    raise RigMismatch(
                        f"patch element has a nonzero value off-support at ({a!r},{b!r})"
                    )

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
    values = {
        name: (rig.one if c.is_identity(name) else rig.zero) for name in c.arrow_names()
    }
    return FineElement(c, rig, values)


def fine_zeta(c: FinCategory, rig: Rig) -> FineElement:
    return FineElement(c, rig, {name: rig.one for name in c.arrow_names()})


def fine_basis(c: FinCategory, rig: Rig, arrow_name) -> FineElement:
    values = {name: rig.zero for name in c.arrow_names()}
    values[arrow_name] = rig.one
    return FineElement(c, rig, values)


def fine_convolve(x: FineElement, y: FineElement) -> FineElement:
    """(x * y)(f) = sum over factorizations h o g = f of x(g) y(h)."""
    _check_same_rig(x, y)
    c = x.category
    rig = x.rig
    values = {}
    for name, pairs in c.factorizations().items():
        values[name] = rig.sum(rig.mul(x.values[g], y.values[h]) for g, h in pairs)
    return FineElement(c, rig, values)


def verify_inverse(x: FineElement, y: FineElement) -> bool:
    """True iff x * y = y * x = delta, exactly in the shared rig."""
    _check_same_rig(x, y)
    delta = fine_delta(x.category, x.rig)
    return fine_convolve(x, y).equal(delta) and fine_convolve(y, x).equal(delta)


def fine_invert(x: FineElement) -> FineElement:
    """Two-sided convolution inverse of a fine element.

    Solves the linear system w * x = delta for a left inverse w (one
    unknown per arrow) exactly, in plain integers, then certifies the
    other side.  x is scaled once to integers, X = e x with e the LCM of
    its denominators (1 for every zeta).  The solution lands in the rig
    through its from_quotient; over a rig without division (the integers)
    it must come out integral.  Rigs without from_quotient have no solver,
    use verify_inverse with a candidate instead.

    (w * x)(f) involves only w(g) with src(g) = src(f), so the system is
    block-diagonal: one block per source object, holding the arrows out of
    that object in global arrow order.  The row of f sums X(h) over the
    factorizations h o g = f into the column of g, with right-hand side
    e [f is an identity], and each block goes to the fraction-free kernel
    matrixrig._bareiss, the one that also inverts coarse zeta matrices.
    The kernel touches only the nonzero entries at every step whose pivot
    equals the previous one.  For posets and Mobius categories whose
    arrows are listed along a linear extension every pivot is 1, so every
    step is such a step.

    The certificate checks x * w = delta only.  w * x = delta holds
    exactly, since the system was solved over the rationals, and in a
    finite-dimensional associative unital algebra a left inverse is also
    a right inverse.  A composition table that is not associative, which
    fine_mobius does not validate, breaks that argument, and there this
    check is what refuses a one-sided answer.  The check runs on integers: block a solves to W_a / d_a, and
    with D the LCM of the d_a and W'(h) = W(h) D / d_{src h} it tests
    sum X(g) W'(h) = e D [f is an identity].  The same exact check serves
    the floating reals, whose values are the exact solution rounded once.

    The checks run in this order: a singular block, then a non-integral
    value over a rig without division, then the certificate; only then do
    the values land in the rig.  A singular system names the global index
    of the first arrow column that depends on earlier columns, which is
    where elimination over the whole system would stop.  Columns of
    different blocks share no rows, so that is the smallest first failing
    column over all blocks.  A composite that does not start where its
    first factor starts breaks the block structure; it is MalformedInput,
    as validate_category would report it as composite-endpoints.
    """
    rig = x.rig
    if rig.from_quotient is None:
        raise UnsupportedRig(f"fine inversion needs a field or the integers, not '{rig.name}'")
    c = x.category
    names = c.arrow_names()
    e, scaled = _to_integers(x.values.values())
    scaled_x = dict(zip(x.values, scaled))
    # columns[a] holds the global indices of the arrows out of a, and
    # position[g] the place of g among them
    columns: dict = {}
    position = {}
    for i, name in enumerate(names):
        block = columns.setdefault(c.src(name), [])
        position[name] = len(block)
        block.append(i)
    # (w * x)(f) = sum_g [sum_{h : h o g = f} x(h)] w(g), with src(g) = src(f)
    rows: dict = {a: [] for a in columns}
    rhs: dict = {a: [] for a in columns}
    factorizations = c.factorizations()
    for f_name, pairs in factorizations.items():
        a = c.src(f_name)
        row = [0] * len(columns[a])
        for g, h in pairs:
            if c.src(g) != a:
                raise MalformedInput(
                    f"compose({h!r}, {g!r}) = {f_name!r}: the composite starts at "
                    f"{a!r}, not at the source {c.src(g)!r} of {g!r}"
                )
            row[position[g]] += scaled_x[h]
        rows[a].append(row)
        rhs[a].append([e if c.is_identity(f_name) else 0])
    solved = {}
    failures = []
    for a, block in columns.items():
        try:
            solved[a] = _bareiss(rows[a], rhs[a])
        except NotInvertible as err:
            failures.append(block[err.witness[1]])
    if failures:
        column = min(failures)
        raise NotInvertible(
            f"singular convolution system: no pivot in column {column}",
            witness=("column", column),
        )
    if not rig.has_division:
        non_integral = [(i, value, d) for a, (d, scaled) in solved.items()
                        for i, (value,) in zip(columns[a], scaled) if value % d]
        if non_integral:
            i, value, d = min(non_integral)
            val = Fraction(value, d)
            raise NotInvertible(
                f"inverse value on arrow {names[i]!r} = {val} is not an integer",
                witness=("non-integral", names[i], str(val)),
            )
    # (x * w)(f) = sum over h o g = f of x(g) w(h), on the common denominator e D
    common = lcm(*(d for d, _ in solved.values()))
    scaled_w = {}
    for a, (d, scaled) in solved.items():
        k = common // d
        for i, (value,) in zip(columns[a], scaled):
            scaled_w[names[i]] = value * k
    one = e * common
    for f_name, pairs in factorizations.items():
        if sum(scaled_x[g] * scaled_w[h] for g, h in pairs) != (one if c.is_identity(f_name) else 0):
            raise NotInvertible(
                "left inverse exists but is not two-sided",
                witness=("one-sided", None),
            )
    solution = [None] * len(names)
    for a, (d, scaled) in solved.items():
        for i, (value,) in zip(columns[a], _land(rig, d, scaled)):
            solution[i] = value
    return FineElement(c, rig, dict(zip(names, solution)))


def fine_mobius(c: FinCategory, rig: Rig) -> FineElement:
    """Convolution inverse of the fine zeta function."""
    return fine_invert(fine_zeta(c, rig))


# coarse level


def coarse_delta(c: FinCategory, rig: Rig) -> CoarseElement:
    return CoarseElement(c.objects, rig, RigMatrix.identity(rig, len(c.objects)), c)


def coarse_zeta(c: FinCategory, rig: Rig) -> CoarseElement:
    rows = [[rig.from_int(len(c.hom(a, b))) for b in c.objects] for a in c.objects]
    return CoarseElement(c.objects, rig, RigMatrix.from_rows(rig, rows), c)


def coarse_multiply(x: CoarseElement, y: CoarseElement) -> CoarseElement:
    _check_same_rig(x, y)
    if x.objects != y.objects:
        raise RigMismatch("coarse elements indexed by different object lists")
    return CoarseElement(x.objects, x.rig, x.matrix.mul(y.matrix), x.category, x.enrichment)


def coarse_mobius(c: FinCategory, rig: Rig) -> CoarseElement:
    """Inverse of the hom-count matrix, exactly."""
    counts = [[len(c.hom(a, b)) for b in c.objects] for a in c.objects]
    try:
        inverse = invert_counting_matrix(counts, rig)
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
    into the coarse incidence algebra."""
    c = x.category
    rig = x.rig
    rows = [
        [rig.sum(x.values[f] for f in c.hom(a, b)) for b in c.objects] for a in c.objects
    ]
    return CoarseElement(c.objects, rig, RigMatrix.from_rows(rig, rows), c)


def coarse_support(c: FinCategory) -> frozenset:
    return frozenset((a, b) for a in c.objects for b in c.objects if c.hom(a, b))


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
