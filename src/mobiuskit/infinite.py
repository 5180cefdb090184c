"""Patch-finite infinite categories presented by oracles.

A possibly-infinite category is given by a hom-cardinality oracle and a
finite-patch oracle; coarse Mobius values are computed patchwise by
inverting the finite patch zeta matrix.  Built-in families: the simplex-like
categories of order-preserving injections and surjections, the divisibility
poset, and the chain of naturals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional

from .category import Arrow, FinCategory, poset_to_category
from .errors import MalformedInput, NotInvertible, UnsupportedRig
from .matrixrig import RigMatrix, invert_counting_matrix
from .rigs import Rig


@dataclass(frozen=True)
class PatchOracleCategory:
    """Category presented by pure oracles.

    patch_objects(a, b) must list exactly the objects c with maps
    a -> c -> b; hom_count(a, a) >= 1.  patch_materialize, when present,
    builds the patch as an explicit finite category so the fine theory can
    be exercised on it.
    """

    name: str
    hom_count: Callable[[object, object], int]
    patch_objects: Callable[[object, object], tuple]
    patch_materialize: Optional[Callable[[object, object], FinCategory]] = None


def oracle_zeta(c: PatchOracleCategory, a, b, rig: Rig):
    """Hom-set cardinality embedded in a characteristic-zero rig."""
    if not rig.characteristic_zero:
        raise UnsupportedRig("zeta of an oracle category needs a characteristic-zero rig")
    return rig.from_int(c.hom_count(a, b))


def patchwise_mobius(c: PatchOracleCategory, a, b, rig: Rig):
    """Coarse Mobius value at (a, b), computed inside the finite patch.

    When hom(a, b) is empty the value is zero (zero-pattern inheritance);
    otherwise the patch zeta matrix is inverted exactly and its (a, b)
    entry returned.  The value depends on the patch alone: any index set
    that holds the patch of every pair with a map, and whose inverse zeta
    is zero where zeta is, gives the same (a, b) entry, because a nonzero
    term mu(u,z) zeta(z,v) with u, v in the patch forces z into it.
    family_mobius reads a whole table off one such inversion and calls
    this function pair by pair only when that inversion does not apply.
    """
    if c.hom_count(a, b) == 0:
        return rig.zero
    objs = tuple(c.patch_objects(a, b))
    counts = [[c.hom_count(x, y) for y in objs] for x in objs]
    try:
        inverse = invert_counting_matrix(counts, rig)
    except NotInvertible as e:
        raise NotInvertible(
            f"patch at ({a!r},{b!r}) of {c.name} has no coarse Mobius inversion",
            witness=("patch", a, b),
        ) from e
    return inverse.entry(objs.index(a), objs.index(b))


def family_mobius(c: PatchOracleCategory, start: int, end: int, rig: Rig) -> RigMatrix:
    """Table of patchwise_mobius(c, m, n, rig) for m, n in start..end.

    When the patch of every pair with a map lies inside start..end, one
    invert_counting_matrix of the hom-counts on start..end gives the whole
    table: if that inverse mu is zero wherever the counts are, then for
    u, v in patch(m,n) every nonzero term mu(u,z) zeta(z,v) has maps
    m -> u -> z -> v -> n, so z lies in the patch, mu restricted to the
    patch inverts the patch zeta, and mu(m,n) is the patch answer.  All
    four built-in families have their patches inside any interval.

    When a patch leaves the interval, or the inversion raises
    NotInvertible, or the inverse is not rig.zero where a count is zero
    (by identity: _land lands every zero as rig.zero, and rig.eq would
    forgive a small float), the table is filled pair by pair with
    patchwise_mobius, whose first failing patch raises NotInvertible.  A
    rig without from_quotient raises UnsupportedRig, even with no maps.
    """
    indices = range(start, end + 1)
    counts = [[c.hom_count(m, n) for n in indices] for m in indices]
    inside = set(indices)
    closed = all(
        inside.issuperset(c.patch_objects(m, n))
        for m, row in zip(indices, counts)
        for n, count in zip(indices, row)
        if count
    )
    if closed:
        try:
            inverse = invert_counting_matrix(counts, rig)
        except NotInvertible:
            pass
        else:
            zero = rig.zero
            if all(
                x is zero
                for count_row, row in zip(counts, inverse.rows)
                for count, x in zip(count_row, row)
                if not count
            ):
                return inverse
    return RigMatrix.from_rows(
        rig, [[patchwise_mobius(c, m, n, rig) for n in indices] for m in indices]
    )


# built-in families


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


def _dinj_hom(m, n) -> int:
    if m < 0 or n < 0:
        return 0
    return comb(n, m) if m <= n else 0


def _dsurj_hom(m, n) -> int:
    if m == 0 and n == 0:
        return 1
    if n <= 0 or m < n:
        return 0
    return comb(m - 1, n - 1)


def _interval(a, b):
    return tuple(range(a, b + 1))


def builtin(family: str) -> PatchOracleCategory:
    """Built-in patch-finite families: dinj | dsurj | divisibility | nat_leq."""
    if family == "dinj":
        return PatchOracleCategory(
            name="dinj",
            hom_count=_dinj_hom,
            patch_objects=lambda a, b: _interval(a, b) if a <= b else (),
            patch_materialize=lambda a, b: _map_category(
                _interval(a, b), _monotone_injections, "inj"
            ),
        )
    if family == "dsurj":
        def patch_objs(a, b):
            if a == b == 0:
                return (0,)
            if a >= b >= 1:
                return _interval(b, a)
            return ()

        return PatchOracleCategory(
            name="dsurj",
            hom_count=_dsurj_hom,
            patch_objects=patch_objs,
            patch_materialize=lambda a, b: _map_category(
                patch_objs(a, b), _monotone_surjections, "surj"
            ),
        )
    if family == "divisibility":
        def patch_objs(a, b):
            if a < 1 or b < 1 or b % a != 0:
                return ()
            return tuple(d for d in range(a, b + 1, a) if b % d == 0)

        def materialize(a, b):
            objs = patch_objs(a, b)
            return poset_to_category(objs, [(x, y) for x in objs for y in objs if y % x == 0])

        return PatchOracleCategory(
            name="divisibility",
            hom_count=lambda a, b: 1 if a >= 1 and b >= 1 and b % a == 0 else 0,
            patch_objects=patch_objs,
            patch_materialize=materialize,
        )
    if family == "nat_leq":
        return PatchOracleCategory(
            name="nat_leq",
            hom_count=lambda a, b: 1 if a <= b else 0,
            patch_objects=lambda a, b: _interval(a, b) if a <= b else (),
            patch_materialize=lambda a, b: poset_to_category(
                _interval(a, b), [(x, y) for x in _interval(a, b) for y in _interval(a, b) if x <= y]
            ),
        )
    raise MalformedInput(f"unknown built-in family '{family}'")


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
