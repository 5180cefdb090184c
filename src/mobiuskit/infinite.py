"""Patch-finite infinite categories presented by oracles.

A possibly-infinite category is given by a hom-cardinality oracle and a
finite-patch oracle; coarse Mobius values are computed patchwise by
inverting the finite patch zeta matrix.  Built-in families: the simplex-like
categories of order-preserving injections and surjections, the divisibility
poset, and the chain of naturals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from math import comb
from operator import is_not
from typing import Callable, Iterable, Optional

from .errors import MalformedInput, NotInvertible, UnsupportedRig
from .matrixrig import RigMatrix, invert_counting_matrix
from .rigs import Rig


@dataclass(frozen=True)
class PatchOracleCategory:
    """Category presented by pure oracles.

    patch_objects(a, b) must list exactly the objects c with maps
    a -> c -> b; hom_count(a, a) >= 1.  targets, when present, lists for
    an integer object m and a range start..end some integers n of that
    range that include every n with hom_count(m, n) != 0, so family_mobius
    counts about as many hom-sets as there are maps instead of every pair
    of the range; family_mobius refuses a listed n outside the range.
    """

    name: str
    hom_count: Callable[[object, object], int]
    patch_objects: Callable[[object, object], tuple]
    targets: Optional[Callable[[int, int, int], Iterable[int]]] = None


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

    The counts are read at the pairs c.targets names, or at every pair
    when c has no targets; a listed n outside start..end raises
    MalformedInput.  The patches are read only where a count is nonzero.
    """
    indices = range(start, end + 1)
    listed = c.targets or (lambda m, start, end: indices)
    counts = []
    for m in indices:
        row = [0] * len(indices)
        for n in listed(m, start, end):
            if not start <= n <= end:
                raise MalformedInput(f"targets of {c.name} list {n!r} for {m!r}, outside {start}..{end}")
            row[n - start] = c.hom_count(m, n)
        counts.append(row)
    inside = set(indices)
    closed = all(
        inside.issuperset(c.patch_objects(m, n))
        for m, row in zip(indices, counts)
        for n in compress(indices, row)
    )
    if closed:
        try:
            inverse = invert_counting_matrix(counts, rig)
        except NotInvertible:
            pass
        else:
            zero = rig.zero
            columns = range(len(indices))
            # in each row, every column where the inverse is not rig.zero
            # has a nonzero count
            if all(
                all(map(count_row.__getitem__, compress(columns, map(is_not, row, repeat(zero)))))
                for count_row, row in zip(counts, inverse.rows)
            ):
                return inverse
    return RigMatrix.from_rows(
        rig, [[patchwise_mobius(c, m, n, rig) for n in indices] for m in indices]
    )


# built-in families


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


def _targets_from_source(m, start, end):
    """dinj and nat_leq: maps m -> n only for n >= m."""
    return range(max(m, start), end + 1)


def _dsurj_targets(m, start, end):
    """Maps m -> n only for 1 <= n <= m, or 0 -> 0."""
    return range(max(min(m, 1), start), min(m, end) + 1)


def _divisibility_targets(m, start, end):
    """Maps m -> n only for the multiples n >= m of m >= 1."""
    if m < 1:
        return ()
    return range(m * max(1, -(-start // m)), end + 1, m)


def builtin(family: str) -> PatchOracleCategory:
    """Built-in patch-finite families: dinj | dsurj | divisibility | nat_leq."""
    if family == "dinj":
        return PatchOracleCategory(
            name="dinj",
            hom_count=_dinj_hom,
            patch_objects=lambda a, b: _interval(a, b) if a <= b else (),
            targets=_targets_from_source,
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
            targets=_dsurj_targets,
        )
    if family == "divisibility":
        def patch_objs(a, b):
            if a < 1 or b < 1 or b % a != 0:
                return ()
            return tuple(d for d in range(a, b + 1, a) if b % d == 0)

        return PatchOracleCategory(
            name="divisibility",
            hom_count=lambda a, b: 1 if a >= 1 and b >= 1 and b % a == 0 else 0,
            patch_objects=patch_objs,
            targets=_divisibility_targets,
        )
    if family == "nat_leq":
        return PatchOracleCategory(
            name="nat_leq",
            hom_count=lambda a, b: 1 if a <= b else 0,
            patch_objects=lambda a, b: _interval(a, b) if a <= b else (),
            targets=_targets_from_source,
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
