"""Coarse and patch incidence built pair by pair, the tests' reference for
the hom-table reads.

Every function asks len(c.hom(a, b)) of each ordered object pair, in row-
major order, and checks a patch result by comparing every entry with
rig.zero through rig.eq.  The package reads the same figures off the
nonempty hom-sets (FinCategory.nonempty_homs) and compares only the
entries that are not the rig.zero object; both must give the same values,
types, messages and witnesses.
"""

from mobiuskit.category import FinCategory
from mobiuskit.errors import NotInvertible, RigMismatch
from mobiuskit.incidence import FineElement
from mobiuskit.matrixrig import invert_counting_matrix
from mobiuskit.rigs import Rig


def coarse_zeta_rows(c: FinCategory, rig: Rig) -> list:
    return [[rig.from_int(len(c.hom(a, b))) for b in c.objects] for a in c.objects]


def coarse_mobius_rows(c: FinCategory, rig: Rig) -> tuple:
    counts = [[len(c.hom(a, b)) for b in c.objects] for a in c.objects]
    try:
        return invert_counting_matrix(counts, rig).rows
    except NotInvertible as e:
        if e.witness and e.witness[0] == "column":
            col = e.witness[1]
            raise NotInvertible(
                f"coarse zeta is singular: no pivot for object {c.objects[col]!r}",
                witness=e.witness,
            )
        raise


def sigma_to_coarse_rows(x: FineElement) -> list:
    c, rig = x.category, x.rig
    return [[rig.sum(x.values[f] for f in c.hom(a, b)) for b in c.objects] for a in c.objects]


def support(c: FinCategory) -> frozenset:
    return frozenset((a, b) for a in c.objects for b in c.objects if c.hom(a, b))


def patch_mobius_rows(c: FinCategory, rig: Rig) -> tuple:
    """The coarse inverse, with every entry off the support checked by eq."""
    rows = coarse_mobius_rows(c, rig)
    pairs = support(c)
    for a, row in zip(c.objects, rows):
        for b, value in zip(c.objects, row):
            if not rig.eq(value, rig.zero) and (a, b) not in pairs:
                raise RigMismatch(f"patch element has a nonzero value off-support at ({a!r},{b!r})")
    return rows
