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
  a monoid homomorphism on sampled hom-descriptors.
"""

from mobiuskit._record import Frozen
from mobiuskit.category import FinCategory, Functor, enumerate_subcategories
from mobiuskit.enriched import SizeAssignment
from mobiuskit.errors import BudgetExceeded, MalformedInput, NotInvertible
from mobiuskit.functoriality import pullback_transform, pushforward
from mobiuskit.incidence import fine_basis, fine_convolve, fine_delta, fine_mobius
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
