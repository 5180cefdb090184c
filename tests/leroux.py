"""Leroux's alternating chain count, the tests' oracle for Mobius functions.

It uses no linear algebra: mu(f) = sum over n of (-1)^n (number of chains
of n non-identity arrows composing to f), Hall's chain count when the
category is a poset.  The fine solve is held to chain_counts(c), and
nerve_euler_characteristic to the sum of its values.
"""

from mobiuskit.category import FinCategory
from mobiuskit.errors import NotNerveFinite


def chain_counts(c: FinCategory) -> dict:
    """arrow f -> sum over n of (-1)^n (number of chains of n non-identity
    arrows composing to f), counted level by level (Leroux 1975).

    level_0 holds the identities, one each, and level_{k+1}(f) sums
    level_k(g) over the factorizations f = h o g with h not an identity.
    A chain of n = |objects| non-identity arrows revisits an object, and
    one exists exactly when the category has a nontrivial endomorphism or
    an isomorphism between distinct objects; a nonempty level n is
    therefore the NotNerveFinite refusal, and otherwise the count stops
    at the first empty level, at most n.
    """
    after: dict = {}
    for f, pairs in c.factorizations().items():
        for g, h in pairs:
            if not c.is_identity(h):
                after.setdefault(g, []).append(f)
    level = {name: 1 for name in c.identity.values()}
    counts = dict.fromkeys(c.arrow_names(), 0)
    sign = 1
    for _ in range(len(c.objects)):
        if not level:
            break
        nxt: dict = {}
        for g, count in level.items():
            counts[g] += sign * count
            for f in after.get(g, ()):
                nxt[f] = nxt.get(f, 0) + count
        level = nxt
        sign = -sign
    if level:
        raise NotNerveFinite(
            "nerve Euler characteristic needs a skeletal category with no nontrivial endomorphisms"
        )
    return counts
