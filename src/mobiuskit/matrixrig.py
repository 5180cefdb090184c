"""Dense square matrices over a rig.

Provides the subtraction-free determinant and adjugate halves (even/odd
permutation sums), the transitive-matrix predicate, the two identities
they satisfy, zero-pattern inheritance for inverses, and inversion.
Every exact solve in the package (coarse inverses, family tables, invert
over an exact rig, fine convolution blocks) goes through one
fraction-free elimination, _bareiss, sparse at every step whose pivot
equals the one before, and lands its integer result Y / d in a rig
through the rig's from_quotient (_land), with one exception
on the route of invert_counting_matrix: an integer matrix that is
unitriangular up to a simultaneous permutation of its rows and columns,
as the hom-counts of a Mobius category are along a linear extension,
is solved with d = 1 by _unitriangular_inverse, in one forward pass of
Rota's recursion mu(a,b) = -sum mu(a,c) zeta(c,b).  Every count-matrix
inverse is invert_counting_matrix's, under one rig rule: the rig needs
from_quotient, and over a rig without division the inverse must be
integral.  A rig whose equality has a tolerance (Rig.exact False, the
floating reals) has its own magnitude-pivot elimination in invert.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, permutations, repeat
from math import lcm

from .errors import (
    BudgetExceeded,
    MalformedInput,
    NotAnInverse,
    NotInvertible,
    RigMismatch,
    UnsupportedRig,
)
from .rigs import Rig

# Permutation enumeration is n! work; beyond this it is not worth waiting for.
MAX_PERMUTATION_DIM = 9

# is_transitive visits each (node, product) state once, but distinct entries
# such as primes make the products along paths all distinct, so the states
# grow exponentially with n (14 rows of distinct primes did not finish in a
# minute).  The largest search in the test suite visits about 24 000 states;
# 200 000 take about a second on a 2-vCPU x86 machine.
MAX_TRANSITIVE_STATES = 200_000


@dataclass(frozen=True)
class RigMatrix:
    rig: Rig
    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise MalformedInput(f"matrix is not square: {n} rows, row of length {len(row)}")

    @classmethod
    def from_rows(cls, rig: Rig, rows) -> "RigMatrix":
        return cls(rig, tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, rig: Rig, n: int) -> "RigMatrix":
        return cls.from_rows(
            rig, [[rig.one if i == j else rig.zero for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rig: Rig, n: int) -> "RigMatrix":
        return cls.from_rows(rig, [[rig.zero] * n for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def add(self, other: "RigMatrix") -> "RigMatrix":
        self._check_compatible(other)
        rig = self.rig
        return RigMatrix.from_rows(
            rig,
            [
                [rig.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def mul(self, other: "RigMatrix") -> "RigMatrix":
        self._check_compatible(other)
        rig = self.rig
        n = self.n
        cols = list(zip(*other.rows))
        return RigMatrix.from_rows(
            rig,
            [
                [rig.sum(rig.mul(self.rows[i][k], cols[j][k]) for k in range(n)) for j in range(n)]
                for i in range(n)
            ],
        )

    def scale(self, c) -> "RigMatrix":
        rig = self.rig
        return RigMatrix.from_rows(rig, [[rig.mul(c, x) for x in row] for row in self.rows])

    def kronecker(self, other: "RigMatrix") -> "RigMatrix":
        """Kronecker product; block (i,j) is entry(i,j) * other."""
        self._check_rig(other)
        rig = self.rig
        rows = []
        for i in range(self.n):
            for k in range(other.n):
                rows.append(
                    [
                        rig.mul(self.rows[i][j], other.rows[k][l])
                        for j in range(self.n)
                        for l in range(other.n)
                    ]
                )
        return RigMatrix.from_rows(rig, rows)

    def equal(self, other: "RigMatrix") -> bool:
        self._check_compatible(other)
        eq = self.rig.eq
        return all(
            eq(a, b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def entry_sum(self):
        # adding rig.zero changes nothing, and a float total that starts at
        # 0.0 is never -0.0, so skipping those entries is bit-identical
        zero = self.rig.zero
        return self.rig.sum(x for row in self.rows for x in row if x is not zero)

    def _check_rig(self, other: "RigMatrix"):
        if self.rig is not other.rig and self.rig.name != other.rig.name:
            raise RigMismatch(f"matrices over {self.rig.name} and {other.rig.name}")

    def _check_compatible(self, other: "RigMatrix"):
        self._check_rig(other)
        if self.n != other.n:
            raise MalformedInput(f"dimension mismatch: {self.n} vs {other.n}")


def _permutation_parity(perm) -> int:
    """0 for even, 1 for odd, by counting inversions."""
    inversions = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                inversions += 1
    return inversions & 1


def _check_budget(m: RigMatrix):
    if m.n > MAX_PERMUTATION_DIM:
        raise BudgetExceeded(f"permutation enumeration limited to n <= {MAX_PERMUTATION_DIM}, got {m.n}")


def _det_halves(m: RigMatrix):
    _check_budget(m)
    rig = m.rig
    halves = [rig.zero, rig.zero]
    for perm in permutations(range(m.n)):
        term = rig.prod(m.rows[r][perm[r]] for r in range(m.n))
        parity = _permutation_parity(perm)
        halves[parity] = rig.add(halves[parity], term)
    return halves[0], halves[1]


def det_plus(m: RigMatrix):
    """Sum over even permutations of the entry products."""
    return _det_halves(m)[0]


def det_minus(m: RigMatrix):
    """Sum over odd permutations of the entry products."""
    return _det_halves(m)[1]


def _adj_halves(m: RigMatrix):
    _check_budget(m)
    rig = m.rig
    n = m.n
    plus = [[rig.zero] * n for _ in range(n)]
    minus = [[rig.zero] * n for _ in range(n)]
    for perm in permutations(range(n)):
        parity = _permutation_parity(perm)
        target = plus if parity == 0 else minus
        for j in range(n):
            term = rig.prod(m.rows[r][perm[r]] for r in range(n) if r != j)
            i = perm[j]
            target[i][j] = rig.add(target[i][j], term)
    return RigMatrix.from_rows(rig, plus), RigMatrix.from_rows(rig, minus)


def adj_plus(m: RigMatrix) -> RigMatrix:
    """Even-permutation half of the adjugate (classical adjoint)."""
    return _adj_halves(m)[0]


def adj_minus(m: RigMatrix) -> RigMatrix:
    return _adj_halves(m)[1]


def is_transitive(m: RigMatrix):
    """Decide whether nonzero entry products along index paths force nonzero
    direct entries.

    Returns (True, None) or (False, witness_path).  Paths of up to n edges
    are explored breadth-first from every row containing a zero; a running
    product of zero prunes, and a repeated (node, product-value) state is
    skipped, which is safe because breadth-first order reaches each state
    at its minimal depth, so the skipped copy has no continuations the
    first one lacked.  The bound n is exact for rigs without zero divisors
    (a violating path shortens to a simple one); for rigs with zero
    divisors the bounded search is a sound approximation of the unbounded
    definition.  A search that would visit more than MAX_TRANSITIVE_STATES
    states, summed over the start rows, raises BudgetExceeded.
    """
    rig = m.rig
    n = m.n
    trivial_rig = rig.eq(rig.zero, rig.one)
    # p = 0 clause: a zero diagonal entry forces 1 = 0.
    for i in range(n):
        if rig.is_zero(m.rows[i][i]) and not trivial_rig:
            return False, (i,)
    states = 0
    for start in range(n):
        zero_set = {j for j in range(n) if rig.is_zero(m.rows[start][j])}
        if not zero_set:
            continue
        seen = {(start, rig.one)}
        queue = deque([(start, rig.one, 0, (start,))])
        while queue:
            node, product, depth, path = queue.popleft()
            if depth >= n:
                continue
            for nxt in range(n):
                step = m.rows[node][nxt]
                if rig.is_zero(step):
                    continue
                new_product = rig.mul(product, step)
                if rig.is_zero(new_product):
                    continue
                if nxt in zero_set:
                    return False, path + (nxt,)
                key = (nxt, new_product)
                if key in seen:
                    continue
                states += 1
                if states > MAX_TRANSITIVE_STATES:
                    raise BudgetExceeded(
                        f"transitivity search limited to {MAX_TRANSITIVE_STATES} (node, product) states"
                    )
                seen.add(key)
                queue.append((nxt, new_product, depth + 1, path + (nxt,)))
    return True, None


@dataclass(frozen=True)
class LemmaIdentityReport:
    det_identity_holds: bool
    adjugate_identity_holds: bool

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
    dpx, dmx = _det_halves(x)
    dpy, dmy = _det_halves(y)
    dpxy, dmxy = _det_halves(x.mul(y))
    lhs = rig.sum([rig.mul(dpx, dpy), rig.mul(dmx, dmy), dmxy])
    rhs = rig.sum([rig.mul(dpx, dmy), rig.mul(dmx, dpy), dpxy])
    det_ok = rig.eq(lhs, rhs)

    ap, am = _adj_halves(x)
    ident = RigMatrix.identity(rig, x.n)
    left = x.mul(ap).add(ident.scale(dmx))
    right = x.mul(am).add(ident.scale(dpx))
    adj_ok = left.equal(right)
    return LemmaIdentityReport(det_ok, adj_ok)


def inverse_zero_check(z: RigMatrix, zinv: RigMatrix):
    """Confirm zero-pattern inheritance: z[i][j] = 0 implies zinv[i][j] = 0.

    Requires zinv to actually be a two-sided inverse of z.  Returns
    (True, None), or (False, (i, j)) with the violating position.
    """
    z._check_compatible(zinv)
    ident = RigMatrix.identity(z.rig, z.n)
    if not (z.mul(zinv).equal(ident) and zinv.mul(z).equal(ident)):
        raise NotAnInverse("second argument is not a two-sided inverse of the first")
    for i in range(z.n):
        for j in range(z.n):
            if z.rig.is_zero(z.rows[i][j]) and not z.rig.is_zero(zinv.rows[i][j]):
                return False, (i, j)
    return True, None


def invert(m: RigMatrix) -> RigMatrix:
    """Two-sided inverse.

    Over an exact rig the inverse is invert_counting_matrix's, with its
    rig rule: the rig needs from_quotient, and over a rig without division
    (int) a non-integral inverse raises NotInvertible.  Over an inexact
    rig (the floating reals) Gauss-Jordan elimination pivots on the
    largest magnitude, for stability, and a pivot within the rig's
    tolerance of zero counts as none.  A singular matrix raises
    NotInvertible naming the first column with no pivot.
    """
    rig = m.rig
    if rig.exact:
        return invert_counting_matrix(m.rows, rig)
    n = m.n
    a = [list(row) for row in m.rows]
    b = [[rig.one if i == j else rig.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = None
        best = 0.0
        for r in range(col, n):
            if abs(a[r][col]) > best:
                best = abs(a[r][col])
                pivot_row = r
        if pivot_row is None or rig.is_zero(a[pivot_row][col]):
            raise NotInvertible(
                f"singular matrix: no pivot in column {col}", witness=("column", col)
            )
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        scale = rig.inv(a[col][col])
        a[col] = [rig.mul(scale, x) for x in a[col]]
        b[col] = [rig.mul(scale, x) for x in b[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if rig.is_zero(factor):
                continue
            a[r] = [rig.sub(x, rig.mul(factor, y)) for x, y in zip(a[r], a[col])]
            b[r] = [rig.sub(x, rig.mul(factor, y)) for x, y in zip(b[r], b[col])]
    return RigMatrix.from_rows(rig, b)


def _bareiss(rows, rhs):
    """Solve rows . X = rhs by fraction-free Gauss-Jordan elimination.

    rows is a square integer matrix and rhs an integer matrix with as many
    rows.  Returns (d, Y) with Y integral and X = Y / d.  Every
    intermediate division is exact by Sylvester's identity (Bareiss,
    Math. Comp. 22, 1968), which keeps the arithmetic in plain integers
    with no per-step gcd.  This is the package's one exact elimination.
    A step whose pivot equals the previous one touches only the rows with
    a nonzero factor and the pivot row's nonzero columns.

    The pivot of column k is the first row from k on that is nonzero
    there.  When there is none, column k depends on the columns before it
    and NotInvertible names it.  That is the first column where the rank
    of the leading columns stops growing, so it does not depend on the
    pivot choice or on how the rows are scaled.
    """
    n = len(rows)
    m = [[*row, *extra] for row, extra in zip(rows, rhs)]
    width = len(m[0]) if m else 0
    prev = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            raise NotInvertible(
                f"singular matrix: no pivot in column {k}", witness=("column", k)
            )
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        row_k = m[k]
        # when pivot == prev the update leaves row_i[j] as it is wherever
        # factor or row_k[j] is 0, so those rows and columns are skipped
        same = pivot == prev
        columns = [j for j in compress(range(width), row_k) if j != k] if same else range(width)
        for i in range(n):
            row_i = m[i]
            factor = row_i[k]
            if i == k or same and not factor:
                continue
            for j in columns:
                quotient, remainder = divmod(pivot * row_i[j] - factor * row_k[j], prev)
                if remainder:
                    raise ArithmeticError("inexact Bareiss division")
                row_i[j] = quotient
            row_i[k] = 0
        prev = pivot
    # every diagonal entry is now the last pivot, the determinant up to
    # sign (1 when n = 0)
    return prev, [row[n:] for row in m]


def _to_integers(values):
    """(e, [e v for v in values]) with e the LCM of the denominators.

    as_integer_ratio reads int, Fraction and float values exactly.
    """
    ratios = [v.as_integer_ratio() for v in values]
    e = lcm(*(q for _, q in ratios))
    return e, [p * (e // q) for p, q in ratios]


def _identity_rows(n: int):
    # a generator, so the identity is not held beside the augmented copy
    # that _bareiss builds (about 0.5 MB at n = 240)
    return ([1 if i == j else 0 for j in range(n)] for i in range(n))


def _unitriangular_inverse(rows):
    """The inverse of an integer matrix with every diagonal entry 1 whose
    off-diagonal nonzero pattern is acyclic, or None for any other matrix.

    Kahn's algorithm orders the indices so that k comes before j whenever
    rows[k][j] is a nonzero off-diagonal entry; along that order the
    matrix is upper unitriangular, and so is its inverse Y.  Row m of
    Y . X = I then solves forward: y(m,m) = 1, and each nonzero y(m,k),
    final once every index before k has been pushed, pushes
    -y(m,k) x(k,j) into the later columns j.  The walk visits every index
    after m, not only row m's support, because Y may be nonzero where X
    is zero when the pattern is not transitive.
    """
    n = len(rows)
    later = []  # later[k]: the (j, x) with x = rows[k][j] nonzero, j != k
    indegree = [0] * n
    for k, row in enumerate(rows):
        if row[k] != 1:
            return None
        support = [(j, row[j]) for j in compress(range(n), row) if j != k]
        for j, _ in support:
            indegree[j] += 1
        later.append(support)
    order = [k for k in range(n) if not indegree[k]]
    for k in order:  # grows while it is walked
        for j, _ in later[k]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        return None
    inverse = [None] * n
    for position, m in enumerate(order):
        y = [0] * n
        y[m] = 1
        for k in order[position:]:
            v = y[k]
            if v:
                for j, x in later[k]:
                    y[j] -= v * x
        inverse[m] = y
    return inverse


def _inverse(rows):
    """(d, Y) with Y / d the inverse of a square matrix of rationals."""
    n = len(rows)
    if all(map(isinstance, chain.from_iterable(rows), repeat(int))):
        inverse = _unitriangular_inverse(rows)
        if inverse is not None:
            return 1, inverse
        return _bareiss(rows, _identity_rows(n))
    # each equation times the LCM of its row's denominators: same solution
    scales, integral = zip(*map(_to_integers, rows))
    return _bareiss(integral, ([e if i == j else 0 for j in range(n)] for i, e in enumerate(scales)))


def _land(rig: Rig, d: int, rows):
    """Integer rows as the rig elements x / d; over a rig without division
    d divides every x.  A zero x is rig.zero, never -0.0 when d < 0.  A
    quotient beyond the range of a float is NotInvertible."""
    quotient, zero = rig.from_quotient, rig.zero
    try:
        return [[quotient(x, d) if x else zero for x in row] for row in rows]
    except OverflowError:
        raise NotInvertible(
            f"an inverse entry is beyond the range of rig '{rig.name}'", witness=("overflow", None)
        ) from None


def invert_counting_matrix(rows, rig: Rig) -> RigMatrix:
    """Invert a matrix of counts (or other rationals) in the requested rig.

    The exact inverse comes from the forward pass of
    _unitriangular_inverse when the rows are integers that qualify, and
    from the fraction-free kernel _bareiss otherwise, so the only rational
    division per entry happens at the very end, when the entries land in
    the rig (_land).  The rig needs from_quotient; over a rig without
    division every entry must come out integral.
    """
    if rig.from_quotient is None:
        raise UnsupportedRig(f"inversion of counting matrices unsupported over '{rig.name}'")
    d, scaled = _inverse(rows)
    if d != 1 and not rig.has_division:
        for i, row in enumerate(scaled):
            for j, x in enumerate(row):
                if x % d:
                    x = Fraction(x, d)
                    raise NotInvertible(
                        f"inverse entry ({i},{j}) = {x} is not an integer",
                        witness=("non-integral", i, j, str(x)),
                    )
    return RigMatrix.from_rows(rig, _land(rig, d, scaled))

