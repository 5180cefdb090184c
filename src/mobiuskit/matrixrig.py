"""Dense square matrices over a rig.

Provides the subtraction-free determinant and adjugate halves (even/odd
permutation sums), the transitive-matrix predicate, zero-pattern
inheritance for inverses, and inversion.
Every exact solve in the package is one call of _solve, the one place
that chooses between a forward push and the fraction-free elimination
_bareiss: the inverse of a count matrix (_counting_inverse, on the
nonzero entries of each row: invert_counting_matrix behind coarse and
patch mu and invert over an exact rig, and family tables) and fine
convolution inversion (incidence.fine_invert).  Its integer result
W / d lands in a rig through the rig's from_quotient (_land); over a rig
without division it must be integral.  A rig whose equality has a
tolerance (Rig.exact False, the floating reals) has its own
magnitude-pivot elimination in invert.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, compress, permutations, repeat
from math import lcm
from operator import mul

from ._record import Frozen
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


class RigMatrix(Frozen):
    __slots__ = ("rig", "rows")

    def __init__(self, rig: Rig, rows: tuple):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise MalformedInput(f"matrix is not square: {n} rows, row of length {len(row)}")
        object.__setattr__(self, "rig", rig)
        object.__setattr__(self, "rows", rows)

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


def det_halves(m: RigMatrix):
    """(det+, det-): the sums over the even and over the odd permutations
    of the entry products, from one expansion."""
    _check_budget(m)
    rig = m.rig
    halves = [rig.zero, rig.zero]
    for perm in permutations(range(m.n)):
        term = rig.prod(m.rows[r][perm[r]] for r in range(m.n))
        parity = _permutation_parity(perm)
        halves[parity] = rig.add(halves[parity], term)
    return halves[0], halves[1]


def adj_halves(m: RigMatrix):
    """(adj+, adj-): the even- and odd-permutation halves of the adjugate
    (classical adjoint), from one expansion."""
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


def inverse_zero_check(z: RigMatrix, zinv: RigMatrix):
    """Confirm zero-pattern inheritance: z[i][j] = 0 implies zinv[i][j] = 0.

    Requires zinv to actually be a two-sided inverse of z.  Returns
    (True, None), or (False, (i, j)) with the violating position.

    Over an exact rig that exact solves land in (from_quotient, so its
    elements are rationals under + and *), both products are taken in
    integers: with Z = e z and Y = d zinv, e and d the LCMs of their
    denominators, zinv inverts z on both sides exactly when Z Y and Y Z
    are e d times the identity.  Any other rig multiplies in the rig.
    """
    z._check_compatible(zinv)
    rig, n = z.rig, z.n
    if rig.exact and rig.from_quotient is not None:
        e, scaled = _to_integers(list(chain.from_iterable(z.rows)))
        d, inverse = _to_integers(list(chain.from_iterable(zinv.rows)))
        z_rows = [scaled[i * n : i * n + n] for i in range(n)]
        y_rows = [inverse[i * n : i * n + n] for i in range(n)]
        two_sided = _is_scaled_identity(z_rows, y_rows, e * d) and _is_scaled_identity(y_rows, z_rows, e * d)
    else:
        ident = RigMatrix.identity(rig, n)
        two_sided = z.mul(zinv).equal(ident) and zinv.mul(z).equal(ident)
    if not two_sided:
        raise NotAnInverse("second argument is not a two-sided inverse of the first")
    for i in range(z.n):
        for j in range(z.n):
            if z.rig.is_zero(z.rows[i][j]) and not z.rig.is_zero(zinv.rows[i][j]):
                return False, (i, j)
    return True, None


def _is_scaled_identity(a, b, s) -> bool:
    """Whether the product of the integer matrices a and b is s times the
    identity, one C-level inner product per entry."""
    columns = list(zip(*b))
    return all(
        sum(map(mul, row, column)) == (s if i == j else 0)
        for i, row in enumerate(a)
        for j, column in enumerate(columns)
    )


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

    All-int values come back as they are, with e = 1; as_integer_ratio
    reads int, Fraction and float values exactly.
    """
    if all(map(isinstance, values, repeat(int))):
        return 1, values
    ratios = [v.as_integer_ratio() for v in values]
    e = lcm(*(q for _, q in ratios))
    return e, [p * (e // q) for p, q in ratios]


def _kahn_order(later):
    """The indices 0..n-1 in an order where k comes before j for every
    (j, _) in later[k], or None when those pairs form a cycle (Kahn's
    algorithm).  A j named twice in later[k] counts twice."""
    indegree = [0] * len(later)
    for terms in later:
        for j, _ in terms:
            indegree[j] += 1
    order = [k for k, count in enumerate(indegree) if not count]
    for k in order:  # grows while it is walked
        for j, _ in later[k]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    return order if len(order) == len(later) else None


def _push_forward(w, order, later):
    """Solve w . A = b in place and return w, where w holds b on entry and
    A is the matrix with unit diagonal and entries a(k, j) = x for the
    (j, x) in later[k], upper triangular along order.  Each w(k), final
    once every index before k has been pushed, pushes -w(k) a(k, j) into
    the later w(j).  Indices outside order are neither read nor pushed."""
    for k in order:
        v = w[k]
        if v:
            for j, x in later[k]:
                w[j] -= v * x
    return w


def _solve(later, diagonal, rhs, blocks):
    """(d, W) with W[m] / d the solution w of w . A = rhs[m], for each m.

    A is the square integer matrix with A[k][k] = diagonal[k] and A[k][j]
    the sum of the x over the (j, x) in later[k]; each rhs[m] is a dict
    {index: integer}, zero at every other index.  blocks partition the
    indices so that A[k][j] = 0 unless k and j share a block.  This is the
    package's one exact solver, and it takes one of two routes.

    When every diagonal entry is 1 and the pairs of later have a Kahn
    order (_kahn_order), A is unitriangular along that order, as the
    hom-count matrix and the fine zeta of a Mobius category are along a
    linear extension (Leroux).  Each right-hand side is then pushed
    forward (_push_forward) from the first of its indices in the order,
    with d = 1 and no division.  Otherwise each block's equations go to
    _bareiss with every right-hand side at once, and the block solutions
    are put over d, the LCM of the block determinants.

    Equation j reads column j of A, so the blocks eliminate A transposed.
    A singular system raises NotInvertible naming the smallest unknown k
    without a pivot: the first row of A that depends on the rows before
    it, since rows of different blocks share no columns.
    """
    n = len(diagonal)
    order = _kahn_order(later) if diagonal.count(1) == n else None
    if order is not None:
        position = dict(zip(order, range(n)))
        solutions = []
        for b in rhs:
            w = [0] * n
            for k in b:
                w[k] = b[k]
            start = min(map(position.__getitem__, b)) if b else n
            solutions.append(_push_forward(w, order[start:], later))
        return 1, solutions
    # equations[j]: the coefficients A[k][j] of the unknowns w(k) of j's block
    position = [0] * n
    equations = [None] * n
    for block in blocks:
        for p, k in enumerate(block):
            position[k] = p
            equations[k] = [0] * len(block)
    for k, terms in enumerate(later):
        p = position[k]
        equations[k][p] = diagonal[k]
        for j, x in terms:
            equations[j][p] += x
    solved, failures = [], []
    for block in blocks:
        right = [[b.get(j, 0) for b in rhs] for j in block]
        try:
            solved.append((block, *_bareiss([equations[j] for j in block], right)))
        except NotInvertible as err:
            failures.append(block[err.witness[1]])
    if failures:
        k = min(failures)
        raise NotInvertible(f"singular matrix: no pivot in column {k}", witness=("column", k))
    d = lcm(*(block_d for _, block_d, _ in solved))
    solutions = [[0] * n for _ in rhs]
    for block, block_d, values in solved:
        for k, row in zip(block, values):
            for w, v in zip(solutions, row):
                w[k] = v * (d // block_d)
    return d, solutions


def _land(rig: Rig, d: int, rows, columns):
    """Integer rows as the rig elements x / d; over a rig without division
    d divides every x.  columns[m] lists the columns where rows[m] is not
    0: each row is written as [rig.zero] * n and only those columns are
    filled in, so a zero x is rig.zero itself, never -0.0 when d < 0.
    Equal x share one element, built once, since building a Fraction costs
    far more than looking one up.  A quotient beyond the range of a float
    is NotInvertible."""
    quotient, zero, built = rig.from_quotient, rig.zero, {}
    landed = []
    try:
        for row, nonzero in zip(rows, columns):
            out = [zero] * len(row)
            for j in nonzero:
                out[j] = built.get(row[j]) or built.setdefault(row[j], quotient(row[j], d))
            landed.append(out)
    except OverflowError:
        raise NotInvertible(
            f"an inverse entry is beyond the range of rig '{rig.name}'", witness=("overflow", None)
        ) from None
    return landed


def _counting_inverse(rows, rig: Rig):
    """(landed, columns): the inverse of a count matrix as _land's rows, and
    for each row the ascending list of its columns that are not rig.zero.

    rows[k] is a dict {j: x} holding the nonzero entries of row k, and no
    other.  Row m of the inverse Y solves y . C = e_m, one right-hand side
    of one _solve over a single block, which reads its diagonal and later
    from these dicts.  When the entries are not all ints, equation j, which
    reads column j of C, is first multiplied by the LCM of that column's
    denominators.  The only rational division per entry happens when the
    entries land in the rig (_land), and only at a nonzero x: each other
    entry is rig.zero itself, so the columns are exactly those where the
    integer solution is not 0.  The rig needs from_quotient; over a rig
    without division every entry must come out integral.  A singular
    matrix names its first column that depends on the columns before it.
    """
    if rig.from_quotient is None:
        raise UnsupportedRig(f"inversion of counting matrices unsupported over '{rig.name}'")
    n = len(rows)
    scales = [1] * n
    if not all(map(isinstance, chain.from_iterable(map(dict.values, rows)), repeat(int))):
        # as_integer_ratio reads int, Fraction and float entries exactly
        ratios = [{j: x.as_integer_ratio() for j, x in row.items()} for row in rows]
        for row in ratios:
            for j, (_, q) in row.items():
                scales[j] = lcm(scales[j], q)
        rows = [{j: p * (scales[j] // q) for j, (p, q) in row.items()} for row in ratios]
    diagonal = [row.get(k, 0) for k, row in enumerate(rows)]
    later = [[(j, x) for j, x in row.items() if j != k] for k, row in enumerate(rows)]
    try:
        d, scaled = _solve(later, diagonal, [{m: s} for m, s in enumerate(scales)], [range(n)])
    except NotInvertible:
        # _solve names the first dependent row; eliminating C itself names
        # the first dependent column
        _bareiss([[row.get(j, 0) for j in range(n)] for row in rows], [()] * n)
        raise
    columns = [list(compress(range(n), row)) for row in scaled]
    if d != 1 and not rig.has_division:
        for i, (row, nonzero) in enumerate(zip(scaled, columns)):
            for j in nonzero:
                if row[j] % d:
                    x = Fraction(row[j], d)
                    raise NotInvertible(
                        f"inverse entry ({i},{j}) = {x} is not an integer",
                        witness=("non-integral", i, j, str(x)),
                    )
    return _land(rig, d, scaled, columns), columns


def invert_counting_matrix(rows, rig: Rig) -> RigMatrix:
    """Invert a matrix of counts (or other rationals) in the requested rig.

    The dense rows become the dicts of their nonzero entries (a zero of
    any type counts as 0), and _counting_inverse, the one core of every
    count inversion, solves them; family tables call it on their sparse
    hom-counts directly.
    """
    landed, _ = _counting_inverse([dict(compress(enumerate(row), row)) for row in rows], rig)
    return RigMatrix.from_rows(rig, landed)
