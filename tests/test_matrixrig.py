import random
from fractions import Fraction
from itertools import permutations

import pytest

from mobiuskit import matrixrig
from corpus import random_matrix, random_transitive_invertible_matrix
from mobiuskit.errors import BudgetExceeded, NotAnInverse, NotInvertible, UnsupportedRig
from mobiuskit.infinite import builtin
from mobiuskit.matrixrig import (
    RigMatrix,
    adj_halves,
    det_halves,
    invert,
    invert_counting_matrix,
    inverse_zero_check,
    is_transitive,
)
from mobiuskit.rigs import BOOL, INT, NAT, RAT, REAL
from oracles import lemma_identity_check


def reference_determinant(rows):
    """Independent oracle: Leibniz sum with signs (ring entries)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for r in range(n):
            term *= rows[r][perm[r]]
        total += term
    return total


def reference_adjugate(rows):
    """Independent oracle: cofactor transpose."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cofactor = reference_determinant(minor) if minor else 1
            out[i][j] = (-1) ** (i + j) * cofactor
    return out


def test_det_halves_identity():
    ident = RigMatrix.identity(NAT, 4)
    plus, minus = det_halves(ident)
    assert plus == 1
    assert minus == 0


def test_det_halves_2x2_split():
    m = RigMatrix.from_rows(INT, [[5, 7], [2, 3]])
    plus, minus = det_halves(m)
    assert plus == 15  # ad
    assert minus == 14  # bc


def test_det_halves_all_ones_3x3():
    m = RigMatrix.from_rows(NAT, [[1] * 3] * 3)
    plus, minus = det_halves(m)
    assert plus == 3
    assert minus == 3


def test_det_halves_match_reference_determinant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, INT, n)
        plus, minus = det_halves(m)
        assert plus - minus == reference_determinant(m.rows)
    for _ in range(10):
        m = random_matrix(rng, RAT, 4)
        plus, minus = det_halves(m)
        assert plus - minus == reference_determinant(m.rows)


def test_adj_halves_identity():
    ident = RigMatrix.identity(NAT, 3)
    plus, minus = adj_halves(ident)
    assert plus.equal(ident)
    assert minus.equal(RigMatrix.zeros(NAT, 3))


def test_adj_halves_2x2():
    a, b, c, d = 2, 3, 5, 7
    m = RigMatrix.from_rows(INT, [[a, b], [c, d]])
    plus, minus = adj_halves(m)
    assert plus.rows == ((d, 0), (0, a))
    assert minus.rows == ((0, b), (c, 0))


def test_adj_halves_match_reference_adjugate():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(rng, INT, 3)
        plus, minus = adj_halves(m)
        expected = reference_adjugate(m.rows)
        got = [
            [plus.entry(i, j) - minus.entry(i, j) for j in range(3)]
            for i in range(3)
        ]
        assert got == expected


def test_permutation_budget():
    big = RigMatrix.identity(NAT, 10)
    with pytest.raises(BudgetExceeded):
        det_halves(big)
    with pytest.raises(BudgetExceeded):
        adj_halves(big)


def test_lemma_identities_identity_case():
    ident = RigMatrix.identity(NAT, 3)
    report = lemma_identity_check(ident, ident)
    assert report.det_identity_holds and report.adjugate_identity_holds


def test_lemma_identities_random_nat_and_int():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        x = random_matrix(rng, NAT, n)
        y = random_matrix(rng, NAT, n)
        assert lemma_identity_check(x, y).ok
    for _ in range(60):
        n = rng.randint(1, 4)
        x = random_matrix(rng, INT, n)
        y = random_matrix(rng, INT, n)
        assert lemma_identity_check(x, y).ok


def test_lemma_identities_over_truncated_series():
    from mobiuskit.rigs import polynomial_rig

    rng = random.Random(19)
    rig = polynomial_rig(4)
    for _ in range(5):
        x = random_matrix(rng, rig, 4)
        y = random_matrix(rng, rig, 4)
        assert lemma_identity_check(x, y).ok


def test_lemma_identity_budget():
    big = RigMatrix.identity(NAT, 6)
    with pytest.raises(BudgetExceeded):
        lemma_identity_check(big, big)


def test_transitive_identity():
    ok, witness = is_transitive(RigMatrix.identity(NAT, 3))
    assert ok and witness is None


def test_not_transitive_nilpotent_chain():
    m = RigMatrix.from_rows(NAT, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    ok, witness = is_transitive(m)
    assert not ok
    assert witness == (0, 1, 2)


def test_transitive_zero_diagonal():
    m = RigMatrix.from_rows(NAT, [[0, 1], [1, 1]])
    ok, witness = is_transitive(m)
    assert not ok
    assert witness == (0,)


def test_transitive_over_bool_rig():
    m = RigMatrix.from_rows(BOOL, [[1, 1], [0, 1]])
    ok, _ = is_transitive(m)
    assert ok


def brute_force_transitive(m, max_path):
    """Literal definition: enumerate every index sequence up to max_path."""
    from itertools import product as iproduct

    rig = m.rig
    n = m.n
    trivial = rig.eq(rig.zero, rig.one)
    for length in range(0, max_path + 1):
        for seq in iproduct(range(n), repeat=length + 1):
            if not rig.is_zero(m.rows[seq[0]][seq[-1]]):
                continue
            prod = rig.prod(m.rows[a][b] for a, b in zip(seq, seq[1:]))
            if not rig.is_zero(prod) or (length == 0 and not trivial):
                return False
    return True


def test_transitive_search_matches_brute_force_enumeration():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 4)
        rig = rng.choice([NAT, INT, RAT])
        sample_pool = [0, 0, 1, 2] if rig is NAT else [0, 0, 1, -1, 2]
        m = RigMatrix.from_rows(
            rig,
            [
                [rig.from_int(rng.choice(sample_pool)) for _ in range(n)]
                for _ in range(n)
            ],
        )
        got, _ = is_transitive(m)
        assert got == brute_force_transitive(m, n)


def test_coarse_zeta_of_categories_is_transitive():
    from corpus import named_categories
    from mobiuskit.incidence import coarse_zeta

    for name, cat in named_categories().items():
        zeta = coarse_zeta(cat, RAT)
        ok, witness = is_transitive(zeta.matrix)
        assert ok, (name, witness)


def test_invert_random_rationals():
    rng = random.Random(23)
    for _ in range(20):
        m = random_transitive_invertible_matrix(rng, 4)
        inverse = invert(m)
        ident = RigMatrix.identity(RAT, 4)
        assert m.mul(inverse).equal(ident)
        assert inverse.mul(m).equal(ident)


def test_invert_singular_matrix():
    m = RigMatrix.from_rows(RAT, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    with pytest.raises(NotInvertible) as err:
        invert(m)
    assert err.value.witness == ("column", 1)


def test_invert_follows_the_exact_solve_rig_rule():
    # the rule of invert_counting_matrix: from_quotient, and an integral
    # inverse over a rig without division
    unitriangular = RigMatrix.from_rows(INT, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    inverse = invert(unitriangular)
    assert inverse.rows == ((1, -2, 5), (0, 1, -4), (0, 0, 1))
    assert {type(x) for row in inverse.rows for x in row} == {int}
    with pytest.raises(NotInvertible) as err:
        invert(RigMatrix.from_rows(INT, [[2]]))
    assert err.value.witness == ("non-integral", 0, 0, "1/2")
    with pytest.raises(UnsupportedRig, match="inversion of counting matrices unsupported over 'nat'"):
        invert(RigMatrix.identity(NAT, 2))


def test_invert_real_uses_magnitude_pivot():
    m = RigMatrix.from_rows(REAL, [[1e-14, 1.0], [1.0, 1.0]])
    inverse = invert(m)
    assert m.mul(inverse).equal(RigMatrix.identity(REAL, 2))


def test_invert_counting_matrix_integer_route():
    inverse = invert_counting_matrix([[1, 1], [0, 1]], INT)
    assert inverse.rows == ((1, -1), (0, 1))
    with pytest.raises(NotInvertible) as err:
        invert_counting_matrix([[2]], INT)
    assert err.value.witness[0] == "non-integral"


def unit_lu_product(rng, n):
    """L U with unit diagonals, rows shuffled: determinant +-1, and the
    pivots are 1 until a swapped row breaks the pattern."""
    lower = [[1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    return rows


def test_fraction_free_inverse_matches_generic_elimination():
    rng = random.Random(43)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 6) if checked < 60 else rng.randint(1, 9)
        if checked < 60:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        else:
            rows = unit_lu_product(rng, n)
        fractions = RigMatrix.from_rows(
            RAT, [[Fraction(x) for x in row] for row in rows]
        )
        try:
            reference = invert(fractions)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                invert_counting_matrix(rows, RAT)
            continue
        assert invert_counting_matrix(rows, RAT).equal(reference)
        checked += 1


def permuted_unitriangular(rng, n, density):
    """A unit upper triangular integer matrix, with off-diagonal entries
    of both signs and above 1 (hom-sets with several arrows), its rows and
    columns permuted by one permutation."""
    upper = [
        [1 if i == j else rng.choice((-3, -1, 1, 2, 5)) if j > i and rng.random() < density else 0 for j in range(n)]
        for i in range(n)
    ]
    order = list(range(n))
    rng.shuffle(order)
    return [[upper[i][j] for j in order] for i in order]


def bareiss_inverse(rows):
    n = len(rows)
    d, scaled = matrixrig._bareiss(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    assert all(x % d == 0 for row in scaled for x in row)
    return [[x // d for x in row] for row in scaled]


def record_bareiss(monkeypatch):
    """The sizes of the _bareiss calls from here on, in order."""
    calls = []
    bareiss = matrixrig._bareiss
    monkeypatch.setattr(matrixrig, "_bareiss", lambda rows, rhs: calls.append(len(rows)) or bareiss(rows, rhs))
    return calls


def test_unitriangular_pass_matches_bareiss(monkeypatch):
    calls = record_bareiss(monkeypatch)
    rng = random.Random(47)
    for n, density, count in ((1, 0.5, 3), (2, 0.5, 10), (5, 0.6, 40), (12, 0.4, 40), (40, 0.15, 10), (90, 0.05, 4), (240, 0.01, 2), (240, 0.03, 1)):
        for _ in range(count):
            rows = permuted_unitriangular(rng, n, density)
            expected = bareiss_inverse(rows)
            del calls[:]
            assert invert_counting_matrix(rows, INT).rows == tuple(map(tuple, expected)), rows
            assert calls == [], rows
    # a non-transitive pattern: the inverse is nonzero at (0, 2), where
    # the matrix is zero, so the pass must walk past row 0's support
    assert invert_counting_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]], INT).rows == ((1, -1, 1), (0, 1, -1), (0, 0, 1))
    assert calls == []


def test_kahn_order():
    # k comes before j for every (j, _) in later[k]; a cycle gives None.  A
    # successor named twice is counted twice, as fine_invert names f once
    # per factorization h o g = f
    assert matrixrig._kahn_order([[(2, 1)], [(0, 5), (2, -1)], []]) == [1, 0, 2]
    assert matrixrig._kahn_order([[(1, 1)], [(0, 1)], []]) is None
    assert matrixrig._kahn_order([]) == []
    assert matrixrig._kahn_order([[(1, 1), (1, 1)], []]) == [0, 1]


def random_block_system(rng):
    """(later, diagonal, rhs, blocks, dense) for w . A = b: A block
    diagonal over a shuffled partition of the indices, each block
    unitriangular along its own shuffled order, with two to four sparse
    right-hand sides; dense is A itself."""
    n = rng.randint(1, 24)
    indices = list(range(n))
    rng.shuffle(indices)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(4, n - 1))))
    blocks = [sorted(indices[i:j]) for i, j in zip([0, *cuts], [*cuts, n])]
    dense = [[int(i == j) for j in range(n)] for i in range(n)]
    for block in blocks:
        order = rng.sample(block, len(block))
        for p, k in enumerate(order):
            for j in order[p + 1 :]:
                if rng.random() < 0.5:
                    dense[k][j] = rng.choice((-3, -1, 1, 2, 5))
    later = [[(j, x) for j, x in enumerate(row) if x and j != k] for k, row in enumerate(dense)]
    rhs = [
        {k: rng.randint(-4, 4) for k in rng.sample(range(n), rng.randint(1, n))} for _ in range(rng.randint(2, 4))
    ]
    return later, [1] * n, rhs, blocks, dense


def test_solve_agrees_on_both_routes_with_many_blocks_and_right_hand_sides(monkeypatch):
    # the same systems once as given, which the push serves, and once with
    # no Kahn order, which sends every block to _bareiss; both give
    # b . A^-1 for every right-hand side b.  With one diagonal entry 2 its
    # block's determinant is 2 and the others' are 1, so the blocks land
    # on d = 2; those solutions are checked by substitution
    rng = random.Random(71)
    several = 0
    for _ in range(120):
        later, diagonal, rhs, blocks, dense = random_block_system(rng)
        n = len(dense)
        inverse = bareiss_inverse(dense)
        expected = [[sum(b.get(k, 0) * inverse[k][j] for k in range(n)) for j in range(n)] for b in rhs]
        assert matrixrig._solve(later, diagonal, rhs, blocks) == (1, expected)
        with monkeypatch.context() as patch:
            patch.setattr(matrixrig, "_kahn_order", lambda later: None)
            calls = record_bareiss(patch)
            d, solutions = matrixrig._solve(later, diagonal, rhs, blocks)
        assert calls == [len(block) for block in blocks]
        assert [[Fraction(v, d) for v in w] for w in solutions] == expected
        k = rng.randrange(n)
        diagonal[k] = dense[k][k] = 2
        d, solutions = matrixrig._solve(later, diagonal, rhs, blocks)
        for b, w in zip(rhs, solutions):
            assert [sum(Fraction(w[i], d) * dense[i][j] for i in range(n)) for j in range(n)] == [
                b.get(j, 0) for j in range(n)
            ]
        several += len(blocks) > 2
    assert several > 30


def test_family_count_matrices_take_the_forward_pass(monkeypatch):
    calls = record_bareiss(monkeypatch)
    for family, start, end in (("dinj", 0, 240), ("dsurj", 0, 240), ("nat_leq", 0, 240), ("divisibility", 1, 500)):
        oracle = builtin(family)
        indices = range(start, end + 1)
        rows = [[oracle.hom_count(m, n) for n in indices] for m in indices]
        expected = bareiss_inverse(rows)
        del calls[:]
        assert invert_counting_matrix(rows, INT).rows == tuple(map(tuple, expected)), family
        assert calls == [], family


def test_other_matrices_take_bareiss(monkeypatch):
    calls = record_bareiss(monkeypatch)
    rng = random.Random(53)
    shifted = permuted_unitriangular(rng, 30, 0.2)
    shifted[7][7] = -1
    cases = {
        "diagonal 2": ([[2]], ("non-integral", 0, 0, "1/2")),
        "diagonal 0": ([[0, 1], [1, 1]], None),
        "one diagonal entry -1": (shifted, None),
        "two-cycle, singular": ([[1, 1], [1, 1]], ("column", 1)),
        "two-cycle": ([[1, 1], [-1, 1]], ("non-integral", 0, 0, "1/2")),
        "three-cycle": ([[1, 2, 0], [0, 1, 3], [4, 0, 1]], ("non-integral", 0, 0, "1/25")),
    }
    for name, (rows, witness) in cases.items():
        if witness is None:
            expected = invert(RigMatrix.from_rows(RAT, [[Fraction(x) for x in row] for row in rows])).rows
            del calls[:]
            assert invert_counting_matrix(rows, INT).rows == expected, name
        else:
            del calls[:]
            with pytest.raises(NotInvertible) as err:
                invert_counting_matrix(rows, INT)
            assert err.value.witness == witness, name
        # a singular matrix is eliminated once more, as itself, to name
        # its first dependent column
        assert calls == [len(rows)] * (2 if witness and witness[0] == "column" else 1), name
    # Fractions with integer values scale to ints and take the pass
    del calls[:]
    inverse = invert_counting_matrix([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], INT).rows
    assert inverse == ((1, -1), (0, 1)) and all(type(x) is int for row in inverse for x in row)
    assert calls == []
    assert invert_counting_matrix([[1, 1], [0, 1]], INT).rows == ((1, -1), (0, 1))
    assert calls == []
    # only the diagonal and the nonzero entries need to be ints: zeros
    # written as Fraction(0) take the pass as they are and land what
    # elimination lands
    counts = permuted_unitriangular(rng, 12, 0.4)
    zeros = [[x or Fraction(0) for x in row] for row in counts]
    for rig in (INT, RAT, REAL):
        del calls[:]
        forward = invert_counting_matrix(zeros, rig).rows
        assert calls == [], rig
        with monkeypatch.context() as patch:
            patch.setattr(matrixrig, "_kahn_order", lambda later: None)
            assert repr(forward) == repr(invert_counting_matrix(zeros, rig).rows), rig
        assert calls == [12], rig


def test_invert_counting_matrix_accepts_fraction_entries():
    rows = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2)]]
    inverse = invert_counting_matrix(rows, RAT)
    assert inverse.rows == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    # a float is read as its exact value
    assert invert_counting_matrix([[0.5]], RAT).rows == ((Fraction(2),),)
    assert invert_counting_matrix([[0.1, 0], [Fraction(1, 3), 1]], RAT).rows == (
        (1 / Fraction(0.1), Fraction(0)),
        (-Fraction(1, 3) / Fraction(0.1), Fraction(1)),
    )


def test_an_inverse_beyond_the_float_range_is_not_invertible():
    # 1 / 1e-320 is about 1e320, beyond the largest float
    with pytest.raises(NotInvertible) as err:
        invert_counting_matrix([[1e-320]], REAL)
    assert err.value.witness == ("overflow", None)
    assert str(err.value) == "an inverse entry is beyond the range of rig 'real'"
    # the exact inverse itself exists
    assert invert_counting_matrix([[1e-320]], RAT).rows == ((1 / Fraction(1e-320),),)


def test_zero_pattern_inheritance_examples():
    # coarse zeta / mu of the chain 0 < 1 < 2: triangular inverse inherits zeros
    z = RigMatrix.from_rows(RAT, [[Fraction(1)] * 3, [Fraction(0), Fraction(1), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)]])
    ok, violation = inverse_zero_check(z, invert(z))
    assert ok and violation is None
    diag = RigMatrix.from_rows(RAT, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]])
    ok, _ = inverse_zero_check(diag, invert(diag))
    assert ok


def test_zero_pattern_requires_actual_inverse():
    z = RigMatrix.identity(RAT, 2)
    wrong = RigMatrix.from_rows(RAT, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
    with pytest.raises(NotAnInverse):
        inverse_zero_check(z, wrong)


def test_integer_inverse_check_refuses_wrong_inverses_over_rat_and_int():
    # over int and rat the check multiplies in integers; it accepts the
    # inverse and refuses what the products in the rig refuse.  At 40 rows
    # the inverse is unique, so every changed candidate is wrong
    rng = random.Random(1)
    refused = 0
    for rig, n, count in [(RAT, 40, 1), (RAT, 3, 8), (INT, 3, 8), (RAT, 5, 8), (INT, 5, 8)]:
        for _ in range(count):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if rig is RAT:
                rows = [[Fraction(x, rng.choice((1, 2, 3))) for x in row] for row in rows]
            else:  # unitriangular, so the inverse is integral
                rows = [[1 if i == j else x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
            z = RigMatrix.from_rows(rig, rows)
            inverse = invert(z)
            inverse_zero_check(z, inverse)
            wrong = [list(row) for row in inverse.rows]
            wrong[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 7) if rig is RAT else 1
            for rows in (wrong, [row[::-1] for row in inverse.rows], z.rows):
                candidate = RigMatrix.from_rows(rig, rows)
                ident = RigMatrix.identity(rig, n)
                if n < 40 and z.mul(candidate).equal(ident) and candidate.mul(z).equal(ident):
                    inverse_zero_check(z, candidate)
                    continue
                with pytest.raises(NotAnInverse, match="^second argument is not a two-sided inverse of the first$"):
                    inverse_zero_check(z, candidate)
                refused += 1
    assert refused >= 90


def test_zero_pattern_violation_is_reported():
    # invertible but not transitive: inverse picks up a nonzero where z is zero
    z = RigMatrix.from_rows(RAT, [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)]])
    ok, violation = inverse_zero_check(z, invert(z))
    assert not ok
    assert violation == (0, 2)


def test_theorem_zero_pattern_on_random_transitive_matrices():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 6)
        z = random_transitive_invertible_matrix(rng, n)
        ok, violation = inverse_zero_check(z, invert(z))
        assert ok, violation


def test_kronecker_small_example():
    a = RigMatrix.from_rows(INT, [[1, 2], [0, 1]])
    b = RigMatrix.from_rows(INT, [[3]])
    assert a.kronecker(b).rows == ((3, 6), (0, 3))
    c = RigMatrix.from_rows(INT, [[1, 0], [0, 2]])
    assert a.kronecker(c).rows == (
        (1, 0, 2, 0),
        (0, 2, 0, 4),
        (0, 0, 1, 0),
        (0, 0, 0, 2),
    )
