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
    adj_minus,
    adj_plus,
    det_minus,
    det_plus,
    invert,
    invert_counting_matrix,
    inverse_zero_check,
    is_transitive,
    lemma_identity_check,
)
from mobiuskit.rigs import BOOL, INT, NAT, RAT, REAL


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
    assert det_plus(ident) == 1
    assert det_minus(ident) == 0


def test_det_halves_2x2_split():
    m = RigMatrix.from_rows(INT, [[5, 7], [2, 3]])
    assert det_plus(m) == 15  # ad
    assert det_minus(m) == 14  # bc


def test_det_halves_all_ones_3x3():
    m = RigMatrix.from_rows(NAT, [[1] * 3] * 3)
    assert det_plus(m) == 3
    assert det_minus(m) == 3


def test_det_halves_match_reference_determinant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, INT, n)
        assert det_plus(m) - det_minus(m) == reference_determinant(m.rows)
    for _ in range(10):
        m = random_matrix(rng, RAT, 4)
        assert det_plus(m) - det_minus(m) == reference_determinant(m.rows)


def test_adj_halves_identity():
    ident = RigMatrix.identity(NAT, 3)
    assert adj_plus(ident).equal(ident)
    assert adj_minus(ident).equal(RigMatrix.zeros(NAT, 3))


def test_adj_halves_2x2():
    a, b, c, d = 2, 3, 5, 7
    m = RigMatrix.from_rows(INT, [[a, b], [c, d]])
    assert adj_plus(m).rows == ((d, 0), (0, a))
    assert adj_minus(m).rows == ((0, b), (c, 0))


def test_adj_halves_match_reference_adjugate():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(rng, INT, 3)
        plus = adj_plus(m)
        minus = adj_minus(m)
        expected = reference_adjugate(m.rows)
        got = [
            [plus.entry(i, j) - minus.entry(i, j) for j in range(3)]
            for i in range(3)
        ]
        assert got == expected


def test_permutation_budget():
    big = RigMatrix.identity(NAT, 10)
    with pytest.raises(BudgetExceeded):
        det_plus(big)
    with pytest.raises(BudgetExceeded):
        adj_plus(big)


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
    d, scaled = matrixrig._bareiss(rows, matrixrig._identity_rows(len(rows)))
    assert all(x % d == 0 for row in scaled for x in row)
    return [[x // d for x in row] for row in scaled]


def test_unitriangular_pass_matches_bareiss():
    rng = random.Random(47)
    for n, density, count in ((1, 0.5, 3), (2, 0.5, 10), (5, 0.6, 40), (12, 0.4, 40), (40, 0.15, 10), (90, 0.05, 4), (240, 0.01, 2), (240, 0.03, 1)):
        for _ in range(count):
            rows = permuted_unitriangular(rng, n, density)
            forward = matrixrig._unitriangular_inverse(rows)
            assert forward == bareiss_inverse(rows), rows
            assert matrixrig._inverse(rows) == (1, forward)
    # a non-transitive pattern: the inverse is nonzero at (0, 2), where
    # the matrix is zero, so the pass must walk past row 0's support
    assert matrixrig._unitriangular_inverse([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) == [[1, -1, 1], [0, 1, -1], [0, 0, 1]]


def test_family_count_matrices_take_the_forward_pass():
    for family, start, end in (("dinj", 0, 240), ("dsurj", 0, 240), ("nat_leq", 0, 240), ("divisibility", 1, 500)):
        oracle = builtin(family)
        indices = range(start, end + 1)
        rows = [[oracle.hom_count(m, n) for n in indices] for m in indices]
        forward = matrixrig._unitriangular_inverse(rows)
        assert forward is not None, family
        assert forward == bareiss_inverse(rows), family


def test_other_matrices_take_bareiss(monkeypatch):
    calls = []
    bareiss = matrixrig._bareiss
    monkeypatch.setattr(matrixrig, "_bareiss", lambda rows, rhs: calls.append(len(rows)) or bareiss(rows, rhs))
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
        assert matrixrig._unitriangular_inverse(rows) is None, name
        if witness is None:
            expected = invert(RigMatrix.from_rows(RAT, [[Fraction(x) for x in row] for row in rows])).rows
            del calls[:]
            assert invert_counting_matrix(rows, INT).rows == expected, name
        else:
            del calls[:]
            with pytest.raises(NotInvertible) as err:
                invert_counting_matrix(rows, INT)
            assert err.value.witness == witness, name
        assert calls == [len(rows)], name
    # the pass needs integer rows: equal Fractions take the elimination
    del calls[:]
    assert invert_counting_matrix([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], INT).rows == ((1, -1), (0, 1))
    assert calls == [2]
    del calls[:]
    assert invert_counting_matrix([[1, 1], [0, 1]], INT).rows == ((1, -1), (0, 1))
    assert calls == []


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
