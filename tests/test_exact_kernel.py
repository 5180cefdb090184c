"""The fraction-free elimination kernel against sympy's exact inverse.

Every exact solve that the forward pass does not take (rational
`invert`, `invert_counting_matrix`, the fine convolution blocks of
`fine_invert`) runs through `matrixrig._bareiss`, which walks only the
nonzero entries at each step whose pivot equals the previous one.
Divisibility count matrices with a diagonal 2, a 2-cycle or a duplicated
object keep every pivot after the first such step equal, so they run
those sparse steps with pivots other than 1.  sympy is an independent
oracle for the values and for the column that a singular input reports:
the first column where the rank of the leading columns stops growing.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from corpus import general_corpus, named_categories, random_poset_category
from mobiuskit.errors import NotInvertible
from mobiuskit.incidence import FineElement, fine_invert
from mobiuskit.matrixrig import RigMatrix, invert, invert_counting_matrix
from mobiuskit.rigs import INT, RAT, REAL


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def first_dependent_column(a):
    """The first column that does not raise the rank of the columns before it:
    the first one that is not a pivot column of the reduced echelon form."""
    pivots = a.rref()[1]
    return next((j for j in range(a.cols) if j >= len(pivots) or pivots[j] != j), None)


def random_rational_matrix(rng, n):
    """Dense, sparse, singular by construction, or unit lower triangular
    with shuffled rows."""
    kind = rng.choice(["dense", "sparse", "singular", "shuffled"])
    density = 0.3 if kind == "sparse" else 0.8
    rows = [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < density else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    if kind == "singular" and n > 1:
        # column j a rational combination of two earlier columns
        j = rng.randint(1, n - 1)
        a, b = rng.randrange(j), rng.randrange(j)
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), 2)
        for row in rows:
            row[j] = s * row[a] + t * row[b]
    elif kind == "shuffled":
        for i, row in enumerate(rows):
            row[i] = Fraction(1)
            row[i + 1 :] = [Fraction(0)] * (n - i - 1)
        rng.shuffle(rows)
    return rows


def matrices(seed, count):
    rng = random.Random(seed)
    return [random_rational_matrix(rng, rng.randint(1, 12)) for _ in range(count)]


def test_invert_over_rat_matches_sympy():
    singular = 0
    for rows in matrices(71, 80):
        a = to_sympy(rows)
        if a.det() == 0:
            singular += 1
            with pytest.raises(NotInvertible) as err:
                invert(RigMatrix.from_rows(RAT, rows))
            assert err.value.witness == ("column", first_dependent_column(a))
            continue
        expected = [[to_fraction(x) for x in row] for row in a.inv().tolist()]
        got = invert(RigMatrix.from_rows(RAT, rows)).rows
        assert [list(row) for row in got] == expected
        assert all(type(x) is Fraction for row in got for x in row)
    assert 10 < singular < 60


def divisibility_counts(n):
    return [[int(b % a == 0) for b in range(1, n + 1)] for a in range(1, n + 1)]


def near_divisibility_counts():
    """Divisibility counts with one more endomorphism on the first or the
    last object, a 2-cycle between the last two, or the last object twice."""
    first, last, cycle = divisibility_counts(120), divisibility_counts(90), divisibility_counts(60)
    first[0][0] = last[-1][-1] = 2
    cycle[-2][-1] = cycle[-1][-2] = 1
    cycle[-2][-2] = cycle[-1][-1] = 2
    twice = [row + row[-1:] for row in divisibility_counts(99)]
    twice.append(twice[-1])
    return [first, last, cycle, twice]


def test_invert_counting_matrix_matches_sympy():
    checked = {"rat": 0, "int": 0, "real": 0, "non-integral": 0, "singular": 0}
    rng = random.Random(73)
    cases = []
    for rows in matrices(72, 60):
        # the same matrix with integer entries goes through the integer route
        integral = [[int(x * 60) for x in row] for row in rows]
        if rng.random() < 0.3:
            integral = [[1 if i == j else rng.choice([0, 0, 1, -1]) * (j > i) for j in range(len(rows))] for i in range(len(rows))]
            rng.shuffle(integral)
        cases += [rows, integral]
    for entries in cases + near_divisibility_counts():
        a = to_sympy([[Fraction(x) for x in row] for row in entries])
        if a.det() == 0:
            for rig in (RAT, INT, REAL):
                with pytest.raises(NotInvertible) as err:
                    invert_counting_matrix(entries, rig)
                assert err.value.witness == ("column", first_dependent_column(a))
            checked["singular"] += 1
            continue
        expected = [[to_fraction(x) for x in row] for row in a.inv().tolist()]
        assert [list(r) for r in invert_counting_matrix(entries, RAT).rows] == expected
        real = invert_counting_matrix(entries, REAL).rows
        assert [list(r) for r in real] == [[float(x) for x in row] for row in expected]
        assert all(type(x) is float for row in real for x in row)
        checked["rat"] += 1
        checked["real"] += 1
        fractional = [(i, j, x) for i, row in enumerate(expected) for j, x in enumerate(row) if x.denominator != 1]
        if fractional:
            i, j, x = fractional[0]
            with pytest.raises(NotInvertible) as err:
                invert_counting_matrix(entries, INT)
            assert err.value.witness == ("non-integral", i, j, str(x))
            checked["non-integral"] += 1
        else:
            got = invert_counting_matrix(entries, INT).rows
            assert [list(r) for r in got] == expected
            assert all(type(x) is int for row in got for x in row)
            checked["int"] += 1
    assert min(checked.values()) > 5, checked


def convolution_matrix(x):
    """Rows f, columns g in global arrow order: the coefficient of w(g) in
    (w * x)(f), summed straight from the composition table."""
    c = x.category
    index = {name: i for i, name in enumerate(c.arrow_names())}
    rows = [[Fraction(0)] * len(index) for _ in index]
    for (outer, inner), composite in c.compose.items():
        rows[index[composite]][index[inner]] += Fraction(x.values[outer])
    return rows


def test_fine_invert_matches_sympy():
    rng = random.Random(79)
    cats = list(named_categories().values()) + general_corpus(17, 60)
    cats += [random_poset_category(rng, rng.randint(2, 5)) for _ in range(20)]
    cats = [cat for cat in cats if len(cat.arrows) <= 14]
    outcomes = set()
    for k in range(240):
        cat = cats[k % len(cats)]
        rig = (RAT, INT, REAL)[k % 3]
        values = {}
        for name in cat.arrow_names():
            if rig is RAT:
                values[name] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            elif rig is INT:
                unit = cat.is_identity(name) and rng.random() < 0.85
                values[name] = rng.choice([-1, 1]) if unit else rng.randint(-2, 2)
            else:
                values[name] = rng.randint(-6, 6) / 4
        x = FineElement(cat, rig, values)
        a = to_sympy(convolution_matrix(x))
        names = cat.arrow_names()
        if a.det() == 0:
            with pytest.raises(NotInvertible) as err:
                fine_invert(x)
            assert err.value.witness == ("column", first_dependent_column(a))
            outcomes.add("singular")
            continue
        delta = sympy.Matrix([1 if cat.is_identity(n) else 0 for n in names])
        expected = [to_fraction(v) for v in a.inv() * delta]
        fractional = [(n, v) for n, v in zip(names, expected) if v.denominator != 1]
        if rig is INT and fractional:
            with pytest.raises(NotInvertible) as err:
                fine_invert(x)
            name, value = fractional[0]
            assert err.value.witness == ("non-integral", name, str(value))
            outcomes.add("non-integral")
            continue
        convert = {"rat": Fraction, "int": int, "real": float}[rig.name]
        got = fine_invert(x).values
        assert [got[n] for n in names] == [convert(v) for v in expected]
        assert all(type(got[n]) is type(rig.one) for n in names)
        outcomes.add(rig.name)
    assert outcomes == {"rat", "int", "real", "singular", "non-integral"}
