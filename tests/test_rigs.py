import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import rig_sampler, verify_rig_laws
from mobiuskit.errors import DegreeMismatch, DivisionByZero, MalformedInput, UnsupportedRig
from mobiuskit.rigs import (
    BOOL,
    INT,
    NAT,
    RAT,
    REAL,
    TruncatedSeries,
    get_rig,
    parse_element,
    polynomial_rig,
    render,
)

ALL_RIGS = [NAT, INT, RAT, REAL, BOOL, polynomial_rig(5)]


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.name)
def test_rig_laws_on_1000_random_triples(rig):
    rng = random.Random(20240301)
    sample = rig_sampler(rig)
    triples = [(sample(rng), sample(rng), sample(rng)) for _ in range(1000)]
    verify_rig_laws(rig, triples)


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.name)
def test_characteristic_zero_up_to_100(rig):
    assert rig.characteristic_zero
    for n in range(1, 101):
        assert not rig.eq(rig.from_int(n), rig.zero)


def test_integer_arithmetic():
    assert INT.add(2, 3) == 5
    assert INT.mul(2, 3) == 6


def test_rational_inverse():
    assert RAT.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        RAT.inv(Fraction(0))


def test_naturals_have_no_negation():
    assert NAT.neg is None
    assert not NAT.has_negation
    with pytest.raises(UnsupportedRig):
        NAT.sub(1, 1)
    with pytest.raises(MalformedInput):
        NAT.from_int(-1)


def test_bool_rig_is_not_a_ring():
    assert BOOL.add(1, 1) == 1
    assert BOOL.mul(1, 0) == 0
    assert not BOOL.has_negation


def test_real_equality_tolerance():
    assert REAL.eq(1.0, 1.0 + 1e-13)
    assert not REAL.eq(1.0, 1.0 + 1e-9)


def test_series_polynomial_identity():
    # (1 + t)(1 - t) at N=3 -> 1 - t^2
    n = 3
    one = TruncatedSeries.constant(1, n)
    t = TruncatedSeries.variable(n)
    left = one + t
    right = one + (-t)
    got = left * right
    want = TruncatedSeries((Fraction(1), Fraction(0), Fraction(-1), Fraction(0)), n)
    assert got == want
    # package-built series hold ints, and so do their products
    assert {type(c) for c in got.coefficients} == {int}


def test_series_geometric_inverse_by_hand():
    # (1 - m t) * sum_{n<=N} (m t)^n == 1 for m = 2, N = 4, expanded by hand:
    # partial sums telescope and the t^5 remainder is truncated away.
    n = 4
    m = 2
    one = TruncatedSeries.constant(1, n)
    t = TruncatedSeries.variable(n)
    mt = TruncatedSeries.constant(m, n) * t
    geometric = TruncatedSeries(
        tuple(Fraction(m**k) for k in range(n + 1)), n
    )
    assert (one + (-mt)) * geometric == one


def test_series_truncation_drops_high_degrees():
    t = TruncatedSeries.variable(1)
    assert t * t == TruncatedSeries.constant(0, 1)


def test_series_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        TruncatedSeries.variable(2) * TruncatedSeries.variable(3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=5, max_size=5).map(
    lambda cs: TruncatedSeries(tuple(Fraction(c) for c in cs), 4)
), st.lists(st.integers(-9, 9), min_size=5, max_size=5).map(
    lambda cs: TruncatedSeries(tuple(Fraction(c) for c in cs), 4)
), st.lists(st.integers(-9, 9), min_size=5, max_size=5).map(
    lambda cs: TruncatedSeries(tuple(Fraction(c) for c in cs), 4)
))
def test_series_ring_laws_hypothesis(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_get_rig_spellings():
    assert get_rig("nat") is NAT
    assert get_rig("rat") is RAT
    for spec in ("octonions", "poly", "poly:8", "poly:x"):
        with pytest.raises(MalformedInput, match=f"^unknown rig '{spec}'$"):
            get_rig(spec)


def test_only_int_rat_and_real_have_solver_capabilities():
    # exact solves land in a rig through from_quotient; only the floating
    # reals compare with a tolerance
    assert [r.name for r in ALL_RIGS if r.from_quotient is not None] == ["int", "rat", "real"]
    assert [r.name for r in ALL_RIGS if not r.exact] == ["real"]
    assert INT.from_quotient(-6, 3) == -2 and type(INT.from_quotient(-6, 3)) is int
    assert RAT.from_quotient(2, -4) == Fraction(-1, 2)
    assert REAL.from_quotient(1, 3) == float(Fraction(1, 3))


def test_render_and_parse():
    assert render(RAT, Fraction(-1, 2)) == "-1/2"
    assert render(RAT, Fraction(3)) == "3"
    assert render(REAL, 1.4621171572600098) == "1.46211715726"
    assert parse_element(RAT, "3/4") == Fraction(3, 4)
    assert parse_element(INT, "-2") == -2
    with pytest.raises(MalformedInput):
        parse_element(NAT, -1)
    with pytest.raises(MalformedInput):
        parse_element(RAT, "a/b")


def test_series_render():
    n = 4
    t = TruncatedSeries.variable(n)
    one = TruncatedSeries.constant(1, n)
    poly = one + (-(t * TruncatedSeries.constant(2, n))) + t * t * t
    assert str(poly) == "1 - 2*t + 1*t^3"
    assert str(TruncatedSeries.constant(0, 2)) == "0"
