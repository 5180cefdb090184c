"""Commutative rig (semiring) arithmetic bundles and concrete instances.

Elements are plain Python values (int, Fraction, float, TruncatedSeries);
a ``Rig`` object supplies the operations.  All algebra in the package is
generic over the rig passed in.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .errors import DegreeMismatch, DivisionByZero, MalformedInput, UnsupportedRig

REAL_REL_TOL = 1e-12


@dataclass(frozen=True)
class Rig:
    """Arithmetic bundle for a commutative rig.

    ``neg`` is present exactly when the rig is a ring, ``inv`` exactly
    when nonzero elements are invertible (a field); ``inv`` raises
    DivisionByZero at zero.  ``characteristic_zero`` means n*1 != 0 for
    every n >= 1.
    ``exact`` is False when ``eq`` has a tolerance (the floating reals).
    ``from_quotient(n, d)`` is the element n/d of integers n, d != 0; it
    is None on rigs that no exact solve lands in, and on a rig without
    ``inv`` it is only called when d divides n.
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    eq: Callable[[Any, Any], bool]
    from_int: Callable[[int], Any]
    neg: Optional[Callable[[Any], Any]] = None
    inv: Optional[Callable[[Any], Any]] = None
    characteristic_zero: bool = True
    exact: bool = True
    from_quotient: Optional[Callable[[int, int], Any]] = None

    @property
    def has_negation(self) -> bool:
        return self.neg is not None

    @property
    def has_division(self) -> bool:
        return self.inv is not None

    def is_zero(self, x) -> bool:
        return self.eq(x, self.zero)

    def sum(self, xs):
        total = self.zero
        for x in xs:
            total = self.add(total, x)
        return total

    def prod(self, xs):
        total = self.one
        for x in xs:
            total = self.mul(total, x)
        return total

    def sub(self, x, y):
        if self.neg is None:
            raise UnsupportedRig(f"rig '{self.name}' has no negation")
        return self.add(x, self.neg(y))

    def __repr__(self):
        return f"Rig({self.name})"


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial in one variable t, truncated at a fixed degree.

    Coefficients are exact rationals indexed by degree 0..N; products are
    Cauchy products with degrees above N discarded.
    """

    coefficients: tuple
    truncation_degree: int

    def __post_init__(self):
        if len(self.coefficients) != self.truncation_degree + 1:
            raise MalformedInput(
                f"series needs {self.truncation_degree + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )

    @classmethod
    def constant(cls, value, degree: int) -> "TruncatedSeries":
        coeffs = (Fraction(value),) + (Fraction(0),) * degree
        return cls(coeffs, degree)

    @classmethod
    def variable(cls, degree: int) -> "TruncatedSeries":
        if degree < 1:
            raise MalformedInput("variable needs truncation degree >= 1")
        coeffs = (Fraction(0), Fraction(1)) + (Fraction(0),) * (degree - 1)
        return cls(coeffs, degree)

    def _check(self, other: "TruncatedSeries"):
        if self.truncation_degree != other.truncation_degree:
            raise DegreeMismatch(
                f"truncation degrees differ: {self.truncation_degree} "
                f"vs {other.truncation_degree}"
            )

    def __add__(self, other):
        self._check(other)
        coeffs = tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        return TruncatedSeries(coeffs, self.truncation_degree)

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coefficients), self.truncation_degree)

    def __mul__(self, other):
        self._check(other)
        n = self.truncation_degree
        coeffs = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                b = other.coefficients[j]
                if b != 0:
                    coeffs[i + j] += a * b
        return TruncatedSeries(tuple(coeffs), n)

    def evaluate(self, point) -> Fraction:
        point = Fraction(point)
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * point + c
        return total

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            magnitude = abs(c)
            if k == 0:
                body = str(magnitude)
            elif k == 1:
                body = f"{magnitude}*t"
            else:
                body = f"{magnitude}*t^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def _nat_from_int(n: int) -> int:
    if n < 0:
        raise MalformedInput(f"{n} is not a natural number")
    return n


def _rat_inv(x: Fraction) -> Fraction:
    if x == 0:
        raise DivisionByZero("1/0 over the rationals")
    return Fraction(1) / x


def _real_eq(a: float, b: float) -> bool:
    return abs(a - b) <= REAL_REL_TOL * max(1.0, abs(a), abs(b))


def _real_inv(x: float) -> float:
    if _real_eq(x, 0.0):
        raise DivisionByZero("1/0 over the floating reals")
    return 1.0 / x


NAT = Rig(
    name="nat",
    zero=0,
    one=1,
    add=operator.add,
    mul=operator.mul,
    eq=operator.eq,
    from_int=_nat_from_int,
)

INT = Rig(
    name="int",
    zero=0,
    one=1,
    add=operator.add,
    mul=operator.mul,
    eq=operator.eq,
    from_int=int,
    neg=operator.neg,
    from_quotient=operator.floordiv,
)

RAT = Rig(
    name="rat",
    zero=Fraction(0),
    one=Fraction(1),
    add=operator.add,
    mul=operator.mul,
    eq=operator.eq,
    from_int=Fraction,
    neg=operator.neg,
    inv=_rat_inv,
    from_quotient=Fraction,
)

REAL = Rig(
    name="real",
    zero=0.0,
    one=1.0,
    add=operator.add,
    mul=operator.mul,
    eq=_real_eq,
    from_int=float,
    neg=operator.neg,
    inv=_real_inv,
    exact=False,
    from_quotient=operator.truediv,
)

# ({0,1}, max, min): a rig that is not a ring, exercising rig-generic paths.
BOOL = Rig(
    name="bool",
    zero=0,
    one=1,
    add=max,
    mul=min,
    eq=operator.eq,
    from_int=lambda n: 1 if _nat_from_int(n) > 0 else 0,
)

DEFAULT_SERIES_DEGREE = 16
# a product of two series costs up to (N+1)^2 coefficient products, and
# graded --degree N takes N matrix products of them: on one vertex with two
# loops, degree 512 runs in about 1.3 s and degree 1000 in 5.7 s
MAX_SERIES_DEGREE = 512


@functools.lru_cache(maxsize=None)
def polynomial_rig(degree: int = DEFAULT_SERIES_DEGREE) -> Rig:
    """Rig of rational polynomials truncated at the given degree bound.

    A degree above MAX_SERIES_DEGREE is refused before any coefficient is
    allocated.
    """
    if degree < 0:
        raise MalformedInput("truncation degree must be >= 0")
    if degree > MAX_SERIES_DEGREE:
        raise MalformedInput(f"truncation degree is limited to {MAX_SERIES_DEGREE}, got {degree}")
    return Rig(
        name=f"poly:{degree}",
        zero=TruncatedSeries.constant(0, degree),
        one=TruncatedSeries.constant(1, degree),
        add=operator.add,
        mul=operator.mul,
        eq=operator.eq,
        from_int=lambda n: TruncatedSeries.constant(n, degree),
        neg=operator.neg,
    )


NAMED_RIGS = {"nat": NAT, "int": INT, "rat": RAT, "real": REAL, "bool": BOOL}


def get_rig(spec: str) -> Rig:
    """Look a rig up by CLI spelling: nat|int|rat|real|bool|poly[:N]."""
    if spec in NAMED_RIGS:
        return NAMED_RIGS[spec]
    if spec == "poly":
        return polynomial_rig(DEFAULT_SERIES_DEGREE)
    if spec.startswith("poly:"):
        try:
            degree = int(spec.split(":", 1)[1])
        except ValueError:
            raise MalformedInput(f"bad polynomial degree in rig spec '{spec}'")
        return polynomial_rig(degree)
    raise MalformedInput(f"unknown rig '{spec}'")


def render(rig: Rig, x) -> str:
    """Canonical string form of a rig element: rationals as 'p/q', the
    elements of an inexact rig to 12 significant digits."""
    if not rig.exact:
        return f"{x:.12g}"
    return str(x)


def parse_element(rig: Rig, value):
    """Parse a JSON scalar ('p/q' string or number) into a rig element."""
    if isinstance(value, bool):
        raise MalformedInput(f"booleans are not rig literals: {value!r}")
    if not rig.exact:
        if isinstance(value, (int, float)):
            try:
                real = float(value)
            except OverflowError:
                real = math.inf
            # Python's JSON parser also reads NaN and Infinity
            if not math.isfinite(real):
                raise MalformedInput(f"real literal {value!r} is not finite")
            return real
        if isinstance(value, str):
            try:
                return float(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise MalformedInput(f"cannot parse real literal {value!r}")
        raise MalformedInput(f"cannot parse real literal {value!r}")
    if rig.name in ("nat", "int", "bool"):
        if isinstance(value, int):
            pass
        elif isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise MalformedInput(f"cannot parse integer literal {value!r}")
        else:
            raise MalformedInput(f"cannot parse integer literal {value!r}")
        if rig.name == "nat" and value < 0:
            raise MalformedInput(f"{value} is not a natural number")
        if rig.name == "bool" and value not in (0, 1):
            raise MalformedInput(f"{value} is not a boolean rig element")
        return value
    if rig.name == "rat":
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise MalformedInput(f"cannot parse rational literal {value!r}")
        raise MalformedInput(f"cannot parse rational literal {value!r}")
    raise MalformedInput(f"no literal syntax for rig '{rig.name}'")

