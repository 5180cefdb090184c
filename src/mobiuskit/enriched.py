"""Coarse Mobius inversion through size assignments on enriched hom-objects.

Covers metric-space magnitude (similarity matrices over the floating
reals), free categories on graphs graded by path length (truncated series),
size assignments for the standard enrichments, and Kronecker-product
multiplicativity of Mobius functions.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import mul
from typing import Callable

from ._record import Frozen
from .category import DirectedGraph, product
from .errors import MalformedInput, NotInvertible, RigMismatch
from .incidence import CoarseElement
from .matrixrig import RigMatrix, invert
from .rigs import REAL, Rig, TruncatedSeries, polynomial_rig

CONDITION_LIMIT = 1e12
_EPS = 2.0**-52  # float64 machine epsilon


class _Numpy:
    """numpy, imported at the first attribute read.

    Only metric spaces use numpy, so the exact commands never pay for its
    import.  The functions below read ``np`` as a module global at call
    time, so rebinding ``enriched.np`` still reaches every numpy call.
    """

    def __getattr__(self, name):
        import numpy

        return getattr(numpy, name)


np = _Numpy()


class SizeAssignment(Frozen):
    """Multiplicative size |X| of hom-descriptors for one enrichment.

    ``tensor`` combines two hom-descriptors, ``unit`` is the monoidal unit
    descriptor; size is multiplicative: size(tensor(X,Y)) = size(X)*size(Y)
    and size(unit) = 1.
    """

    __slots__ = ("enrichment", "rig", "size", "tensor", "unit")

    def __init__(
        self,
        enrichment: str,
        rig: Rig,
        size: Callable[[object], object],
        tensor: Callable[[object, object], object],
        unit: object,
    ):
        object.__setattr__(self, "enrichment", enrichment)
        object.__setattr__(self, "rig", rig)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "unit", unit)


def finite_sets_sizes(rig: Rig) -> SizeAssignment:
    return SizeAssignment("finite_sets", rig, rig.from_int, lambda x, y: x * y, 1)


def truth_values_sizes(rig: Rig) -> SizeAssignment:
    return SizeAssignment(
        "truth_values", rig, lambda b: rig.one if b else rig.zero, lambda x, y: x and y, True
    )


def metric_sizes() -> SizeAssignment:
    return SizeAssignment(
        "metric", REAL, lambda d: math.exp(-d), lambda x, y: x + y, 0.0
    )


def vector_dims_sizes(rig: Rig) -> SizeAssignment:
    return SizeAssignment("vector_dims", rig, rig.from_int, lambda x, y: x * y, 1)


def graded_sizes(degree: int) -> SizeAssignment:
    """Sizes of degree-graded finite sets: counts per degree -> series."""
    rig = polynomial_rig(degree)

    def size(counts):
        coeffs = [0] * (degree + 1)
        for k, c in enumerate(counts):
            if k <= degree:
                coeffs[k] = c
        return TruncatedSeries(tuple(coeffs), degree)

    def tensor(x, y):
        out = [0] * (max(len(x) + len(y) - 1, 1))
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] += a * b
        return tuple(out)

    return SizeAssignment("graded", rig, size, tensor, (1,))


def enriched_coarse_zeta(objects, homsizes, rig: Rig, enrichment: str = "finite_sets") -> CoarseElement:
    """Wrap a matrix of hom-object sizes as the enriched coarse zeta."""
    matrix = RigMatrix.from_rows(rig, homsizes)
    return CoarseElement(tuple(objects), rig, matrix, None, enrichment)


def enriched_coarse_mobius(zeta: CoarseElement) -> CoarseElement:
    """Invert an enriched coarse zeta with invert: exact over an exact rig
    (integral over a rig without division), float elimination over the
    floating reals."""
    return CoarseElement(zeta.objects, zeta.rig, invert(zeta.matrix), zeta.category, zeta.enrichment)


# metric spaces


class MetricSpace(Frozen):
    """Finite (generalized) metric space; distances may be math.inf.

    ``distances`` is held as one read-only n x n float64 array, row i
    giving the distances from ``points[i]``.  Two spaces are equal only
    when they are the same object.
    """

    __slots__ = ("points", "distances", "symmetric")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: tuple, distances: np.ndarray, symmetric: bool = True):
        n = len(points)
        try:
            square = len(distances) == n and all(len(r) == n for r in distances)
            d = np.array(distances, dtype=float).reshape(n, n) if square else None
        except (TypeError, ValueError):  # a row or an entry that is not a number
            d = None
        except OverflowError:
            raise MalformedInput("a distance is an integer too large for a float") from None
        if d is None:
            raise MalformedInput("distance matrix shape does not match the point list")
        # the first error in row-major order: a bad diagonal of row i, then
        # the first entry of row i that is negative (reported first) or asymmetric
        negative = d < 0
        bad = negative | (d != d.T) if symmetric else negative
        bad_diagonal = d.diagonal() != 0
        bad_rows = bad_diagonal | bad.any(axis=1)
        if bad_rows.any():
            i = int(bad_rows.argmax())
            if bad_diagonal[i]:
                raise MalformedInput(f"nonzero self-distance at point {points[i]!r}")
            j = int(bad[i].argmax())
            if negative[i, j]:
                raise MalformedInput("negative distance")
            raise MalformedInput(
                f"asymmetric distance between {points[i]!r} and {points[j]!r}"
            )
        d.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "symmetric", symmetric)

    @classmethod
    def from_distances(cls, points, rows, symmetric: bool = True) -> "MetricSpace":
        return cls(tuple(points), rows, symmetric)

    @classmethod
    def from_coords(cls, points, coords) -> "MetricSpace":
        """Euclidean distances, accumulated one coordinate at a time with
        hypot, so memory stays O(n^2) whatever the dimension."""
        try:
            c = np.array(coords, dtype=float)
        except (TypeError, ValueError):
            raise MalformedInput("coordinate rows must be equally long lists of numbers") from None
        except OverflowError:
            raise MalformedInput("a coordinate is an integer too large for a float") from None
        n = len(c)
        if n != len(points):
            raise MalformedInput("one coordinate row per point required")
        d = np.zeros((n, n))
        with np.errstate(over="ignore"):  # far-apart points are at distance inf
            for k, column in enumerate(c.reshape(n, -1).T if c.size else ()):
                gap = column[:, None] - column
                if k:
                    np.hypot(d, gap, out=d)
                else:
                    np.absolute(gap, out=d)
        return cls(tuple(points), d, True)


def _similarity(distances: np.ndarray) -> np.ndarray:
    """Z(a,b) = exp(-d(a,b)); d = inf gives 0."""
    return np.exp(-distances)


def similarity_matrix(m: MetricSpace) -> CoarseElement:
    """Z(a,b) = exp(-d(a,b)) over the floating reals; d = inf gives 0."""
    rows = _similarity(m.distances).tolist()
    return CoarseElement(m.points, REAL, RigMatrix.from_rows(REAL, rows), None, "metric")


def _certified_well_conditioned(z: np.ndarray) -> bool:
    """True when one Cholesky factorisation proves the symmetric z positive
    definite with 2-norm condition at most CONDITION_LIMIT / 2.

    ``norm``, the largest row sum of z >= 0, bounds its largest eigenvalue.
    If the Cholesky factorisation of z - s I succeeds in floating point, the
    factor is exact for a matrix within about n (n + 1) eps norm of z - s I
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), so
    with s = norm (2 / CONDITION_LIMIT + 2 n (n + 1) eps) the smallest
    eigenvalue of z is at least 2 norm / CONDITION_LIMIT.  False means only
    that the proof failed.  The diagonal of z is shifted in place and
    restored bit for bit.
    """
    limit = CONDITION_LIMIT
    if not limit > 0:
        return False
    n = len(z)
    norm = float(z.sum(axis=1).max())
    shift = norm * (2.0 / limit + 2.0 * n * (n + 1) * _EPS)
    if not shift < norm:
        return False
    diagonal = z.diagonal().copy()
    try:
        z.flat[:: n + 1] = diagonal - shift
        np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        return False
    finally:
        z.flat[:: n + 1] = diagonal
    return True


def magnitude(m: MetricSpace) -> float:
    """Total of all entries of the inverse similarity matrix.

    That total is 1^T Z^-1 1, so one linear solve Z w = 1 and the sum of the
    weighting w give it for symmetric and non-symmetric spaces alike.  A
    2-norm condition number beyond CONDITION_LIMIT is reported as
    NotInvertible rather than returning noise.  Its message names only the
    limit: near the limit the estimate's 4th digit moves with the order of
    the points, so the number goes into the witness ("condition", value)
    alone.  A symmetric space first
    tries the one-Cholesky certificate of _certified_well_conditioned;
    only when that fails are Z's eigenvalues computed, and the condition is
    then the exact ratio max|lambda| / min|lambda| (inf when min|lambda| =
    0), which for a symmetric matrix is the ratio of its singular values.
    So a refusal always comes from the eigenvalues, and a space the
    certificate accepts is one they would accept too.  A non-symmetric
    space takes the condition from an SVD.
    """
    z = _similarity(m.distances)
    if z.size == 0:
        return 0.0
    if not (m.symmetric and _certified_well_conditioned(z)):
        if m.symmetric:
            eigenvalues = np.abs(np.linalg.eigvalsh(z))
            smallest = float(eigenvalues.min())
            condition = float(eigenvalues.max()) / smallest if smallest > 0 else math.inf
        else:
            condition = np.linalg.cond(z)
        if not np.isfinite(condition) or condition > CONDITION_LIMIT:
            raise NotInvertible(
                f"similarity matrix condition exceeds {CONDITION_LIMIT:.0e}",
                witness=("condition", condition),
            )
    weights = np.linalg.solve(z, np.ones(len(m.points)))
    return float(weights.sum())


def segment_space(n: int, length: float) -> MetricSpace:
    """n evenly spaced points on a straight segment."""
    if n < 1:
        raise MalformedInput("need at least one point")
    xs = [length * i / (n - 1) if n > 1 else 0.0 for i in range(n)]
    return MetricSpace.from_coords(tuple(range(n)), [(x,) for x in xs])


def segment_refinement_study(counts):
    """Magnitude of the length-2 segment at each refinement count."""
    return [(n, magnitude(segment_space(n, 2.0))) for n in counts]


def metric_disjoint_union(a: MetricSpace, b: MetricSpace) -> MetricSpace:
    """Disjoint union with all cross-distances infinite."""
    points = tuple(("L", p) for p in a.points) + tuple(("R", p) for p in b.points)
    na = len(a.points)
    d = np.full((len(points), len(points)), math.inf)
    d[:na, :na] = a.distances
    d[na:, na:] = b.distances
    return MetricSpace(points, d, a.symmetric and b.symmetric)


# graded free categories on graphs


class GradedGraphCategory(Frozen):
    """Free category on a finite graph, graded by path length and truncated."""

    __slots__ = ("graph", "truncation_degree")

    def __init__(self, graph: DirectedGraph, truncation_degree: int):
        if truncation_degree < 1:
            raise MalformedInput("truncation degree must be >= 1")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "truncation_degree", truncation_degree)


def _edge_counts(graph: DirectedGraph) -> list:
    """M[i][j]: the number of edges from the i-th vertex to the j-th,
    counted in one pass over the edges."""
    counts = Counter((e.src, e.tgt) for e in graph.edges)
    vs = graph.vertices
    return [[counts[a, b] for b in vs] for a in vs]


def _series_matrix(g: GradedGraphCategory, coefficients) -> CoarseElement:
    """The graded element whose (i, j) series has the coefficients[i][j]."""
    degree = g.truncation_degree
    rig = polynomial_rig(degree)
    rows = [[TruncatedSeries(tuple(entry), degree) for entry in row] for row in coefficients]
    return CoarseElement(g.graph.vertices, rig, RigMatrix.from_rows(rig, rows), None, "graded")


def graded_zeta(g: GradedGraphCategory) -> CoarseElement:
    """zeta(a,b) = sum over k of (number of length-k paths a -> b) t^k,
    truncated at the degree bound.

    The length-k paths from the i-th vertex to the j-th number M^k[i][j],
    M the edge-count matrix, so the powers M^0 ... M^d are taken in plain
    integers and each series is read off one entry of every power.
    """
    m = _edge_counts(g.graph)
    columns = list(zip(*m))
    powers = [[[int(i == j) for j in range(len(m))] for i in range(len(m))]]
    for _ in range(g.truncation_degree):
        powers.append([[sum(map(mul, row, column)) for column in columns] for row in powers[-1]])
    # zip(*powers) gives row i of every power, zip(*rows) entry (i, j) of each
    return _series_matrix(g, [zip(*rows) for rows in zip(*powers)])


def graded_mobius(g: GradedGraphCategory) -> CoarseElement:
    """mu = delta - (edge counts) t, exactly."""
    zeros = (0,) * (g.truncation_degree - 1)
    m = _edge_counts(g.graph)
    return _series_matrix(g, [[(int(i == j), -x, *zeros) for j, x in enumerate(row)] for i, row in enumerate(m)])


# tensor products


def tensor_mobius(mu_a: CoarseElement, mu_b: CoarseElement) -> CoarseElement:
    """Mobius function of a tensor product: the Kronecker product of the
    factors, indexed by object pairs in row-major order.

    The graded enrichment is order-sensitive and is rejected here; all
    other supported enrichments are symmetric.
    """
    if mu_a.rig.name != mu_b.rig.name:
        raise RigMismatch(f"factors over {mu_a.rig.name} and {mu_b.rig.name}")
    if "graded" in (mu_a.enrichment, mu_b.enrichment):
        raise RigMismatch("tensor products are not supported for the graded enrichment")
    objects = tuple((a, b) for a in mu_a.objects for b in mu_b.objects)
    matrix = mu_a.matrix.kronecker(mu_b.matrix)
    cat = None
    if mu_a.category is not None and mu_b.category is not None:
        cat = product(mu_a.category, mu_b.category)
    return CoarseElement(objects, mu_a.rig, matrix, cat, mu_a.enrichment)
