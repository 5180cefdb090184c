import itertools
import math
import random

import numpy as np
import pytest

from mobiuskit.category import DirectedGraph, Arrow, coproduct, product
from corpus import (
    chain_category,
    divisor_poset_category,
    free_category_on_acyclic_graph,
    random_dag,
    random_poset_category,
    six_example_category,
    terminal_category,
)
from mobiuskit import enriched
from mobiuskit.enriched import (
    CONDITION_LIMIT,
    GradedGraphCategory,
    MetricSpace,
    enriched_coarse_zeta,
    finite_sets_sizes,
    graded_mobius,
    graded_sizes,
    graded_zeta,
    magnitude,
    metric_disjoint_union,
    metric_sizes,
    segment_refinement_study,
    segment_space,
    similarity_matrix,
    tensor_mobius,
    truth_values_sizes,
    vector_dims_sizes,
)
from mobiuskit.errors import MalformedInput, NotInvertible, RigMismatch
from mobiuskit.incidence import coarse_mobius, coarse_zeta, euler_characteristic
from mobiuskit.matrixrig import RigMatrix
from mobiuskit.rigs import INT, RAT, TruncatedSeries, polynomial_rig
from oracles import check_multiplicativity


def test_size_assignments_are_multiplicative():
    assert check_multiplicativity(finite_sets_sizes(INT), [0, 1, 2, 3, 5])
    assert check_multiplicativity(truth_values_sizes(INT), [True, False])
    assert check_multiplicativity(metric_sizes(), [0.0, 0.5, 1.0, 2.0, math.inf])
    assert check_multiplicativity(vector_dims_sizes(RAT), [1, 2, 3])
    assert check_multiplicativity(graded_sizes(6), [(1,), (0, 2), (1, 1, 3), (0, 0, 2)])


def test_finite_sets_enrichment_recovers_coarse_zeta():
    six = six_example_category()
    sizes = [[len(six.hom(a, b)) for b in six.objects] for a in six.objects]
    wrapped = enriched_coarse_zeta(six.objects, sizes, INT)
    assert wrapped.matrix.equal(coarse_zeta(six, INT).matrix)


def test_truth_values_enrichment_gives_order_matrix():
    chain3 = chain_category(3)
    sa = truth_values_sizes(INT)
    sizes = [[sa.size(bool(chain3.hom(a, b))) for b in chain3.objects] for a in chain3.objects]
    wrapped = enriched_coarse_zeta(chain3.objects, sizes, INT, "truth_values")
    assert wrapped.matrix.equal(coarse_zeta(chain3, INT).matrix)


def test_enriched_mobius_for_vector_dimension_sizes():
    # linear-category style zeta from user-supplied dimension data
    from fractions import Fraction

    from mobiuskit.enriched import enriched_coarse_mobius

    dims = [[1, 2], [0, 1]]
    zeta = enriched_coarse_zeta(["V", "W"], [[Fraction(d) for d in row] for row in dims], RAT, "vector_dims")
    mu = enriched_coarse_mobius(zeta)
    assert mu.matrix.rows == ((Fraction(1), Fraction(-2)), (Fraction(0), Fraction(1)))
    assert mu.enrichment == "vector_dims"


def test_enriched_mobius_integer_route_and_unsupported_rig():
    import pytest as _pytest

    from mobiuskit.enriched import enriched_coarse_mobius
    from mobiuskit.errors import UnsupportedRig
    from mobiuskit.rigs import NAT

    zeta = enriched_coarse_zeta(["a", "b"], [[1, 1], [0, 1]], INT, "truth_values")
    mu = enriched_coarse_mobius(zeta)
    assert mu.matrix.rows == ((1, -1), (0, 1))
    nat_zeta = enriched_coarse_zeta(["a"], [[1]], NAT)
    with _pytest.raises(UnsupportedRig):
        enriched_coarse_mobius(nat_zeta)


def test_similarity_matrix_examples():
    zero_dist = MetricSpace.from_distances(["p", "q"], [[0, 0], [0, 0]])
    assert similarity_matrix(zero_dist).matrix.rows == ((1.0, 1.0), (1.0, 1.0))
    far = MetricSpace.from_distances(["p", "q"], [[0, math.inf], [math.inf, 0]])
    assert similarity_matrix(far).matrix.rows == ((1.0, 0.0), (0.0, 1.0))
    ln2 = MetricSpace.from_distances(["p", "q"], [[0, math.log(2)], [math.log(2), 0]])
    rows = similarity_matrix(ln2).matrix.rows
    assert abs(rows[0][1] - 0.5) < 1e-15 and rows[0][0] == 1.0


def test_metric_space_validation():
    with pytest.raises(MalformedInput):
        MetricSpace.from_distances(["p"], [[1.0]])
    with pytest.raises(MalformedInput):
        MetricSpace.from_distances(["p", "q"], [[0, 1], [2, 0]])
    with pytest.raises(MalformedInput):
        MetricSpace.from_distances(["p", "q"], [[0, -1], [-1, 0]])
    # generalized metrics may drop symmetry
    MetricSpace.from_distances(["p", "q"], [[0, 1], [2, 0]], symmetric=False)


def test_numpy_calls_go_through_the_module_global(monkeypatch):
    # enriched imports numpy on first use; every call still reads the name
    # np at call time, so a stand-in bound there sees the solve
    calls = []
    real = enriched.np

    class Linalg:
        def __getattr__(self, name):
            return getattr(real.linalg, name)

        def solve(self, *args):
            calls.append("solve")
            return real.linalg.solve(*args)

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(real, name)

    monkeypatch.setattr(enriched, "np", Numpy())
    assert 1 < magnitude(segment_space(3, 2.0)) < 3
    assert calls == ["solve"]
    assert isinstance(MetricSpace.from_coords("pq", [[0], [1]]).distances, np.ndarray)


def test_magnitude_one_point():
    assert abs(magnitude(MetricSpace.from_distances(["p"], [[0]])) - 1.0) < 1e-12


def test_magnitude_two_points_closed_form():
    for d in (0.1, 0.5, 1.0, 2.0, 5.0):
        space = MetricSpace.from_distances(["p", "q"], [[0, d], [d, 0]])
        want = 2.0 / (1.0 + math.exp(-d))
        assert abs(magnitude(space) - want) < 1e-10


def test_magnitude_of_duplicate_points_is_singular():
    space = MetricSpace.from_distances(["p", "q"], [[0, 0], [0, 0]])
    with pytest.raises(NotInvertible) as err:
        magnitude(space)
    assert err.value.witness[0] == "condition"


def test_asymmetric_magnitude_matches_the_inverse_total():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 40)
        rows = [[0.0 if i == j else rng.uniform(0.1, 4.0) for j in range(n)] for i in range(n)]
        space = MetricSpace.from_distances(range(n), rows, symmetric=False)
        want = float(np.linalg.inv(np.exp(-np.array(rows))).sum())
        assert abs(magnitude(space) - want) <= 1e-9 * abs(want)


def test_ill_conditioned_asymmetric_magnitude_is_refused():
    # near-twins in both directions at different distances: Z is close to
    # the all-ones matrix, whose condition is infinite
    for d in (0.0, 1e-15, 1e-14):
        space = MetricSpace.from_distances(["p", "q"], [[0, d], [2 * d, 0]], symmetric=False)
        with pytest.raises(NotInvertible) as err:
            magnitude(space)
        assert err.value.witness[0] == "condition"
        assert err.value.witness[1] > enriched.CONDITION_LIMIT


def test_magnitude_permutation_invariance():
    rng = random.Random(79)
    points = ["a", "b", "c", "d", "e"]
    coords = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in points]
    space = MetricSpace.from_coords(points, coords)
    base = magnitude(space)
    for _ in range(5):
        perm = list(range(len(points)))
        rng.shuffle(perm)
        shuffled = MetricSpace.from_coords(
            [points[i] for i in perm], [coords[i] for i in perm]
        )
        assert abs(magnitude(shuffled) - base) < 1e-10


def test_magnitude_refusal_text_is_permutation_invariant():
    # a near-twin pair and a third point: the condition estimate's 4th
    # digit differs between orderings, the refusal text must not
    points = ["a", "b", "c"]
    rows = [[0, 1e-13, 1], [1e-13, 0, 1], [1, 1, 0]]
    messages = set()
    for perm in itertools.permutations(range(3)):
        space = MetricSpace.from_distances([points[i] for i in perm], [[rows[i][j] for j in perm] for i in perm])
        with pytest.raises(NotInvertible) as err:
            magnitude(space)
        assert err.value.witness[0] == "condition"
        assert err.value.witness[1] > CONDITION_LIMIT
        messages.add(str(err.value))
    assert messages == {"similarity matrix condition exceeds 1e+12"}


def test_segment_refinement_approaches_limit():
    study = segment_refinement_study([11, 101, 1001])
    values = [value for _, value in study]
    assert values[0] < values[1] < values[2] < 2.0
    assert abs(values[2] - 2.0) < 0.01


def test_segment_magnitude_formula():
    # chain of n points with equal gaps h: magnitude = 1 + (n-1) tanh(h/2)
    for n, length in [(5, 2.0), (11, 2.0), (21, 4.0)]:
        h = length / (n - 1)
        want = 1.0 + (n - 1) * math.tanh(h / 2.0)
        assert abs(magnitude(segment_space(n, length)) - want) < 1e-10


def test_magnitude_additive_over_infinite_separation():
    a = segment_space(4, 1.0)
    b = MetricSpace.from_distances(["p", "q"], [[0, 1.5], [1.5, 0]])
    union = metric_disjoint_union(a, b)
    assert abs(magnitude(union) - (magnitude(a) + magnitude(b))) < 1e-10


def test_euler_characteristic_additive_over_coproduct():
    left = divisor_poset_category(6)
    right = chain_category(3)
    both = coproduct(left, right)
    assert euler_characteristic(both, RAT) == euler_characteristic(left, RAT) + euler_characteristic(right, RAT)


def test_graded_one_vertex_m_loops():
    for m in (1, 2, 5):
        loops = DirectedGraph(
            ("v",), tuple(Arrow(f"l{k}", "v", "v") for k in range(m))
        )
        graded = GradedGraphCategory(loops, 8)
        mu = graded_mobius(graded)
        total = mu.total()
        rig = polynomial_rig(8)
        t = TruncatedSeries.variable(8)
        want = rig.sub(rig.one, rig.mul(rig.from_int(m), t))
        assert total == want


def test_graded_edgeless_graph():
    graph = DirectedGraph(("u", "v", "w"), ())
    graded = GradedGraphCategory(graph, 4)
    rig = polynomial_rig(4)
    ident = RigMatrix.identity(rig, 3)
    assert graded_zeta(graded).matrix.equal(ident)
    assert graded_mobius(graded).matrix.equal(ident)


def test_graded_inverse_law_on_random_graphs():
    rng = random.Random(83)
    for _ in range(10):
        graph = random_dag(rng, rng.randint(1, 5), density=0.5, parallel=2)
        graded = GradedGraphCategory(graph, 9)
        rig = polynomial_rig(9)
        zeta = graded_zeta(graded)
        mu = graded_mobius(graded)
        ident = RigMatrix.identity(rig, len(graph.vertices))
        assert zeta.matrix.mul(mu.matrix).equal(ident)
        assert mu.matrix.mul(zeta.matrix).equal(ident)


def zeta_coefficients(graph, degree):
    """{(a, b): [coefficient k of zeta(a, b) for k = 0..degree]} as ints."""
    zeta = graded_zeta(GradedGraphCategory(graph, degree))
    vs = graph.vertices
    out = {}
    for a, row in zip(vs, zeta.matrix.rows):
        for b, series in zip(vs, row):
            assert all(c.denominator == 1 for c in series.coefficients)
            out[a, b] = [int(c) for c in series.coefficients]
    return out


def test_graded_zeta_counts_the_arrows_of_the_free_category():
    rng = random.Random(101)
    for _ in range(12):
        graph = random_dag(rng, rng.randint(1, 6), density=0.5, parallel=2)
        free = free_category_on_acyclic_graph(graph)  # arrows ("path", start, edge names)
        degree = rng.randint(1, 7)
        for (a, b), coefficients in zeta_coefficients(graph, degree).items():
            lengths = [len(name[2]) for name in free.hom(a, b)]
            assert coefficients == [lengths.count(k) for k in range(degree + 1)], (a, b)


def test_graded_zeta_of_m_loops_at_the_largest_degree():
    for m in (1, 2, 3, 7):
        loops = DirectedGraph(("v",), tuple(Arrow(f"l{k}", "v", "v") for k in range(m)))
        assert zeta_coefficients(loops, 512)["v", "v"] == [m**k for k in range(513)]


def test_graded_zeta_matches_walk_enumeration_on_a_cyclic_graph():
    edges = (("a", "b"), ("b", "c"), ("c", "a"), ("a", "a"), ("b", "a"), ("b", "a"), ("c", "c"))
    graph = DirectedGraph(("a", "b", "c"), tuple(Arrow(f"e{i}", s, t) for i, (s, t) in enumerate(edges)))
    degree = 6
    walks = {(v, v): [1] + [0] * degree for v in graph.vertices}
    for length in range(1, degree + 1):
        for path in itertools.product(graph.edges, repeat=length):
            if all(f.tgt == g.src for f, g in zip(path, path[1:])):
                walks.setdefault((path[0].src, path[-1].tgt), [0] * (degree + 1))[length] += 1
    got = zeta_coefficients(graph, degree)
    assert {pair: c for pair, c in got.items() if any(c)} == walks
    graded = GradedGraphCategory(graph, degree)
    for element in (graded_zeta(graded), graded_mobius(graded)):
        series = [s for row in element.matrix.rows for s in row] + [element.total()]
        assert {type(c) for s in series for c in s.coefficients} == {int}


def test_graded_zeta_does_no_series_arithmetic(monkeypatch):
    def refuse(self, other):
        raise AssertionError("series arithmetic in graded_zeta")

    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
    monkeypatch.setattr(TruncatedSeries, "__add__", refuse)
    graph = random_dag(random.Random(103), 5, density=0.6, parallel=3)
    cyclic = DirectedGraph(graph.vertices, graph.edges + (Arrow("back", "v4", "v0"),))
    for g in (graph, cyclic):
        zeta = graded_zeta(GradedGraphCategory(g, 40))
        assert len(zeta.matrix.rows) == 5


def test_graded_total_evaluates_to_graph_euler_characteristic():
    rng = random.Random(89)
    for _ in range(10):
        graph = random_dag(rng, rng.randint(1, 5), density=0.6, parallel=2)
        graded = GradedGraphCategory(graph, 7)
        total = graded_mobius(graded).total()
        at_one = total.evaluate(1)
        assert at_one == len(graph.vertices) - len(graph.edges)


def test_tensor_mobius_with_identity_factor():
    six = six_example_category()
    mu = coarse_mobius(six, RAT)
    term_mu = coarse_mobius(terminal_category(), RAT)
    prod = tensor_mobius(mu, term_mu)
    assert prod.matrix.equal(mu.matrix)


def test_tensor_mobius_matches_product_category():
    rng = random.Random(97)
    for _ in range(10):
        left = random_poset_category(rng, rng.randint(1, 3))
        right = random_poset_category(rng, rng.randint(1, 3))
        mu_left = coarse_mobius(left, RAT)
        mu_right = coarse_mobius(right, RAT)
        combined = tensor_mobius(mu_left, mu_right)
        direct = coarse_mobius(product(left, right), RAT)
        assert combined.objects == direct.objects
        assert combined.matrix.equal(direct.matrix)


def test_tensor_of_metric_spaces_multiplies_magnitude():
    # l^1 product of two two-point spaces: similarity matrices kronecker,
    # so magnitudes multiply
    d1, d2 = 0.7, 1.3
    m1 = 2.0 / (1.0 + math.exp(-d1))
    m2 = 2.0 / (1.0 + math.exp(-d2))
    points = [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")]
    def dist(x, y):
        return (d1 if x[0] != y[0] else 0.0) + (d2 if x[1] != y[1] else 0.0)
    rows = [[dist(x, y) for y in points] for x in points]
    space = MetricSpace.from_distances(points, rows)
    assert abs(magnitude(space) - m1 * m2) < 1e-10


def test_tensor_rejects_rig_mismatch_and_graded():
    six = six_example_category()
    mu_rat = coarse_mobius(six, RAT)
    mu_int = coarse_mobius(six, INT)
    with pytest.raises(RigMismatch):
        tensor_mobius(mu_rat, mu_int)
    loops = DirectedGraph(("v",), (Arrow("l", "v", "v"),))
    mu_graded = graded_mobius(GradedGraphCategory(loops, 4))
    with pytest.raises(RigMismatch):
        tensor_mobius(mu_graded, mu_graded)


# array-backed metric spaces, checked against closed forms and the
# row-major validation loop of the tuple-of-tuples representation


def line_magnitude(xs):
    """Leinster's formula for a finite subset of the line."""
    xs = sorted(xs)
    return 1.0 + sum(math.tanh((b - a) / 2.0) for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("n", [1001, 2000])
def test_large_line_magnitudes_match_closed_form(n):
    rng = random.Random(n)
    segment = segment_space(n, 2.0)
    xs = [2.0 * i / (n - 1) for i in range(n)]
    subset = [0.01 * i for i in rng.sample(range(3 * n), n)]
    for space, points in (
        (segment, xs),
        (MetricSpace.from_coords(range(n), [(x,) for x in subset]), subset),
    ):
        want = line_magnitude(points)
        assert abs(magnitude(space) - want) <= 1e-9 * want


def condition_corpus():
    """Symmetric spaces on both sides of the condition limit."""
    rng = random.Random(5)
    spaces = [[(0.0,), (1.0,), (1.0,)]]  # duplicate points: Z exactly singular
    for k in range(60):
        n = rng.randrange(2, 60)
        if k % 2:
            scale = 10.0 ** rng.uniform(-3, 0)
            coords = [(scale * rng.random(), scale * rng.random()) for _ in range(n)]
        else:
            gap = 10.0 ** rng.uniform(-6, 0)
            coords = [(gap * i, 0.0) for i in rng.sample(range(3 * n), n)]
        if k % 3 == 0:  # a near-twin of one point: condition about 2 / its distance
            x, y = rng.choice(coords)
            coords.append((x + 10.0 ** rng.uniform(-16, -3), y))
        spaces.append(coords)
    spaces = [MetricSpace.from_coords(range(len(coords)), coords) for coords in spaces]
    # K_{3,2} with edges of length t is not positive definite for small t:
    # Z has a negative eigenvalue but is well conditioned
    side = [0, 0, 0, 1, 1]
    for t in (0.2, 0.3, 0.5):
        rows = [[0 if i == j else t * (1 + (a == b)) for j, b in enumerate(side)] for i, a in enumerate(side)]
        spaces.append(MetricSpace.from_distances(range(5), rows))
    return spaces


def test_eigenvalue_condition_matches_svd_condition(monkeypatch):
    spaces = condition_corpus()

    def condition(space):
        """The condition number magnitude reports when it refuses."""
        with pytest.raises(NotInvertible) as err:
            magnitude(space)
        return err.value.witness[1]

    decisions = set()
    for space in spaces:
        expected = np.linalg.cond(np.array(similarity_matrix(space).matrix.rows))
        refused = not np.isfinite(expected) or expected > CONDITION_LIMIT
        if refused:
            assert condition(space) > CONDITION_LIMIT
        else:
            magnitude(space)
        decisions.add(refused)
        if expected < 1e12:
            # both are backward stable: the smallest singular value of the
            # rounded Z can move by about n * eps * |Z|, so digits of the
            # condition beyond 1 / (n * eps * cond) are rounding noise
            tolerance = max(1e-6, len(space.points) * np.finfo(float).eps * expected)
            with monkeypatch.context() as m:
                m.setattr(enriched, "CONDITION_LIMIT", 0.0)
                assert abs(condition(space) - expected) <= tolerance * expected
    assert decisions == {True, False}


def test_cholesky_certificate_agrees_with_the_eigenvalue_path(monkeypatch):
    # the certificate may only skip eigvalsh: on every space, magnitude gives
    # the same float bits, or the same refusal, with the certificate on and
    # with it always failing, and a space it accepts is within the limit
    rng = random.Random(11)
    spaces = condition_corpus()
    for n in (1, 2, 3, 5, 17, 64, 150, 300):
        spaces += [segment_space(n, 2.0), segment_space(n, 1e-3 * n)]
    for _ in range(30):
        n = rng.randrange(1, 80)
        scale = 10.0 ** rng.uniform(-4, 1)
        spaces.append(MetricSpace.from_coords(range(n), [(scale * rng.random(), scale * rng.random()) for _ in range(n)]))
    twins = [MetricSpace.from_distances("pq", [[0, d], [d, 0]]) for d in (1e-14, 1e-3, 0.5)]
    spaces += [metric_disjoint_union(segment_space(4, 1.0), twin) for twin in twins]
    xs = [0.3 * i for i in range(9)]
    for k in range(49):  # the twin's distance sweeps every limit below
        coords = [(x,) for x in xs] + [(xs[k % 9] + 10.0 ** (-k / 3),)]
        spaces.append(MetricSpace.from_coords(range(10), coords))

    certify = enriched._certified_well_conditioned
    accepted = []

    def spy(z):
        before = z.copy()
        ok = certify(z)
        assert before.tobytes() == z.tobytes()
        if ok:
            accepted.append(before)
        return ok

    def outcome(space):
        try:
            return magnitude(space).hex()
        except NotInvertible as e:
            return str(e), repr(e.witness)

    accepted_counts = []
    for limit in (1e3, 1e6, 1e9, CONDITION_LIMIT):
        accepted.clear()
        with monkeypatch.context() as m:
            m.setattr(enriched, "CONDITION_LIMIT", limit)
            m.setattr(enriched, "_certified_well_conditioned", spy)
            fast = [outcome(space) for space in spaces]
            m.setattr(enriched, "_certified_well_conditioned", lambda z: False)
            slow = [outcome(space) for space in spaces]
        assert fast == slow
        assert all(np.linalg.cond(z) <= limit for z in accepted)
        refused = sum(isinstance(result, tuple) for result in slow)
        assert 0 < refused
        assert 0 < len(accepted) < len(spaces) - refused  # both paths run on accepted spaces
        accepted_counts.append(len(accepted))
    assert accepted_counts == sorted(set(accepted_counts))  # each limit moves the boundary


def test_from_coords_matches_math_dist():
    rng = random.Random(23)
    for dim in (2, 3):
        for n in (1, 2, 17, 60):
            coords = [tuple(rng.uniform(-5, 5) for _ in range(dim)) for _ in range(n)]
            space = MetricSpace.from_coords(range(n), coords)
            for i, a in enumerate(coords):
                for j, b in enumerate(coords):
                    want = math.dist(a, b)
                    assert abs(space.distances[i, j] - want) <= 1e-12 * max(1.0, want)


def row_major_validation(points, distances, symmetric):
    """The validation loop of the tuple-of-tuples MetricSpace: the error it
    raised first, or None."""
    n = len(points)
    for i in range(n):
        if distances[i][i] != 0:
            return f"nonzero self-distance at point {points[i]!r}"
        for j in range(n):
            if distances[i][j] < 0:
                return "negative distance"
            if symmetric and distances[i][j] != distances[j][i]:
                return f"asymmetric distance between {points[i]!r} and {points[j]!r}"
    return None


def test_array_validation_reports_the_row_major_first_error():
    rng = random.Random(41)
    bad_values = (-1.0, -math.inf, math.nan, math.inf, 0.5, -0.0, 1e-300)
    outcomes = set()
    for case in range(3000):
        n = rng.randrange(1, 7)
        xs = [rng.uniform(0, 4) for _ in range(n)]
        rows = [[abs(a - b) for b in xs] for a in xs]
        for _ in range(rng.randrange(0, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            value = rng.choice(bad_values)
            rows[i][j] = value
            if rng.random() < 0.3:  # keep symmetry, so a later check decides
                rows[j][i] = value
        points = [f"p{k}" for k in range(n)]
        symmetric = case % 4 != 0
        want = row_major_validation(points, rows, symmetric)
        try:
            MetricSpace.from_distances(points, rows, symmetric)
            got = None
        except MalformedInput as e:
            got = str(e)
        assert got == want, (rows, symmetric)
        outcomes.add(want.split(" ")[0] if want else None)
    assert outcomes == {None, "nonzero", "negative", "asymmetric"}


def test_shape_errors_through_the_library_api():
    shape = "distance matrix shape does not match the point list"
    for points, rows in (
        (["p", "q"], [[0.0, 1.0], [1.0]]),  # ragged
        (["p", "q"], [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]),  # not square
        (["p", "q"], [[0.0, 1.0]]),  # too few rows
        (["p"], [[[0.0, 1.0]]]),  # an entry that is a list
        (["p"], 0.0),
        ([], [[]]),
    ):
        with pytest.raises(MalformedInput, match=shape):
            MetricSpace(tuple(points), rows)
        with pytest.raises(MalformedInput, match=shape):
            MetricSpace.from_distances(points, rows)
    with pytest.raises(MalformedInput, match="one coordinate row per point"):
        MetricSpace.from_coords(["p", "q"], [[0.0]])
    with pytest.raises(MalformedInput, match="equally long"):
        MetricSpace.from_coords(["p", "q"], [[0.0], [1.0, 2.0]])
    assert magnitude(MetricSpace((), ())) == 0.0
    assert magnitude(MetricSpace.from_coords([], [])) == 0.0
    assert magnitude(MetricSpace.from_distances([], [])) == 0.0


def test_integers_too_large_for_a_float_are_malformed_input():
    huge = 10**400
    rows = [[0, huge], [huge, 0]]
    with pytest.raises(MalformedInput, match="a distance is an integer too large for a float"):
        MetricSpace(("p", "q"), rows)
    with pytest.raises(MalformedInput, match="a distance is an integer too large for a float"):
        MetricSpace.from_distances(["p", "q"], rows)
    with pytest.raises(MalformedInput, match="a coordinate is an integer too large for a float"):
        MetricSpace.from_coords(["p", "q"], [[0, 1], [1, huge]])
    # one that does fit is a distance like any other
    assert MetricSpace.from_distances(["p", "q"], [[0, 10**300], [10**300, 0]]).distances[0, 1] == 1e300


def test_distances_are_one_read_only_array():
    rows = [[0.0, 1.0], [1.0, 0.0]]
    space = MetricSpace.from_distances(["p", "q"], rows)
    assert space.distances.shape == (2, 2) and space.distances.dtype == np.float64
    rows[0][1] = 5.0  # the space holds its own copy
    assert space.distances[0, 1] == 1.0
    with pytest.raises(ValueError):
        space.distances[0, 1] = 2.0
    union = metric_disjoint_union(space, segment_space(3, 1.0))
    assert union.distances[0, 1] == 1.0 and union.distances[0, 2] == math.inf
    assert union.distances[3, 4] == 0.5
