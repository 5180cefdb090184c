import json
import math
import os
import random

import pytest

from mobiuskit import fileio
from mobiuskit.category import Arrow, DirectedGraph, FinCategory, graphs_equal, product, validate_category
from corpus import chain_category, cyclic_group_category, divisor_poset_category, general_corpus, named_categories
from mobiuskit.enriched import MetricSpace
from mobiuskit.errors import MalformedInput, NotInvertible
from mobiuskit.fileio import load_category, load_functor, load_graph, load_matrix, load_metric
from mobiuskit.incidence import fine_mobius
from mobiuskit.rigs import INT, RAT

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


def write_tmp(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_category_roundtrip():
    cat = load_category(os.path.join(DATA, "six.json"))
    assert len(cat.objects) == 2
    assert len(cat.arrows) == 5
    assert cat.compose[("i", "s")] == "e"


def test_load_category_positional_errors(tmp_path):
    with pytest.raises(MalformedInput, match=r"arrows\[0\]: missing 'src'"):
        load_category(
            write_tmp(
                tmp_path,
                "bad.json",
                {"objects": ["a"], "arrows": [{"name": "1a", "tgt": "a"}], "identities": {}, "compose": []},
            )
        )
    with pytest.raises(MalformedInput, match=r"compose\[1\]: duplicate"):
        load_category(
            write_tmp(
                tmp_path,
                "dup.json",
                {
                    "objects": ["a"],
                    "arrows": [{"name": "1a", "src": "a", "tgt": "a"}],
                    "identities": {"a": "1a"},
                    "compose": [["1a", "1a", "1a"], ["1a", "1a", "1a"]],
                },
            )
        )
    with pytest.raises(MalformedInput, match="missing entry for composable pair"):
        load_category(
            write_tmp(
                tmp_path,
                "missing.json",
                {
                    "objects": ["a"],
                    "arrows": [{"name": "1a", "src": "a", "tgt": "a"}],
                    "identities": {"a": "1a"},
                    "compose": [],
                },
            )
        )
    with pytest.raises(MalformedInput, match="not composable"):
        load_category(
            write_tmp(
                tmp_path,
                "extra.json",
                {
                    "objects": ["a", "b"],
                    "arrows": [
                        {"name": "1a", "src": "a", "tgt": "a"},
                        {"name": "1b", "src": "b", "tgt": "b"},
                    ],
                    "identities": {"a": "1a", "b": "1b"},
                    "compose": [["1a", "1a", "1a"], ["1b", "1b", "1b"], ["1a", "1b", "1a"]],
                },
            )
        )


def test_load_category_missing_and_extra_pair_messages(tmp_path):
    # several pairs are missing (or extra); the message names the first by repr
    doc = {
        "objects": ["a", "b"],
        "arrows": [
            {"name": "1a", "src": "a", "tgt": "a"},
            {"name": "1b", "src": "b", "tgt": "b"},
            {"name": "f", "src": "a", "tgt": "b"},
        ],
        "identities": {"a": "1a", "b": "1b"},
        "compose": [["1a", "1a", "1a"], ["1b", "1b", "1b"], ["f", "1a", "f"], ["1b", "f", "f"]],
    }
    path = write_tmp(tmp_path, "cat.json", doc)
    assert len(load_category(path).compose) == 4
    partial = dict(doc, compose=doc["compose"][:1] + doc["compose"][3:])
    path = write_tmp(tmp_path, "missing.json", partial)
    with pytest.raises(MalformedInput) as missing:
        load_category(path)
    assert str(missing.value) == f"{path}: compose: missing entry for composable pair ('1b', '1b')"
    loose = dict(doc, compose=doc["compose"] + [["f", "f", "f"], ["1a", "f", "f"], ["1a", "1b", "1a"]])
    path = write_tmp(tmp_path, "extra.json", loose)
    with pytest.raises(MalformedInput) as extra:
        load_category(path)
    assert str(extra.value) == f"{path}: compose: pair ('1a', '1b') is not composable"
    # as many entries as composable pairs, one of them not composable
    moved = dict(doc, compose=doc["compose"][:2] + [["1a", "f", "f"]] + doc["compose"][3:])
    path = write_tmp(tmp_path, "moved.json", moved)
    with pytest.raises(MalformedInput) as missing:
        load_category(path)
    assert str(missing.value) == f"{path}: compose: missing entry for composable pair ('f', '1a')"


def test_load_category_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"objects": [')
    with pytest.raises(MalformedInput, match="invalid JSON at line"):
        load_category(str(path))


def test_load_metric_with_infinite_distances(tmp_path):
    path = write_tmp(
        tmp_path,
        "metric.json",
        {"points": ["p", "q"], "distances": [[0, "inf"], ["inf", 0]]},
    )
    space = load_metric(path)
    assert space.distances[0][1] == math.inf


def test_load_metric_from_coordinates(tmp_path):
    path = write_tmp(
        tmp_path,
        "coords.json",
        {"points": ["p", "q", "r"], "coords": [[0, 0], [3, 4], [0, 1]]},
    )
    space = load_metric(path)
    assert abs(space.distances[0][1] - 5.0) < 1e-12


def test_load_metric_rejects_bad_entries(tmp_path):
    with pytest.raises(MalformedInput, match=r"distances\[0\]\[1\]"):
        load_metric(
            write_tmp(
                tmp_path,
                "bad_metric.json",
                {"points": ["p", "q"], "distances": [[0, "far"], ["far", 0]]},
            )
        )
    with pytest.raises(MalformedInput, match="not both"):
        load_metric(
            write_tmp(
                tmp_path,
                "both.json",
                {"points": ["p"], "distances": [[0]], "coords": [[0]]},
            )
        )


def test_load_matrix_rational_strings(tmp_path):
    path = write_tmp(tmp_path, "m.json", [["1/2", 1], ["-3/4", "2"]])
    matrix = load_matrix(path, RAT)
    from fractions import Fraction

    assert matrix.rows == ((Fraction(1, 2), Fraction(1)), (Fraction(-3, 4), Fraction(2)))
    with pytest.raises(MalformedInput, match=r"entry \[0\]\[1\]"):
        load_matrix(write_tmp(tmp_path, "bad.json", [[1, "x"], [0, 1]]), INT)
    with pytest.raises(MalformedInput, match="square"):
        load_matrix(write_tmp(tmp_path, "rect.json", [[1, 2]]), INT)


def test_load_graph(tmp_path):
    path = write_tmp(
        tmp_path,
        "graph.json",
        {"vertices": ["u", "v"], "edges": [{"name": "e", "src": "u", "tgt": "v"}]},
    )
    graph = load_graph(path)
    assert sum(1 for e in graph.edges if (e.src, e.tgt) == ("u", "v")) == 1
    with pytest.raises(MalformedInput, match="^duplicate vertex identifiers$"):
        DirectedGraph(("u", "v", "u"), ())
    with pytest.raises(MalformedInput, match="^duplicate edge names$"):
        DirectedGraph(("u",), (Arrow("e", "u", "u"), Arrow("e", "u", "u")))
    dupe_vertex = write_tmp(tmp_path, "dupe_vertex.json", {"vertices": ["a", "a"], "edges": []})
    with pytest.raises(MalformedInput) as refused:
        load_graph(dupe_vertex)
    assert str(refused.value) == f"{dupe_vertex}: duplicate vertex identifiers"
    with pytest.raises(MalformedInput, match="duplicate edge names"):
        load_graph(
            write_tmp(
                tmp_path,
                "dupe.json",
                {
                    "vertices": ["u"],
                    "edges": [
                        {"name": "e", "src": "u", "tgt": "u"},
                        {"name": "e", "src": "u", "tgt": "u"},
                    ],
                },
            )
        )


def test_load_functor_derives_object_map():
    source = load_category(os.path.join(DATA, "six.json"))
    target = load_category(os.path.join(DATA, "six_codiscrete.json"))
    functor = load_functor(os.path.join(DATA, "six_collapse_functor.json"), source, target)
    assert functor.object_map == {"a": "a", "b": "b"}
    assert functor.validate().ok


def test_load_functor_rejects_missing_images(tmp_path):
    source = load_category(os.path.join(DATA, "six.json"))
    target = load_category(os.path.join(DATA, "six_codiscrete.json"))
    path = write_tmp(tmp_path, "f.json", {"arrows": {"1a": "c_a_a"}})
    with pytest.raises(MalformedInput, match="missing image"):
        load_functor(path, source, target)


def test_load_metric_refuses_a_symmetric_flag_that_is_not_a_boolean(tmp_path):
    doc = {"points": ["p", "q"], "distances": [[0, 1], [2, 0]]}
    for flag in ("no", 0, 1, None, [], "false"):
        path = write_tmp(tmp_path, "flag.json", dict(doc, symmetric=flag))
        with pytest.raises(MalformedInput) as err:
            load_metric(path)
        assert str(err.value) == f"{path}: 'symmetric' must be true or false"
    assert not load_metric(write_tmp(tmp_path, "asym.json", dict(doc, symmetric=False))).symmetric
    with pytest.raises(MalformedInput, match="asymmetric distance"):
        load_metric(write_tmp(tmp_path, "sym.json", dict(doc, symmetric=True)))


# the loaders as they read files before whole lists were type-checked in one
# pass: every entry on its own, in order, so the first bad entry is the one
# named; the bulk checks must give the same result or the same message


def reference_arrows(entries, where):
    arrows = []
    for i, entry in enumerate(entries):
        at = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise MalformedInput(f"{at}: must be an object")
        name = fileio._require_str(entry, "name", at)
        src = fileio._require_str(entry, "src", at)
        tgt = fileio._require_str(entry, "tgt", at)
        arrows.append(Arrow(name, src, tgt))
    return arrows


def reference_load_category(path):
    doc = fileio._load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    objects = fileio._require(doc, "objects", path)
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise MalformedInput(f"{path}: 'objects' must be a list of strings")
    arrows_doc = fileio._require(doc, "arrows", path)
    if not isinstance(arrows_doc, list):
        raise MalformedInput(f"{path}: 'arrows' must be a list")
    arrows = reference_arrows(arrows_doc, f"{path}: arrows")
    identities = fileio._require(doc, "identities", path)
    if not isinstance(identities, dict):
        raise MalformedInput(f"{path}: 'identities' must map objects to arrow names")
    for obj, name in identities.items():
        if not isinstance(name, str):
            raise MalformedInput(f"{path}: identities[{obj!r}]: must be a string")
    compose_doc = fileio._require(doc, "compose", path)
    if not isinstance(compose_doc, list):
        raise MalformedInput(f"{path}: 'compose' must be a list")
    compose = {}
    for i, entry in enumerate(compose_doc):
        where = f"{path}: compose[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise MalformedInput(f"{where}: must be a triple [g, f, gf]")
        g, f, gf = entry
        if not (isinstance(g, str) and isinstance(f, str) and isinstance(gf, str)):
            raise MalformedInput(f"{where}: arrow names must be strings")
        if (g, f) in compose:
            raise MalformedInput(f"{where}: duplicate entry for pair ({g!r}, {f!r})")
        compose[(g, f)] = gf
    try:
        reference_structure(objects, arrows, identities, compose)
    except MalformedInput as e:
        raise MalformedInput(f"{path}: {e}")
    return tuple(objects), tuple(arrows), identities, compose


def reference_structure(objects, arrows, identities, compose):
    """The constructor's structural checks, entry by entry, without
    FinCategory: the first failure raises the constructor's message."""
    if len(set(objects)) != len(objects):
        raise MalformedInput("duplicate object identifiers")
    names = [a.name for a in arrows]
    if len(set(names)) != len(names):
        raise MalformedInput("duplicate arrow names")
    for a in arrows:
        if a.src not in objects or a.tgt not in objects:
            raise MalformedInput(f"arrow {a.name!r} has an endpoint outside the object list")
    if set(identities) != set(objects):
        raise MalformedInput("identity table must cover exactly the objects")
    for obj, name in identities.items():
        if name not in names:
            raise MalformedInput(f"identity of {obj!r} names unknown arrow {name!r}")
    for (g, f), gf in compose.items():
        if g not in names or f not in names or gf not in names:
            raise MalformedInput(f"compose entry ({g!r},{f!r})->{gf!r} names unknown arrows")
    composable = {(g.name, f.name) for g in arrows for f in arrows if f.tgt == g.src}
    missing = composable - compose.keys()
    if missing:
        g, f = sorted(missing, key=repr)[0]
        raise MalformedInput(f"compose: missing entry for composable pair ({g!r}, {f!r})")
    extra = compose.keys() - composable
    if extra:
        g, f = sorted(extra, key=repr)[0]
        raise MalformedInput(f"compose: pair ({g!r}, {f!r}) is not composable")


def same_data(c, data):
    """c holds the objects, arrows, identities and table of data, in order."""
    objects, arrows, identities, compose = data
    return (
        c.objects == objects
        and c.arrows == arrows
        and list(c.identity.items()) == list(identities.items())
        and list(c.compose.items()) == list(compose.items())
    )


def reference_load_graph(path):
    doc = fileio._load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    vertices = fileio._require(doc, "vertices", path)
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedInput(f"{path}: 'vertices' must be a list of strings")
    edges_doc = fileio._require(doc, "edges", path)
    if not isinstance(edges_doc, list):
        raise MalformedInput(f"{path}: 'edges' must be a list")
    edges = reference_arrows(edges_doc, f"{path}: edges")
    names = [e.name for e in edges]
    if len(set(names)) != len(names):
        raise MalformedInput(f"{path}: duplicate edge names")
    try:
        return DirectedGraph(tuple(vertices), tuple(edges))
    except MalformedInput as e:
        raise MalformedInput(f"{path}: {e}")


def category_document(c):
    """The file format of c, with every object and arrow name as a string."""
    return {
        "objects": [str(o) for o in c.objects],
        "arrows": [{"name": str(a.name), "src": str(a.src), "tgt": str(a.tgt)} for a in c.arrows],
        "identities": {str(o): str(n) for o, n in c.identity.items()},
        "compose": [[str(g), str(f), str(gf)] for (g, f), gf in c.compose.items()],
    }


def outcome(load, path):
    try:
        return "ok", load(path)
    except MalformedInput as e:
        return "error", str(e)


def mutations(entries, kind):
    """Copies of a list of arrow entries ("arrow") or compose triples
    ("triple"), each with one entry, or two, made bad: a wrong type, a
    missing key, a non-triple or a duplicate, at the first, a middle and
    the last entry."""
    n = len(entries)
    spots = sorted({0, n // 2, n - 1})
    for i in spots:
        entry = entries[i]
        bad = [5, None, "x", [entry]]
        if kind == "arrow":
            bad += [{k: v for k, v in entry.items() if k != key} for key in ("name", "src", "tgt")]
            bad += [{**entry, key: value} for key in ("name", "src", "tgt") for value in (3, None, [entry[key]])]
            bad += [entries[0], list(entry.values())]
        else:
            bad += [entry[:2], entry + entry[:1], [], tuple(entry)]
            bad += [entry[:j] + [value] + entry[j + 1:] for j in range(3) for value in (3, None, True, [entry[j]])]
            bad += [entries[0], entries[-1], entry[:2] + [entries[0][2]]]
        for value in bad:
            yield entries[:i] + [value] + entries[i + 1:]
    # two bad entries: the walk names the earlier one, whatever the later is
    if n > 2:
        yield [entries[0]] + [entries[0]] + entries[2:-1] + [7]
        yield [7] + entries[1:-1] + [entries[0]]
        yield entries[:n // 2] + [[1, 2]] + entries[n // 2:-1] + [entries[0]]


def document_mutations(doc):
    """Copies of a category document, each broken where the constructor
    looks: a repeated object or arrow name, an endpoint outside the
    objects, an identity table that names an unknown arrow or misses or
    adds an object, a compose entry naming an unknown arrow at g, f or
    gf, a missing, an extra, a swapped or a repeated pair, and pairs of these faults,
    which must be reported in the loader's order."""
    objects, arrows, identities, compose = doc["objects"], doc["arrows"], doc["identities"], doc["compose"]
    spots = sorted({0, len(compose) // 2, len(compose) - 1})
    yield {"objects": objects + objects[:1]}
    yield {"objects": objects[:1] + objects}
    yield {"arrows": arrows + arrows[-1:]}
    yield {"arrows": arrows + [{**arrows[0], "src": objects[-1], "tgt": objects[-1]}]}
    for i in sorted({0, len(arrows) - 1}):
        for key in ("src", "tgt"):
            yield {"arrows": arrows[:i] + [{**arrows[i], key: "nowhere"}] + arrows[i + 1:]}
    first = next(iter(identities))
    yield {"identities": {**identities, first: "nosuch"}}
    yield {"identities": {**identities, objects[-1]: "nosuch", first: "nosuch"}}
    yield {"identities": {k: v for k, v in identities.items() if k != first}}
    yield {"identities": {**identities, "elsewhere": identities[first]}}
    for i in spots:
        for j in range(3):
            yield {"compose": compose[:i] + [compose[i][:j] + ["nosuch"] + compose[i][j + 1:]] + compose[i + 1:]}
        yield {"compose": compose[:i] + compose[i + 1:]}
        g, f, gf = compose[i]
        yield {"compose": compose[:i] + [[f, g, gf]] + compose[i + 1:]}
    tgt = {a["name"]: a["tgt"] for a in arrows}
    src = {a["name"]: a["src"] for a in arrows}
    loose = [[g, f, f] for g in src for f in src if tgt[f] != src[g]]
    for extra in loose[:1] + loose[-1:]:
        yield {"compose": compose + [extra]}
        yield {"compose": [extra] + compose[1:]}
    # a pair given twice, every other pair once
    yield {"compose": compose + compose[-1:]}
    yield {"compose": compose[:1] + compose}
    # two faults: the earlier check names its own
    yield {"compose": compose + compose[:1], "objects": objects + objects[:1]}
    yield {"compose": compose + compose[:1], "identities": {**identities, first: "nosuch"}}
    yield {"compose": compose[1:-1] + [compose[-1][:2] + ["nosuch"]]}
    yield {"arrows": arrows + arrows[:1], "identities": {**identities, first: "nosuch"}}
    yield {"identities": {**identities, first: "nosuch"}, "compose": compose[1:]}


def test_bulk_category_loader_matches_the_per_entry_walk(tmp_path):
    cats = [
        load_category(os.path.join(DATA, "six.json")),
        product(chain_category(4), cyclic_group_category(2)),
        divisor_poset_category(12),
    ]
    messages = set()
    for c in cats:
        doc = category_document(c)
        path = write_tmp(tmp_path, "cat.json", doc)
        kind, loaded = outcome(load_category, path)
        assert kind == "ok" and same_data(loaded, reference_load_category(path))
        variants = [{key: entries} for key, kind in (("arrows", "arrow"), ("compose", "triple"))
                    for entries in mutations(doc[key], kind)]
        # the identity table keeps the order the file gives it in
        variants.append({"identities": dict(reversed(doc["identities"].items()))})
        for change in variants + list(document_mutations(doc)):
            path = write_tmp(tmp_path, "cat.json", dict(doc, **change))
            got, want = outcome(load_category, path), outcome(reference_load_category, path)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert same_data(got[1], want[1])
            else:
                assert got[1] == want[1]
                messages.add(got[1][len(path) + 2:].split("]: ")[-1])
    stems = {
        "must be an object",
        "must be a triple [g, f, gf]",
        "arrow names must be strings",
        "duplicate entry for pair",
        "'src' must be a string",
        "missing 'tgt'",
        "duplicate object identifiers",
        "duplicate arrow names",
        "arrow '",
        "identity table must cover exactly the objects",
        "identity of",
        "compose entry",
        "compose: missing entry for composable pair",
        "compose: pair",
    }
    assert all(any(m.startswith(stem) for m in messages) for stem in stems)


def fine_outcome(c, rig):
    try:
        return [(name, repr(value)) for name, value in fine_mobius(c, rig).values.items()]
    except (MalformedInput, NotInvertible) as err:
        return type(err).__name__, str(err), getattr(err, "witness", None)


def test_loaded_categories_read_the_file_through_their_name_views(tmp_path):
    # a loaded category keeps positions; compose and factorizations() are
    # built from them on first read and must give the file's table in its
    # order, and fine mu and the laws must not tell it from the category
    # built from the same dict.  Each table is also loaded with one
    # composite swapped for another arrow, which can break a law
    rng = random.Random(11)
    cats = list(named_categories().values()) + general_corpus(99, 40)
    outcomes = set()
    for c in cats:
        doc = category_document(c)
        k = rng.randrange(len(doc["compose"]))
        swapped = [list(entry) for entry in doc["compose"]]
        swapped[k][2] = rng.choice(doc["arrows"])["name"]
        for table in (doc["compose"], swapped):
            path = write_tmp(tmp_path, "cat.json", dict(doc, compose=table))
            loaded = load_category(path)
            assert list(loaded.compose.items()) == [((g, f), gf) for g, f, gf in table]
            want = {a["name"]: [] for a in doc["arrows"]}
            for g, f, gf in table:
                want[gf].append((f, g))
            assert list(loaded.factorizations().items()) == list(want.items())
            arrows = [(a["name"], a["src"], a["tgt"]) for a in doc["arrows"]]
            built = FinCategory(doc["objects"], arrows, doc["identities"], {(g, f): gf for g, f, gf in table})
            pairs = [(a, b) for a in doc["objects"] for b in doc["objects"]]
            assert loaded.arrows == built.arrows
            assert [loaded.hom(a, b) for a, b in pairs] == [built.hom(a, b) for a, b in pairs]
            report = validate_category(loaded)
            assert report == validate_category(built)
            for rig in (RAT, INT):
                outcome = fine_outcome(loaded, rig)
                assert outcome == fine_outcome(built, rig)
                outcomes.add(outcome[0] if isinstance(outcome, tuple) else "ok")
            outcomes.add(report.law)
    assert {"ok", "NotInvertible", "MalformedInput", "", "composite-endpoints", "associativity"} <= outcomes


def test_bulk_graph_loader_matches_the_per_entry_walk(tmp_path):
    c = product(chain_category(3), cyclic_group_category(2))
    doc = category_document(c)
    graph = {"vertices": doc["objects"], "edges": doc["arrows"]}
    for entries in [graph["edges"]] + list(mutations(graph["edges"], "arrow")):
        path = write_tmp(tmp_path, "graph.json", dict(graph, edges=entries))
        got, want = outcome(load_graph, path), outcome(reference_load_graph, path)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert graphs_equal(got[1], want[1]) and got[1].edges == want[1].edges
        else:
            assert got[1] == want[1]


def reference_distance_row(row, path, i):
    out = []
    for j, value in enumerate(row):
        if value == "inf":
            out.append(math.inf)
        elif fileio._is_float(value):
            if value != value:
                raise MalformedInput(f"{path}: distances[{i}][{j}]: NaN is not a distance")
            out.append(float(value))
        else:
            raise MalformedInput(f"{path}: distances[{i}][{j}]: expected a number or \"inf\"")
    return out


def test_bulk_distance_rows_match_the_per_entry_walk(tmp_path):
    edge = [
        10**400, -(10**400), fileio._FLOAT_MAX, fileio._FLOAT_MAX + 1, -fileio._FLOAT_MAX - 1,
        1e308, math.inf, -math.inf, math.nan, "inf", "x", True, None, [], -0.0, 0,
    ]
    base = [[0, 1.5, 2, 3.0], [1.5, 0, 0.5, 1], [2, 0.5, 0.0, 4], [3.0, 1, 4, 0]]
    for value in edge:
        for i in range(4):
            for j in (0, 2, 3):
                for extra in (None, math.nan, "y"):
                    rows = [list(r) for r in base]
                    rows[i][j] = value
                    if extra is not None and j != 3:
                        rows[i][3] = extra
                    path = write_tmp(tmp_path, "m.json", {"points": list("pqrs"), "distances": rows, "symmetric": False})
                    try:
                        parsed = [reference_distance_row(r, path, k) for k, r in enumerate(rows)]
                        space = MetricSpace.from_distances(list("pqrs"), parsed, symmetric=False)
                        want = ("ok", space.distances.tolist())
                    except MalformedInput as e:
                        want = ("error", str(e) if str(e).startswith(path) else f"{path}: {e}")
                    got = outcome(load_metric, path)
                    if got[0] == "ok":
                        got = ("ok", got[1].distances.tolist())
                    assert got == want
