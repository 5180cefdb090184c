import json
import math
import os

import pytest

from mobiuskit.errors import MalformedInput
from mobiuskit.fileio import load_category, load_functor, load_graph, load_matrix, load_metric
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
    assert graph.edge_count("u", "v") == 1
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
