"""JSON file formats for categories, metrics, graphs, matrices and functors.

All parse errors are MalformedInput with positional messages so the CLI can
point at the offending entry.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain, starmap
from operator import itemgetter

from .category import Arrow, DirectedGraph, FinCategory, Functor
from .enriched import MetricSpace
from .errors import MalformedInput
from .matrixrig import RigMatrix
from .rigs import Rig, parse_element


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise MalformedInput(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise MalformedInput(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}")
    except UnicodeDecodeError as e:
        raise MalformedInput(f"{path}: not UTF-8 text (byte {e.start})") from None
    except RecursionError:
        raise MalformedInput(f"{path}: JSON nested too deeply") from None
    except OSError as e:
        raise MalformedInput(f"{path}: cannot read: {e.strerror}") from None


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise MalformedInput(f"{where}: missing '{key}'")
    return doc[key]


def _require_str(doc: dict, key: str, where: str) -> str:
    value = _require(doc, key, where)
    if not isinstance(value, str):
        raise MalformedInput(f"{where}: '{key}' must be a string")
    return value


def _types(values) -> set:
    return set(map(type, values))


_ARROW_FIELDS = itemgetter("name", "src", "tgt")


def _arrow_fields(entries: list, where: str) -> list:
    """The {"name", "src", "tgt"} entries as (name, src, tgt) tuples.

    The types of the whole list are checked in one pass; only when that
    fails are the entries walked one by one, to name the first bad one as
    where[i].
    """
    if _types(entries) <= {dict}:
        try:
            fields = list(map(_ARROW_FIELDS, entries))
        except KeyError:
            fields = None
        if fields is not None and _types(chain.from_iterable(fields)) <= {str}:
            return fields
    fields = []
    for i, entry in enumerate(entries):
        at = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise MalformedInput(f"{at}: must be an object")
        fields.append((_require_str(entry, "name", at), _require_str(entry, "src", at), _require_str(entry, "tgt", at)))
    return fields


def _first_bad_entry(entries: list, where: str) -> None:
    """Raise MalformedInput naming the first [g, f, gf] entry, as where[i],
    that is not a triple of strings or repeats the pair of an earlier one;
    return when there is none."""
    pairs = set()
    for i, entry in enumerate(entries):
        at = f"{where}[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise MalformedInput(f"{at}: must be a triple [g, f, gf]")
        g, f, gf = entry
        if not (isinstance(g, str) and isinstance(f, str) and isinstance(gf, str)):
            raise MalformedInput(f"{at}: arrow names must be strings")
        if (g, f) in pairs:
            raise MalformedInput(f"{at}: duplicate entry for pair ({g!r}, {f!r})")
        pairs.add((g, f))


def load_category(path: str) -> FinCategory:
    """Parse the category file format.

    {"objects": [...], "arrows": [{"name","src","tgt"}...],
     "identities": {obj: arrowName}, "compose": [[g, f, gf], ...]}

    The compose list must mention every composable pair exactly once.
    Each name of the list is mapped to its arrow position once, and that
    map also proves it is an arrow name, so a string.  Only when the
    shapes of the entries or the category's checks fail are the entries
    walked one by one: a bad or repeated entry is named as compose[i],
    before any fault of the structure, as the loader has always ordered
    them.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    objects = _require(doc, "objects", path)
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise MalformedInput(f"{path}: 'objects' must be a list of strings")
    arrows_doc = _require(doc, "arrows", path)
    if not isinstance(arrows_doc, list):
        raise MalformedInput(f"{path}: 'arrows' must be a list")
    fields = _arrow_fields(arrows_doc, f"{path}: arrows")
    identities = _require(doc, "identities", path)
    if not isinstance(identities, dict):
        raise MalformedInput(f"{path}: 'identities' must map objects to arrow names")
    for obj, name in identities.items():
        if not isinstance(name, str):
            raise MalformedInput(f"{path}: identities[{obj!r}]: must be a string")
    compose = _require(doc, "compose", path)
    if not isinstance(compose, list):
        raise MalformedInput(f"{path}: 'compose' must be a list")
    if not (_types(compose) <= {list} and set(map(len, compose)) <= {3}):
        _first_bad_entry(compose, f"{path}: compose")
    try:
        return FinCategory._from_entries(objects, fields, identities, compose)
    except (MalformedInput, TypeError) as e:
        # a list or an object among the names is unhashable (TypeError);
        # the walk names it, as it names a repeated pair
        _first_bad_entry(compose, f"{path}: compose")
        raise MalformedInput(f"{path}: {e}")


# magnitude holds several n x n float arrays and runs an O(n^3) Cholesky
# factorisation (or eigenvalue decomposition) and solve; larger spaces are
# refused before any distance is read or any array allocated
MAX_METRIC_POINTS = 3000

_FLOAT_MAX = int(sys.float_info.max)


def _is_float(value) -> bool:
    """A JSON number (not a bool) that converts to a float without overflow."""
    return isinstance(value, float) or type(value) is int and abs(value) <= _FLOAT_MAX


def _distance_row(row, n: int, where: str) -> list:
    """A distances row of n entries: the row itself when its entries are
    floats or ints in float range, none NaN, as C-level passes find (min and
    max compare ints with floats exactly, and the sum from 0.0 is NaN at a
    NaN entry, or at inf beside -inf); else the entries walked as floats, the
    string "inf" as math.inf.  Raise MalformedInput at a row of another
    shape or its first bad entry."""
    if not isinstance(row, list) or len(row) != n:
        raise MalformedInput(f"{where}: must be a list of {n} distances")
    kinds = _types(row)
    if kinds <= {float, int} and (int not in kinds or -_FLOAT_MAX <= min(row) <= max(row) <= _FLOAT_MAX):
        if not math.isnan(sum(row, 0.0)):
            return row
    out = []
    for j, value in enumerate(row):
        if value == "inf":
            out.append(math.inf)
        elif _is_float(value):
            if value != value:
                raise MalformedInput(f"{where}[{j}]: NaN is not a distance")
            out.append(float(value))
        else:
            raise MalformedInput(f"{where}[{j}]: expected a number or \"inf\"")
    return out


def load_metric(path: str) -> MetricSpace:
    """Parse {"points": [...], "distances": [[...]]} or {"points", "coords"}.

    The string "inf" encodes an infinite distance.  A file listing more than
    MAX_METRIC_POINTS points is refused before any distance is read.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    points = _require(doc, "points", path)
    if not isinstance(points, list):
        raise MalformedInput(f"{path}: 'points' must be a list")
    if len(points) > MAX_METRIC_POINTS:
        raise MalformedInput(f"{path}: metric spaces are limited to {MAX_METRIC_POINTS} points, got {len(points)}")
    if "distances" in doc and "coords" in doc:
        raise MalformedInput(f"{path}: give 'distances' or 'coords', not both")
    if "distances" in doc:
        distances = doc["distances"]
        if not isinstance(distances, list) or len(distances) != len(points):
            raise MalformedInput(f"{path}: 'distances' must be a list of {len(points)} rows, one per point")
        symmetric = doc.get("symmetric", True)
        if not isinstance(symmetric, bool):
            raise MalformedInput(f"{path}: 'symmetric' must be true or false")
        rows = [_distance_row(row, len(points), f"{path}: distances[{i}]") for i, row in enumerate(distances)]
        try:
            return MetricSpace.from_distances(points, rows, symmetric=symmetric)
        except MalformedInput as e:
            raise MalformedInput(f"{path}: {e}")
    if "coords" in doc:
        coords = doc["coords"]
        if not isinstance(coords, list):
            raise MalformedInput(f"{path}: 'coords' must be a list of rows, one per point")
        for i, row in enumerate(coords):
            if not (isinstance(row, list) and len(row) == len(coords[0])):
                raise MalformedInput(f"{path}: coords[{i}]: must be a list of numbers as long as coords[0]")
            for j, value in enumerate(row):
                if not (_is_float(value) and math.isfinite(value)):
                    raise MalformedInput(f"{path}: coords[{i}][{j}]: expected a finite number")
        try:
            return MetricSpace.from_coords(points, coords)
        except MalformedInput as e:
            raise MalformedInput(f"{path}: {e}")
    raise MalformedInput(f"{path}: missing 'distances' or 'coords'")


def load_graph(path: str) -> DirectedGraph:
    """Parse {"vertices": [...], "edges": [{"name","src","tgt"}...]}."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    vertices = _require(doc, "vertices", path)
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedInput(f"{path}: 'vertices' must be a list of strings")
    edges_doc = _require(doc, "edges", path)
    if not isinstance(edges_doc, list):
        raise MalformedInput(f"{path}: 'edges' must be a list")
    edges = tuple(starmap(Arrow, _arrow_fields(edges_doc, f"{path}: edges")))
    try:
        return DirectedGraph(tuple(vertices), edges)
    except MalformedInput as e:
        raise MalformedInput(f"{path}: {e}")


def load_matrix(path: str, rig: Rig) -> RigMatrix:
    """Parse a JSON array of arrays; rationals written as 'p/q' strings."""
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise MalformedInput(f"{path}: top level must be an array of rows")
    rows = []
    for i, row in enumerate(doc):
        if not isinstance(row, list):
            raise MalformedInput(f"{path}: row {i} must be an array")
        parsed = []
        for j, value in enumerate(row):
            try:
                parsed.append(parse_element(rig, value))
            except MalformedInput as e:
                raise MalformedInput(f"{path}: entry [{i}][{j}]: {e}")
        rows.append(parsed)
    if any(len(r) != len(rows) for r in rows):
        raise MalformedInput(f"{path}: matrix must be square")
    return RigMatrix.from_rows(rig, rows)


def load_functor(path: str, source: FinCategory, target: FinCategory) -> Functor:
    """Parse a functor file: {"arrows": {f: Ff, ...}, "objects": {...}?}.

    The object map may be omitted; it is then derived from the images of
    the identity arrows.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level must be an object")
    arrow_map = _require(doc, "arrows", path)
    if not isinstance(arrow_map, dict):
        raise MalformedInput(f"{path}: 'arrows' must map arrow names to arrow names")
    for name, image in arrow_map.items():
        if not isinstance(image, str):
            raise MalformedInput(f"{path}: arrows[{name!r}]: image must be a string")
        if not source.has_arrow(name):
            raise MalformedInput(f"{path}: arrows: {name!r} is not an arrow of the source")
        if not target.has_arrow(image):
            raise MalformedInput(f"{path}: arrows: image {image!r} is not an arrow of the target")
    for name in source.arrow_names():
        if name not in arrow_map:
            raise MalformedInput(f"{path}: arrows: missing image for {name!r}")
    if "objects" in doc:
        object_map = doc["objects"]
        if not isinstance(object_map, dict):
            raise MalformedInput(f"{path}: 'objects' must map object names to object names")
        for obj, image in object_map.items():
            if not isinstance(image, str):
                raise MalformedInput(f"{path}: objects[{obj!r}]: must be a string")
    else:
        object_map = {o: target.src(arrow_map[source.identity[o]]) for o in source.objects}
    return Functor(source, target, object_map, arrow_map)
