"""The value classes: equality, hashing, repr text and immutability.

The classes write their own methods on the bases in ``mobiuskit._record``;
these tests hold them to what ``dataclasses`` generates for the same
fields (frozen, mutable, or frozen with identity equality).
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from mobiuskit.category import Arrow, DirectedGraph, Functor, ValidationReport, identity_functor, poset_to_category
from mobiuskit.enriched import GradedGraphCategory, MetricSpace
from mobiuskit.errors import MalformedInput
from mobiuskit.incidence import CoarseElement, FineElement, PatchElement
from mobiuskit.infinite import PatchOracleCategory
from mobiuskit.matrixrig import RigMatrix
from mobiuskit.rigs import INT, RAT, Rig, TruncatedSeries


def two_chain():
    return poset_to_category(["a", "b"], [("a", "b")])


def test_frozen_records_compare_and_hash_by_fields():
    cases = [
        (Arrow("f", "a", "b"), Arrow("f", "a", "b"), Arrow("f", "a", "c"),
         "Arrow(name='f', src='a', tgt='b')", ("f", "a", "b")),
        (ValidationReport(True), ValidationReport(True, "", ""), ValidationReport(False, "left-unit", "x"),
         "ValidationReport(ok=True, law='', witness='')", (True, "", "")),
        (RigMatrix(INT, ((1, 0), (0, 1))), RigMatrix(INT, ((1, 0), (0, 1))), RigMatrix(RAT, ((1, 0), (0, 1))),
         "RigMatrix(rig=Rig(int), rows=((1, 0), (0, 1)))", (INT, ((1, 0), (0, 1)))),
        (TruncatedSeries((1, 2), 1), TruncatedSeries((1, 2), 1), TruncatedSeries((1, 2, 0), 2),
         "TruncatedSeries(coefficients=(1, 2), truncation_degree=1)", ((1, 2), 1)),
        (PatchOracleCategory("p", max, min), PatchOracleCategory("p", max, min, None), PatchOracleCategory("p", max, max),
         "PatchOracleCategory(name='p', hom_count=<built-in function max>, "
         "patch_objects=<built-in function min>, targets=None)", ("p", max, min, None)),
    ]
    for record, same, other, text, values in cases:
        assert repr(record) == text
        assert record == same and not record != same and hash(record) == hash(same)
        assert record != other and not record == other
        # equality asks for the same class, not the same field values alone
        assert record != values and hash(record) == hash(values)
        name = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_rig_keeps_its_short_repr_and_compares_every_operation():
    assert repr(INT) == "Rig(int)" and repr(RAT) == "Rig(rat)"
    fields = dict(name="z", zero=0, one=1, add=max, mul=min, eq=int.__eq__, from_int=int)
    rig = Rig(**fields)
    assert rig == Rig(**fields) and hash(rig) == hash(Rig(**fields))
    assert rig != Rig(**dict(fields, mul=max)) and rig != Rig(**fields, exact=False)
    assert (rig.neg, rig.inv, rig.characteristic_zero, rig.exact, rig.from_quotient) == (None, None, True, True, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        rig.name = "y"
    assert pickle.loads(pickle.dumps(INT)) == INT


def test_mutable_records_compare_by_fields_and_are_unhashable():
    c = two_chain()
    values = {("le", "a", "a"): 1, ("le", "a", "b"): -1, ("le", "b", "b"): 1}
    fine = FineElement(c, INT, values)
    assert repr(fine) == (
        "FineElement(category=FinCategory(2 objects, 3 arrows), rig=Rig(int), "
        "values={('le', 'a', 'a'): 1, ('le', 'a', 'b'): -1, ('le', 'b', 'b'): 1})"
    )
    assert fine == FineElement(c, INT, dict(values))
    assert fine != FineElement(c, RAT, values)
    # the category compares by identity, as FinCategory has no equality of its own
    assert fine != FineElement(two_chain(), INT, values)
    matrix = RigMatrix(RAT, ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))))
    coarse = CoarseElement(("a", "b"), RAT, matrix)
    assert repr(coarse) == (
        "CoarseElement(objects=('a', 'b'), rig=Rig(rat), matrix=RigMatrix(rig=Rig(rat), "
        "rows=((Fraction(1, 1), Fraction(-1, 1)), (Fraction(0, 1), Fraction(1, 1)))), "
        "category=None, enrichment='finite_sets')"
    )
    assert coarse == CoarseElement(("a", "b"), RAT, matrix, None, "finite_sets")
    assert coarse != CoarseElement(("a", "b"), RAT, matrix, enrichment="metric")
    patch = PatchElement(("a", "b"), RAT, matrix, frozenset({("a", "a"), ("a", "b"), ("b", "b")}))
    assert patch == PatchElement(("a", "b"), RAT, matrix, frozenset({("a", "a"), ("a", "b"), ("b", "b")}), None)
    functor = identity_functor(c)
    assert functor == Functor(c, c, dict(functor.object_map), dict(functor.arrow_map))
    with pytest.raises(TypeError, match="unhashable type"):
        hash(functor)
    for record in (fine, coarse, patch):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
        # the fields stay assignable, and no other attribute is (the class has __slots__)
        record.rig = RAT
        assert record.rig is RAT
        with pytest.raises(AttributeError):
            record.extra = 1
    assert copy.copy(coarse) == coarse and pickle.loads(pickle.dumps(coarse)) == coarse


def test_metric_space_equals_only_itself():
    space = MetricSpace(("p", "q"), [[0, 1], [1, 0]])
    twin = MetricSpace(("p", "q"), [[0, 1], [1, 0]])
    assert repr(space) == (
        "MetricSpace(points=('p', 'q'), distances=array([[0., 1.],\n       [1., 0.]]), symmetric=True)"
    )
    assert space == space and space != twin and not space == twin
    assert hash(space) == object.__hash__(space) and len({space, twin}) == 2
    assert isinstance(space.distances, np.ndarray) and not space.distances.flags.writeable
    with pytest.raises(AttributeError, match="cannot assign to field 'points'"):
        space.points = ("r", "s")


def test_constructors_keep_their_checks():
    with pytest.raises(MalformedInput, match="truncation degree must be >= 1"):
        GradedGraphCategory(DirectedGraph(("a",), ()), 0)
    with pytest.raises(MalformedInput, match="series needs 2 coefficients, got 1"):
        TruncatedSeries((1,), 1)
    with pytest.raises(MalformedInput, match="matrix is not square"):
        RigMatrix(INT, ((1, 0),))
