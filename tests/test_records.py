"""The result types are immutable records with value semantics.

Each case below builds one record of every result class, by keyword, and
gives the repr it must print. A record equals only a record of the same
class with equal fields: never a tuple of its fields, and never a record
of another class holding the same fields, so that an assertion such as
`report.verdict == Forced("v")` cannot pass on a `Unimodal("v")`.
"""

from __future__ import annotations

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from treeucat import (
    CheckReport,
    Component,
    ComponentCheck,
    Decomposition,
    EdgeLinearDensity,
    FeasibilityCertificate,
    Forced,
    MetricTree,
    ModeWitness,
    NotUnimodal,
    PruneReport,
    Subdivision,
    SweepResult,
    TraceEvent,
    Unimodal,
)
from treeucat.documents import DecompositionDocument
from treeucat.simplex import LPResult

TREE = MetricTree(["a", "b"], [("a", "b", 1)])
F = EdgeLinearDensity(TREE, {"a": 1, "b": 2})
ZERO = EdgeLinearDensity(TREE, {})

# (class, fields by keyword in declaration order, repr)
CASES = [
    (
        ModeWitness,
        {"mode": "b", "max_value": Fraction(2)},
        "ModeWitness(mode='b', max_value=Fraction(2, 1))",
    ),
    (
        NotUnimodal,
        {"edge": ("a", "b"), "zero_density": False},
        "NotUnimodal(edge=('a', 'b'), zero_density=False)",
    ),
    (Unimodal, {"mode": "v"}, "Unimodal(mode='v')"),
    (Forced, {"chosen": "v4"}, "Forced(chosen='v4')"),
    (
        PruneReport,
        {"surviving": frozenset({"b"}), "forced_leaves": ("b",), "verdict": Forced("b")},
        "PruneReport(surviving=frozenset({'b'}), forced_leaves=('b',),"
        " verdict=Forced(chosen='b'))",
    ),
    (
        Component,
        {"mode": "b", "density": F},
        "Component(mode='b', density=EdgeLinearDensity(a=1, b=2))",
    ),
    (
        Decomposition,
        {"refined_tree": TREE, "components": (Component("b", F),)},
        "Decomposition(refined_tree=MetricTree(2 vertices, 1 edges),"
        " components=(Component(mode='b', density=EdgeLinearDensity(a=1, b=2)),))",
    ),
    (
        TraceEvent,
        {"iteration": 1, "forced_vertex": "B", "remaining_mass": Fraction(0)},
        "TraceEvent(iteration=1, forced_vertex='B', remaining_mass=Fraction(0, 1))",
    ),
    (
        LPResult,
        {"status": "optimal", "x": (Fraction(1, 3),), "objective": Fraction(1, 3)},
        "LPResult(status='optimal', x=(Fraction(1, 3),), objective=Fraction(1, 3))",
    ),
    (
        Subdivision,
        {"vertex": "_s1", "u": "a", "w": "b", "t": Fraction(1, 2)},
        "Subdivision(vertex='_s1', u='a', w='b', t=Fraction(1, 2))",
    ),
    (
        SweepResult,
        {"h": F, "remainder": ZERO, "origin": "b", "subdivisions": ()},
        "SweepResult(h=EdgeLinearDensity(a=1, b=2), remainder=EdgeLinearDensity(a=0,"
        " b=0), origin='b', subdivisions=())",
    ),
    (
        ComponentCheck,
        {"index": 0, "ok": False, "detail": "rising edge a -> b"},
        "ComponentCheck(index=0, ok=False, detail='rising edge a -> b')",
    ),
    (
        CheckReport,
        {
            "sum_ok": False,
            "sum_mismatches": (("a", Fraction(1), Fraction(0)),),
            "components": (ComponentCheck(0, True, ""),),
            "count": 1,
            "overall": False,
        },
        "CheckReport(sum_ok=False, sum_mismatches=(('a', Fraction(1, 1),"
        " Fraction(0, 1)),), components=(ComponentCheck(index=0, ok=True,"
        " detail=''),), count=1, overall=False)",
    ),
    (
        FeasibilityCertificate,
        {"modes": ("b",), "components": ({"a": Fraction(1), "b": Fraction(2)},)},
        "FeasibilityCertificate(modes=('b',), components=({'a': Fraction(1, 1),"
        " 'b': Fraction(2, 1)},))",
    ),
    (
        DecompositionDocument,
        {"tree": TREE, "components": (), "ucat": 0, "provenance": {"tool": "t"}},
        "DecompositionDocument(tree=MetricTree(2 vertices, 1 edges), components=(),"
        " ucat=0, provenance={'tool': 't'})",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_result_class_has_a_case():
    assert len(set(IDS)) == len(CASES) == 15


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_keyword_construction_sets_each_field(cls, fields, text):
    record = cls(**fields)
    assert record == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_fields_make_equal_records(cls, fields, text):
    record = cls(**fields)
    twin = cls(**copy.deepcopy(fields))
    assert record == twin and not record != twin
    assert record != tuple(fields.values())
    assert tuple(fields.values()) != record
    name, value = next(iter(fields.items()))
    assert record != cls(**{**fields, name: (value,)})


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, fields, text):
    record = cls(**fields)
    values = tuple(fields.values())
    try:
        expected = hash(values)
    except TypeError:  # a field, such as a dict, is unhashable
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == expected == hash(cls(**copy.deepcopy(fields)))


def test_records_of_different_classes_are_never_equal():
    assert Forced("v") != Unimodal("v")
    assert Forced("v").__eq__(Unimodal("v")) is NotImplemented
    arity = {cls: len(fields) for cls, fields, _ in CASES}
    for (a, fields, _), (b, _, _) in itertools.permutations(CASES, 2):
        if arity[b] == len(fields):
            values = tuple(fields.values())
            assert a(*values) != b(*values)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, text):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value


def test_not_unimodal_defaults_to_a_witness_edge():
    record = NotUnimodal(("a", "b"))
    assert record.zero_density is False
    assert record == NotUnimodal(edge=("a", "b"), zero_density=False)
    assert NotUnimodal(None, zero_density=True) != NotUnimodal(None)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, text):
    record = cls(**fields)
    copies = [copy.copy(record), copy.deepcopy(record)]
    # from protocol 2 on: `MetricTree` and `EdgeLinearDensity` use slots
    # without `__getstate__`, which protocols 0 and 1 cannot pickle
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(record, protocol)))
    for other in copies:
        assert type(other) is cls
        assert other == record
        assert repr(other) == text
