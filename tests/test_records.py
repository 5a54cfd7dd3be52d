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
    Cut,
    Decomposition,
    EdgeLinearDensity,
    FeasibilityCertificate,
    Forced,
    MetricTree,
    ModeWitness,
    NotUnimodal,
    PruneReport,
    SweepResult,
    TraceEvent,
    Unimodal,
)
from treeucat.documents import DecompositionDocument
from treeucat.simplex import LPResult

from helpers import count_builds

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
        {"status": "feasible", "x": (1,), "d": 3},
        "LPResult(status='feasible', x=(1,), d=3)",
    ),
    (
        Cut,
        {"u": "a", "w": "b", "t": Fraction(1, 2)},
        "Cut(u='a', w='b', t=Fraction(1, 2))",
    ),
    (
        SweepResult,
        {"h": F, "remainder": ZERO, "origin": "b", "cuts": ()},
        "SweepResult(h=EdgeLinearDensity(a=1, b=2), remainder=EdgeLinearDensity(a=0,"
        " b=0), origin='b', cuts=())",
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
        {
            "components": (("b", {"a": Fraction(1), "b": Fraction(2)}),),
            "ucat": 1,
            "provenance": {"tool": "t"},
        },
        "DecompositionDocument(components=(('b', {'a': Fraction(1, 1),"
        " 'b': Fraction(2, 1)}),), ucat=1, provenance={'tool': 't'})",
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


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_refuses_a_field_not_given_once(cls, fields, text):
    # each field is given once, by position or by keyword; `Record`'s own
    # constructor names the record's fields in its error
    values, first = tuple(fields.values()), next(iter(fields))
    misfits = {
        "missing": ((), {k: v for k, v in fields.items() if k != first}),
        "extra": ((*values, 0), {}),
        "unknown": ((), {**fields, "colour": 0}),
        "repeated": (values[:1], fields),
    }
    if "__init__" not in vars(cls):
        misfits["too few"] = (values[:-1], {})
    for what, (args, named) in misfits.items():
        with pytest.raises(TypeError) as err:
            cls(*args, **named)
        if "__init__" not in vars(cls):
            message = f"{cls.__name__} takes its fields ({', '.join(fields)}),"
            assert str(err.value).startswith(message), (what, str(err.value))


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
    # every protocol, 0 and 1 included: the slot classes `MetricTree` and
    # `EdgeLinearDensity` rebuild through their validating constructors
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(record, protocol)))
    for other in copies:
        assert type(other) is cls
        assert other == record
        assert repr(other) == text


def test_a_component_built_from_rows_is_its_density_twin(monkeypatch):
    # `decompose` and binding build a component from its rows, the support
    # map a density stores, and its density only when it is read: the
    # record is still the one its density gives, with the same fields, and
    # the density is built once
    rows = {0: (1, 1), 1: (2, 1)}
    twin = Component("b", F)
    built = count_builds(monkeypatch, EdgeLinearDensity)

    def fresh():
        return Component._from_rows("b", TREE, rows)

    component = fresh()
    assert component.rows is rows and component.tree is TREE
    assert twin.rows == rows and twin.tree is TREE
    assert built[EdgeLinearDensity] == 0
    assert fresh() == twin and twin == fresh() and not fresh() != twin
    assert fresh() != Component("a", F) and fresh() != ("b", F)
    assert hash(fresh()) == hash(twin) == hash(("b", F))
    assert repr(fresh()) == repr(twin) == (
        "Component(mode='b', density=EdgeLinearDensity(a=1, b=2))"
    )
    for other in [copy.copy(fresh()), copy.deepcopy(fresh())] + [
        pickle.loads(pickle.dumps(fresh(), protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert type(other) is Component
        assert other == twin and repr(other) == repr(twin)

    built[EdgeLinearDensity] = 0
    density = component.density
    assert component.density is density
    assert built[EdgeLinearDensity] == 1
    assert density == F
    # a reduced pair is stored as the very tuple given
    for (_, stored), (_, given) in zip(density.index_items(), rows.items()):
        assert stored is given
    with pytest.raises(AttributeError):
        component.density = F
    with pytest.raises(AttributeError):
        component.rows = rows
