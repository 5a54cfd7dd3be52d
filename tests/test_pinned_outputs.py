"""Pinned outputs: documents, check reports and error messages, byte for byte.

A speed-up inside the tree, the density, the greedy loop or the check must
not change what a user sees. Each family below is seeded; its
decomposition document and its check reports, one for the document as
written and one for a tampered copy, are pinned by their sha256. The
tampered copy drops the first component, lifts a far vertex of the next,
zeroes the one after and lowers the mode of the third, so that the report
holds sum mismatches, a rising edge found away from the support, an
identically zero component and a mode below its component's maximum.
Each check of `MetricTree`, of `EdgeLinearDensity`, of a document's shape
and of binding is pinned by the class and exact message of the error one
bad document or value raises, and so is which error comes first in
documents with several faults. A number too long for `str` is written as
a stand-in, and the messages and the check report that name one are
pinned too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from treeucat import (
    Component,
    Decomposition,
    EdgeLinearDensity,
    MetricTree,
    interval_ucat,
)
from treeucat.documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    serialize_decomposition,
)
from treeucat.errors import TreeUcatError
from treeucat.greedy import decompose
from treeucat.verify import check_decomposition

from helpers import (
    comb_instance,
    many_denominator_instance,
    monotone_arm_instance,
    path_instance,
    recursive_tree_instance,
)

FAMILIES = {
    "alternating path, n = 400": lambda: path_instance([1, 3] * 200)[1],
    "recursive_tree_instance(1, 400)": lambda: recursive_tree_instance(1, 400),
    "comb_instance(10)": lambda: comb_instance(10),
    "many_denominator_instance(1, 20)": lambda: many_denominator_instance(1, 20),
    "monotone arm, n = 600": lambda: monotone_arm_instance(1, 595),
}

# family -> sha256 of (document, report, report on the tampered document)
PINNED = {
    "alternating path, n = 400": (
        "88042ad054e6bdf99d9a894b99f641cf60a0a8205e01c3b6ff70b0aa75f23155",
        "b728d7cc455d8f17c6530ef7a0f9219643e56dd2fc8e3daf15a48a0c9ded9246",
        "04167e8dc541c6a5b6820c5a8b68a8faee216e255887d0936698f61bf21b754b",
    ),
    "recursive_tree_instance(1, 400)": (
        "c6a84a49686e3f74944c8c1ae33fe39eb11b84349a9501a4dc198cc7a8f6c175",
        "f57ded9d9019c01948d46ed6e34f37442f090ee18873c7008b1e2c70bd8b2ae8",
        "7d6855482c83a5f1f6ee16e39fc2bb5379045ef24d600c4c1e04c381010f0154",
    ),
    "comb_instance(10)": (
        "67c3d28d3f3f9c135ba95406c67bd888eaa6d754f08c7e89c062566130516c3f",
        "4b45e3f09bff2c9a978c7acadb1ff506fee0777835cee75e418d3d9068434ce7",
        "d458181cd292838b977ec2535e47cf52d512ea8027af1a068456b9a9b33bf18a",
    ),
    "many_denominator_instance(1, 20)": (
        "15ada6a90a161b5d6f1145f44610a03ca5d8d7c0b9d2cf9ede2f513614dc8a89",
        "4b45e3f09bff2c9a978c7acadb1ff506fee0777835cee75e418d3d9068434ce7",
        "e199f42b820b1a7f76c00bc82f56751105cf6ca5769855598bd19eff860fd6cc",
    ),
    "monotone arm, n = 600": (
        "a47c38161fcda0f61e4804cdcb15164b53fcaf1bf1fdf0caf66d4672d2d77d93",
        "dba167a9c264f37ac716e4b57e4eda8f616bf276b8afad5f67d9c45c0763a871",
        "a0776784d1ccc1208176160a7c59d3930badb2b92b36d08da9b4fa179e7a8cdd",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tampered(text: str, f) -> str:
    data = json.loads(text)
    components = data["components"][1:]
    vertices = f.tree.vertices
    first = components[0]
    far = vertices[-1] if first["mode"] != vertices[-1] else vertices[0]
    first["values"][far] = "1000"
    if len(components) > 1:
        components[1]["values"] = {components[1]["mode"]: "0"}
    if len(components) > 2:
        components[2]["values"][components[2]["mode"]] = "1/7"
    data["components"] = components
    data["ucat"] = len(components)
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("family", list(FAMILIES))
def test_documents_and_reports_are_pinned(family):
    f = FAMILIES[family]()
    decomposition, _ = decompose(f)
    provenance = {"tool": "treeucat", "input_digest": instance_digest(f.tree, f)}
    text = serialize_decomposition(decomposition, provenance)
    reports = []
    for document in (text, _tampered(text, f)):
        bound = decomposition_from_document(parse_decomposition(document), f)
        reports.append(repr(check_decomposition(f, bound)))
    got = (_sha(text), *map(_sha, reports))
    assert got == PINNED[family]


def _instance(vertices, edges, density) -> str:
    return json.dumps(
        {
            "vertices": vertices,
            "edges": [{"u": u, "w": w, "length": x} for u, w, x in edges],
            "density": density,
        }
    )


_AB = [("a", "b", "1")]
_ONES = {"a": "1", "b": "1"}
_ABC = ["a", "b", "c"]
# a numeral within the document limits whose reduced denominator has 4,401
# digits, too many for `str`; messages and reports write a stand-in for it
_LONG = "5" * 3400 + "." + "3" * 3400 + "e-1000"
_LONG_SHOWN = "a number with more than 4,300 digits"

# (instance document, error class, message); one check fails in each of
# the first fifteen and the last four, several in each of the four between
BAD_INSTANCES = [
    (_instance([], [], {}), "InvalidTree", "a tree needs at least one vertex"),
    (_instance(["a", "b c"], [], {}), "InvalidVertexId", "invalid vertex id 'b c'"),
    (_instance(["a", 3], [], {}), "InvalidVertexId", "invalid vertex id 3"),
    (_instance(["a", "b", "a"], [], {}), "DuplicateVertexId", "duplicate vertex id 'a'"),
    (
        _instance(["a", "b"], [("x", "b", "1")], _ONES),
        "UnknownVertex",
        "edge endpoint 'x' is not a vertex",
    ),
    (
        _instance(["a", "b"], [("a", "y", "1")], _ONES),
        "UnknownVertex",
        "edge endpoint 'y' is not a vertex",
    ),
    (
        _instance(["a", "b"], [("a", "a", "1")], _ONES),
        "CycleDetected",
        "self-loop at 'a'",
    ),
    (
        _instance(["a", "b"], [("a", "b", "0")], _ONES),
        "NonPositiveLength",
        "edge 'a'-'b' has length 0",
    ),
    (
        _instance(["a", "b"], [("b", "a", "-1/2")], _ONES),
        "NonPositiveLength",
        "edge 'b'-'a' has length -1/2",
    ),
    (
        _instance(["a", "b"], [("a", "b", "1"), ("b", "a", "2")], _ONES),
        "CycleDetected",
        "parallel edge 'b'-'a'",
    ),
    (
        _instance(
            _ABC,
            [("a", "b", "1"), ("b", "c", "1"), ("c", "a", "1")],
            {"a": "1", "b": "1", "c": "1"},
        ),
        "CycleDetected",
        "3 edges on 3 vertices imply a cycle",
    ),
    (
        _instance(["d", "c", "a", "b"], [("a", "b", "1"), ("d", "c", "1")], {}),
        "Disconnected",
        "vertex 'a' unreachable from 'd'",
    ),
    (
        _instance(["a", "b"], _AB, {**_ONES, "z": "1"}),
        "TreeMismatch",
        "density value for 'z', not a tree vertex",
    ),
    (
        _instance(["a", "b"], _AB, {"a": "1", "b": "-2/3"}),
        "NegativeValue",
        "density value -2/3 at 'b' is negative",
    ),
    (
        _instance(_ABC, _AB + [("c", "b", "2")], _ONES),
        "TreeMismatch",
        "no density value for vertex 'c'",
    ),
    (
        _instance(
            _ABC,
            [("a", "b", "1"), ("b", "a", "1"), ("b", "c", "0"), ("c", "q", "1")],
            {},
        ),
        "CycleDetected",
        "parallel edge 'b'-'a'",
    ),
    (
        _instance(_ABC, [("q", "c", "0"), ("a", "b", "1")], {}),
        "UnknownVertex",
        "edge endpoint 'q' is not a vertex",
    ),
    (
        _instance(["b", "a", "a", "c d"], [], {}),
        "InvalidVertexId",
        "invalid vertex id 'c d'",
    ),
    (
        _instance(_ABC, _AB + [("b", "c", "1")], {"a": "-1", "z": "1"}),
        "NegativeValue",
        "density value -1 at 'a' is negative",
    ),
    (
        json.dumps({"vertices": ["a"], "edges": {}, "density": {"a": "1"}}),
        "DocumentError",
        "instance: edges must be a list",
    ),
    (
        _instance(["a"], [], ["1"]),
        "DocumentError",
        "density must map vertex ids to value strings",
    ),
    (
        _instance(["a", "b"], _AB, {"a": "1", "b": "-" + _LONG}),
        "NegativeValue",
        f"density value {_LONG_SHOWN} at 'b' is negative",
    ),
    (
        _instance(["a", "b"], [("a", "b", "-" + _LONG)], _ONES),
        "NonPositiveLength",
        f"edge 'a'-'b' has length {_LONG_SHOWN}",
    ),
]


@pytest.mark.parametrize("i", range(len(BAD_INSTANCES)))
def test_instance_errors_are_pinned(i):
    text, kind, message = BAD_INSTANCES[i]
    with pytest.raises(TreeUcatError) as caught:
        parse_instance(text)
    assert (type(caught.value).__name__, str(caught.value)) == (kind, message)


def _components(*components) -> str:
    return json.dumps(
        {
            "components": [{"mode": m, "values": v} for m, v in components],
            "ucat": len(components),
            "provenance": {"tool": "t", "input_digest": "{digest}"},
        }
    )


# (decomposition document on the path a-b-c, error class, message); the
# last three fail in `parse_decomposition`, before binding
BAD_BINDINGS = [
    (
        _components(("a", {"a": "1"}), ("z", {"a": "1"})),
        "DocumentError",
        "component 1: mode 'z' is not a tree vertex",
    ),
    (
        _components(("a", {"a": "1", "z": "1"})),
        "TreeMismatch",
        "density value for 'z', not a tree vertex",
    ),
    (
        _components(("a", {"a": "1", "b": "-1"})),
        "NegativeValue",
        "density value -1 at 'b' is negative",
    ),
    (
        _components(("a", {"b": "-1", "z": "1"})),
        "NegativeValue",
        "density value -1 at 'b' is negative",
    ),
    (
        _components(("a", {"a": "1"}), ("b", ["1"])),
        "DocumentError",
        "component 1 values must map vertex ids to value strings",
    ),
    (
        _components().replace('"components": []', '"components": {}'),
        "DocumentError",
        "components must be a list",
    ),
    (
        _components().replace('"tool": "t"', '"tool": 1'),
        "DocumentError",
        "provenance tool must be a string",
    ),
]


@pytest.mark.parametrize("i", range(len(BAD_BINDINGS)))
def test_binding_errors_are_pinned(i):
    tree = MetricTree(_ABC, [("a", "b", 1), ("b", "c", 1)])
    f = EdgeLinearDensity(tree, {"a": 1, "b": 2, "c": 1})
    text, kind, message = BAD_BINDINGS[i]
    text = text.replace("{digest}", instance_digest(f.tree, f))
    with pytest.raises(TreeUcatError) as caught:
        decomposition_from_document(parse_decomposition(text), f)
    assert (type(caught.value).__name__, str(caught.value)) == (kind, message)


# (a value given to `EdgeLinearDensity` at 'a', error class, message)
BAD_VALUES = [
    (True, "TypeError", "expected a rational, got bool True"),
    ([1], "TypeError", "cannot interpret list as a rational"),
    (
        (1, 0),
        "TypeError",
        "density value (1, 0) at 'a' is not a pair of ints with a positive"
        " denominator",
    ),
    (
        (1, 2, 3),
        "TypeError",
        "density value (1, 2, 3) at 'a' is not a pair of ints with a positive"
        " denominator",
    ),
]


@pytest.mark.parametrize("i", range(len(BAD_VALUES)))
def test_value_errors_are_pinned(i):
    tree = MetricTree(["a"], [])
    value, kind, message = BAD_VALUES[i]
    with pytest.raises(TypeError) as caught:
        EdgeLinearDensity(tree, {"a": value})
    assert (type(caught.value).__name__, str(caught.value)) == (kind, message)


def test_query_errors_are_pinned():
    from treeucat import feasible_avoiding_vertex, feasible_with_modes, sweep

    tree = MetricTree(_ABC, [("a", "b", 1), ("b", "c", 1)])
    f = EdgeLinearDensity(tree, {"a": 1, "b": 2, "c": 1})
    long_tree = MetricTree(_ABC, [("a", "b", _LONG), ("b", "c", 1)])
    on_long_tree = Component("a", EdgeLinearDensity(long_tree, {"a": 1}))
    queries = [
        (lambda: tree.neighbors("z"), "UnknownVertex", "no vertex 'z'"),
        (lambda: tree.edge_length("a", "c"), "UnknownEdge", "no edge 'a'-'c'"),
        (lambda: tree.edge_length("z", "a"), "UnknownEdge", "no edge 'z'-'a'"),
        (lambda: tree.root_at("z"), "UnknownVertex", "no vertex 'z'"),
        (lambda: f.value("z"), "UnknownVertex", "no vertex 'z'"),
        (lambda: sweep(f, "z"), "UnknownVertex", "no vertex 'z'"),
        (
            lambda: feasible_with_modes(f, ["a", "z"]),
            "UnknownVertex",
            "mode 'z' is not a vertex",
        ),
        (
            lambda: feasible_avoiding_vertex(f, ["a"], "z"),
            "UnknownVertex",
            "avoided vertex 'z' is not a vertex",
        ),
        (
            lambda: interval_ucat(["-" + _LONG]),
            "NegativeValue",
            f"value {_LONG_SHOWN} at position 0 is negative",
        ),
        (
            lambda: check_decomposition(f, Decomposition(long_tree, (on_long_tree,))),
            "TreeMismatch",
            f"edge 'a'-'b' has length {_LONG_SHOWN} in the decomposition's tree,"
            " 1 in the instance",
        ),
    ]
    for query, kind, message in queries:
        with pytest.raises(TreeUcatError) as caught:
            query()
        assert (type(caught.value).__name__, str(caught.value)) == (kind, message)


def test_a_check_report_naming_a_long_number_is_pinned(tmp_path, capsys):
    # a component value too long for `str`: `check` prints its whole
    # report, with the stand-in, and exits 1
    from treeucat.cli import main

    instance = tmp_path / "ab.json"
    instance.write_text(_instance(["a", "b"], _AB, _ONES), encoding="utf-8")
    tree, f = parse_instance(instance.read_text(encoding="utf-8"))
    document = tmp_path / "d.json"
    text = _components(("a", {"a": "1/2", "b": _LONG}))
    document.write_text(text.replace("{digest}", instance_digest(tree, f)))
    assert main(["check", str(instance), str(document)]) == 1
    assert capsys.readouterr() == (
        "sum: MISMATCH at a: expected 1, components give 1/2\n"
        f"sum: MISMATCH at b: expected 1, components give {_LONG_SHOWN}\n"
        "component 0: FAIL (recorded mode a carries 1/2, maximum is"
        f" {_LONG_SHOWN})\n"
        "count: 1\n"
        "overall: FAIL\n",
        "",
    )
