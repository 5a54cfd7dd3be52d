from __future__ import annotations

import hashlib
import json
import math
import random
import reprlib
import sys
import tracemalloc
from fractions import Fraction

import pytest

import treeucat.documents
import treeucat.verify
from treeucat import (
    Component,
    Decomposition,
    EdgeLinearDensity,
    MetricTree,
    check_decomposition,
    decompose,
    gen_instance,
    sweep,
)
from treeucat.documents import (
    MAX_DECIMAL_EXPONENT,
    MAX_NUMERAL_CHARS,
    DecompositionDocument,
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    render_dot,
    serialize_decomposition,
    serialize_instance,
    serialize_sweep,
)
from treeucat.errors import (
    DocumentError,
    InvalidVertexId,
    NegativeValue,
    TreeMismatch,
    UnknownVertex,
)

from helpers import (
    built_without_digit_limit,
    comb_instance,
    count_builds,
    dense_decomposition_text,
    monotone_arm_instance,
    paper_sweep,
    path_instance,
    python_calls_during,
    recursive_tree_instance,
)

PROVENANCE = {"tool": "treeucat test", "input_digest": "sha256:0"}


def _provenance(f):
    """Provenance naming f, so that the document binds to f."""
    return {"tool": "treeucat test", "input_digest": instance_digest(f.tree, f)}


def test_instance_round_trip():
    for seed in range(40):
        tree, f = gen_instance(seed, 10, 5)
        text = serialize_instance(tree, f)
        tree2, f2 = parse_instance(text)
        assert tree2 == tree
        assert tree2.vertices == tree.vertices
        assert f2 == f


def test_instance_accepts_exact_number_spellings():
    text = json.dumps(
        {
            "vertices": ["A", "b-2", "0c_d"],
            "edges": [
                {"u": "A", "w": "b-2", "length": "1/2"},
                {"u": "b-2", "w": "0c_d", "length": "0.25"},
            ],
            "density": {"A": "3", "b-2": "2/3", "0c_d": "0.5"},
        }
    )
    tree, f = parse_instance(text)
    assert tree.edge_length("A", "b-2") == Fraction(1, 2)
    assert tree.edge_length("b-2", "0c_d") == Fraction(1, 4)
    assert f.value("b-2") == Fraction(2, 3)
    assert f.value("0c_d") == Fraction(1, 2)


def test_digest_ignores_formatting():
    tree, f = gen_instance(3, 8, 4)
    text = serialize_instance(tree, f)
    reformatted = json.dumps(json.loads(text), indent=None, sort_keys=True)
    tree2, f2 = parse_instance(reformatted)
    assert instance_digest(tree2, f2) == instance_digest(tree, f)
    assert instance_digest(tree, f).startswith("sha256:")


def test_digest_distinguishes_instances():
    t1, f1 = path_instance([1, 2, 1])
    t2, f2 = path_instance([1, 2, 2])
    assert instance_digest(t1, f1) != instance_digest(t2, f2)


def test_the_instance_writers_refuse_a_tree_that_is_not_the_densitys():
    # written with a longer tree, f would miss a vertex and give a document
    # that `parse_instance` refuses; with a shorter one, an IndexError
    tree, f = path_instance([1, 2])
    for other in (path_instance([1, 2, 1])[0], path_instance([1])[0]):
        for writer in (serialize_instance, instance_digest):
            with pytest.raises(TreeMismatch) as err:
                writer(other, f)
            assert str(err.value) == "the instance's tree is not its density's tree"
    # an equal copy of f.tree writes the same text and digest, cached or not
    copy = MetricTree(tree.vertices, list(tree.iter_edges()))
    assert copy is not tree and copy == tree
    assert serialize_instance(copy, f) == serialize_instance(tree, f)
    fresh = EdgeLinearDensity(tree, dict(f.items()))
    assert instance_digest(copy, fresh) == instance_digest(tree, f)
    assert instance_digest(copy, f) == instance_digest(tree, fresh)


def test_invalid_json_reports_position():
    with pytest.raises(DocumentError, match=r"line \d+, column \d+"):
        parse_instance("{\n  \"vertices\": [,]\n}")


def test_missing_and_unknown_sections():
    with pytest.raises(DocumentError, match="missing section 'density'"):
        parse_instance(json.dumps({"vertices": [], "edges": []}))
    extra = {"vertices": ["A"], "edges": [], "density": {"A": "1"}, "bonus": 1}
    with pytest.raises(DocumentError, match="unknown section 'bonus'"):
        parse_instance(json.dumps(extra))
    with pytest.raises(DocumentError, match="single object"):
        parse_instance(json.dumps([1, 2]))


def test_numbers_must_be_strings():
    doc = {
        "vertices": ["A"],
        "edges": [],
        "density": {"A": 1},
    }
    with pytest.raises(DocumentError, match="exact strings"):
        parse_instance(json.dumps(doc))


def test_malformed_numbers_rejected():
    for bad in ["abc", "1/0", "", "1.5.2"]:
        doc = {"vertices": ["A"], "edges": [], "density": {"A": bad}}
        with pytest.raises(DocumentError, match="not an exact number"):
            parse_instance(json.dumps(doc))


def test_numerals_past_the_bounds_rejected():
    # "1e10000000" alone would build a 33-million-bit numerator
    huge = [
        "1e1000000",
        "1e10000000",
        "-2.5E+1001",
        "1e-1001",
        "1e1_000_000",
        f"1e{10 ** 40}",
        "1" * (MAX_NUMERAL_CHARS + 1),
        "1/" + "3" * MAX_NUMERAL_CHARS,
    ]
    for bad in huge:
        doc = {"vertices": ["A"], "edges": [], "density": {"A": bad}}
        with pytest.raises(DocumentError, match="numeral has|decimal exponent"):
            parse_instance(json.dumps(doc))
        doc = {
            "vertices": ["A", "B"],
            "edges": [{"u": "A", "w": "B", "length": bad}],
            "density": {"A": "1", "B": "1"},
        }
        with pytest.raises(DocumentError, match="numeral has|decimal exponent"):
            parse_instance(json.dumps(doc))
    # the bounds themselves are accepted; 4,300 digits is Python's default
    # limit for converting one integer
    long_fraction = "7" * 4300 + "/" + "9" * 4300
    for good, value in [
        (long_fraction, Fraction(int("7" * 4300), int("9" * 4300))),
        (f"1e{MAX_DECIMAL_EXPONENT}", Fraction(10**MAX_DECIMAL_EXPONENT)),
        (f"5E-{MAX_DECIMAL_EXPONENT}", Fraction(5, 10**MAX_DECIMAL_EXPONENT)),
        ("1e0_0_7", Fraction(10**7)),
        (" " * (MAX_NUMERAL_CHARS - 1) + "7", Fraction(7)),
    ]:
        doc = {"vertices": ["A"], "edges": [], "density": {"A": good}}
        _, f = parse_instance(json.dumps(doc))
        assert f.value("A") == value


def test_a_repeated_bad_numeral_fails_at_its_first_position():
    # a numeral enters the document's memo only once it passed every check
    for bad, message in [
        ("1e2000", "decimal exponent of '1e2000' exceeds 1000 in absolute value"),
        (
            "1" * (MAX_NUMERAL_CHARS + 1),
            f"numeral has {MAX_NUMERAL_CHARS + 1} characters,"
            f" at most {MAX_NUMERAL_CHARS} are allowed",
        ),
        ("1/0", "not an exact number: '1/0'"),
    ]:
        doc = {
            "vertices": ["A", "B"],
            "edges": [{"u": "A", "w": "B", "length": "1"}],
            "density": {"A": bad, "B": bad},
        }
        with pytest.raises(DocumentError) as err:
            parse_instance(json.dumps(doc))
        assert str(err.value) == f"density[A]: {message}"
        doc["edges"][0]["length"] = bad
        with pytest.raises(DocumentError) as err:
            parse_instance(json.dumps(doc))
        assert str(err.value) == f"instance: edge 0 length: {message}"

        doc = {
            "components": [
                {"mode": "A", "values": {"A": bad}},
                {"mode": "A", "values": {"A": bad}},
            ],
            "ucat": 2,
            "provenance": PROVENANCE,
        }
        with pytest.raises(DocumentError) as err:
            parse_decomposition(json.dumps(doc))
        assert str(err.value) == f"component 0 values[A]: {message}"


def _read_as_density(raw):
    """The value the instance parse gives the numeral `raw`, or the message
    of the DocumentError it raises."""
    doc = {"vertices": ["A"], "edges": [], "density": {"A": raw}}
    try:
        return parse_instance(json.dumps(doc))[1].value("A")
    except DocumentError as err:
        return str(err)


def _read_by_fraction(raw):
    """What `Fraction(raw)`, the reader for every spelling before digit
    numerals had their own path, makes of `raw`, in the same form."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        return f"density[A]: not an exact number: {reprlib.repr(raw)}"


def test_digit_numerals_read_as_fraction_reads_them():
    # "p" and "p/q" in ASCII digits skip Fraction's regex; every spelling
    # must still give Fraction(raw)'s value, or its error at the same place
    spellings = [
        "7", "007", "0", "0/5", "00/0005", "6/4", "12345/678901234",
        "+3", " 3 ", "3\n", "-0", "1_000", "1_000/3", "1__0",
        "\u0661\u0662", "\u0661\u0662/\u0663", "\uff11\uff12", "\u00b2", "1\u00b2",
        "1/0", "0/0", "1.5", "1e5", "1E-3", "5/", "/5", "1//2", "3/-4", "3/+4",
        "3 /4", "", "/",
        "7" * 4300, "7" * 4301, "1/" + "9" * 4300, "1/" + "9" * 4301,
        "7" * 4300 + "/" + "9" * 4300,
    ]
    outcomes = set()
    for raw in spellings:
        got, expected = _read_as_density(raw), _read_by_fraction(raw)
        assert got == expected, raw[:20]
        assert type(got) is type(expected), raw[:20]
        outcomes.add(type(got))
    assert outcomes == {Fraction, str}
    # the four refusals the digit path itself must still make
    for raw in ("1/0", "7" * 4301, "1/" + "9" * 4301, "5/"):
        assert "not an exact number" in _read_as_density(raw)


def _parsed_pairs(doc: DecompositionDocument, f) -> list:
    """The value pairs of the document's components, as bound to f."""
    values = []
    for c in decomposition_from_document(doc, f).components:
        values += [pair for _, pair in c.density.index_items()]
    return values


def test_equal_numerals_share_one_value_within_a_document_only():
    # a numeral is read once per document: equal value numerals share one
    # pair, the tuple the density stores, and equal length numerals one
    # `Fraction`, which the tree stores
    text = json.dumps(
        {
            "vertices": ["A", "B", "C"],
            "edges": [
                {"u": "A", "w": "B", "length": "3/7"},
                {"u": "B", "w": "C", "length": "3/7"},
            ],
            "density": {"A": "3/7", "B": "2", "C": "3/7"},
        }
    )
    tree, f = parse_instance(text)
    shared = tree.edge_length("A", "B")
    assert shared == Fraction(3, 7)
    assert tree.edge_length("B", "C") is shared
    pairs = dict(zip(f.support, (pair for _, pair in f.index_items())))
    assert pairs["A"] == (3, 7) and pairs["B"] == (2, 1)
    assert pairs["C"] is pairs["A"]
    again, g = parse_instance(text)
    assert again.edge_length("A", "B") is not shared
    assert dict(g.index_items())[1] is not pairs["B"]

    f, d = _decomposed(5)
    text = serialize_decomposition(d, _provenance(f))
    first = _parsed_pairs(parse_decomposition(text), f)
    second = _parsed_pairs(parse_decomposition(text), f)
    assert len(first) > len(set(first))  # some numeral repeats
    assert len({id(x) for x in first}) == len(set(first))
    # no cache outlives a parse: two parses share no object
    assert not {id(x) for x in first} & {id(x) for x in second}


def test_deep_nesting_and_long_literals_are_document_errors():
    with pytest.raises(DocumentError, match="nested too deeply"):
        parse_instance("[" * 100000)
    with pytest.raises(DocumentError, match="nested too deeply"):
        parse_decomposition('{"components": ' * 100000)
    # an integer literal past Python's digit limit for int conversion
    with pytest.raises(DocumentError):
        parse_decomposition('{"ucat": ' + "9" * 5000 + "}")


def test_instance_rejects_non_string_ids():
    # the tree's constructor names the first id that is not a string
    doc = {"vertices": ["A", 7, "_s1"], "edges": [], "density": {}}
    with pytest.raises(InvalidVertexId) as err:
        parse_instance(json.dumps(doc))
    assert str(err.value) == "invalid vertex id 7"


def test_edge_shape_is_validated():
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "B"}],
        "density": {"A": "1", "B": "1"},
    }
    with pytest.raises(DocumentError, match="keys u, w, length"):
        parse_instance(json.dumps(doc))


def test_tree_and_density_errors_propagate():
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "C", "length": "1"}],
        "density": {"A": "1", "B": "1"},
    }
    with pytest.raises(UnknownVertex, match="'C'"):
        parse_instance(json.dumps(doc))
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "B", "length": "1"}],
        "density": {"A": "-1", "B": "1"},
    }
    with pytest.raises(NegativeValue):
        parse_instance(json.dumps(doc))


def test_instance_density_must_list_every_vertex():
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "B", "length": "1"}],
        "density": {"A": "1"},
    }
    with pytest.raises(TreeMismatch, match="no density value for vertex 'B'"):
        parse_instance(json.dumps(doc))
    # a listed zero is enough
    doc["density"]["B"] = "0"
    _, f = parse_instance(json.dumps(doc))
    assert f.support == ("A",)


def test_listed_density_values_are_checked_before_missing_ones():
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "B", "length": "1"}],
        "density": {"A": "1", "C": "1"},
    }
    with pytest.raises(TreeMismatch, match="'C', not a tree vertex"):
        parse_instance(json.dumps(doc))
    doc["density"] = {"A": "-1"}
    with pytest.raises(NegativeValue):
        parse_instance(json.dumps(doc))


def test_decomposition_round_trip():
    for values in ([1, 2, 1, 2, 1], [0, 4, 1, 3, 0], [4, 1, 4, 1, 4]):
        _, f = path_instance(values)
        d, _ = decompose(f)
        text = serialize_decomposition(d, _provenance(f))
        doc = parse_decomposition(text)
        bound = decomposition_from_document(doc, f)
        assert bound.refined_tree is f.tree
        assert doc.ucat == len(d.components)
        assert doc.provenance == _provenance(f)
        assert len(bound.components) == len(d.components)
        for parsed, original in zip(bound.components, d.components):
            assert parsed.mode == original.mode
            assert dict(parsed.density.values) == dict(original.density.values)


def test_a_round_trip_builds_only_the_instance_tree_and_density(monkeypatch):
    # a counted gate: parse, decompose, serialize, parse back, bind and
    # check keep every component as index rows, so the one tree and the
    # one density built are the instance's; each component's density was
    # once built by decompose and again at binding, 2k + 1 in all
    f = recursive_tree_instance(1, 200)
    text = serialize_instance(f.tree, f)
    built = count_builds(monkeypatch, MetricTree, EdgeLinearDensity)
    tree, g = parse_instance(text)
    d, _ = decompose(g)
    written = serialize_decomposition(d, _provenance(g))
    bound = decomposition_from_document(parse_decomposition(written), g)
    assert check_decomposition(g, bound).overall
    assert len(bound.components) > 20
    assert built == {MetricTree: 1, EdgeLinearDensity: 1}, built
    assert bound.refined_tree is tree
    assert bound.components == d.components


def test_document_size_depends_on_the_supports_not_on_the_tree():
    # the same positive part followed by 10 and by 10,000 zero vertices:
    # the components list the same values, and no tree is written
    texts, sizes = [], set()
    for zeros in (10, 10_000):
        _, f = path_instance([1, 3, 1, 2, 5] + [0] * zeros)
        d, _ = decompose(f)
        texts.append(serialize_decomposition(d, PROVENANCE))
        own = serialize_decomposition(d, _provenance(f))
        sizes.add(len(own.encode()))
        bound = decomposition_from_document(parse_decomposition(own), f)
        assert bound.refined_tree is f.tree
        assert bound.components == d.components
    assert texts[0] == texts[1]
    assert len(sizes) == 1


def _decomposed(seed):
    if seed < 3:
        _, f = path_instance([[0, 4, 1, 3, 0], [1, 2, 1, 2, 1], [4, 0, 4, 0, 4]][seed])
    else:
        _, f = gen_instance(seed, 12, 4)
    return f, decompose(f)[0]


def test_components_list_their_nonzero_values_in_vertex_order():
    for seed in range(30):
        _, d = _decomposed(seed)
        data = json.loads(serialize_decomposition(d, PROVENANCE))
        assert list(data) == ["components", "ucat", "provenance"]
        for entry, component in zip(data["components"], d.components):
            listed = [
                v for v in d.refined_tree.vertices if component.density.value(v) != 0
            ]
            assert list(entry["values"]) == listed
            assert all(Fraction(x) > 0 for x in entry["values"].values())


def test_absent_vertex_parses_as_zero():
    _, f = path_instance([0, 4, 1, 3, 0])
    d, _ = decompose(f)
    data = json.loads(serialize_decomposition(d, _provenance(f)))
    assert "v1" not in data["components"][0]["values"]
    bound = decomposition_from_document(parse_decomposition(json.dumps(data)), f)
    assert bound.components[0].density.value("v1") == 0
    assert bound.components[0].density.values.keys() == set(bound.refined_tree.vertices)

    # one entry less: that vertex reads 0, every other value is unchanged
    del data["components"][1]["values"]["v4"]
    bound = decomposition_from_document(parse_decomposition(json.dumps(data)), f)
    parsed = bound.components[1].density
    assert parsed.value("v4") == 0
    for v in bound.refined_tree.vertices:
        if v != "v4":
            assert parsed.value(v) == d.components[1].density.value(v)


def test_dense_documents_still_parse_and_check():
    for seed in range(30):
        f, d = _decomposed(seed)
        sparse = parse_decomposition(serialize_decomposition(d, _provenance(f)))
        dense = parse_decomposition(dense_decomposition_text(d, _provenance(f)))
        # listed zeros are dropped at binding
        bound_dense = decomposition_from_document(dense, f)
        bound_sparse = decomposition_from_document(sparse, f)
        assert bound_dense.refined_tree is bound_sparse.refined_tree is f.tree
        assert bound_dense.components == bound_sparse.components == d.components
        for parsed, original in zip(bound_dense.components, d.components):
            assert parsed.density.support == original.density.support
        report = check_decomposition(f, bound_dense)
        assert report.overall


def test_listed_component_values_are_still_validated():
    _, f = path_instance([0, 4, 1, 3, 0])
    d, _ = decompose(f)
    good = json.loads(serialize_decomposition(d, _provenance(f)))
    cases = [
        ("v2", 4, DocumentError, "exact strings"),
        ("v2", "1e1001", DocumentError, "decimal exponent"),
        ("v2", "1" * (MAX_NUMERAL_CHARS + 1), DocumentError, "numeral has"),
        ("v2", "abc", DocumentError, "not an exact number"),
    ]
    for vertex, raw, error, message in cases:
        bad = json.loads(json.dumps(good))
        bad["components"][0]["values"][vertex] = raw
        with pytest.raises(error, match=message):
            parse_decomposition(json.dumps(bad))
    # a negative value is refused where the document meets the instance,
    # by the density's constructor
    bad = json.loads(json.dumps(good))
    bad["components"][0]["values"]["v2"] = "-1"
    doc = parse_decomposition(json.dumps(bad))
    with pytest.raises(NegativeValue) as err:
        decomposition_from_document(doc, f)
    assert str(err.value) == "density value -1 at 'v2' is negative"
    # so is an id that is not the instance's, even with a listed zero
    for vertex, raw in [("v9", "1"), ("_s99", "0")]:
        bad = json.loads(json.dumps(good))
        bad["components"][0]["values"][vertex] = raw
        doc = parse_decomposition(json.dumps(bad))
        with pytest.raises(TreeMismatch) as err:
            decomposition_from_document(doc, f)
        assert str(err.value) == f"density value for {vertex!r}, not a tree vertex"
    # a listed zero is legal and changes nothing
    listed_zero = json.loads(json.dumps(good))
    listed_zero["components"][0]["values"]["v1"] = "0"
    doc = parse_decomposition(json.dumps(listed_zero))
    assert decomposition_from_document(doc, f).components == d.components


def test_component_with_no_values_is_identically_zero():
    _, f = path_instance([0, 4, 1, 3, 0])
    d, _ = decompose(f)
    data = json.loads(serialize_decomposition(d, _provenance(f)))
    data["components"][1]["values"] = {}
    bound = decomposition_from_document(parse_decomposition(json.dumps(data)), f)
    assert bound.components[1].density.support == ()
    report = check_decomposition(f, bound)
    assert not report.overall
    assert report.components[1].detail == "component is identically zero"


def test_empty_components_parse_in_memory_bounded_by_the_document():
    # 2,000 components that list no values on a 3,000-vertex path: a
    # density that filled in its zeros would hold 6 M of them (~200 MiB)
    n, k = 3000, 2000
    tree, f = path_instance([1] * n)
    text = json.dumps(
        {
            "components": [{"mode": "v1", "values": {}}] * k,
            "ucat": k,
            "provenance": _provenance(f),
        }
    )
    tracemalloc.start()
    try:
        bound = decomposition_from_document(parse_decomposition(text), f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert len(bound.components) == k
    assert all(c.density.support == () for c in bound.components)


def _paper_decomposition():
    """f = (0, 4, 1, 3, 0) on a path and a decomposition of it on the
    refinement that the paper's sweep from v2 makes: its h, and the
    remainder, which is unimodal with mode v4 and equal to 2 at the cut."""
    _, f = path_instance([0, 4, 1, 3, 0])
    _, h, remainder = paper_sweep(f, sweep(f, "v2"))
    components = (Component("v2", h), Component("v4", remainder))
    return f, Decomposition(h.tree, components)


def test_decomposition_tree_may_not_contain_synthetic_ids():
    # a decomposition lives on its instance's tree, whose ids are user ids:
    # one on the refinement the paper's greedy makes is refused at binding,
    # although its digest names the instance
    f, d = _paper_decomposition()
    doc = parse_decomposition(serialize_decomposition(d, _provenance(f)))
    with pytest.raises(TreeMismatch) as err:
        decomposition_from_document(doc, f)
    assert str(err.value) == "density value for 'S1', not a tree vertex"


def test_decomposition_validation_errors():
    _, f = path_instance([1, 2, 1])
    d, _ = decompose(f)
    good = json.loads(serialize_decomposition(d, _provenance(f)))

    # a mode that is not a string is refused at parse; one that is not an
    # instance vertex at binding, with the same message
    for mode in [7, ["v1"]]:
        bad = json.loads(json.dumps(good))
        bad["components"][0]["mode"] = mode
        with pytest.raises(DocumentError) as err:
            parse_decomposition(json.dumps(bad))
        assert str(err.value) == (
            f"component 0: mode {reprlib.repr(mode)} is not a tree vertex"
        )
    bad = json.loads(json.dumps(good))
    bad["components"][0]["mode"] = "v9"
    doc = parse_decomposition(json.dumps(bad))
    with pytest.raises(DocumentError) as err:
        decomposition_from_document(doc, f)
    assert str(err.value) == "component 0: mode 'v9' is not a tree vertex"

    bad = json.loads(json.dumps(good))
    bad["tree"] = {"vertices": list(f.tree.vertices), "edges": []}
    with pytest.raises(DocumentError) as err:
        parse_decomposition(json.dumps(bad))
    assert str(err.value) == "decomposition has unknown section 'tree'"

    bad = json.loads(json.dumps(good))
    bad["ucat"] = 5
    with pytest.raises(DocumentError, match="ucat is 5 but"):
        parse_decomposition(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["ucat"] = True
    with pytest.raises(DocumentError, match="integer"):
        parse_decomposition(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    del bad["provenance"]["tool"]
    with pytest.raises(DocumentError, match="missing section 'tool'"):
        parse_decomposition(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["provenance"]["extra"] = "x"
    with pytest.raises(DocumentError, match="unknown section 'extra'"):
        parse_decomposition(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["components"][0] = {"mode": "v2"}
    with pytest.raises(DocumentError, match="keys mode, values"):
        parse_decomposition(json.dumps(bad))


def test_document_binds_to_instance():
    _, f = path_instance([0, 4, 1, 3, 0])
    d, _ = decompose(f)
    doc = parse_decomposition(serialize_decomposition(d, _provenance(f)))
    bound = decomposition_from_document(doc, f)
    assert bound.refined_tree == d.refined_tree
    assert bound.components == d.components
    # a section that lists f.tree binds to f.tree itself
    assert bound.refined_tree is f.tree
    assert all(c.density.tree is f.tree for c in bound.components)

    _, other = path_instance([1, 2, 1])
    with pytest.raises(DocumentError, match="different instance"):
        decomposition_from_document(doc, other)


def test_sweep_serialization():
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    data = json.loads(serialize_sweep(sweep(f, "P")))
    assert data["tree"] == _tree_fields(tree)
    assert data["origin"] == "P"
    assert data["h"] == {"P": "2", "Q": "2", "R": "0"}
    assert data["remainder"] == {"P": "0", "Q": "1", "R": "0"}
    assert data["cuts"] == [{"u": "Q", "w": "R", "t": "2/3"}]


def test_a_cut_past_the_digit_limit_names_its_edge():
    # h and the remainder stay short, but the cut's position
    # t = h(Q) / (f(Q) - f(R)) has a denominator of about 6,000 digits
    a, c = 10**3000 + 3, 10**3000 + 7
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    values = {"P": Fraction(1, a), "Q": 1 + Fraction(1, a), "R": Fraction(1, c)}
    result = sweep(EdgeLinearDensity(tree, values), "P")
    assert [(cut.u, cut.w) for cut in result.cuts] == [("Q", "R")]
    with pytest.raises(DocumentError) as err:
        serialize_sweep(result)
    assert str(err.value).startswith(
        "cannot write the position of the cut on edge Q-R: its numerator or"
        " denominator has more than"
    )


def _tree_fields(tree: MetricTree) -> dict:
    return {
        "vertices": list(tree.vertices),
        "edges": [
            {"u": u, "w": w, "length": str(length)} for u, w, length in tree.edge_list
        ],
    }


def _stdlib_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _fractional_tree_instance(seed: int, n: int = 40):
    """A random recursive tree with fractional lengths and values, as in the
    benchmark's random-trees corpus."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[rng.randrange(i)], Fraction(rng.randint(1, 30), 10))
        for i in range(1, n)
    ]
    values = {v: Fraction(rng.randint(0, 90), rng.choice([1, 3, 7, 10])) for v in names}
    tree = MetricTree(names, edges)
    return tree, EdgeLinearDensity(tree, values)


def test_writer_matches_the_stdlib_encoder():
    # the payloads are built here, from the objects, so that json.dumps
    # stays the reference for every byte the serializers write
    instances = [gen_instance(seed, 10, 5) for seed in range(20)]
    comb = comb_instance(10)
    instances.append((comb.tree, comb))
    instances += [_fractional_tree_instance(seed) for seed in range(3)]
    path, _ = path_instance([0, 0, 0])
    instances.append((path, EdgeLinearDensity(path, {})))  # "components": []
    point = MetricTree(["A"], [])
    instances.append((point, EdgeLinearDensity(point, {"A": 1})))  # "edges": []
    provenance = {
        "tool": 'tree"ucat\\ \x07\t caf\u00e9 \u2713 \U0001d11e',
        "input_digest": "sha256:0",
    }
    shapes = set()
    for tree, f in instances:
        density = {v: str(f.value(v)) for v in tree.vertices}
        expected = _stdlib_text({**_tree_fields(tree), "density": density})
        assert serialize_instance(tree, f) == expected

        d, _ = decompose(f)
        components = [
            {
                "mode": c.mode,
                "values": {v: str(c.density.value(v)) for v in c.density.support},
            }
            for c in d.components
        ]
        expected = _stdlib_text(
            {
                "components": components,
                "ucat": len(components),
                "provenance": provenance,
            }
        )
        assert serialize_decomposition(d, provenance) == expected
        shapes.add("no components" if not components else "components")

        for v in tree.vertices[:3]:
            result = sweep(f, v)
            cuts = [{"u": c.u, "w": c.w, "t": str(c.t)} for c in result.cuts]
            expected = _stdlib_text(
                {
                    "tree": _tree_fields(tree),
                    "origin": v,
                    "h": {u: str(result.h.value(u)) for u in tree.vertices},
                    "remainder": {
                        u: str(result.remainder.value(u)) for u in tree.vertices
                    },
                    "cuts": cuts,
                }
            )
            assert serialize_sweep(result) == expected
            shapes.add("cuts" if cuts else "no cuts")
    assert shapes == {"components", "no components", "cuts", "no cuts"}


def test_digest_is_the_sha256_of_the_sorted_compact_json():
    # the payload is built here, so that json.dumps stays the reference for
    # the canonical text the digest writes directly
    instances = [gen_instance(seed, 10, 5) for seed in range(20)]
    comb = comb_instance(10)
    instances.append((comb.tree, comb))
    instances += [_fractional_tree_instance(seed) for seed in range(3)]
    point = MetricTree(["A"], [])
    instances.append((point, EdgeLinearDensity(point, {"A": "2/3"})))  # "edges": []
    for tree, f in instances:
        density = {v: str(f.value(v)) for v in tree.vertices}
        payload = {**_tree_fields(tree), "density": density}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        expected = "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert instance_digest(tree, f) == expected

    # a numeral too long to write is a DocumentError that names it; the
    # constructors refuse one, so these are built with the limit lifted
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    values = {"A": 1, "B": Fraction(1, 10**5000)}
    f = built_without_digit_limit(EdgeLinearDensity, tree, values)
    with pytest.raises(DocumentError, match="value of the density at vertex B.*4,300"):
        instance_digest(tree, f)
    tree = built_without_digit_limit(MetricTree, ["A", "B"], [("A", "B", 10**5000)])
    with pytest.raises(DocumentError, match="length of edge A-B.*4,300"):
        instance_digest(tree, EdgeLinearDensity(tree, {"A": 1}))


def test_serialize_makes_a_bounded_number_of_calls_per_listed_item():
    # counted calls, not wall time: json.dumps with indent runs the
    # pure-Python encoder, about 25 calls per listed value; the fixed-shape
    # writer made about 2, one `_numeral` and the builtins it calls, and
    # now formats each value inline, with no call: 36 calls in all for
    # these 3 components and their 604 listed values
    f = monotone_arm_instance(1, 600)
    d, _ = decompose(f)
    listed = sum(len(c.density.support) for c in d.components)
    calls = python_calls_during(serialize_decomposition, d, PROVENANCE)
    assert listed > 600 and calls <= 15 * len(d.components), (calls, listed)


def test_the_digest_makes_no_python_call_per_vertex_or_edge():
    # counted calls, not wall time: the digest writes each value and each
    # edge inline, and each distinct length object once, so it makes no
    # Python-level call per item: 17 for these 605 vertices and 604 edges
    # of one length, where one `_numeral` per value and two generators
    # over the edges made 1,828 before
    f = monotone_arm_instance(1, 600)
    tree, g = parse_instance(serialize_instance(f.tree, f))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        digest = instance_digest(tree, g)
    finally:
        sys.setprofile(None)
    assert calls <= 25, calls
    assert digest == instance_digest(f.tree, f)


def test_the_digest_writes_an_in_process_trees_one_length_once():
    # built in process from 604 int lengths of 1, the tree holds one
    # `Fraction` for them, so the digest writes one length, as it does for
    # the same tree parsed from its document
    f = monotone_arm_instance(1, 600)
    code = Fraction.__str__.__code__
    written = 0

    def count(frame, event, arg):
        nonlocal written
        written += event == "call" and frame.f_code is code

    sys.setprofile(count)
    try:
        instance_digest(f.tree, f)
    finally:
        sys.setprofile(None)
    assert written == 1, written


def test_parse_makes_a_bounded_number_of_calls_per_distinct_numeral(monkeypatch):
    # counted calls, not wall time: a path whose n values are all "7", and
    # the same path with n distinct values, differ by the reading of n - 1
    # more numerals. Through Fraction(str) each cost 21 to 28 calls; read
    # from its digits, "p" costs 6 and "p/q" 7. A numeral already read is
    # looked up by the caller, without a call to `_number`: the repeated
    # path took 10,838 calls when each of its 799 numerals made one, and
    # 9,243 when each section was read twice, once into a list or map and
    # once into the tree or the density; read once, it takes 3,665
    n = 400
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [{"u": u, "w": w, "length": "1"} for u, w in zip(names, names[1:])]

    def calls_to_read(values):
        text = json.dumps(
            {"vertices": names, "edges": edges, "density": dict(zip(names, values))}
        )
        return python_calls_during(parse_instance, text)

    repeated = calls_to_read(["7"] * n)
    assert repeated <= 10 * n, repeated
    for spell in (str, lambda i: f"{i}/{n + 1}"):
        extra = calls_to_read([spell(i) for i in range(1, n + 1)]) - repeated
        assert extra <= 8 * (n - 1), (spell(n), extra)

    read = []
    number = treeucat.documents._number

    def counting(raw, *args):
        read.append(raw)
        return number(raw, *args)

    monkeypatch.setattr(treeucat.documents, "_number", counting)
    calls_to_read(["7"] * n)
    assert read == ["1", "7"]


def test_binding_makes_a_bounded_number_of_calls_per_listed_value():
    # counted calls, not wall time: the parse has checked and reduced each
    # listed pair, so binding keys it by its vertex index and checks its
    # id and sign with no call, and no `gcd`. Binding these 604 values in 3
    # components took 1,235 calls, 604 of them `gcd`, and now takes 27
    f = monotone_arm_instance(1, 600)
    d, _ = decompose(f)
    doc = parse_decomposition(serialize_decomposition(d, _provenance(f)))
    listed = sum(len(values) for _, values in doc.components)
    gcds = 0

    def count(frame, event, arg):
        nonlocal gcds
        gcds += event == "c_call" and arg is math.gcd

    calls = python_calls_during(decomposition_from_document, doc, f)
    sys.setprofile(count)
    try:
        bound = decomposition_from_document(doc, f)
    finally:
        sys.setprofile(None)
    assert listed > 600 and calls <= 10 * len(doc.components), (calls, listed)
    assert gcds == 0
    assert bound.components == d.components


def test_render_dot_structure():
    tree, f = path_instance([0, 4, 1, 3, 0])
    d, _ = decompose(f)
    assert render_dot(d, f).count("_s") == 0
    # two components on the input tree with disjoint supports, one color each
    first = EdgeLinearDensity(tree, {"v2": 4, "v3": 1})
    second = EdgeLinearDensity(tree, {"v4": 3})
    d = Decomposition(tree, (Component("v2", first), Component("v4", second)))
    assert check_decomposition(f, d).overall
    dot = render_dot(d, f)
    assert dot.startswith("graph decomposition {")
    assert dot.rstrip().endswith("}")
    assert dot.count("doublecircle") == 2
    # zero vertices stay uncolored, support vertices take a component color
    assert '"v1" [label="v1\\nf=0"];' in dot
    assert 'fillcolor="lightblue"' in dot
    assert 'fillcolor="lightpink"' in dot
    assert '"v1" -- "v2" [label="1"];' in dot
    assert '"v4" [label="v4\\nf=3", fillcolor="lightpink", shape=doublecircle];' in dot
