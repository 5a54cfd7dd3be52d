from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treeucat
from treeucat import Component, Decomposition, decompose, gen_instance, sweep
from treeucat.cli import main
from treeucat.documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    serialize_decomposition,
    serialize_instance,
)

from helpers import (
    count_builds,
    dense_decomposition_text,
    many_denominator_instance,
    paper_sweep,
    path_instance,
    recursive_tree_instance,
    star_instance,
)


def _write_instance(tmp_path, name, tree, f):
    path = tmp_path / name
    path.write_text(serialize_instance(tree, f), encoding="utf-8")
    return str(path)


def test_decompose_to_stdout(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1, 2, 1])
    path = _write_instance(tmp_path, "two_peaks.json", tree, f)
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    doc = parse_decomposition(out)
    assert doc.ucat == 2
    bound = decomposition_from_document(doc, f)
    assert [c.mode for c in bound.components] == ["v2", "v4"]
    assert doc.provenance["input_digest"].startswith("sha256:")
    assert doc.provenance["tool"].startswith("treeucat ")


def test_decompose_output_and_render_files(tmp_path, capsys):
    tree, f = path_instance([0, 4, 1, 3, 0])
    path = _write_instance(tmp_path, "in.json", tree, f)
    out_path = tmp_path / "out.json"
    dot_path = tmp_path / "out.dot"
    rc = main(
        ["decompose", path, "--output", str(out_path), "--render", str(dot_path)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = parse_decomposition(out_path.read_text(encoding="utf-8"))
    assert doc.ucat == 2
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.startswith("graph decomposition {")
    assert "doublecircle" in dot


def test_decompose_render_builds_no_component_density(tmp_path, monkeypatch):
    # the document and the rendering read the components' rows: the one
    # tree and the one density built are the instance's, and both texts
    # are those of the same components built from their densities
    from treeucat import EdgeLinearDensity, MetricTree
    from treeucat.documents import render_dot

    f = recursive_tree_instance(1, 60)
    tree = f.tree
    path = _write_instance(tmp_path, "in.json", tree, f)
    out_path, dot_path = tmp_path / "out.json", tmp_path / "out.dot"
    built = count_builds(monkeypatch, MetricTree, EdgeLinearDensity)
    argv = ["decompose", path, "--output", str(out_path), "--render", str(dot_path)]
    assert main(argv) == 0
    assert built == {MetricTree: 1, EdgeLinearDensity: 1}, built

    d, _ = decompose(f)
    assert len(d.components) > 8  # the palette's colors come round again
    twins = [Component(c.mode, c.density) for c in d.components]
    twin = Decomposition(d.refined_tree, tuple(twins))
    provenance = {
        "tool": f"treeucat {treeucat.__version__}",
        "input_digest": instance_digest(tree, f),
    }
    assert out_path.read_text(encoding="utf-8") == serialize_decomposition(
        twin, provenance
    )
    assert dot_path.read_text(encoding="utf-8") == render_dot(twin, f)


def test_decompose_trace_goes_to_stderr(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1, 2, 1])
    path = _write_instance(tmp_path, "in.json", tree, f)
    assert main(["decompose", path, "--trace"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "iteration 1: mode v2, remaining mass 2",
        "iteration 2: mode v4, remaining mass 0",
    ]


def test_decompose_rejects_unknown_edge_endpoint(tmp_path, capsys):
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "C", "length": "1"}],
        "density": {"A": "1", "B": "1"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    assert "'C'" in capsys.readouterr().err


def test_decompose_rejects_density_missing_a_vertex(tmp_path, capsys):
    doc = {
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "w": "B", "length": "1"}],
        "density": {"A": "1"},
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no density value for vertex 'B'\n"
    assert captured.out == ""


def test_decompose_refuses_an_invalid_vertex_id(tmp_path, capsys):
    # the tree's constructor matches each id, so the message is its own
    doc = {
        "vertices": ["A", "a b"],
        "edges": [{"u": "A", "w": "a b", "length": "1"}],
        "density": {"A": "1", "a b": "1"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: invalid vertex id 'a b'\n"
    assert captured.out == ""


def test_empty_tree_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps({"vertices": [], "edges": [], "density": {}}), encoding="utf-8"
    )
    for args in (
        ["decompose", str(path)],
        ["check", str(path), str(path)],
        ["sweep", str(path), "--vertex", "v1"],
    ):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.err == "error: a tree needs at least one vertex\n", args
        assert captured.out == ""


def test_deeply_nested_document_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "nested too deeply" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_huge_numerals_exit_2(tmp_path, capsys):
    for bad in ("1e1000000", "1e10000000"):
        doc = {"vertices": ["A"], "edges": [], "density": {"A": bad}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["decompose", str(path)]) == 2
        assert "decimal exponent" in capsys.readouterr().err


def test_output_past_the_digit_limit_exits_2(tmp_path, capsys):
    # each input numeral fits in the bounds, but the remainder at v4, which
    # is the second component's mode value and the sweep's remainder there,
    # has a denominator of more than 4,300 digits
    big = 10**3000
    names = [f"v{i}" for i in range(1, 6)]
    doc = {
        "vertices": names,
        "edges": [{"u": u, "w": w, "length": "1"} for u, w in zip(names, names[1:])],
        "density": dict(
            zip(names, ["0", f"4/{big + 3}", f"1/{big + 7}", f"3/{big + 9}", "0"])
        ),
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    runs = (
        (["decompose", str(path)], "of component 1 at vertex v4"),
        (["sweep", str(path), "--vertex", "v2"], "of the remainder at vertex v4"),
    )
    for argv, where in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert where in captured.err
        assert "4,300 digits, the output limit" in captured.err
        assert "Traceback" not in captured.err
    assert main(["ucat", str(path)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_trace_past_the_digit_limit_prints_every_line(tmp_path, capsys):
    # the remaining masses of this path have denominators of up to 20,000
    # digits: the trace prints a stand-in for each such mass, and the
    # document is the one written without the trace
    f = many_denominator_instance(1, 20)
    path = _write_instance(tmp_path, "in.json", f.tree, f)
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main(["decompose", path, "--output", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["decompose", path, "--output", str(traced), "--trace"]) == 0
    lines = capsys.readouterr().err.splitlines()
    ucat = parse_decomposition(plain.read_text(encoding="utf-8")).ucat
    assert len(lines) == ucat > 1
    for iteration, line in enumerate(lines, 1):
        assert line.startswith(f"iteration {iteration}: mode v"), line
    stand_in = "remaining mass a number with more than 4,300 digits"
    assert sum(line.endswith(stand_in) for line in lines) > 0
    assert lines[-1].endswith("remaining mass 0")
    assert traced.read_text(encoding="utf-8") == plain.read_text(encoding="utf-8")


def test_check_prints_a_sum_past_the_digit_limit(tmp_path, capsys):
    # six components list a: 1/q, each q its own odd 1,000-digit number,
    # so their sum at a, which the mismatch line reports, is too long for
    # `str`; the check still prints every line and fails with exit 1
    from treeucat import EdgeLinearDensity, MetricTree

    tree = MetricTree(["a"])
    f = EdgeLinearDensity(tree, {"a": 1})
    instance = _write_instance(tmp_path, "in.json", tree, f)
    rng = random.Random(7)
    qs = set()
    while len(qs) < 6:
        qs.add(rng.randrange(10**999, 10**1000) | 1)
    parts = tuple(
        Component("a", EdgeLinearDensity(tree, {"a": Fraction(1, q)}))
        for q in sorted(qs)
    )
    provenance = {"tool": "treeucat", "input_digest": instance_digest(tree, f)}
    out = tmp_path / "d.json"
    out.write_text(
        serialize_decomposition(Decomposition(tree, parts), provenance),
        encoding="utf-8",
    )
    assert main(["check", instance, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "sum: MISMATCH at a: expected 1, components give a number with more"
        " than 4,300 digits",
        *[f"component {i}: ok" for i in range(6)],
        "count: 6",
        "overall: FAIL",
    ]


def test_ucat_command(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1, 2, 1])
    path = _write_instance(tmp_path, "in.json", tree, f)
    assert main(["ucat", path]) == 0
    assert capsys.readouterr().out == "2\n"

    tree, f = path_instance([0, 0])
    zero = _write_instance(tmp_path, "zero.json", tree, f)
    assert main(["ucat", zero]) == 0
    assert capsys.readouterr().out == "0\n"


def test_check_round_trip(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    out = tmp_path / "d.json"
    assert main(["decompose", instance, "--output", str(out)]) == 0
    assert main(["check", instance, str(out)]) == 0
    text = capsys.readouterr().out
    assert "sum: ok" in text
    assert "component 0: ok" in text
    assert "component 1: ok" in text
    assert "count: 2" in text
    assert "overall: ok" in text


def test_check_accepts_dense_documents(tmp_path, capsys):
    for seed in range(10):
        tree, f = gen_instance(seed, 10, 4)
        instance = _write_instance(tmp_path, "in.json", tree, f)
        d, _ = decompose(f)
        provenance = {"tool": "treeucat", "input_digest": instance_digest(tree, f)}
        out = tmp_path / "dense.json"
        out.write_text(dense_decomposition_text(d, provenance), encoding="utf-8")
        assert main(["check", instance, str(out)]) == 0
        assert capsys.readouterr().out.endswith("overall: ok\n")


def test_check_flags_tampered_value(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    out = tmp_path / "d.json"
    main(["decompose", instance, "--output", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["components"][1]["values"]["v5"] = "2"
    out.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", instance, str(out)]) == 1
    text = capsys.readouterr().out
    assert "sum: MISMATCH at v5: expected 1, components give 2" in text
    assert "overall: FAIL" in text


def test_check_refuses_decomposition_for_other_instance(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    other_tree, other = path_instance([1, 2, 1])
    other_path = _write_instance(tmp_path, "other.json", other_tree, other)
    out = tmp_path / "d.json"
    main(["decompose", instance, "--output", str(out)])
    assert main(["check", other_path, str(out)]) == 2
    assert "different instance" in capsys.readouterr().err


def test_check_tree_mismatch_with_forged_digest(tmp_path, capsys):
    from treeucat.documents import instance_digest

    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    other_tree, other = path_instance([1, 2, 1], prefix="w")
    other_path = _write_instance(tmp_path, "other.json", other_tree, other)
    out = tmp_path / "d.json"
    main(["decompose", instance, "--output", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["provenance"]["input_digest"] = instance_digest(other_tree, other)
    out.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", other_path, str(out)]) == 2


def test_check_refuses_a_decomposition_on_a_sweep_refinement(tmp_path, capsys):
    # h and the remainder of the paper's sweep decompose f on the refinement
    # that sweep makes, and the digest is f's; the cut vertex `S1` that the
    # components list is refused where the document meets the instance
    tree, f = path_instance([0, 4, 1, 3, 0])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    _, h, remainder = paper_sweep(f, sweep(f, "v2"))
    parts = (Component("v2", h), Component("v4", remainder))
    provenance = {"tool": "treeucat", "input_digest": instance_digest(tree, f)}
    out = tmp_path / "d.json"
    out.write_text(
        serialize_decomposition(Decomposition(h.tree, parts), provenance),
        encoding="utf-8",
    )
    assert main(["check", instance, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: density value for 'S1', not a tree vertex\n"


def test_check_refuses_a_document_with_a_tree_section(tmp_path, capsys):
    # a decomposition names its instance by digest and holds no tree; a
    # document written with the former `tree` section is refused as such
    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    out = tmp_path / "d.json"
    assert main(["decompose", instance, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc) == ["components", "ucat", "provenance"]
    doc["tree"] = {
        "vertices": list(tree.vertices),
        "edges": [
            {"u": u, "w": w, "length": str(length)} for u, w, length in tree.edge_list
        ],
    }
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", instance, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: decomposition has unknown section 'tree'\n"


def _unknown_mode(doc):
    doc["components"][1]["mode"] = "v9"


def _unknown_id(doc):
    doc["components"][0]["values"]["v9"] = "1"


def _unknown_id_listed_as_zero(doc):
    doc["components"][0]["values"]["v9"] = "0"


@pytest.mark.parametrize(
    "alter, message",
    [
        (_unknown_mode, "component 1: mode 'v9' is not a tree vertex"),
        (_unknown_id, "density value for 'v9', not a tree vertex"),
        (_unknown_id_listed_as_zero, "density value for 'v9', not a tree vertex"),
    ],
)
def test_check_refuses_ids_that_are_not_instance_vertices(
    alter, message, tmp_path, capsys
):
    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    out = tmp_path / "d.json"
    assert main(["decompose", instance, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    alter(doc)
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", instance, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_refuses_a_negative_component_value(tmp_path, capsys):
    # binding builds each component with the density's constructor, which
    # refuses the value
    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    out = tmp_path / "d.json"
    assert main(["decompose", instance, "--output", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["components"][0]["values"]["v2"] = "-1"
    out.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", instance, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: density value -1 at 'v2' is negative\n"


def _duplicate_edge(doc):
    doc["edges"].append(dict(doc["edges"][0]))


def _close_a_cycle(doc):
    doc["edges"].append({"u": "v1", "w": "v3", "length": "2"})


def _unlisted_endpoint(doc):
    doc["edges"][0]["w"] = "v9"


def _duplicate_vertex(doc):
    doc["vertices"].append("v1")


def _zero_length(doc):
    doc["edges"][0]["length"] = "0"


@pytest.mark.parametrize(
    "alter, message",
    [
        (_duplicate_edge, "parallel edge 'v1'-'v2'"),
        (_close_a_cycle, "6 edges on 6 vertices imply a cycle"),
        (_unlisted_endpoint, "edge endpoint 'v9' is not a vertex"),
        (_duplicate_vertex, "duplicate vertex id 'v1'"),
        (_zero_length, "edge 'v1'-'v2' has length 0"),
    ],
)
def test_check_refuses_a_malformed_tree_section(alter, message, tmp_path, capsys):
    # the instance's tree section is altered after the decomposition was
    # written for it: the instance is refused as it is read, with exit 2,
    # one line and the tree's own message
    tree, f = path_instance([1, 2, 1, 2, 1, 0])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    out = tmp_path / "d.json"
    assert main(["decompose", instance, "--output", str(out)]) == 0
    doc = json.loads(Path(instance).read_text(encoding="utf-8"))
    alter(doc)
    Path(instance).write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", instance, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_command(tmp_path, capsys):
    tree, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    star = _write_instance(tmp_path, "star.json", tree, f)
    assert main(["oracle", star, "--max-k", "4"]) == 0
    assert capsys.readouterr().out == "3\n"

    tree, f = path_instance([1, 2, 1])
    bump = _write_instance(tmp_path, "bump.json", tree, f)
    assert main(["oracle", bump, "--max-k", "1"]) == 0
    assert capsys.readouterr().out == "1\n"

    tree, f = path_instance([1, 2, 1, 2, 1])
    twin = _write_instance(tmp_path, "twin.json", tree, f)
    assert main(["oracle", twin, "--max-k", "1"]) == 3
    assert "no feasible mode multiset" in capsys.readouterr().err


def test_oracle_negative_max_k_is_a_usage_error(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1])
    bump = _write_instance(tmp_path, "bump.json", tree, f)
    assert main(["oracle", bump, "--max-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k_max must be nonnegative\n"


def test_oracle_command_reduces_once(tmp_path, capsys, monkeypatch):
    # the size warning and the count share one reduction of f
    from treeucat import oracle

    calls = []
    reduce_f = oracle.oracle_pieces

    def counted(f):
        calls.append(f)
        return reduce_f(f)

    monkeypatch.setattr(oracle, "oracle_pieces", counted)
    tree, f = star_instance(1, {f"a{i}": 2 for i in range(8)})
    star = _write_instance(tmp_path, "star.json", tree, f)
    tree, f = path_instance([1, 2, 1, 2, 1])
    twin = _write_instance(tmp_path, "twin.json", tree, f)
    for argv, code in (
        (["oracle", star, "--max-k", "8"], 0),
        (["oracle", star, "--max-k", "2"], 3),
        (["oracle", twin, "--max-k", "4"], 0),
        (["oracle", star, "--max-k", "-1"], 2),
    ):
        calls.clear()
        assert main(argv) == code
        assert len(calls) == (code != 2), argv
        err = capsys.readouterr().err
    # the usage error comes before the size warning, which needs the pieces
    assert err == "error: k_max must be nonnegative\n"


def test_oracle_warns_on_large_instances(tmp_path, capsys):
    # the guidance applies to the largest piece the search enumerates: a
    # path is one `interval_ucat` piece, however long, so it does not warn
    tree, f = path_instance([1] * 9)
    path = _write_instance(tmp_path, "long.json", tree, f)
    assert main(["oracle", path, "--max-k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == ""

    # a star whose leaves rise above the centre reduces to nothing smaller;
    # at 9 vertices it is within the guidance
    tree, f = star_instance(1, {f"a{i}": 2 for i in range(8)})
    star = _write_instance(tmp_path, "star.json", tree, f)
    assert main(["oracle", star, "--max-k", "8"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "8\n"
    assert captured.err == ""

    # at 17 vertices it is past it, and the search still answers
    tree, f = star_instance(1, {f"a{i}": 2 for i in range(16)})
    star = _write_instance(tmp_path, "star17.json", tree, f)
    assert main(["oracle", star, "--max-k", "16"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "16\n"
    assert "warning: 17 vertices in the largest reduced piece" in captured.err
    assert "meant for at most 16" in captured.err
    assert main(["oracle", star, "--max-k", "2"]) == 3
    captured = capsys.readouterr()
    assert "warning: 17 vertices" in captured.err
    assert "no feasible mode multiset" in captured.err


def test_sweep_command(tmp_path, capsys):
    from treeucat import EdgeLinearDensity, MetricTree

    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    path = _write_instance(tmp_path, "in.json", tree, f)
    assert main(["sweep", path, "--vertex", "P"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["origin"] == "P"
    assert data["cuts"] == [{"u": "Q", "w": "R", "t": "2/3"}]

    assert main(["sweep", path, "--vertex", "Z"]) == 2
    assert "'Z'" in capsys.readouterr().err


def test_gen_command_deterministic(tmp_path, capsys):
    assert main(["gen", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    tree, f = parse_instance(first)
    expected_tree, expected_f = gen_instance(5, 8, 4)
    assert tree == expected_tree
    assert f == expected_f

    assert main(["gen", "--seed", "0", "--vertices", "1", "--max-value", "9"]) == 0
    tree, _ = parse_instance(capsys.readouterr().out)
    assert len(tree.vertices) == 1


def test_gen_rejects_bad_flags(capsys):
    assert main(["gen", "--seed", "1", "--vertices", "0"]) == 2
    assert "max_vertices" in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    tree, f = path_instance([1, 2, 1])
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(tree, f)))
    assert main(["ucat", "-"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["ucat", str(tmp_path / "no_such.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    tree, f = path_instance([1, 2, 1])
    path = _write_instance(tmp_path, "in.json", tree, f)
    for flag in ("--output", "--render"):
        target = str(tmp_path / "no_such_dir" / "out")
        assert main(["decompose", path, flag, target]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")


def test_an_internal_error_exits_1(tmp_path, capsys, monkeypatch):
    # a broken invariant is the program's fault, not the input's: exit 1
    # with an `internal error:` line, not the usage error's exit 2
    from treeucat import greedy
    from treeucat.errors import InternalInvariantError

    def broken(f):
        raise InternalInvariantError("a broken invariant")

    monkeypatch.setattr(greedy, "ucat", broken)
    tree, f = path_instance([1, 2, 1])
    path = _write_instance(tmp_path, "in.json", tree, f)
    assert main(["ucat", path]) == 1
    assert capsys.readouterr() == ("", "internal error: a broken invariant\n")


def test_the_help_formatter_has_only_what_its_set_up_makes():
    # the formatter sets itself up on the first attribute it lacks; after
    # that, a name the set-up did not make is an `AttributeError`, as on
    # any object, whether or not the set-up has run
    from treeucat.cli import _HelpFormatter

    formatter = _HelpFormatter("treeucat")
    with pytest.raises(AttributeError, match="no_such_state"):
        formatter.no_such_state
    assert formatter._prog == "treeucat"
    with pytest.raises(AttributeError, match="no_such_state"):
        formatter.no_such_state


def test_cli_import_leaves_out_start_up_heavy_modules():
    # `-S` skips `site`, whose `.pth` files may import `typing` or
    # `pathlib` themselves and so hide an import the package makes
    src = str(Path(treeucat.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import treeucat.cli;"
        " print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    )
    heavy = ["dataclasses", "inspect", "typing", "pathlib"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *heavy],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


@pytest.mark.parametrize("module", ["treeucat", "treeucat.cli"])
def test_python_dash_m_runs_the_commands(module, tmp_path):
    # `python -m` must run the command and return its exit status, not
    # define the commands and exit 0
    src = str(Path(treeucat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=env,
        )

    tree, f = path_instance([1, 2, 1, 2, 1])
    instance = _write_instance(tmp_path, "in.json", tree, f)
    good = tmp_path / "d.json"
    assert main(["decompose", instance, "--output", str(good)]) == 0
    doc = json.loads(good.read_text(encoding="utf-8"))
    doc["components"][1]["values"]["v5"] = "2"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"ucat": ', encoding="utf-8")

    proc = run("check", instance, str(good))
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "overall: ok")
    proc = run("check", instance, str(tampered))
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (1, "overall: FAIL")
    proc = run("check", instance, str(malformed))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 1, column 10")
    proc = run("--version")
    assert (proc.returncode, proc.stdout) == (0, f"treeucat {treeucat.__version__}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("treeucat ")
