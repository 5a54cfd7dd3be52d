from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import treeucat
from treeucat import decompose, gen_instance
from treeucat.cli import main
from treeucat.documents import (
    instance_digest,
    parse_decomposition,
    parse_instance,
    serialize_instance,
)

from helpers import dense_decomposition_text, path_instance, star_instance


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
    assert [c.mode for c in doc.components] == ["v2", "v4"]
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
    # is the second component's mode value and the sweep's value at its
    # cut, has a denominator of more than 4,300 digits
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
        (["sweep", str(path), "--vertex", "v2"], "of the remainder at vertex _s1"),
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


def test_oracle_warns_on_large_instances(tmp_path, capsys):
    tree, f = path_instance([1] * 9)
    path = _write_instance(tmp_path, "long.json", tree, f)
    assert main(["oracle", path, "--max-k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert "warning: 9 vertices" in captured.err


def test_sweep_command(tmp_path, capsys):
    from treeucat import EdgeLinearDensity, MetricTree

    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    path = _write_instance(tmp_path, "in.json", tree, f)
    assert main(["sweep", path, "--vertex", "P"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["origin"] == "P"
    assert data["subdivisions"] == [{"vertex": "_s1", "u": "Q", "w": "R", "t": "2/3"}]

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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("treeucat ")
