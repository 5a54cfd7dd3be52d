"""The document formats the README shows are the ones the code reads and
writes: its fenced `json` blocks are an instance and, byte for byte, the
decomposition that `treeucat decompose` writes for it and the sweep
document that `treeucat sweep --vertex v1` writes for it."""

from __future__ import annotations

import re
from pathlib import Path

from treeucat import __version__, check_decomposition, decompose
from treeucat.cli import main
from treeucat.documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    serialize_decomposition,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _json_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```json\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_the_readme_documents_round_trip(tmp_path, capsys):
    instance, decomposition, sweep_document = _json_blocks()
    tree, f = parse_instance(instance)
    d, _ = decompose(f)
    provenance = {
        "tool": f"treeucat {__version__}",
        "input_digest": instance_digest(tree, f),
    }
    assert serialize_decomposition(d, provenance) == decomposition

    bound = decomposition_from_document(parse_decomposition(decomposition), f)
    assert bound.refined_tree is f.tree
    assert check_decomposition(f, bound).overall

    path = tmp_path / "instance.json"
    path.write_text(instance, encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    assert capsys.readouterr().out == decomposition
    assert main(["sweep", str(path), "--vertex", "v1"]) == 0
    assert capsys.readouterr().out == sweep_document


def test_the_module_table_names_each_module_once():
    # the "modules, by role" table lists every module file of the package,
    # `__init__` and `__main__` aside, once each, and nothing else
    text = README.read_text(encoding="utf-8")
    table = text.split("The modules, by role:\n\n", 1)[1].split("\n\n", 1)[0]
    named = []
    for row in table.splitlines()[2:]:  # past the header and its rule
        cell = re.sub(r"\([^)]*\)", "", row.split("|")[2])  # drop the notes
        named += re.findall(r"`(\w+)`", cell)
    package = README.parent / "src" / "treeucat"
    files = [p.stem for p in package.glob("*.py")]
    assert sorted(named) == sorted(set(files) - {"__init__", "__main__"})
