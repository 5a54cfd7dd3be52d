"""Fuzz the command line with mutated documents: whatever the input, `main`
returns one of the documented exit codes 0, 1, 2 or 3 and never raises.

Mutations start from a valid instance and a valid decomposition of it:
truncation, deep nesting, a node replaced by a value of the wrong type, a
numeral replaced by a huge or malformed one, an id replaced by an unknown
one, and a value map (a component's `values`, an instance's `density`)
that loses an entry or gains a "0" entry or an entry for an unknown id.
Examples are derived from the test itself (`derandomize`) and no example
database is kept, so every run checks the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeucat import decompose
from treeucat.cli import main
from treeucat.documents import (
    instance_digest,
    serialize_decomposition,
    serialize_instance,
)

from helpers import path_instance

_TREE, _F = path_instance([0, 4, 1, 3, 0])
INSTANCE = serialize_instance(_TREE, _F)
PROVENANCE = {"tool": "treeucat fuzz", "input_digest": instance_digest(_TREE, _F)}
DECOMPOSITION = serialize_decomposition(decompose(_F)[0], PROVENANCE)

NUMERALS = [
    "1e1000000",
    "1e10000000",
    "-1e-99999",
    "9" * 20000,
    "1/" + "7" * 5000,
    "1/0",
    "-1",
    "0",
    "1e1000",
    "0x10",
    "nan",
    "",
]
IDS = ["zz", "_s99", "", "v1 ", "_s1", "v9"]
WRONG_TYPES = [None, True, 7, -1, 1.5, 10**400, [], {}, ["v1"], {"u": "v1"}, "x"]


def _paths(node, path=()):
    """Every position in a JSON tree, as the key path that reaches it."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _replace(node, path, value):
    """A copy of `node` with the position at `path` set to `value`."""
    if not path:
        return value
    node = node.copy()
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _vertices(data):
    """The ids a document names: an instance's vertices, or the modes and
    value keys of a decomposition's components."""
    if "vertices" in data:
        return data["vertices"]
    ids = {c["mode"] for c in data["components"]}
    for c in data["components"]:
        ids.update(c["values"])
    return sorted(ids)


def _id_positions(data):
    """Where a document names an id: each a string leaf, or a value map's
    path and the key in it. An instance names ids in its vertex list, its
    edges and its density; a decomposition in its modes and value keys."""
    ids = set(_vertices(data))
    for path in _paths(data):
        node = _get(data, path)
        if isinstance(node, str) and node in ids:
            yield path, None
        elif path and path[-1] in ("values", "density"):
            for key in node:
                yield path, key


@st.composite
def mutated(draw, text):
    kind = draw(
        st.sampled_from(["truncate", "nest", "type", "numeral", "id", "map", "none"])
    )
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "nest":
        depth = draw(st.sampled_from([1, 40, 5000, 100000]))
        return "[" * depth + text + "]" * draw(st.sampled_from([0, depth]))
    if kind == "none":
        return text
    data = json.loads(text)
    paths = list(_paths(data))
    if kind == "type":
        path = draw(st.sampled_from(paths))
        return json.dumps(_replace(data, path, draw(st.sampled_from(WRONG_TYPES))))
    if kind == "map":
        maps = [p for p in paths if p and p[-1] in ("values", "density")]
        path = draw(st.sampled_from(maps))
        entries = dict(_get(data, path))
        change = draw(st.sampled_from(["delete", "zero", "unknown"]))
        if change == "delete":
            if entries:
                del entries[draw(st.sampled_from(sorted(entries)))]
        elif change == "zero":
            entries[draw(st.sampled_from(sorted(_vertices(data))))] = "0"
        else:
            entries[draw(st.sampled_from(IDS))] = draw(st.sampled_from(["0", "1"]))
        return json.dumps(_replace(data, path, entries))
    if kind == "id":
        path, key = draw(st.sampled_from(list(_id_positions(data))))
        new = draw(st.sampled_from(IDS))
        if key is None:
            return json.dumps(_replace(data, path, new))
        entries = dict(_get(data, path))
        entries[new] = entries.pop(key)
        return json.dumps(_replace(data, path, entries))
    # which kind a string leaf is does not matter to the parser, so a
    # numeral may land anywhere
    leaves = [p for p in paths if p and isinstance(_get(data, p), str)]
    path = draw(st.sampled_from(leaves))
    return json.dumps(_replace(data, path, draw(st.sampled_from(NUMERALS))))


COMMANDS = [
    ["decompose", "{instance}", "--trace"],
    ["ucat", "{instance}"],
    ["check", "{instance}", "{decomposition}"],
    ["sweep", "{instance}", "--vertex", "v2"],
    ["oracle", "{instance}", "--max-k", "3"],
]


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    instance=mutated(INSTANCE),
    decomposition=mutated(DECOMPOSITION),
    command=st.sampled_from(COMMANDS),
)
def test_cli_exit_codes_on_mutated_documents(instance, decomposition, command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "instance": Path(tmp, "instance.json"),
            "decomposition": Path(tmp, "decomposition.json"),
        }
        paths["instance"].write_text(instance, encoding="utf-8")
        paths["decomposition"].write_text(decomposition, encoding="utf-8")
        argv = [arg.format(**{k: str(p) for k, p in paths.items()}) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue()[:400])
    if code == 2:
        assert err.getvalue().startswith("error: ")
