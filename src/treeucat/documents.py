"""Document formats: instances, decompositions and sweeps as JSON-syntax text.

All numbers travel as strings ("3", "1/3", "0.25") and convert exactly to
rationals, so files round-trip without any loss. Every document lives on
its instance's tree: a decomposition names it by digest, and a sweep
document repeats it and reports each cut as an edge and a position on it.

A decomposition document holds no tree. It names the instance it was made
for by the digest of that instance, which covers the instance's vertices
and edges, and `decomposition_from_document` binds it to an instance only
when the digests match. Binding checks each listed id and sign once,
with the density's own check, `density._indexed`: it refuses an id that
is not a vertex of the instance's tree and a negative value, and does
not check again the pairs the parse has read. It keeps each component as
the support map that check returns, index -> value pair on that tree,
and builds no density; the writers read that map too.

An instance is read in one pass per section, each item checked once,
straight into the state the tree and the density keep: the edges are
handed to `MetricTree` one at a time as they are read, and the density's
entries to `density._indexed`, which keys each by its vertex index. So
the fault reported is the first in document order: the vertices, then
the edges, then the density. Within an edge, the document's own checks
come first, its shape, then its endpoints being strings, then its length
numeral, and then the tree's: each endpoint a vertex, no self-loop, a
positive length, no parallel edge. Within a density entry, its numeral
is read before its id is checked, and then its sign.

The instance writers take the tree and the density apart, as the reader
returns them, but refuse a tree that is neither f.tree nor equal to it:
written with another tree, a density would be keyed by the wrong ids.

Hostile input ends in `DocumentError`, in bounded time: nesting too deep
for the JSON parser is reported, not raised as `RecursionError`, and a
numeral is read by `rational.as_fraction`, whose grammar and bounds
(`MAX_NUMERAL_CHARS` characters, a decimal exponent of at most
`MAX_DECIMAL_EXPONENT`, both imported here from `rational`) hold on every
CPython; its refusal is reported in its words, after the numeral's name.
An integer literal, such as "ucat"'s, is refused past `MAX_NUMERAL_CHARS`
characters with the same words, before `int()` converts it.
An instance's positive value or edge length that could not be written
back, its numerator or denominator past the interpreter's digit limit, is
refused as it is read, not by the writer after the work.

Each parse converts a numeral string once: numerals equal as strings share
one reduced `(numerator, denominator)` pair within a document, a value's
or an edge length's, and nothing is kept between documents. "p" or "p/q"
in ASCII digits, every numeral the writers make, is read from its digits;
any other spelling, and such a one that int() refuses or whose
denominator is 0, goes to `as_fraction`, with the same values and errors.
So does a digit numeral longer than `MAX_NUMERAL_CHARS`, which
`as_fraction` refuses by its length: the digit read converts nothing
longer, so a document is read in bounded time even with the
interpreter's digit limit lifted (0). Earlier versions read such a
numeral when the limit was lifted, and refused it only under the limit.

Each value and each edge length is written inline from its pair, "p" or
"p/q", with no Python function call per value or edge; only when `str`
refuses one is `_numeral` called, to name it. Documents are fixed-shape
templates. An instance or a sweep document is byte for byte the text of
`json.dumps(payload, indent=2)`, and a decomposition document that of
`json.dumps(payload, separators=(",", ":"))`, each with a final newline;
the digest hashes the canonical compact text with sorted keys, written
alike. The reader takes any JSON whitespace, so a decomposition document
written with two-space indentation, as earlier versions wrote it, reads
and binds as the compact one does.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _escape
from math import gcd

from .density import EdgeLinearDensity, _indexed, _with_support
from .errors import DocumentError, TreeMismatch
from .rational import (
    MAX_DECIMAL_EXPONENT,
    MAX_NUMERAL_CHARS,
    as_fraction,
    overlong,
    unwritable,
)
from .record import Component, Decomposition, Record
from .tree import MetricTree, VertexId

_COMPONENT_KEYS = frozenset({"mode", "values"})


class DecompositionDocument(Record):
    """A decomposition document as parsed, before it meets an instance.

    Each of the `components`, a tuple, is a `(mode, values)` pair: its
    mode, a string, and its listed values, a dict from id to value, in
    listed order, a listed 0 included, each value its reduced
    `(numerator, denominator)` pair of ints. `ucat` is the int the
    document states, and `provenance` its mapping of strings to strings.
    Whether the ids are the instance's and the values nonnegative is
    decided at binding, where `decomposition_from_document` makes the
    components' rows.
    """

    __slots__ = ("components", "ucat", "provenance")


def _int_literal(literal: str) -> int:
    """The int of a JSON integer literal, refused past `MAX_NUMERAL_CHARS`
    characters before `int()` converts it, as a numeral string is: with
    the interpreter's digit limit lifted, the conversion alone takes time
    that grows faster than the literal."""
    if (message := overlong(literal)) is not None:
        raise ValueError(message)
    return int(literal)


def _load_json(text: str):
    try:
        return json.loads(text, parse_int=_int_literal)
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None
    except ValueError as err:  # an integer literal too long, or past int's limit
        raise DocumentError(str(err)) from None


def _check_sections(data, required: set, what: str) -> None:
    if not isinstance(data, dict):
        raise DocumentError(f"{what} must be a single object")
    for key in sorted(required - set(data)):
        raise DocumentError(f"{what} is missing section {key!r}")
    for key in sorted(set(data) - required):
        raise DocumentError(f"{what} has unknown section {key!r}")


def _number(
    raw, numerals: dict[str, tuple], label: str, a, b, written: bool
) -> tuple[int, int]:
    """The value of the numeral `raw` as its reduced `(numerator,
    denominator)` pair, checked once per distinct string.

    `numerals` maps each numeral this document has already read to its
    value. Callers look a string up there first and call this only on a
    miss (a pair is a 2-tuple, never false, so their `or` calls this only
    when the lookup gives None), so each distinct numeral costs one call;
    only a numeral that passed every check enters the map, so a repeat of
    a bad one fails at its first position, with the same message. An
    error message names the numeral `label.format(a, b)`, formatted only
    when the numeral fails, and then gives `as_fraction`'s own words.

    If `written`, as for an instance, which `decompose`, `check` and
    `sweep` write back, a positive value must also be writable:
    `_numeral`'s refusal of a numerator or denominator past the
    interpreter's digit limit comes here, at parse, and not after the
    work. Only a non-digit spelling can reach that limit, since `int()`
    refuses longer digit strings; a negative value is left to the sign
    check that refuses it.
    """
    if not isinstance(raw, str):
        raise DocumentError(
            f"{label.format(a, b)}: numbers must be exact strings like \"3\","
            f" \"1/3\" or \"0.25\", got {reprlib.repr(raw)}"
        )
    num, slash, den = raw.partition("/")
    if len(raw) <= MAX_NUMERAL_CHARS and raw.isascii() and (num + den).isdigit():
        # "p" or "p/q" in ASCII digits, read without the grammar's regex; a
        # part int() refuses, empty or past its digit limit, and a zero
        # denominator are left to `as_fraction` to word, as is a numeral
        # past the length bound, before any int() could convert it
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:
            q = 0
        if q:
            g = gcd(p, q) if slash else 1
            numerals[raw] = value = (p, q) if g == 1 else (p // g, q // g)
            return value
    try:
        value = as_fraction(raw).as_integer_ratio()
    except ValueError as err:
        raise DocumentError(f"{label.format(a, b)}: {err}") from None
    if written and value[0] > 0:
        _numeral(value, "{}", label.format(a, b))
    numerals[raw] = value
    return value


def _edge_items(raw_edges, numerals: dict[str, tuple]):
    """(u, w, length) for each edge object of `raw_edges`, read as
    `MetricTree` takes it: its shape and its endpoints' type checked, and
    its length numeral's reduced pair, read once per distinct numeral. The
    tree checks the rest, each id included."""
    what = "instance"
    if not isinstance(raw_edges, list):
        raise DocumentError(f"{what}: edges must be a list")
    for i, entry in enumerate(raw_edges):
        try:  # three keys, each of them one of u, w and length
            if type(entry) is not dict or len(entry) != 3:
                raise KeyError
            u, w, raw = entry["u"], entry["w"], entry["length"]
        except KeyError:
            raise DocumentError(
                f"{what}: edge {i} must be an object with keys u, w, length"
            ) from None
        if type(u) is not str or type(w) is not str:
            end = w if type(u) is str else u
            raise DocumentError(
                f"{what}: edge {i} endpoint {reprlib.repr(end)} is not a string"
            )
        length = numerals.get(raw) if type(raw) is str else None
        yield u, w, length or _number(
            raw, numerals, "{}: edge {} length", what, i, True
        )


def _values_map(raw, what: str, numerals: dict[str, tuple]) -> dict:
    """A decomposition's value map `raw` read: each id mapped to its value
    pair."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{what} must map vertex ids to value strings")
    values = {}
    for v, x in raw.items():
        value = numerals.get(x) if type(x) is str else None
        values[v] = value or _number(x, numerals, "{}[{}]", what, v, False)
    return values


def _density_items(raw, numerals: dict[str, tuple]):
    """(id, value pair) for each entry of an instance's density section,
    read as `_indexed` takes it."""
    what = "density"
    if not isinstance(raw, dict):
        raise DocumentError(f"{what} must map vertex ids to value strings")
    for v, x in raw.items():
        value = numerals.get(x) if type(x) is str else None
        yield v, value or _number(x, numerals, "{}[{}]", what, v, True)


def parse_instance(text: str) -> tuple[MetricTree, EdgeLinearDensity]:
    """Parse an instance document; tree and density errors propagate.

    An instance's density must list every vertex: unlike a decomposition's
    components, an absent vertex here is an error, not a 0. Each section
    is read in one pass, in document order, straight into the tree and the
    density's support map.
    """
    data = _load_json(text)
    _check_sections(data, {"vertices", "edges", "density"}, "instance")
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise DocumentError("instance: vertices must be a list of id strings")
    numerals: dict[str, tuple] = {}
    tree = MetricTree(vertices, _edge_items(data["edges"], numerals))
    listed = data["density"]
    f = _with_support(tree, _indexed(tree.index, _density_items(listed, numerals)))
    if len(listed) < len(tree.vertices):  # every listed id is a vertex
        for v in tree.vertices:  # name the first missing one
            if v not in listed:
                raise TreeMismatch(f"no density value for vertex {v!r}")
    return tree, f


def _numeral(pair: tuple[int, int], label: str, a, b=None) -> str:
    """The text of the reduced pair (p, q), "p" or "p/q" as `str` writes
    its `Fraction`; a value too long for Python to write is a
    DocumentError, whose message names the value `label.format(a, b)`."""
    p, q = pair
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # an integer past the interpreter's digit limit
        raise DocumentError(unwritable(p, q, label, a, b)) from None


# The writers fill fixed-shape templates. An instance's and a sweep's are
# the text `json.dumps(payload, indent=2)` gives each section, and `pad` is
# the indent of the line a section opens on. A decomposition's are one
# line, the text of `json.dumps(payload, separators=(",", ":"))`: it lists
# the values of every component's support, a program reads it, and
# indentation would be about half its bytes. Vertex ids go unescaped: a
# tree admits only ids of ASCII letters, digits, "_" and "-".
_INSTANCE = '{\n  "vertices": %s,\n  "edges": %s,\n  "density": %s\n}\n'
_DECOMPOSITION = '{"components":[%s],"ucat":%d,"provenance":{%s}}\n'
_COMPONENT = '{"mode":%s,"values":{%s}}'
_SWEEP = (
    '{\n  "tree": {\n    "vertices": %s,\n    "edges": %s\n  },\n  "origin": %s,\n'
    '  "h": %s,\n  "remainder": %s,\n  "cuts": %s\n}\n'
)
_CUT = '{\n      "u": "%s",\n      "w": "%s",\n      "t": "%s"\n    }'


def _block(members, pad, brackets="{}"):
    """A JSON object or list of written `members`, one per line."""
    if not members:
        return brackets
    inner = "\n  " + pad
    body = ("," + inner).join(members)
    return brackets[0] + inner + body + "\n" + pad + brackets[1]


def _tree_sections(tree, pad):
    """The "vertices" and "edges" sections of `tree`, opening at `pad`."""
    vs, n = tree.vertices, len(tree.vertices)
    try:
        edges = [
            f'{{\n    {pad}"u": "{vs[k // n]}",\n    {pad}"w": "{vs[k % n]}",'
            f'\n    {pad}"length": "{p if q == 1 else f"{p}/{q}"}"\n  {pad}}}'
            for k, (p, q) in zip(*tree.key_lengths())
        ]
    except ValueError:  # an integer past the interpreter's digit limit
        for u, w, x in tree.iter_edges():  # name the first such edge
            _numeral(x.as_integer_ratio(), "the length of edge {}-{}", u, w)
        raise
    return _block([f'"{v}"' for v in vs], pad, "[]"), _block(edges, pad, "[]")


def _members(vertices, values: dict, what: str, colon: str = ": ") -> list[str]:
    """'"id": "p"' or '"id": "p/q"' for each (vertex index, value pair) item
    of `values`, the index named by its id in `vertices`."""
    try:
        return [
            f'"{vertices[i]}"{colon}"{p}"'
            if q == 1
            else f'"{vertices[i]}"{colon}"{p}/{q}"'
            for i, (p, q) in values.items()
        ]
    except ValueError:  # an integer past the interpreter's digit limit
        for i, x in values.items():  # name the first such value
            _numeral(x, "the value of {} at vertex {}", what, vertices[i])
        raise


def _all_values(f: EdgeLinearDensity) -> dict:
    """Every vertex's value pair, 0 as (0, 1), index -> pair in index order."""
    values = dict.fromkeys(range(len(f.tree.vertices)), (0, 1))
    values.update(f.index_items())
    return values


def _own_tree(tree: MetricTree, f: EdgeLinearDensity) -> MetricTree:
    """f.tree, which `tree` must be or equal; any other is a TreeMismatch."""
    if tree is not f.tree and tree != f.tree:
        raise TreeMismatch("the instance's tree is not its density's tree")
    return f.tree


def serialize_instance(tree: MetricTree, f: EdgeLinearDensity) -> str:
    tree = _own_tree(tree, f)
    density = _members(tree.vertices, _all_values(f), "the density")
    return _INSTANCE % (*_tree_sections(tree, "  "), _block(density, "  "))


def instance_digest(tree: MetricTree, f: EdgeLinearDensity) -> str:
    """Digest of the canonical text, independent of formatting: the sha256
    of `json.dumps(payload, sort_keys=True, separators=(",", ":"))`, written
    directly, with `tree.vertices` already in sorted order.

    `tree` is f.tree or equal to it, so the digest is computed once per
    density and kept on f, which is immutable. `hashlib` is imported here,
    so that a command that computes no digest does not load OpenSSL."""
    tree = _own_tree(tree, f)
    if f._digest is not None:
        return f._digest
    import hashlib

    vs, n = tree.vertices, len(tree.vertices)
    density = _members(vs, _all_values(f), "the density", ":")
    try:
        edges = [
            f'{{"length":"{p if q == 1 else f"{p}/{q}"}",'
            f'"u":"{vs[k // n]}","w":"{vs[k % n]}"}}'
            for k, (p, q) in zip(*tree.key_lengths())
        ]
    except ValueError:  # an integer past the interpreter's digit limit
        for u, w, x in tree.iter_edges():  # name the first such edge
            _numeral(x.as_integer_ratio(), "the length of edge {}-{}", u, w)
        raise
    canonical = '{"density":{%s},"edges":[%s],"vertices":["%s"]}' % (
        ",".join(density), ",".join(edges), '","'.join(vs)
    )
    digest = "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    f._digest = digest
    return digest


def parse_decomposition(text: str) -> DecompositionDocument:
    """Parse a decomposition document, checking each item on its own;
    whether its ids are the instance's is decided at binding."""
    data = _load_json(text)
    _check_sections(data, {"components", "ucat", "provenance"}, "decomposition")
    numerals: dict[str, tuple] = {}

    raw_components = data["components"]
    if not isinstance(raw_components, list):
        raise DocumentError("components must be a list")
    components = []
    for i, entry in enumerate(raw_components):
        if not isinstance(entry, dict) or entry.keys() != _COMPONENT_KEYS:
            raise DocumentError(
                f"component {i} must be an object with keys mode, values"
            )
        mode = entry["mode"]
        if not isinstance(mode, str):
            raise DocumentError(
                f"component {i}: mode {reprlib.repr(mode)} is not a tree vertex"
            )
        what = f"component {i} values"
        components.append((mode, _values_map(entry["values"], what, numerals)))

    count = data["ucat"]
    if not isinstance(count, int) or isinstance(count, bool):
        raise DocumentError("ucat must be an integer")
    if count != len(components):
        raise DocumentError(
            f"ucat is {count} but there are {len(components)} components"
        )

    provenance = data["provenance"]
    _check_sections(provenance, {"tool", "input_digest"}, "provenance")
    for key in ("tool", "input_digest"):
        if not isinstance(provenance[key], str):
            raise DocumentError(f"provenance {key} must be a string")

    return DecompositionDocument(tuple(components), count, dict(provenance))


def decomposition_from_document(
    doc: DecompositionDocument, f: EdgeLinearDensity
) -> Decomposition:
    """Bind a parsed decomposition to the instance it claims to decompose.

    A document whose `input_digest` is not f's is refused; so is a mode
    that is not a vertex of f.tree. Each component's listed pairs, which
    the parse has already checked and reduced, are then keyed by vertex
    index in listed order by the density's own check, `density._indexed`:
    a listed id that is not a vertex of f.tree is a TreeMismatch, a
    negative value a NegativeValue. The support map it returns, on f.tree
    itself, is the component's rows; no density is built. Whether the
    components are unimodal and sum to f is not checked here, that is
    `check_decomposition`'s job.
    """
    expected = instance_digest(f.tree, f)
    if doc.provenance["input_digest"] != expected:
        raise DocumentError(
            "decomposition was produced for a different instance"
            f" (digest {doc.provenance['input_digest']}, instance has {expected})"
        )
    tree = f.tree
    index = tree.index
    components = []
    for i, (mode, values) in enumerate(doc.components):
        if mode not in index:
            raise DocumentError(
                f"component {i}: mode {reprlib.repr(mode)} is not a tree vertex"
            )
        rows = _indexed(index, values.items())
        components.append(Component._from_rows(mode, tree, rows))
    return Decomposition(tree, tuple(components))


def serialize_decomposition(d: Decomposition, provenance: Mapping[str, str]) -> str:
    """JSON text of `d`; each component lists its nonzero values only, read
    from its rows. The tree is not written: d lives on the instance that
    the provenance's `input_digest` names."""
    vertices = d.refined_tree.vertices
    components = [
        _COMPONENT
        % (
            _escape(c.mode),
            ",".join(_members(vertices, c.rows, f"component {i}", ":")),
        )
        for i, c in enumerate(d.components)
    ]
    tool = [_escape(key) + ":" + _escape(text) for key, text in provenance.items()]
    return _DECOMPOSITION % (",".join(components), len(components), ",".join(tool))


def serialize_sweep(result) -> str:
    """JSON text of a `SweepResult`: the swept density's tree, the origin,
    h and the remainder at every vertex, and the cuts."""
    vertices = result.h.tree.vertices
    h = _members(vertices, _all_values(result.h), "h")
    remainder = _members(vertices, _all_values(result.remainder), "the remainder")
    label = "the position of the cut on edge {}-{}"
    cuts = [
        _CUT % (c.u, c.w, _numeral(c.t.as_integer_ratio(), label, c.u, c.w))
        for c in result.cuts
    ]
    return _SWEEP % (
        *_tree_sections(result.h.tree, "    "),
        _escape(result.origin),
        _block(h, "  "),
        _block(remainder, "  "),
        _block(cuts, "  ", "[]"),
    )


_PALETTE = (
    "lightblue",
    "lightpink",
    "palegreen",
    "khaki",
    "plum",
    "lightsalmon",
    "aquamarine",
    "wheat",
)


def render_dot(d: Decomposition, f: EdgeLinearDensity) -> str:
    """DOT rendering of a decomposition of f, which lives on f.tree:
    vertices labelled with f, one color per component's support, modes
    doubled.

    A vertex in several supports takes the color of the earliest component,
    matching the greedy peel order. Supports are read from the components'
    rows, so no component density is built.
    """
    color: dict[VertexId, str] = {}
    for i, component in enumerate(d.components):
        shade = _PALETTE[i % len(_PALETTE)]
        vertices = component.tree.vertices
        for at in component.rows:
            color.setdefault(vertices[at], shade)
    modes = {c.mode for c in d.components}
    lines = ["graph decomposition {", "  node [style=filled, fillcolor=white];"]
    for v in d.refined_tree.vertices:
        attrs = [f'label="{v}\\nf={f.value(v)}"']
        if v in color:
            attrs.append(f'fillcolor="{color[v]}"')
        if v in modes:
            attrs.append("shape=doublecircle")
        lines.append(f'  "{v}" [{", ".join(attrs)}];')
    for u, w, length in d.refined_tree.iter_edges():
        lines.append(f'  "{u}" -- "{w}" [label="{length}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
