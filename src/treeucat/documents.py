"""Document formats: instances, decompositions and sweeps as JSON-syntax text.

All numbers travel as strings ("3", "1/3", "0.25") and convert exactly to
rationals, so files round-trip without any loss. Every document lives on
its instance's tree: a decomposition names it by digest, and a sweep
document repeats it and reports each cut as an edge and a position on it.

A decomposition document holds no tree. It names the instance it was made
for by the digest of that instance, which covers the instance's vertices
and edges, and `decomposition_from_document` binds it to an instance only
when the digests match. Binding checks each listed value once, with
`EdgeLinearDensity`'s own check: it refuses an id that is not a vertex
of the instance's tree and a negative value. It keeps each component as
the support map that check returns, index -> value pair on that tree,
and builds no density; the writers read that map too.

The instance writers take the tree and the density apart, as the reader
returns them, but refuse a tree that is neither f.tree nor equal to it:
written with another tree, a density would be keyed by the wrong ids.

Hostile input ends in `DocumentError`, in bounded time: nesting too deep
for the JSON parser is reported, not raised as `RecursionError`, and a
numeral may have at most `MAX_NUMERAL_CHARS` characters and a decimal
exponent of at most `MAX_DECIMAL_EXPONENT` in absolute value, so that
"1e10000000" cannot ask for a 33-million-bit integer.

Each parse converts a numeral string once: numerals equal as strings share
one reduced `(numerator, denominator)` pair within a document, or one
`Fraction` as edge lengths, and nothing is kept between documents. "p" or
"p/q" in ASCII digits is read from its digits; any other spelling goes
through `Fraction(str)`, with the same values and errors.

A value is written from its pair, a length from its `as_integer_ratio()`
once per distinct length. Documents are fixed-shape templates, byte for
byte the text of `json.dumps(payload, indent=2)`; the digest hashes the
canonical compact text, written alike.
"""

from __future__ import annotations

import hashlib
import json
import re
import reprlib
import sys
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from math import gcd

from .density import EdgeLinearDensity, _support
from .errors import DocumentError, TreeMismatch
from .rational import as_fraction
from .record import Component, Decomposition, Record
from .tree import MetricTree, VertexId

MAX_NUMERAL_CHARS = 10_000
MAX_DECIMAL_EXPONENT = 1_000
# the exponent's digits after leading zeros; underscores group digits
_EXPONENT = re.compile(r"[eE][-+]?[0_]*([0-9_]*)")
_EDGE_KEYS = frozenset({"u", "w", "length"})
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


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None
    except ValueError as err:  # e.g. an integer literal past int's digit limit
        raise DocumentError(str(err)) from None


def _check_sections(data, required: set, what: str) -> None:
    if not isinstance(data, dict):
        raise DocumentError(f"{what} must be a single object")
    for key in sorted(required - set(data)):
        raise DocumentError(f"{what} is missing section {key!r}")
    for key in sorted(set(data) - required):
        raise DocumentError(f"{what} has unknown section {key!r}")


def _number(raw, numerals: dict[str, tuple], label: str, a, b) -> tuple[int, int]:
    """The value of the numeral `raw` as its reduced `(numerator,
    denominator)` pair, checked once per distinct string.

    `numerals` maps each numeral this document has already read to its
    value. Callers look a string up there first and call this only on a
    miss, so each distinct numeral costs one call; only a numeral that
    passed every check enters the map, so a repeat of a bad one fails at
    its first position, with the same message. An error message names the
    numeral `label.format(a, b)`, formatted only when the numeral fails.
    """
    if not isinstance(raw, str):
        raise DocumentError(
            f"{label.format(a, b)}: numbers must be exact strings like \"3\","
            f" \"1/3\" or \"0.25\", got {reprlib.repr(raw)}"
        )
    if len(raw) > MAX_NUMERAL_CHARS:
        raise DocumentError(
            f"{label.format(a, b)}: numeral has {len(raw)} characters, at most"
            f" {MAX_NUMERAL_CHARS} are allowed"
        )
    num, slash, den = raw.partition("/")
    try:
        if raw.isascii() and (num + den).isdigit():
            # "p" or "p/q" in ASCII digits, read without `Fraction`'s regex;
            # int() refuses an empty part, as it does past its digit limit
            p, q = int(num), int(den) if slash else 1
            if not q:
                raise ZeroDivisionError
            g = gcd(p, q)
            value = p // g, q // g
        else:
            exponent = _EXPONENT.search(raw)
            if exponent is not None:
                digits = exponent[1].replace("_", "")
                too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                    raise DocumentError(
                        f"{label.format(a, b)}: decimal exponent of"
                        f" {reprlib.repr(raw)} exceeds {MAX_DECIMAL_EXPONENT}"
                        " in absolute value"
                    )
            value = as_fraction(raw).as_integer_ratio()
    except (ValueError, ZeroDivisionError, TypeError):
        shown = reprlib.repr(raw)
        raise DocumentError(
            f"{label.format(a, b)}: not an exact number: {shown}"
        ) from None
    numerals[raw] = value
    return value


def _tree_section(data, numerals: dict[str, tuple]) -> tuple:
    """An instance's listed vertex ids and its listed edges as (u, w,
    length) triples, one `Fraction` per distinct length numeral; the tree,
    built from them by `MetricTree`, checks the rest, each id included."""
    what = "instance"
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise DocumentError(f"{what}: vertices must be a list of id strings")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError(f"{what}: edges must be a list")
    edges = []
    lengths: dict[str, Fraction] = {}  # numeral -> its Fraction
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or entry.keys() != _EDGE_KEYS:
            raise DocumentError(
                f"{what}: edge {i} must be an object with keys u, w, length"
            )
        for end in ("u", "w"):
            if not isinstance(entry[end], str):
                raise DocumentError(
                    f"{what}: edge {i} endpoint {reprlib.repr(entry[end])}"
                    " is not a string"
                )
        raw = entry["length"]
        length = lengths.get(raw) if type(raw) is str else None
        if length is None:
            pair = _number(raw, numerals, "{}: edge {} length", what, i)
            length = lengths[raw] = Fraction(*pair)
        edges.append((entry["u"], entry["w"], length))
    return vertices, edges


def _values_map(raw, what: str, numerals: dict[str, tuple]) -> dict:
    if not isinstance(raw, dict):
        raise DocumentError(f"{what} must map vertex ids to value strings")
    values = {}
    for v, x in raw.items():
        value = numerals.get(x) if type(x) is str else None
        if value is None:
            value = _number(x, numerals, "{}[{}]", what, v)
        values[v] = value
    return values


def parse_instance(text: str) -> tuple[MetricTree, EdgeLinearDensity]:
    """Parse an instance document; tree and density errors propagate.

    An instance's density must list every vertex: unlike a decomposition's
    components, an absent vertex here is an error, not a 0. The listed
    values are validated first, by the density's constructor.
    """
    data = _load_json(text)
    _check_sections(data, {"vertices", "edges", "density"}, "instance")
    numerals: dict[str, tuple] = {}
    tree = MetricTree(*_tree_section(data, numerals))
    values = _values_map(data["density"], "density", numerals)
    f = EdgeLinearDensity(tree, values)
    if len(values) < len(tree.vertices):  # every listed id is a vertex
        for v in tree.vertices:  # name the first missing one
            if v not in values:
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
        raise DocumentError(
            f"cannot write {label.format(a, b)}: its numerator or denominator"
            f" has more than {sys.get_int_max_str_digits():,} digits, the output"
            " limit"
        ) from None


# The writers fill fixed-shape templates with the text `json.dumps(payload,
# indent=2)` gives each section; `pad` is the indent of the line a section
# opens on. Vertex ids go unescaped: a tree admits only ids of ASCII
# letters, digits, "_" and "-".
_EDGE = '{\n  "u": "%s",\n  "w": "%s",\n  "length": "%s"\n}'
_INSTANCE = '{\n  "vertices": %s,\n  "edges": %s,\n  "density": %s\n}\n'
_DECOMPOSITION = '{\n  "components": %s,\n  "ucat": %d,\n  "provenance": %s\n}\n'
_COMPONENT = '{\n      "mode": %s,\n      "values": %s\n    }'
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


def _edges(tree):
    """(u, w, the text of the length) for each edge of `tree`, in
    `edge_list` order; each distinct length is written once."""
    label = "the length of edge {}-{}"
    written = {}  # id(length) -> its text; the tree holds every length
    for u, w, length in tree.iter_edges():
        text = written.get(id(length))
        if text is None:
            pair = length.as_integer_ratio()
            text = written[id(length)] = _numeral(pair, label, u, w)
        yield u, w, text


def _tree_sections(tree, pad):
    """The "vertices" and "edges" sections of `tree`, opening at `pad`."""
    edge = _EDGE.replace("\n", "\n  " + pad)
    edges = [edge % triple for triple in _edges(tree)]
    vertices = [f'"{v}"' for v in tree.vertices]
    return _block(vertices, pad, "[]"), _block(edges, pad, "[]")


def _values_text(vertices, items, pad, what):
    """The value map of the (vertex index, value pair) items `items`, each
    index named by its id in `vertices`."""
    label = "the value of {} at vertex {}"
    members = [
        f'"{vertices[i]}": "{_numeral(x, label, what, vertices[i])}"' for i, x in items
    ]
    return _block(members, pad)


def _own_tree(tree: MetricTree, f: EdgeLinearDensity) -> MetricTree:
    """f.tree, which `tree` must be or equal; any other is a TreeMismatch."""
    if tree is not f.tree and tree != f.tree:
        raise TreeMismatch("the instance's tree is not its density's tree")
    return f.tree


def serialize_instance(tree: MetricTree, f: EdgeLinearDensity) -> str:
    tree = _own_tree(tree, f)
    density = _values_text(
        tree.vertices, enumerate(f.index_values()), "  ", "the density"
    )
    return _INSTANCE % (*_tree_sections(tree, "  "), density)


def instance_digest(tree: MetricTree, f: EdgeLinearDensity) -> str:
    """Digest of the canonical text, independent of formatting: the sha256
    of `json.dumps(payload, sort_keys=True, separators=(",", ":"))`, written
    directly, with `tree.vertices` already in sorted order.

    `tree` is f.tree or equal to it, so the digest is computed once per
    density and kept on f, which is immutable."""
    tree = _own_tree(tree, f)
    if f._digest is not None:
        return f._digest
    label = "the value of {} at vertex {}"
    density = [
        f'"{v}":"{_numeral(x, label, "the density", v)}"'
        for v, x in zip(tree.vertices, f.index_values())
    ]
    edges = [
        '{"length":"%s","u":"%s","w":"%s"}' % (text, u, w)
        for u, w, text in _edges(tree)
    ]
    canonical = '{"density":{%s},"edges":[%s],"vertices":["%s"]}' % (
        ",".join(density), ",".join(edges), '","'.join(tree.vertices)
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
    that is not a vertex of f.tree. Each component's listed values are then
    checked once, in listed order, by `EdgeLinearDensity`'s own check,
    `density._support`: a listed id that is not a vertex of f.tree is a
    TreeMismatch, a negative value a NegativeValue. The support map it
    returns, on f.tree itself, is the component's rows; no density is
    built. Whether the components are unimodal and sum to f is not
    checked here, that is `check_decomposition`'s job.
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
        components.append(Component._from_rows(mode, tree, _support(index, values)))
    return Decomposition(tree, tuple(components))


def serialize_decomposition(d: Decomposition, provenance: Mapping[str, str]) -> str:
    """JSON text of `d`; each component lists its nonzero values only, read
    from its rows. The tree is not written: d lives on the instance that
    the provenance's `input_digest` names."""
    pad = "      "  # a component's "values" line
    vertices = d.refined_tree.vertices
    components = [
        _COMPONENT
        % (
            _escape(c.mode),
            _values_text(vertices, c.rows.items(), pad, f"component {i}"),
        )
        for i, c in enumerate(d.components)
    ]
    tool = [_escape(key) + ": " + _escape(text) for key, text in provenance.items()]
    return _DECOMPOSITION % (
        _block(components, "  ", "[]"),
        len(components),
        _block(tool, "  "),
    )


def serialize_sweep(result) -> str:
    """JSON text of a `SweepResult`: the swept density's tree, the origin,
    h and the remainder at every vertex, and the cuts."""
    vertices = result.h.tree.vertices
    label = "the position of the cut on edge {}-{}"
    cuts = [
        _CUT % (c.u, c.w, _numeral(c.t.as_integer_ratio(), label, c.u, c.w))
        for c in result.cuts
    ]
    return _SWEEP % (
        *_tree_sections(result.h.tree, "    "),
        _escape(result.origin),
        _values_text(vertices, enumerate(result.h.index_values()), "  ", "h"),
        _values_text(
            vertices, enumerate(result.remainder.index_values()), "  ", "the remainder"
        ),
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
