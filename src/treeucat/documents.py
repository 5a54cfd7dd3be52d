"""Document formats: instances and decompositions as JSON-syntax text.

All numbers travel as strings ("3", "1/3", "0.25") and convert exactly to
rationals, so files round-trip without any loss. Instance files may only
use user ids; decomposition files may also contain synthetic `_s<N>`
subdivision vertices, as a decomposition on a refinement does. A
decomposition names the instance it was
made for by the digest of that instance, and `decomposition_from_document`
binds it to an instance only when the digests match.

Hostile input ends in `DocumentError`, in bounded time: nesting too deep
for the JSON parser is reported, not raised as `RecursionError`, and a
numeral may have at most `MAX_NUMERAL_CHARS` characters and a decimal
exponent of at most `MAX_DECIMAL_EXPONENT` in absolute value, so that
"1e10000000" cannot ask for a 33-million-bit integer.

Each parse converts a numeral string once: numerals equal as strings share
one `Fraction` within a document, and nothing is kept between documents.
The writer emits exactly the text of `json.dumps(payload, indent=2)`.
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

from .density import EdgeLinearDensity, extend_to_refinement
from .errors import DocumentError, TreeMismatch
from .greedy import Component, Decomposition
from .rational import as_fraction
from .record import Record
from .sweep import SweepResult
from .tree import _USER_ID, MetricTree, VertexId, is_valid_vertex_id

MAX_NUMERAL_CHARS = 10_000
MAX_DECIMAL_EXPONENT = 1_000
# the exponent's digits after leading zeros; underscores group digits
_EXPONENT = re.compile(r"[eE][-+]?[0_]*([0-9_]*)")


class DecompositionDocument(Record):
    __slots__ = ("tree", "components", "ucat", "provenance")

    def __init__(
        self,
        tree: MetricTree,
        components: tuple[Component, ...],
        ucat: int,
        provenance: Mapping[str, str],
    ):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "ucat", ucat)
        object.__setattr__(self, "provenance", provenance)


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


def _number(raw, numerals: dict[str, Fraction], label: str, a, b) -> Fraction:
    """The value of the numeral `raw`, checked once per distinct string.

    `numerals` maps each numeral this document has already read to its
    value; only a numeral that passed every check enters it, so a repeat
    of a bad one fails at its first position, with the same message. An
    error message names the numeral `label.format(a, b)`, formatted only
    when the numeral fails.
    """
    if not isinstance(raw, str):
        raise DocumentError(
            f"{label.format(a, b)}: numbers must be exact strings like \"3\","
            f" \"1/3\" or \"0.25\", got {reprlib.repr(raw)}"
        )
    value = numerals.get(raw)
    if value is not None:
        return value
    if len(raw) > MAX_NUMERAL_CHARS:
        raise DocumentError(
            f"{label.format(a, b)}: numeral has {len(raw)} characters, at most"
            f" {MAX_NUMERAL_CHARS} are allowed"
        )
    exponent = _EXPONENT.search(raw)
    if exponent is not None:
        digits = exponent[1].replace("_", "")
        too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
        if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise DocumentError(
                f"{label.format(a, b)}: decimal exponent of {reprlib.repr(raw)}"
                f" exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
            )
    try:
        value = as_fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        shown = reprlib.repr(raw)
        raise DocumentError(
            f"{label.format(a, b)}: not an exact number: {shown}"
        ) from None
    numerals[raw] = value
    return value


def _parse_tree_sections(
    data, what: str, numerals: dict[str, Fraction], allow_synthetic: bool
) -> MetricTree:
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise DocumentError(f"{what}: vertices must be a list of id strings")
    for v in vertices:
        if not isinstance(v, str):
            raise DocumentError(f"{what}: vertex id {v!r} is not a string")
        ok = is_valid_vertex_id(v) if allow_synthetic else _USER_ID.match(v)
        if not ok:
            raise DocumentError(
                f"{what}: invalid vertex id {v!r} (ids match"
                " [A-Za-z0-9][A-Za-z0-9_-]* and cannot start with '_')"
            )
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError(f"{what}: edges must be a list")
    edges = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or set(entry) != {"u", "w", "length"}:
            raise DocumentError(
                f"{what}: edge {i} must be an object with keys u, w, length"
            )
        for end in ("u", "w"):
            if not isinstance(entry[end], str):
                raise DocumentError(
                    f"{what}: edge {i} endpoint {reprlib.repr(entry[end])}"
                    " is not a string"
                )
        length = _number(entry["length"], numerals, "{}: edge {} length", what, i)
        edges.append((entry["u"], entry["w"], length))
    return MetricTree(vertices, edges)


def _values_map(raw, what: str, numerals: dict[str, Fraction]) -> dict:
    if not isinstance(raw, dict):
        raise DocumentError(f"{what} must map vertex ids to value strings")
    return {v: _number(x, numerals, "{}[{}]", what, v) for v, x in raw.items()}


def parse_instance(text: str) -> tuple[MetricTree, EdgeLinearDensity]:
    """Parse an instance document; tree and density errors propagate.

    An instance's density must list every vertex: unlike a decomposition's
    components, an absent vertex here is an error, not a 0. The listed
    values are validated first, by the density's constructor.
    """
    data = _load_json(text)
    _check_sections(data, {"vertices", "edges", "density"}, "instance")
    numerals: dict[str, Fraction] = {}
    tree = _parse_tree_sections(data, "instance", numerals, allow_synthetic=False)
    values = _values_map(data["density"], "density", numerals)
    f = EdgeLinearDensity(tree, values)
    for v in tree.vertices:
        if v not in values:
            raise TreeMismatch(f"no density value for vertex {v!r}")
    return tree, f


def _numeral(value: Fraction, label: str, a, b=None) -> str:
    """`str(value)`; a value too long for Python to write is a DocumentError,
    whose message names the value `label.format(a, b)`."""
    try:
        return str(value)
    except ValueError:  # an integer past the interpreter's digit limit
        raise DocumentError(
            f"cannot write {label.format(a, b)}: its numerator or denominator"
            f" has more than {sys.get_int_max_str_digits():,} digits, the output"
            " limit"
        ) from None


def _dumps(doc) -> str:
    """`json.dumps(doc, indent=2) + "\\n"`, for dicts, lists, strs and ints.

    With `indent`, `json.dumps` on CPython 3.11 leaves its C encoder for
    pure-Python generators; this writer makes the same text with one call
    per value, and escapes every string, keys included, with the C escaper
    `json.dumps` itself uses (`ensure_ascii=True`).
    """
    return _encode(doc, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    if isinstance(obj, str):
        return _escape(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_escape(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(obj) is int:
        return repr(obj)
    raise TypeError(f"cannot write a {type(obj).__name__} into a document")


def _values_payload(f: EdgeLinearDensity, vertices, what: str) -> dict:
    return {
        v: _numeral(f.value(v), "the value of {} at vertex {}", what, v)
        for v in vertices
    }


def _tree_payload(tree: MetricTree) -> dict:
    return {
        "vertices": list(tree.vertices),
        "edges": [
            {
                "u": u,
                "w": w,
                "length": _numeral(length, "the length of edge {}-{}", u, w),
            }
            for u, w, length in tree.edge_list
        ],
    }


def _instance_payload(tree: MetricTree, f: EdgeLinearDensity) -> dict:
    return {
        **_tree_payload(tree),
        "density": _values_payload(f, tree.vertices, "the density"),
    }


def serialize_instance(tree: MetricTree, f: EdgeLinearDensity) -> str:
    return _dumps(_instance_payload(tree, f))


def instance_digest(tree: MetricTree, f: EdgeLinearDensity) -> str:
    """Digest of the canonical serialization; independent of formatting."""
    canonical = json.dumps(
        _instance_payload(tree, f), sort_keys=True, separators=(",", ":")
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_decomposition(text: str) -> DecompositionDocument:
    data = _load_json(text)
    _check_sections(
        data, {"tree", "components", "ucat", "provenance"}, "decomposition"
    )
    _check_sections(data["tree"], {"vertices", "edges"}, "tree")
    numerals: dict[str, Fraction] = {}
    tree = _parse_tree_sections(data["tree"], "tree", numerals, allow_synthetic=True)

    raw_components = data["components"]
    if not isinstance(raw_components, list):
        raise DocumentError("components must be a list")
    components = []
    for i, entry in enumerate(raw_components):
        if not isinstance(entry, dict) or set(entry) != {"mode", "values"}:
            raise DocumentError(
                f"component {i} must be an object with keys mode, values"
            )
        mode = entry["mode"]
        if not isinstance(mode, str) or not tree.has_vertex(mode):
            raise DocumentError(
                f"component {i}: mode {reprlib.repr(mode)} is not a tree vertex"
            )
        values = _values_map(entry["values"], f"component {i} values", numerals)
        components.append(Component(mode, EdgeLinearDensity(tree, values)))

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

    return DecompositionDocument(tree, tuple(components), count, dict(provenance))


def decomposition_from_document(
    doc: DecompositionDocument, f: EdgeLinearDensity
) -> Decomposition:
    """Bind a parsed decomposition to the instance it claims to decompose.

    A document whose `input_digest` is not f's is refused; the components
    are not checked here, that is `check_decomposition`'s job.
    """
    expected = instance_digest(f.tree, f)
    if doc.provenance["input_digest"] != expected:
        raise DocumentError(
            "decomposition was produced for a different instance"
            f" (digest {doc.provenance['input_digest']}, instance has {expected})"
        )
    return Decomposition(doc.tree, doc.components)


def serialize_decomposition(d: Decomposition, provenance: Mapping[str, str]) -> str:
    """JSON text of `d`; each component lists its nonzero values only."""
    doc = {
        "tree": _tree_payload(d.refined_tree),
        "components": [
            {
                "mode": c.mode,
                "values": _values_payload(
                    c.density, c.density.support, f"component {i}"
                ),
            }
            for i, c in enumerate(d.components)
        ],
        "ucat": len(d.components),
        "provenance": dict(provenance),
    }
    return _dumps(doc)


def serialize_sweep(result: SweepResult) -> str:
    tree = result.h.tree
    doc = {
        "tree": _tree_payload(tree),
        "origin": result.origin,
        "h": _values_payload(result.h, tree.vertices, "h"),
        "remainder": _values_payload(result.remainder, tree.vertices, "the remainder"),
        "subdivisions": [
            {
                "vertex": s.vertex,
                "u": s.u,
                "w": s.w,
                "t": _numeral(s.t, "the position of cut {}", s.vertex),
            }
            for s in result.subdivisions
        ],
    }
    return _dumps(doc)


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
    """DOT rendering of a decomposition of f: vertices labelled with f
    lifted onto the refined tree, one color per component's support,
    modes doubled.

    A vertex in several supports takes the color of the earliest component,
    matching the greedy peel order.
    """
    lifted = extend_to_refinement(f, d.refined_tree)
    color: dict[VertexId, str] = {}
    for i, component in enumerate(d.components):
        shade = _PALETTE[i % len(_PALETTE)]
        for v in component.density.support:
            color.setdefault(v, shade)
    modes = {c.mode for c in d.components}
    lines = ["graph decomposition {", "  node [style=filled, fillcolor=white];"]
    for v in d.refined_tree.vertices:
        attrs = [f'label="{v}\\nf={lifted.value(v)}"']
        if v in color:
            attrs.append(f'fillcolor="{color[v]}"')
        if v in modes:
            attrs.append("shape=doublecircle")
        lines.append(f'  "{v}" [{", ".join(attrs)}];')
    for u, w, length in d.refined_tree.edge_list:
        lines.append(f'  "{u}" -- "{w}" [label="{length}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
