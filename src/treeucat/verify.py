"""Independent verification of validity: `check_decomposition`.

Nothing here reuses the greedy machinery. A decomposition is re-checked
from first principles, so producer and checker can only agree by being
right: its components must sum to f vertex by vertex, each must be
unimodal, and each recorded mode must carry its component's maximum.
The check reads the `(numerator, denominator)` pairs the components
store, sums them over running common denominators, and builds a
`Fraction` only for what it reports.

Minimality is the other referee's question, and `oracle` answers it.
This module does not import `oracle`, so `check` compiles no oracle
code. The one name forwarded from there is `ucat_oracle`, which the
benchmark harness (`perfbench/run.py`) still reads here: `__getattr__`
(PEP 562) loads `oracle` on its first read only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .density import EdgeLinearDensity, _peak
from .errors import InternalInvariantError, TreeMismatch
from .rational import shown
from .record import Decomposition, Record
from .tree import MetricTree

_ZERO = 0, 1  # the pair of a vertex a density does not list


class ComponentCheck(Record):
    """Whether component `index`, an int, passed, `ok`, and if not, why:
    `detail`, a string, empty when it passed."""

    __slots__ = ("index", "ok", "detail")


class CheckReport(Record):
    """What `check_decomposition` found: whether the components sum to f,
    `sum_ok`, and the vertices where they do not, `sum_mismatches`, a
    tuple of `(vertex, f's value, the components' sum)` with `Fraction`
    values; a `ComponentCheck` per component, `components`; the component
    count, `count`; and the verdict, `overall`."""

    __slots__ = ("sum_ok", "sum_mismatches", "components", "count", "overall")


def check_decomposition(f: EdgeLinearDensity, d: Decomposition) -> CheckReport:
    """Re-derive what a valid decomposition of f must satisfy and test it.

    A decomposition of f lives on f.tree: any other tree, a refinement of
    it included, is a TreeMismatch that names the first difference, and so
    is a component on a tree other than the decomposition's. Every
    component is read as its rows, the support map of its nonzero values,
    index -> integer `(numerator, denominator)` pair, whether it was built
    from rows or from a density, and is not copied: the sums, unimodality
    and the mode are all decided on them, over each support only, so a
    check whose components all pass costs O(n) plus, per component, its
    support and the edges leaving it.
    A component that rises is named by `_peak`'s first rising edge, found
    on the same rows; that adds the breadth-first prefix of the tree up to
    the edge. No density is built, whatever the components. Sums run over a
    running common denominator and are compared with f by
    cross-multiplying, and a `Fraction` is built only for a reported
    mismatch or a low mode.
    """
    tree = d.refined_tree
    if tree != f.tree:
        raise TreeMismatch(_first_difference(f.tree, tree))
    position, nbrs, vertices = tree.index, tree.nbrs, tree.vertices
    totals = {}  # vertex index -> (numerator, denominator) of its sum
    component_checks = []
    for index, component in enumerate(d.components):
        mode, home = component.mode, component.tree
        if home is not tree and home != tree:
            raise TreeMismatch(
                f"component with mode {mode!r} lives on a different tree"
            )
        pairs = component.rows
        for i, pair in pairs.items():
            totals[i] = _add(totals[i], pair) if i in totals else pair
        detail = ""
        if not pairs:
            detail = "component is identically zero"
        else:
            root, rise = _peak(nbrs, pairs)
            if rise is not None:
                u, w = vertices[rise[0]], vertices[rise[1]]
                detail = f"value rises along edge {u}-{w} away from the maximum"
            elif (at := position.get(mode)) is None:
                detail = f"recorded mode {mode} is not a tree vertex"
            elif pairs.get(at) != pairs[root]:
                detail = (
                    f"recorded mode {mode} carries"
                    f" {shown(Fraction(*pairs.get(at, _ZERO)))},"
                    f" maximum is {shown(Fraction(*pairs[root]))}"
                )
        component_checks.append(ComponentCheck(index, not detail, detail))
    target = dict(f.index_items())
    mismatches = []
    for i, v in enumerate(vertices):
        total, (p, q) = totals.get(i, _ZERO), target.get(i, _ZERO)
        if total != (p, q) and total[0] * q != p * total[1]:
            mismatches.append((v, Fraction(p, q), Fraction(*total)))

    sum_ok = not mismatches
    overall = sum_ok and all(c.ok for c in component_checks)
    checks, count = tuple(component_checks), len(d.components)
    return CheckReport(sum_ok, tuple(mismatches), checks, count, overall)


def _first_difference(tree: MetricTree, other: MetricTree) -> str:
    """The first difference of `other` from `tree`, which it does not
    equal: a vertex of `tree` it lacks, else one it adds, else the first
    edge of `tree`, in `edge_list` order, it lacks or gives another length."""
    for v in tree.vertices:
        if not other.has_vertex(v):
            return f"the decomposition's tree lacks instance vertex {v!r}"
    for v in other.vertices:
        if not tree.has_vertex(v):
            return f"the decomposition's tree adds vertex {v!r}"
    for u, w, length in tree.iter_edges():
        if not other.has_edge(u, w):
            return f"the decomposition's tree lacks instance edge {u!r}-{w!r}"
        if other.edge_length(u, w) != length:
            return (
                f"edge {u!r}-{w!r} has length {shown(other.edge_length(u, w))} in"
                f" the decomposition's tree, {shown(length)} in the instance"
            )
    raise InternalInvariantError("trees differ, yet no difference was found")


def _add(a, b):
    """The sum of two (numerator, denominator) pairs, over the lcm of the
    denominators."""
    (p, q), (r, s) = a, b
    if q == s:
        return p + r, q
    g = gcd(q, s)
    return p * (s // g) + r * (q // g), q // g * s


def __getattr__(name):
    if name != "ucat_oracle":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import ucat_oracle

    globals()[name] = ucat_oracle  # later reads cost a dict lookup
    return ucat_oracle
