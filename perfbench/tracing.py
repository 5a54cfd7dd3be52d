"""Spans and counts around calls into treeucat, recorded from outside.

Nothing under `src/` is changed: hooks replace public functions through the
module attributes their callers look up at call time, and are put back by
`uninstall`. A hook whose target no longer exists is reported as absent and
its layer reads 0; it never stops the run.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

# (module, attribute path, span name); the module is the one whose callers
# look the attribute up, e.g. `decompose` finds `sweep` in treeucat.greedy
SPAN_HOOKS = (
    ("treeucat.greedy", "find_forced_vertex", "forced"),
    ("treeucat.greedy", "sweep", "sweep"),
    ("treeucat.sweep", "subdivide_all", "tree.subdivide"),
    ("treeucat.tree", "MetricTree.__init__", "tree.build"),
    ("treeucat.tree", "MetricTree.root_at", "tree.root_at"),
    ("treeucat.density", "EdgeLinearDensity.__init__", "density.build"),
    ("treeucat.greedy", "extend_to_refinement", "density.extend"),
    ("treeucat.verify", "extend_to_refinement", "density.extend"),
    ("treeucat.documents", "extend_to_refinement", "density.extend"),
    ("treeucat.forced", "is_unimodal", "density.is_unimodal"),
    ("treeucat.verify", "is_unimodal", "density.is_unimodal"),
    ("treeucat.verify", "feasible_with_modes", "verify.feasible"),
    ("treeucat.simplex", "maximize", "simplex.maximize"),
)

# called too often for a span each: counted only
COUNT_HOOKS = tuple(
    (module, "as_fraction", "rational.conversions")
    for module in (
        "treeucat.tree",
        "treeucat.density",
        "treeucat.documents",
        "treeucat.interval",
        "treeucat.simplex",
    )
)


def _sweep_cuts(tracer, result) -> None:
    tracer.count("sweep.cuts", len(getattr(result, "subdivisions", ())))


def _lp_infeasible(tracer, result) -> None:
    if getattr(result, "status", None) == "infeasible":
        tracer.count("simplex.infeasible")


RESULT_COUNTERS = {"sweep": _sweep_cuts, "simplex.maximize": _lp_infeasible}


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, instance]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.instance: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _open(self, name: str) -> None:
        stack = self._stack
        record = [name, 0, 0, stack[-1] if stack else -1, self.instance]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()

    def _close(self) -> None:
        end = perf_counter_ns()
        self.spans[self._stack.pop()][2] = end

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- hooks -------------------------------------------------------------

    def install(self, span_hooks=SPAN_HOOKS, count_hooks=COUNT_HOOKS) -> None:
        self.absent = []
        for module, path, name in span_hooks:
            self._hook(module, path, name, self._spanned)
        for module, path, name in count_hooks:
            self._hook(module, path, name, self._counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _hook(self, module: str, path: str, name: str, make_wrapper) -> None:
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{path}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original, name))

    def _spanned(self, fn, name: str):
        on_result = RESULT_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, inclusive ns, self ns).

        Self time is a span's duration minus the durations of its direct
        children, which never overlap one another.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[i]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
