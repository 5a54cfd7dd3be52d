"""Minimal unimodal decompositions of edge-linear densities on metric trees.

Importing the package loads none of its modules. Each public name is
looked up in `_HOME`, which names the module that defines it, and the
module is imported on the name's first use (PEP 562); the name is then
kept in the package's namespace, so later reads cost a dict lookup. A
program that uses only the referees never loads the producer, and the
other way round: `Component` and `Decomposition` come from `record`, not
from `greedy`.

No module may have the name of a public name. Importing a submodule
binds it as an attribute of the package, so once any code had imported a
module `treeucat.sweep`, `from treeucat import sweep` would give that
module and not the function, and which one it gave would depend on what
ran before. This is why no module is named `sweep`: the sweep lives in
`greedy.py`, with the rest of the producer.
"""

__version__ = "0.1.0"

_HOME = {
    "EdgeLinearDensity": "density",
    "ModeWitness": "density",
    "NotUnimodal": "density",
    "is_unimodal": "density",
    "support_is_empty": "density",
    "Forced": "greedy",
    "PruneReport": "greedy",
    "Unimodal": "greedy",
    "find_forced_vertex": "greedy",
    "prune_insignificant": "greedy",
    "Cut": "greedy",
    "SweepResult": "greedy",
    "sweep": "greedy",
    "TraceEvent": "greedy",
    "decompose": "greedy",
    "ucat": "greedy",
    "Component": "record",
    "Decomposition": "record",
    "gen_instance": "instances",
    "interval_ucat": "interval",
    "MetricTree": "tree",
    "VertexId": "tree",
    "CheckReport": "verify",
    "ComponentCheck": "verify",
    "check_decomposition": "verify",
    "FeasibilityCertificate": "oracle",
    "feasible_avoiding_vertex": "oracle",
    "feasible_with_modes": "oracle",
    "ucat_oracle": "oracle",
}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
