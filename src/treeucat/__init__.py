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
ran before. This is why the sweep lives in `sweeping.py`.
"""

__version__ = "0.1.0"

_HOME = {
    "EdgeLinearDensity": "density",
    "ModeWitness": "density",
    "NotUnimodal": "density",
    "is_unimodal": "density",
    "support_is_empty": "density",
    "Forced": "forced",
    "PruneReport": "forced",
    "Unimodal": "forced",
    "find_forced_vertex": "forced",
    "prune_insignificant": "forced",
    "Component": "record",
    "Decomposition": "record",
    "TraceEvent": "greedy",
    "decompose": "greedy",
    "ucat": "greedy",
    "gen_instance": "instances",
    "interval_ucat": "interval",
    "Cut": "sweeping",
    "SweepResult": "sweeping",
    "sweep": "sweeping",
    "MetricTree": "tree",
    "VertexId": "tree",
    "CheckReport": "verify",
    "ComponentCheck": "verify",
    "FeasibilityCertificate": "verify",
    "check_decomposition": "verify",
    "feasible_avoiding_vertex": "verify",
    "feasible_with_modes": "verify",
    "ucat_oracle": "verify",
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
