"""The package namespace: `import treeucat` runs no module, and each public
name resolves on first use to the object its defining module holds."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import treeucat

PACKAGE = Path(treeucat.__file__).resolve().parent

# every name the package exported when it imported all its modules, by
# the module that defines it
EXPORTED = {
    "density": [
        "EdgeLinearDensity",
        "ModeWitness",
        "NotUnimodal",
        "is_unimodal",
        "support_is_empty",
    ],
    "greedy": [
        "Forced",
        "PruneReport",
        "Unimodal",
        "find_forced_vertex",
        "prune_insignificant",
        "Cut",
        "SweepResult",
        "sweep",
        "TraceEvent",
        "decompose",
        "ucat",
    ],
    "record": ["Component", "Decomposition"],
    "instances": ["gen_instance"],
    "interval": ["interval_ucat"],
    "tree": ["MetricTree", "VertexId"],
    "verify": ["CheckReport", "ComponentCheck", "check_decomposition"],
    "oracle": [
        "FeasibilityCertificate",
        "feasible_avoiding_vertex",
        "feasible_with_modes",
        "ucat_oracle",
    ],
}
PUBLIC = {name for names in EXPORTED.values() for name in names}


def test_each_public_name_is_its_modules_object():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"treeucat.{module}")
        for name in names:
            assert getattr(treeucat, name) is getattr(home, name), name
    assert treeucat.Decomposition is importlib.import_module("treeucat.greedy").Decomposition
    assert treeucat.__version__ == "0.1.0"


def test_all_dir_and_star_import_agree():
    assert sorted(treeucat.__all__) == sorted(PUBLIC)
    assert PUBLIC <= set(dir(treeucat))
    namespace: dict = {}
    exec("from treeucat import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'treeucat' has no attribute 'nope'$"):
        treeucat.nope
    assert not hasattr(treeucat, "nope")
    with pytest.raises(ImportError):
        exec("from treeucat import nope", {})


def test_modules_still_import_from_the_package():
    from treeucat import documents, simplex, verify

    assert documents.__name__ == "treeucat.documents"
    assert simplex.__name__ == "treeucat.simplex"
    assert verify.__name__ == "treeucat.verify"


def test_no_module_has_a_public_name():
    # importing a module binds it on the package under its own name, where
    # it would shadow the public name
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules.isdisjoint(treeucat.__all__)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("treeucat.sweep")


def test_sweep_is_the_function_after_its_module_is_imported():
    src = str(PACKAGE.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r});"
        " import treeucat.greedy;"
        " from treeucat import sweep;"
        " print(type(sweep).__name__, sweep.__module__, sweep.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "function treeucat.greedy sweep\n"
