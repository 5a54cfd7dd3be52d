"""The referees share no algorithmic code with the producer.

`check_decomposition`, `ucat_oracle` and `interval_ucat` are evidence that
`decompose` is right only because they do not run its machinery. These
tests read the referee modules' imports, and those of the test helpers
that build referee inputs, so that a shared import fails here instead of
passing unnoticed. The document layer, which the referees' inputs pass
through, is held to the same rule. In the other direction, the producer
modules import no referee or document code. A name imported from the
package counts as an import of the module that defines it. The last
test makes the separation a runtime fact: each CLI command, run in a
fresh interpreter, loads only its own side.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import treeucat
from treeucat.documents import serialize_instance

from helpers import star_instance

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treeucat"
REFEREES = ("verify.py", "interval.py", "simplex.py", "density.py", "documents.py")
PRODUCER = {"forced", "sweeping", "greedy"}
PRODUCER_FILES = ("greedy.py", "sweeping.py", "forced.py")
REFEREE_SIDE = {"verify", "interval", "simplex", "documents"}
ALLOWED = {"tree": {"MetricTree", "VertexId"}}
VALUE_TYPES = {"MetricTree", "EdgeLinearDensity"}


def _package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each import of a treeucat module in `path`; name
    is None when the module itself is imported."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "treeucat" and not module.startswith("treeucat."):
                    continue
                module = module.removeprefix("treeucat").removeprefix(".")
            for alias in node.names:
                if module:
                    found.append((module, alias.name))
                elif alias.name in treeucat._HOME:  # a public name
                    found.append((treeucat._HOME[alias.name], alias.name))
                else:  # `from . import x` imports module x
                    found.append((alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("treeucat."):
                    found.append((alias.name.removeprefix("treeucat."), None))
    return found


def test_referees_import_no_producer_code():
    for filename in REFEREES:
        for module, name in _package_imports(PACKAGE / filename):
            what = f"{filename} imports {name or module} from {module}"
            assert module.split(".")[0] not in PRODUCER, what
            if module in ALLOWED:
                assert name in ALLOWED[module], what


def test_producer_imports_no_referee_code():
    for filename in PRODUCER_FILES:
        for module, name in _package_imports(PACKAGE / filename):
            what = f"{filename} imports {name or module} from {module}"
            assert module.split(".")[0] not in REFEREE_SIDE, what


def test_reference_helpers_use_no_producer_state():
    # the reference peel checks the package's prune, so it may not route
    # through it, by import or by name
    helpers = Path(__file__).resolve().parent / "helpers.py"
    banned = {"sweep", "sweeping", "_sweep"}
    banned |= {"forced", "prune_insignificant", "find_forced_vertex", "_prune"}
    tree = ast.parse(helpers.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in banned, alias.name
            module = getattr(node, "module", None) or ""
            assert module.split(".")[-1] not in banned, module
        elif isinstance(node, ast.Attribute):
            assert node.attr not in banned, node.attr
        elif isinstance(node, ast.Name):
            assert node.id not in banned, node.id


def test_only_the_density_module_reads_its_storage():
    # the stored support map is private to `density.py`: every other module,
    # and the reference helpers, read a density through its public methods
    helpers = Path(__file__).resolve().parent / "helpers.py"
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "density.py"]
    for path in [*paths, helpers]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                what = f"{path.name} reads .{node.attr}"
                assert node.attr not in {"_values", "_support"}, what


def test_value_types_are_built_by_their_constructor_only():
    # a second, trusted way to build a tree or a density would skip its
    # checks: no module calls `__new__`, and neither class defines a
    # classmethod, the shape such a side door takes
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "__new__", f"{path.name}:{node.lineno} __new__"
            elif isinstance(node, ast.ClassDef) and node.name in VALUE_TYPES:
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                assert "classmethod" not in names, f"{path.name}: {node.name}"


def _modules_after(statements: str, cwd: Path) -> set[str]:
    """The modules loaded after a fresh interpreter runs `statements`.
    `-S` skips `site`, whose `.pth` files may import modules themselves and
    so hide an import the package makes."""
    src = str(PACKAGE.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); {statements};"
        " print(*sorted(sys.modules), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_each_command_loads_only_its_own_side(tmp_path):
    tree, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    (tmp_path / "in.json").write_text(serialize_instance(tree, f), encoding="utf-8")

    def command(*argv: str) -> set[str]:
        run = f"from treeucat.cli import main; assert main({list(argv)!r}) == 0"
        return _modules_after(run, tmp_path)

    def package(*names: str) -> set[str]:
        return {f"treeucat.{name}" for name in names}

    loaded = _modules_after("import treeucat", tmp_path)
    assert {m for m in loaded if m.startswith("treeucat.")} == set()
    assert {"fractions", "random"}.isdisjoint(loaded)

    loaded = command("decompose", "in.json", "--output", "d.json")
    assert package("greedy") <= loaded
    assert package("verify", "simplex", "interval", "instances").isdisjoint(loaded)

    producer = package("greedy", "forced", "sweeping", "instances")
    for argv in (("check", "in.json", "d.json"), ("oracle", "in.json")):
        loaded = command(*argv)
        assert package("verify") <= loaded, argv
        assert producer.isdisjoint(loaded), argv
