"""The referees share no algorithmic code with the producer.

`check_decomposition`, `ucat_oracle` and `interval_ucat` are evidence that
`decompose` is right only because they do not run its machinery. These
tests read the referee modules' imports, and those of the test helpers
that build referee inputs, so that a shared import fails here instead of
passing unnoticed. The document layer, which the referees' inputs pass
through, is held to the same rule. In the other direction, the producer
modules import no referee or document code. A name imported from the
package counts as an import of the module that defines it. The two
referees of a decomposition, `verify`'s check and `oracle`'s minimality
search, are kept apart as well. The last tests make the separation a
runtime fact: each CLI command, run in a fresh interpreter, loads only
its own side, and `check` no oracle code.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import treeucat
from treeucat.documents import serialize_instance
from treeucat.instances import gen_instance

from helpers import star_instance

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treeucat"
REFEREES = (
    "verify.py",
    "oracle.py",
    "interval.py",
    "simplex.py",
    "density.py",
    "documents.py",
)
PRODUCER = {"greedy"}
PRODUCER_FILES = ("greedy.py",)
REFEREE_SIDE = {"verify", "oracle", "interval", "simplex", "documents"}
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


def test_the_oracle_imports_nothing_from_the_check():
    # the two referees are independent of each other too: `verify` reaches
    # the oracle only through its lazy forward (tested below)
    for module, name in _package_imports(PACKAGE / "oracle.py"):
        assert module != "verify", f"oracle.py imports {name or module} from verify"


def test_producer_imports_no_referee_code():
    for filename in PRODUCER_FILES:
        for module, name in _package_imports(PACKAGE / filename):
            what = f"{filename} imports {name or module} from {module}"
            assert module.split(".")[0] not in REFEREE_SIDE, what


def test_reference_helpers_use_no_producer_state():
    # the reference peel checks the package's prune, so it may not route
    # through it, by import or by name
    helpers = Path(__file__).resolve().parent / "helpers.py"
    banned = {"greedy", "sweep", "sweeping", "_sweep"}
    banned |= {"forced", "prune_insignificant", "find_forced_vertex", "_prune", "Peel"}
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


def _raised_texts(source: str) -> list[str]:
    """The string constants, f-string parts included, of each exception
    that `source` raises."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    found.append(part.value)
    return found


def test_listed_values_are_checked_by_the_density_module_only():
    # one check of listed values: binding a decomposition runs the density
    # constructor's own, so no other module restates its messages
    sample = 'raise TreeMismatch(f"density value for {v!r}, not a tree vertex")'
    assert _raised_texts(sample) == ["density value for ", ", not a tree vertex"]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "density.py":
            for text in _raised_texts(path.read_text(encoding="utf-8")):
                assert not text.startswith("density value"), f"{path.name}: {text}"


# the functions of `math` that take and give integers only; every other
# one computes in floats
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def _float_uses(source: str) -> list[tuple[str | None, str]]:
    """(top-level function or class, what) for each place in `source` that
    may compute in floats: a float or complex literal, a `/` or `/=`, a
    mention of `float`, or a `math` function outside `INTEGER_MATH`."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Constant):
                if isinstance(node.value, (float, complex)):
                    found.append((name, repr(node.value)))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                if isinstance(node.op, ast.Div):
                    found.append((name, "/"))
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append((name, "float"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    if alias.name not in INTEGER_MATH:
                        found.append((name, f"math.{alias.name}"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "math" and node.attr not in INTEGER_MATH:
                    found.append((name, f"math.{node.attr}"))
    return found


def test_no_floats_anywhere():
    # exact arithmetic throughout: the one mention of `float` in the
    # package is the refusal of one in `rational.as_fraction`
    sample = (
        "from math import gcd, sqrt\n"
        "x = 1.5\n"
        "def f(a, b):\n"
        "    a /= 2\n"
        "    return float(a / b) + math.log(2) + math.lcm(a, b) + a // b\n"
    )
    assert _float_uses(sample) == [
        (None, "math.sqrt"),
        (None, "1.5"),
        ("f", "/"),
        ("f", "float"),
        ("f", "/"),
        ("f", "math.log"),
    ]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, what in _float_uses(path.read_text(encoding="utf-8")):
            found.append((path.name, name, what))
    assert found == [("rational.py", "as_fraction", "float")]


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


def _field_binding_inits(source: str) -> list[str]:
    """The `Record` subclasses in `source` whose `__init__` takes no
    default and only stores each parameter into the slot of its name,
    through `object.__setattr__`: the work `Record.__init__` does."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Record" not in {b.id for b in node.bases if isinstance(b, ast.Name)}:
            continue
        for init in node.body:
            if not isinstance(init, ast.FunctionDef) or init.name != "__init__":
                continue
            arguments = init.args
            if arguments.defaults or any(arguments.kw_defaults):
                continue
            params = [a.arg for a in arguments.args[1:] + arguments.kwonlyargs]
            stores = {f"object.__setattr__(self, {p!r}, {p})" for p in params}
            body = {ast.unparse(statement) for statement in init.body}
            if params and body == stores:
                found.append(node.name)
    return found


def test_plain_records_are_built_by_the_record_constructor():
    # a record whose fields are its slots takes `Record.__init__`; only one
    # that stores a field in another form, or gives one a default, writes
    # its own
    sample = (
        "class Pair(Record):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', b)\n"
    )
    assert _field_binding_inits(sample) == ["Pair"]
    assert _field_binding_inits(sample.replace("b):", "b=0):")) == []
    for path in sorted(PACKAGE.glob("*.py")):
        found = _field_binding_inits(path.read_text(encoding="utf-8"))
        assert found == [], f"{path.name}: {found}"


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

    # building the parser formats no help, so it looks up no terminal width
    # and loads no `shutil`, nor the compression modules `shutil` imports;
    # only a command that computes a digest, `decompose` or `check`, loads
    # `hashlib`, and with it OpenSSL
    width_lookup = {"shutil", "zlib", "bz2", "lzma", "fnmatch"}
    loaded = command("decompose", "in.json", "--output", "d.json")
    assert package("greedy") <= loaded
    assert "hashlib" in loaded
    unused = package("verify", "oracle", "simplex", "interval", "instances")
    assert unused.isdisjoint(loaded)
    assert width_lookup.isdisjoint(loaded)

    # `ucat` and `sweep` run the producer, and `gen` only the generator;
    # none of them loads a referee
    producer = package("greedy", "instances")
    referees = package("verify", "oracle", "simplex", "interval")
    producing = {
        ("ucat", "in.json"): package("greedy"),
        ("sweep", "in.json", "--vertex", "c"): package("greedy"),
        ("gen", "--seed", "1"): package("instances"),
    }
    for argv, loads in producing.items():
        loaded = command(*argv)
        assert loaded & producer == loads, argv
        assert referees.isdisjoint(loaded), argv
        assert width_lookup.isdisjoint(loaded), argv
        assert "hashlib" not in loaded, argv

    # the star's core is its three rising leaves, which `_fill` answers
    # with no LP; the search on gen_instance(0, 7, 9) meets a feasible set
    # that `_fill` cannot build, so only there is `simplex` loaded
    tree, f = gen_instance(0, 7, 9)
    (tmp_path / "lp.json").write_text(serialize_instance(tree, f), encoding="utf-8")
    # `check` and `oracle` each load their own referee and not the other's
    solvers = {
        ("check", "in.json", "d.json"): package("verify"),
        ("oracle", "in.json"): package("oracle", "interval"),
        ("oracle", "lp.json"): package("oracle", "interval", "simplex"),
    }
    for argv, loads in solvers.items():
        loaded = command(*argv)
        assert producer.isdisjoint(loaded), argv
        assert loaded & referees == loads, argv
        assert width_lookup.isdisjoint(loaded), argv
        assert ("hashlib" in loaded) == (argv[0] == "check"), argv


def test_the_check_module_forwards_only_the_oracle_entry_point(tmp_path):
    # `treeucat.verify.ucat_oracle` stays readable, but importing `verify`
    # compiles no oracle code; the name loads `oracle` on its first read
    loaded = _modules_after("import treeucat.verify", tmp_path)
    assert "treeucat.verify" in loaded
    assert "treeucat.oracle" not in loaded
    from treeucat import oracle, verify

    assert verify.ucat_oracle is oracle.ucat_oracle is treeucat.ucat_oracle
    assert vars(verify)["ucat_oracle"] is oracle.ucat_oracle
    assert not hasattr(verify, "feasible_with_modes")
