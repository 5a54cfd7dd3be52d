"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 failed check or internal
invariant, 2 parse or validation problem, 3 oracle bound exceeded.

Each command imports the modules it runs inside its `cmd_*` function;
only the document layer and the errors, which every command uses, are
imported here. `decompose`, `ucat` and `sweep` load the producer,
`greedy`, and `gen` loads `instances`. `check` loads `verify` and
`oracle` loads `oracle`, the two referees, and neither loads the other
or any producer code; `oracle` loads `interval` too, and `simplex` only
when `_fill` cannot answer a candidate.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import __version__
from .documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    render_dot,
    serialize_decomposition,
    serialize_instance,
    serialize_sweep,
)
from .errors import ExceedsKMax, InternalInvariantError, TreeUcatError
from .rational import shown

ORACLE_SIZE_GUIDANCE = 16


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as file:
        return file.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def cmd_decompose(args) -> int:
    from .greedy import decompose

    tree, f = parse_instance(_read(args.input))
    decomposition, trace = decompose(f)
    if args.trace:
        for event in trace:
            print(
                f"iteration {event.iteration}: mode {event.forced_vertex},"
                f" remaining mass {shown(event.remaining_mass)}",
                file=sys.stderr,
            )
    provenance = {
        "tool": f"treeucat {__version__}",
        "input_digest": instance_digest(tree, f),
    }
    text = serialize_decomposition(decomposition, provenance)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    if args.render:
        _write(args.render, render_dot(decomposition, f))
    return 0


def cmd_ucat(args) -> int:
    from .greedy import ucat

    _, f = parse_instance(_read(args.input))
    print(ucat(f))
    return 0


def cmd_check(args) -> int:
    from .verify import check_decomposition

    _, f = parse_instance(_read(args.instance))
    doc = parse_decomposition(_read(args.decomposition))
    report = check_decomposition(f, decomposition_from_document(doc, f))
    if report.sum_ok:
        print("sum: ok")
    else:
        for vertex, want, got in report.sum_mismatches:
            got = shown(got)  # a sum may be too long for `str`; f's values never are
            print(f"sum: MISMATCH at {vertex}: expected {want}, components give {got}")
    for check in report.components:
        if check.ok:
            print(f"component {check.index}: ok")
        else:
            print(f"component {check.index}: FAIL ({check.detail})")
    print(f"count: {report.count}")
    print(f"overall: {'ok' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def cmd_oracle(args) -> int:
    from .oracle import _check_k_max, _count_pieces, oracle_pieces

    _check_k_max(args.max_k)
    _, f = parse_instance(_read(args.input))
    paths, searched = oracle_pieces(f)
    largest = max((len(piece.vertices) for piece in searched), default=0)
    if largest > ORACLE_SIZE_GUIDANCE:
        print(
            f"warning: {largest} vertices in the largest reduced piece; the"
            " oracle enumerates mode sets on it and is meant for at most"
            f" {ORACLE_SIZE_GUIDANCE}",
            file=sys.stderr,
        )
    print(_count_pieces(paths, searched, args.max_k))
    return 0


def cmd_sweep(args) -> int:
    from .greedy import sweep

    _, f = parse_instance(_read(args.input))
    sys.stdout.write(serialize_sweep(sweep(f, args.vertex)))
    return 0


def cmd_gen(args) -> int:
    from .instances import gen_instance

    tree, f = gen_instance(args.seed, args.vertices, args.max_value)
    sys.stdout.write(serialize_instance(tree, f))
    return 0


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, set up on first use. `add_argument` makes
    one per argument only to check its metavar, which reads no state, but
    the set-up looks the terminal width up and so imports `shutil`, and
    with it zlib, bz2, lzma and fnmatch: a command that formats no help
    text now loads none of them."""

    def __init__(self, prog):
        self._pending = prog

    def __getattr__(self, name):  # reached only for state the set-up makes
        if "_pending" not in self.__dict__:
            raise AttributeError(name)
        super().__init__(self.__dict__.pop("_pending"))
        return getattr(self, name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeucat",
        description=(
            "Minimal unimodal decompositions of nonnegative edge-linear"
            " densities on finite metric trees."
        ),
        formatter_class=_HelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        prog=parser.prog,  # what argparse would format a usage line to find
        parser_class=partial(argparse.ArgumentParser, formatter_class=_HelpFormatter),
    )

    p = sub.add_parser("decompose", help="compute a minimal unimodal decomposition")
    p.add_argument("input", help="instance file, or - for stdin")
    p.add_argument("--output", help="write the decomposition document to this path")
    p.add_argument("--render", help="also write a DOT rendering to this path")
    p.add_argument("--trace", action="store_true", help="iteration log on stderr")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ucat", help="print the unimodal category")
    p.add_argument("input", help="instance file, or - for stdin")
    p.set_defaults(func=cmd_ucat)

    p = sub.add_parser("check", help="verify a decomposition against an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("decomposition", help="decomposition file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive minimality oracle (small inputs)")
    p.add_argument("input", help="instance file, or - for stdin")
    p.add_argument("--max-k", type=int, default=5, help="largest mode count to try")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="peel one unimodal component from a vertex")
    p.add_argument("input", help="instance file, or - for stdin")
    p.add_argument("--vertex", required=True, help="origin vertex id")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, default=8, help="maximum vertex count")
    p.add_argument("--max-value", type=int, default=4, help="largest vertex value")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExceedsKMax as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except InternalInvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    except (TreeUcatError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # python -m treeucat.cli
    run()
