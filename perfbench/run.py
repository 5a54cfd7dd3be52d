"""Benchmark of treeucat's decompose -> check pipeline and its LP oracle.

Run from the repository root (stdlib only, nothing to install):

    python3 perfbench/run.py --workload random-trees --seed 1 --seconds 30 --trace 0

The workloads are defined in `workloads.py`. One run generates the seeded
corpus, times the in-process operation on every instance, times the CLI on
the leading instances in fresh interpreters, and checks every answer. Every
time is rescaled to a fixed machine speed by `speed.py`, because the
machine's own speed drifts far more than the bounds allow. With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it prints the
per-layer metrics of a traced run (`tracing.py`), measured against untraced
runs of the same instances, and then the figures of the layers that run on
this kind of workload only. Each metric is printed as `name = value unit`;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A full report, and in
traced runs the spans, is written under `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import Speed
from tracing import Tracer
from workloads import WORKLOADS, corpus_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

MIN_SAMPLES = 100  # timed runs, instances x passes, so ten lie beyond p90
SETUP_REPEATS = 11
CLI_TIMEOUT_S = 120
CLI = "from treeucat.cli import run; run()"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import treeucat;"
    " print(time.perf_counter() - t)"
)

END_TO_END = {
    "pipeline_s_p50": "s",
    "pipeline_s_p90": "s",
    "throughput_vps": "vertices/s",
    "cli_s_p50": "s",
    "doc_bytes": "bytes",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# per-layer metric -> (span name, what to take); values are per traced
# instance, except the cli.* medians and the ratios
SPAN_METRICS = {
    "forced.prune_s": ("forced", "time"),
    "forced.calls": ("forced", "calls"),
    "sweep.sweep_s": ("sweep", "time"),
    "sweep.self_s": ("sweep", "self"),
    "greedy.decompose_s": ("greedy", "time"),
    # decompose's own lift loop; its final extend_to_refinement is a child
    # span and counts under density.extend_s
    "greedy.self_s": ("greedy", "self"),
    "tree.trees_built": ("tree.build", "calls"),
    "tree.build_s": ("tree.build", "time"),
    "tree.subdivide_s": ("tree.subdivide", "time"),
    "tree.root_at_calls": ("tree.root_at", "calls"),
    "tree.root_at_s": ("tree.root_at", "time"),
    "density.densities_built": ("density.build", "calls"),
    "density.build_s": ("density.build", "time"),
    "density.extend_s": ("density.extend", "time"),
    "density.is_unimodal_s": ("density.is_unimodal", "time"),
    "documents.parse_instance_s": ("documents.parse_instance", "time"),
    "documents.digest_s": ("documents.digest", "time"),
    "documents.serialize_s": ("documents.serialize", "time"),
    "documents.parse_decomposition_s": ("documents.parse_decomposition", "time"),
    "verify.check_s": ("verify.check", "time"),
    "verify.oracle_s": ("verify.oracle", "time"),
    "verify.candidates": ("verify.feasible", "calls"),
    "simplex.maximize_s": ("simplex.maximize", "time"),
    "simplex.solves": ("simplex.maximize", "calls"),
}
COUNT_METRICS = (
    "sweep.cuts",
    "greedy.iterations",
    "greedy.refined_n",
    "rational.conversions",
    "simplex.infeasible",
)
CLI_METRICS = (
    "cli.startup_s",
    "cli.command_s",
    "cli.decompose_s",
    "cli.check_s",
    "cli.oracle_s",
)
LAYER_UNITS = {
    **{
        name: "count" if kind == "calls" else "s"
        for name, (_, kind) in SPAN_METRICS.items()
    },
    **{name: "count" for name in COUNT_METRICS},
    "verify.lp_share": "ratio",
    **{name: "s" for name in CLI_METRICS},
    "trace_slowdown": "ratio",
}
# layers that run on one kind of workload only: the LP oracle and its
# command on oracle-small, the decompose and check commands on the others.
# They are printed and reported there, but are not in the result line,
# whose per-layer metrics run, and read above 0, on every workload.
WORKLOAD_LAYERS = {
    True: (
        "verify.oracle_s",
        "verify.candidates",
        "verify.lp_share",
        "simplex.maximize_s",
        "simplex.solves",
        "simplex.infeasible",
        "cli.oracle_s",
    ),
    False: ("cli.decompose_s", "cli.check_s"),
}
PER_LAYER = {
    name: unit
    for name, unit in LAYER_UNITS.items()
    if not any(name in names for names in WORKLOAD_LAYERS.values())
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


_NULL_CONTEXT = contextlib.nullcontext()


def no_span(name):
    return _NULL_CONTEXT


def load_program() -> SimpleNamespace:
    """Import treeucat from this checkout's `src`, never from elsewhere."""
    package = SRC / "treeucat"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no treeucat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    treeucat = importlib.import_module("treeucat")
    if Path(treeucat.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported treeucat from {treeucat.__file__}, not {package}")
    modules = {
        name: importlib.import_module(f"treeucat.{name}")
        for name in ("documents", "greedy", "interval", "verify")
    }
    return SimpleNamespace(tool=f"treeucat {treeucat.__version__}", **modules)


def program_env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


# -- the timed operations -----------------------------------------------------


def pipeline(p, inst, span, oracle: bool):
    """parse -> [ucat_oracle(f, n) ->] decompose -> digest + serialize ->
    parse back -> check; the oracle step runs on oracle-small only."""
    documents = p.documents
    with span("documents.parse_instance"):
        tree, f = documents.parse_instance(inst.text)
    k = None
    if oracle:
        with span("verify.oracle"):
            k = p.verify.ucat_oracle(f, len(tree.vertices))
    with span("greedy"):
        decomposition, trace = p.greedy.decompose(f)
    with span("documents.digest"):
        digest = documents.instance_digest(tree, f)
    with span("documents.serialize"):
        text = documents.serialize_decomposition(
            decomposition, {"tool": p.tool, "input_digest": digest}
        )
    with span("documents.parse_decomposition"):
        doc = documents.parse_decomposition(text)
        bound = documents.decomposition_from_document(doc, f)
    with span("verify.check"):
        report = p.verify.check_decomposition(f, bound)
    return k, digest, decomposition, trace, text, doc, report


@dataclass
class Outcome:
    document: str  # the decomposition document
    output: str  # what the output digest covers for this instance
    ucat: int
    iterations: int
    refined_n: int
    problem: str | None  # why the answer is wrong; None when it is right


def judge(raw, referee: int | None) -> Outcome:
    """Check one answer (untimed). The referee is the workload's expected
    ucat, or on oracle-small the oracle's own answer."""
    k, digest, decomposition, trace, text, doc, report = raw
    ucat = len(decomposition.components)
    problem = None
    if not report.overall:
        problem = "check_decomposition rejects the re-parsed document"
    elif doc.ucat != ucat or doc.provenance["input_digest"] != digest:
        problem = "re-parsed document disagrees with the decomposition"
    elif k is not None and ucat != k:
        problem = f"decompose gives {ucat}, ucat_oracle {k}"
    elif referee is not None and ucat != referee:
        problem = f"ucat {ucat}, referee says {referee}"
    output = text if k is None else f"{text}oracle {k}\n"
    refined = len(decomposition.refined_tree.vertices)
    return Outcome(text, output, ucat, len(trace), refined, problem)


def referees(p, corpus, ledger) -> dict:
    """Expected ucat per instance where the workload has an answer key.

    On long-arm the construction says 3, and `interval_ucat` must say so
    too, or the instance counts as failed.
    """
    expected = {}
    for inst in corpus:
        if inst.path_values is not None:
            ledger.attempted += 1
            by_interval = p.interval.interval_ucat(inst.path_values)
            if by_interval != inst.expected_ucat:
                why = f"interval_ucat {by_interval}, expected {inst.expected_ucat}"
                ledger.fail(inst.name, why)
            expected[inst.name] = inst.expected_ucat
    return expected


# -- measurement ----------------------------------------------------------------


class Ledger:
    """Attempts, failures, and each instance's first output as its sha256
    and document size only, so that peak RSS stays the program's own."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, tuple[str, int]] = {}  # name -> (sha256, doc bytes)
        self.ucat: dict[str, int] = {}

    def fail(self, name: str, why: str) -> None:
        self.failures.append(f"{name}: {why}")

    def record(self, inst, outcome: Outcome) -> None:
        sha = hashlib.sha256(outcome.output.encode()).hexdigest()
        first = self.outputs.setdefault(
            inst.name, (sha, len(outcome.document.encode()))
        )
        self.ucat.setdefault(inst.name, outcome.ucat)
        if outcome.problem is not None:
            self.fail(inst.name, outcome.problem)
        elif first[0] != sha:
            self.fail(inst.name, "output differs from an earlier run of it")

    def digest(self, corpus) -> str:
        h = hashlib.sha256()
        for inst in corpus:
            sha = self.outputs.get(inst.name, ("",))[0]
            h.update(f"{inst.name}\0{sha}\0".encode())
        return "sha256:" + h.hexdigest()

    def doc_bytes(self) -> int:
        return sum(size for _, size in self.outputs.values())


def run_one(p, oracle, inst, span, ledger, referee, speed, samples):
    """Time one operation and check its answer; a sample (start, seconds)
    is added only when the operation ran. Returns the outcome or None."""
    ledger.attempted += 1
    speed.tick()
    start = perf_counter()
    try:
        raw = pipeline(p, inst, span, oracle)
        elapsed = perf_counter() - start
        outcome = judge(raw, referee)
    except Exception as exc:  # a failed instance must not stop the run
        ledger.fail(inst.name, f"{type(exc).__name__}: {exc}")
        return None
    samples.append((start, elapsed))
    ledger.record(inst, outcome)
    return outcome


def warm_up(p, oracle, inst) -> None:
    """One untimed, unrecorded run, so the first timed sample is not the
    first call."""
    run_one(p, oracle, inst, no_span, Ledger(), None, Speed(), [])
    gc.collect()


def pass_count(workload, seconds: float, corpus_size: int) -> int:
    """In-process passes over the corpus: the workload's count per 30 s of
    --seconds, and at least MIN_SAMPLES samples. The count never depends on
    how fast the machine is."""
    per_seconds = round(workload.passes * seconds / 30)
    return max(per_seconds, math.ceil(MIN_SAMPLES / corpus_size))


def measure_untraced(
    p, workload, corpus, expected, passes, ledger, speed, cli_subset, time_cli
):
    """All passes over the corpus, with the CLI instances timed one at a
    time at even intervals between the samples, so that the CLI figures,
    like the in-process ones, span the whole run's drift in machine state
    rather than a few seconds of it. CLI instance k runs after sample
    (k + 1) * total / len(cli_subset), when its in-process answer exists."""
    samples: list[tuple[float, float]] = []
    total = passes * len(corpus)
    done = timed_cli = 0
    warm_up(p, workload.oracle, corpus[0])
    for _ in range(passes):
        for inst in corpus:
            run_one(
                p, workload.oracle, inst, no_span, ledger, expected.get(inst.name),
                speed, samples,
            )
            done += 1
            while (
                timed_cli < len(cli_subset)
                and done * len(cli_subset) >= (timed_cli + 1) * total
            ):
                time_cli(cli_subset[timed_cli])
                timed_cli += 1
        gc.collect()
    return samples


def measure_traced(p, workload, subset, expected, ledger, traced_ledger, speed):
    """Each instance runs once untraced and once traced, in alternating order."""
    tracer = Tracer()
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []

    def traced_run(inst):
        tracer.instance = inst.name
        tracer.install()
        try:
            with tracer.span("pipeline"):
                outcome = run_one(
                    p, workload.oracle, inst, tracer.span, traced_ledger,
                    expected.get(inst.name), speed, traced,
                )
        finally:
            tracer.uninstall()
        if outcome is not None:
            tracer.count("greedy.iterations", outcome.iterations)
            tracer.count("greedy.refined_n", outcome.refined_n)

    def plain_run(inst):
        run_one(
            p, workload.oracle, inst, no_span, ledger, expected.get(inst.name),
            speed, plain,
        )

    warm_up(p, workload.oracle, subset[0])
    for i, inst in enumerate(subset):
        for run in (plain_run, traced_run) if i % 2 == 0 else (traced_run, plain_run):
            run(inst)
    return tracer, plain, traced


def cli(args, env):
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return perf_counter() - start, proc


def cli_timer(workload, workdir, env, ledger, speed):
    """Commands a user runs on one instance file, each in a fresh
    interpreter, one at a time; their answers must match the in-process
    ones in `ledger`. Returns (samples, time_instance): time_instance(inst)
    runs one instance's commands and adds (start, seconds) samples per
    command and, per instance, the commands' sum under "total" and their
    mean under "command"."""
    samples: dict[str, list[tuple[float, float]]] = {
        kind: [] for kind in ("total", "command", "decompose", "check", "oracle")
    }

    def attempt(inst, args, accept):
        ledger.attempted += 1
        speed.tick()
        start = perf_counter()
        try:
            elapsed, proc = cli(args, env)
        except subprocess.TimeoutExpired:
            ledger.fail(inst.name, f"CLI {args[0]} timed out")
            return None
        if proc.returncode != 0:
            why = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        else:
            why = accept(proc)
        if why is not None:
            ledger.fail(inst.name, f"CLI {args[0]}: {why}")
            return None
        samples[args[0]].append((start, elapsed))
        return start, elapsed

    def time_instance(inst):
        path = str(workdir / f"{inst.name}.json")
        if workload.oracle:
            want = str(ledger.ucat.get(inst.name))
            done = attempt(
                inst,
                ["oracle", path, "--max-k", str(inst.n)],
                lambda proc: None if proc.stdout.strip() == want
                else f"printed {proc.stdout.strip()!r}, expected {want}",
            )
            if done:
                samples["total"].append(done)
                samples["command"].append(done)
            return
        out = workdir / f"{inst.name}.decomposition.json"
        out.unlink(missing_ok=True)
        # without the oracle, an instance's output is its document
        want = ledger.outputs.get(inst.name, ("",))[0]
        first = attempt(
            inst,
            ["decompose", path, "--output", str(out)],
            lambda proc: None
            if hashlib.sha256(out.read_bytes()).hexdigest() == want
            else "document differs from the in-process one",
        )
        second = first and attempt(
            inst,
            ["check", path, str(out)],
            lambda proc: None if proc.stdout.rstrip().endswith("overall: ok")
            else f"check says {proc.stdout.strip()[-200:]!r}",
        )
        if second:
            # both commands rescaled at the first one's time
            samples["total"].append((first[0], first[1] + second[1]))
            samples["command"].append((first[0], (first[1] + second[1]) / 2))

    return samples, time_instance


def measure_startup(env, repeats, ledger, speed) -> list[tuple[float, float]]:
    """`treeucat --version`: interpreter start plus the package import."""
    samples = []
    for _ in range(repeats):
        ledger.attempted += 1
        speed.tick()
        start = perf_counter()
        elapsed, proc = cli(["--version"], env)
        if proc.returncode != 0 or not proc.stdout.startswith("treeucat"):
            ledger.fail("--version", f"exit {proc.returncode}")
        else:
            samples.append((start, elapsed))
    return samples


def set_up(workload, seed, workdir, env, corpus_size, n):
    """One set-up: a fresh interpreter imports treeucat, then the corpus is
    generated and the instance files the CLI reads are written. Returns
    (seconds, corpus)."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        check=True,
    )
    start = perf_counter()
    corpus = workload.corpus(seed, corpus_size, n)
    for inst in corpus[: workload.cli_size]:
        (workdir / f"{inst.name}.json").write_text(inst.text, encoding="utf-8")
    return float(probe.stdout) + perf_counter() - start, corpus


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(tracer, speed, plain, traced, cli_samples, startup) -> dict:
    """Every figure of LAYER_UNITS; span and count figures are per traced
    instance run, span times rescaled by the run's median speed factor."""
    per = max(len(traced), 1)
    scale = speed.run_factor() / 1e9 / per
    totals = tracer.totals()
    metrics = {}
    for name, (span, kind) in SPAN_METRICS.items():
        calls, inclusive_ns, self_ns = totals.get(span, (0, 0, 0))
        if kind == "calls":
            metrics[name] = calls / per
        else:
            metrics[name] = (inclusive_ns if kind == "time" else self_ns) * scale
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0) / per
    candidates = totals.get("verify.feasible", (0,))[0]
    solves = totals.get("simplex.maximize", (0,))[0]
    metrics["verify.lp_share"] = solves / candidates if candidates else 0.0
    metrics["cli.startup_s"] = _median(speed.rescale(startup))
    for kind in ("command", "decompose", "check", "oracle"):
        metrics[f"cli.{kind}_s"] = _median(speed.rescale(cli_samples[kind]))
    untraced_p50 = _median(speed.rescale(plain))
    traced_p50 = _median(speed.rescale(traced))
    metrics["trace_slowdown"] = traced_p50 / untraced_p50 if untraced_p50 else 0.0
    return metrics


def baseline_match(workload, seed, corpus, output_digest) -> tuple[bool | None, str]:
    """Whether the output digest equals the one recorded in baseline.json
    for this workload and seed (None where nothing comparable is recorded),
    and a note that says so."""
    try:
        data = json.loads(BASELINE.read_text(encoding="utf-8"))
        entry = data["workloads"][workload.name]
    except (OSError, ValueError, KeyError):
        return None, "no baseline for this workload"
    if entry.get("n") != corpus[0].n or entry.get("corpus_size") != len(corpus):
        return None, "baseline was recorded at other sizes"
    recorded = entry.get("output_digests", {}).get(str(seed))
    if recorded is None:
        return None, f"baseline has no seed {seed}"
    if recorded == output_digest:
        return True, "matches baseline"
    return False, "DIFFERS from baseline"


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path = OUT,
    corpus_size: int | None = None,
    n: int | None = None,
) -> dict:
    """One run; returns the report (also written to `out_dir`)."""
    workload = WORKLOADS[workload_name]
    p = load_program()
    env = program_env()
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=out_dir))
    try:
        speed = Speed()
        setups = []
        for _ in range(SETUP_REPEATS):
            corpus = None  # each set-up starts from the same heap
            gc.collect()
            elapsed, corpus = speed.measure(
                lambda: set_up(workload, seed, workdir, env, corpus_size, n)
            )
            setups.append(elapsed)
        cli_subset = corpus[: workload.cli_size]
        ledger = Ledger()
        expected = referees(p, corpus, ledger)
        passes = pass_count(workload, seconds, len(corpus))
        report = {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "n": corpus[0].n,
            "corpus_size": len(corpus),
            "corpus_digest": corpus_digest(corpus),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        if trace:
            subset = corpus[: workload.trace_size]
            traced_ledger = Ledger()
            tracer, plain, traced = measure_traced(
                p, workload, subset, expected, ledger, traced_ledger, speed
            )
            cli_samples, time_cli = cli_timer(workload, workdir, env, ledger, speed)
            for inst in cli_subset:
                time_cli(inst)
            startup = measure_startup(env, len(cli_subset), ledger, speed)
            speed.probe()
            figures = layer_metrics(tracer, speed, plain, traced, cli_samples, startup)
            metrics = {name: figures[name] for name in PER_LAYER}
            units = LAYER_UNITS
            plain_digest = ledger.digest(subset)
            traced_digest = traced_ledger.digest(subset)
            if plain_digest != traced_digest:
                ledger.fail("*", "traced outputs differ from untraced outputs")
            ledger.attempted += traced_ledger.attempted
            ledger.failures += traced_ledger.failures
            spans_file = out_dir / f"{workload_name}-seed{seed}-spans.jsonl"
            tracer.write(spans_file)
            samples = len(traced)
            report.update(
                output_digest=plain_digest,
                traced_output_digest=traced_digest,
                workload_layers={
                    name: figures[name] for name in WORKLOAD_LAYERS[workload.oracle]
                },
                absent_hooks=sorted(set(tracer.absent)),
                spans_file=str(spans_file),
                spans=len(tracer.spans),
            )
        else:
            cli_samples, time_cli = cli_timer(workload, workdir, env, ledger, speed)
            timed = measure_untraced(
                p, workload, corpus, expected, passes, ledger, speed, cli_subset, time_cli
            )
            speed.probe()
            times = speed.rescale(timed)
            samples = len(times)
            output_digest = ledger.digest(corpus)
            metrics = {
                "pipeline_s_p50": _median(times),
                "pipeline_s_p90": _p90(times),
                "throughput_vps": corpus[0].n * len(times) / sum(times) if times else 0.0,
                "cli_s_p50": _median(speed.rescale(cli_samples["total"])),
                "doc_bytes": ledger.doc_bytes(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": _median(setups),
            }
            units = END_TO_END
            match, note = baseline_match(workload, seed, corpus, output_digest)
            report.update(output_digest=output_digest, baseline_match=match, baseline=note)
        report.update(
            samples=samples,
            passes=1 if trace else passes,
            speed_factor=speed.run_factor(),
            attempted=ledger.attempted,
            failed=len(ledger.failures),
            failures=ledger.failures[:20],
            units=units,
            metrics=metrics,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return report


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU, so that
    the speed probes and the samples they rescale see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    pin_to_one_cpu()
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print_report(report)
    return 0


def print_report(report: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload {report['workload']}, seed {report['seed']}, n = {report['n']},"
          f" {report['corpus_size']} instances, {report['samples']} samples"
          f" in {report['passes']} passes")
    print(f"corpus digest {report['corpus_digest']}")
    print(f"output digest {report['output_digest']}", end="")
    if "baseline" in report:
        print(f" ({report['baseline']})")
        if report["baseline_match"] is False:
            print(
                f"perfbench: {report['workload']} seed {report['seed']}: the output"
                " digest differs from the one in perfbench/baseline.json",
                file=sys.stderr,
            )
    else:
        same = report["output_digest"] == report["traced_output_digest"]
        print(f" (traced outputs {'identical' if same else 'DIFFER'})")
        for hook in report["absent_hooks"]:
            print(f"absent layer hook: {hook} (its layer reads 0)")
    for line in report["failures"]:
        print(f"failure: {line}")
    units = report["units"]
    for name, value in report["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in report.get("workload_layers", {}).items():
        print(f"{name} = {value:.6g} {units[name]} (this kind of workload only)")
    print(f"fail_ratio = {report['failed'] / max(report['attempted'], 1):.6g}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()
                },
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
