"""The benchmark's harness still runs on this package.

`perfbench/run.py` times `pipeline` and checks each answer with `judge`,
reading the package's documents, greedy loop, check and oracle by name
and field. This test imports the harness as it is, without writing to its
directory, and runs both on three instances of each workload, so that a
change in the package that breaks the harness fails here and not only in
a benchmark run. It also pins the seed-1 output digest each workload's
ledger gives, so that a change that moves an output fails here too, and
the set of `tracing.py` hooks that find no target, so that a rename in
the package cannot silently zero one more traced layer.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """`perfbench/run.py` as a module, and its `workloads` module; nothing
    is written under `perfbench/`, not even bytecode."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)  # its dataclasses look the module up
        yield run, sys.modules["workloads"]
    finally:
        sys.modules.pop("bench_run", None)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.mark.parametrize("workload", ["random-trees", "long-arm", "oracle-small"])
def test_the_harness_judges_every_answer_right(harness, workload):
    run, workloads = harness
    program = run.load_program()
    spec = workloads.WORKLOADS[workload]
    for inst in spec.corpus(1, 3):
        raw = run.pipeline(program, inst, run.no_span, spec.oracle)
        outcome = run.judge(raw, inst.expected_ucat)
        assert outcome.problem is None, (inst.name, outcome.problem)
        assert outcome.ucat == len(raw[2].components) > 0


# `Ledger.digest` over the seed-1 corpus: the sha256 of each instance's
# decomposition document (and, on oracle-small, the oracle's count), as a
# `--trace 0` run records it; oracle-small over its first 300 instances
PINNED_OUTPUTS = {
    "random-trees": (
        None,
        "sha256:07f8864b0da919a57b471521e1237d96550987b659644b0e598391514e67bcea",
    ),
    "long-arm": (
        None,
        "sha256:46207eaad52a20c5c744fb3153085754b492c6cdd98da71c63e07f670d8f9a30",
    ),
    "oracle-small": (
        300,
        "sha256:0a3174166a8a92ce796b0535d4ef4973b6e22dd6cfbde5c71d5a3a8d947c6330",
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED_OUTPUTS))
def test_the_seed_1_outputs_are_pinned(harness, workload):
    run, workloads = harness
    program = run.load_program()
    spec = workloads.WORKLOADS[workload]
    size, pinned = PINNED_OUTPUTS[workload]
    corpus = spec.corpus(1, size)
    ledger = run.Ledger()
    for inst in corpus:
        raw = run.pipeline(program, inst, run.no_span, spec.oracle)
        ledger.record(inst, run.judge(raw, inst.expected_ucat))
    assert ledger.failures == []
    assert ledger.digest(corpus) == pinned


# the hooks of `perfbench/tracing.py` whose targets are gone, so that their
# layers read 0; a rename in the package adds one here and fails this test
ABSENT_HOOKS = {
    "treeucat.documents.extend_to_refinement",
    "treeucat.greedy.extend_to_refinement",
    "treeucat.verify.extend_to_refinement",
    "treeucat.verify.is_unimodal",
    "treeucat.verify.feasible_with_modes",
    "treeucat.forced.is_unimodal",
    "treeucat.simplex.as_fraction",
    "treeucat.simplex.maximize",
    "treeucat.sweep.subdivide_all",
}


def test_the_tracing_hooks_find_their_targets(harness):
    run, _ = harness
    run.load_program()
    tracer = run.Tracer()
    try:
        tracer.install()
        assert set(tracer.absent) == ABSENT_HOOKS
    finally:
        tracer.uninstall()
