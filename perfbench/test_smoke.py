"""Smoke tests for the benchmark itself, at toy sizes.

Not part of the repository's test suite; run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, corpus_digest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_N = {"random-trees": 12, "long-arm": 25, "oracle-small": 5}
# instances per toy corpus: enough that every layer runs (on n = 5 integer
# trees a sweep seldom cuts, so subdivision needs dozens of them)
TOY_SIZE = {"random-trees": 4, "long-arm": 4, "oracle-small": 40}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    for w in WORKLOADS.values():
        assert w.cli_size <= w.trace_size <= w.corpus_size


def test_same_seed_gives_the_same_corpus_in_another_process():
    for name, n in TOY_N.items():
        here = corpus_digest(WORKLOADS[name].corpus(7, 3, n))
        assert here == corpus_digest(WORKLOADS[name].corpus(7, 3, n))
        assert here != corpus_digest(WORKLOADS[name].corpus(8, 3, n))
        code = (
            "from workloads import WORKLOADS, corpus_digest;"
            f" print(corpus_digest(WORKLOADS[{name!r}].corpus(7, 3, {n})))"
        )
        other = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert other.stdout.strip() == here


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_tracing_changes_no_output(workload, tmp_path):
    size, n = TOY_SIZE[workload], TOY_N[workload]
    plain = run.run_benchmark(workload, 3, 1, False, tmp_path, size, n)
    traced = run.run_benchmark(workload, 3, 1, True, tmp_path, size, n)

    failures = plain["failures"] + traced["failures"]
    assert plain["failed"] == 0 and traced["failed"] == 0, failures
    assert plain["samples"] >= run.MIN_SAMPLES
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, value in {**plain["metrics"], **traced["metrics"],
                        **traced["workload_layers"]}.items():
        assert math.isfinite(value) and value > 0, name
    assert plain["baseline_match"] is None  # toy sizes are not in the baseline
    assert traced["absent_hooks"] == []
    assert plain["output_digest"] == traced["output_digest"]
    assert traced["output_digest"] == traced["traced_output_digest"]
    spans = (tmp_path / f"{workload}-seed3-spans.jsonl").read_text().splitlines()
    assert len(spans) == traced["spans"] > 0

    run.print_report(plain)


def test_result_line_has_the_contract_keys(capsys, tmp_path):
    report = run.run_benchmark("oracle-small", 1, 1, False, tmp_path, 3, 4)
    run.print_report(report)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    for name, unit in run.END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit


def test_missing_hook_target_reads_as_absent():
    tracer = Tracer()
    tracer.install(
        span_hooks=[("treeucat.greedy", "no_such_function", "forced")], count_hooks=()
    )
    tracer.uninstall()
    assert tracer.absent == ["treeucat.greedy.no_such_function"]
    assert tracer.totals() == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-arm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
