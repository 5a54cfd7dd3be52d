"""Run the benchmark over several seeds and summarise, or record a baseline.

From the repository root:

    python3 perfbench/baseline.py           # seeds 1-10, every workload
    python3 perfbench/baseline.py --write   # also rewrite baseline.json

Each run is `run.py` in its own process, one at a time, with the
`run_seconds` of BENCHMARK.json, on every workload of BENCHMARK.json and
seeds 1 to 10, then one traced run per workload. For every end-to-end
metric the summary gives the median over seeds and the spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median, next to the metric's regression bound, and flags
a spread above a third of the bound. It also flags every run whose output
digest differs from the one recorded in `perfbench/baseline.json`. `--write`
replaces that file with the summary, each seed's output digest and the
traced runs' per-layer metrics; `run.py` compares output digests with it.
The exit status is 1 when a run failed a check or a spread is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORTS = ROOT / ".perfbench-out"
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run.py process; returns (its JSON result line, its report, wall s)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = REPORTS / f"{workload}-seed{seed}-trace{trace}.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return result, report, wall


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite baseline.json")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    all_ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests = {}
        differ = []
        walls = []
        failed = 0
        report = {}
        for seed in SEEDS:
            result, report, wall = run(workload, seed, seconds, 0)
            walls.append(wall)
            failed += result["failed"] + (not result["correct"])
            digests[str(seed)] = report["output_digest"]
            if report["baseline_match"] is not True:
                differ.append(f"{seed} ({report['baseline']})")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, failed {result['failed']}",
                  file=sys.stderr, flush=True)
        traced, traced_report, traced_wall = run(workload, SEEDS[0], seconds, 1)
        failed += traced["failed"] + (not traced["correct"])
        walls.append(traced_wall)
        all_ok &= failed == 0

        print(f"\n{workload}: {len(SEEDS)} seeds, wall per run median"
              f" {statistics.median(walls):.1f} s, max {max(walls):.1f} s,"
              f" failures {failed}")
        if differ:
            print(f"  output digest not equal to baseline.json's for seeds"
                  f" {', '.join(differ)}  <-- output changed or not recorded")
        metrics = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s > bound / 3:
                flag = "  <-- above a third of the bound"
                all_ok = False
            print(f"  {name:16s} median {median:<14.6g} spread {s:.4f}"
                  f" (bound {bound}){flag}")
            metrics[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": s,
                "values": vals,
            }
        summary[workload] = {
            "n": report["n"],
            "corpus_size": report["corpus_size"],
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "seeds": SEEDS,
            "end_to_end": metrics,
            "per_layer": {
                "seed": SEEDS[0],
                "metrics": traced["metrics"],
                "workload_layers": traced_report["workload_layers"],
                "traced_output_digest": traced_report["traced_output_digest"],
            },
            "output_digests": digests,
            "run_wall_s": walls,
        }

    if args.write:
        baseline = {
            "about": "treeucat src/ as of git commit e39d7c7; medians over seeds",
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "load": "one benchmark process at a time, pinned to one CPU",
            "run_seconds": seconds,
            "metrics": {
                "end_to_end": spec["end_to_end"],
                "per_layer": spec["per_layer"],
            },
            "workloads": summary,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                            encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
