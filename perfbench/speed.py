"""Rescaling measured times to one fixed machine speed.

The two-core machine this benchmark was built on changes speed by up to
1.75x over tens of seconds (it shares its cores with other tenants), and
the change is the same factor for every pure-Python task. So a fixed
reference task that runs none of treeucat's code is timed between samples
throughout a run, and each sample is scaled by REFERENCE_S over the
reference task's local time (the mean of the probes just before and after
it). Over 180 s there, the medians of raw times of three treeucat
workloads moved 17-18% between 10-s windows (interquartile range over
median); rescaled ones moved 2-4%. The benchmark also keeps itself and its
child processes on one CPU, so that probes and samples see the same core.

A rescaled time is in seconds at the speed where the reference task takes
REFERENCE_S; on a machine of a different kind the two units differ by a
constant factor, which both sides of a comparison share.
"""

from __future__ import annotations

import bisect
import json
import statistics
from fractions import Fraction
from time import perf_counter

# a round figure within the reference task's range of times on the machine
# above (x86-64, two cores, CPython 3.11.7): 7.5 ms to 19 ms, median 11 ms
REFERENCE_S = 0.01
PROBE_EVERY_S = 0.1


def reference_task():
    """Exact-rational, dict, sort and JSON work of the kinds treeucat does,
    written without any of its code."""
    values = {}
    total = Fraction(0)
    for i in range(1, 700):
        f = Fraction(i % 97, i % 13 + 1)
        values[f"v{i}"] = f
        total = (total + f * 3) % 7 if f > total else total - f / 5
    names = sorted(values, key=values.get)[:240]
    h = {names[0]: values[names[0]]}
    for u, w in zip(names, names[1:]):
        drop = values[u] - values[w]
        h[w] = h[u] if drop <= 0 else max(h[u] - drop, Fraction(0))
    doc = json.dumps({v: [str(values[v]), str(h[v])] for v in names}, indent=2)
    return sum((Fraction(b) for _, b in json.loads(doc).values()), total)


class Speed:
    """Probes of the reference task over a run: (start time, seconds)."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> float:
        start = perf_counter()
        reference_task()
        seconds = perf_counter() - start
        self.starts.append(start)
        self.seconds.append(seconds)
        return seconds

    def tick(self) -> None:
        """Probe if the last probe is PROBE_EVERY_S old; call before a sample."""
        if not self.starts or perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor_at(self, t: float) -> float:
        """REFERENCE_S over the mean of the probes just before and after t."""
        i = bisect.bisect(self.starts, t)
        window = self.seconds[max(0, i - 1) : i + 1]
        return REFERENCE_S * len(window) / sum(window)

    def rescale(self, samples: list[tuple[float, float]]) -> list[float]:
        """(start, seconds) samples to seconds at the reference speed; the
        run must end with a probe, so that every sample is bracketed."""
        return [seconds * self.factor_at(start) for start, seconds in samples]

    def measure(self, fn, probes: int = 3):
        """Call fn() -> (seconds, value) with `probes` probes on each side;
        returns (the seconds at the reference speed, by the median probe,
        and the value). For samples too few for one probe's own noise to
        average out."""
        around = [self.probe() for _ in range(probes)]
        seconds, value = fn()
        around += [self.probe() for _ in range(probes)]
        return seconds * REFERENCE_S / statistics.median(around), value

    def run_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.seconds)
