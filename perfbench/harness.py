"""Run loop, measurement and result shape shared by the workloads.

A run repeats rounds until --seconds have passed. A round sets up fresh
program state, which is timed as one `setup_s` sample, then runs a fixed
count of operations on it and tears it down. State that piles up in the
program (finished instances, logs) is therefore the same in every round,
however fast the program is, and every run attempts whole rounds.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time

MAX_PROBLEMS = 20


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles with n=100 places it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Recorder:
    """What one run measured and what its checks found."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.latencies_ms: list[float] = []
        self.busy_s = 0.0  # wall time of the timed phase, set-up and checks left out
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.setup_rss_mb: float | None = None
        self.peak_rss_mb: float | None = None  # by the end of the first round
        self.rounds = 0
        self.op_id = 0  # the operation running now; 0 during set-up
        self.ops_begun = 0
        self.problems: list[str] = []
        self.layer: dict[str, list[float]] = {}  # generator-side per-layer samples, traced runs only

    def check(self, ok: bool, message) -> None:
        if not ok and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message() if callable(message) else str(message))

    def check_all(self, problems: list[str]) -> None:
        for p in problems:
            self.check(False, p)

    def begin_op(self) -> None:
        self.ops_begun += 1
        self.op_id = self.ops_begun

    def sample(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)

    def setup_done(self, started: float) -> None:
        self.setup_s.append(time.perf_counter() - started)
        if self.setup_rss_mb is None:
            self.setup_rss_mb = rss_mb()

    def end_to_end(self) -> dict[str, dict]:
        lat = self.latencies_ms
        return {
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "setup_rss_mb": {"value": self.setup_rss_mb, "unit": "MB"},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": self.completed / self.busy_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "op_p90_ms": {"value": quantile(lat, 90), "unit": "ms"},
        }


def run_rounds(round_fn, seconds: float, min_rounds: int, rec: Recorder) -> None:
    """Call round_fn(rec, index) until `seconds` have passed and at least
    min_rounds have run. Garbage from one round is collected before the next
    starts, outside every timed region. Peak RSS is taken when the first
    round ends: every round holds the same state, and what later rounds
    leak would make the peak grow with the number of rounds, that is with
    the program's speed."""
    started = time.perf_counter()
    while rec.rounds < min_rounds or time.perf_counter() - started < seconds:
        rec.op_id = 0
        round_fn(rec, rec.rounds)
        rec.rounds += 1
        if rec.peak_rss_mb is None:
            rec.peak_rss_mb = peak_rss_mb()
        gc.collect()
