"""Shared plumbing: statistics, host facts, memory, per-unit bookkeeping."""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import random
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb(workers_mb: float = 0.0, probe_mb: float = 0.0) -> dict:
    """Peak resident memory of this process, less ``probe_mb`` of the
    benchmark's own, and ``workers_mb`` of its largest worker process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe_mb
    return {"process_mb": own, "largest_worker_mb": workers_mb, "total_mb": own + workers_mb}


def children_peak_rss_mb() -> float:
    """The largest peak resident memory (``VmHWM``) of this process's live children.

    Read while they run: a child's own usage statistics, once waited
    for, also count the pages it shared with this process between fork
    and exec.
    """
    parent, largest = os.getpid(), 0.0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                if int(stat.read().rsplit(")", 1)[1].split()[1]) != parent:
                    continue
            with open(f"/proc/{entry}/status", encoding="ascii", errors="replace") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        largest = max(largest, int(line.split()[1]) / 1024.0)
        except (OSError, ValueError, IndexError):
            continue
    return largest


def current_rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def source_digest() -> str:
    """SHA-256 over the program's source tree (identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """The git commit of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def host_facts() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


@dataclass
class Unit:
    """One unit of work: a recommendation, a programme or a query."""

    index: int
    traced: bool
    start: float = 0.0
    end: float = 0.0
    latency_ms: float = 0.0
    ok: bool = True
    state_before: dict = field(default_factory=dict)
    state_after: dict = field(default_factory=dict)


def state_delta(units: list[Unit]) -> dict:
    """Summed state deltas over ``units`` (keys present in every snapshot)."""
    total: dict[str, float] = {}
    for unit in units:
        for key, after in unit.state_after.items():
            total[key] = total.get(key, 0.0) + after - unit.state_before.get(key, 0.0)
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Item:
    __slots__ = ("weight", "label")

    def __init__(self, weight: float, label: str):
        self.weight, self.label = weight, label


class HostSpeed:
    """Measures how fast the host runs a fixed piece of work, between units.

    A shared host's speed drifts: the same work takes up to about 1.7
    times as long for seconds to minutes at a time, with no change to
    the program.  A sample walks ``SLICE`` objects of a list of
    ``ITEMS`` small objects laid out in shuffled order, reading two
    attributes of each, as the program walks its records; the walk moves
    on through the list from sample to sample, so each sample reads
    memory the caches do not hold.  It calls no program code and the
    collector is off while it runs, so no change to the program changes
    its cost.  After each unit of work and each set-up the runner takes
    samples until they add up to ``SHARE`` of its time, so they are
    spread over the run as the work is.

    ``factor(start, end)`` is the median of the samples taken within
    ``WINDOW`` seconds of that stretch of time, over ``REFERENCE_MS``:
    how many times slower than the reference speed the host ran then.
    A time divided by it is that time at the reference speed.
    ``factor()`` is the same over the whole run.
    """

    ITEMS = 100_000
    SLICE = 4_000
    SHARE = 0.05
    WINDOW = 0.5
    #: One sample's time at the reference speed, about its median on a
    #: 2.1 GHz Xeon vCPU under CPython 3.11 in the host's faster state.
    REFERENCE_MS = 1.0

    def __init__(self):
        self.times: list[float] = []
        self.samples_ms: list[float] = []
        before = current_rss_mb()
        items = [_Item(i * 0.5, str(i)) for i in range(self.ITEMS)]
        random.Random(5).shuffle(items)
        self._items = items
        self._next = 0
        #: Resident memory the walked objects take, which the runner has
        #: ``peak_rss_mb`` leave out.
        self.rss_mb = current_rss_mb() - before

    def sample(self) -> float:
        items, first = self._items, self._next
        self._next = (first + self.SLICE) % (self.ITEMS - self.SLICE)
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0.0
            for index in range(first, first + self.SLICE):
                item = items[index]
                total += item.weight + len(item.label)
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(end)
        self.samples_ms.append((end - start) * 1000.0)
        return (end - start) * 1000.0

    def after(self, seconds: float) -> None:
        """Take samples worth ``SHARE`` of ``seconds`` (at least one)."""
        budget = seconds * 1000.0 * self.SHARE
        spent = self.sample()
        while spent < budget:
            spent += self.sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Host slowness over ``[start, end]`` (the whole run without them)."""
        samples = self.samples_ms
        if start is not None and end is not None:
            low = bisect.bisect_left(self.times, start - self.WINDOW)
            high = bisect.bisect_right(self.times, end + self.WINDOW)
            samples = samples[low:high] or samples
        return median(samples) / self.REFERENCE_MS if samples else 1.0
