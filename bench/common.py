"""Helpers shared by the workloads: the checkout, statistics, the result."""

from __future__ import annotations

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
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
TMP_ROOT = ROOT / ".bench_tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def use_checkout_source() -> None:
    """Import gridwatch from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "gridwatch" / "__init__.py").is_file():
        raise BenchError(f"no gridwatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridwatch

    if Path(gridwatch.__file__).resolve().parent != (SRC / "gridwatch").resolve():
        raise BenchError(f"gridwatch imported from {gridwatch.__file__}, not {SRC}")


def scratch_dir(tag: str) -> Path:
    """A fresh directory inside the checkout; the caller removes it."""
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*.dat"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "seed": seed,
    }


# -- statistics -----------------------------------------------------------------


def tail_percentile(n: int) -> int | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    None below forty samples, where no percentile is a tail.
    """
    if n < 40:
        return None
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(name: str, samples_ms: list[float]) -> dict[str, float]:
    """``<name>_p50`` plus the tail percentile the sample supports."""
    if not samples_ms:
        return {}
    out = {f"{name}_p50": statistics.median(samples_ms)}
    p = tail_percentile(len(samples_ms))
    if p is not None:
        out[f"{name}_p{p}"] = percentile(samples_ms, p)
    return out


# -- machine speed ------------------------------------------------------------

# The reference loop's usual time on the machine the benchmark was built on
# (a 2-core shared host, Python 3.11); the scaled figures are for a machine
# that runs it this fast.
PROBE_NOMINAL_S = 0.0007
PROBE_REPEATS = 3


def _reference_work() -> None:
    """A fixed piece of stdlib Python: dict updates, string formatting and
    parsing. It makes no object the cyclic collector tracks, so it never
    starts a collection of the program's heap."""
    totals: dict[str, float] = {}
    for i in range(500):
        key = f"h{i % 97}.s{i % 13}"
        totals[key] = totals.get(key, 0.0) + i * 0.5
        line = f"x={i * 0.5:.3f}|y={i * 1.5:.3f}"
        totals[key] += float(line[2:line.index("|")])


class SpeedProbe:
    """Times a fixed loop, independent of gridwatch, between operations.

    On a shared machine the same code runs up to twice as slow in spells
    of seconds to minutes. Sampled all through the timed part, the loop
    slows with the operations around it, so CPU rates multiplied by
    ``slowdown()`` (and set-up times divided by the slowdown ``around``
    them) follow the program and not the spell. The caller leaves ``spent_cpu_s`` out of its CPU time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def sample(self) -> None:
        """The fastest of ``PROBE_REPEATS`` back-to-back runs of the loop, so a
        thread of the program that is still finishing does not count."""
        started = time.perf_counter()
        started_cpu = time.process_time()
        fastest = math.inf
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _reference_work()
            fastest = min(fastest, time.perf_counter() - t0)
        self.samples.append(fastest)
        self.spent_s += time.perf_counter() - started
        self.spent_cpu_s += time.process_time() - started_cpu

    def mean_s(self, since: int = 0) -> float:
        """The mean of the samples from number ``since`` on. The machine flips
        between a fast and a slow state every second or so, and the program's
        time is spent in both; the median of such a mixture jumps from one
        state to the other, the mean follows the share of time in each."""
        if len(self.samples) <= since:  # a timed part too short for one sample; this one is untimed
            self.sample()
        return statistics.fmean(self.samples[since:])

    def slowdown(self, since: int = 0) -> float:
        """The mean sample against ``PROBE_NOMINAL_S``: 1.0 at nominal speed."""
        return self.mean_s(since) / PROBE_NOMINAL_S

    def around(self, job):
        """Runs ``job()`` between two samples, for a job too short to span
        both of the machine's states. Returns its result, its wall time (the
        samples it took itself left out) and the slowdown of the samples
        taken from just before it to just after it."""
        first = len(self.samples)
        self.sample()
        probed = self.spent_s
        started = time.perf_counter()
        result = job()
        elapsed = time.perf_counter() - started - (self.spent_s - probed)
        self.sample()
        return result, elapsed, self.slowdown(since=first)


# -- HTTP -----------------------------------------------------------------------


def http_get_json(base: str, path: str, timeout: float = 30.0):
    """GET ``base + path``; returns ``(status, parsed body)``."""
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"null")


# -- the result -----------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back to run.py; times as measured."""

    attempted: int
    failed: int
    problems: list[str]
    end_to_end: dict[str, float]
    # Named figures from the workload's own vocabulary, printed for people.
    details: dict[str, float]
    per_layer: dict[str, float] | None = None

