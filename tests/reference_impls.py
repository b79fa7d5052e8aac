"""Independent reference implementations and shared helpers for the tests.

Everything here is deliberately naive: plain dicts, per-second loops,
fresh recomputation from first principles. The production code must agree
with these, not the other way round.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
import time as real_time
from contextlib import contextmanager

import numpy as np

from gridwatch.model import (
    AgentPayload,
    CheckResult,
    CheckState,
    EmptyPayload,
    InvalidResult,
    MalformedLine,
    Perfdata,
)
from gridwatch.report import DEFAULT_STALENESS_S, AvailabilityResult, Breach, EmptyWindow
from gridwatch.tsdb import mean


class FlatStore:
    """Naive single-series mirror of the archive semantics.

    Keeps every accepted write in one flat ``{aligned_t: value}`` dict and
    recomputes each read answer from scratch:

    * a write is refused when its finest-aligned time is <= 0 or lags the
      newest accepted write by at least the finest coverage, or when a
      coarser slot it lands in starts that far behind;
    * a read picks the finest archive whose coverage reaches back to the
      range start (relative to the newest write), else the coarsest;
    * a finest slot holds its last written value while the slot is within
      coverage of the newest write;
    * a coarser slot is the time-ordered mean of the finest-aligned values
      it spans, materialized only when at least half of them exist, and
      visible only while the slot is within that archive's coverage.

    Where the plain sum of a slot's values overflows, the mean of those finite
    values is still finite: both oracles then take the store's ``mean``, whose
    overflow rule has tests of its own, so they check which points are averaged.
    """

    def __init__(self, archives):
        self.archives = list(archives)
        self.flat: dict[int, float] = {}
        self.latest = 0

    def write(self, t: int, v: float) -> bool:
        """Apply one write; returns False when the store would refuse it."""
        interval, points = self.archives[0]
        aligned = t - t % interval
        if aligned <= 0:
            return False
        if self.latest and self.latest - aligned >= interval * points:
            return False
        if any(aligned - aligned % iv <= self.latest - interval * points for iv, _ in self.archives[1:]):
            return False
        self.flat[aligned] = v
        self.latest = max(self.latest, aligned)
        return True

    def read(self, from_t: int, to_t: int):
        for interval, points in self.archives:
            if self.latest - interval * points <= from_t:
                chosen = (interval, points)
                break
        else:
            chosen = self.archives[-1]
        interval, points = chosen
        keys = sorted(self.flat)
        out = []
        t = from_t - from_t % interval
        while t < to_t:
            out.append((t, self._slot(interval, points, t, keys)))
            t += interval
        return interval, out

    def _slot(self, interval: int, points: int, t: int, keys=None):
        if t <= 0:
            return None
        latest_aligned = self.latest - self.latest % interval
        if latest_aligned - t >= interval * points:
            return None
        finest_interval = self.archives[0][0]
        if interval == finest_interval:
            return self.flat.get(t)
        if keys is None:
            keys = sorted(self.flat)
        lo = bisect.bisect_left(keys, t)
        hi = bisect.bisect_left(keys, t + interval)
        members = keys[lo:hi]
        needed = interval // finest_interval
        if not members or len(members) * 2 < needed:
            return None
        values = [self.flat[u] for u in members]
        total = sum(values)
        return total / len(values) if math.isfinite(total) else mean(values)

    def coarse_members(self, interval: int, t: int) -> list[float]:
        """The finest values a coarse slot at t spans, in time order."""
        return [self.flat[u] for u in sorted(self.flat) if t <= u < t + interval]


# -- perfdata items on the wire: every slot, every time ------------------------

_PERF_KEY_RE = re.compile(r"^[A-Za-z0-9_-]+\Z")


def fmt_num(v) -> str:
    """Shortest decimal text that parses back to exactly the same float."""
    if not math.isfinite(v):
        raise InvalidResult(f"non-finite number {v!r} cannot go on the wire")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def parse_num(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise MalformedLine(f"unparsable number {text!r}") from None
    if not math.isfinite(v):
        raise MalformedLine(f"non-finite number {text!r}")
    return v


def parse_perf_item(text: str) -> Perfdata:
    """``key=value;warn;crit;min;max``, split into all five slots."""
    key, sep, rest = text.partition("=")
    if not sep:
        raise MalformedLine(f"perfdata item without '=': {text!r}")
    if not _PERF_KEY_RE.match(key):
        raise MalformedLine(f"bad perfdata key {key!r}")
    slots = rest.split(";")
    if len(slots) > 5:
        raise MalformedLine(f"too many ';' fields in perfdata item {text!r}")
    if slots[0] == "":
        raise MalformedLine(f"perfdata item without a value: {text!r}")
    nums = [(parse_num(s) if s != "" else None) for s in slots]
    nums += [None] * (5 - len(nums))
    return Perfdata(key, nums[0], nums[1], nums[2], nums[3], nums[4])


def serialize_perf_item(p: Perfdata) -> str:
    """All five slots rendered, then empty ones dropped from the tail."""
    if not _PERF_KEY_RE.match(p.key):
        raise InvalidResult(f"bad perfdata key {p.key!r}")
    slots = [fmt_num(p.value)]
    slots += ["" if x is None else fmt_num(x) for x in (p.warn, p.crit, p.min, p.max)]
    while len(slots) > 1 and slots[-1] == "":
        slots.pop()
    return f"{p.key}=" + ";".join(slots)


# -- whole payloads on the wire, one line at a time, on the item references ----

_STATE_CODES = {str(state.value): state for state in CheckState}
_SECTION_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def serialize_check_line(result: CheckResult) -> str:
    svc = result.service
    if svc == "" or any(c.isspace() for c in svc):
        raise InvalidResult(f"service name {svc!r} is empty or contains whitespace")
    if "\n" in result.summary or "\r" in result.summary:
        raise InvalidResult("summary must not contain line breaks")
    items = [serialize_perf_item(p) for p in result.perfdata]
    perf_field = "|".join(items) if items else "-"
    return f"{result.state.value} {svc} {perf_field} {result.summary}"


def serialize_agent_payload(payload: AgentPayload) -> str:
    """Meta block, then one line per result, each line ended by a newline."""
    if "\n" in payload.agent_version or "\r" in payload.agent_version:
        raise InvalidResult("agent_version must not contain line breaks")
    out = "<<<meta>>>\n"
    out += f"version: {payload.agent_version}\n"
    out += f"host_time: {payload.host_time}\n"
    out += "<<<local>>>\n"
    for result in payload.results:
        out += serialize_check_line(result) + "\n"
    return out


def parse_check_line(line: str) -> CheckResult:
    parts = line.split(" ", 3)
    if len(parts) < 3:
        raise MalformedLine(f"expected '<state> <service> <perfdata> [summary]', got {line!r}")
    code, service, perf_field = parts[0], parts[1], parts[2]
    if code not in _STATE_CODES:
        raise MalformedLine(f"bad state code {code!r}")
    if service == "":
        raise MalformedLine("empty service field")
    if any(c.isspace() for c in service):
        raise MalformedLine(f"whitespace in service name {service!r}")
    summary = parts[3] if len(parts) == 4 else ""
    if any(c in "\r\n" for c in summary):
        raise MalformedLine("line break in summary")
    if perf_field == "":
        raise MalformedLine("empty perfdata field")
    perfdata = [] if perf_field == "-" else [parse_perf_item(item) for item in perf_field.split("|")]
    return CheckResult(_STATE_CODES[code], service, perfdata, summary)


def _section_name(line: str):
    """The name in a ``<<<name>>>`` header line, else None."""
    if len(line) >= 6 and line.startswith("<<<") and line.endswith(">>>"):
        name = line[3:-3]
        if all(c in _SECTION_CHARS for c in name):
            return name
    return None


def parse_agent_payload(data) -> AgentPayload:
    """Every line on its own: headers switch section, meta lines set fields,
    local lines parse or are counted into one ``_parse_errors`` result at
    the end, the rest is ignored."""
    if len(data) == 0:
        raise EmptyPayload("zero-byte payload")
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    version, host_time, results, errors, section = "", 0, [], [], None
    for line in text.split("\n"):
        while line.endswith("\r"):
            line = line[:-1]
        name = _section_name(line)
        if name is not None:
            section = name
        elif section == "meta" and ":" in line:
            key, value = line.split(":", 1)
            if key.strip() == "version":
                version = value.strip()
            elif key.strip() == "host_time":
                try:
                    host_time = int(value.strip())
                except ValueError:
                    pass
        elif section == "local" and line != "":
            try:
                results.append(parse_check_line(line))
            except MalformedLine as exc:
                errors.append(str(exc)[:200])
    if errors:
        lines = "line" if len(errors) == 1 else "lines"
        summary = f"{len(errors)} unparsable check {lines}, the first: {errors[0]}"
        results.append(CheckResult(CheckState.UNKNOWN, "_parse_errors", [], summary))
    return AgentPayload(version, host_time, results)


def column(points, interval: int):
    """Dense, aligned ``[(slot_t, value_or_None), ...]`` points as the
    ``(start, interval, values)`` column a store fetch returns."""
    return points[0][0], interval, [v for _, v in points]


def pairs(column):
    """A ``(start, interval, values)`` column as ``[(slot_t, value_or_None), ...]``,
    the inverse of ``column``."""
    start, interval, values = column
    return list(zip(range(start, start + interval * len(values), interval), values))


def per_second_availability(points, predicate, window, interval, gaps_as_down=False):
    """Brute-force availability: account for every single second.

    Expands each slot over its interval second by second, then counts.
    Returns the percentage, or None when no second has data.
    """
    from_t, to_t = window
    base = points[0][0]
    slot_present = np.array([v is not None for _, v in points])
    slot_ok = np.array([v is not None and bool(predicate(v)) for _, v in points])
    seconds = np.arange(from_t, to_t, dtype=np.int64)
    idx = (seconds - base) // interval
    present = slot_present[idx]
    ok = slot_ok[idx]
    data = int(present.sum())
    if data == 0:
        return None
    denominator = (to_t - from_t) if gaps_as_down else data
    return 100.0 * int(ok.sum()) / denominator


def per_slot_availability(
    points,
    predicate,
    window: tuple[int, int],
    interval: int,
    *,
    staleness_s: float = DEFAULT_STALENESS_S,
    gaps_as_down: bool = False,
    violation_kind: str = "below-threshold",
    gap_kind: str = "no-data",
) -> AvailabilityResult:
    """``availability`` one slot at a time: each slot is clipped to the
    window on its own, by its own time, and the current violation or absent
    run is opened, extended or closed slot by slot."""
    from_t, to_t = window
    if from_t >= to_t:
        raise ValueError(f"empty window [{from_t}, {to_t})")
    up = data = total = 0
    breaches: list[Breach] = []
    run_start = run_end = None  # current predicate-violation run
    gap_start = gap_end = None  # current absent run

    def close_violation():
        nonlocal run_start, run_end
        if run_start is not None:
            breaches.append(Breach(run_start, run_end, violation_kind))
            run_start = run_end = None

    def close_gap():
        nonlocal gap_start, gap_end
        if gap_start is not None:
            if gap_end - gap_start > staleness_s:
                breaches.append(Breach(gap_start, gap_end, gap_kind))
            gap_start = gap_end = None

    for slot_t, value in points:
        lo = max(slot_t, from_t)
        hi = min(slot_t + interval, to_t)
        overlap = hi - lo
        if overlap <= 0:
            continue
        total += overlap
        if value is None:
            close_violation()
            if gap_start is None:
                gap_start = lo
            gap_end = hi
            continue
        data += overlap
        close_gap()
        if predicate(value):
            up += overlap
            close_violation()
        else:
            if run_start is None:
                run_start = lo
            run_end = hi
    close_violation()
    close_gap()

    if data == 0:
        raise EmptyWindow(f"no populated slots in [{from_t}, {to_t})")
    denominator = total if gaps_as_down else data
    breaches.sort(key=lambda b: (b.start_t, b.kind))
    return AvailabilityResult(100.0 * up / denominator, up, data, total, breaches)


def per_slot_consolidate(series, ar, slot_t):
    """``_Series._consolidate`` one finest slot at a time.

    Sums the finest points under coarse slot ``slot_t`` oldest first from
    ``0.0``, looking up each point's ring position on its own, and sets the
    slot to their mean when at least half of them exist; otherwise it zeroes
    the slot's stamp only when the position held another slot.
    """
    fin = series.archives[0]
    total, members = 0.0, []
    for t in range(slot_t, slot_t + ar.interval, fin.interval):
        i = (t // fin.interval) % fin.points
        if fin.ts[i] == t and t:  # t = 0 is what an empty slot holds
            total += fin.vals[i]
            members.append(fin.vals[i])
    j = (slot_t // ar.interval) % ar.points
    if len(members) * 2 >= ar.interval // fin.interval:
        ar.ts[j] = slot_t
        ar.vals[j] = total / len(members) if math.isfinite(total) else mean(members)
    elif ar.ts[j] != slot_t:
        ar.ts[j] = 0


def per_slot_read(store, series, from_t, to_t):
    """``Store.read`` one slot at a time, straight from a series' rings.

    Picks the archive and consolidates its open slot as ``Store.read`` does,
    then looks up each slot's ring position on its own: a slot reads its
    value when the stamp there equals the slot time, the time is after the
    epoch, and the slot is not older than one ring behind the newest
    timestamp.
    """
    s = store._series[series]
    ar = s.choose_archive(from_t)
    if ar is not s.archives[0]:
        s._consolidate(ar, ar.align(s.latest))
    out = []
    for t in range(ar.align(from_t), to_t, ar.interval):
        i = (t // ar.interval) % ar.points
        in_window = ar.align(s.latest) - t < ar.interval * ar.points
        out.append((t, ar.vals[i] if ar.ts[i] == t and t != 0 and in_window else None))
    return ar.interval, out


def series_body(name: str, interval: int, points) -> str:
    """An API series body as ``json.dumps`` writes it: sorted keys, no whitespace."""
    return json.dumps(
        {"series": name, "interval": interval, "points": points}, sort_keys=True, separators=(",", ":")
    )


class FakeTime:
    """A clock that only moves when someone sleeps on it.

    ``sleep`` advances the fake time by the requested amount, yields the
    CPU briefly so that worker threads can run, and invokes ``on_advance``
    (when set) with the new time — handy for stopping a scheduler after a
    fixed amount of fake time.
    """

    def __init__(self, start: float = 1_000_000.0):
        self._now = float(start)
        self._lock = threading.Lock()
        self.start = float(start)
        self.on_advance = None

    def time(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, dt: float) -> None:
        with self._lock:
            self._now += dt
            now = self._now
        if self.on_advance is not None:
            self.on_advance(now)
        real_time.sleep(0.001)


@contextmanager
def serving(server, poll_interval: float = 0.05):
    """Run a socketserver in a daemon thread for the duration of a test."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": poll_interval}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def payload_text(host_time: int, lines, version: str = "test-agent") -> str:
    """Assemble a poll payload from raw check lines."""
    body = "\n".join(lines)
    out = f"<<<meta>>>\nversion: {version}\nhost_time: {host_time}\n<<<local>>>\n"
    if body:
        out += body + "\n"
    return out
