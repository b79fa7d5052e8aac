"""Fixed-retention time series store with multi-resolution ring archives.

Every series owns the same N archives, finest first, each a ring of
``points`` slots at a fixed ``interval``. A write lands in the finest ring
only. A coarse slot is the time-ordered mean of the finest points beneath
it, and it holds a value only once at least half of those finest slots
hold data, so a thin trickle of points never fabricates long-term values.

A coarse slot is consolidated from the finest ring when it closes (a write
moves the newest timestamp past it), when a write lands in it after it
closed, and, for the open slot under the newest timestamp, when a read or
a flush needs it. Two rules keep every consolidation exact: no coarse
interval may exceed the finest archive's coverage, and a write is refused
(TooOld) when any slot it lands in starts at or before the newest
timestamp minus the finest coverage, since part of that slot's finest
data has left the ring. A write at or after the newest timestamp is never
refused.

Reads pick the finest archive that still covers the start of the requested
range, so old ranges degrade to coarser resolution instead of vanishing.

Persistence is one flat binary file per series (header + fixed-size slot
table, timestamp zero meaning "empty"), rewritten on flush/close. The file
is the series' whole state. Opening a store lists its files and checks
each header against the file's size; a series' file is read into its rings
on the first read or write of that series. With no root directory the
store is purely in memory, which is what the tests and the simulator use.

In memory, each series keeps its slot table, laid out as in the file, in
one private anonymous mapping. The kernel hands out a page on its first
write, so a series costs memory only where slots were written, while
reading a page never written (as a flush does) maps the shared zero page.
A series read from disk is resident in full. The rings need POSIX ``mmap``,
and a file-backed store a little-endian host, as the file is laid out as
the mapping is.

A write, read, listing or flush holds ``Store.lock``, which is re-entrant:
the poller holds it across a poll's whole state change, so a reader sees
all of a poll or none of it.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import re
import struct
import sys
import threading
from dataclasses import dataclass
from itertools import compress
from operator import ne
from pathlib import Path

from .model import MetricSample, valid_series

log = logging.getLogger(__name__)

__all__ = [
    "BadSpec",
    "NonFiniteValue",
    "TooOld",
    "NoSuchSeries",
    "RetentionSpec",
    "parse_retention",
    "Store",
    "DEFAULT_RETENTION",
]

DEFAULT_RETENTION = "1m:14d,10m:90d,1h:2y"

_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "y": 365 * 86400}
_TERM_RE = re.compile(r"^(\d+)([smhdy]):(\d+)([smhdy])$")

_MAGIC = b"GWTS"
_VERSION = 1
_HEAD = struct.Struct("<4sHH")
_ARCH = struct.Struct("<II")
_PAIR_BYTES = 16  # one slot on disk: little-endian int64 t, float64 v

# Hard cap on slots returned by a single read; protects against runaway
# ranges, not a tuning knob.
_MAX_READ_POINTS = 2_000_000


class BadSpec(ValueError):
    """A retention spec that breaks the archive rules."""


class NonFiniteValue(ValueError):
    """NaN or infinity refused at ingest."""


class TooOld(ValueError):
    """A write into a slot whose finest data has partly left the ring."""


class NoSuchSeries(KeyError):
    """Read of a series this store has never seen."""


@dataclass(frozen=True)
class RetentionSpec:
    """Archive layout: ``(interval_s, points)`` pairs, finest first."""

    archives: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.archives:
            raise BadSpec("retention needs at least one archive")
        finest_interval, finest_points = self.archives[0]
        finest_coverage = finest_interval * finest_points
        prev_interval = 0
        prev_coverage = 0
        for interval, points in self.archives:
            if interval <= 0 or points <= 0:
                raise BadSpec(f"non-positive archive term ({interval}s x {points})")
            if interval <= prev_interval:
                raise BadSpec(f"archive intervals must strictly increase ({interval} after {prev_interval})")
            if interval % finest_interval:
                raise BadSpec(f"{interval} not a multiple of {finest_interval}")
            coverage = interval * points
            if coverage <= prev_coverage:
                raise BadSpec(f"archive coverage must strictly increase ({coverage}s after {prev_coverage}s)")
            if interval > finest_coverage:
                raise BadSpec(f"{interval}s slots are longer than the finest coverage ({finest_coverage}s)")
            prev_interval, prev_coverage = interval, coverage


def parse_retention(text: str) -> RetentionSpec:
    """Parse a spec such as DEFAULT_RETENTION into a RetentionSpec.

    Each term is ``<slot width>:<total length>``; units s/m/h/d/y with a
    365-day year. Slot counts round down when the length is not an exact
    multiple of the width.
    """
    terms = [t.strip() for t in text.split(",")]
    if not any(terms):
        raise BadSpec("empty retention spec")
    archives = []
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise BadSpec(f"unparsable retention term {term!r}")
        interval = int(m.group(1)) * _UNITS[m.group(2)]
        duration = int(m.group(3)) * _UNITS[m.group(4)]
        if interval == 0 or duration < interval:
            raise BadSpec(f"retention term {term!r} holds no slots")
        archives.append((interval, duration // interval))
    return RetentionSpec(tuple(archives))


def mean(values) -> float:
    """The mean of a non-empty sequence of finite values, summed oldest first;
    it is finite too, even where their sum overflows."""
    total = 0.0
    for v in values:
        total += v  # not sum(): from Python 3.12 it compensates, which changes the bits
    n = len(values)
    if math.isfinite(total):
        return total / n
    # Each term halved, so no partial sum in fsum can overflow; the clamp keeps rounding inside the values' range.
    return min(max(2 * math.fsum(v / (2 * n) for v in values), min(values)), max(values))


def pairs(column) -> list:
    """A fetched ``(start, interval, values)`` column as ``[(slot_t, value_or_None), ...]``."""
    start, interval, values = column
    return list(zip(range(start, start + interval * len(values), interval), values))


class _Archive:
    """One fixed-size ring. Slot i is valid iff ts[i] equals the aligned
    timestamp being asked about. ``ts`` and ``vals`` are strided views over
    the series' mapping, which holds the (t, v) pairs exactly as the file's
    slot table does."""

    __slots__ = ("interval", "points", "fine", "ts", "vals")

    def __init__(self, interval: int, points: int, slots: memoryview, fine_interval: int):
        self.interval = interval
        self.points = points
        self.fine = interval // fine_interval  # finest slots under one of this archive's slots
        self.ts = slots.cast("q")[0::2]
        self.vals = slots.cast("d")[1::2]

    def align(self, t: int) -> int:
        return t - t % self.interval

    def idx(self, aligned_t: int) -> int:
        return (aligned_t // self.interval) % self.points

    def slots(self, t: int, n: int):
        """``(times, stamps, values)`` of the ``n <= points`` slots from aligned
        time ``t`` on, each list read as at most two slices, before and after the wrap."""
        i = self.idx(t)
        m = min(n, self.points - i)
        return (list(range(t, t + n * self.interval, self.interval)),
                self.ts[i : i + m].tolist() + self.ts[: n - m].tolist(),
                self.vals[i : i + m].tolist() + self.vals[: n - m].tolist())


class _Series:
    __slots__ = ("retention", "archives", "coarse", "latest", "open_end", "dirty", "table")

    def __init__(self, retention: RetentionSpec):
        self.retention = retention
        table_bytes = _PAIR_BYTES * sum(points for _, points in retention.archives)
        # The file's slot table, byte for byte. Private and anonymous, so
        # only pages with a written slot are resident.
        self.table = memoryview(mmap.mmap(-1, table_bytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS))
        self.archives = []
        off = 0
        fine_interval = retention.archives[0][0]
        for interval, points in retention.archives:
            slots = self.table[off : off + _PAIR_BYTES * points]
            self.archives.append(_Archive(interval, points, slots, fine_interval))
            off += _PAIR_BYTES * points
        self.coarse = tuple(self.archives[1:])
        self.latest = 0  # newest finest-aligned timestamp ever written
        self.open_end = 0  # end of the earliest-closing open coarse slot; 0 until a first write
        self.dirty = False

    def write(self, t: int, v: float) -> None:
        """The full path: a first write, a backfill, or one that closes a
        coarse slot. ``Store.write`` takes an append inside every open
        coarse slot itself."""
        fin = self.archives[0]
        interval = fin.interval
        aligned = t - t % interval
        if aligned <= 0:
            raise TooOld(f"timestamp {t} is before the epoch")
        latest = self.latest
        closed = ()
        if aligned > latest:
            # Close the open coarse slots this write moves past, while the
            # finest ring still holds all of their points.
            for ar in self.coarse:
                start = latest - latest % ar.interval
                if aligned - start >= ar.interval:
                    self._consolidate(ar, start)
            self.latest = aligned
            self._set_open_end()
        else:
            horizon = latest - interval * fin.points
            if any(ar.align(aligned) <= horizon for ar in self.archives):
                raise TooOld(
                    f"timestamp {t} lands in a slot older than finest coverage "
                    f"({interval * fin.points}s behind {latest})"
                )
            closed = [ar for ar in self.coarse if ar.align(aligned) != ar.align(latest)]
        i = (aligned // interval) % fin.points
        fin.ts[i] = aligned
        fin.vals[i] = v
        for ar in closed:
            self._consolidate(ar, ar.align(aligned))
        self.dirty = True

    def _set_open_end(self) -> None:
        latest = self.latest
        open_end = math.inf
        for ar in self.coarse:
            end = latest - latest % ar.interval + ar.interval
            if end < open_end:
                open_end = end
        self.open_end = open_end

    def _consolidate(self, ar: _Archive, slot_t: int) -> None:
        """Set coarse slot ``slot_t`` to the mean of the finest points under
        it, summed oldest first, when at least half of them exist."""
        fin = self.archives[0]
        n = ar.fine  # RetentionSpec keeps a coarse slot no longer than the finest ring
        i = (slot_t // fin.interval) % fin.points
        j = (slot_t // ar.interval) % ar.points
        # Every slot consolidated starts after the newest timestamp minus the
        # finest coverage, so a finest position under it holds the slot's own
        # point, an older one or 0, never a newer one: a slot that lies wholly
        # inside the ring is full when no stamp under it is older than the slot.
        if slot_t and i + n <= fin.points and min(fin.ts[i : i + n]) >= slot_t:
            ar.ts[j] = slot_t
            ar.vals[j] = mean(fin.vals[i : i + n])
            return
        # t = 0 is what an empty slot holds
        values = [v for t, stamp, v in zip(*fin.slots(slot_t, n)) if stamp == t and t]
        if len(values) * 2 >= n:
            ar.ts[j] = slot_t
            ar.vals[j] = mean(values)
        elif ar.ts[j] != slot_t:
            ar.ts[j] = 0  # the position held an older slot

    def choose_archive(self, from_t: int) -> _Archive:
        for ar in self.archives:
            if self.latest - ar.interval * ar.points <= from_t:
                return ar
        return self.archives[-1]


class Store:
    """Series store; in memory by default, file-backed when given a root.

    File-backed mode lists the series files at open and reads a series'
    file on its first read or write. It keeps what it read in memory and
    rewrites dirty series on flush()/close(), so a crash loses at most the
    samples since the last flush. A read holds ``lock`` while it builds its
    whole result from one archive's ring, copying at most two contiguous
    slices (before and after the wrap).
    """

    def __init__(self, root: "str | Path | None" = None, default_retention: "str | RetentionSpec" = DEFAULT_RETENTION):
        if isinstance(default_retention, str):
            default_retention = parse_retention(default_retention)
        self._default_retention = default_retention
        self._series: dict[str, _Series] = {}
        self._unloaded: dict[str, Path] = {}  # listed at open, not yet read
        self.lock = threading.RLock()
        self._root = Path(root) if root is not None else None
        self.write_count = 0
        if self._root is not None:
            if sys.byteorder != "little":
                raise OSError("series files are little-endian and this host is not")
            self._root.mkdir(parents=True, exist_ok=True)
            self._list_files()

    # -- writing ---------------------------------------------------------

    def write(self, sample: MetricSample) -> None:
        v = float(sample.v)
        if not math.isfinite(v):
            raise NonFiniteValue(f"refusing {sample.v!r} for {sample.series}")
        name = sample.series
        lock = self.lock
        lock.acquire()  # not `with`: this is the per-sample path, and `with` costs more per call
        try:
            s = self._series.get(name) or self._first_touch(name)
            if s is None:
                if not valid_series(name):
                    raise ValueError(f"bad series path {name!r}")
                s = _Series(self._default_retention)
                s.write(int(sample.t), v)  # before listing it: a refused first write leaves no series
                self._series[name] = s
            else:
                t = int(sample.t)
                fin = s.archives[0]
                interval = fin.interval
                aligned = t - t % interval
                if s.latest <= aligned < s.open_end:
                    # An append inside every open coarse slot closes none and cannot be TooOld.
                    i = (aligned // interval) % fin.points
                    fin.ts[i] = aligned
                    fin.vals[i] = v
                    s.latest = aligned
                    s.dirty = True
                else:
                    s.write(t, v)
            self.write_count += 1
        finally:
            lock.release()

    # -- reading ---------------------------------------------------------

    def fetch(self, series: str, from_t: int, to_t: int):
        """Return ``(start, interval, values)``: ``values[k]`` is the slot at
        ``start + k * interval``, None where it holds no data. ``start`` is
        ``from_t`` rounded down to the chosen archive's interval, and the
        slots run up to but excluding ``to_t``."""
        if from_t >= to_t:
            raise ValueError(f"empty read range [{from_t}, {to_t})")
        with self.lock:
            s = self._series.get(series) or self._first_touch(series)
            if s is None:
                raise NoSuchSeries(series)
            ar = s.choose_archive(from_t)
            if ar is not s.archives[0]:
                s._consolidate(ar, ar.align(s.latest))  # the open slot
            start = ar.align(from_t)
            if (to_t - start) // ar.interval > _MAX_READ_POINTS:
                raise ValueError("read range spans too many slots")
            n = len(range(start, to_t, ar.interval))
            # Only a slot after the epoch that the ring window has not slid past can hold
            # data, though its stamp may linger until a newer slot claims its position.
            oldest = max(ar.align(s.latest) - ar.interval * (ar.points - 1), ar.interval)
            lo = min(n, max(0, (oldest - start) // ar.interval))
            hi = min(n, lo + ar.points)  # the window is one ring long
            times, stamps, values = ar.slots(start + lo * ar.interval, hi - lo)
            values = [None] * lo + values + [None] * (n - hi)
            if stamps != times:  # a position whose stamp is not its slot's time holds another slot, or none
                for k in compress(range(lo, hi), map(ne, stamps, times)):
                    values[k] = None
            return start, ar.interval, values

    def read(self, series: str, from_t: int, to_t: int):
        """``fetch`` as ``(interval, [(slot_t, value_or_None), ...])``."""
        column = self.fetch(series, from_t, to_t)
        return column[1], pairs(column)

    def list_series(self, prefix: str = "") -> list[str]:
        with self.lock:
            return sorted(n for n in self._series.keys() | self._unloaded.keys() if n.startswith(prefix))

    # -- persistence -----------------------------------------------------

    def flush(self) -> int:
        """Write dirty series to disk; returns how many files were written."""
        if self._root is None:
            return 0
        written = 0
        with self.lock:
            for name, s in self._series.items():
                if s.dirty:
                    self._save(name, s)
                    s.dirty = False
                    written += 1
        return written

    def close(self) -> None:
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _path(self, series: str) -> Path:
        parts = series.split(".")
        return self._root.joinpath(*parts[:-1], parts[-1] + ".dat")

    def _save(self, name: str, s: _Series) -> None:
        path = self._path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        head = bytearray(_HEAD.pack(_MAGIC, _VERSION, len(s.archives)))
        for interval, points in s.retention.archives:
            head += _ARCH.pack(interval, points)
        for ar in s.coarse:
            s._consolidate(ar, ar.align(s.latest))  # the open slots
        tmp = path.with_suffix(".dat.tmp")
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(s.table)
        os.replace(tmp, path)

    def _list_files(self) -> None:
        for path in sorted(self._root.rglob("*.dat")):
            rel = path.relative_to(self._root)
            name = ".".join(rel.parts[:-1] + (rel.stem,))
            try:
                with open(path, "rb") as fh:
                    _read_head(fh, path)
            except (OSError, ValueError, struct.error) as exc:
                log.warning("skipping unreadable series file %s: %s", path, exc)
                continue
            self._unloaded[name] = path

    def _first_touch(self, name: str) -> "_Series | None":
        """Read a listed series' file into a new loaded series; called under
        the lock. A file that has gone bad since the open is dropped."""
        path = self._unloaded.pop(name, None)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                s = _Series(_read_head(fh, path))
                if fh.readinto(s.table) != len(s.table) or fh.read(1):
                    raise ValueError(f"{path} changed size while it was read")
        except (OSError, ValueError, struct.error) as exc:
            log.warning("skipping unreadable series file %s: %s", path, exc)
            return None
        s.latest = max(s.archives[0].ts, default=0)
        if s.latest:
            s._set_open_end()
        self._series[name] = s
        return s


def _read_head(fh, path: Path) -> RetentionSpec:
    """Read a series file's header and archive table, leaving ``fh`` at its
    slot table; refuse the file unless its size is what the header says."""
    magic, version, n_archives = _HEAD.unpack(fh.read(_HEAD.size))
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(f"bad series file header in {path}")
    archives = tuple(_ARCH.iter_unpack(fh.read(_ARCH.size * n_archives)))
    expected = _HEAD.size + _ARCH.size * n_archives + _PAIR_BYTES * sum(points for _, points in archives)
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ValueError(f"{path} holds {size} bytes, its header says {expected}")
    return RetentionSpec(archives)

