"""Availability reporting, dip detection and the read-only HTTP API.

Availability treats each stored slot value as holding for its whole
interval. Slots with no data are excluded from both numerator and
denominator by default (the meter simply was not running); with
``gaps_as_down`` set they count against availability instead. Contiguous
absence longer than the staleness window is surfaced as a ``no-data``
breach either way, so monitoring outages are never silent.
"""

from __future__ import annotations

import json
import logging
import statistics
import urllib.parse
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .tsdb import NoSuchSeries, Store

log = logging.getLogger(__name__)

LOGIN_UP_THRESHOLD = 0.5  # login_up is a 0/1 flag; >= 0.5 means up
DEFAULT_STALENESS_S = 600.0

DEFAULT_TRAIL_N = 12
DEFAULT_DEPTH_FRACTION = 0.3
DEFAULT_MIN_LEN = 1
DEFAULT_MAX_LEN = 60


class EmptyWindow(ValueError):
    """An availability window containing no populated slots."""


class TooFewPoints(ValueError):
    """Not enough populated points to seed the dip baseline."""


@dataclass(frozen=True)
class Breach:
    """One contiguous stretch of trouble inside a report window."""

    start_t: int
    end_t: int
    kind: str


@dataclass
class AvailabilityResult:
    """Availability of one series against one predicate."""

    pct: float
    up_s: int
    data_s: int
    window_s: int
    breaches: list[Breach]


@dataclass(frozen=True)
class DipEvent:
    """A short-lived drop below the trailing baseline."""

    start_t: int
    end_t: int
    baseline_w: float
    min_w: float
    depth_fraction: float


@dataclass(frozen=True)
class ReportConfig:
    """What the contractual report reads and how it judges it."""

    node_series: str
    login_series: str
    threshold_nodes: float
    staleness_s: float = DEFAULT_STALENESS_S
    gaps_as_down: bool = False


@dataclass
class AvailabilityReport:
    """The whole contractual answer for one window."""

    from_t: int
    to_t: int
    node_series: str
    threshold_nodes: float
    node_availability_pct: float
    login_availability_pct: float
    breaches: list[Breach]

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, no whitespace."""
        return json.dumps(
            {
                "from": self.from_t,
                "to": self.to_t,
                "node_series": self.node_series,
                "threshold_nodes": self.threshold_nodes,
                "node_availability_pct": self.node_availability_pct,
                "login_availability_pct": self.login_availability_pct,
                "breaches": [[b.start_t, b.end_t, b.kind] for b in self.breaches],
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def availability(
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
    """Fraction of time the predicate held, over slot-extended values.

    ``points`` is the dense ``[(slot_t, value_or_None), ...]`` list a store
    read returns. Edge slots only count for the seconds they overlap the
    window. Violation runs become breaches of ``violation_kind``; absent
    runs longer than ``staleness_s`` become breaches of ``gap_kind``.
    """
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


def detect_dips(
    points,
    *,
    trail_n: int = DEFAULT_TRAIL_N,
    depth_fraction: float = DEFAULT_DEPTH_FRACTION,
    min_len: int = DEFAULT_MIN_LEN,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[DipEvent]:
    """Find short drops below a trailing-median baseline.

    A dip opens when a value falls below ``(1 - depth_fraction) * median``
    of the previous ``trail_n`` populated values, and closes when a value
    recovers above that bound (the bound is frozen at open, so a dip never
    drags its own baseline down). Runs longer than ``max_len`` points are
    treated as genuine load changes, not dips: they are absorbed into the
    baseline instead. The median (not the mean) is used precisely so that
    brief excursions leave the baseline untouched.

    Returns disjoint events in time order.
    """
    populated = [(t, v) for t, v in points if v is not None]
    if len(populated) < trail_n + 1:
        raise TooFewPoints(f"need at least {trail_n + 1} populated points, got {len(populated)}")
    window: deque = deque((v for _, v in populated[:trail_n]), maxlen=trail_n)
    events: list[DipEvent] = []
    i = trail_n
    n = len(populated)
    while i < n:
        value = populated[i][1]
        baseline = statistics.median(window)
        bound = (1.0 - depth_fraction) * baseline
        if baseline > 0 and value < bound:
            j = i
            while j < n and populated[j][1] < bound:
                j += 1
            run = populated[i:j]
            if min_len <= len(run) <= max_len:
                min_w = min(v for _, v in run)
                events.append(
                    DipEvent(
                        start_t=run[0][0],
                        end_t=run[-1][0],
                        baseline_w=baseline,
                        min_w=min_w,
                        depth_fraction=1.0 - min_w / baseline,
                    )
                )
            else:
                # Sustained (or too-short) excursions are the new normal.
                for _, v in run:
                    window.append(v)
            i = j
        else:
            window.append(value)
            i += 1
    return events


def contractual_report(store: Store, cfg: ReportConfig, window: tuple[int, int]) -> AvailabilityReport:
    """Node and login availability over a window, with every breach listed."""
    from_t, to_t = window
    node_interval, node_points = store.read(cfg.node_series, from_t, to_t)
    node = availability(
        node_points,
        lambda v: v >= cfg.threshold_nodes,
        window,
        node_interval,
        staleness_s=cfg.staleness_s,
        gaps_as_down=cfg.gaps_as_down,
        violation_kind="node-below-threshold",
        gap_kind="node-no-data",
    )
    login_interval, login_points = store.read(cfg.login_series, from_t, to_t)
    login = availability(
        login_points,
        lambda v: v >= LOGIN_UP_THRESHOLD,
        window,
        login_interval,
        staleness_s=cfg.staleness_s,
        gaps_as_down=cfg.gaps_as_down,
        violation_kind="login-down",
        gap_kind="login-no-data",
    )
    breaches = sorted(node.breaches + login.breaches, key=lambda b: (b.start_t, b.kind))
    return AvailabilityReport(
        from_t=from_t,
        to_t=to_t,
        node_series=cfg.node_series,
        threshold_nodes=cfg.threshold_nodes,
        node_availability_pct=node.pct,
        login_availability_pct=login.pct,
        breaches=breaches,
    )


# -- HTTP API ------------------------------------------------------------


class _BadQuery(ValueError):
    pass


class _ApiHandler(BaseHTTPRequestHandler):
    server: "ApiServer"

    def do_GET(self):  # noqa: N802 (http.server naming)
        parts = urllib.parse.urlsplit(self.path)
        try:
            if parts.path == "/api/v1/health":
                self._send(200, json.dumps({"status": "ok"}))
            elif parts.path == "/api/v1/report":
                self._report(parts)
            elif parts.path.startswith("/api/v1/series/"):
                name = urllib.parse.unquote(parts.path[len("/api/v1/series/") :])
                self._series(name, parts)
            else:
                self._send(404, json.dumps({"error": "not found"}))
        except NoSuchSeries as exc:
            self._send(404, json.dumps({"error": f"no such series: {exc.args[0]}"}))
        except _BadQuery as exc:
            self._send(400, json.dumps({"error": str(exc)}))
        except Exception as exc:  # never let a handler kill the server thread
            log.exception("API request failed")
            self._send(500, json.dumps({"error": f"internal error: {exc}"}))

    def _window(self, parts) -> tuple[int, int]:
        query = urllib.parse.parse_qs(parts.query)
        try:
            from_t = int(query["from"][0])
            to_t = int(query["to"][0])
        except (KeyError, ValueError, IndexError):
            raise _BadQuery("query needs integer 'from' and 'to'") from None
        if from_t >= to_t:
            raise _BadQuery(f"'from' ({from_t}) must be before 'to' ({to_t})")
        return from_t, to_t

    def _series(self, name: str, parts) -> None:
        from_t, to_t = self._window(parts)
        try:
            interval, points = self.server.store.read(name, from_t, to_t)
        except ValueError as exc:
            raise _BadQuery(str(exc)) from None
        body = json.dumps(
            {"series": name, "interval": interval, "points": [[t, v] for t, v in points]},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._send(200, body)

    def _report(self, parts) -> None:
        window = self._window(parts)
        cfg = self.server.report_cfg
        if cfg is None:
            self._send(404, json.dumps({"error": "report not configured"}))
            return
        try:
            report = contractual_report(self.server.store, cfg, window)
        except EmptyWindow as exc:
            self._send(404, json.dumps({"error": str(exc)}))
            return
        except ValueError as exc:  # a window too long to read, as in _series
            raise _BadQuery(str(exc)) from None
        self._send(200, report.to_json())

    def _send(self, code: int, body: str) -> None:
        raw = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, fmt, *args):  # quiet: route through logging
        log.debug("api: " + fmt, *args)


class ApiServer(ThreadingHTTPServer):
    """Read-only JSON API over a store; safe to run beside the poller."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind: tuple[str, int], store: Store, report_cfg: ReportConfig | None = None):
        self.store = store
        self.report_cfg = report_cfg
        super().__init__(bind, _ApiHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]
