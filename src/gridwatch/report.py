"""Availability reporting, dip detection and the read-only HTTP API.

Availability treats each stored slot value as holding for its whole
interval. Slots with no data are excluded from both numerator and
denominator by default (the meter simply was not running); with
``gaps_as_down`` set they count against availability instead. Contiguous
absence longer than the staleness window is surfaced as a ``no-data``
breach either way, so monitoring outages are never silent.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import statistics
import urllib.parse
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .tsdb import NoSuchSeries, Store

log = logging.getLogger(__name__)

LOGIN_UP_THRESHOLD = 0.5  # login_up is a 0/1 flag; >= 0.5 means up
DEFAULT_STALENESS_S = 600.0

DIP_TRAIL_N = 12  # populated values behind the baseline median
DIP_DEPTH_FRACTION = 0.3  # a dip falls more than this far below the baseline
DIP_MAX_LEN = 60  # longer runs below the bound are load changes, not dips


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
    node_column: tuple = field(default=(), repr=False, compare=False)  # the fetched slots judged; not in the JSON

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
    column,
    predicate,
    window: tuple[int, int],
    *,
    staleness_s: float = DEFAULT_STALENESS_S,
    gaps_as_down: bool = False,
    violation_kind: str = "below-threshold",
    gap_kind: str = "no-data",
) -> AvailabilityResult:
    """Fraction of time the predicate held, over slot-extended values.

    ``column`` is the ``(start, interval, values)`` a store fetch returns,
    one value per slot from ``start`` on with none missing: each run of
    absent, up or down slots is clipped to the window once, so edge slots
    count only for the seconds they overlap it. Violation runs become
    breaches of ``violation_kind``; absent runs longer than ``staleness_s``
    become breaches of ``gap_kind``.
    """
    from_t, to_t = window
    if from_t >= to_t:
        raise ValueError(f"empty window [{from_t}, {to_t})")
    t, interval, values = column  # t: where the next run starts
    up = data = total = 0
    breaches: list[Breach] = []
    states = [None if v is None else bool(predicate(v)) for v in values]
    for state, run in itertools.groupby(states):
        lo = max(t, from_t)
        t += interval * len(list(run))
        hi = min(t, to_t)
        span = hi - lo
        if span <= 0:
            continue
        total += span
        if state is None:
            if span > staleness_s:
                breaches.append(Breach(lo, hi, gap_kind))
            continue
        data += span
        if state:
            up += span
        else:
            breaches.append(Breach(lo, hi, violation_kind))

    if data == 0:
        raise EmptyWindow(f"no populated slots in [{from_t}, {to_t})")
    denominator = total if gaps_as_down else data
    return AvailabilityResult(100.0 * up / denominator, up, data, total, breaches)


def detect_dips(points) -> list[DipEvent]:
    """Find short drops below a trailing-median baseline.

    A dip opens when a value falls below ``(1 - DIP_DEPTH_FRACTION) * median``
    of the previous ``DIP_TRAIL_N`` populated values, and closes when a value
    recovers above that bound (the bound is frozen at open, so a dip never
    drags its own baseline down). Runs longer than ``DIP_MAX_LEN`` points are
    treated as genuine load changes, not dips: they are absorbed into the
    baseline instead. The median (not the mean) is used precisely so that
    brief excursions leave the baseline untouched.

    Returns disjoint events in time order.
    """
    populated = [(t, v) for t, v in points if v is not None]
    if len(populated) < DIP_TRAIL_N + 1:
        raise TooFewPoints(f"need at least {DIP_TRAIL_N + 1} populated points, got {len(populated)}")
    window: deque = deque((v for _, v in populated[:DIP_TRAIL_N]), maxlen=DIP_TRAIL_N)
    events: list[DipEvent] = []
    i = DIP_TRAIL_N
    n = len(populated)
    while i < n:
        value = populated[i][1]
        baseline = statistics.median(window)
        bound = (1.0 - DIP_DEPTH_FRACTION) * baseline
        if baseline > 0 and value < bound:
            j = i
            while j < n and populated[j][1] < bound:
                j += 1
            run = populated[i:j]
            if len(run) <= DIP_MAX_LEN:
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
                # Sustained excursions are the new normal.
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
    judged = []
    for series, predicate, violation_kind, gap_kind in (
        (cfg.node_series, lambda v: v >= cfg.threshold_nodes, "node-below-threshold", "node-no-data"),
        (cfg.login_series, lambda v: v >= LOGIN_UP_THRESHOLD, "login-down", "login-no-data"),
    ):
        column = store.fetch(series, from_t, to_t)
        result = availability(column, predicate, window, staleness_s=cfg.staleness_s,
                              gaps_as_down=cfg.gaps_as_down, violation_kind=violation_kind, gap_kind=gap_kind)
        judged.append((result, column))
    (node, node_column), (login, _) = judged
    breaches = sorted(node.breaches + login.breaches, key=lambda b: (b.start_t, b.kind))
    return AvailabilityReport(
        from_t=from_t,
        to_t=to_t,
        node_series=cfg.node_series,
        threshold_nodes=cfg.threshold_nodes,
        node_availability_pct=node.pct,
        login_availability_pct=login.pct,
        breaches=breaches,
        node_column=node_column,
    )


# -- HTTP API ------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 14)  # one 7-day series of one-minute slots fits; two thrash it
def _number_text(v: float) -> str:
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _series_json(name: str, start: int, interval: int, values) -> str:
    """The bytes ``json.dumps`` gives a series body with sorted keys and no whitespace.

    Nearly all of that encode is float text, so a value's text is memoized;
    a zero bypasses the memo, where ``0.0 == -0.0`` would give both one text.
    """
    text = _number_text
    body = ",".join([f"[{t},{text(v) if v else 'null' if v is None else repr(v)}]"
                     for t, v in zip(itertools.count(start, interval), values)])
    return f'{{"interval":{interval},"points":[{body}],"series":{json.dumps(name)}}}'


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
            column = self.server.store.fetch(name, from_t, to_t)
        except ValueError as exc:
            raise _BadQuery(str(exc)) from None
        self._send(200, _series_json(name, *column))

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
