"""Central poller: polls agents, tracks service state, forwards metrics.

One poll is a fetch of the agent's payload bytes (by default a TCP connect and
a read to EOF, bounded in time and size) and a parse, with no lock held, then
one hold of the store's lock, the only lock here, for its whole state change:
poll counts, service records, every perfdata value written to the series store
as ``<prefix>.<host>.<service>.<key>``, and member clusters re-evaluated. So
every series is written in its record's order, and a reader sees all of a poll
or none of it. The one notification per state transition goes to the sinks
after the hold. Cluster services republish the freshest non-stale member's
result under the cluster name, so a service survives individual host outages.
"""

from __future__ import annotations

import functools
import json
import logging
import socket
import threading
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .config import host_port
from .model import (
    AgentPayload,
    CheckResult,
    CheckState,
    EmptyPayload,
    MetricSample,
    _segment,
    parse_agent_payload,
    valid_series,
)
from .tsdb import Store

log = logging.getLogger(__name__)

DEFAULT_POLL_INTERVAL_S = 60
STALE_AFTER_INTERVALS = 2  # a record this many of its host's poll intervals old is stale
DEFAULT_STALE_AFTER_S = STALE_AFTER_INTERVALS * DEFAULT_POLL_INTERVAL_S  # for a name no polled host has
DEFAULT_PREFIX = "hpc"
DEFAULT_WEBHOOK_TIMEOUT_S = 5.0
# Far above any real payload (the demo's largest, the admin host's, is
# about 1.2 KB); a larger one is a misbehaving agent.
MAX_PAYLOAD_BYTES = 1 << 20


# Bounded because an agent can send a new service name on every poll, and
# many raw names sanitize to one series; the ARCHER2-shape store has 246
# series and the demo 75.
@functools.lru_cache(maxsize=1 << 14)
def _series_name(prefix: str, host: str, service: str, key: str) -> str:
    return ".".join((prefix, _segment(host), _segment(service), _segment(key)))


@dataclass(frozen=True)
class HostConfig:
    """One polled host."""

    name: str
    address: str  # "host:port"
    poll_interval_s: int = DEFAULT_POLL_INTERVAL_S
    connect_timeout_s: float = 5.0


def tcp_fetch(cfg: HostConfig) -> bytes:
    """Read one payload from the agent at ``cfg.address``: connect, read to EOF.

    Each address the name resolves to gets ``cfg.connect_timeout_s`` to
    connect and the reads end that long after the call began, so an IP
    address bounds the whole call by it; name resolution has no bound. A
    late read or a payload over MAX_PAYLOAD_BYTES raises OSError, a bad
    address ValueError.
    """
    deadline = time.monotonic() + cfg.connect_timeout_s
    with socket.create_connection(host_port(cfg.address), timeout=cfg.connect_timeout_s) as sock:
        chunks = []
        size = 0
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"poll took longer than {cfg.connect_timeout_s} s")
            sock.settimeout(left)
            block = sock.recv(65536)
            if not block:
                return b"".join(chunks)
            size += len(block)
            if size > MAX_PAYLOAD_BYTES:
                raise OSError(f"payload larger than {MAX_PAYLOAD_BYTES} bytes")
            chunks.append(block)


@dataclass(frozen=True)
class ClusterServiceConfig:
    """A service aggregated across member hosts under a pseudo-host name."""

    name: str
    members: tuple[str, ...]
    service: str


@dataclass(frozen=True)
class HostDown:
    """Returned by poll_host when the agent cannot be reached or read."""

    host: str
    reason: str


@dataclass
class ServiceRecord:
    """Latest known result for one (host, service) key of the record table,
    where ``host`` names a polled host or a cluster."""

    last_result: CheckResult
    last_seen_t: float
    stale: bool = False


@dataclass(frozen=True)
class Notification:
    """Emitted exactly when a service changes state."""

    t: int
    host: str
    service: str
    old_state: CheckState
    new_state: CheckState
    summary: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "host": self.host,
                "service": self.service,
                "old": self.old_state.name,
                "new": self.new_state.name,
                "summary": self.summary,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class FileSink:
    """Appends one JSON notification per line."""

    def __init__(self, path):
        self.path = Path(path)
        self.name = f"file:{self.path}"

    def deliver(self, notification: Notification) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(notification.to_json() + "\n")


class WebhookSink:
    """POSTs each notification as JSON; any non-2xx response is a failure."""

    def __init__(self, url: str, timeout_s: float = DEFAULT_WEBHOOK_TIMEOUT_S):
        self.url = url
        self.timeout_s = timeout_s
        self.name = f"webhook:{url}"

    def deliver(self, notification: Notification) -> None:
        req = urllib.request.Request(
            self.url,
            data=notification.to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
            if not (200 <= resp.status < 300):
                raise OSError(f"webhook answered {resp.status}")


class MemorySink:
    """Collects notifications in a list; a test and benchmark helper."""

    def __init__(self):
        self.notifications: list[Notification] = []
        self.name = "memory"

    def deliver(self, notification: Notification) -> None:
        self.notifications.append(notification)


def dispatch(notification: Notification, sinks, failures: Counter | None = None) -> int:
    """Deliver to every sink; a failing sink never blocks the others.

    Returns the number of sinks that failed; ``failures`` (when given)
    accumulates counts per sink name.
    """
    failed = 0
    for sink in sinks:
        try:
            sink.deliver(notification)
        except Exception as exc:
            failed += 1
            name = getattr(sink, "name", repr(sink))
            if failures is not None:
                failures[name] += 1
            log.warning("notification sink %s failed: %s", name, exc)
    return failed


class MonitoringServer:
    """Holds the service-record table, guarded by the store's lock, and drives polls end to end."""

    def __init__(
        self,
        hosts,
        clusters=(),
        sinks=(),
        store: Store | None = None,
        *,
        prefix: str = DEFAULT_PREFIX,
        clock=time.time,
        fetch=tcp_fetch,
    ):
        """``fetch(cfg) -> bytes`` reads one host's payload; it signals an
        unreachable host with OSError (or ValueError for a bad address).

        Hosts and clusters share one record table and one series namespace,
        so every name must be unique across both; a repeat raises ValueError,
        and so does a ``prefix`` that is not a valid series path.
        """
        if not valid_series(prefix):
            raise ValueError(f"prefix {prefix!r} is not a valid series path")
        hosts = tuple(hosts)
        self.hosts = {h.name: h for h in hosts}
        self.clusters = tuple(clusters)
        uses = Counter([h.name for h in hosts] + [c.name for c in self.clusters])
        repeated = sorted(name for name, n in uses.items() if n > 1)
        if repeated:
            raise ValueError(f"host or cluster name used more than once: {', '.join(repeated)}")
        self.sinks = tuple(sinks)
        self.store = store if store is not None else Store()
        self.prefix = prefix
        self.clock = clock
        self.fetch = fetch
        # How old, in seconds, a record of each host or cluster may be before it is stale.
        # A cluster's record, refreshed on every member poll, ages at its fastest member's interval.
        limits = {h.name: STALE_AFTER_INTERVALS * h.poll_interval_s for h in hosts}
        self._stale_after = limits | {
            c.name: min((limits[m] for m in c.members if m in limits), default=DEFAULT_STALE_AFTER_S)
            for c in self.clusters
        }
        # Each host's clusters in configured order, and each cluster's member keys in
        # tie-break order with their age limits, worked out once instead of on every poll.
        self._clusters_of: dict[str, list[ClusterServiceConfig]] = {}
        self._members = {}
        for c in self.clusters:
            members = dict.fromkeys(c.members)
            for member in members:
                self._clusters_of.setdefault(member, []).append(c)
            self._members[c.name] = (
                c, tuple(((m, c.service), self._stale_after.get(m, DEFAULT_STALE_AFTER_S)) for m in sorted(members))
            )
        # Each host's previous payload, check line -> result, so a line that has
        # not changed since is not parsed again; one payload per host at most.
        self._memos: dict[str, dict[str, CheckResult]] = {h.name: {} for h in hosts}
        self.sink_failures: Counter = Counter()
        self._records: dict[tuple[str, str], ServiceRecord] = {}
        self._poll_counts: Counter = Counter()
        self._host_down_counts: Counter = Counter()
        self.samples_rejected = 0

    # -- polling ---------------------------------------------------------

    def poll_host(self, cfg: HostConfig) -> "AgentPayload | HostDown":
        """One poll transaction: fetch the payload bytes, then parse them,
        reusing the results of the lines the host's last payload also held."""
        try:
            raw = self.fetch(cfg)
        except (OSError, ValueError) as exc:
            return HostDown(cfg.name, str(exc) or type(exc).__name__)
        try:
            return parse_agent_payload(raw, self._memos.get(cfg.name))
        except EmptyPayload:
            return HostDown(cfg.name, "empty payload")

    def apply_payload(self, payload: AgentPayload, host: str) -> list[Notification]:
        """Apply one payload: update records, write metrics, emit transitions."""
        return self._record(host, payload.results)

    def _record(self, host: str, results) -> list[Notification]:
        """Record ``results`` under ``host`` and write their perfdata, in one
        hold of the store's lock, so each series is written in its record's order.
        A service repeated in ``results`` is judged once, by its last result."""
        with self.store.lock:
            now = self.clock()
            t = int(now)
            notifications: list[Notification] = []
            records = self._records
            for result in {r.service: r for r in results}.values():
                service = result.service
                old = records.get((host, service))
                if old is None:
                    records[host, service] = ServiceRecord(result, now)
                    continue
                if old.last_result.state != result.state:
                    prev = old.last_result.state
                    notifications.append(Notification(t, host, service, prev, result.state, result.summary))
                # Records never leave this table, so one is updated in place.
                old.last_result, old.last_seen_t, old.stale = result, now, False
            prefix = self.prefix
            self.flush_metrics([MetricSample(_series_name(prefix, host, r.service, p.key), t, p.value)
                                for r in results for p in r.perfdata])
        return notifications

    def mark_host_stale(self, host: str) -> None:
        with self.store.lock:
            for (h, _), record in self._records.items():
                if h == host:
                    record.stale = True

    def service_stale(self, host: str, service: str, now: float | None = None) -> bool:
        with self.store.lock:
            record = self._records.get((host, service))
            if record is None:
                return True
            age = (self.clock() if now is None else now) - record.last_seen_t
            return record.stale or age > self._stale_after.get(host, DEFAULT_STALE_AFTER_S)

    # -- clusters --------------------------------------------------------

    def cluster_state(self, cluster: ClusterServiceConfig) -> CheckResult:
        """Freshest non-stale member's result; UNKNOWN when nobody is fresh.

        Ties on freshness go to the lexicographically smallest host so the
        choice is deterministic. A cluster the server was not built with
        raises ValueError.
        """
        now = self.clock()
        known, members = self._members.get(cluster.name, (None, ()))
        if known is not cluster and known != cluster:
            raise ValueError(f"cluster {cluster.name!r} is not one of this server's clusters")
        with self.store.lock:
            best: ServiceRecord | None = None
            records = self._records
            for key, stale_after in members:
                record = records.get(key)
                # service_stale, with the member's limit looked up once
                if record is None or record.stale or now - record.last_seen_t > stale_after:
                    continue
                if best is None or record.last_seen_t > best.last_seen_t:
                    best = record
        if best is None:
            return CheckResult(CheckState.UNKNOWN, cluster.service, [], "no fresh member report")
        return best.last_result

    def evaluate_cluster(self, cluster: ClusterServiceConfig) -> list[Notification]:
        """Re-evaluate one cluster service and record it under the cluster name;
        one hold of the store's lock spans both, so an older evaluation never lands last."""
        with self.store.lock:
            return self._record(cluster.name, [self.cluster_state(cluster)])

    # -- the full poll transaction ----------------------------------------

    def process_host(self, cfg: HostConfig) -> list[Notification]:
        """Poll one host with no lock held, then apply the whole state change
        in one hold of the store's lock; sinks are called after it ends."""
        got = self.poll_host(cfg)
        with self.store.lock:
            self._poll_counts[cfg.name] += 1
            if isinstance(got, HostDown):
                self._host_down_counts[cfg.name] += 1
                log.debug("host %s down: %s", cfg.name, got.reason)
                self.mark_host_stale(cfg.name)
                notifications = []
            else:
                notifications = self.apply_payload(got, cfg.name)
            for cluster in self._clusters_of.get(cfg.name, ()):
                notifications.extend(self.evaluate_cluster(cluster))
        for n in notifications:
            dispatch(n, self.sinks, self.sink_failures)
        return notifications

    def flush_metrics(self, samples: list[MetricSample]) -> None:
        """Write ``samples`` to the store in order; a sample the store
        refuses is logged and counted in ``samples_rejected``, and the
        rest are still written. The caller holds the store's lock."""
        write = self.store.write
        for sample in samples:
            try:
                write(sample)
            except ValueError as exc:  # TooOld, NonFiniteValue or a bad name
                self.samples_rejected += 1
                log.warning("store refused %s: %s", sample.series, exc)

    @property
    def poll_counts(self) -> dict[str, int]:
        with self.store.lock:
            return dict(self._poll_counts)

    @property
    def host_down_counts(self) -> dict[str, int]:
        with self.store.lock:
            return dict(self._host_down_counts)

    def records_snapshot(self) -> dict[tuple[str, str], CheckResult]:
        with self.store.lock:
            return {key: record.last_result for key, record in self._records.items()}

    # -- scheduling --------------------------------------------------------

    def run(self, stop: threading.Event, sleep=time.sleep) -> None:
        """Poll every host on its own cadence until ``stop`` is set.

        A host is polled at start, then at each multiple of its poll interval,
        the start of its slot, so a late wake-up never delays the polls after
        it. Each poll runs on its own thread; a host whose last poll is still
        running when it falls due again is skipped, so a stuck host holds one
        thread and never delays the others. The store is flushed to disk once
        per shortest poll interval, so a killed server loses at most that much
        data. Returns once every poll thread has ended.
        """
        if not self.hosts:
            raise ValueError("no hosts configured")
        last_poll: dict[str, threading.Thread] = {}  # touched by this thread only
        next_due = {name: self.clock() for name in self.hosts}
        checkpoint_s = min(h.poll_interval_s for h in self.hosts.values())
        next_checkpoint = self.clock() + checkpoint_s
        quantum = max(0.05, min(1.0, checkpoint_s / 4))

        def work(cfg: HostConfig):
            try:
                self.process_host(cfg)
            except Exception:
                log.exception("poll of %s failed", cfg.name)

        while not stop.is_set():
            now = self.clock()
            for name, cfg in self.hosts.items():
                if now < next_due[name] or (name in last_poll and last_poll[name].is_alive()):
                    continue
                next_due[name] = now - now % cfg.poll_interval_s + cfg.poll_interval_s
                last_poll[name] = threading.Thread(target=work, args=(cfg,), name=f"poll-{name}", daemon=True)
                last_poll[name].start()
            if now >= next_checkpoint:
                next_checkpoint = now + checkpoint_s
                try:
                    self.store.flush()
                except OSError:
                    log.exception("store checkpoint failed; retrying at the next one")
            sleep(quantum)
        for thread in last_poll.values():
            thread.join()
