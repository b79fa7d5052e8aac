"""Workload ``live-poll``: the production poll path over TCP, no simulator.

Two ``AgentServer`` listeners on 127.0.0.1 serve payload text serialized
during set-up: one wide payload like the admin host's (37 perf values) and
one narrow payload like a login host's (8 perf values). Sixteen host names
share the two listeners. The main thread calls ``process_host`` for every
host, round after round (a closed loop); the injected clock moves one poll
interval per round. A second thread sends series and report requests to an
``ApiServer`` on the same store at a fixed rate (an open loop), timing each
from the moment it was due. After each third of the polling a checkpoint
writes every series to disk and is timed: ``Store.flush()`` twice, and at
the end ``Store.close()``.

Each listener hands out its payloads in the order its hosts are polled, so
host ``j`` of a listener gets payload ``j`` of the current round. Payloads
repeat with period ``CYCLE`` rounds; the schedule in it flips the login and
node states of the narrow hosts every few rounds, so notifications fire.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass, field

import oracle
from common import (Outcome, SpeedProbe, dir_bytes, http_get_json, latency_summary, peak_rss_mb,
                    remove_dir, scratch_dir)

PREFIX = "live"
T0 = 1_704_067_200  # 2024-01-01T00:00:00Z, aligned to every archive interval
INTERVAL = 60
CYCLE = 60
WIDE_HOSTS = [f"admin{i}" for i in (1, 2)]
NARROW_HOSTS = [f"login{i:02d}" for i in range(1, 15)]
CABINETS = [f"x{1000 + i}" for i in range(4)]
RECTIFIERS = 8
NODES = 512
THRESHOLD = 481
DOWN_WARN = 10
API_RATE_PER_S = 10.0
SETUP_REPEATS = 3
PROBE_EVERY = 5  # poll rounds between two samples of the speed probe
CHECKPOINTS = 3  # spread over the polling: two Store.flush() calls, then Store.close()
CLUSTERS = (("login_cluster", "login"), ("node_cluster", "node_state"))


@dataclass
class Schedule:
    """Per-round perf values and states for every host, one cycle long."""

    # values[host][c] = {(service, key): value}; states[host][c] = {service: code}
    values: dict[str, list[dict[tuple[str, str], float]]] = field(default_factory=dict)
    states: dict[str, list[dict[str, int]]] = field(default_factory=dict)

    def value(self, host: str, service: str, key: str, r: int) -> float:
        if host in dict(CLUSTERS):
            host = NARROW_HOSTS[0]  # the cluster republishes its first-polled member
        return self.values[host][r % CYCLE][(service, key)]

    def series(self):
        """Every (series name, host, service, key) the schedule writes."""
        for host in WIDE_HOSTS + NARROW_HOSTS:
            for service, key in self.values[host][0]:
                yield f"{PREFIX}.{host}.{service}.{key}", host, service, key
        for cluster, service in CLUSTERS:
            for svc, key in self.values[NARROW_HOSTS[0]][0]:
                if svc == service:
                    yield f"{PREFIX}.{cluster}.{service}.{key}", cluster, service, key


def _stretches(rng: random.Random, count: int, min_len: int, max_len: int) -> set[int]:
    out: set[int] = set()
    for _ in range(count):
        start = rng.randrange(CYCLE)
        out.update((start + k) % CYCLE for k in range(rng.randint(min_len, max_len)))
    return out


def make_schedule(seed: int) -> Schedule:
    rng = random.Random(seed)
    sched = Schedule()
    for host in WIDE_HOSTS:
        rounds = []
        for _ in range(CYCLE):
            vals = {}
            cab_w = []
            for cab in CABINETS:
                total = 0.0
                for r in range(RECTIFIERS):
                    total += rng.uniform(2400.0, 3600.0)
                    vals[("power", f"volt_{cab}_{r}")] = rng.uniform(53.5, 54.5)
                cab_w.append((cab, total))
            system = 0.0
            for _, w in cab_w:
                system += w
            vals = {("power", "system"): system,
                    **{("power", f"cab_{cab}"): w for cab, w in cab_w}, **vals}
            rounds.append(vals)
        sched.values[host] = rounds
        sched.states[host] = [{"power": 0} for _ in range(CYCLE)]
    for host in NARROW_HOSTS:
        dark = _stretches(rng, 2, 2, 5)
        drained = {c: rng.choice((15, 40)) for c in _stretches(rng, 2, 3, 8)}
        rounds, states = [], []
        for c in range(CYCLE):
            down = drained.get(c, 0)
            up = 0.0 if c in dark else 1.0
            rounds.append({
                ("node_state", "state_standard_alloc"): float(int((NODES - down) * 0.9)),
                ("node_state", "state_standard_idle"): float(NODES - down - int((NODES - down) * 0.9)),
                ("node_state", "down_standard"): float(down),
                ("node_state", "avail_standard"): float(NODES - down),
                ("login", "login_up"): up,
                ("dns", "dns_ok"): 1.0,
                ("memory", "mem_used_pct"): rng.uniform(20.0, 60.0),
                ("memory", "mem_free_pct"): rng.uniform(20.0, 60.0),
            })
            states.append({
                "node_state": 1 if down >= DOWN_WARN else 0,
                "login": 0 if up else 2,
                "dns": 0,
                "memory": 0,
            })
        sched.values[host] = rounds
        sched.states[host] = states
    return sched


def serialize_cycle(sched: Schedule) -> dict[str, list[str]]:
    """Payload text per host and cycle position, through gridwatch's serializer."""
    from gridwatch.model import AgentPayload, CheckResult, CheckState, Perfdata, serialize_agent_payload

    texts = {}
    for host, rounds in sched.values.items():
        texts[host] = []
        for c, vals in enumerate(rounds):
            results = []
            for service, code in sched.states[host][c].items():
                perf = [Perfdata(key, v) for (svc, key), v in vals.items() if svc == service]
                results.append(CheckResult(CheckState(code), service, perf, f"{service} at cycle {c}"))
            texts[host].append(serialize_agent_payload(AgentPayload("bench/1", T0, results)))
    return texts


class _Listener:
    """One AgentServer whose hosts are polled in a fixed order every round."""

    def __init__(self, hosts: list[str], texts: dict[str, list[str]]):
        from gridwatch.agent import AgentServer

        self.hosts = hosts
        self.cycle = [[texts[h][c] for h in hosts] for c in range(CYCLE)]
        self.served = 0
        self.server = AgentServer(("127.0.0.1", 0), self.payload)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05}, name="bench-agent")
        self.thread.start()

    def payload(self) -> str:
        r, j = divmod(self.served, len(self.hosts))
        self.served += 1
        return self.cycle[r % CYCLE][j]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


class _Stack:
    """Everything set-up builds: listeners, monitor, store and API."""

    def __init__(self, seed: int, root):
        from gridwatch.report import ApiServer, ReportConfig
        from gridwatch.server import ClusterServiceConfig, HostConfig, MemorySink, MonitoringServer
        from gridwatch.sim import StackConfig
        from gridwatch.tsdb import Store

        self.sched = make_schedule(seed)
        texts = serialize_cycle(self.sched)
        self.listeners = []
        self.round = 0
        self.store = self.api = None
        try:
            self.listeners = [_Listener(WIDE_HOSTS, texts), _Listener(NARROW_HOSTS, texts)]
            self.hosts = [
                HostConfig(name, f"127.0.0.1:{listener.server.address[1]}", INTERVAL)
                for listener in self.listeners for name in listener.hosts
            ]
            self.store = Store(root, default_retention=StackConfig().retention)
            self.sink = MemorySink()
            self.monitor = MonitoringServer(
                self.hosts,
                clusters=[ClusterServiceConfig(name, tuple(NARROW_HOSTS), svc) for name, svc in CLUSTERS],
                sinks=[self.sink], store=self.store, prefix=PREFIX, clock=self.now,
            )
            self.report_cfg = ReportConfig(
                node_series=f"{PREFIX}.node_cluster.node_state.avail_standard",
                login_series=f"{PREFIX}.login_cluster.login.login_up",
                threshold_nodes=THRESHOLD, staleness_s=600.0, gaps_as_down=True,
            )
            self.api = ApiServer(("127.0.0.1", 0), self.store, self.report_cfg)
            self.api_thread = threading.Thread(target=self.api.serve_forever,
                                               kwargs={"poll_interval": 0.05}, name="bench-api")
            self.api_thread.start()
        except BaseException:
            self.close()
            raise

    def now(self) -> float:
        return float(T0 + self.round * INTERVAL)

    def close(self) -> None:
        if self.api is not None:
            self.api.shutdown()
            self.api.server_close()
            self.api_thread.join(timeout=10)
            self.api = None
        for listener in self.listeners:
            listener.close()
        self.listeners = []


@dataclass
class ApiCall:
    path: str
    kind: str  # "series" | "report"
    series: str | None
    window: tuple[int, int]
    rounds_before: int      # rounds complete when the request was sent
    rounds_after: int = 0   # rounds complete when the answer arrived
    status: int = 0
    body: object = None
    due_ms: float = 0.0   # answer time minus due time
    sent_ns: int = 0      # answer time minus send time


def _api_loop(stack: _Stack, stop: threading.Event, calls: list[ApiCall], base: str,
              errors: list[str]) -> None:
    try:
        _api_requests(stack, stop, calls, base)
    except Exception as exc:  # reported as a failed check, never lost with the thread
        errors.append(f"API client stopped: {type(exc).__name__}: {exc}")
        stop.set()


def _api_requests(stack: _Stack, stop: threading.Event, calls: list[ApiCall], base: str) -> None:
    names = [f"{PREFIX}.{WIDE_HOSTS[0]}.power.system",
             f"{PREFIX}.{NARROW_HOSTS[3]}.memory.mem_used_pct",
             f"{PREFIX}.node_cluster.node_state.avail_standard"]
    started = time.perf_counter()
    k = 0
    while not stop.is_set():
        due = started + k / API_RATE_PER_S
        wait = due - time.perf_counter()
        if wait > 0 and stop.wait(wait):
            break
        kind = ("series", "series", "report")[k % 3]
        span = (3600, 86400)[(k // 3) % 2] if kind == "series" else 86400
        to_t = T0 + stack.round * INTERVAL + INTERVAL
        window = (to_t - span, to_t)
        series = names[k % len(names)] if kind == "series" else None
        path = (f"/api/v1/series/{series}" if series else "/api/v1/report") + \
            f"?from={window[0]}&to={window[1]}"
        call = ApiCall(path, kind, series, window, rounds_before=stack.round)
        sent = time.perf_counter_ns()
        try:
            call.status, call.body = http_get_json(base, path)
        except OSError as exc:
            call.status, call.body = -1, str(exc)
        done = time.perf_counter_ns()
        call.rounds_after = stack.round
        call.due_ms = (done / 1e9 - due) * 1e3
        call.sent_ns = done - sent
        calls.append(call)
        k += 1


def run(seed: int, seconds: float, layers=None) -> Outcome:
    setups, roots = [], []
    stack = None
    setup_probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
            remove_dir(roots[-1])
        roots.append(scratch_dir("live"))
        stack, elapsed, slowdown = setup_probe.around(lambda: _Stack(seed, roots[-1]))
        setups.append(elapsed / slowdown)
    try:
        return _measure(stack, seconds, layers, setups, roots[-1])
    finally:
        stack.close()
        remove_dir(roots[-1])


@dataclass
class Traffic:
    """What the timed loop did: every poll latency, notification and API call."""

    poll_ms: list[float] = field(default_factory=list)
    notes: list = field(default_factory=list)
    calls: list[ApiCall] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    loop_cpu_s: float = 0.0
    probe: SpeedProbe = field(default_factory=SpeedProbe)


def poll_round(stack: _Stack, traffic: Traffic) -> None:
    for host in stack.hosts:
        t0 = time.perf_counter()
        traffic.notes += stack.monitor.process_host(host)
        traffic.poll_ms.append((time.perf_counter() - t0) * 1e3)
    stack.round += 1


def poll_until(stack: _Stack, seconds: float) -> Traffic:
    """Whole poll rounds for ``seconds``, a checkpoint after each third of them.

    The API client runs beside the polls. The checkpoints are two
    ``Store.flush()`` calls and, once the client has stopped, the final
    ``Store.close()``; every round writes every series, so each rewrites
    them all. ``loop_s`` is the time spent polling, checkpoints and the speed
    probe (every ``PROBE_EVERY`` rounds) left out; ``loop_cpu_s`` the
    process's CPU time over the same part, the API client's included.
    """
    traffic = Traffic()
    stop = threading.Event()
    client = threading.Thread(target=_api_loop, name="bench-api-client",
                              args=(stack, stop, traffic.calls,
                                    f"http://127.0.0.1:{stack.api.address[1]}", traffic.errors))
    started, started_cpu = time.perf_counter(), time.process_time()
    checkpoint_cpu_s = 0.0
    try:
        for k in range(1, CHECKPOINTS + 1):
            while time.perf_counter() - started - sum(traffic.checkpoint_s) < seconds * k / CHECKPOINTS:
                poll_round(stack, traffic)
                if stack.round == 1:
                    client.start()
                if stack.round % PROBE_EVERY == 0:
                    traffic.probe.sample()
            if k == CHECKPOINTS:
                stop.set()
                client.join(timeout=60)
            t0, t0_cpu = time.perf_counter(), time.process_time()
            if k < CHECKPOINTS:
                stack.store.flush()
            else:
                stack.store.close()
            traffic.checkpoint_s.append(time.perf_counter() - t0)
            checkpoint_cpu_s += time.process_time() - t0_cpu
    finally:
        stop.set()
        if client.ident is not None:
            client.join(timeout=60)
    traffic.loop_s = (time.perf_counter() - started - sum(traffic.checkpoint_s)
                      - traffic.probe.spent_s)
    traffic.loop_cpu_s = (time.process_time() - started_cpu - checkpoint_cpu_s
                          - traffic.probe.spent_cpu_s)
    return traffic


def _measure(stack: _Stack, seconds: float, layers, setups, root) -> Outcome:
    traffic = poll_until(stack, seconds)
    poll_ms, notes, calls, loop_s = traffic.poll_ms, traffic.notes, traffic.calls, traffic.loop_s
    checkpoint_s = statistics.median(traffic.checkpoint_s)
    rss_mb = peak_rss_mb()
    if layers is not None:
        layers.tracer.enabled = False

    rounds = stack.round
    polls = len(poll_ms)
    problems = traffic.errors + check_live(stack, rounds, notes, calls)
    failed_polls = sum(stack.monitor.host_down_counts.values())
    failed_api = sum(1 for c in calls if c.status != 200)
    series_ms = [c.due_ms for c in calls if c.kind == "series"]
    report_ms = [c.due_ms for c in calls if c.kind == "report"]
    poll = latency_summary("poll_ms", poll_ms)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "scaled_ops_per_cpu_s": polls / traffic.loop_cpu_s * traffic.probe.slowdown(),
    }
    details = {
        "polls_per_s": polls / loop_s,
        "polls_per_cpu_s": polls / traffic.loop_cpu_s,
        "probe_ms_mean": traffic.probe.mean_s() * 1e3,
        **poll,
        "checkpoint_s": checkpoint_s,
        **latency_summary("api_series_ms", series_ms),
        **latency_summary("api_report_ms", report_ms),
        "api_late_ms_max": max((c.due_ms - c.sent_ns / 1e6 for c in calls), default=0.0),
        "rounds": rounds,
        "polls": polls,
        "api_requests": len(calls),
        "series": len(stack.store.list_series()),
        "notifications": len(notes),
    }
    return Outcome(
        attempted=polls + len(calls),
        failed=failed_polls + failed_api,
        problems=problems,
        end_to_end=end_to_end,
        details=details,
        per_layer=None if layers is None else layers.metrics(
            api_requests=len(calls), api_client_ns=sum(c.sent_ns for c in calls),
            bytes_written=dir_bytes(root), job_s=checkpoint_s,
            scaled_ops_per_cpu_s=end_to_end["scaled_ops_per_cpu_s"]),
    )


# -- checks ----------------------------------------------------------------------


def expected_notifications(sched: Schedule, rounds: int) -> list[tuple]:
    out = []
    for host in WIDE_HOSTS + NARROW_HOSTS:
        for r in range(1, rounds):
            before, now = sched.states[host][(r - 1) % CYCLE], sched.states[host][r % CYCLE]
            for service, code in now.items():
                if before[service] != code:
                    out.append((T0 + r * INTERVAL, host, service, before[service], code))
    first = NARROW_HOSTS[0]
    for cluster, service in CLUSTERS:
        out += [(t, cluster, svc, a, b) for t, h, svc, a, b in out
                if h == first and svc == service]
    return sorted(out)


def expected_writes(sched: Schedule, rounds: int) -> int:
    per_round = sum(len(sched.values[h][0]) for h in WIDE_HOSTS + NARROW_HOSTS)
    cluster = sum(1 for svc, _ in sched.values[NARROW_HOSTS[0]][0] if svc in dict(CLUSTERS).values())
    return rounds * (per_round + len(NARROW_HOSTS) * cluster)


def check_live(stack: _Stack, rounds: int, notes, calls: list[ApiCall]) -> list[str]:
    """Every check of the live-poll run; returns what is wrong, if anything."""
    sched, store, monitor = stack.sched, stack.store, stack.monitor
    problems: list[str] = []
    if monitor.host_down_counts:
        problems.append(f"polls returned HostDown: {monitor.host_down_counts}")

    window = (T0, T0 + rounds * INTERVAL)
    for name, host, service, key in sched.series():
        _, points = store.read(name, *window)
        want = [(T0 + r * INTERVAL, sched.value(host, service, key, r)) for r in range(rounds)]
        if points != want:
            bad = next(i for i, (p, w) in enumerate(zip(points, want)) if p != w)
            problems.append(f"{name} reads {points[bad]} at round {bad}, served {want[bad]}")
    if store.write_count != expected_writes(sched, rounds):
        problems.append(f"{store.write_count} samples written, {expected_writes(sched, rounds)} served")

    got = sorted((n.t, n.host, n.service, n.old_state.value, n.new_state.value) for n in notes)
    want = expected_notifications(sched, rounds)
    if got != want:
        first = next((a, b) for a, b in zip(got + [None], want + [None]) if a != b)
        problems.append(f"{len(got)} notifications, {len(want)} state flips in the schedule; "
                        f"first difference (got, want) {first}")

    for call in calls:
        problems += check_api_call(call, sched)
    return problems


def _round_values(sched: Schedule, host: str, service: str, key: str, rounds: int) -> dict[int, float]:
    return {T0 + r * INTERVAL: sched.value(host, service, key, r) for r in range(rounds)}


def check_api_call(call: ApiCall, sched: Schedule) -> list[str]:
    """An answer matches the schedule for some round count it could have seen.

    Rounds finished before the request was sent must all be visible; the
    round in progress when it was answered may be partly visible.
    """
    if call.status != 200:
        return [f"{call.path} answered {call.status}: {call.body}"]
    possible = range(call.rounds_before, call.rounds_after + 2)
    if call.kind == "series":
        host, service, key = call.series.split(".")[1:]
        points = call.body["points"]
        for t, v in points:
            r = (t - T0) // INTERVAL
            seen = 0 <= r < call.rounds_after + 1
            if v is None and 0 <= r < call.rounds_before:
                return [f"{call.path}: round {r} missing"]
            if v is not None and (not seen or v != sched.value(host, service, key, r)):
                return [f"{call.path}: {v} at round {r} was not served"]
        return []
    # The node and login halves are read separately, so each may have seen
    # its own round count.
    node = [oracle.node_half(_round_values(sched, "node_cluster", "node_state", "avail_standard", n),
                             call.window, INTERVAL, threshold=THRESHOLD, staleness_s=600.0,
                             gaps_as_down=True) for n in possible]
    login = [oracle.login_half(_round_values(sched, "login_cluster", "login", "login_up", n),
                               call.window, INTERVAL, staleness_s=600.0, gaps_as_down=True)
             for n in possible]
    for n in node:
        for g in login:
            if not oracle.report_problems(call.body, oracle.document(n, g), call.path):
                return []
    return [f"{call.path}: report matches no round count in {list(possible)}: {call.body}"]
