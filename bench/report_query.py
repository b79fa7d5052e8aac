"""Workload ``report-query``: the read side, with no ingest while timed.

Set-up writes a store shaped like the demo's (75 series, one week of
one-minute slots, the simulator's retention) through ``Store.write`` and
``Store.flush``, from a seeded schedule: a node-count series with
below-threshold stretches and gaps, a login flag with outages and gaps, a
power series with injected dips, and filler series like the demo's; it
is made ``SETUP_REPEATS`` times and ``setup_s`` is the median. The timed
part is cut in four: each quarter opens with a cold ``gridwatch
report --json --svg`` invocation, which opens the store afresh (counting
gaps as down in every other one), and fills the rest of its share with API
requests from one client in a closed loop over the warm set-up store:
series windows of 1 h, 1 d and 7 d, and the 7 d report. The speed probe
runs every ``PROBE_EVERY`` rotations of the client, outside the time of
the API requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import threading
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field

import oracle
from common import (Outcome, SpeedProbe, dir_bytes, http_get_json, latency_summary, peak_rss_mb,
                    remove_dir, scratch_dir)

T0 = 1_609_459_200  # 2021-01-01T00:00:00Z, the simulator's epoch
INTERVAL = 60
SLOTS = 7 * 24 * 60
NODE = "hpc.node_cluster.node_state.avail_standard"
LOGIN = "hpc.login_cluster.login.login_up"
POWER = "hpc.admin.power.system"
NODES = 512
THRESHOLD = 481
STALENESS_S = 600
DIPS = 5
# Cold reports counting gaps as down or not, one per share of the timed
# part; ``report_cold_s`` is their median. A fixed count keeps the peak memory
# the same whatever the machine's speed.
COLD_MODES = (True, False, True, False)
API_KINDS = (("series", 3600), ("series", 86400), ("series", 7 * 86400), ("report", 7 * 86400))
PROBE_EVERY = 1  # API rotations between two samples of the speed probe
SETUP_REPEATS = 3  # store builds; setup_s is their median and the API uses the last


@dataclass
class Schedule:
    slots: int
    values: dict[str, dict[int, float]] = field(default_factory=dict)  # series -> slot t -> value
    dips: list[tuple[int, int]] = field(default_factory=list)  # (first slot, last slot)

    @property
    def window(self) -> tuple[int, int]:
        return T0, T0 + self.slots * INTERVAL


def _runs(rng: random.Random, slots: int, count: int, min_len: int, max_len: int,
          taken: set[int]) -> list[range]:
    """Disjoint slot ranges, clear of each other and of the window edges."""
    out = []
    while len(out) < count:
        length = rng.randint(min_len, max_len)
        start = rng.randrange(30, slots - length - 30)
        span = range(start, start + length)
        if any(k in taken for k in range(start - 15, start + length + 15)):
            continue
        taken.update(span)
        out.append(span)
    return out


def make_schedule(seed: int, n_slots: int = SLOTS) -> Schedule:
    rng = random.Random(seed)
    sched = Schedule(n_slots)
    slots = [T0 + k * INTERVAL for k in range(n_slots)]

    taken: set[int] = set()
    low = _runs(rng, n_slots, 5, 3, 120, taken)
    node_gaps = _runs(rng, n_slots, 3, 2, 60, taken)
    node = {}
    for k, t in enumerate(slots):
        node[t] = float(NODES - rng.choice((0, 0, 0, 2, 15)))
    for span in low:
        for k in span:
            node[slots[k]] = float(rng.randint(440, THRESHOLD - 1))
    for span in node_gaps:
        for k in span:
            del node[slots[k]]
    sched.values[NODE] = node

    taken = set()
    outages = _runs(rng, n_slots, 4, 1, 90, taken)
    login_gaps = _runs(rng, n_slots, 3, 2, 60, taken)
    login = {t: 1.0 for t in slots}
    for span in outages:
        for k in span:
            login[slots[k]] = 0.0
    for span in login_gaps:
        for k in span:
            del login[slots[k]]
    sched.values[LOGIN] = login

    # Dips are short and deep, far apart, on a flat noisy baseline.
    base = 200.0 * NODES
    power = {t: base * (1.0 + rng.uniform(-0.01, 0.01)) for t in slots}
    starts = sorted(rng.sample(range(1, n_slots // 200 - 1), DIPS))
    for s in starts:
        first = s * 200 + rng.randrange(50)
        last = first + rng.randint(1, 6) - 1
        for k in range(first, last + 1):
            power[slots[k]] = base * 0.5 * (1.0 + rng.uniform(-0.01, 0.01))
        sched.dips.append((slots[first], slots[last]))
    sched.values[POWER] = power

    filler = [f"hpc.admin.power.cab_x{1000 + c}" for c in range(4)]
    filler += [f"hpc.admin.power.volt_x{1000 + c}_{r}" for c in range(4) for r in range(8)]
    for h in range(1, 5):
        filler += [f"hpc.login{h}.{svc}" for svc in (
            "node_state.avail_standard", "node_state.down_standard", "node_state.state_standard_alloc",
            "node_state.state_standard_idle", "login.login_up", "dns.dns_ok", "memory.mem_used_pct",
            "memory.mem_free_pct")]
    filler += ["hpc.monitor.buffer_dropped", "hpc.node_cluster.node_state.down_standard",
               "hpc.node_cluster.node_state.state_standard_alloc",
               "hpc.node_cluster.node_state.state_standard_idle"]
    for name in filler:
        level = rng.uniform(1.0, 1000.0)
        sched.values[name] = {t: level + rng.uniform(-1.0, 1.0) for t in slots}
    return sched


def build_store(sched: Schedule, root, probe: SpeedProbe | None = None):
    """Write the schedule and flush it; the store stays open for the API.

    With a ``probe``, it is sampled after each series."""
    from gridwatch.model import MetricSample
    from gridwatch.sim import StackConfig
    from gridwatch.tsdb import Store

    store = Store(root, default_retention=StackConfig().retention)
    for name, values in sched.values.items():
        for t, v in values.items():
            store.write(MetricSample(name, t, v))
        if probe is not None:
            probe.sample()
    store.close()
    return store


def cold_report(root, window, svg_path, gaps_as_down: bool) -> tuple[int, str]:
    from gridwatch import cli

    argv = ["report", "--store", str(root), "--from", str(window[0]), "--to", str(window[1]),
            "--node-series", NODE, "--login-series", LOGIN, "--threshold", str(THRESHOLD),
            "--staleness-s", str(STALENESS_S), "--json", "--svg", str(svg_path)]
    if gaps_as_down:
        argv.append("--gaps-as-down")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class ApiCall:
    path: str
    kind: str
    series: str | None
    window: tuple[int, int]
    status: int = 0
    body: object = None
    ms: float = 0.0


def api_rotation(base: str, sched: Schedule, calls: list[ApiCall]) -> None:
    """One request of each API kind; the window and series move on each time."""
    names = [NODE, LOGIN, POWER]
    for kind, span in API_KINDS:
        k = len(calls)
        room = max(INTERVAL, sched.slots * INTERVAL - span + INTERVAL)
        to_t = sched.window[1] - (k * 7 * INTERVAL) % room
        window = (to_t - span, to_t)
        series = names[(k // len(API_KINDS)) % len(names)] if kind == "series" else None
        path = (f"/api/v1/series/{series}" if series else "/api/v1/report") + \
            f"?from={window[0]}&to={window[1]}"
        call = ApiCall(path, kind, series, window)
        t0 = time.perf_counter()
        try:
            call.status, call.body = http_get_json(base, path)
        except OSError as exc:
            call.status, call.body = -1, str(exc)
        call.ms = (time.perf_counter() - t0) * 1e3
        calls.append(call)


def run(seed: int, seconds: float, layers=None, n_slots: int = SLOTS) -> Outcome:
    setup_probe = SpeedProbe()
    setups = []
    root = None

    def set_up():
        sched = make_schedule(seed, n_slots)
        return sched, build_store(sched, root, setup_probe)

    try:
        for _ in range(SETUP_REPEATS):
            if root is not None:  # the last build is released before the next one starts
                sched = store = None
                remove_dir(root)
            root = scratch_dir("report")
            (sched, store), elapsed, slowdown = setup_probe.around(set_up)
            setups.append(elapsed / slowdown)
        return _measure(sched, store, root, seconds, layers, statistics.median(setups))
    finally:
        if root is not None:
            remove_dir(root)


def _measure(sched, store, root, seconds, layers, setup_s) -> Outcome:
    from gridwatch.report import ApiServer, ReportConfig

    problems: list[str] = []
    cold: list[tuple[bool, int, str, float]] = []
    calls: list[ApiCall] = []
    svg = root / "report.svg"
    cfg = ReportConfig(NODE, LOGIN, THRESHOLD, staleness_s=STALENESS_S, gaps_as_down=True)
    api = ApiServer(("127.0.0.1", 0), store, cfg)
    thread = threading.Thread(target=api.serve_forever, kwargs={"poll_interval": 0.05}, name="bench-api")
    thread.start()
    base = f"http://127.0.0.1:{api.address[1]}"
    api_s = api_cpu_s = 0.0
    probe = SpeedProbe()
    rotations = 0
    started = time.perf_counter()
    try:
        # Each cold report opens a share of the timed part; API requests fill the rest of it.
        for k, gaps_as_down in enumerate(COLD_MODES, start=1):
            t0 = time.perf_counter()
            code, out = cold_report(root, sched.window, svg, gaps_as_down)
            cold.append((gaps_as_down, code, out, time.perf_counter() - t0))
            if k == 1:
                # The set-up store and one cold open. Later quarters only add
                # heap fragmentation, which varies with the API traffic.
                rss_mb = peak_rss_mb()
            problems += check_svg(svg)
            t0, t0_cpu = time.perf_counter(), time.process_time()
            probed, probed_cpu = probe.spent_s, probe.spent_cpu_s
            while True:
                api_rotation(base, sched, calls)
                rotations += 1
                if rotations % PROBE_EVERY == 0:
                    probe.sample()
                if time.perf_counter() - started >= seconds * k / len(COLD_MODES):
                    break
            api_s += time.perf_counter() - t0 - (probe.spent_s - probed)
            api_cpu_s += time.process_time() - t0_cpu - (probe.spent_cpu_s - probed_cpu)
    finally:
        api.shutdown()
        api.server_close()
        thread.join(timeout=10)
    if layers is not None:
        layers.tracer.enabled = False

    problems += check_cold(cold, sched)
    problems += check_dips(store, sched)
    problems += check_api_calls(calls, sched)

    report_cold = [c[3] for c in cold]
    series_ms = [c.ms for c in calls if c.kind == "series"]
    report_ms = [c.ms for c in calls if c.kind == "report"]
    series = latency_summary("api_series_ms", series_ms)
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "scaled_ops_per_cpu_s": len(calls) / api_cpu_s * probe.slowdown(),
    }
    details = {
        "report_cold_s": statistics.median(report_cold),
        "cold_reports": len(cold),
        **series,
        **latency_summary("api_report_ms", report_ms),
        "api_requests_per_s": len(calls) / api_s,
        "api_requests_per_cpu_s": len(calls) / api_cpu_s,
        "probe_ms_mean": probe.mean_s() * 1e3,
        "api_requests": len(calls),
    }
    failed = sum(1 for c in cold if c[1] != 0) + sum(1 for c in calls if c.status != 200)
    return Outcome(
        attempted=len(cold) + len(calls),
        failed=failed,
        problems=problems,
        end_to_end=end_to_end,
        details=details,
        per_layer=None if layers is None else layers.metrics(
            api_requests=len(calls), api_client_ns=int(sum(c.ms for c in calls) * 1e6),
            bytes_written=dir_bytes(root), job_s=details["report_cold_s"],
            scaled_ops_per_cpu_s=end_to_end["scaled_ops_per_cpu_s"]),
    )


# -- checks ----------------------------------------------------------------------


def expected_report(sched: Schedule, window, gaps_as_down: bool) -> dict:
    return oracle.report(sched.values[NODE], sched.values[LOGIN], window, INTERVAL,
                         threshold=THRESHOLD, staleness_s=STALENESS_S, gaps_as_down=gaps_as_down)


def check_cold(cold, sched: Schedule) -> list[str]:
    problems = []
    want = {g: expected_report(sched, sched.window, g) for g in (True, False)}
    for gaps_as_down, code, out, _ in cold:
        what = f"cold report (gaps_as_down={gaps_as_down})"
        if code != 0:
            problems.append(f"{what} exited {code}")
            continue
        got = json.loads(out.splitlines()[0])
        problems += oracle.report_problems(got, want[gaps_as_down], what)
    return problems


def check_svg(path) -> list[str]:
    try:
        root = ElementTree.parse(path).getroot()
    except (OSError, ElementTree.ParseError) as exc:
        return [f"SVG does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag}"]
    return []


def check_dips(store, sched: Schedule) -> list[str]:
    from gridwatch.report import detect_dips

    _, points = store.read(POWER, *sched.window)
    found = [(d.start_t, d.end_t) for d in detect_dips(points)]
    if found != sched.dips:
        return [f"dips found {found}, injected {sched.dips}"]
    return []


def check_api_calls(calls: list[ApiCall], sched: Schedule) -> list[str]:
    problems = []
    reports: dict[tuple[int, int], dict] = {}
    for call in calls:
        if call.status != 200:
            problems.append(f"{call.path} answered {call.status}: {call.body}")
        elif call.kind == "report":
            if call.window not in reports:
                reports[call.window] = expected_report(sched, call.window, True)
            problems += oracle.report_problems(call.body, reports[call.window], call.path)
        else:
            values = sched.values[call.series]
            wrong = [(t, v) for t, v in call.body["points"] if v != values.get(t)]
            if wrong:
                problems.append(f"{call.path}: {wrong[0][1]} at {wrong[0][0]}, "
                                f"written {values.get(wrong[0][0])}")
    return problems
