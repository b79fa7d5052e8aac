"""Acceptance gate: one test per contract criterion, at the stated tolerances.

Each test prints a single ``[acceptance N] PASS/FAIL`` line (visible in the
captured output, while the ``pytest -v`` row doubles as the machine-readable
verdict). The demo scenario is run once per session and shared.
"""

import functools
import json
import random
import threading
import time
from pathlib import Path

import pytest

from gridwatch.agent import AgentConfig, AgentServer, check_power
from gridwatch.model import (
    AgentPayload,
    CheckResult,
    CheckState,
    MetricSample,
    Perfdata,
    parse_agent_payload,
    parse_check_line,
    serialize_agent_payload,
    serialize_check_line,
)
from gridwatch.report import EmptyWindow, availability, contractual_report, detect_dips
from gridwatch.server import HostConfig, MonitoringServer
from gridwatch.sim import (
    SIM_EPOCH,
    ClusterShape,
    Event,
    EventKind,
    Scenario,
    StackConfig,
    expected_system_power_w,
    load_scenario,
    run,
    sources_at,
)
from gridwatch.tsdb import Store, TooOld

from reference_impls import FakeTime, FlatStore, column, per_second_availability

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(n, desc):
    """Print one unambiguous verdict line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {n}] FAIL  {desc}")
                raise
            print(f"[acceptance {n}] PASS  {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="session")
def demo_run():
    scenario = load_scenario(SCENARIOS / "demo.scn")
    started = time.monotonic()
    result = run(scenario)  # default stack: 60 s polls, in-memory store
    wall_s = time.monotonic() - started
    return result, wall_s


@criterion(1, "demo scenario: <60s wall, login availability 99.40+-0.05, 5 dips at injected ticks")
def test_criterion_1_demo_scenario_report_and_dips(demo_run):
    result, wall_s = demo_run
    assert wall_s < 60.0, f"demo run took {wall_s:.1f}s"

    report = contractual_report(result.store, result.report_cfg, result.window)
    target_pct = 100.0 * 167 / 168  # one lost hour in seven days
    assert abs(report.login_availability_pct - target_pct) <= 0.05, (
        f"login availability {report.login_availability_pct:.3f}% vs {target_pct:.3f}%"
    )

    interval, points = result.store.read("hpc.admin.power.system", *result.window)
    dips = detect_dips(points)
    injected_starts = [SIM_EPOCH + 5 * tick for tick in (88000, 90400, 92800, 95200, 97600)]
    assert len(dips) == len(injected_starts), f"expected 5 dips, found {len(dips)}"
    for dip, expected in zip(dips, injected_starts):
        assert abs(dip.start_t - expected) <= interval, (
            f"dip at {dip.start_t} not within one slot of {expected}"
        )


@criterion(2, "availability equals per-second oracle within 0.01pp on 200 random schedules")
def test_criterion_2_availability_matches_per_second_oracle():
    rng = random.Random(987_654_321)
    interval, day = 60, 86_400
    is_up = lambda v: v >= 1.0  # noqa: E731

    for case in range(200):
        base = 999_999_960 + rng.randrange(0, 365) * day
        points, t = [], base
        while len(points) < day // interval:
            value = rng.choice([1.0, 1.0, 1.0, 0.0, 0.0, None])
            for _ in range(min(rng.randrange(1, 40), day // interval - len(points))):
                points.append((t, value))
                t += interval
        w0 = base + rng.randrange(0, day // 2)
        w1 = w0 + rng.randrange(1_800, base + day - w0)
        for gaps_as_down in (False, True):
            oracle = per_second_availability(
                points, is_up, (w0, w1), interval, gaps_as_down=gaps_as_down
            )
            if oracle is None:
                with pytest.raises(EmptyWindow):
                    availability(column(points, interval), 1.0, (w0, w1), gaps_as_down=gaps_as_down)
                continue
            got = availability(column(points, interval), 1.0, (w0, w1), gaps_as_down=gaps_as_down)
            assert abs(got.pct - oracle) <= 0.01, (
                f"case {case} gaps_as_down={gaps_as_down}: {got.pct} vs oracle {oracle}"
            )


@criterion(3, "store reads equal the flat-list oracle over 10,000 randomized writes")
def test_criterion_3_store_matches_flat_list_oracle():
    rng = random.Random(424_242)
    archives = ((10, 360), (60, 240), (300, 96))
    store = Store(default_retention="10s:1h,1m:4h,5m:8h")
    flat = FlatStore(archives)
    series = "acc.tsdb.rand.v"
    t = 50_000_400

    def compare_reads():
        latest = max(flat.flat, default=t)
        for from_t, to_t in [
            (latest - 3_000, latest + 10),       # finest archive
            (latest - 12_000, latest + 10),      # middle archive
            (latest - 28_000, latest + 10),      # coarsest archive
            (t - 600, latest + 300),             # full span
        ]:
            if from_t >= to_t:
                continue
            got_interval, got = store.read(series, from_t, to_t)
            want_interval, want = flat.read(from_t, to_t)
            assert got_interval == want_interval
            assert [p[0] for p in got] == [p[0] for p in want]
            for (_, gv), (_, wv) in zip(got, want):
                if wv is None or got_interval == archives[0][0]:
                    assert gv == wv
                else:
                    assert gv == pytest.approx(wv, rel=1e-9)

    for i in range(10_000):
        jump = rng.random()
        if jump < 0.90:
            t += 10
        elif jump < 0.97:
            t -= rng.randrange(1, 300) * 10  # rewrite the recent past
        else:
            t += rng.randrange(2, 80) * 10  # leave a gap
        value = rng.uniform(-1e6, 1e6)
        if flat.write(t, value):
            store.write(MetricSample(series, t, value))
        else:
            with pytest.raises(TooOld):
                store.write(MetricSample(series, t, value))
            t = max(flat.flat)
        if i % 2_500 == 2_499:
            compare_reads()
    compare_reads()

    # Mean preservation: every fully-populated coarse slot is exactly the
    # mean of the fine points it covers.
    checked = 0
    latest = max(flat.flat)
    for interval, points_n in archives[1:]:
        read_from = latest - interval * (points_n - 2)
        got_interval, got = store.read(series, max(read_from, 0), latest + interval)
        if got_interval != interval:
            continue
        for slot_t, value in got:
            members = flat.coarse_members(interval, slot_t)
            if value is None or len(members) < interval // archives[0][0]:
                continue
            assert value == pytest.approx(sum(members) / len(members), rel=1e-12)
            checked += 1
    assert checked > 0, "no fully-populated coarse slot was exercised"


SAFE_KEY = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
SAFE_WORDS = ["disk", "ok", "93%", "rebooting...", "power=high", "(cab 3)", "läuft", "n/a"]


@criterion(4, "10,000 results and their payloads round-trip; parser survives 1,000 fuzzed blobs")
def test_criterion_4_protocol_round_trip_and_fuzz():
    rng = random.Random(31_337)

    def rand_number():
        if rng.random() < 0.4:
            return float(rng.randrange(-10**9, 10**9))
        return rng.uniform(-1e12, 1e12)

    def rand_perf():
        key = "".join(rng.choice(SAFE_KEY) for _ in range(rng.randrange(1, 13)))
        slots = [rand_number() if rng.random() < 0.5 else None for _ in range(4)]
        return Perfdata(key, rand_number(), *slots)

    def rand_result():
        service = "".join(
            rng.choice(SAFE_KEY + "./:") for _ in range(rng.randrange(1, 17))
        )
        return CheckResult(
            state=CheckState(rng.randrange(4)),
            service=service,
            perfdata=[rand_perf() for _ in range(rng.randrange(0, 4))],
            summary=" ".join(rng.sample(SAFE_WORDS, rng.randrange(0, 4))),
        )

    batch = []
    for i in range(10_000):
        result = rand_result()
        assert parse_check_line(serialize_check_line(result)) == result
        batch.append(result)
        if len(batch) == 20:
            payload = AgentPayload("acceptance/1.0", 1_700_000_000 + i, batch)
            assert parse_agent_payload(serialize_agent_payload(payload)) == payload
            batch = []

    for _ in range(1_000):
        blob = rng.randbytes(rng.randrange(1, 400))
        if rng.random() < 0.3:
            blob = b"<<<meta>>>\n" + blob + b"\n<<<local>>>\n" + blob
        parse_agent_payload(blob)  # any outcome but an unhandled crash


@criterion(5, "check_power system value equals the generator-side sum on 1,000 sampled ticks")
def test_criterion_5_power_summation_identity():
    scenario = load_scenario(SCENARIOS / "demo.scn")
    step = scenario.duration_ticks // 1_000
    cabinets = scenario.shape.cabinet_ids()
    for tick in range(0, 1_000 * step, step):
        result = check_power(sources_at(scenario, tick), AgentConfig(cabinets=cabinets))
        system = next(p.value for p in result.perfdata if p.key == "system")
        assert system == expected_system_power_w(scenario, tick), f"tick {tick}"


def _login_scenario(hosts):
    return Scenario(
        name="outage",
        seed=9,
        tick_s=5,
        duration_ticks=1_440,
        shape=ClusterShape(cabinets=2, rectifiers_per_cabinet=2, nodes=16, login_hosts=4),
        events=(Event(EventKind.LOGIN_OUTAGE, 360, 1_080, hosts=hosts),),
    )


@criterion(6, "cluster login series gapless with 3/4 hosts down; UNKNOWN + breach with 4/4")
def test_criterion_6_cluster_service_persistence():
    stack = StackConfig(poll_every_ticks=12)
    series = "hpc.login_cluster.login.login_up"

    survivor = run(_login_scenario(("login1", "login2", "login3")), stack, store=Store(default_retention="1m:1d"))
    _, points = survivor.store.read(series, *survivor.window)
    assert points and all(v == 1.0 for _, v in points), (
        "cluster series must stay fully populated while one member survives"
    )

    states = {}

    def spy(tick, monitor):
        if tick in (120, 720, 1_380):
            cluster = next(c for c in monitor.clusters if c.name == "login_cluster")
            states[tick] = monitor.cluster_state(cluster).state

    total = run(_login_scenario(()), stack, store=Store(default_retention="1m:1d"), on_tick=spy)
    assert states[120] is CheckState.OK
    assert states[720] is CheckState.UNKNOWN, "mid-outage the cluster must read UNKNOWN"
    assert states[1_380] is CheckState.OK
    report = contractual_report(total.store, total.report_cfg, total.window)
    assert any(b.kind == "login-no-data" for b in report.breaches), (
        f"no login-no-data breach in {[(b.start_t, b.end_t, b.kind) for b in report.breaches]}"
    )


@criterion(7, "a scripted 7-transition sequence yields exactly 7 schema-valid notifications")
def test_criterion_7_notification_exactness():
    sequence = [
        CheckState.OK, CheckState.CRIT, CheckState.OK, CheckState.WARN,
        CheckState.CRIT, CheckState.UNKNOWN, CheckState.OK, CheckState.CRIT,
    ]
    srv = MonitoringServer(
        [HostConfig("h1", "127.0.0.1:1")], store=Store(default_retention="1m:1h")
    )
    notifications = []
    for i, state in enumerate(sequence):
        payload = AgentPayload(
            "test/1", 1_700_000_000 + 60 * i, [CheckResult(state, "svc", [], f"step {i}")]
        )
        notifications.extend(srv.apply_payload(payload, "h1"))

    transitions = [(a, b) for a, b in zip(sequence, sequence[1:]) if a is not b]
    assert len(notifications) == 7
    assert [(n.old_state, n.new_state) for n in notifications] == transitions
    for n in notifications:
        doc = json.loads(n.to_json())
        assert set(doc) == {"t", "host", "service", "old", "new", "summary"}
        assert doc["old"] in CheckState.__members__ and doc["new"] in CheckState.__members__
        assert n.to_json() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


@criterion(8, "one dead host of four never disturbs the others' 10-11 polls per 10 minutes")
def test_criterion_8_scheduler_isolates_dead_hosts():
    fake = FakeTime(2_000_000.0)
    text = serialize_agent_payload(
        AgentPayload("test/1", 7, [CheckResult(CheckState.OK, "beat", [Perfdata("up", 1.0)])])
    )
    agents = [AgentServer(("127.0.0.1", 0), lambda: text) for _ in range(3)]
    threads = [
        threading.Thread(target=a.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
        for a in agents
    ]
    for thread in threads:
        thread.start()
    try:
        hosts = [
            HostConfig(f"live{i}", "127.0.0.1:%d" % a.address[1], poll_interval_s=60)
            for i, a in enumerate(agents)
        ]
        with Store(default_retention="1m:1h") as store:
            dead_port = AgentServer(("127.0.0.1", 0), lambda: "")
            dead_addr = "127.0.0.1:%d" % dead_port.address[1]
            dead_port.server_close()  # a port that refuses connections
            hosts.append(HostConfig("dead", dead_addr, poll_interval_s=60, connect_timeout_s=0.5))
            srv = MonitoringServer(hosts, store=store, clock=fake.time)
            stop = threading.Event()
            fake.on_advance = lambda now: stop.set() if now >= fake.start + 600 else None
            srv.run(stop, sleep=fake.sleep)
    finally:
        for agent in agents:
            agent.shutdown()
            agent.server_close()
        for thread in threads:
            thread.join(timeout=5)

    counts = srv.poll_counts
    for name in ("live0", "live1", "live2"):
        assert 10 <= counts[name] <= 11, f"{name} polled {counts[name]} times"
        assert srv.host_down_counts.get(name, 0) == 0
    assert srv.host_down_counts["dead"] == counts["dead"] > 0
