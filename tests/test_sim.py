"""Deterministic cluster simulator: scenarios, physics, and full-stack runs."""

import dataclasses
import json
import socket
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import agent, server, tsdb
from gridwatch.agent import AgentConfig, check_power
from gridwatch.model import CheckState
from gridwatch.report import contractual_report
from gridwatch.sim import (
    DOWN_WARN,
    SIM_EPOCH,
    BadScenario,
    ClusterShape,
    Event,
    EventKind,
    Scenario,
    SimDataSource,
    StackConfig,
    expected_system_power_w,
    load_scenario,
    rectifier_power_w,
    rectifier_voltage_v,
    run,
    scenario_from_sections,
    scenario_window,
    sources_at,
)
from gridwatch.config import parse_config
from gridwatch.tsdb import DEFAULT_RETENTION, Store

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def tiny(duration_ticks=120, events=(), seed=3, shape=None):
    return Scenario(
        name="tiny",
        seed=seed,
        tick_s=5,
        duration_ticks=duration_ticks,
        shape=shape or ClusterShape(cabinets=2, rectifiers_per_cabinet=2, nodes=16, login_hosts=2),
        events=tuple(events),
    )


FAST_STACK = StackConfig(poll_every_ticks=12)


def small_store(root=None) -> Store:
    """A store with a ring sized for tiny runs; a run's retention is its store's."""
    return Store(root, default_retention="1m:1d,10m:2d")


# -- scenario files ------------------------------------------------------------


def test_load_bundled_demo_scenario():
    sc = load_scenario(SCENARIOS / "demo.scn")
    assert sc.name == "demo" and sc.seed == 42
    assert sc.tick_s == 5 and sc.duration_ticks == 120_960  # seven days
    assert sc.shape == ClusterShape()
    kinds = [e.kind for e in sc.events]
    assert kinds.count(EventKind.POWER_DIP) == 5
    assert kinds.count(EventKind.LOGIN_OUTAGE) == 1
    assert kinds.count(EventKind.NODE_DRAIN) == 1
    assert kinds.count(EventKind.DNS_FAIL) == 1
    assert kinds.count(EventKind.HPL_RUN) == 1
    outage = next(e for e in sc.events if e.kind is EventKind.LOGIN_OUTAGE)
    assert (outage.to_tick - outage.from_tick) * sc.tick_s == 3600  # one hour
    assert outage.hosts == ()  # "all"
    dips = [e for e in sc.events if e.kind is EventKind.POWER_DIP]
    assert all(e.depth_fraction == 0.5 for e in dips)
    hpl = next(e for e in sc.events if e.kind is EventKind.HPL_RUN)
    assert all(hpl.from_tick <= d.from_tick and d.to_tick <= hpl.to_tick for d in dips)


def test_load_bundled_quick_scenario():
    sc = load_scenario(SCENARIOS / "quick.scn")
    assert sc.events == ()
    assert sc.duration_ticks * sc.tick_s == 3600


def test_archer2_scenario_is_the_demo_timeline_at_paper_shape():
    demo = load_scenario(SCENARIOS / "demo.scn")
    sc = load_scenario(SCENARIOS / "archer2.scn")
    assert sc.name == "archer2"
    assert sc.shape == dataclasses.replace(demo.shape, cabinets=23, nodes=5_860)
    assert (sc.seed, sc.tick_s, sc.duration_ticks, sc.events) == (demo.seed, demo.tick_s, demo.duration_ticks, demo.events)


def test_archer2_first_hour_reconciles_every_power_series():
    """The first simulated hour of archer2.scn through the full stack: the
    system series is the generator's system power, and every cabinet series
    is the sum of its rectifiers, bit for bit."""
    sc = load_scenario(SCENARIOS / "archer2.scn")
    assert min(e.from_tick for e in sc.events) >= 720  # the timeline's first event is on day 2
    hour = dataclasses.replace(sc, duration_ticks=720, events=())
    result = run(hour)
    assert result.summary.polls == 60 * 5 and result.summary.hosts_down == 0
    shape = hour.shape
    _, system = result.store.read("hpc.admin.power.system", *result.window)
    cabinets = [dict(result.store.read(f"hpc.admin.power.cab_{cab}", *result.window)[1]) for cab in shape.cabinet_ids()]
    polled = [(t, v) for t, v in system if v is not None]
    assert len(polled) == 60 and len(cabinets) == 23
    for t, v in polled:
        tick = (t - SIM_EPOCH) // hour.tick_s
        assert v == expected_system_power_w(hour, tick)
        for cab_index, cabinet in enumerate(cabinets):
            want = 0.0
            for r in range(shape.rectifiers_per_cabinet):
                want += rectifier_power_w(hour, tick, cab_index, r)
            assert cabinet[t] == want, (t, shape.cabinet_id(cab_index))


def test_minimal_scenario_text_uses_defaults():
    sc = scenario_from_sections(parse_config("[shape]\nnodes = 32\n"))
    assert sc.name == "unnamed" and sc.seed == 0
    assert sc.shape.nodes == 32 and sc.shape.cabinets == 4
    assert sc.duration_ticks == 720 and sc.events == ()


def test_event_defaults_and_all_keyword():
    text = """
    [scenario]
    duration_ticks = 100
    [event]
    kind = power_dip
    from_tick = 10
    to_tick = 20
    cabinets = all
    [event]
    kind = login_outage
    from_tick = 30
    to_tick = 40
    hosts = all
    """
    sc = scenario_from_sections(parse_config(text))
    assert sc.events[0].cabinets == ()
    assert sc.events[0].depth_fraction == 0.5
    assert sc.events[1].hosts == ()


@pytest.mark.parametrize("event_body,match", [
    ("kind = warp_drive\nfrom_tick = 0\nto_tick = 1", "unknown event kind 'warp_drive'"),
    ("kind = power_dip\nfrom_tick = 0\nto_tick = 999", "outside scenario duration"),
    ("kind = power_dip\nfrom_tick = 5\nto_tick = 5", "outside scenario duration"),
    ("kind = power_dip\nfrom_tick = 0\nto_tick = 1\ndepth_fraction = 0", "not in \\(0, 1\\]"),
    ("kind = power_dip\nfrom_tick = 0\nto_tick = 1\ncabinets = x9999", "unknown cabinets"),
    ("kind = login_outage\nfrom_tick = 0\nto_tick = 1\nhosts = login99", "unknown hosts"),
    ("kind = node_drain\nfrom_tick = 0\nto_tick = 1\ncount = 0", "count 0 not in"),
    ("kind = node_drain\nfrom_tick = 0\nto_tick = 1\ncount = 5\npartition = gpu", "unknown partition"),
    ("kind = mem_leak\nfrom_tick = 0\nto_tick = 1", "rate 0.0 must be positive"),
])
def test_bad_events_are_rejected(event_body, match):
    text = f"[scenario]\nduration_ticks = 100\n[event]\n{event_body}\n"
    with pytest.raises(BadScenario, match=match):
        scenario_from_sections(parse_config(text))


@pytest.mark.parametrize("shape,event_body,match", [
    ("partitions =", "kind = node_drain\nfrom_tick = 0\nto_tick = 1\ncount = 1", "shape needs at least one partition"),
    ("cabinets = 0", "kind = power_dip\nfrom_tick = 0\nto_tick = 1\ncabinets = x1000", "shape counts must all be >= 1"),
], ids=["no-partitions", "no-cabinets"])
def test_shape_is_checked_before_the_events(shape, event_body, match):
    text = f"[shape]\n{shape}\n[event]\n{event_body}\n"
    with pytest.raises(BadScenario, match=match):
        scenario_from_sections(parse_config(text))


def test_bad_event_error_carries_line_number():
    text = "[scenario]\nduration_ticks = 100\n\n[event]\nkind = power_dip\nfrom_tick = 50\nto_tick = 200\n"
    with pytest.raises(BadScenario, match="line 4"):
        scenario_from_sections(parse_config(text))


def test_load_scenario_missing_file_is_bad_scenario(tmp_path):
    with pytest.raises(BadScenario, match="cannot read"):
        load_scenario(tmp_path / "absent.scn")


def test_validate_scenario_bounds():
    with pytest.raises(BadScenario):
        tiny(duration_ticks=0)
    with pytest.raises(BadScenario):
        Scenario(idle_power_per_node_w=0.0)
    with pytest.raises(BadScenario):
        Scenario(shape=ClusterShape(nodes=0))
    with pytest.raises(BadScenario):
        Scenario(seed=-1)
    with pytest.raises(BadScenario, match="DNS_FAIL window"):
        Scenario(duration_ticks=10, events=(Event(EventKind.DNS_FAIL, 5, 11),))
    with pytest.raises(BadScenario, match="outside scenario duration 100"):
        dataclasses.replace(tiny(events=[Event(EventKind.DNS_FAIL, 100, 110)]), duration_ticks=100)
    tiny()  # sane scenario passes


def test_shape_derived_names():
    shape = ClusterShape(cabinets=3, nodes=10, partitions=("a", "b", "c"), login_hosts=2)
    assert shape.cabinet_ids() == ("x1000", "x1001", "x1002")
    assert shape.login_names() == ("login1", "login2")
    assert shape.partition_nodes() == {"a": 4, "b": 3, "c": 3}  # remainder to the first
    assert sum(shape.partition_nodes().values()) == 10


# -- determinism and physics ------------------------------------------------------


def test_same_tick_yields_identical_bytes():
    sc = tiny()
    a, b = sources_at(sc, 17), sources_at(sc, 17)
    path = "/var/volatile/cec/x1000/rectifiers/1"
    assert a.read_file(path) == b.read_file(path)
    assert a.read_file("/proc/meminfo") == b.read_file("/proc/meminfo")
    assert a.run_command(["sinfo"]) == b.run_command(["sinfo"])
    assert a.resolve_name("cluster.local") == b.resolve_name("cluster.local")


def test_different_ticks_and_seeds_differ():
    sc = tiny()
    assert rectifier_power_w(sc, 1, 0, 0) != rectifier_power_w(sc, 2, 0, 0)
    assert rectifier_power_w(sc, 1, 0, 0) != rectifier_power_w(tiny(seed=4), 1, 0, 0)


def test_rectifier_power_has_bounded_noise():
    sc = tiny()
    base = sc.idle_power_per_node_w * sc.shape.nodes / (2 * 2)
    for tick in range(0, 100, 7):
        for cab in range(2):
            for rect in range(2):
                p = rectifier_power_w(sc, tick, cab, rect)
                assert abs(p - base) <= base * 0.01
                v = rectifier_voltage_v(sc, tick, cab, rect)
                assert abs(v - 54.0) <= 0.5


def test_power_check_agrees_with_ground_truth_exactly():
    events = [Event(EventKind.HPL_RUN, 40, 80), Event(EventKind.POWER_DIP, 50, 60, depth_fraction=0.4)]
    sc = tiny(events=events)
    for tick in (0, 45, 55, 79, 100):
        result = check_power(sources_at(sc, tick), AgentConfig(cabinets=sc.shape.cabinet_ids()))
        system = next(p.value for p in result.perfdata if p.key == "system")
        assert system == expected_system_power_w(sc, tick)  # bit-for-bit


def test_power_dip_scales_selected_cabinets_only():
    dip = Event(EventKind.POWER_DIP, 10, 20, depth_fraction=0.5, cabinets=("x1000",))
    sc = tiny(events=[dip])
    inside = rectifier_power_w(sc, 15, 0, 0)
    outside = rectifier_power_w(sc, 5, 0, 0)
    assert inside == pytest.approx(outside * 0.5, rel=0.03)  # noise aside
    untouched = rectifier_power_w(sc, 15, 1, 0)
    assert untouched == pytest.approx(rectifier_power_w(sc, 5, 1, 0), rel=0.03)


def test_hpl_run_raises_power_level():
    sc = tiny(events=[Event(EventKind.HPL_RUN, 40, 80, power_per_node_w=700.0)])
    idle = expected_system_power_w(sc, 10)
    busy = expected_system_power_w(sc, 50)
    assert busy == pytest.approx(idle * 3.5, rel=0.03)


def test_sinfo_conserves_node_totals_across_events():
    events = [
        Event(EventKind.NODE_DRAIN, 20, 60, count=5),
        Event(EventKind.HPL_RUN, 40, 80),
    ]
    sc = tiny(events=events)
    for tick in (0, 30, 50, 70, 100):
        _, text = sources_at(sc, tick).run_command(["sinfo"])
        totals = sum(int(line.split()[2]) for line in text.splitlines()[1:])
        assert totals == sc.shape.nodes
    _, during = sources_at(sc, 30).run_command(["sinfo"])
    assert "drained" in during
    _, after = sources_at(sc, 70).run_command(["sinfo"])
    assert "drained" not in after
    assert after.splitlines()[1].split()[:2] == ["standard*", "up"]


def test_sinfo_alloc_idle_split():
    sc = tiny(events=[Event(EventKind.HPL_RUN, 40, 80)])
    _, idle_text = sources_at(sc, 0).run_command(["sinfo"])
    rows = {line.split()[3]: int(line.split()[2]) for line in idle_text.splitlines()[1:]}
    assert rows == {"alloc": 14, "idle": 2}  # 90% of 16 allocated when idle
    _, busy_text = sources_at(sc, 50).run_command(["sinfo"])
    rows = {line.split()[3]: int(line.split()[2]) for line in busy_text.splitlines()[1:]}
    assert rows == {"alloc": 16}  # HPL takes everything; zero rows omitted


def test_meminfo_leak_ramps_and_caps():
    leak = Event(EventKind.MEM_LEAK, 0, 120, rate_pct_per_h=30.0)
    sc = tiny(events=[leak])

    def used_pct(tick):
        text = sources_at(sc, tick).read_file("/proc/meminfo").decode()
        fields = {l.split(":")[0]: int(l.split()[1]) for l in text.splitlines()}
        return 100.0 * (1 - fields["MemAvailable"] / fields["MemTotal"])

    start = used_pct(0)
    assert start == pytest.approx(30.0, abs=3.0)
    later = used_pct(100)  # 500 s of a 30%/h leak: about +4.2
    assert later > start + 2.0
    flood = Event(EventKind.MEM_LEAK, 0, 120, rate_pct_per_h=100_000.0)
    sc2 = tiny(events=[flood])
    text = sources_at(sc2, 119).read_file("/proc/meminfo").decode()
    fields = {l.split(":")[0]: int(l.split()[1]) for l in text.splitlines()}
    assert 100.0 * (1 - fields["MemAvailable"] / fields["MemTotal"]) == pytest.approx(99.0, abs=0.01)


def test_login_probe_survives_partial_outage():
    partial = Event(EventKind.LOGIN_OUTAGE, 10, 20, hosts=("login1",))
    total = Event(EventKind.LOGIN_OUTAGE, 30, 40)
    sc = tiny(events=[partial, total])
    assert sources_at(sc, 15).probe_login("login-vip") == 0  # login2 still alive
    assert sources_at(sc, 35).probe_login("login-vip") == 255
    assert sources_at(sc, 50).probe_login("login-vip") == 0


def test_dns_fail_window():
    sc = tiny(events=[Event(EventKind.DNS_FAIL, 10, 20)])
    assert sources_at(sc, 5).resolve_name("cluster.local") == ["10.20.0.10", "10.20.0.11"]
    with pytest.raises(OSError):
        sources_at(sc, 15).resolve_name("cluster.local")


def test_source_answers_match_the_ground_truth_and_a_fresh_source_at_every_tick():
    shape = ClusterShape(cabinets=3, rectifiers_per_cabinet=4, nodes=48, login_hosts=2)
    events = [
        Event(EventKind.HPL_RUN, 20, 80, power_per_node_w=650.0),
        Event(EventKind.POWER_DIP, 30, 40, depth_fraction=0.3, cabinets=("x1001",)),
        Event(EventKind.POWER_DIP, 35, 45, depth_fraction=0.5, cabinets=("x1000", "x1001")),
        Event(EventKind.NODE_DRAIN, 10, 50, count=7),
        Event(EventKind.DNS_FAIL, 25, 32),
        Event(EventKind.MEM_LEAK, 5, 90, rate_pct_per_h=40.0),
        Event(EventKind.LOGIN_OUTAGE, 33, 38, hosts=("login1",)),
        Event(EventKind.LOGIN_OUTAGE, 60, 64),
    ]
    sc = tiny(duration_ticks=100, events=events, shape=shape)
    src = SimDataSource(sc)

    def answers(source):
        try:
            resolved = source.resolve_name("cluster.local")
        except OSError as exc:
            resolved = str(exc)
        return (source.read_file("/proc/meminfo"), source.run_command(["sinfo"]),
                source.probe_login("login-vip"), resolved)

    # forward, back, the same tick again, a jump, then a read before and after an assignment
    for tick in (0, 31, 36, 42, 36, 36, 12, 61, 99, 37):
        src.tick = tick
        for cab_index, cab in enumerate(shape.cabinet_ids()):
            for r in range(shape.rectifiers_per_cabinet):
                want = (f"power_w {rectifier_power_w(sc, tick, cab_index, r)!r}\n"
                        f"voltage_v {rectifier_voltage_v(sc, tick, cab_index, r)!r}\n")
                assert src.read_file(f"/var/volatile/cec/{cab}/rectifiers/{r}") == want.encode("ascii")
        assert answers(src) == answers(sources_at(sc, tick)), tick
    assert rectifier_power_w(sc, 37, 2, 0) > rectifier_power_w(sc, 37, 1, 0) > 0  # x1002 is not dipped


@st.composite
def _power_scenarios(draw):
    shape = ClusterShape(cabinets=draw(st.integers(1, 5)), rectifiers_per_cabinet=draw(st.integers(1, 9)),
                         nodes=draw(st.integers(1, 6000)), login_hosts=1)
    duration = 50
    events = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, duration - 1))
        window = (start, draw(st.integers(start + 1, duration)))
        if draw(st.booleans()):
            cabinets = draw(st.lists(st.sampled_from(shape.cabinet_ids()), unique=True))
            depth = draw(st.floats(0.0, 1.0, exclude_min=True))
            events.append(Event(EventKind.POWER_DIP, *window, depth_fraction=depth, cabinets=tuple(cabinets)))
        else:
            per_node = draw(st.floats(1.0, 2000.0))
            events.append(Event(EventKind.HPL_RUN, *window, power_per_node_w=per_node))
    seed = draw(st.integers(0, 2**70))
    return tiny(duration_ticks=duration, events=events, seed=seed, shape=shape)


@settings(max_examples=150, deadline=None)
@given(_power_scenarios(), st.lists(st.integers(0, 49), min_size=1, max_size=4))
def test_every_rectifier_file_renders_the_ground_truth_byte_for_byte(sc, ticks):
    src = SimDataSource(sc)
    shape = sc.shape
    for tick in ticks:
        src.tick = tick
        for cab_index, cab in enumerate(shape.cabinet_ids()):
            for r in range(shape.rectifiers_per_cabinet):
                want = (f"power_w {rectifier_power_w(sc, tick, cab_index, r)!r}\n"
                        f"voltage_v {rectifier_voltage_v(sc, tick, cab_index, r)!r}\n")
                assert src.read_file(f"/var/volatile/cec/{cab}/rectifiers/{r}") == want.encode("ascii")
            with pytest.raises(FileNotFoundError):
                src.read_file(f"/var/volatile/cec/{cab}/rectifiers/{shape.rectifiers_per_cabinet}")


def test_unknown_paths_and_commands():
    src = sources_at(tiny(), 0)
    with pytest.raises(FileNotFoundError):
        src.read_file("/var/volatile/cec/x9999/rectifiers/0")
    with pytest.raises(FileNotFoundError):
        src.read_file("/var/volatile/cec/x1000/rectifiers/99")
    with pytest.raises(FileNotFoundError):
        src.read_file("/etc/passwd")
    assert src.run_command(["uptime"]) == (127, "")


def test_sources_at_rejects_out_of_range_ticks():
    with pytest.raises(ValueError):
        sources_at(tiny(duration_ticks=10), 10)
    with pytest.raises(ValueError):
        sources_at(tiny(), -1)


def test_sim_clock_maps_ticks_to_epoch_seconds():
    sources = SimDataSource(tiny())
    assert sources.time() == SIM_EPOCH
    sources.tick = 100
    assert sources.time() == SIM_EPOCH + 500
    assert sources_at(tiny(), 7).time() == SIM_EPOCH + 35
    assert scenario_window(tiny(duration_ticks=120)) == (SIM_EPOCH, SIM_EPOCH + 600)


# -- full-stack runs ---------------------------------------------------------------


def test_clean_run_is_quiet_and_well_formed():
    result = run(tiny(duration_ticks=120), FAST_STACK, store=small_store())
    s = result.summary
    assert s.polls == 10 * 3  # admin + 2 logins, every 12 ticks for 120 ticks
    assert s.hosts_down == 0
    assert s.notifications == 0
    assert s.samples > 0
    series = result.store.list_series()
    assert f"hpc.admin.power.system" in series
    assert f"hpc.login_cluster.login.login_up" in series
    assert f"hpc.node_cluster.node_state.avail_standard" in series
    doc = json.loads(s.to_json())
    assert doc["scenario"] == "tiny" and doc["ticks"] == 120
    assert set(doc) == {
        "scenario", "seed", "ticks", "tick_s", "polls", "hosts_down",
        "notifications", "series", "samples", "wall_s",
    }


def test_runs_are_reproducible(tmp_path):
    def run_into(root):
        result = run(tiny(duration_ticks=120), FAST_STACK, store=small_store(root))
        return result, {p.relative_to(root): p.read_bytes() for p in root.rglob("*.dat")}

    a, a_files = run_into(tmp_path / "a")
    b, b_files = run_into(tmp_path / "b")
    assert a_files and a_files == b_files
    assert [n.to_json() for n in a.notifications] == [n.to_json() for n in b.notifications]


def test_power_series_tracks_ground_truth():
    sc = tiny(duration_ticks=120)
    result = run(sc, FAST_STACK, store=small_store())
    _, points = result.store.read("hpc.admin.power.system", *result.window)
    for t, v in points:
        if v is None:
            continue
        tick = (t - SIM_EPOCH) // sc.tick_s
        assert v == expected_system_power_w(sc, tick)


def test_dns_fail_notifies_within_window_only():
    sc = tiny(duration_ticks=240, events=[Event(EventKind.DNS_FAIL, 60, 120)])
    result = run(sc, FAST_STACK, store=small_store())
    dns = [n for n in result.notifications if n.service == "dns"]
    assert len(dns) == 4  # 2 logins x (OK->CRIT, CRIT->OK)
    for n in dns:
        assert n.host in ("login1", "login2")
    crits = [n for n in dns if n.new_state is CheckState.CRIT]
    window_start = SIM_EPOCH + 60 * sc.tick_s
    window_end = SIM_EPOCH + 120 * sc.tick_s
    for n in crits:
        assert window_start <= n.t <= window_end
    assert all(n.new_state in (CheckState.CRIT, CheckState.OK) for n in dns)


def test_node_drain_trips_threshold_notifications():
    sc = tiny(duration_ticks=240, events=[Event(EventKind.NODE_DRAIN, 60, 120, count=12)])
    result = run(sc, FAST_STACK, store=Store(default_retention="1m:1d"))
    node = [n for n in result.notifications if n.service == "node_state"]
    hosts = {n.host for n in node}
    assert hosts == {"login1", "login2", "node_cluster"}
    assert {n.new_state for n in node} == {CheckState.WARN, CheckState.OK}
    _, points = result.store.read("hpc.node_cluster.node_state.avail_standard", *result.window)
    values = [v for _, v in points if v is not None]
    assert min(values) == 4.0 and max(values) == 16.0


def test_partial_login_outage_keeps_cluster_series_gapless():
    outage = Event(EventKind.LOGIN_OUTAGE, 48, 96, hosts=("login1",))
    sc = tiny(duration_ticks=144, events=[outage])
    result = run(sc, FAST_STACK, store=small_store())
    assert result.summary.hosts_down == 4  # login1 missed 4 polls
    _, points = result.store.read("hpc.login_cluster.login.login_up", *result.window)
    populated = [v for _, v in points if v is not None]
    assert len(populated) == len([t for t, _ in points])  # no gaps at all
    assert all(v == 1.0 for v in populated)


def test_total_login_outage_interrupts_cluster_series():
    outage = Event(EventKind.LOGIN_OUTAGE, 240, 480)
    sc = tiny(duration_ticks=720, events=[outage])
    seen_states = {}

    def spy(tick, monitor):
        cluster = next(c for c in monitor.clusters if c.name == "login_cluster")
        seen_states[tick] = monitor.cluster_state(cluster).state

    result = run(sc, FAST_STACK, store=small_store(), on_tick=spy)
    # Mid-outage (after staleness kicks in) the cluster has no fresh member.
    assert seen_states[444] is CheckState.UNKNOWN
    assert seen_states[120] is CheckState.OK
    assert seen_states[600] is CheckState.OK
    _, points = result.store.read("hpc.login_cluster.login.login_up", *result.window)
    gap = [t for t, v in points if v is None]
    assert gap, "outage must leave a hole in the cluster login series"


def test_report_config_reads_the_series_a_run_writes_for_a_dotted_partition():
    shape = ClusterShape(cabinets=2, rectifiers_per_cabinet=2, nodes=16, login_hosts=2,
                         partitions=("gpu.a100", "standard"))
    result = run(tiny(shape=shape), FAST_STACK, store=small_store())
    report = contractual_report(result.store, result.report_cfg, result.window)
    assert report.node_series == "hpc.node_cluster.node_state.avail_gpu_a100"
    assert set(report.node_column[2]) == {8.0}
    assert result.report_cfg.threshold_nodes == 8  # the partition's 8 nodes, not the machine's 16
    assert report.node_availability_pct == 100.0
    assert report.login_availability_pct == 100.0


def test_run_without_api_opens_no_socket_and_starts_no_thread(monkeypatch):
    opened = []

    def no_socket(*args, **kwargs):
        opened.append(args)
        raise AssertionError("the simulator opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    before = threading.active_count()
    counts = []
    outage = Event(EventKind.LOGIN_OUTAGE, 48, 96, hosts=("login1",))
    result = run(
        tiny(duration_ticks=144, events=[outage]),
        FAST_STACK,
        store=small_store(),
        on_tick=lambda tick, monitor: counts.append(threading.active_count()),
    )
    assert result.summary.hosts_down == 4
    assert opened == []
    assert counts and set(counts) == {before}


def test_run_goes_through_the_seams_the_benchmark_traces(monkeypatch):
    # bench/layers.py times the codec and the store by these names; a hot path
    # that went round them would make its per-layer figures read 0.
    calls = {"write": 0, "parse": 0, "serialize": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(tsdb.Store, "write", counted("write", tsdb.Store.write))
    monkeypatch.setattr(server, "parse_agent_payload", counted("parse", server.parse_agent_payload))
    monkeypatch.setattr(agent, "serialize_agent_payload", counted("serialize", agent.serialize_agent_payload))
    outage = Event(EventKind.LOGIN_OUTAGE, 48, 96, hosts=("login1",))
    summary = run(tiny(duration_ticks=144, events=[outage]), FAST_STACK, store=small_store()).summary
    answered = summary.polls - summary.hosts_down
    assert summary.hosts_down == 4 and summary.samples > 0
    assert calls == {"write": summary.samples, "parse": answered, "serialize": answered}


def test_the_benchmark_finds_every_name_it_traces(monkeypatch):
    # bench/layers.py looks each traced method up in its class's __dict__, so a
    # renamed or moved one (Agent.payload_text, say) would break only traced runs.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from layers import Layers

    payload_text = agent.Agent.__dict__["payload_text"]
    layers = Layers()
    try:
        layers.install()
        assert agent.Agent.__dict__["payload_text"] is not payload_text
    finally:
        layers.uninstall()
    assert agent.Agent.__dict__["payload_text"] is payload_text


def test_stack_config_keeps_what_the_benchmark_reads():
    # bench/ builds its stores from StackConfig().retention and checks its
    # replays against prefix, poll_every_ticks and down_warn.
    stack = StackConfig()
    assert stack.prefix == "hpc" and stack.poll_every_ticks == 12
    assert stack.retention == DEFAULT_RETENTION and stack.down_warn == DOWN_WARN
    assert [f.name for f in dataclasses.fields(StackConfig)] == ["prefix", "poll_every_ticks"]


@pytest.mark.parametrize("ticks", [0, -1])
def test_stack_config_refuses_a_poll_cadence_below_one(ticks):
    with pytest.raises(ValueError, match=f"poll_every_ticks {ticks} must be >= 1"):
        StackConfig(poll_every_ticks=ticks)


def test_run_rejects_invalid_scenarios():
    with pytest.raises(BadScenario):
        run(tiny(duration_ticks=0))
