"""Fast tests of the benchmark itself: tiny runs, and checks that catch faults.

    python -m pytest bench -q

Every workload runs at a tiny size with no failed operation; then each
kind of output check is fed one corrupted output and must report it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.use_checkout_source()

import demo_replay  # noqa: E402
import live_poll  # noqa: E402
import oracle  # noqa: E402
import report_query  # noqa: E402
import run  # noqa: E402
from gridwatch.model import MetricSample  # noqa: E402
from layers import PER_LAYER, Layers  # noqa: E402

TINY = BENCH / "tiny.scn"
TINY_SLOTS = 24 * 60


# -- every workload at a tiny size ----------------------------------------------


def _assert_clean(outcome):
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.attempted > 0
    for name, value in outcome.end_to_end.items():
        assert math.isfinite(value) and value > 0, name


def test_demo_replay_tiny():
    _assert_clean(demo_replay.run(3, 0.0, None, scenario_path=TINY))


def test_live_poll_tiny():
    _assert_clean(live_poll.run(3, 1.0))


def test_report_query_tiny():
    _assert_clean(report_query.run(3, 1.0, n_slots=TINY_SLOTS))


def test_speed_probe_slowdown_is_its_mean_over_nominal():
    probe = common.SpeedProbe()
    assert probe.slowdown() > 0  # an untimed sample when the run took none
    for _ in range(4):
        probe.sample()
    assert len(probe.samples) == 5
    assert probe.slowdown() == pytest.approx(sum(probe.samples) / 5 / common.PROBE_NOMINAL_S)
    assert probe.spent_s >= sum(probe.samples[1:]) and probe.spent_cpu_s > 0
    result, elapsed, slowdown = probe.around(lambda: probe.sample() or "done")
    assert (result, len(probe.samples)) == ("done", 8)
    assert 0 <= elapsed < probe.spent_s
    assert slowdown == pytest.approx(sum(probe.samples[5:]) / 3 / common.PROBE_NOMINAL_S)


@pytest.mark.parametrize("workload", ["demo-replay", "live-poll", "report-query"])
def test_traced_run_reports_every_layer_metric(workload):
    layers = Layers()
    layers.install()
    try:
        if workload == "demo-replay":
            outcome = demo_replay.run(4, 0.0, layers, scenario_path=TINY)
        elif workload == "live-poll":
            outcome = live_poll.run(4, 0.5, layers)
        else:
            outcome = report_query.run(4, 0.5, layers, n_slots=TINY_SLOTS)
    finally:
        layers.uninstall()
    assert outcome.problems == []
    assert list(outcome.per_layer) == list(PER_LAYER)
    assert all(math.isfinite(v) and v >= 0 for v in outcome.per_layer.values())
    assert outcome.per_layer["trace.spans"] > 0


def test_uninstall_restores_every_patched_callable():
    from gridwatch import cli, server, tsdb

    before = (tsdb.Store.__dict__["write"], server.parse_agent_payload, cli.render_svg)
    layers = Layers()
    layers.install()
    assert tsdb.Store.__dict__["write"] is not before[0]
    layers.uninstall()
    assert (tsdb.Store.__dict__["write"], server.parse_agent_payload, cli.render_svg) == before


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()}


def test_without_the_program_the_benchmark_fails_and_prints_nothing(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "live-poll", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- demo-replay checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_replay(tmp_path_factory):
    from gridwatch import sim
    from gridwatch.tsdb import Store

    stack = sim.StackConfig()
    root = tmp_path_factory.mktemp("replay")
    scenario = dataclasses.replace(sim.load_scenario(TINY), seed=5)
    result = sim.run(scenario, stack, store=Store(root, default_retention=stack.retention))
    return result, stack, root


def _replay_problems(replay, result=None):
    from gridwatch.tsdb import Store

    original, stack, root = replay
    facts = demo_replay.read_scenario(TINY)
    return demo_replay.check_replay(result or original, facts, stack,
                                    Store(root, default_retention=stack.retention))


def test_demo_checks_pass_on_the_real_output(tiny_replay):
    assert _replay_problems(tiny_replay) == []


def _copy_store(store, window):
    """An in-memory store holding what ``store`` reads over ``window``."""
    from gridwatch.sim import StackConfig
    from gridwatch.tsdb import Store

    copied = Store(default_retention=StackConfig().retention)
    for name in store.list_series():
        for t, v in store.read(name, *window)[1]:
            if v is not None:
                copied.write(MetricSample(name, t, v))
    return copied


def _with_store(result, series, t, v):
    """A copy of the result whose store holds ``v`` at ``t`` in ``series``."""
    store = _copy_store(result.store, result.window)
    store.write(MetricSample(series, t, v))
    return dataclasses.replace(result, store=store)


@pytest.mark.parametrize("series, delta, expect", [
    ("hpc.admin.power.system", 1e-6, "sum of the cabinets"),
    ("hpc.admin.power.cab_x1002", 1.0, "sum of the cabinets"),
    ("hpc.login3.node_state.avail_standard", -1.0, "avail_standard wrong"),
    ("hpc.login2.dns.dns_ok", -1.0, "dns_ok wrong"),
    ("hpc.login1.memory.mem_used_pct", 0.5, "read back differently"),
])
def test_demo_checks_catch_one_changed_value(tiny_replay, series, delta, expect):
    from gridwatch.sim import SIM_EPOCH

    result = tiny_replay[0]
    t = SIM_EPOCH + 60 * 30  # a slot outside every event of the tiny scenario
    value = dict(result.store.read(series, *result.window)[1])[t]
    problems = _replay_problems(tiny_replay, _with_store(result, series, t, value + delta))
    assert any(expect in p for p in problems), problems


def test_demo_checks_catch_a_missed_dip_and_a_wrong_power_level(tiny_replay):
    from gridwatch.sim import SIM_EPOCH

    result = tiny_replay[0]
    changed = dataclasses.replace(result, store=_copy_store(result.store, result.window))
    cabs = [f"hpc.admin.power.cab_x{1000 + c}" for c in range(4)]
    for tick in (2208, 2220, 2232):  # every poll inside the first POWER_DIP, undone
        t = SIM_EPOCH + 5 * tick
        total = 0.0
        for cab in cabs:
            level = 2 * dict(result.store.read(cab, *result.window)[1])[t]
            changed.store.write(MetricSample(cab, t, level))
            total += level
        changed.store.write(MetricSample("hpc.admin.power.system", t, total))
    problems = _replay_problems(tiny_replay, changed)
    assert any("dips start" in p for p in problems), problems
    assert any("scenario's watts" in p for p in problems), problems


def test_demo_checks_catch_a_dropped_notification(tiny_replay):
    result = tiny_replay[0]
    dns = [n for n in result.notifications if n.service == "dns"]
    dropped = dataclasses.replace(result, notifications=[n for n in result.notifications
                                                         if n is not dns[0]])
    problems = _replay_problems(tiny_replay, dropped)
    assert any("no notification on" in p and "dns" in p for p in problems), problems


def test_demo_checks_catch_wrong_counts(tiny_replay):
    result = tiny_replay[0]
    summary = dataclasses.replace(result.summary, polls=result.summary.polls - 1,
                                  hosts_down=result.summary.hosts_down + 1)
    problems = _replay_problems(tiny_replay, dataclasses.replace(result, summary=summary))
    assert any(p.startswith("polls ") for p in problems), problems
    assert any(p.startswith("hosts_down ") for p in problems), problems


# -- live-poll checks --------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_live(tmp_path_factory):
    stack = live_poll._Stack(6, tmp_path_factory.mktemp("live"))
    try:
        traffic = live_poll.poll_until(stack, 1.0)
    finally:
        stack.close()
    return stack, traffic


def _live_problems(stack, traffic):
    return live_poll.check_live(stack, stack.round, traffic.notes, traffic.calls)


def test_live_checks_pass_on_the_real_output(tiny_live):
    stack, traffic = tiny_live
    assert traffic.errors == []
    assert any(c.kind == "report" for c in traffic.calls)
    assert _live_problems(stack, traffic) == []


def test_live_checks_catch_one_changed_value(tiny_live):
    stack, traffic = tiny_live
    store = _copy_store(stack.store, (live_poll.T0, live_poll.T0 + stack.round * live_poll.INTERVAL))
    name = f"{live_poll.PREFIX}.{live_poll.WIDE_HOSTS[1]}.power.volt_x1001_3"
    t = live_poll.T0 + 2 * live_poll.INTERVAL
    store.write(MetricSample(name, t, dict(store.read(name, t, t + 60)[1])[t] + 0.25))
    changed = copy.copy(stack)
    changed.store = store
    problems = _live_problems(changed, traffic)
    assert any(name in p for p in problems), problems


def test_live_checks_catch_a_dropped_notification(tiny_live):
    stack, traffic = tiny_live
    fewer = dataclasses.replace(traffic, notes=traffic.notes[1:])
    assert any("notifications" in p for p in _live_problems(stack, fewer))


def test_live_checks_catch_a_wrong_api_answer(tiny_live):
    stack, traffic = tiny_live
    series = next(c for c in traffic.calls if c.kind == "series")
    report = next(c for c in traffic.calls if c.kind == "report")
    bad_series = copy.deepcopy(series)
    k, (t, v) = next((k, p) for k, p in enumerate(bad_series.body["points"]) if p[1] is not None)
    bad_series.body["points"][k] = [t, v + 1.0]
    bad_report = copy.deepcopy(report)
    bad_report.body["login_availability_pct"] -= 0.001
    for call in (bad_series, bad_report):
        assert live_poll.check_api_call(call, stack.sched), call.path


def test_live_checks_catch_a_host_down(tiny_live):
    stack, traffic = tiny_live
    changed = copy.copy(stack)
    changed.monitor = copy.copy(stack.monitor)
    changed.monitor._host_down_counts = {"login03": 1}
    assert any("HostDown" in p for p in _live_problems(changed, traffic))


# -- report-query checks ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    sched = report_query.make_schedule(7, TINY_SLOTS)
    store = report_query.build_store(sched, root)
    cold = []
    for gaps_as_down in (True, False):
        code, out = report_query.cold_report(root, sched.window, root / "r.svg", gaps_as_down)
        cold.append((gaps_as_down, code, out, 0.0))
    return sched, store, root, cold


def test_report_checks_pass_on_the_real_output(tiny_reports):
    sched, store, root, cold = tiny_reports
    assert report_query.check_cold(cold, sched) == []
    assert report_query.check_dips(store, sched) == []
    assert report_query.check_svg(root / "r.svg") == []


@pytest.mark.parametrize("key, change", [
    ("node_availability_pct", lambda v: v + 1e-9),
    ("login_availability_pct", lambda v: v - 0.01),
    ("breaches", lambda v: v[1:]),
])
def test_report_checks_catch_a_nudged_report(tiny_reports, key, change):
    sched, _, _, cold = tiny_reports
    gaps_as_down, code, out, took = cold[1]
    doc = json.loads(out.splitlines()[0])
    doc[key] = change(doc[key])
    problems = report_query.check_cold([(gaps_as_down, code, json.dumps(doc), took)], sched)
    assert any(key in p for p in problems), problems


def test_report_checks_catch_a_missed_dip(tiny_reports):
    sched, store, _, _ = tiny_reports
    flat = _copy_store(store, sched.window)
    first, _ = sched.dips[2]
    flat.write(MetricSample(report_query.POWER, first, 200.0 * report_query.NODES))
    assert report_query.check_dips(flat, sched)


def test_report_checks_catch_a_broken_svg(tmp_path):
    path = tmp_path / "broken.svg"
    path.write_text("<svg><polyline></svg>")
    assert report_query.check_svg(path)


def test_report_checks_catch_a_wrong_api_answer(tiny_reports):
    sched, store, _, _ = tiny_reports
    window = (report_query.T0, report_query.T0 + 3600)
    _, points = store.read(report_query.LOGIN, *window)
    body = {"points": [[t, v] for t, v in points]}
    call = report_query.ApiCall("/x", "series", report_query.LOGIN, window, 200, body)
    assert report_query.check_api_calls([call], sched) == []
    k = next(k for k, (_, v) in enumerate(points) if v is not None)
    body["points"][k][1] = 1.0 - body["points"][k][1]
    assert report_query.check_api_calls([call], sched)
    missing = report_query.ApiCall("/y", "series", report_query.LOGIN, window, 404, {})
    assert report_query.check_api_calls([missing], sched)


def test_oracle_counts_partial_edge_slots_and_long_gaps_only():
    values = {0: 1.0, 60: 0.0, 180: 1.0}  # slot 120 is a one-slot gap
    got = oracle.availability(values, (30, 240), 60, lambda v: v >= 0.5, staleness_s=60,
                              gaps_as_down=True, kind="down", gap_kind="gap")
    assert got.pct == 100.0 * (30 + 60) / 210
    assert got.breaches == [(60, 120, "down")]
    longer = oracle.availability(values, (30, 240), 60, lambda v: v >= 0.5, staleness_s=59,
                                 gaps_as_down=False, kind="down", gap_kind="gap")
    assert longer.pct == 100.0 * 90 / 150
    assert longer.breaches == [(60, 120, "down"), (120, 180, "gap")]
