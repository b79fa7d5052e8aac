"""Workload ``demo-replay``: the demo week through ``sim.run``, to disk.

The benchmark seed replaces the scenario's own noise seed; every other
input is the scenario file and the default StackConfig. One operation is
one poll; its latency is taken per poll round (all five hosts) from
``sim.run``'s public ``on_tick`` hook, so the untraced run patches nothing.
The same hook samples the speed probe every ``PROBE_EVERY`` rounds, between
two rounds' time stamps; ``replay_s`` and ``replay_cpu_s`` (the process's
CPU time, every thread's) leave the probe out.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from pathlib import Path

from common import (SCENARIOS, Outcome, SpeedProbe, dir_bytes, latency_summary, peak_rss_mb,
                    remove_dir, scratch_dir)
from scenario_oracle import ScenarioFacts, read_scenario

DEMO = SCENARIOS / "demo.scn"
SETUP_REPEATS = 5
PROBE_EVERY = 20  # poll rounds between two samples of the speed probe


def run(seed: int, seconds: float, layers=None, scenario_path: Path = DEMO) -> Outcome:
    from gridwatch import sim
    from gridwatch.tsdb import Store

    stack = sim.StackConfig()

    def set_up():
        scenario = dataclasses.replace(sim.load_scenario(scenario_path), seed=seed)
        root = scratch_dir("demo")
        return scenario, root, Store(root, default_retention=stack.retention)

    setup_probe = SpeedProbe()
    setups, dirs = [], []
    for _ in range(SETUP_REPEATS):
        (scenario, root, store), elapsed, slowdown = setup_probe.around(set_up)
        setups.append(elapsed / slowdown)
        dirs.append(root)
    for root in dirs[:-1]:
        remove_dir(root)
    try:
        replays, replay_cpus, round_ms = [], [], []
        probe = SpeedProbe()
        while True:
            ticks: list[float] = []

            def on_tick(_t, _m):
                # The probe runs before the round's time stamp, so no round includes it.
                if len(ticks) % PROBE_EVERY == PROBE_EVERY - 1:
                    probe.sample()
                ticks.append(time.perf_counter())

            probed, probed_cpu = probe.spent_s, probe.spent_cpu_s
            started, started_cpu = time.perf_counter(), time.process_time()
            result = sim.run(scenario, stack, store=store, on_tick=on_tick)
            replays.append(time.perf_counter() - started - (probe.spent_s - probed))
            replay_cpus.append(time.process_time() - started_cpu - (probe.spent_cpu_s - probed_cpu))
            round_ms += [(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])]
            if sum(replays) >= seconds:
                break
            remove_dir(dirs[-1])
            dirs[-1] = scratch_dir("demo")
            store = Store(dirs[-1], default_retention=stack.retention)
        rss_mb = peak_rss_mb()
        if layers is not None:
            layers.tracer.enabled = False

        facts = read_scenario(scenario_path)
        problems = check_replay(result, facts, stack, Store(dirs[-1], default_retention=stack.retention))
        bytes_written = dir_bytes(dirs[-1])
    finally:
        remove_dir(dirs[-1])

    summary = result.summary
    replay_s = statistics.median(replays)
    replay_cpu_s = statistics.median(replay_cpus)
    expected_down = expected_hosts_down(facts, stack.poll_every_ticks)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "scaled_ops_per_cpu_s": summary.polls / replay_cpu_s * probe.slowdown(),
    }
    details = {
        "replay_s": replay_s,
        "replays": len(replays),
        "polls_per_s": summary.polls / replay_s,
        "replay_cpu_s": replay_cpu_s,
        "polls_per_cpu_s": summary.polls / replay_cpu_s,
        "probe_ms_mean": probe.mean_s() * 1e3,
        **latency_summary("round_ms", round_ms),
        "polls": summary.polls,
        "samples": summary.samples,
        "series": summary.series,
        "hosts_down": summary.hosts_down,
        "notifications": summary.notifications,
    }
    return Outcome(
        attempted=summary.polls * len(replays),
        failed=abs(summary.hosts_down - expected_down) * len(replays),
        problems=problems,
        end_to_end=end_to_end,
        details=details,
        per_layer=None if layers is None else layers.metrics(
            bytes_written=bytes_written, job_s=replay_s,
            scaled_ops_per_cpu_s=end_to_end["scaled_ops_per_cpu_s"]),
    )


def expected_hosts_down(facts: ScenarioFacts, every: int) -> int:
    return sum(len(facts.hosts_out(tick)) for tick in facts.round_ticks(every))


def check_replay(result, facts: ScenarioFacts, stack, reopened) -> list[str]:
    """Every check of the demo replay; returns what is wrong, if anything."""
    from gridwatch.report import contractual_report, detect_dips
    from gridwatch.sim import SIM_EPOCH

    problems: list[str] = []
    every = stack.poll_every_ticks
    interval = every * facts.tick_s
    prefix = stack.prefix
    store = result.store
    window = result.window
    summary = result.summary
    hosts = 1 + facts.login_hosts

    def slot_tick(t: int) -> int:
        return (t - SIM_EPOCH) // facts.tick_s

    def values(series):
        return store.read(series, *window)[1]

    # Polls and hosts down.
    want_polls = hosts * facts.rounds(every)
    if summary.polls != want_polls:
        problems.append(f"polls {summary.polls} != {hosts} hosts x {facts.rounds(every)} rounds")
    want_down = expected_hosts_down(facts, every)
    if summary.hosts_down != want_down:
        problems.append(f"hosts_down {summary.hosts_down} != {want_down} from the outage rounds")

    # Availability: the outage arithmetic, within one poll interval per edge.
    dark = [all(h in facts.hosts_out(t) for h in facts.login_names) for t in facts.round_ticks(every)]
    down_s = sum(dark) * interval
    edges = sum(1 for a, b in zip([False] + dark, dark + [False]) if a != b)
    window_s = window[1] - window[0]
    want_pct = 100.0 * (window_s - down_s) / window_s
    tol_pct = 100.0 * edges * interval / window_s + 1e-9
    report = contractual_report(store, result.report_cfg, window)
    for what, got in (("node", report.node_availability_pct), ("login", report.login_availability_pct)):
        if abs(got - want_pct) > tol_pct:
            problems.append(f"{what} availability {got:.4f}% != {want_pct:.4f}% +- {tol_pct:.4f}")

    # Dips: one per injected POWER_DIP, starting within one slot of it.
    system = f"{prefix}.admin.power.system"
    dip_interval, points = store.read(system, *window)
    found = [d.start_t for d in detect_dips(points)]
    injected = [SIM_EPOCH + e.from_tick * facts.tick_s for e in facts.of("POWER_DIP")]
    if len(found) != len(injected) or any(
        abs(f - i) > dip_interval for f, i in zip(found, injected)
    ):
        problems.append(f"dips start at {found}, injected at {injected}")

    # Power: the exact in-order sum, and the physics within 1 %.
    cabinets = [values(f"{prefix}.admin.power.cab_{cab}") for cab in facts.cabinet_ids]
    bad_sum = bad_phys = 0
    for k, (t, v) in enumerate(points):
        if v is None:
            continue
        total = 0.0
        for cab in cabinets:
            total += cab[k][1]
        bad_sum += total != v
        want = facts.expected_system_w(slot_tick(t))
        bad_phys += abs(v - want) > 0.01 * want
    if bad_sum:
        problems.append(f"{bad_sum} system power values differ from the sum of the cabinets")
    if bad_phys:
        problems.append(f"{bad_phys} system power values off the scenario's watts by more than 1%")

    # Node counts and DNS, per slot, on every host that reports them.
    node_series = [f"{prefix}.node_cluster.node_state.avail_standard"] + [
        f"{prefix}.{h}.node_state.avail_standard" for h in facts.login_names
    ]
    for name in node_series:
        wrong = [t for t, v in values(name)
                 if v is not None and v != facts.nodes - facts.drained(slot_tick(t))]
        if wrong:
            problems.append(f"{name} wrong at {len(wrong)} slots, first {wrong[0]}")
    for h in facts.login_names:
        wrong = [t for t, v in values(f"{prefix}.{h}.dns.dns_ok")
                 if v is not None and v != (0.0 if facts.dns_failing(slot_tick(t)) else 1.0)]
        if wrong:
            problems.append(f"{h} dns_ok wrong at {len(wrong)} slots, first {wrong[0]}")

    problems += check_notifications(result.notifications, facts, stack, interval)

    # The flushed directory reads back what the run's store holds.
    names = store.list_series()
    if reopened.list_series() != names:
        problems.append("reopened store lists different series")
    else:
        differ = [n for n in names if reopened.read(n, *window) != store.read(n, *window)]
        if differ:
            problems.append(f"{len(differ)} series read back differently after reopening, e.g. {differ[0]}")
    return problems


def check_notifications(notes, facts: ScenarioFacts, stack, interval: int) -> list[str]:
    """Transitions chain per (host, service); each event notifies on its service."""
    from gridwatch.sim import SIM_EPOCH

    problems: list[str] = []
    last: dict[tuple[str, str], object] = {}
    for n in notes:
        key = (n.host, n.service)
        if n.old_state == n.new_state:
            problems.append(f"notification without a change: {n}")
        if key in last and last[key] != n.old_state:
            problems.append(f"{key} notification does not chain: {last[key]} then {n.old_state}")
        last[key] = n.new_state

    # (event kind, host, service); the cluster services see a login outage
    # only once every member is dark and the last report has gone stale.
    watched = {
        "LOGIN_OUTAGE": [("login_cluster", "login"), ("node_cluster", "node_state")],
        "NODE_DRAIN": [(h, "node_state") for h in facts.login_names]
        + [("node_cluster", "node_state")],
        "DNS_FAIL": [(h, "dns") for h in facts.login_names],
    }
    lag = 3 * interval  # stale after two intervals (the default staleness_factor), seen at the third
    for e in facts.events:
        if e.kind == "NODE_DRAIN" and int(e.values.get("count", 0)) < stack.down_warn:
            continue
        for host, service in watched.get(e.kind, ()):
            start = SIM_EPOCH + e.from_tick * facts.tick_s
            end = SIM_EPOCH + e.to_tick * facts.tick_s
            times = [n.t for n in notes if (n.host, n.service) == (host, service)]
            if not any(start <= t <= start + lag for t in times):
                problems.append(f"{e.kind} at {start}: no notification on {host}/{service}")
            if not any(end <= t <= end + interval for t in times):
                problems.append(f"{e.kind} end at {end}: no notification on {host}/{service}")
    return problems
