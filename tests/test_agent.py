"""Agent: built-in checks, external scripts, poll listener."""

import socket
import threading
import time

import pytest

from gridwatch.agent import (
    Agent,
    AgentConfig,
    AgentServer,
    DataSource,
    HostDataSource,
    agent_config_from_sections,
    check_dns,
    check_login,
    check_memory,
    check_node_state,
    check_power,
    normalize_node_state,
    parse_sinfo,
)
from gridwatch.config import ConfigError, parse_config
from gridwatch.model import CheckState, parse_agent_payload
from reference_impls import serving

SINFO = """\
PARTITION AVAIL NODES STATE
standard* up 5760 alloc
standard* up 88 idle
standard* up 12 down
debug up 10 idle
debug up 2 drained*
"""


class FakeSources(DataSource):
    """In-memory data source scripted per test."""

    def __init__(self, files=None, commands=None, login_rc=0, addresses=("10.0.0.1",)):
        self.files = dict(files or {})
        self.commands = dict(commands or {})
        self.login_rc = login_rc
        self.addresses = addresses if isinstance(addresses, Exception) else list(addresses)

    def read_file(self, path):
        if path not in self.files:
            raise FileNotFoundError(path)
        value = self.files[path]
        return value.encode() if isinstance(value, str) else value

    def run_command(self, argv, timeout=None):
        key = argv[0]
        if key not in self.commands:
            return 127, ""
        return self.commands[key]

    def probe_login(self, target, timeout=None):
        if isinstance(self.login_rc, Exception):
            raise self.login_rc
        return self.login_rc

    def resolve_name(self, name):
        if isinstance(self.addresses, Exception):
            raise self.addresses
        return list(self.addresses)


def rectifier_files(per_cabinet, root="/var/volatile/cec"):
    """Build rectifier files from {cabinet: [(power, voltage), ...]}."""
    files = {}
    for cab, readings in per_cabinet.items():
        for n, (p, v) in enumerate(readings):
            files[f"{root}/{cab}/rectifiers/{n}"] = f"power_w {p!r}\nvoltage_v {v!r}\n"
    return files


# -- sinfo parsing -----------------------------------------------------------


def test_parse_sinfo_counts_by_partition_and_state():
    parts = parse_sinfo(SINFO)
    assert list(parts) == ["standard", "debug"]  # the order first seen
    assert parts["standard"] == {"alloc": 5760, "idle": 88, "down": 12}
    assert parts["debug"] == {"idle": 10, "drained": 2}


def test_parse_sinfo_skips_junk_rows():
    text = "PARTITION AVAIL NODES STATE\ngarbage\nstandard up notanumber idle\nstandard up -2 idle\nstandard up 4 idle\n"
    assert parse_sinfo(text) == {"standard": {"idle": 4}}


def test_parse_sinfo_merges_repeated_state_rows():
    text = "a up 3 idle\na up 2 idle*\n"
    assert parse_sinfo(text) == {"a": {"idle": 5}}


@pytest.mark.parametrize("token,expected", [
    ("IDLE", "idle"), ("drained*", "drained"), ("down~", "down"),
    ("alloc#", "alloc"), ("*", "unknown"),
])
def test_normalize_node_state(token, expected):
    assert normalize_node_state(token) == expected


# -- node_state check ----------------------------------------------------------


def node_perf(result):
    return {p.key: p.value for p in result.perfdata}


def test_check_node_state_perfdata_and_counts():
    src = FakeSources(commands={"sinfo": (0, SINFO)})
    r = check_node_state(src, AgentConfig())
    assert r.state is CheckState.OK
    perf = node_perf(r)
    assert perf["down_standard"] == 12
    assert perf["avail_standard"] == 5848
    assert perf["state_standard_alloc"] == 5760
    assert perf["down_debug"] == 2  # drained counts as down
    assert perf["avail_debug"] == 10
    assert "14 nodes down" in r.summary
    bounds = {p.key: (p.min, p.max) for p in r.perfdata}
    assert bounds["down_standard"] == (0, 5860)
    assert bounds["avail_standard"] == (0, 5860)


def test_check_node_state_thresholds():
    src = FakeSources(commands={"sinfo": (0, SINFO)})
    assert check_node_state(src, AgentConfig(down_warn=10, down_crit=100)).state is CheckState.WARN
    assert check_node_state(src, AgentConfig(down_warn=5, down_crit=14)).state is CheckState.CRIT
    assert check_node_state(src, AgentConfig(down_warn=50, down_crit=100)).state is CheckState.OK


def test_check_node_state_unknown_on_failure():
    assert check_node_state(FakeSources(), AgentConfig()).state is CheckState.UNKNOWN  # exit 127
    src = FakeSources(commands={"sinfo": (0, "PARTITION AVAIL NODES STATE\n")})
    assert check_node_state(src, AgentConfig()).state is CheckState.UNKNOWN  # no rows

    class Exploding(FakeSources):
        def run_command(self, argv, timeout=None):
            raise RuntimeError("boom")

    r = check_node_state(Exploding(), AgentConfig())
    assert r.state is CheckState.UNKNOWN and "boom" in r.summary


# -- power check ---------------------------------------------------------------


def test_check_power_sums_cabinets_and_system():
    files = rectifier_files({
        "x1000": [(10_000.0, 54.0), (20_000.0, 53.8)],
        "x1001": [(30_000.0, 54.2), (40_000.0, 54.1)],
    })
    r = check_power(FakeSources(files=files), AgentConfig(cabinets=("x1000", "x1001")))
    assert r.state is CheckState.OK
    perf = node_perf(r)
    assert perf["system"] == 100_000.0
    assert perf["cab_x1000"] == 30_000.0
    assert perf["cab_x1001"] == 70_000.0
    assert perf["volt_x1000_1"] == 53.8
    assert perf["system"] == perf["cab_x1000"] + perf["cab_x1001"]
    assert r.perfdata[0].key == "system"  # system value leads the list


def test_check_power_all_zero_readings_is_ok():
    files = rectifier_files({"x1000": [(0.0, 0.0)]})
    r = check_power(FakeSources(files=files), AgentConfig(cabinets=("x1000",)))
    assert r.state is CheckState.OK and node_perf(r)["system"] == 0.0


def test_check_power_unreachable_cabinet_warns_and_names_it():
    files = rectifier_files({"x1000": [(500.0, 54.0)]})
    r = check_power(FakeSources(files=files), AgentConfig(cabinets=("x1000", "x1001")))
    assert r.state is CheckState.WARN
    assert "x1001" in r.summary
    assert node_perf(r)["system"] == 500.0
    assert "cab_x1001" not in node_perf(r)


def test_check_power_all_unreachable_is_crit():
    r = check_power(FakeSources(), AgentConfig(cabinets=("x1000", "x1001")))
    assert r.state is CheckState.CRIT
    assert r.perfdata == []
    assert "2 cabinet controllers unreachable" in r.summary


def test_check_power_thresholds():
    files = rectifier_files({"x1000": [(900.0, 54.0)]})
    src = FakeSources(files=files)
    assert check_power(src, AgentConfig(cabinets=("x1000",), power_warn_w=1000.0)).state is CheckState.OK
    r = check_power(src, AgentConfig(cabinets=("x1000",), power_warn_w=800.0))
    assert r.state is CheckState.WARN and "warning level" in r.summary
    r = check_power(src, AgentConfig(cabinets=("x1000",), power_warn_w=500.0, power_crit_w=800.0))
    assert r.state is CheckState.CRIT and "over 800 W limit" in r.summary
    assert r.perfdata[0].warn == 500.0 and r.perfdata[0].crit == 800.0


def test_check_power_rectifier_numbering_stops_at_gap():
    files = rectifier_files({"x1000": [(1.0, 54.0), (2.0, 54.0)]})
    files["/var/volatile/cec/x1000/rectifiers/5"] = "power_w 99.0\nvoltage_v 54.0\n"  # unreachable: gap at 2
    r = check_power(FakeSources(files=files), AgentConfig(cabinets=("x1000",)))
    assert node_perf(r)["system"] == 3.0


def test_check_power_bad_rectifier_file_marks_cabinet_unreachable():
    files = {"/var/volatile/cec/x1000/rectifiers/0": "voltage_v 54.0\n"}  # power_w missing
    r = check_power(FakeSources(files=files), AgentConfig(cabinets=("x1000",)))
    assert r.state is CheckState.CRIT


def test_check_power_negative_reading_marks_cabinet_unreachable():
    nan, inf = float("nan"), float("inf")
    for bad in ((-1.0, 54.0), (100.0, -0.5), (nan, 54.0), (inf, 54.0), (-inf, 54.0), (100.0, nan), (100.0, inf)):
        files = rectifier_files({"x1000": [(100.0, 54.0), bad], "x1001": [(300.0, 54.0)]})
        r = check_power(FakeSources(files=files), AgentConfig(cabinets=("x1000", "x1001")))
        assert r.state is CheckState.WARN, bad
        assert "unreachable: x1000" in r.summary
        assert node_perf(r) == {"system": 300.0, "cab_x1001": 300.0, "volt_x1001_0": 54.0}


@pytest.mark.parametrize("reading", ["nan", "inf"])
def test_a_non_finite_rectifier_reading_blanks_no_other_check(reading):
    files = rectifier_files({"x1001": [(300.0, 54.0)]})
    files["/var/volatile/cec/x1000/rectifiers/0"] = f"power_w {reading}\nvoltage_v 54.0\n"
    files["/proc/meminfo"] = meminfo(1000, 500)
    agent = Agent(AgentConfig(checks=("power", "memory"), cabinets=("x1000", "x1001")), FakeSources(files=files))
    results = parse_agent_payload(agent.payload_text()).results
    assert [(r.service, r.state, r.summary) for r in results] == [
        ("power", CheckState.WARN, "system 300 W from 1 cabinets; unreachable: x1000"),
        ("memory", CheckState.OK, "50.0% memory used"),
    ]


@pytest.mark.parametrize("readings", [
    {"x1000": [(1e308, 54.0), (1e308, 54.0)]},  # the cabinet sum overflows
    {"x1000": [(1e308, 54.0)], "x1001": [(1e308, 54.0)]},  # only the system sum does
])
def test_a_power_sum_that_overflows_is_unknown_and_blanks_no_other_check(readings):
    files = rectifier_files(readings)
    files["/proc/meminfo"] = meminfo(1000, 500)
    cfg = AgentConfig(checks=("power", "memory"), cabinets=tuple(readings))
    results = parse_agent_payload(Agent(cfg, FakeSources(files=files)).payload_text()).results
    assert [(r.service, r.state, r.summary) for r in results] == [
        ("power", CheckState.UNKNOWN, f"system power from {len(readings)} cabinets overflows"),
        ("memory", CheckState.OK, "50.0% memory used"),
    ]
    assert results[0].perfdata == []


# -- login / dns / memory checks ------------------------------------------------


def test_check_login_up_and_down():
    up = check_login(FakeSources(login_rc=0), AgentConfig(login_target="login-vip"))
    assert up.state is CheckState.OK and node_perf(up)["login_up"] == 1.0
    down = check_login(FakeSources(login_rc=255), AgentConfig(login_target="login-vip"))
    assert down.state is CheckState.CRIT and node_perf(down)["login_up"] == 0.0
    assert "exited 255" in down.summary
    raising = check_login(FakeSources(login_rc=OSError("no route")), AgentConfig(login_target="login-vip"))
    assert raising.state is CheckState.CRIT


def test_check_dns_resolution():
    ok = check_dns(FakeSources(addresses=("10.0.0.1", "10.0.0.2")), AgentConfig(dns_name="cluster.local"))
    assert ok.state is CheckState.OK and node_perf(ok)["dns_ok"] == 1.0
    assert "2 address(es)" in ok.summary
    fail = check_dns(FakeSources(addresses=OSError("NXDOMAIN")), AgentConfig(dns_name="cluster.local"))
    assert fail.state is CheckState.CRIT and node_perf(fail)["dns_ok"] == 0.0
    assert "cluster.local" in fail.summary
    empty = check_dns(FakeSources(addresses=()), AgentConfig(dns_name="cluster.local"))
    assert empty.state is CheckState.CRIT


def meminfo(total_kb, avail_kb):
    return f"MemTotal: {total_kb} kB\nMemFree: 1 kB\nMemAvailable: {avail_kb} kB\n"


def memory_check(files, warn_pct=90.0, crit_pct=95.0):
    return check_memory(FakeSources(files=files), AgentConfig(mem_warn_pct=warn_pct, mem_crit_pct=crit_pct))


def test_check_memory_percentages_and_thresholds():
    r = memory_check({"/proc/meminfo": meminfo(1000, 700)})
    assert r.state is CheckState.OK
    assert node_perf(r)["mem_used_pct"] == pytest.approx(30.0)
    assert memory_check({"/proc/meminfo": meminfo(1000, 80)}).state is CheckState.WARN
    assert memory_check({"/proc/meminfo": meminfo(1000, 20)}).state is CheckState.CRIT
    assert memory_check({"/proc/meminfo": meminfo(1000, 20)}, None, None).state is CheckState.OK


def test_check_memory_unknown_when_unreadable_or_incomplete():
    assert memory_check({}).state is CheckState.UNKNOWN
    assert memory_check({"/proc/meminfo": "MemTotal: 1000 kB\n"}).state is CheckState.UNKNOWN


# -- the collection loop ---------------------------------------------------------


def collect(sources, **cfg):
    return Agent(AgentConfig(**cfg), sources).build_payload()


def test_empty_collection_carries_the_host_time():
    payload = Agent(AgentConfig(), FakeSources(), clock=lambda: 42).build_payload()
    assert payload.results == []
    assert payload.host_time == 42


def test_missing_check_dir_is_tolerated(tmp_path):
    assert collect(FakeSources(), check_dir=str(tmp_path / "absent")).results == []


def write_script(tmp_path, name, body):
    script = tmp_path / name
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return script


def test_scripts_run_through_the_data_source(tmp_path):
    write_script(tmp_path, "10-hello", 'printf "0 hello - hi there\\n1 second k=3 warn\\n"')
    (tmp_path / "notes.txt").write_text("not executable, ignored")
    payload = collect(HostDataSource(), check_dir=str(tmp_path))
    assert [(r.service, r.state) for r in payload.results] == [
        ("hello", CheckState.OK),
        ("second", CheckState.WARN),
    ]


def test_failing_script_becomes_unknown_result(tmp_path):
    write_script(tmp_path, "bad", "exit 3")
    payload = collect(HostDataSource(), check_dir=str(tmp_path))
    assert [r.service for r in payload.results] == ["_check_failed_bad"]
    assert payload.results[0].state is CheckState.UNKNOWN
    assert "exited 3" in payload.results[0].summary


def test_malformed_script_output_names_the_script(tmp_path):
    write_script(tmp_path, "mixed.sh", 'printf "0 fine - ok\\nbogus output\\n"')
    payload = collect(HostDataSource(), check_dir=str(tmp_path))
    assert [r.service for r in payload.results] == ["fine", "_parse_error_mixed_sh"]


def test_hanging_script_is_demoted_not_fatal(tmp_path):
    write_script(tmp_path, "slow", "sleep 5")
    started = time.monotonic()
    payload = collect(HostDataSource(), check_dir=str(tmp_path), check_timeout_s=0.3)
    assert time.monotonic() - started < 4.0
    assert [r.service for r in payload.results] == ["_check_failed_slow"]
    assert "timed out" in payload.results[0].summary


class HungSinfo(FakeSources):
    """sinfo blocks until ``release`` is set; everything else answers at once."""

    def __init__(self, release, commands=None):
        super().__init__(files={"/proc/meminfo": meminfo(1000, 500)}, commands=commands)
        self.release = release

    def run_command(self, argv, timeout=None):
        if argv[0] != "sinfo":
            return super().run_command(argv, timeout)
        self.release.wait(30)
        return 127, ""


def test_hung_check_costs_one_thread_and_blinds_no_other_check():
    release = threading.Event()
    before = threading.active_count()
    cfg = AgentConfig(checks=("node_state", "memory", "dns", "login"), check_timeout_s=1.0)
    agent = Agent(cfg, HungSinfo(release))
    collections, extra_threads = [], []
    try:
        for _ in range(12):
            collections.append(agent.build_payload().results)
            extra_threads.append(threading.active_count() - before)
    finally:
        release.set()
    for n, (_, *others) in enumerate(collections):
        assert [(r.service, r.state) for r in others] == [
            ("memory", CheckState.OK), ("dns", CheckState.OK), ("login", CheckState.OK)
        ], n
    assert [(hung.service, hung.summary) for hung, *_ in collections] == [
        ("_check_failed_node_state", "timed out after 1s")
    ] + [("_check_failed_node_state", "still running since an earlier poll")] * 11
    assert extra_threads == [1] * 12


def test_hanging_builtin_is_demoted_when_concurrent():
    release = threading.Event()
    agent = Agent(AgentConfig(checks=("node_state", "memory"), check_timeout_s=0.3), HungSinfo(release))
    started = time.monotonic()
    try:
        results = agent.build_payload().results
        assert time.monotonic() - started < 4.0
        assert [(r.service, r.state, r.summary) for r in results] == [
            ("_check_failed_node_state", CheckState.UNKNOWN, "timed out after 0.3s"),
            ("memory", CheckState.OK, "50.0% memory used"),
        ]
    finally:
        release.set()
    hung = agent._running["node_state"]
    hung.join(5)
    assert not hung.is_alive()


def test_a_collection_does_not_wait_on_a_check_still_running():
    release = threading.Event()
    agent = Agent(AgentConfig(checks=("node_state", "memory"), check_timeout_s=2.0), HungSinfo(release))
    try:
        agent.build_payload()  # node_state times out here and runs on
        started = time.monotonic()
        results = agent.build_payload().results
        assert time.monotonic() - started < 1.0
        assert [(r.service, r.summary) for r in results] == [
            ("_check_failed_node_state", "still running since an earlier poll"),
            ("memory", "50.0% memory used"),
        ]
    finally:
        release.set()
    hung = agent._running["node_state"]
    hung.join(5)
    assert not hung.is_alive()
    assert [(r.service, r.summary) for r in agent.build_payload().results] == [
        ("node_state", "sinfo failed (exit 127)"),  # an ended check runs again
        ("memory", "50.0% memory used"),
    ]


def test_a_script_does_not_share_a_builtins_guard(tmp_path):
    script = write_script(tmp_path, "node_state", "exit 0")
    release = threading.Event()
    sources = HungSinfo(release, commands={str(script): (0, "0 node_state_script - ok\n")})
    agent = Agent(AgentConfig(checks=("node_state",), check_dir=str(tmp_path), check_timeout_s=0.5), sources)
    try:
        agent.build_payload()  # node_state times out here and runs on
        payload = agent.build_payload()
    finally:
        release.set()
    assert [(r.service, r.summary) for r in payload.results] == [
        ("_check_failed_node_state", "still running since an earlier poll"),
        ("node_state_script", "ok"),
    ]


def test_node_state_bounds_sinfo_by_the_check_timeout():
    timeouts = []

    class Recording(FakeSources):
        def run_command(self, argv, timeout=None):
            timeouts.append(timeout)
            return super().run_command(argv, timeout)

    cfg = AgentConfig(checks=("node_state",), check_timeout_s=2.5)
    Agent(cfg, Recording(commands={"sinfo": (0, SINFO)})).build_payload()
    assert timeouts == [2.5]


def test_every_check_setting_reaches_its_check_through_the_agent():
    calls = []

    class Recording(FakeSources):
        def read_file(self, path):
            calls.append(("read", path))
            return super().read_file(path)

        def run_command(self, argv, timeout=None):
            calls.append(("run", argv[0], timeout))
            return super().run_command(argv, timeout)

        def probe_login(self, target, timeout=None):
            calls.append(("login", target, timeout))
            return super().probe_login(target, timeout)

        def resolve_name(self, name):
            calls.append(("resolve", name))
            return super().resolve_name(name)

    cfg = AgentConfig(
        checks=("power", "node_state", "login", "dns", "memory"),
        check_timeout_s=2.5,
        cabinets=("c7",),
        cec_root="/cec",
        power_warn_w=100.0,
        power_crit_w=200.0,
        down_states=("Idle",),
        down_warn=3,
        down_crit=9,
        login_target="login-vip",
        dns_name="cluster.local",
        meminfo_path="/m/meminfo",
        mem_warn_pct=40.0,
        mem_crit_pct=60.0,
    )
    files = rectifier_files({"c7": [(150.0, 54.0)]}, root="/cec")
    files["/m/meminfo"] = meminfo(1000, 500)
    sources = Recording(files=files, commands={"sinfo": (0, "a up 3 idle\na up 2 down\n")})
    results = {r.service: r for r in Agent(cfg, sources).build_payload().results}

    assert sorted(calls) == sorted([
        ("read", "/cec/c7/rectifiers/0"),
        ("read", "/cec/c7/rectifiers/1"),
        ("run", "sinfo", 2.5),
        ("login", "login-vip", 2.5),
        ("resolve", "cluster.local"),
        ("read", "/m/meminfo"),
    ])
    power, nodes, login, dns, memory = (results[name] for name in cfg.checks)
    assert (power.state, power.perfdata[0].warn, power.perfdata[0].crit) == (CheckState.WARN, 100.0, 200.0)
    down = next(p for p in nodes.perfdata if p.key == "down_a")
    assert (nodes.state, down.value, down.warn, down.crit) == (CheckState.WARN, 3, 3, 9)  # only "idle" counts
    assert "login-vip" in login.summary and "cluster.local" in dns.summary
    mem = memory.perfdata[0]
    assert (memory.state, mem.value, mem.warn, mem.crit) == (CheckState.WARN, 50.0, 40.0, 60.0)


def test_raising_builtin_is_demoted():
    payload = collect(FakeSources(addresses=RuntimeError("kaput")), checks=("dns",))
    assert payload.results[0].service == "_check_failed_dns"
    assert "kaput" in payload.results[0].summary


# -- agent configuration -----------------------------------------------------------


def test_agent_config_defaults_without_section():
    cfg = agent_config_from_sections(parse_config("[other]\nx = 1\n"))
    assert cfg == AgentConfig()


def test_agent_config_from_section():
    text = """
    [agent]
    bind = 127.0.0.1
    port = 7001
    checks = power, memory
    cabinets = x1000, x1001
    power_warn_w = 4500000
    down_states = down, fail
    """
    cfg = agent_config_from_sections(parse_config(text))
    assert cfg.bind == "127.0.0.1" and cfg.port == 7001
    assert cfg.checks == ("power", "memory")
    assert cfg.cabinets == ("x1000", "x1001")
    assert cfg.power_warn_w == 4_500_000.0
    assert cfg.down_states == frozenset({"down", "fail"})


def test_agent_config_rejects_unknown_check():
    with pytest.raises(ConfigError, match="unknown built-in check 'frobnicate'"):
        agent_config_from_sections(parse_config("[agent]\nchecks = frobnicate\n"))


def test_agent_builds_configured_checks_only():
    src = FakeSources(commands={"sinfo": (0, SINFO)}, files={"/proc/meminfo": meminfo(1000, 500)})
    agent = Agent(AgentConfig(checks=("node_state", "memory")), src, clock=lambda: 7)
    payload = agent.build_payload()
    assert [r.service for r in payload.results] == ["node_state", "memory"]
    assert payload.host_time == 7


# -- the poll listener ---------------------------------------------------------------


def poll(address):
    with socket.create_connection(address, timeout=5.0) as sock:
        chunks = []
        while True:
            block = sock.recv(65536)
            if not block:
                break
            chunks.append(block)
    return b"".join(chunks)


def test_poll_listener_serves_fresh_payload_per_connection():
    ticker = iter(range(100, 200))
    src = FakeSources(files={"/proc/meminfo": meminfo(1000, 500)})
    agent = Agent(AgentConfig(checks=("memory",)), src, clock=lambda: next(ticker))
    with serving(AgentServer(("127.0.0.1", 0), agent.payload_text)) as srv:
        first = parse_agent_payload(poll(srv.address))
        second = parse_agent_payload(poll(srv.address))
    assert first.host_time == 100
    assert second.host_time == 101  # re-collected, not cached
    assert [r.service for r in first.results] == ["memory"]


def test_poll_listener_closes_quietly_when_payload_fails():
    def explode():
        raise ConnectionAbortedError("host is down")

    with serving(AgentServer(("127.0.0.1", 0), explode)) as srv:
        assert poll(srv.address) == b""
