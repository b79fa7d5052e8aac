"""Golden records of the invariants: store bytes, run summary, notifications,
report JSON, API body and agent wire text.

A two-hour scenario with every event kind is replayed through ``sim.run``
into a file-backed store, and each output is compared with a constant
recorded from a known-good build. Equality, not tolerance: a change that
moves any byte of these outputs fails here, and must update the constants
on purpose, saying why.
"""

import hashlib
import json
import shutil
import urllib.request

import pytest

from gridwatch.agent import Agent
from gridwatch.report import ApiServer, contractual_report
from gridwatch.sim import (
    SIM_EPOCH,
    Event,
    EventKind,
    Scenario,
    StackConfig,
    _agent_configs,
    run,
    sources_at,
)
from gridwatch.tsdb import Store
from reference_impls import serving

# 1,440 ticks of 5 s: two simulated hours on the default 512-node shape.
SCENARIO = Scenario(
    name="golden",
    seed=11,
    tick_s=5,
    duration_ticks=1440,
    events=(
        Event(EventKind.NODE_DRAIN, 120, 600, count=40),
        Event(EventKind.HPL_RUN, 240, 960),
        Event(EventKind.DNS_FAIL, 450, 510),
        Event(EventKind.POWER_DIP, 480, 492, depth_fraction=0.4, cabinets=("x1001",)),
        Event(EventKind.MEM_LEAK, 600, 1400, rate_pct_per_h=80.0),
        Event(EventKind.LOGIN_OUTAGE, 720, 864, hosts=("login2",)),
        Event(EventKind.LOGIN_OUTAGE, 1080, 1260),
    ),
)
RETENTION = "1m:6h,10m:2d,1h:7d"
API_SERIES = "hpc.login_cluster.login.login_up"
API_WINDOW = (SIM_EPOCH + 1020 * 5, SIM_EPOCH + 1320 * 5)
WIRE_TICK = 486  # HPL run, power dip, node drain and DNS failure all active

GOLDEN_STORE_SHA256 = "aba93863c5cf47fc483cf11cf0b17a9c761a974a79dc2d2fc34ce97a559b5834"
GOLDEN_SUMMARY = (
    '{"hosts_down":72,"notifications":30,"polls":600,"samples":9263,"scenario":"golden",'
    '"seed":11,"series":75,"tick_s":5,"ticks":1440}'
)
GOLDEN_NOTIFICATIONS = (
    (
        '{"host":"login1","new":"WARN","old":"OK","service":"node_state","summary":"40 '
        'nodes down across 1 partition(s)","t":1609459800}'
    ),
    (
        '{"host":"node_cluster","new":"WARN","old":"OK","service":"node_state",'
        '"summary":"40 nodes down across 1 partition(s)","t":1609459800}'
    ),
    (
        '{"host":"login2","new":"WARN","old":"OK","service":"node_state","summary":"40 '
        'nodes down across 1 partition(s)","t":1609459800}'
    ),
    (
        '{"host":"login3","new":"WARN","old":"OK","service":"node_state","summary":"40 '
        'nodes down across 1 partition(s)","t":1609459800}'
    ),
    (
        '{"host":"login4","new":"WARN","old":"OK","service":"node_state","summary":"40 '
        'nodes down across 1 partition(s)","t":1609459800}'
    ),
    (
        '{"host":"login1","new":"CRIT","old":"OK","service":"dns","summary":"resolution of '
        'cluster.local failed: simulated resolver failure for cluster.local",'
        '"t":1609461480}'
    ),
    (
        '{"host":"login2","new":"CRIT","old":"OK","service":"dns","summary":"resolution of '
        'cluster.local failed: simulated resolver failure for cluster.local",'
        '"t":1609461480}'
    ),
    (
        '{"host":"login3","new":"CRIT","old":"OK","service":"dns","summary":"resolution of '
        'cluster.local failed: simulated resolver failure for cluster.local",'
        '"t":1609461480}'
    ),
    (
        '{"host":"login4","new":"CRIT","old":"OK","service":"dns","summary":"resolution of '
        'cluster.local failed: simulated resolver failure for cluster.local",'
        '"t":1609461480}'
    ),
    (
        '{"host":"login1","new":"OK","old":"CRIT","service":"dns","summary":"cluster.local '
        'resolves to 2 address(es)","t":1609461780}'
    ),
    (
        '{"host":"login2","new":"OK","old":"CRIT","service":"dns","summary":"cluster.local '
        'resolves to 2 address(es)","t":1609461780}'
    ),
    (
        '{"host":"login3","new":"OK","old":"CRIT","service":"dns","summary":"cluster.local '
        'resolves to 2 address(es)","t":1609461780}'
    ),
    (
        '{"host":"login4","new":"OK","old":"CRIT","service":"dns","summary":"cluster.local '
        'resolves to 2 address(es)","t":1609461780}'
    ),
    (
        '{"host":"login1","new":"OK","old":"WARN","service":"node_state","summary":"0 '
        'nodes down across 1 partition(s)","t":1609462200}'
    ),
    (
        '{"host":"node_cluster","new":"OK","old":"WARN","service":"node_state",'
        '"summary":"0 nodes down across 1 partition(s)","t":1609462200}'
    ),
    (
        '{"host":"login2","new":"OK","old":"WARN","service":"node_state","summary":"0 '
        'nodes down across 1 partition(s)","t":1609462200}'
    ),
    (
        '{"host":"login3","new":"OK","old":"WARN","service":"node_state","summary":"0 '
        'nodes down across 1 partition(s)","t":1609462200}'
    ),
    (
        '{"host":"login4","new":"OK","old":"WARN","service":"node_state","summary":"0 '
        'nodes down across 1 partition(s)","t":1609462200}'
    ),
    (
        '{"host":"login_cluster","new":"UNKNOWN","old":"OK","service":"login",'
        '"summary":"no fresh member report","t":1609464600}'
    ),
    (
        '{"host":"node_cluster","new":"UNKNOWN","old":"OK","service":"node_state",'
        '"summary":"no fresh member report","t":1609464600}'
    ),
    (
        '{"host":"login1","new":"CRIT","old":"OK","service":"memory","summary":"99.0% '
        'memory used","t":1609465500}'
    ),
    (
        '{"host":"login_cluster","new":"OK","old":"UNKNOWN","service":"login",'
        '"summary":"ssh probe of login-vip exited 0","t":1609465500}'
    ),
    (
        '{"host":"node_cluster","new":"OK","old":"UNKNOWN","service":"node_state",'
        '"summary":"0 nodes down across 1 partition(s)","t":1609465500}'
    ),
    (
        '{"host":"login2","new":"CRIT","old":"OK","service":"memory","summary":"99.0% '
        'memory used","t":1609465500}'
    ),
    (
        '{"host":"login3","new":"CRIT","old":"OK","service":"memory","summary":"99.0% '
        'memory used","t":1609465500}'
    ),
    (
        '{"host":"login4","new":"CRIT","old":"OK","service":"memory","summary":"99.0% '
        'memory used","t":1609465500}'
    ),
    (
        '{"host":"login1","new":"OK","old":"CRIT","service":"memory","summary":"29.1% '
        'memory used","t":1609466220}'
    ),
    (
        '{"host":"login2","new":"OK","old":"CRIT","service":"memory","summary":"29.1% '
        'memory used","t":1609466220}'
    ),
    (
        '{"host":"login3","new":"OK","old":"CRIT","service":"memory","summary":"29.1% '
        'memory used","t":1609466220}'
    ),
    (
        '{"host":"login4","new":"OK","old":"CRIT","service":"memory","summary":"29.1% '
        'memory used","t":1609466220}'
    ),
)
GOLDEN_REPORT = (
    '{"breaches":[[1609459800,1609462200,"node-below-threshold"],[1609464660,1609465500,'
    '"login-no-data"],[1609464660,1609465500,"node-no-data"]],"from":1609459200,'
    '"login_availability_pct":88.33333333333333,"node_availability_pct":55.0,'
    '"node_series":"hpc.node_cluster.node_state.avail_standard","threshold_nodes":481,'
    '"to":1609466400}'
)
GOLDEN_API_BODY = (
    '{"interval":60,"points":[[1609464300,1.0],[1609464360,1.0],[1609464420,1.0],'
    '[1609464480,1.0],[1609464540,1.0],[1609464600,1.0],[1609464660,null],[1609464720,null]'
    ',[1609464780,null],[1609464840,null],[1609464900,null],[1609464960,null],[1609465020,'
    'null],[1609465080,null],[1609465140,null],[1609465200,null],[1609465260,null],'
    '[1609465320,null],[1609465380,null],[1609465440,null],[1609465500,1.0],[1609465560,'
    '1.0],[1609465620,1.0],[1609465680,1.0],[1609465740,1.0]],'
    '"series":"hpc.login_cluster.login.login_up"}'
)
GOLDEN_ADMIN_PAYLOAD = (
    '<<<meta>>>\nversion: sim-golden\nhost_time: 1609461630\n<<<local>>>\n0 power '
    'system=322378.61796586006|cab_x1000=89333.34745325909|cab_x1001=53663.22122343051|'
    'cab_x1002=89637.51026648912|cab_x1003=89744.5390226813|'
    'volt_x1000_0=53.947568888145256|volt_x1000_1=53.84844649722408|'
    'volt_x1000_2=54.018957086287976|volt_x1000_3=53.83126061001435|'
    'volt_x1000_4=54.23455430673284|volt_x1000_5=54.47107687012054|'
    'volt_x1000_6=53.77608580158658|volt_x1000_7=53.903330172026365|'
    'volt_x1001_0=54.279799370958195|volt_x1001_1=53.99698507848796|'
    'volt_x1001_2=54.24159021346342|volt_x1001_3=53.76953740854333|'
    'volt_x1001_4=54.19550112131904|volt_x1001_5=54.35882063338377|'
    'volt_x1001_6=53.909112918398186|volt_x1001_7=53.760460397809396|'
    'volt_x1002_0=54.02943279434401|volt_x1002_1=53.838551895971456|'
    'volt_x1002_2=53.55143105383309|volt_x1002_3=53.84037856759622|'
    'volt_x1002_4=53.9937800962784|volt_x1002_5=54.474508993207415|'
    'volt_x1002_6=53.57804428406151|volt_x1002_7=53.71651023215015|'
    'volt_x1003_0=54.06299506781184|volt_x1003_1=53.755300698714194|'
    'volt_x1003_2=53.66398447930331|volt_x1003_3=54.32132794924497|'
    'volt_x1003_4=53.83435240886725|volt_x1003_5=53.983702901281326|'
    'volt_x1003_6=54.39932923044888|volt_x1003_7=54.113991517581645 system 322379 W from 4 '
    'cabinets\n'
)
GOLDEN_LOGIN_PAYLOAD = (
    '<<<meta>>>\nversion: sim-golden\nhost_time: 1609461630\n<<<local>>>\n1 node_state '
    'state_standard_alloc=472|state_standard_drained=40|down_standard=40;10;100;0;512|'
    'avail_standard=472;;;0;512 40 nodes down across 1 partition(s)\n0 login login_up=1 '
    'ssh probe of login-vip exited 0\n2 dns dns_ok=0 resolution of cluster.local failed: '
    'simulated resolver failure for cluster.local\n0 memory '
    'mem_used_pct=30.445137806236744;90;95;0;100 30.4% memory used\n'
)


def store_sha256(root) -> str:
    """Hash of every ``.dat`` file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.dat"), key=lambda p: p.relative_to(root).as_posix()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def replay_outputs(root) -> dict:
    """Replay SCENARIO into a store at ``root``; every recorded output."""
    store = Store(root, default_retention=RETENTION)
    result = run(SCENARIO, StackConfig(retention=RETENTION), store=store)
    summary = json.loads(result.summary.to_json())
    del summary["wall_s"]
    with serving(ApiServer(("127.0.0.1", 0), result.store, result.report_cfg)) as api:
        url = "http://127.0.0.1:%d/api/v1/series/%s?from=%d&to=%d" % (
            api.address[1], API_SERIES, *API_WINDOW,
        )
        with urllib.request.urlopen(url, timeout=10) as resp:
            api_body = resp.read().decode("utf-8")
    return {
        "store": store_sha256(root),
        "summary": json.dumps(summary, sort_keys=True, separators=(",", ":")),
        "notifications": tuple(n.to_json() for n in result.notifications),
        "report": contractual_report(result.store, result.report_cfg, result.window).to_json(),
        "api": api_body,
    }


@pytest.fixture(scope="module")
def replay_root(tmp_path_factory):
    return tmp_path_factory.mktemp("golden") / "store"


@pytest.fixture(scope="module")
def replay(replay_root):
    return replay_outputs(replay_root)


def wire_payloads() -> dict[str, str]:
    """Each simulated host's payload text at WIRE_TICK."""
    sources = sources_at(SCENARIO, WIRE_TICK)
    return {
        name: Agent(cfg, sources, clock=sources.time, version="sim-golden").payload_text()
        for name, cfg in _agent_configs(SCENARIO)
    }


def test_store_files_are_byte_identical(replay):
    assert replay["store"] == GOLDEN_STORE_SHA256


def test_reopened_store_flushes_every_file_back_byte_identical(replay, replay_root, tmp_path):
    copy = tmp_path / "store"
    shutil.copytree(replay_root, copy)
    store = Store(copy)
    for name in store.list_series():
        store.read(name, *API_WINDOW)  # a series' file is read on its first touch
    for s in store._series.values():
        s.dirty = True
    originals = sorted(replay_root.rglob("*.dat"))
    assert store.flush() == len(originals) == 75
    assert sorted(p.relative_to(copy) for p in copy.rglob("*")) == sorted(
        p.relative_to(replay_root) for p in replay_root.rglob("*")
    )
    for path in originals:
        assert (copy / path.relative_to(replay_root)).read_bytes() == path.read_bytes(), path


def test_run_summary(replay):
    assert replay["summary"] == GOLDEN_SUMMARY


def test_notifications(replay):
    assert replay["notifications"] == GOLDEN_NOTIFICATIONS


def test_contractual_report(replay):
    assert replay["report"] == GOLDEN_REPORT


def test_api_series_body(replay):
    assert replay["api"] == GOLDEN_API_BODY


def test_admin_and_login_wire_text():
    payloads = wire_payloads()
    assert payloads["admin"] == GOLDEN_ADMIN_PAYLOAD
    assert payloads["login1"] == GOLDEN_LOGIN_PAYLOAD
