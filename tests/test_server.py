"""Poller: state tracking, notifications, clusters, metric forwarding, scheduler."""

import http.server
import itertools
import json
import socket
import sys
import threading
import time

import pytest

from gridwatch import model
from gridwatch.agent import AgentConfig, AgentServer
from gridwatch.model import (
    AgentPayload,
    CheckResult,
    CheckState,
    MetricSample,
    Perfdata,
    parse_agent_payload,
    parse_check_line,
)
from gridwatch.server import (
    ClusterServiceConfig,
    FileSink,
    HostConfig,
    MAX_PAYLOAD_BYTES,
    HostDown,
    MemorySink,
    MonitoringServer,
    Notification,
    WebhookSink,
    _series_name,
    dispatch,
)
from gridwatch.tsdb import Store
from reference_impls import FakeTime, payload_text, serving


def result(state, service="svc", perf=(), summary="s"):
    return CheckResult(state, service, list(perf), summary)


def payload(*results, t=1_000_000):
    return AgentPayload("test", t, list(results))


def make_server(**kwargs):
    kwargs.setdefault("hosts", [HostConfig("h1", "127.0.0.1:1")])
    kwargs.setdefault("store", Store(default_retention="10s:1h"))
    return MonitoringServer(**kwargs)


def closed_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# -- applying payloads --------------------------------------------------------


def test_apply_payload_queues_one_metric_per_perf_value():
    clock = FakeTime(1_000_000.0)
    srv = make_server(clock=clock.time)
    p = payload(
        result(CheckState.OK, "power", [Perfdata("system", 4.0), Perfdata("cab_x1000", 2.0)]),
        result(CheckState.OK, "memory", [Perfdata("mem_used_pct", 31.0)]),
        result(CheckState.OK, "heartbeat"),
    )
    notifications = srv.apply_payload(p, "h1")
    assert notifications == []  # first sighting is not a transition
    assert srv.store.list_series() == [
        "hpc.h1.memory.mem_used_pct", "hpc.h1.power.cab_x1000", "hpc.h1.power.system",
    ]
    assert srv.store.read("hpc.h1.power.cab_x1000", 999_990, 1_000_010)[1][1] == (1_000_000, 2.0)
    assert srv.store.read("hpc.h1.power.system", 999_990, 1_000_010)[1][1] == (1_000_000, 4.0)
    assert srv.store.read("hpc.h1.memory.mem_used_pct", 999_990, 1_000_010)[1][1][1] == 31.0


def test_series_names_are_sanitized():
    srv = make_server()
    srv.apply_payload(payload(result(CheckState.OK, "weird/svc:1", [Perfdata("k", 1.0)])), "host.one")
    assert srv.store.list_series() == ["hpc.host_one.weird_svc_1.k"]


def test_series_names_come_from_a_bounded_memo_keyed_by_prefix():
    clock = FakeTime(1_000_000.0)
    srv = make_server(clock=clock.time)
    polls = [
        [result(CheckState.OK, "s", [Perfdata("nan", float("nan"))])],  # refused: makes no series
        [result(CheckState.OK, "a.b", [Perfdata("k", 1.0)]),  # two services, one series
         result(CheckState.OK, "a_b", [Perfdata("k", 2.0)])],
        [result(CheckState.OK, "s", [Perfdata("k", 3.0), Perfdata("k", 4.0)])],
    ]
    for results in polls * 2:
        srv.apply_payload(payload(*results), "h1")
        clock.sleep(10)
    assert srv.store.list_series() == ["hpc.h1.a_b.k", "hpc.h1.s.k"]
    assert srv.store.read("hpc.h1.a_b.k", 1_000_000, 1_000_060)[1][1:4] == [
        (1_000_010, 2.0), (1_000_020, None), (1_000_030, None)]
    assert srv.store.read("hpc.h1.s.k", 1_000_000, 1_000_060)[1][5] == (1_000_050, 4.0)

    # The same host, service and key under another prefix is another series.
    hpc, lab = make_server(), make_server(prefix="lab")
    for server in (hpc, lab):
        server.apply_payload(payload(result(CheckState.OK, "s", [Perfdata("k", 5.0)])), "h1")
    assert hpc.store.list_series() == ["hpc.h1.s.k"]
    assert lab.store.list_series() == ["lab.h1.s.k"]
    assert _series_name.cache_info().maxsize is not None


def test_notification_fires_exactly_on_state_change():
    clock = FakeTime(1_000_000.0)
    srv = make_server(clock=clock.time)
    assert srv.apply_payload(payload(result(CheckState.OK)), "h1") == []
    clock.sleep(60)
    assert srv.apply_payload(payload(result(CheckState.OK)), "h1") == []
    clock.sleep(60)
    ns = srv.apply_payload(payload(result(CheckState.CRIT, summary="it broke")), "h1")
    assert len(ns) == 1
    n = ns[0]
    assert (n.old_state, n.new_state) == (CheckState.OK, CheckState.CRIT)
    assert n.host == "h1" and n.service == "svc" and n.summary == "it broke"
    clock.sleep(60)
    assert srv.apply_payload(payload(result(CheckState.CRIT, summary="still broken")), "h1") == []
    clock.sleep(60)
    back = srv.apply_payload(payload(result(CheckState.OK)), "h1")
    assert [(n.old_state, n.new_state) for n in back] == [(CheckState.CRIT, CheckState.OK)]


def test_a_service_repeated_in_a_payload_is_judged_once_by_its_last_result():
    # An agent sends this when a check_dir script prints a built-in's service name.
    clock = FakeTime(1_000_000.0)
    srv = make_server(clock=clock.time)
    ok = result(CheckState.OK, "disk", [Perfdata("used", 1.0)], "ok")
    full = result(CheckState.CRIT, "disk", [Perfdata("used", 2.0)], "full")
    counts = []
    for _ in range(5):
        counts.append(len(srv.apply_payload(payload(ok, full), "h1")))
        clock.sleep(10)
    assert counts == [0] * 5
    assert srv.records_snapshot()[("h1", "disk")] is full
    assert srv.store.read("hpc.h1.disk.used", 1_000_000, 1_000_040)[1][0] == (1_000_000, 2.0)
    back = srv.apply_payload(payload(full, ok), "h1")
    assert [(n.old_state, n.new_state, n.summary) for n in back] == [(CheckState.CRIT, CheckState.OK, "ok")]


def test_notification_json_schema():
    n = Notification(1_700_000_000, "login1", "dns", CheckState.OK, CheckState.CRIT, "nope")
    doc = json.loads(n.to_json())
    assert set(doc) == {"t", "host", "service", "old", "new", "summary"}
    assert doc == {
        "t": 1_700_000_000, "host": "login1", "service": "dns",
        "old": "OK", "new": "CRIT", "summary": "nope",
    }


# -- staleness ---------------------------------------------------------------


def test_service_goes_stale_by_age():
    clock = FakeTime(1_000_000.0)
    srv = make_server(hosts=[HostConfig("h1", "127.0.0.1:1", poll_interval_s=60)], clock=clock.time)
    srv.apply_payload(payload(result(CheckState.OK)), "h1")
    assert not srv.service_stale("h1", "svc")
    clock.sleep(119)  # 2.0 x 60s is the limit; just under stays fresh
    assert not srv.service_stale("h1", "svc")
    clock.sleep(2)
    assert srv.service_stale("h1", "svc")


def test_mark_host_stale_is_immediate():
    srv = make_server()
    srv.apply_payload(payload(result(CheckState.OK)), "h1")
    assert not srv.service_stale("h1", "svc")
    srv.mark_host_stale("h1")
    assert srv.service_stale("h1", "svc")


def test_unknown_service_is_stale():
    assert make_server().service_stale("h1", "never_seen")


# -- clusters ----------------------------------------------------------------


def cluster_fixture():
    clock = FakeTime(1_000_000.0)
    hosts = [HostConfig(f"m{i}", "127.0.0.1:1", poll_interval_s=60) for i in (1, 2, 3)]
    cluster = ClusterServiceConfig("login_cluster", ("m1", "m2", "m3"), "login")
    srv = make_server(hosts=hosts, clusters=[cluster], clock=clock.time)
    return clock, srv, cluster


def test_cluster_uses_freshest_member():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.OK, "login", summary="from m1")), "m1")
    clock.sleep(10)
    srv.apply_payload(payload(result(CheckState.WARN, "login", summary="from m2")), "m2")
    got = srv.cluster_state(cluster)
    assert got.summary == "from m2" and got.state is CheckState.WARN


def test_cluster_tie_breaks_to_smallest_host_name():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.OK, "login", summary="from m3")), "m3")
    srv.apply_payload(payload(result(CheckState.OK, "login", summary="from m2")), "m2")
    assert srv.cluster_state(cluster).summary == "from m2"  # same timestamp

    # The same ties on a server built with its clusters, whose members are
    # listed out of order; m2 and m3 belong to both clusters, m1 to one.
    hosts = [HostConfig(f"m{i}", "127.0.0.1:1", poll_interval_s=60) for i in (1, 2, 3)]
    login = ClusterServiceConfig("login_cluster", ("m3", "m1", "m2"), "login")
    other = ClusterServiceConfig("other_cluster", ("m3", "m2"), "login")

    def fetch(cfg):
        return payload_text(1_000_000, [f"0 login - from {cfg.name}"]).encode()

    srv = make_server(hosts=hosts, clusters=[login, other], clock=clock.time, fetch=fetch)
    cfg = {h.name: h for h in hosts}
    for host, expected in [("m3", ["m3", "m3"]), ("m2", ["m2", "m2"]), ("m1", ["m1", "m2"])]:
        srv.process_host(cfg[host])  # every poll at the same time: each cluster is a tie
        records = srv.records_snapshot()
        assert [records[c.name, "login"].summary for c in (login, other)] == [f"from {m}" for m in expected], host


def test_cluster_skips_stale_members():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.CRIT, "login", summary="old m1")), "m1")
    clock.sleep(70)
    srv.apply_payload(payload(result(CheckState.OK, "login", summary="new m2")), "m2")
    clock.sleep(60)  # m1 now beyond 2x60s, m2 within
    assert srv.cluster_state(cluster).summary == "new m2"
    clock.sleep(70)  # m2 beyond 2x60s too
    assert srv.cluster_state(cluster).summary == "no fresh member report"


def test_cluster_with_no_fresh_member_is_unknown():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.OK, "login")), "m1")
    srv.mark_host_stale("m1")
    got = srv.cluster_state(cluster)
    assert got.state is CheckState.UNKNOWN
    assert got.summary == "no fresh member report"
    assert got.perfdata == []  # no values -> the cluster series gets a gap
    srv.apply_payload(payload(result(CheckState.OK, "login", summary="back")), "m1")  # the host answers again
    assert not srv.service_stale("m1", "login")
    assert srv.cluster_state(cluster).summary == "back"


def test_evaluate_cluster_republishes_under_cluster_name():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.OK, "login", [Perfdata("login_up", 1.0)])), "m1")
    assert srv.evaluate_cluster(cluster) == []
    assert "hpc.login_cluster.login.login_up" in srv.store.list_series()
    # A member flap surfaces as a cluster transition too.
    clock.sleep(10)
    srv.apply_payload(payload(result(CheckState.CRIT, "login", [Perfdata("login_up", 0.0)])), "m1")
    ns = srv.evaluate_cluster(cluster)
    assert [(n.host, n.new_state) for n in ns] == [("login_cluster", CheckState.CRIT)]
    # Host and cluster records live in one table.
    snapshot = srv.records_snapshot()
    assert snapshot[("m1", "login")].state is CheckState.CRIT
    assert snapshot[("login_cluster", "login")].state is CheckState.CRIT
    assert not srv.service_stale("login_cluster", "login")


def test_a_cluster_the_server_was_not_built_with_is_refused():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.OK, "login", summary="from m1")), "m1")
    strangers = [ClusterServiceConfig("other_cluster", ("m1",), "login"),
                 ClusterServiceConfig("login_cluster", ("m1",), "login")]  # the name alone is not enough
    for stranger in strangers:
        with pytest.raises(ValueError, match="not one of this server's clusters"):
            srv.cluster_state(stranger)
        with pytest.raises(ValueError, match="not one of this server's clusters"):
            srv.evaluate_cluster(stranger)
    assert set(srv.records_snapshot()) == {("m1", "login")}
    assert srv.store.list_series() == []
    # An equal config is the same cluster.
    assert srv.cluster_state(ClusterServiceConfig("login_cluster", ("m1", "m2", "m3"), "login")).summary == "from m1"


def test_cluster_record_ages_at_its_fastest_members_interval():
    clock = FakeTime(1_000_000.0)
    hosts = [HostConfig(name, "127.0.0.1:1", poll_interval_s=s) for name, s in (("m1", 300), ("m2", 600))]
    cluster = ClusterServiceConfig("lc", ("m1", "m2", "gone"), "login")
    orphan = ClusterServiceConfig("none", ("gone",), "login")  # no configured member
    srv = make_server(hosts=hosts, clusters=[cluster, orphan], clock=clock.time)
    srv.apply_payload(payload(result(CheckState.OK, "login")), "m1")
    srv.evaluate_cluster(cluster)
    srv.evaluate_cluster(orphan)
    clock.sleep(150)
    assert not srv.service_stale("m1", "login")
    assert srv.cluster_state(cluster).state is CheckState.OK
    assert not srv.service_stale("lc", "login")
    assert srv.service_stale("none", "login")  # the default 60 s interval, 2 x 60 < 150
    clock.sleep(451)  # 601 s: beyond 2 x 300, the fastest member's interval
    assert srv.service_stale("lc", "login")


def test_host_and_cluster_names_must_be_unique():
    h1 = HostConfig("h1", "127.0.0.1:1")
    with pytest.raises(ValueError, match="h1"):
        make_server(hosts=[h1, HostConfig("h1", "127.0.0.1:2")])
    with pytest.raises(ValueError, match="h1"):
        make_server(hosts=[h1], clusters=[ClusterServiceConfig("h1", ("h1",), "svc")])
    cluster = ClusterServiceConfig("c1", ("h1",), "svc")
    with pytest.raises(ValueError, match="c1"):
        make_server(hosts=[h1], clusters=[cluster, cluster])


@pytest.mark.parametrize("prefix", ["bad prefix", "", "hpc.", ".hpc", "a..b", "hpc\n"])
def test_invalid_series_prefix_is_refused_at_construction(prefix):
    with pytest.raises(ValueError, match="prefix"):
        make_server(prefix=prefix)
    assert make_server(prefix="site-1.hpc_2").prefix == "site-1.hpc_2"


# -- polling over TCP -----------------------------------------------------------


def test_poll_host_reads_full_payload():
    srv = make_server()
    text = payload_text(123, ["0 a - ok", "1 b k=2 meh"])
    with serving(AgentServer(("127.0.0.1", 0), lambda: text)) as agent:
        cfg = HostConfig("h1", "127.0.0.1:%d" % agent.address[1])
        got = srv.poll_host(cfg)
    assert not isinstance(got, HostDown)
    assert got.host_time == 123
    assert [r.service for r in got.results] == ["a", "b"]


def test_a_default_agent_answers_a_default_poll_before_it_times_out():
    # A collection can take check_timeout_s; a poll that outlasts connect_timeout_s loses the whole host.
    assert AgentConfig().check_timeout_s < HostConfig("h", "127.0.0.1:1").connect_timeout_s


def test_poll_host_down_on_refused_connection():
    srv = make_server()
    cfg = HostConfig("h1", f"127.0.0.1:{closed_port()}", connect_timeout_s=0.5)
    got = srv.poll_host(cfg)
    assert isinstance(got, HostDown) and got.host == "h1"


def test_poll_host_down_on_empty_payload():
    srv = make_server()

    def dark():
        raise ConnectionAbortedError("down")

    with serving(AgentServer(("127.0.0.1", 0), dark)) as agent:
        got = srv.poll_host(HostConfig("h1", "127.0.0.1:%d" % agent.address[1]))
    assert isinstance(got, HostDown) and got.reason == "empty payload"


def test_poll_host_down_on_bad_address():
    got = make_server().poll_host(HostConfig("h1", "noport"))
    assert isinstance(got, HostDown)


def test_poll_host_bounds_the_whole_poll_of_a_dripping_agent():
    text = payload_text(123, ["0 a - ok"]).encode()

    def drip(listener):
        conn, _ = listener.accept()
        with conn:
            try:
                for i in range(len(text)):
                    conn.sendall(text[i:i + 1])
                    time.sleep(0.2)
            except OSError:
                pass  # the poller hung up

    with socket.create_server(("127.0.0.1", 0)) as listener:
        thread = threading.Thread(target=drip, args=(listener,), daemon=True)
        thread.start()
        cfg = HostConfig("h1", "127.0.0.1:%d" % listener.getsockname()[1], connect_timeout_s=0.5)
        started = time.monotonic()
        got = make_server().poll_host(cfg)
        took = time.monotonic() - started
        thread.join(timeout=len(text) * 0.2 + 5.0)
    assert isinstance(got, HostDown) and got.reason
    assert took < 1.5
    assert not thread.is_alive()


def test_poll_host_down_on_payload_over_the_cap():
    head = payload_text(123, ["0 a - "])
    text = payload_text(123, ["0 a - " + "x" * (MAX_PAYLOAD_BYTES + 1 - len(head))])
    assert len(text.encode()) == MAX_PAYLOAD_BYTES + 1
    with serving(AgentServer(("127.0.0.1", 0), lambda: text)) as agent:
        got = make_server().poll_host(HostConfig("h1", "127.0.0.1:%d" % agent.address[1]))
    assert isinstance(got, HostDown) and str(MAX_PAYLOAD_BYTES) in got.reason


@pytest.mark.parametrize(
    "fetched, reason",
    [
        (payload_text(123, ["0 a - ok"]).encode(), None),
        (ConnectionAbortedError("h1 is down"), "h1 is down"),
        (b"", "empty payload"),
    ],
    ids=["payload", "connection-aborted", "empty"],
)
def test_poll_host_parses_what_the_injected_fetch_returns(fetched, reason):
    def fetch(cfg):
        assert cfg.name == "h1"
        if isinstance(fetched, Exception):
            raise fetched
        return fetched

    got = make_server(fetch=fetch).poll_host(HostConfig("h1", "in-process"))
    if reason is None:
        assert got.host_time == 123 and [r.service for r in got.results] == ["a"]
    else:
        assert got == HostDown("h1", reason)


@pytest.fixture
def parses(monkeypatch):
    """The check lines handed to ``parse_check_line``, in order."""
    seen = []
    parse = model.parse_check_line

    def counted(line):
        seen.append(line)
        return parse(line)

    monkeypatch.setattr(model, "parse_check_line", counted)
    return seen


def scripted(*answers):
    """A fetch that returns each answer in turn, raising those that are exceptions."""
    answers = iter(answers)

    def fetch(cfg):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    return fetch


def test_an_unchanged_line_comes_back_as_the_same_result_and_notifies_nothing(parses):
    lines = ["2 disk used=97 almost full", "0 svc v=1 ok"]
    sink = MemorySink()
    srv = make_server(sinks=[sink], clock=FakeTime(1_000_000.0).time,
                      fetch=scripted(*(payload_text(t, lines).encode() for t in (1, 2))))
    cfg = srv.hosts["h1"]
    srv.process_host(cfg)
    first = srv.records_snapshot()
    assert srv.process_host(cfg) == [] and sink.notifications == []
    second = srv.records_snapshot()
    assert all(second[key] is first[key] for key in (("h1", "disk"), ("h1", "svc")))
    assert parses == lines  # the second payload parsed no check line
    assert srv.store.write_count == 4  # both polls still write every value


def test_a_changed_line_is_parsed_again(parses):
    srv = make_server(fetch=scripted(payload_text(1, ["0 svc v=1 ok", "0 other - same"]).encode(),
                                     payload_text(2, ["1 svc v=2 warm", "0 other - same"]).encode()))
    cfg = srv.hosts["h1"]
    old = srv.poll_host(cfg).results
    new = srv.poll_host(cfg).results
    assert parses == ["0 svc v=1 ok", "0 other - same", "1 svc v=2 warm"]
    assert new[0] == result(CheckState.WARN, "svc", [Perfdata("v", 2.0)], "warm") and new[0] is not old[0]
    assert new[1] is old[1]


def test_one_hosts_memo_never_serves_another(parses):
    text = payload_text(1, ["0 svc v=1 ok"]).encode()
    hosts = [HostConfig("h1", "in-process"), HostConfig("h2", "in-process")]
    srv = make_server(hosts=hosts, fetch=lambda cfg: text)
    got = [srv.poll_host(h).results[0] for h in hosts + hosts]
    assert parses == ["0 svc v=1 ok"] * 2  # once per host
    assert got[0] is not got[1] and got[2] is got[0] and got[3] is got[1]


@pytest.mark.parametrize("down", [ConnectionRefusedError("refused"), b""], ids=["fetch-fails", "empty"])
def test_a_host_down_poll_leaves_the_memo_as_it_was(parses, down):
    text = payload_text(1, ["0 svc v=1 ok"]).encode()
    srv = make_server(fetch=scripted(text, down, text))
    cfg = srv.hosts["h1"]
    before = srv.poll_host(cfg).results[0]
    assert isinstance(srv.poll_host(cfg), HostDown)
    assert srv.poll_host(cfg).results[0] is before
    assert parses == ["0 svc v=1 ok"]


def test_polls_racing_on_one_hosts_memo_each_parse_their_own_payload():
    lines = ["0 a v=1 ok", "1 a v=2 warm", "0 b - fine", "junk", "2 c w=3;1;2 bad"]
    answers = itertools.count()
    fetched = threading.local()

    def fetch(cfg):
        n = next(answers)
        fetched.raw = payload_text(n, [lines[(n + k) % len(lines)] for k in range(n % 4)]).encode()
        return fetched.raw

    srv = make_server(fetch=fetch)
    cfg, wrong = srv.hosts["h1"], []

    def poll_many():
        for _ in range(300):
            got = srv.poll_host(cfg)
            if got.results != parse_agent_payload(fetched.raw).results:
                wrong.append(fetched.raw)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=poll_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert all(parse_check_line(line) == r for line, r in srv._memos["h1"].items())


def test_process_host_marks_services_stale_when_down():
    clock = FakeTime(1_000_000.0)
    port = closed_port()
    hosts = [HostConfig("h1", f"127.0.0.1:{port}", connect_timeout_s=0.5)]
    srv = make_server(hosts=hosts, clock=clock.time)
    srv.apply_payload(payload(result(CheckState.OK)), "h1")
    assert not srv.service_stale("h1", "svc")
    srv.process_host(hosts[0])
    assert srv.service_stale("h1", "svc")  # stale immediately, well before 2x interval
    assert srv.host_down_counts == {"h1": 1}
    assert srv.poll_counts == {"h1": 1}


def test_older_cluster_evaluation_never_lands_after_a_newer_one():
    clock, srv, cluster = cluster_fixture()
    srv.apply_payload(payload(result(CheckState.OK, "login")), "m1")
    srv.evaluate_cluster(cluster)
    computed, resume = threading.Event(), threading.Event()
    real_cluster_state = srv.cluster_state

    def paused_cluster_state(c):
        got = real_cluster_state(c)
        if threading.current_thread().name == "older":
            computed.set()
            resume.wait(5)
        return got

    srv.cluster_state = paused_cluster_state
    notes = []

    def newer():
        srv.apply_payload(payload(result(CheckState.CRIT, "login")), "m1")
        notes.extend(srv.evaluate_cluster(cluster))

    older = threading.Thread(target=lambda: notes.extend(srv.evaluate_cluster(cluster)), name="older")
    later = threading.Thread(target=newer)
    older.start()
    assert computed.wait(5)
    later.start()
    later.join(0.3)  # lets the newer evaluation finish first wherever it can
    resume.set()
    older.join(5)
    later.join(5)
    assert not older.is_alive() and not later.is_alive()
    assert srv.records_snapshot()[("login_cluster", "login")].state is CheckState.CRIT
    assert [(n.old_state, n.new_state) for n in notes] == [(CheckState.OK, CheckState.CRIT)]


def test_a_reader_sees_all_of_a_poll_or_none_of_it():
    clock = FakeTime(1_000_000.0)
    srv = make_server(clock=clock.time)

    def poll(v):
        return payload(result(CheckState.OK, "svc", [Perfdata(f"k{i}", v) for i in range(3)]))

    srv.apply_payload(poll(1.0), "h1")
    clock.sleep(10)
    seen, readers = [], []
    write = srv.store.write

    def write_then_read(sample):
        write(sample)
        if not readers:  # the poll's first sample is written, the others not yet
            reader = threading.Thread(target=lambda: seen.append(srv.store.read("hpc.h1.svc.k2", 1_000_000, 1_000_020)))
            readers.append(reader)
            reader.start()
            reader.join(0.3)  # a read that does not wait for the poll returns here

    srv.store.write = write_then_read
    srv.apply_payload(poll(2.0), "h1")
    readers[0].join(5)
    assert seen == [(10, [(1_000_000, 1.0), (1_000_010, 2.0)])]


# -- sinks ---------------------------------------------------------------------


def test_file_sink_appends_json_lines(tmp_path):
    path = tmp_path / "notes.jsonl"
    sink = FileSink(path)
    n1 = Notification(1, "h", "s", CheckState.OK, CheckState.CRIT, "x")
    n2 = Notification(2, "h", "s", CheckState.CRIT, CheckState.OK, "y")
    dispatch(n1, [sink])
    dispatch(n2, [sink])
    lines = path.read_text().splitlines()
    assert [json.loads(l)["t"] for l in lines] == [1, 2]


class _Answer(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append(json.loads(body))
        self.send_response(self.server.status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def webhook_server(status):
    srv = http.server.HTTPServer(("127.0.0.1", 0), _Answer)
    srv.status = status
    srv.seen = []
    return srv


def test_webhook_sink_posts_notifications():
    srv = webhook_server(200)
    n = Notification(5, "h", "s", CheckState.OK, CheckState.WARN, "w")
    with serving(srv):
        sink = WebhookSink(f"http://127.0.0.1:{srv.server_address[1]}/hook")
        assert dispatch(n, [sink]) == 0
    assert srv.seen == [json.loads(n.to_json())]


def test_failing_webhook_does_not_block_other_sinks(tmp_path):
    srv = webhook_server(500)
    path = tmp_path / "notes.jsonl"
    n = Notification(5, "h", "s", CheckState.OK, CheckState.WARN, "w")
    from collections import Counter
    failures = Counter()
    with serving(srv):
        url = f"http://127.0.0.1:{srv.server_address[1]}/hook"
        failed = dispatch(n, [WebhookSink(url), FileSink(path), MemorySink()], failures)
    assert failed == 1
    assert path.read_text().count("\n") == 1  # file sink still wrote
    assert failures[f"webhook:{url}"] == 1


# -- refused samples ------------------------------------------------------------


def test_refused_samples_are_counted_and_the_poll_goes_on():
    clock = FakeTime(1_000_000.0)
    srv = make_server(clock=clock.time)
    # The series already holds a point two hours ahead, so a write at the
    # poll's time is older than the 1 h finest coverage.
    srv.store.write(MetricSample("hpc.h1.s.old", 1_007_200, 0.0))
    p = payload(result(CheckState.OK, "s", [
        Perfdata("a", 1.0), Perfdata("old", 2.0), Perfdata("nan", float("nan")), Perfdata("b", 3.0),
    ]))
    assert srv.apply_payload(p, "h1") == []
    assert srv.samples_rejected == 2
    for key, value in (("a", 1.0), ("b", 3.0)):
        assert srv.store.read(f"hpc.h1.s.{key}", 999_990, 1_000_010)[1][1] == (1_000_000, value)
    assert srv.store.list_series() == ["hpc.h1.s.a", "hpc.h1.s.b", "hpc.h1.s.old"]


def test_rejected_count_survives_concurrent_polls():
    srv = make_server(clock=FakeTime(1_000_000.0).time)
    p = payload(result(CheckState.OK, "s", [Perfdata("nan", float("nan")), Perfdata("v", 1.0)]))

    def poll_many():
        for _ in range(200):
            srv.apply_payload(p, "h1")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=poll_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert srv.samples_rejected == 800
    assert srv.store.write_count == 800


def test_a_reader_holding_the_store_lock_never_sees_a_torn_poll():
    hosts = [HostConfig(f"h{i}", "in-process") for i in range(4)]
    polled: dict[str, int] = {}  # each key is touched by its own host's thread only

    def fetch(cfg):
        n = polled[cfg.name] = polled.get(cfg.name, 0) + 1
        return payload_text(1, ["0 svc " + "|".join(f"k{i}={n}" for i in range(8)) + f" {n}"]).encode()

    srv = make_server(hosts=hosts, clock=FakeTime(1_000_000.0).time, fetch=fetch)
    torn, polled_all = [], threading.Event()

    def poll_many(cfg):
        for _ in range(300):
            srv.process_host(cfg)

    def read_many():
        while not polled_all.is_set():
            for h in hosts:
                with srv.store.lock:  # one change: the records and the series together
                    record = srv.records_snapshot().get((h.name, "svc"))
                    if record is None:
                        continue
                    values = [srv.store.read(f"hpc.{h.name}.svc.k{i}", 1_000_000, 1_000_010)[1][0][1]
                              for i in (0, 7)]
                    if values != [float(record.summary)] * 2:
                        torn.append((h.name, record.summary, values))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pollers = [threading.Thread(target=poll_many, args=(h,)) for h in hosts]
        readers = [threading.Thread(target=read_many) for _ in range(2)]
        for t in readers + pollers:
            t.start()
        for t in pollers:
            t.join(timeout=60)
        polled_all.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in readers + pollers)
    assert torn == []
    assert srv.poll_counts == {h.name: 300 for h in hosts}


# -- the scheduler ----------------------------------------------------------------


def test_scheduler_polls_on_cadence_and_survives_a_dead_host():
    fake = FakeTime(1_000_000.0)
    text = payload_text(7, ["0 beat up=1 ok"])
    agents = [AgentServer(("127.0.0.1", 0), lambda: text) for _ in range(3)]
    threads = [
        threading.Thread(target=a.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
        for a in agents
    ]
    for t in threads:
        t.start()
    try:
        hosts = [
            HostConfig(f"live{i}", "127.0.0.1:%d" % a.address[1], poll_interval_s=60)
            for i, a in enumerate(agents)
        ]
        hosts.append(HostConfig("dead", f"127.0.0.1:{closed_port()}", poll_interval_s=60, connect_timeout_s=0.5))
        srv = MonitoringServer(hosts, store=Store(default_retention="10s:1h"), clock=fake.time)
        stop = threading.Event()
        fake.on_advance = lambda now: stop.set() if now >= fake.start + 600 else None
        srv.run(stop, sleep=fake.sleep)
    finally:
        for a in agents:
            a.shutdown()
            a.server_close()
        for t in threads:
            t.join(timeout=5)

    counts = srv.poll_counts
    assert set(counts) == {"live0", "live1", "live2", "dead"}
    for name, got in counts.items():
        assert 10 <= got <= 11, f"{name} polled {got} times in 10 fake minutes"
    assert srv.host_down_counts.get("dead") == counts["dead"]
    assert all(srv.host_down_counts.get(f"live{i}", 0) == 0 for i in range(3))
    assert srv.store.write_count > 0


def test_a_scheduler_that_always_wakes_late_still_fills_every_slot():
    fake = FakeTime(1_000_000.0)
    text = payload_text(7, ["0 beat up=1 ok"]).encode()
    stop = threading.Event()
    host = HostConfig("h1", "in-process", poll_interval_s=10)
    srv = MonitoringServer([host], store=Store(default_retention="10s:1h"), clock=fake.time, fetch=lambda cfg: text)

    def late_sleep(dt):
        for thread in threading.enumerate():  # each poll stores its sample at the fake time it began
            if thread.name.startswith("poll-"):
                thread.join()
        fake.sleep(dt + 0.2)

    fake.on_advance = lambda now: stop.set() if now >= fake.start + 600 else None
    srv.run(stop, sleep=late_sleep)
    _, points = srv.store.read("hpc.h1.beat.up", int(fake.start), int(fake.start) + 600)
    assert [t for t, v in points if v is None] == []
    assert srv.poll_counts == {"h1": 60}


def test_scheduler_skips_a_host_whose_poll_is_still_in_flight():
    fake = FakeTime(1_000_000.0)
    text = payload_text(7, ["0 beat up=1 ok"]).encode()
    release, stop = threading.Event(), threading.Event()
    fetched = []

    def fetch(cfg):
        fetched.append(cfg.name)
        if cfg.name == "stuck":
            assert release.wait(10), "stuck poll never released"
        return text

    def on_advance(now):
        if now >= fake.start + 600:
            stop.set()
            release.set()

    hosts = [HostConfig(name, "in-process", poll_interval_s=60) for name in ("stuck", "live")]
    srv = MonitoringServer(hosts, store=Store(default_retention="10s:1h"), clock=fake.time, fetch=fetch)
    fake.on_advance = on_advance
    runner = threading.Thread(target=srv.run, args=(stop,), kwargs={"sleep": fake.sleep}, daemon=True)
    runner.start()
    runner.join(30)
    release.set()
    stop.set()
    assert not runner.is_alive()
    assert fetched.count("stuck") == 1
    assert 10 <= fetched.count("live") <= 11
    assert srv.poll_counts == {"stuck": 1, "live": fetched.count("live")}


def test_nine_hung_polls_never_delay_a_tenth_host():
    fake = FakeTime(1_000_000.0)
    text = payload_text(7, ["0 beat up=1 ok"]).encode()
    release, stop = threading.Event(), threading.Event()
    fetched = []

    def fetch(cfg):
        fetched.append(cfg.name)
        if cfg.name != "live":
            assert release.wait(10), "stuck poll never released"
        return text

    hosts = [HostConfig(f"stuck{i}", "in-process", poll_interval_s=60) for i in range(9)]
    hosts.append(HostConfig("live", "in-process", poll_interval_s=60))
    srv = MonitoringServer(hosts, store=Store(default_retention="10s:1h"), clock=fake.time, fetch=fetch)
    fake.on_advance = lambda now: stop.set() if now >= fake.start + 600 else None
    runner = threading.Thread(target=srv.run, args=(stop,), kwargs={"sleep": fake.sleep}, daemon=True)
    runner.start()
    try:
        assert stop.wait(30), "the fake clock never reached 10 minutes"
    finally:
        release.set()
        stop.set()
        runner.join(30)
    assert not runner.is_alive()
    live = fetched.count("live")
    assert 10 <= live <= 11, f"live polled {live} times in 10 fake minutes"
    assert srv.poll_counts == {**{f"stuck{i}": 1 for i in range(9)}, "live": live}


def test_run_returns_only_after_its_in_flight_poll_is_stored():
    fake = FakeTime(1_000_000.0)
    text = payload_text(7, ["0 beat up=1 ok"]).encode()
    entered, release, stop = threading.Event(), threading.Event(), threading.Event()

    def fetch(cfg):
        entered.set()
        assert release.wait(10), "poll never released"
        return text

    host = HostConfig("h1", "in-process", poll_interval_s=60)
    srv = MonitoringServer([host], store=Store(default_retention="10s:1h"), clock=fake.time, fetch=fetch)
    fake.on_advance = lambda now: stop.set() if entered.is_set() else None
    runner = threading.Thread(target=srv.run, args=(stop,), kwargs={"sleep": fake.sleep}, daemon=True)
    runner.start()
    try:
        assert stop.wait(10), "the poll never started"
        runner.join(0.2)
        assert runner.is_alive(), "run returned while its poll was still in flight"
        assert srv.store.write_count == 0
    finally:
        release.set()
        runner.join(10)
    assert not runner.is_alive()
    assert srv.poll_counts == {"h1": 1}
    assert srv.store.write_count == 1
    assert srv.store.list_series() == ["hpc.h1.beat.up"]


def test_scheduler_requires_hosts():
    srv = MonitoringServer([], store=Store())
    with pytest.raises(ValueError):
        srv.run(threading.Event())
