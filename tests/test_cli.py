"""The gridwatch command line: flags, exit codes, end-to-end smoke runs."""

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from gridwatch import cli
from gridwatch.agent import AgentServer
from gridwatch.cli import build_parser, main
from gridwatch.model import MetricSample, parse_agent_payload
from gridwatch.sim import SIM_EPOCH, Scenario, StackConfig, report_config
from gridwatch.tsdb import Store
from reference_impls import payload_text, serving

PYTHON = [sys.executable, "-m", "gridwatch"]

TINY_SCENARIO = """\
[scenario]
name = smoke
seed = 11
tick_s = 5
duration_ticks = 120

[shape]
cabinets = 2
rectifiers_per_cabinet = 2
nodes = 16
login_hosts = 2
"""

# Every documented flag per subcommand; drift in either direction fails.
EXPECTED_FLAGS = {
    "agent": {"--help", "--config", "--bind", "--port"},
    "server": {"--help", "--config"},
    "sim": {"--help", "--scenario", "--store", "--prefix", "--poll-every-ticks", "--api-bind"},
    "report": {
        "--help", "--store", "--from", "--to", "--node-series", "--login-series",
        "--threshold", "--staleness-s", "--gaps-as-down", "--json", "--svg",
    },
    "plot": {"--help", "--store", "--series", "--from", "--to", "--width", "--title", "--svg"},
}


def run_cli(*argv, timeout=60, **kwargs):
    return subprocess.run(
        PYTHON + list(argv), capture_output=True, text=True, timeout=timeout, **kwargs
    )


def closed_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# -- parser shape ---------------------------------------------------------------


def test_every_subcommand_documents_exactly_the_expected_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(EXPECTED_FLAGS)
    for name, subparser in sub.choices.items():
        advertised = {
            opt for action in subparser._actions for opt in action.option_strings
            if opt.startswith("--")
        }
        assert advertised == EXPECTED_FLAGS[name], f"flag drift in '{name}'"
        # Help text renders without blowing up and mentions each flag.
        text = subparser.format_help()
        for flag in EXPECTED_FLAGS[name]:
            assert flag in text


def test_report_defaults_are_the_simulated_contract():
    args = build_parser().parse_args(["report", "--store", "s", "--from", "0", "--to", "1"])
    contract = report_config(StackConfig(), Scenario())
    assert (args.node_series, args.login_series, args.staleness_s) == (
        contract.node_series, contract.login_series, contract.staleness_s)
    assert args.threshold == contract.threshold_nodes and type(args.threshold) is float


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_is_installed():
    path = shutil.which("gridwatch")
    assert path, "console script 'gridwatch' not on PATH"
    out = subprocess.run([path, "--version"], capture_output=True, text=True, timeout=30)
    assert out.returncode == 0
    assert out.stdout.strip().startswith("gridwatch ")


# -- sim / report / plot smoke --------------------------------------------------


@pytest.fixture(scope="module")
def sim_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    scenario = root / "smoke.scn"
    scenario.write_text(TINY_SCENARIO)
    store = root / "store"
    out = run_cli("sim", "--scenario", str(scenario), "--store", str(store))
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)
    return store, (SIM_EPOCH, SIM_EPOCH + 600), summary


def test_sim_prints_run_summary(sim_store):
    store, window, summary = sim_store
    assert summary["scenario"] == "smoke"
    assert summary["ticks"] == 120
    assert summary["polls"] == 30  # 3 hosts x 10 rounds
    assert summary["hosts_down"] == 0
    assert summary["notifications"] == 0
    assert list(store.rglob("*.dat")), "sim must persist series files"


def test_report_text_output(sim_store):
    store, (from_t, to_t), _ = sim_store
    out = run_cli(
        "report", "--store", str(store), "--from", str(from_t), "--to", str(to_t),
        "--threshold", "10",
    )
    assert out.returncode == 0, out.stderr
    assert "node availability   100.000 %" in out.stdout
    assert "login availability  100.000 %" in out.stdout
    assert "breaches            none" in out.stdout


def test_report_json_output(sim_store):
    store, (from_t, to_t), _ = sim_store
    out = run_cli(
        "report", "--store", str(store), "--from", str(from_t), "--to", str(to_t),
        "--threshold", "10", "--gaps-as-down", "--json",
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["node_availability_pct"] == 100.0
    assert doc["login_availability_pct"] == 100.0
    assert doc["breaches"] == []
    assert doc["from"] == from_t and doc["to"] == to_t


def test_report_svg_output(sim_store, tmp_path):
    store, (from_t, to_t), _ = sim_store
    svg = tmp_path / "node.svg"
    out = run_cli(
        "report", "--store", str(store), "--from", str(from_t), "--to", str(to_t),
        "--threshold", "10", "--svg", str(svg),
    )
    assert out.returncode == 0, out.stderr
    assert f"wrote {svg}" in out.stdout
    body = svg.read_text()
    assert body.startswith("<svg") and 'class="threshold"' in body


def test_report_with_svg_reads_each_series_once(sim_store, tmp_path, monkeypatch, capsys):
    store, (from_t, to_t), _ = sim_store
    reads = []
    fetch = Store.fetch

    def counted_fetch(self, series, *window):
        reads.append(series)
        return fetch(self, series, *window)

    monkeypatch.setattr(Store, "fetch", counted_fetch)
    svg = tmp_path / "node.svg"
    assert main([
        "report", "--store", str(store), "--from", str(from_t), "--to", str(to_t),
        "--threshold", "10", "--json", "--svg", str(svg),
    ]) == 0
    assert reads == ["hpc.node_cluster.node_state.avail_standard", "hpc.login_cluster.login.login_up"]
    assert "<polyline" in svg.read_text()


def test_plot_sparkline_output(sim_store):
    store, (from_t, to_t), _ = sim_store
    out = run_cli(
        "plot", "--store", str(store),
        "--series", "hpc.admin.power.system",
        "--series", "hpc.login_cluster.login.login_up",
        "--from", str(from_t), "--to", str(to_t), "--width", "24",
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("hpc.admin.power.system")
    assert len(lines[0].split()[-1]) == 24


def test_plot_svg_output(sim_store, tmp_path):
    store, (from_t, to_t), _ = sim_store
    svg = tmp_path / "plot.svg"
    out = run_cli(
        "plot", "--store", str(store), "--series", "hpc.admin.power.system",
        "--from", str(from_t), "--to", str(to_t), "--svg", str(svg), "--title", "power",
    )
    assert out.returncode == 0, out.stderr
    assert "<polyline" in svg.read_text()


# -- error paths -----------------------------------------------------------------


def test_sim_missing_scenario_file_is_config_error(tmp_path, capsys):
    assert main(["sim", "--scenario", str(tmp_path / "nope.scn")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_sim_invalid_scenario_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nduration_ticks = 10\n[event]\nkind = power_dip\nfrom_tick = 0\nto_tick = 99\n")
    assert main(["sim", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "outside scenario duration" in err


def test_sim_bad_api_bind_is_config_error(tmp_path, capsys):
    scn = tmp_path / "ok.scn"
    scn.write_text(TINY_SCENARIO)
    assert main(["sim", "--scenario", str(scn), "--api-bind", "nonsense"]) == 2
    assert "bad bind address" in capsys.readouterr().err
    assert main(["sim", "--scenario", str(scn), "--api-bind", "127.0.0.1:70000"]) == 2
    assert "bad bind address '127.0.0.1:70000'" in capsys.readouterr().err


@pytest.mark.parametrize("prefix", ["bad prefix", ""])
def test_sim_invalid_prefix_is_config_error(tmp_path, capsys, prefix):
    scn = tmp_path / "ok.scn"
    scn.write_text(TINY_SCENARIO)
    store = tmp_path / "store"
    assert main(["sim", "--scenario", str(scn), "--store", str(store), "--prefix", prefix]) == 2
    assert f"--prefix {prefix!r} is not a valid series prefix" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("ticks", ["0", "-3"])
def test_sim_poll_every_ticks_below_one_is_config_error(tmp_path, capsys, ticks):
    scn = tmp_path / "ok.scn"
    scn.write_text(TINY_SCENARIO)
    assert main(["sim", "--scenario", str(scn), "--poll-every-ticks", ticks]) == 2
    assert f"--poll-every-ticks {ticks} must be >= 1" in capsys.readouterr().err


def test_plot_width_below_one_is_config_error(sim_store, capsys):
    store, (from_t, to_t), _ = sim_store
    code = main(["plot", "--store", str(store), "--series", "hpc.admin.power.system",
                 "--from", str(from_t), "--to", str(to_t), "--width", "0"])
    assert code == 2
    assert "--width 0 must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "plot"])
@pytest.mark.parametrize("to_offset", [0, -60])
def test_window_that_does_not_move_forward_is_config_error(sim_store, capsys, command, to_offset):
    store, (from_t, _), _ = sim_store
    to_t = from_t + to_offset
    argv = [command, "--store", str(store), "--from", str(from_t), "--to", str(to_t)]
    if command == "plot":
        argv += ["--series", "hpc.admin.power.system"]
    assert main(argv) == 2
    assert f"--from {from_t} is not before --to {to_t}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "plot"])
def test_missing_store_exits_one_and_creates_nothing(tmp_path, capsys, command):
    missing = tmp_path / "no" / "such" / "dir"
    argv = [command, "--store", str(missing), "--from", "1000", "--to", "2000"]
    if command == "plot":
        argv += ["--series", "hpc.admin.power.system"]
    assert main(argv) == 1
    assert f"no store directory at {missing}" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


def test_sim_serves_the_api_for_the_whole_run(tmp_path, capsys, monkeypatch):
    scn = tmp_path / "ok.scn"
    scn.write_text(TINY_SCENARIO)
    port = closed_port()
    codes = {}

    def probe(tick, monitor):
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/api/v1/health", timeout=5) as resp:
            codes[tick] = resp.status

    sim_run = cli.sim_run
    monkeypatch.setattr(cli, "sim_run", lambda *args, **kwargs: sim_run(*args, on_tick=probe, **kwargs))
    assert main(["sim", "--scenario", str(scn), "--api-bind", f"127.0.0.1:{port}"]) == 0
    assert json.loads(capsys.readouterr().out)["polls"] == 30
    assert codes == {tick: 200 for tick in range(0, 120, 12)}
    with pytest.raises(OSError):  # the API ends with the run
        socket.create_connection(("127.0.0.1", port), timeout=1).close()


def test_report_unknown_series_exits_one_and_names_it(tmp_path, capsys):
    assert main(["report", "--store", str(tmp_path), "--from", "1000", "--to", "2000"]) == 1
    assert "no such series: hpc.node_cluster.node_state.avail_standard" in capsys.readouterr().err


def test_report_empty_window_exits_one(tmp_path, capsys):
    store = Store(tmp_path)
    t = SIM_EPOCH
    store.write(MetricSample("hpc.node_cluster.node_state.avail_standard", t, 16.0))
    store.write(MetricSample("hpc.login_cluster.login.login_up", t, 1.0))
    store.close()
    far = t + 5_000_000
    code = main(["report", "--store", str(tmp_path), "--from", str(far), "--to", str(far + 600)])
    assert code == 1
    assert "no populated slots" in capsys.readouterr().err


def test_plot_without_data_exits_one(tmp_path, capsys):
    store = Store(tmp_path)
    store.write(MetricSample("hpc.a.b.c", SIM_EPOCH, 1.0))
    store.close()
    far = SIM_EPOCH + 5_000_000
    code = main(["plot", "--store", str(tmp_path), "--series", "hpc.a.b.c",
                 "--from", str(far), "--to", str(far + 600)])
    assert code == 1
    assert "no data in the requested range" in capsys.readouterr().err


def test_agent_without_config_is_config_error(monkeypatch, capsys):
    monkeypatch.delenv("GRIDWATCH_CONFIG", raising=False)
    assert main(["agent"]) == 2
    assert "pass --config or set GRIDWATCH_CONFIG" in capsys.readouterr().err


def test_server_config_without_hosts_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "server.cfg"
    cfg.write_text("[server]\nprefix = hpc\n")
    assert main(["server", "--config", str(cfg)]) == 2
    assert "at least one [host]" in capsys.readouterr().err


def test_server_config_validates_addresses_clusters_sinks(tmp_path, capsys):
    bad_addr = tmp_path / "a.cfg"
    bad_addr.write_text("[host]\nname = h1\naddress = noport\n")
    assert main(["server", "--config", str(bad_addr)]) == 2

    bad_cluster = tmp_path / "b.cfg"
    bad_cluster.write_text(
        "[host]\nname = h1\naddress = 127.0.0.1:1\n"
        "[cluster]\nname = c\nservice = s\nmembers = ghost\n"
    )
    assert main(["server", "--config", str(bad_cluster)]) == 2
    assert "not in any [host]" in capsys.readouterr().err

    bad_sink = tmp_path / "c.cfg"
    bad_sink.write_text(
        "[host]\nname = h1\naddress = 127.0.0.1:1\n[sink]\ntype = carrier_pigeon\n"
    )
    assert main(["server", "--config", str(bad_sink)]) == 2
    assert "unknown sink type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sections, message",
    [
        (
            "[host]\nname = a\naddress = 127.0.0.1:1\n\n[host]\nname = a\naddress = 127.0.0.1:2\n",
            "line 5: [host] 'a' is named twice",
        ),
        (
            "[host]\nname = login1\naddress = 127.0.0.1:1\n\n"
            "[host]\nname = login2\naddress = 127.0.0.1:2\n\n"
            "[cluster]\nname = login1\nservice = login\nmembers = login1, login2\n",
            "line 9: [cluster] 'login1' is already the name of a [host]",
        ),
        (
            "[host]\nname = h1\naddress = 127.0.0.1:1\n\n"
            "[cluster]\nname = c\nservice = s\nmembers = h1\n\n"
            "[cluster]\nname = c\nservice = t\nmembers = h1\n",
            "line 10: [cluster] 'c' is named twice",
        ),
    ],
    ids=["repeated-host", "cluster-named-like-a-host", "repeated-cluster"],
)
def test_server_config_refuses_repeated_names(tmp_path, sections, message):
    cfg = tmp_path / "server.cfg"
    cfg.write_text(sections)
    proc = run_cli("server", "--config", str(cfg), timeout=30)  # a loaded config polls forever
    assert proc.returncode == 2
    assert message in proc.stderr


@pytest.mark.parametrize(
    "cluster, message",
    [
        ("name = c\nmembers = h1\n", "line 5: [cluster] is missing required key 'service'"),
        ("name = c\nservice = s\nmembers =\n", "line 5: [cluster] 'c' has no members"),
        ("name = c\nservice = s\nmembers = h1, h2\n", "line 5: [cluster] members not in any [host]: h2"),
    ],
    ids=["no-service", "empty-members", "unknown-member"],
)
def test_server_config_refuses_an_unusable_cluster(tmp_path, cluster, message):
    cfg = tmp_path / "server.cfg"
    cfg.write_text(f"[host]\nname = h1\naddress = 127.0.0.1:1\n\n[cluster]\n{cluster}")
    proc = run_cli("server", "--config", str(cfg), timeout=30)  # a loaded config polls forever
    assert proc.returncode == 2
    assert message in proc.stderr


@pytest.mark.parametrize("address", ["127.0.0.1:70000", "127.0.0.1:-1", "127.0.0.1:", ":6556", "noport"])
def test_server_bad_host_address_is_config_error_naming_its_line(tmp_path, address):
    cfg = tmp_path / "server.cfg"
    cfg.write_text(f"[host]\nname = h1\naddress = {address}\n")
    proc = run_cli("server", "--config", str(cfg), timeout=30)  # a usable config polls forever
    assert proc.returncode == 2
    assert f"line 3: [host] h1: bad address {address!r}" in proc.stderr


def test_server_invalid_prefix_is_config_error_naming_its_line(tmp_path):
    cfg = tmp_path / "server.cfg"
    root = tmp_path / "store"
    cfg.write_text(
        f"[server]\nretention = 1m:1h\nprefix = bad prefix\nstore_root = {root}\n\n"
        "[host]\nname = h1\naddress = 127.0.0.1:1\n"
    )
    proc = run_cli("server", "--config", str(cfg), timeout=30)  # a usable config polls forever
    assert proc.returncode == 2
    assert "line 3: [server] prefix 'bad prefix' is not a valid series path" in proc.stderr
    assert not root.exists()  # refused before the store opened


@pytest.mark.parametrize(
    "line, message",
    [
        ("retention = 10s:2d,1m:1d", "line 2: [server] retention: archive coverage must strictly increase"),
        ("retention = 10s:1m,1h:1d", "line 2: [server] retention: 3600s slots are longer than the finest coverage"),
        ("retention = 1s:200y", "line 2: [server] retention: archive term (1s x 6307200000) outside 1 to 4294967295"),
        ("api_bind = nonsense", "line 2: [server] bad bind address 'nonsense'"),
        ("api_bind = 127.0.0.1:70000", "line 2: [server] bad bind address '127.0.0.1:70000'"),
    ],
    ids=["coverage-shrinks", "coarse-slot-beyond-finest-coverage", "slots-beyond-the-header", "api-bind", "api-bind-port-too-high"],
)
def test_server_bad_retention_or_api_bind_is_config_error_naming_its_line(tmp_path, line, message):
    cfg = tmp_path / "server.cfg"
    cfg.write_text(f"[server]\n{line}\nstore_root = {tmp_path / 'store'}\n\n[host]\nname = h1\naddress = 127.0.0.1:1\n")
    proc = run_cli("server", "--config", str(cfg), timeout=30)  # a usable config polls forever
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("[agent]\nbind = 127.0.0.1\nport = 70000\n", [], "line 3: [agent] port 70000 is not 0-65535"),
        ("[agent]\nbind = 127.0.0.1\n", ["--port", "70000"], "--port 70000 is not 0-65535"),
        ("[agent]\nbind = 127.0.0.1\n", ["--port", "-5"], "--port -5 is not 0-65535"),
    ],
    ids=["config", "flag", "negative-flag"],
)
def test_agent_port_out_of_range_is_config_error(tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "agent.cfg"
    cfg.write_text(text)
    assert main(["agent", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err


HOST = "[host]\nname = h1\naddress = 127.0.0.1:1\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("server", HOST + "connect_timeout_s = 0\n",
         "line 4: [host] connect_timeout_s = 0 must be a finite number above 0"),
        ("server", HOST + "connect_timeout_s = -1\n",
         "line 4: [host] connect_timeout_s = -1 must be a finite number above 0"),
        ("server", HOST + "[sink]\ntype = webhook\nurl = http://127.0.0.1:1/\ntimeout_s = 0\n",
         "line 7: [sink] timeout_s = 0 must be a finite number above 0"),
        ("server", HOST + "[sink]\ntype = webhook\nurl = http://127.0.0.1:1/\ntimeout_s = soon\n",
         "line 7: [sink] timeout_s = 'soon' is not a number"),
        ("agent", "[agent]\nbind = 127.0.0.1\nport = 0\ncheck_timeout_s = 0\n",
         "line 4: [agent] check_timeout_s = 0 must be a finite number above 0"),
        ("agent", "[agent]\nbind = 127.0.0.1\nport = 0\ncheck_timeout_s = inf\n",
         "line 4: [agent] check_timeout_s = inf must be a finite number above 0"),
    ],
    ids=["connect-zero", "connect-negative", "webhook-zero", "webhook-not-a-number", "check-zero", "check-infinite"],
)
def test_bad_timeout_is_config_error_naming_its_line(tmp_path, command, text, message):
    cfg = tmp_path / "gridwatch.cfg"
    cfg.write_text(text)
    proc = run_cli(command, "--config", str(cfg), timeout=30)  # a usable config runs forever
    assert proc.returncode == 2
    assert message in proc.stderr


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("agent", "[agent]\nbind = 127.0.0.1\nport = 0\n\nport = 0\n",
         "line 5: [agent] port is set twice, first on line 3"),
        ("server", HOST + "\n[server]\nretention = 1m:1h\n\n[server]\nstore_root = {store}\n",
         "line 8: [server] appears twice, first on line 5"),
        ("sim", TINY_SCENARIO + "\n[scenario]\nseed = 12\n",
         "line 13: [scenario] appears twice, first on line 1"),
    ],
    ids=["key-twice", "second-server", "second-scenario"],
)
def test_a_repeated_key_or_one_of_section_is_refused_naming_both_lines(tmp_path, command, text, message):
    cfg = tmp_path / "gridwatch.cfg"
    cfg.write_text(text.format(store=tmp_path / "store"))
    flag = "--scenario" if command == "sim" else "--config"
    proc = run_cli(command, flag, str(cfg), timeout=30)  # a usable config runs forever
    assert proc.returncode == 2
    assert f"config error: {message}" in proc.stderr
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--threshold", "nan"], "--threshold nan must be a finite number"),
        (["--threshold", "inf"], "--threshold inf must be a finite number"),
        (["--staleness-s", "-1"], "--staleness-s -1.0 must be a finite number, 0 or more"),
        (["--staleness-s", "inf"], "--staleness-s inf must be a finite number, 0 or more"),
        (["--staleness-s", "nan"], "--staleness-s nan must be a finite number, 0 or more"),
    ],
    ids=["threshold-nan", "threshold-infinite", "staleness-negative", "staleness-infinite", "staleness-nan"],
)
def test_report_bad_threshold_or_staleness_is_config_error(sim_store, capsys, flags, message):
    store, (from_t, to_t), _ = sim_store
    argv = ["report", "--store", str(store), "--from", str(from_t), "--to", str(to_t), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("threshold_nodes = nan\n", "line 7: [report] threshold_nodes = nan must be a finite number"),
        ("threshold_nodes = 481\nstaleness_s = -1\n",
         "line 8: [report] staleness_s = -1 must be a finite number, 0 or more"),
        ("threshold_nodes = 481\nstaleness_s = inf\n",
         "line 8: [report] staleness_s = inf must be a finite number, 0 or more"),
    ],
    ids=["threshold-nan", "staleness-negative", "staleness-infinite"],
)
def test_server_bad_report_number_is_config_error_naming_its_line(tmp_path, text, message):
    cfg = tmp_path / "server.cfg"
    cfg.write_text(HOST + "[report]\nnode_series = a.b\nlogin_series = a.c\n" + text)
    proc = run_cli("server", "--config", str(cfg), timeout=30)  # a usable config polls forever
    assert proc.returncode == 2
    assert message in proc.stderr


# -- long-running commands and signals ---------------------------------------------


def reap(proc):
    """Kill ``proc`` if it still runs, then close its pipes."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    proc.stderr.close()


def read_until(stream, pattern, deadline_s=15.0):
    """Accumulate a subprocess stream until a regex matches; returns the match."""
    buf = b""
    fd = stream.fileno()
    deadline = time.monotonic() + deadline_s
    compiled = re.compile(pattern)
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.2)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
        m = compiled.search(buf.decode("utf-8", "replace"))
        if m:
            return m
    raise AssertionError(f"pattern {pattern!r} not seen in: {buf!r}")


def test_agent_serves_polls_and_exits_cleanly_on_sigterm(tmp_path):
    cfg = tmp_path / "agent.cfg"
    cfg.write_text("[agent]\nbind = 127.0.0.1\nport = 0\n")
    env = dict(os.environ, GRIDWATCH_CONFIG=str(cfg))
    proc = subprocess.Popen(
        PYTHON + ["-v", "agent"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        m = read_until(proc.stderr, r"agent listening on 127\.0\.0\.1:(\d+)")
        port = int(m.group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            raw = b""
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                raw += block
        payload = parse_agent_payload(raw)
        assert payload.results == []  # no checks configured
        assert payload.host_time > 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        reap(proc)


def test_agent_with_a_hung_check_exits_on_sigterm(tmp_path):
    fifo = tmp_path / "meminfo"
    os.mkfifo(fifo)  # no writer ever opens it, so reading it blocks for good
    cfg = tmp_path / "agent.cfg"
    cfg.write_text(
        f"[agent]\nbind = 127.0.0.1\nport = 0\nchecks = memory\nmeminfo_path = {fifo}\ncheck_timeout_s = 0.2\n"
    )
    env = dict(os.environ, GRIDWATCH_CONFIG=str(cfg))
    proc = subprocess.Popen(PYTHON + ["-v", "agent"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        port = int(read_until(proc.stderr, r"agent listening on 127\.0\.0\.1:(\d+)").group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.settimeout(5)
            raw = b""
            while block := sock.recv(65536):
                raw += block
        (result,) = parse_agent_payload(raw).results
        assert (result.service, result.summary) == ("_check_failed_memory", "timed out after 0.2s")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=5) == 0
    finally:
        reap(proc)


def test_server_runs_and_exits_cleanly_on_sigterm(tmp_path):
    store = tmp_path / "store"
    notes = tmp_path / "notes.jsonl"
    cfg = tmp_path / "server.cfg"
    cfg.write_text(
        f"[server]\nstore_root = {store}\nretention = 1m:1h\n\n"
        f"[host]\nname = h1\naddress = 127.0.0.1:{closed_port()}\n"
        "poll_interval_s = 1\nconnect_timeout_s = 1\n\n"
        "[cluster]\nname = c1\nservice = beat\nmembers = h1\n\n"
        f"[sink]\ntype = file\npath = {notes}\n"
    )
    proc = subprocess.Popen(
        PYTHON + ["server", "--config", str(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        time.sleep(1.5)  # let at least one poll round happen
        assert proc.poll() is None, proc.stderr.read().decode()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        reap(proc)
    assert store.is_dir()  # store root was created on startup


def test_server_checkpoints_its_store_before_a_sigkill(tmp_path):
    store = tmp_path / "store"
    with serving(AgentServer(("127.0.0.1", 0),
                             lambda: payload_text(int(time.time()), ["0 beat up=1 ok"]))) as agent:
        cfg = tmp_path / "server.cfg"
        cfg.write_text(
            f"[server]\nstore_root = {store}\nretention = 1s:1h\n\n"
            f"[host]\nname = h1\naddress = 127.0.0.1:{agent.address[1]}\n"
            "poll_interval_s = 1\nconnect_timeout_s = 1\n"
        )
        proc = subprocess.Popen(
            PYTHON + ["server", "--config", str(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            time.sleep(3.0)  # two or more poll intervals, so two or more checkpoints
            assert proc.poll() is None, proc.stderr.read().decode()
            proc.kill()
            proc.wait(timeout=15)
        finally:
            reap(proc)
    files = sorted(store.rglob("*.dat"))
    assert [f.relative_to(store).as_posix() for f in files] == ["hpc/h1/beat/up.dat"]
    reopened = Store(store)
    assert reopened.list_series() == ["hpc.h1.beat.up"]
    now = int(time.time())
    _, points = reopened.read("hpc.h1.beat.up", now - 600, now + 1)
    assert [v for _, v in points if v is not None], "checkpointed series holds no points"
