"""The ``gridwatch`` command: agent, server, simulator, report and plot.

Exit codes: 0 success, 1 runtime failure (missing data, I/O trouble),
2 unusable configuration or flags. The ``--config`` flag falls back to the
``GRIDWATCH_CONFIG`` environment variable where a config file is needed.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import logging
import math
import os
import signal
import sys
import threading

from . import __version__
from .agent import Agent, AgentServer, HostDataSource, agent_config_from_sections
from .config import ConfigError, Section, all_named, bind, first, host_port, load_config
from .model import valid_series
from .plot import render_svg, sparkline
from .report import ApiServer, ReportConfig, contractual_report
from .server import (
    DEFAULT_PREFIX,
    DEFAULT_WEBHOOK_TIMEOUT_S,
    ClusterServiceConfig,
    FileSink,
    HostConfig,
    MonitoringServer,
    WebhookSink,
)
from .sim import BadScenario, Scenario, StackConfig, load_scenario, report_config
from .sim import run as sim_run
from .tsdb import DEFAULT_RETENTION, BadSpec, NoSuchSeries, Store, pairs, parse_retention

log = logging.getLogger(__name__)

ENV_CONFIG = "GRIDWATCH_CONFIG"


def _iso(t: int) -> str:
    return datetime.datetime.fromtimestamp(t, tz=datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _check_window(args) -> None:
    if args.from_t >= args.to_t:
        raise ConfigError(f"--from {args.from_t} is not before --to {args.to_t}")


def _existing_store(path: str) -> Store:
    """Opens a store for reading; unlike ``Store(path)`` it never creates one."""
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no store directory at {path}")
    return Store(path)


@contextlib.contextmanager
def _serving_api(bind: tuple[str, int] | None, store: Store, report_cfg: ReportConfig | None):
    """Serves the query API at ``bind`` on a thread for the length of the
    ``with`` block; does nothing when ``bind`` is None."""
    if bind is None:
        yield
        return
    api = ApiServer(bind, store, report_cfg)
    thread = threading.Thread(target=api.serve_forever, kwargs={"poll_interval": 0.05}, name="api", daemon=True)
    thread.start()
    log.info("api listening on %s:%d", *api.address)
    try:
        yield
    finally:
        api.shutdown()
        api.server_close()
        thread.join(timeout=5.0)


def _require_number(sec: Section, key: str, ok: bool, want: str) -> None:
    """Refuses the number at ``key`` unless ``ok``, naming its line and what it must be."""
    if not ok:
        raise ConfigError(f"[{sec.name}] {key} = {sec.values[key]} must be {want}", sec.lines[key])


def _require_timeout(sec: Section, key: str, value: float) -> None:
    """Refuses a timeout that is not a finite number of seconds above 0."""
    _require_number(sec, key, 0 < value < math.inf, "a finite number above 0")


def _need_config(args) -> list:
    path = args.config or os.environ.get(ENV_CONFIG)
    if not path:
        raise ConfigError(f"no config file: pass --config or set {ENV_CONFIG}")
    return load_config(path)


# -- agent -------------------------------------------------------------------


def cmd_agent(args) -> int:
    sections = _need_config(args)
    cfg = agent_config_from_sections(sections)
    sec = first(sections, "agent")
    _require_timeout(sec, "check_timeout_s", cfg.check_timeout_s)
    bind = args.bind if args.bind is not None else cfg.bind
    port = args.port if args.port is not None else cfg.port
    if not 0 <= port <= 65535:
        where, line = ("--port", None) if args.port is not None else ("[agent] port", sec.lines["port"])
        raise ConfigError(f"{where} {port} is not 0-65535", line)
    agent = Agent(cfg, HostDataSource())
    listener = AgentServer((bind, port), agent.payload_text)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    log.info("agent listening on %s:%d", *listener.address)
    try:
        listener.serve_forever(poll_interval=0.2)
    finally:
        listener.server_close()
    return 0


# -- server --------------------------------------------------------------------


def _hosts_from(sections) -> list[HostConfig]:
    hosts = []
    for sec in all_named(sections, "host"):
        cfg = bind(sec, HostConfig)
        try:
            host_port(cfg.address)
        except ConfigError as exc:
            raise ConfigError(f"[host] {cfg.name}: {exc}", sec.lines["address"]) from None
        if cfg.poll_interval_s < 1:
            raise ConfigError(f"poll_interval_s must be >= 1 for host {cfg.name}", sec.line)
        _require_timeout(sec, "connect_timeout_s", cfg.connect_timeout_s)
        if any(h.name == cfg.name for h in hosts):
            raise ConfigError(f"[host] {cfg.name!r} is named twice", sec.line)
        hosts.append(cfg)
    if not hosts:
        raise ConfigError("server config needs at least one [host] section")
    return hosts


def _clusters_from(sections, hosts) -> list[ClusterServiceConfig]:
    known = {h.name for h in hosts}
    clusters = []
    for sec in all_named(sections, "cluster"):
        cfg = bind(sec, ClusterServiceConfig)
        if not cfg.members:
            raise ConfigError(f"[cluster] {cfg.name!r} has no members", sec.line)
        missing = set(cfg.members) - known
        if missing:
            raise ConfigError(f"[cluster] members not in any [host]: {', '.join(sorted(missing))}", sec.line)
        if cfg.name in known:
            raise ConfigError(f"[cluster] {cfg.name!r} is already the name of a [host]", sec.line)
        if any(c.name == cfg.name for c in clusters):
            raise ConfigError(f"[cluster] {cfg.name!r} is named twice", sec.line)
        clusters.append(cfg)
    return clusters


def _sinks_from(sections) -> list:
    sinks = []
    for sec in all_named(sections, "sink"):
        kind = sec.require("type")
        if kind == "file":
            sinks.append(FileSink(sec.require("path")))
        elif kind == "webhook":
            timeout_s = sec.get_float("timeout_s", DEFAULT_WEBHOOK_TIMEOUT_S)
            _require_timeout(sec, "timeout_s", timeout_s)
            sinks.append(WebhookSink(sec.require("url"), timeout_s))
        else:
            raise ConfigError(f"unknown sink type {kind!r} (known: file, webhook)", sec.line)
    return sinks


def _report_cfg_from(sections) -> ReportConfig | None:
    sec = first(sections, "report")
    if sec is None:
        return None
    cfg = bind(sec, ReportConfig)
    _require_number(sec, "threshold_nodes", math.isfinite(cfg.threshold_nodes), "a finite number")
    _require_number(sec, "staleness_s", 0 <= cfg.staleness_s < math.inf, "a finite number, 0 or more")
    return cfg


def cmd_server(args) -> int:
    sections = _need_config(args)
    server_sec = first(sections, "server") or Section("server", 0)
    try:
        retention = parse_retention(server_sec.get("retention", DEFAULT_RETENTION))
    except BadSpec as exc:
        raise ConfigError(f"[server] retention: {exc}", server_sec.lines["retention"]) from None
    prefix = server_sec.get("prefix", DEFAULT_PREFIX)
    if not valid_series(prefix):
        raise ConfigError(f"[server] prefix {prefix!r} is not a valid series path", server_sec.lines["prefix"])
    raw_bind = server_sec.get("api_bind")
    try:
        api_bind = host_port(raw_bind, "bind address") if raw_bind else None
    except ConfigError as exc:
        raise ConfigError(f"[server] {exc}", server_sec.lines["api_bind"]) from None

    hosts = _hosts_from(sections)
    clusters = _clusters_from(sections, hosts)
    sinks = _sinks_from(sections)
    report_cfg = _report_cfg_from(sections)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    with Store(server_sec.get("store_root"), default_retention=retention) as store:
        monitor = MonitoringServer(hosts, clusters=clusters, sinks=sinks, store=store, prefix=prefix)
        with _serving_api(api_bind, store, report_cfg):
            monitor.run(stop)
    return 0


# -- sim -----------------------------------------------------------------------


def cmd_sim(args) -> int:
    if args.poll_every_ticks < 1:
        raise ConfigError(f"--poll-every-ticks {args.poll_every_ticks} must be >= 1")
    if not valid_series(args.prefix):
        raise ConfigError(f"--prefix {args.prefix!r} is not a valid series prefix")
    api_bind = host_port(args.api_bind, "bind address") if args.api_bind else None
    scenario = load_scenario(args.scenario)
    stack = StackConfig(prefix=args.prefix, poll_every_ticks=args.poll_every_ticks)
    store = Store(args.store)
    with _serving_api(api_bind, store, report_config(stack, scenario)):
        result = sim_run(scenario, stack, store=store)
    print(result.summary.to_json())
    from_t, to_t = result.window
    log.info(
        "report window: --from %d --to %d (%s .. %s)",
        from_t, to_t, _iso(from_t), _iso(to_t),
    )
    return 0


# -- report ----------------------------------------------------------------------


def cmd_report(args) -> int:
    _check_window(args)
    # NaN compares false with every count, so it would judge every slot down.
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold {args.threshold} must be a finite number")
    if not 0 <= args.staleness_s < math.inf:
        raise ConfigError(f"--staleness-s {args.staleness_s} must be a finite number, 0 or more")
    cfg = ReportConfig(
        node_series=args.node_series,
        login_series=args.login_series,
        threshold_nodes=args.threshold,
        staleness_s=args.staleness_s,
        gaps_as_down=args.gaps_as_down,
    )
    store = _existing_store(args.store)
    report = contractual_report(store, cfg, (args.from_t, args.to_t))
    if args.json:
        print(report.to_json())
    else:
        print(f"window              {_iso(report.from_t)} .. {_iso(report.to_t)}")
        print(f"node series         {report.node_series}")
        print(f"node threshold      {report.threshold_nodes:g} nodes")
        print(f"node availability   {report.node_availability_pct:.3f} %")
        print(f"login availability  {report.login_availability_pct:.3f} %")
        if report.breaches:
            print(f"breaches ({len(report.breaches)}):")
            for b in report.breaches:
                print(f"  {_iso(b.start_t)} .. {_iso(b.end_t)}  {b.kind}")
        else:
            print("breaches            none")
    if args.svg:
        svg = render_svg(
            {cfg.node_series: pairs(report.node_column)},
            title=f"node availability, threshold {cfg.threshold_nodes:g}",
            threshold=cfg.threshold_nodes,
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    return 0


# -- plot ------------------------------------------------------------------------


def cmd_plot(args) -> int:
    if args.width < 1:
        raise ConfigError(f"--width {args.width} must be >= 1")
    _check_window(args)
    store = _existing_store(args.store)
    columns = {name: store.fetch(name, args.from_t, args.to_t) for name in args.series}
    if all(v is None for _, _, values in columns.values() for v in values):
        print("no data in the requested range", file=sys.stderr)
        return 1
    series_points = {name: pairs(column) for name, column in columns.items()}
    if args.svg:
        svg = render_svg(series_points, title=args.title or ", ".join(args.series))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    else:
        label_w = max(len(n) for n in series_points)
        for name, points in series_points.items():
            print(f"{name:<{label_w}}  {sparkline(points, args.width)}")
    return 0


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwatch",
        description="Desk-scale HPC monitoring stack: agents, poller, metric store, reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v info, -vv debug (stderr)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("agent", help="serve local check results to pollers")
    p.add_argument("--config", help=f"agent config file (or ${ENV_CONFIG})")
    p.add_argument("--bind", help="listen address override")
    p.add_argument("--port", type=int, help="listen port override")
    p.set_defaults(func=cmd_agent)

    p = sub.add_parser("server", help="poll agents, evaluate state, store metrics")
    p.add_argument("--config", help=f"server config file (or ${ENV_CONFIG})")
    p.set_defaults(func=cmd_server)

    p = sub.add_parser("sim", help="replay a scripted scenario through the full stack")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--store", help="store directory (omit for in-memory)")
    p.add_argument("--prefix", default=DEFAULT_PREFIX, help="metric series prefix")
    p.add_argument("--poll-every-ticks", type=int, dest="poll_every_ticks",
                   default=StackConfig.poll_every_ticks, help="poll cadence in scenario ticks")
    p.add_argument("--api-bind", help="also serve the query API at host:port while running")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("report", help="contractual availability over a window")
    contract = report_config(StackConfig(), Scenario())
    p.add_argument("--store", required=True, help="store directory")
    p.add_argument("--from", dest="from_t", type=int, required=True, help="window start (epoch s)")
    p.add_argument("--to", dest="to_t", type=int, required=True, help="window end (epoch s)")
    p.add_argument("--node-series", default=contract.node_series, help="series holding available node counts")
    p.add_argument("--login-series", default=contract.login_series, help="series holding the login up/down flag")
    p.add_argument("--threshold", type=float, default=float(contract.threshold_nodes),
                   help="contractual node-count threshold")
    p.add_argument("--staleness-s", dest="staleness_s", type=float, default=contract.staleness_s,
                   help="gap length that counts as a monitoring outage")
    p.add_argument("--gaps-as-down", dest="gaps_as_down", action="store_true",
                   help="count monitoring gaps as downtime (default: excluded)")
    p.add_argument("--json", action="store_true", help="print canonical JSON instead of text")
    p.add_argument("--svg", help="also render the node series with threshold to this file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("plot", help="render stored series as sparklines or SVG")
    p.add_argument("--store", required=True, help="store directory")
    p.add_argument("--series", action="append", required=True,
                   help="series name (repeatable)")
    p.add_argument("--from", dest="from_t", type=int, required=True, help="window start (epoch s)")
    p.add_argument("--to", dest="to_t", type=int, required=True, help="window end (epoch s)")
    p.add_argument("--width", type=int, default=72, help="sparkline width in characters")
    p.add_argument("--title", help="SVG title text")
    p.add_argument("--svg", help="write an SVG file instead of text output")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, BadScenario) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoSuchSeries as exc:
        print(f"error: no such series: {exc.args[0]}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except (OSError, ValueError) as exc:  # an EmptyWindow is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
