"""Deterministic cluster simulator: fake data sources plus a fast-clock run.

The simulator fabricates everything the real agents would read from a
machine room — rectifier telemetry files, scheduler node-state output,
login probes, name resolution, meminfo — as pure functions of
``(scenario, tick)``. One ``SimDataSource`` holds the current tick, renders
all of that tick's inputs on the first read, and tells the time. ``run`` is
a loop over poll rounds: the real monitoring server polls real agents on
that source, fetching each payload in process instead of over TCP, so days
of operation replay quickly while every other production code path (checks,
serialization, parse, apply, store) runs end to end. A run serves no API.

Determinism contract: identical (scenario, tick) yields identical bytes
from every source, and two runs of the same scenario produce identical
store contents.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

from . import __version__
from .agent import DEFAULT_CEC_ROOT, Agent, AgentConfig, DataSource
from .config import ConfigError, Section, all_named, bind, first, load_config
from .report import ReportConfig
from .server import (
    DEFAULT_PREFIX, ClusterServiceConfig, HostConfig, MonitoringServer, Notification, _series_name,
)
from .tsdb import DEFAULT_RETENTION, Store

__all__ = [
    "BadScenario",
    "ClusterShape",
    "Event",
    "EventKind",
    "Scenario",
    "SimDataSource",
    "StackConfig",
    "RunResult",
    "RunSummary",
    "SIM_EPOCH",
    "expected_system_power_w",
    "load_scenario",
    "rectifier_power_w",
    "rectifier_voltage_v",
    "report_config",
    "run",
    "scenario_from_sections",
    "scenario_window",
    "sources_at",
]

# 2021-01-01 00:00:00 UTC; divisible by a whole day so every archive
# interval aligns to tick 0.
SIM_EPOCH = 1_609_459_200

DEFAULT_TICK_S = 5
DEFAULT_IDLE_POWER_PER_NODE_W = 200.0
DEFAULT_HPL_POWER_PER_NODE_W = 700.0
NOMINAL_VOLTAGE_V = 54.0
POWER_NOISE_FRACTION = 0.01
VOLTAGE_NOISE_V = 0.5
BASE_MEM_USED_PCT = 30.0
MEM_NOISE_PCT = 2.0
MEM_TOTAL_KB = 536_870_912  # 512 GiB login nodes

LOGIN_PROBE_TARGET = "login-vip"
DNS_CHECK_NAME = "cluster.local"
DOWN_WARN = 10  # nodes down, summed over partitions, at which node_state warns
DOWN_CRIT = 100  # and at which it is critical

# Independent noise streams so e.g. voltage noise never shifts power noise.
_STREAM_POWER = 1
_STREAM_VOLT = 2
_STREAM_MEM = 3

_MASK64 = (1 << 64) - 1
_TWO_53 = float(1 << 53)


class BadScenario(ValueError):
    """A scenario file or object that breaks the scenario rules."""


class EventKind(Enum):
    POWER_DIP = "power_dip"
    NODE_DRAIN = "node_drain"
    LOGIN_OUTAGE = "login_outage"
    DNS_FAIL = "dns_fail"
    MEM_LEAK = "mem_leak"
    HPL_RUN = "hpl_run"


@dataclass(frozen=True)
class ClusterShape:
    """Static machine layout the scenario plays out on."""

    cabinets: int = 4
    rectifiers_per_cabinet: int = 8
    nodes: int = 512
    partitions: tuple[str, ...] = ("standard",)
    login_hosts: int = 4

    def cabinet_id(self, index: int) -> str:
        return f"x{1000 + index}"

    def cabinet_ids(self) -> tuple[str, ...]:
        return tuple(self.cabinet_id(i) for i in range(self.cabinets))

    def login_names(self) -> tuple[str, ...]:
        return tuple(f"login{i + 1}" for i in range(self.login_hosts))

    def partition_nodes(self) -> dict[str, int]:
        """Nodes per partition: split evenly, remainder to the first."""
        per = self.nodes // len(self.partitions)
        extra = self.nodes - per * len(self.partitions)
        out = {}
        for i, name in enumerate(self.partitions):
            out[name] = per + (extra if i == 0 else 0)
        return out


@dataclass(frozen=True)
class Event:
    """One scripted fault/load window; ``to_tick`` is exclusive."""

    kind: EventKind
    from_tick: int
    to_tick: int
    depth_fraction: float = 0.5       # POWER_DIP
    cabinets: tuple[str, ...] = ()    # POWER_DIP; empty = all cabinets
    count: int = 0                    # NODE_DRAIN
    partition: str = ""               # NODE_DRAIN; empty = first partition
    hosts: tuple[str, ...] = ()       # LOGIN_OUTAGE; empty = all logins
    rate_pct_per_h: float = 0.0       # MEM_LEAK
    power_per_node_w: float = DEFAULT_HPL_POWER_PER_NODE_W  # HPL_RUN

    def active(self, tick: int) -> bool:
        return self.from_tick <= tick < self.to_tick


@dataclass(frozen=True)
class Scenario:
    name: str = "unnamed"
    seed: int = 0
    tick_s: int = DEFAULT_TICK_S
    duration_ticks: int = 720
    idle_power_per_node_w: float = DEFAULT_IDLE_POWER_PER_NODE_W
    shape: ClusterShape = field(default_factory=ClusterShape)
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        """Raise BadScenario on anything out of bounds."""
        _validate_frame(self)
        for event in self.events:
            _validate_event(event, self)


def _validate_frame(sc: Scenario) -> None:
    """The scenario's own fields and its shape, which every event check relies on."""
    if sc.tick_s < 1 or sc.duration_ticks < 1:
        raise BadScenario("tick_s and duration_ticks must be >= 1")
    if sc.seed < 0:
        raise BadScenario("seed must be >= 0")
    if sc.idle_power_per_node_w <= 0:
        raise BadScenario("idle_power_per_node_w must be positive")
    shape = sc.shape
    if min(shape.cabinets, shape.rectifiers_per_cabinet, shape.nodes, shape.login_hosts) < 1:
        raise BadScenario("shape counts must all be >= 1")
    if not shape.partitions:
        raise BadScenario("shape needs at least one partition")


def _validate_event(event: Event, sc: Scenario) -> None:
    shape = sc.shape
    if not (0 <= event.from_tick < event.to_tick <= sc.duration_ticks):
        raise BadScenario(
            f"{event.kind.name} window [{event.from_tick}, {event.to_tick}) "
            f"outside scenario duration {sc.duration_ticks}"
        )
    if event.kind is EventKind.POWER_DIP:
        if not (0.0 < event.depth_fraction <= 1.0):
            raise BadScenario(f"POWER_DIP depth_fraction {event.depth_fraction} not in (0, 1]")
        unknown = set(event.cabinets) - set(shape.cabinet_ids())
        if unknown:
            raise BadScenario(f"POWER_DIP names unknown cabinets: {', '.join(sorted(unknown))}")
    elif event.kind is EventKind.NODE_DRAIN:
        partition = event.partition or shape.partitions[0]
        totals = shape.partition_nodes()
        if partition not in totals:
            raise BadScenario(f"NODE_DRAIN names unknown partition {partition!r}")
        if not (1 <= event.count <= totals[partition]):
            raise BadScenario(
                f"NODE_DRAIN count {event.count} not in [1, {totals[partition]}] for {partition!r}"
            )
    elif event.kind is EventKind.LOGIN_OUTAGE:
        unknown = set(event.hosts) - set(shape.login_names())
        if unknown:
            raise BadScenario(f"LOGIN_OUTAGE names unknown hosts: {', '.join(sorted(unknown))}")
    elif event.kind is EventKind.MEM_LEAK:
        if event.rate_pct_per_h <= 0:
            raise BadScenario(f"MEM_LEAK rate {event.rate_pct_per_h} must be positive")
    elif event.kind is EventKind.HPL_RUN:
        if event.power_per_node_w <= 0:
            raise BadScenario(f"HPL_RUN power_per_node_w {event.power_per_node_w} must be positive")


# -- scenario files --------------------------------------------------------


def load_scenario(path) -> Scenario:
    try:
        sections = load_config(path)
    except ConfigError as exc:
        raise BadScenario(str(exc)) from None
    return scenario_from_sections(sections)


def scenario_from_sections(sections: list[Section]) -> Scenario:
    event_secs = all_named(sections, "event")
    try:
        shape = bind(first(sections, "shape"), ClusterShape)
        events = tuple(_event_from(sec) for sec in event_secs)
        frame = bind(first(sections, "scenario"), Scenario, shape=shape, events=())
    except ConfigError as exc:
        raise BadScenario(str(exc)) from None
    for sec, event in zip(event_secs, events):
        try:
            _validate_event(event, frame)
        except BadScenario as exc:
            raise BadScenario(f"line {sec.line}: {exc}") from None
    return replace(frame, events=events)


def _event_from(sec: Section) -> Event:
    raw_kind = sec.require("kind")
    try:
        kind = EventKind[raw_kind.upper()]
    except KeyError:
        options = ", ".join(k.name for k in EventKind)
        raise ConfigError(f"unknown event kind {raw_kind!r} (known: {options})", sec.lines["kind"])
    event = bind(sec, Event, kind=kind)
    # "all" in a file means what an empty tuple means in code: every one.
    return replace(event, **{key: () for key in ("cabinets", "hosts") if getattr(event, key) == ("all",)})


# -- deterministic noise ----------------------------------------------------


def _mix64(z: int) -> int:
    """One splitmix64 step; avalanches every input bit."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix_in(h: int, *keys: int) -> int:
    """Fold ``keys`` into the hash ``h``, one splitmix64 step per key."""
    for k in keys:
        h = _mix64(h ^ (k & _MASK64))
    return h


def _to_unit(h: int) -> float:
    """A 64-bit hash onto [-1.0, 1.0)."""
    return (h >> 11) / _TWO_53 * 2.0 - 1.0


def _unit_noise(seed: int, *keys: int) -> float:
    """Pure hash of (seed, keys) onto [-1.0, 1.0)."""
    return _to_unit(_mix_in(_mix64(seed & _MASK64), *keys))


# -- generator-side physics ---------------------------------------------------


def _events_at(scenario: Scenario, tick: int) -> dict[EventKind, list[Event]]:
    """The events active at ``tick``, by kind, each list in scenario order."""
    active: dict[EventKind, list[Event]] = {kind: [] for kind in EventKind}
    for event in scenario.events:
        if event.active(tick):
            active[event.kind].append(event)
    return active


def _rectifier_base_w(scenario: Scenario, active) -> float:
    """One rectifier's share of the machine's power, before dips and noise."""
    shape = scenario.shape
    hpl = active[EventKind.HPL_RUN]
    per_node_w = hpl[0].power_per_node_w if hpl else scenario.idle_power_per_node_w
    return per_node_w * shape.nodes / (shape.cabinets * shape.rectifiers_per_cabinet)


def _dip_factor(active, cab_id: str) -> float:
    factor = 1.0
    for event in active[EventKind.POWER_DIP]:
        if not event.cabinets or cab_id in event.cabinets:
            factor *= 1.0 - event.depth_fraction
    return factor


def rectifier_power_w(scenario: Scenario, tick: int, cab_index: int, rect: int) -> float:
    """Scripted power of one rectifier at one tick (the ground truth)."""
    active = _events_at(scenario, tick)
    base = _rectifier_base_w(scenario, active)
    factor = _dip_factor(active, scenario.shape.cabinet_id(cab_index))
    noise = 1.0 + POWER_NOISE_FRACTION * _unit_noise(
        scenario.seed, _STREAM_POWER, tick, cab_index, rect
    )
    return base * factor * noise


def rectifier_voltage_v(scenario: Scenario, tick: int, cab_index: int, rect: int) -> float:
    return NOMINAL_VOLTAGE_V + VOLTAGE_NOISE_V * _unit_noise(
        scenario.seed, _STREAM_VOLT, tick, cab_index, rect
    )


def expected_system_power_w(scenario: Scenario, tick: int) -> float:
    """Ground-truth system power, summed rectifier-then-cabinet order.

    This is the same fold order the power check uses, so the two agree
    bit for bit, not just within tolerance.
    """
    shape = scenario.shape
    total = 0.0
    for cab_index in range(shape.cabinets):
        cab_w = 0.0
        for rect in range(shape.rectifiers_per_cabinet):
            cab_w += rectifier_power_w(scenario, tick, cab_index, rect)
        total += cab_w
    return total


def _rectifier_paths(shape: ClusterShape) -> tuple[tuple[int, str, tuple[str, ...]], ...]:
    """Per cabinet: its index, its id and the path of each of its rectifier files."""
    out = []
    for cab_index, cab_id in enumerate(shape.cabinet_ids()):
        prefix = f"{DEFAULT_CEC_ROOT}/{cab_id}/rectifiers/"
        out.append((cab_index, cab_id, tuple(prefix + str(rect) for rect in range(shape.rectifiers_per_cabinet))))
    return tuple(out)


def _rectifier_files(scenario: Scenario, tick: int, active, cabinets) -> dict[str, bytes]:
    """Every rectifier file at ``tick`` by path, in one pass over ``cabinets``,
    the ``_rectifier_paths`` of the scenario's shape.

    The same arithmetic as ``rectifier_power_w`` and ``rectifier_voltage_v``,
    with the noise hash of ``(seed, stream, tick, cabinet)`` taken once per
    cabinet instead of once per rectifier. The last ``_mix64`` step and
    ``_to_unit`` are inlined: this is the simulator's innermost loop.
    """
    base = _rectifier_base_w(scenario, active)
    seed_h = _mix64(scenario.seed & _MASK64)
    power_h = _mix_in(seed_h, _STREAM_POWER, tick)
    volt_h = _mix_in(seed_h, _STREAM_VOLT, tick)
    files = {}
    for cab_index, cab_id, paths in cabinets:
        scaled = base * _dip_factor(active, cab_id)
        cab_power_h = _mix64(power_h ^ cab_index)
        cab_volt_h = _mix64(volt_h ^ cab_index)
        for rect, path in enumerate(paths):
            z = ((cab_power_h ^ rect) + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            power = scaled * (1.0 + POWER_NOISE_FRACTION * (((z ^ (z >> 31)) >> 11) / _TWO_53 * 2.0 - 1.0))
            z = ((cab_volt_h ^ rect) + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            volt = NOMINAL_VOLTAGE_V + VOLTAGE_NOISE_V * (((z ^ (z >> 31)) >> 11) / _TWO_53 * 2.0 - 1.0)
            files[path] = f"power_w {power!r}\nvoltage_v {volt!r}\n".encode("ascii")
    return files


def _mem_used_pct(scenario: Scenario, tick: int, active) -> float:
    used = BASE_MEM_USED_PCT + MEM_NOISE_PCT * _unit_noise(scenario.seed, _STREAM_MEM, tick)
    for event in active[EventKind.MEM_LEAK]:
        hours = (tick - event.from_tick) * scenario.tick_s / 3600.0
        used += event.rate_pct_per_h * hours
    return min(max(used, 1.0), 99.0)


def _drained_nodes(scenario: Scenario, active, partition: str) -> int:
    total = scenario.shape.partition_nodes()[partition]
    drained = 0
    for event in active[EventKind.NODE_DRAIN]:
        if (event.partition or scenario.shape.partitions[0]) == partition:
            drained += event.count
    return min(drained, total)


def _sinfo_text(scenario: Scenario, active) -> str:
    """Four-column scheduler summary; totals are conserved across events."""
    hpl = bool(active[EventKind.HPL_RUN])
    lines = ["PARTITION AVAIL NODES STATE"]
    for i, partition in enumerate(scenario.shape.partitions):
        total = scenario.shape.partition_nodes()[partition]
        drained = _drained_nodes(scenario, active, partition)
        rest = total - drained
        alloc = rest if hpl else int(rest * 0.9)
        idle = rest - alloc
        label = partition + ("*" if i == 0 else "")
        for count, state in ((alloc, "alloc"), (idle, "idle"), (drained, "drained")):
            if count > 0:
                lines.append(f"{label} up {count} {state}")
    return "\n".join(lines) + "\n"


def _meminfo_text(scenario: Scenario, tick: int, active) -> str:
    used_pct = _mem_used_pct(scenario, tick, active)
    avail_kb = round(MEM_TOTAL_KB * (1.0 - used_pct / 100.0))
    free_kb = round(avail_kb * 0.85)
    return (
        f"MemTotal:       {MEM_TOTAL_KB} kB\n"
        f"MemFree:        {free_kb} kB\n"
        f"MemAvailable:   {avail_kb} kB\n"
    )


def _outage_hosts(scenario: Scenario, active) -> frozenset[str]:
    out: set[str] = set()
    for event in active[EventKind.LOGIN_OUTAGE]:
        out.update(event.hosts or scenario.shape.login_names())
    return frozenset(out)


# -- the fake DataSource -----------------------------------------------------


class SimDataSource(DataSource):
    """Serves every agent input from the scenario at ``tick``, and tells the
    time of that tick; ``run`` moves ``tick`` forward between poll rounds.

    The first call at a tick renders everything the tick serves at once:
    every rectifier file and meminfo, the sinfo text, the dark login hosts
    and whether name resolution fails. Every call reads from the render of
    the current ``tick``, however ``tick`` was set.
    """

    blocking = False  # answers from memory, so its agents run checks inline

    def __init__(self, scenario: Scenario, tick: int = 0):
        self.scenario = scenario
        self.tick = tick
        self._logins = frozenset(scenario.shape.login_names())
        self._rectifiers = _rectifier_paths(scenario.shape)
        self._rendered: int | None = None  # the tick the fields below belong to
        self._files: dict[str, bytes] = {}
        self._sinfo = ""
        self._dark: frozenset[str] = frozenset()
        self._dns_fails = False

    def _render(self) -> None:
        tick = self.tick
        if tick == self._rendered:
            return
        sc = self.scenario
        active = _events_at(sc, tick)
        self._files = _rectifier_files(sc, tick, active, self._rectifiers)
        self._files["/proc/meminfo"] = _meminfo_text(sc, tick, active).encode("ascii")
        self._sinfo = _sinfo_text(sc, active)
        self._dark = _outage_hosts(sc, active)
        self._dns_fails = bool(active[EventKind.DNS_FAIL])
        self._rendered = tick

    def time(self) -> float:
        return float(SIM_EPOCH + self.tick * self.scenario.tick_s)

    def read_file(self, path: str) -> bytes:
        self._render()
        data = self._files.get(path)
        if data is None:  # how the power check finds a cabinet's last rectifier
            raise FileNotFoundError(path)
        return data

    def run_command(self, argv, timeout=None):
        if argv and argv[0].rsplit("/", 1)[-1] == "sinfo":
            self._render()
            return 0, self._sinfo
        return 127, ""

    def dark_hosts(self) -> frozenset[str]:
        """The login hosts a LOGIN_OUTAGE covers at the current tick."""
        self._render()
        return self._dark

    def probe_login(self, target, timeout=None):
        # The probe target is a rotating alias over the login hosts, so it
        # answers as long as any of them is alive.
        return 0 if self._logins - self.dark_hosts() else 255

    def resolve_name(self, name):
        self._render()
        if self._dns_fails:
            raise OSError(f"simulated resolver failure for {name}")
        return ["10.20.0.10", "10.20.0.11"]


def sources_at(scenario: Scenario, tick: int) -> SimDataSource:
    """A data source at one tick; handy for tests and spot checks."""
    if not (0 <= tick < scenario.duration_ticks):
        raise ValueError(f"tick {tick} outside [0, {scenario.duration_ticks})")
    return SimDataSource(scenario, tick)


# -- running the whole stack ---------------------------------------------------


@dataclass(frozen=True)
class StackConfig:
    """How the monitoring stack is laid over a scenario."""

    prefix: str = DEFAULT_PREFIX
    poll_every_ticks: int = 12
    retention = DEFAULT_RETENTION  # not a field: a run's retention is its store's; the benchmark reads it
    down_warn = DOWN_WARN  # not a field: every stack warns there; the benchmark's replay check reads it

    def __post_init__(self):
        if self.poll_every_ticks < 1:
            raise ValueError(f"poll_every_ticks {self.poll_every_ticks} must be >= 1")


@dataclass
class RunSummary:
    scenario: str
    seed: int
    ticks: int
    tick_s: int
    polls: int
    hosts_down: int
    notifications: int
    series: int
    samples: int
    wall_s: float

    def to_json(self) -> str:
        doc = asdict(self)
        doc["wall_s"] = round(self.wall_s, 3)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class RunResult:
    summary: RunSummary
    store: Store
    notifications: list[Notification]
    report_cfg: ReportConfig
    window: tuple[int, int]


def scenario_window(scenario: Scenario) -> tuple[int, int]:
    return SIM_EPOCH, SIM_EPOCH + scenario.duration_ticks * scenario.tick_s


def _clusters(scenario: Scenario) -> tuple[ClusterServiceConfig, ClusterServiceConfig]:
    """The login and node-state services a run republishes over its login hosts."""
    logins = scenario.shape.login_names()
    return (ClusterServiceConfig("login_cluster", logins, "login"),
            ClusterServiceConfig("node_cluster", logins, "node_state"))


def report_config(stack: StackConfig, scenario: Scenario) -> ReportConfig:
    """The contract a run reports against, read from the series its clusters write."""
    login, nodes = _clusters(scenario)
    partition = scenario.shape.partitions[0]
    return ReportConfig(
        node_series=_series_name(stack.prefix, nodes.name, nodes.service, f"avail_{partition}"),
        login_series=_series_name(stack.prefix, login.name, login.service, "login_up"),
        threshold_nodes=round(0.94 * scenario.shape.partition_nodes()[partition]),
        gaps_as_down=True,
    )


def _agent_configs(scenario: Scenario) -> list[tuple[str, AgentConfig]]:
    shape = scenario.shape
    admin = AgentConfig(checks=("power",), cabinets=shape.cabinet_ids())
    login = AgentConfig(
        checks=("node_state", "login", "dns", "memory"),
        down_warn=DOWN_WARN,
        down_crit=DOWN_CRIT,
        login_target=LOGIN_PROBE_TARGET,
        dns_name=DNS_CHECK_NAME,
    )
    return [("admin", admin)] + [(name, login) for name in shape.login_names()]


def run(
    scenario: Scenario,
    stack: StackConfig = StackConfig(),
    store: Store | None = None,
    on_tick=None,
) -> RunResult:
    """Play the scenario through the full stack; returns the run artifacts.

    Without a ``store`` the run writes to an in-memory one with the default
    retention. Its notifications are those its polls return, in order.
    ``on_tick(tick, monitor)`` (when given) is called after each poll round,
    letting tests observe mid-run state such as cluster freshness.
    """
    started = time.monotonic()
    if store is None:
        store = Store()
    sources = SimDataSource(scenario)
    notifications: list[Notification] = []
    poll_interval_s = stack.poll_every_ticks * scenario.tick_s

    agents = {}
    hosts: list[HostConfig] = []
    for name, agent_cfg in _agent_configs(scenario):
        agents[name] = Agent(agent_cfg, sources, clock=sources.time, version=f"sim-{__version__}")
        # The address is never dialled: polls go through fetch below.
        hosts.append(HostConfig(name=name, address="in-process", poll_interval_s=poll_interval_s))

    def fetch(cfg: HostConfig) -> bytes:
        # During a LOGIN_OUTAGE covering the host the whole box is dark: its
        # poll fails with a connection error, exactly like a crashed machine's.
        if cfg.name in sources.dark_hosts():
            raise ConnectionAbortedError(f"{cfg.name} is down at tick {sources.tick}")
        return agents[cfg.name].payload_text().encode("utf-8")

    monitor = MonitoringServer(
        hosts,
        clusters=_clusters(scenario),
        store=store,
        prefix=stack.prefix,
        clock=sources.time,
        fetch=fetch,
    )
    try:
        for tick in range(0, scenario.duration_ticks, stack.poll_every_ticks):
            sources.tick = tick
            for host_cfg in hosts:
                notifications.extend(monitor.process_host(host_cfg))
            if on_tick is not None:
                on_tick(tick, monitor)
    finally:
        store.flush()

    summary = RunSummary(
        scenario=scenario.name,
        seed=scenario.seed,
        ticks=scenario.duration_ticks,
        tick_s=scenario.tick_s,
        polls=sum(monitor.poll_counts.values()),
        hosts_down=sum(monitor.host_down_counts.values()),
        notifications=len(notifications),
        series=len(store.list_series()),
        samples=store.write_count,
        wall_s=time.monotonic() - started,
    )
    return RunResult(
        summary=summary,
        store=store,
        notifications=notifications,
        report_cfg=report_config(stack, scenario),
        window=scenario_window(scenario),
    )
