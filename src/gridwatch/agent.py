"""Host agent: built-in checks, external check scripts, TCP poll listener.

Every environment touch (files, subprocesses, ssh probes, name lookups)
goes through a DataSource so the same checks run unmodified against a real
host or against the simulator. The agent keeps no results between polls: a
connection triggers a fresh collection and gets one payload back. All it
carries over is which checks are still running.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import socket
import socketserver
import subprocess
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .config import ConfigError
from .model import (
    AgentPayload,
    CheckResult,
    CheckState,
    MalformedLine,
    Perfdata,
    _segment,
    parse_check_line,
    serialize_agent_payload,
)

log = logging.getLogger(__name__)

DEFAULT_AGENT_PORT = 6556
DEFAULT_CEC_ROOT = "/var/volatile/cec"
DEFAULT_CHECK_TIMEOUT_S = 4.0  # under HostConfig.connect_timeout_s, so a hung check cannot cost a poll
MAX_SCRIPT_OUTPUT_BYTES = 64 * 1024  # well under server.MAX_PAYLOAD_BYTES, so a verbose script cannot cost a poll

# Node states that count as unavailable. sinfo reports compound flags
# (e.g. "drained*"); tokens are lowercased and flag suffixes stripped
# before the comparison.
DEFAULT_DOWN_STATES = frozenset(
    {"down", "drained", "draining", "fail", "failing", "maint", "unknown", "inval"}
)
_STATE_FLAGS = "*~#!%$@^+&-"

_MAX_RECTIFIERS = 1024  # sanity bound when probing numbered rectifier files


class DataSource(ABC):
    """Everything a check may ask of the host it runs on."""

    # Whether a call may wait on the outside world (a hung mount, a stuck
    # command); a collection runs checks on threads only when one may.
    blocking = True

    @abstractmethod
    def read_file(self, path: str) -> bytes:
        """Return file contents; raises OSError when unreadable."""

    @abstractmethod
    def run_command(self, argv: list[str], timeout: float | None = None) -> tuple[int, str]:
        """Run a command; returns (exit code, stdout). May raise on timeout."""

    @abstractmethod
    def probe_login(self, target: str, timeout: float | None = None) -> int:
        """Attempt an ssh login; returns the exit code (0 = success)."""

    @abstractmethod
    def resolve_name(self, name: str) -> list[str]:
        """Resolve a DNS name to addresses; raises OSError on failure."""


class HostDataSource(DataSource):
    """The real thing: local files, subprocesses, ssh and the resolver."""

    def read_file(self, path: str) -> bytes:
        return Path(path).read_bytes()

    def run_command(self, argv, timeout=None):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        return proc.returncode, proc.stdout

    def probe_login(self, target, timeout=None):
        wait = timeout if timeout else DEFAULT_CHECK_TIMEOUT_S
        argv = [
            "ssh",
            "-o", "BatchMode=yes",
            "-o", f"ConnectTimeout={max(1, int(wait))}",
            target,
            "exit",
        ]
        try:
            return subprocess.run(argv, capture_output=True, timeout=wait + 5).returncode
        except (subprocess.TimeoutExpired, OSError):
            return 255

    def resolve_name(self, name):
        infos = socket.getaddrinfo(name, None)  # raises socket.gaierror (an OSError)
        return sorted({info[4][0] for info in infos})


def normalize_node_state(token: str) -> str:
    state = token.lower().rstrip(_STATE_FLAGS)
    return state or "unknown"


def parse_sinfo(text: str) -> dict[str, dict[str, int]]:
    """Parse `PARTITION AVAIL NODES STATE` rows into ``{partition: {state:
    nodes}}``, partitions in the order first seen; header and junk rows skipped."""
    partitions: dict[str, dict[str, int]] = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) < 4 or fields[0].upper() == "PARTITION":
            continue
        name = fields[0].rstrip("*")
        try:
            n = int(fields[2])
        except ValueError:
            continue
        if not name or n < 0:
            continue
        counts = partitions.setdefault(name, {})
        state = normalize_node_state(fields[3])
        counts[state] = counts.get(state, 0) + n
    return partitions


def read_rectifiers(sources: DataSource, root: str, cabinet: str) -> list[tuple[float, float]]:
    """Read ``(power_w, voltage_v)`` from `<root>/<cabinet>/rectifiers/<n>`
    for n = 0, 1, ... until missing.

    Raises OSError when the cabinet controller exposes no rectifier 0 at
    all, i.e. the whole cabinet is unreachable, and ValueError for a file
    that lacks either reading or holds a negative or non-finite one, which
    could not go on the wire.
    """
    readings = []
    prefix = f"{root}/{cabinet}/rectifiers/"
    for n in range(_MAX_RECTIFIERS):
        try:
            raw = sources.read_file(prefix + str(n))
        except OSError:
            if n == 0:
                raise
            break
        power = voltage = None
        for line in raw.decode("utf-8", errors="replace").splitlines():
            key, _, value = line.partition(" ")
            if key == "power_w":
                power = float(value)
            elif key == "voltage_v":
                voltage = float(value)
        # "not 0 <= x < inf" also refuses nan, which compares false both ways.
        if power is None or voltage is None or not (0 <= power < math.inf and 0 <= voltage < math.inf):
            raise ValueError(f"rectifier file {cabinet}/{n} holds power_w {power}, voltage_v {voltage}")
        readings.append((power, voltage))
    return readings


# Bounded because a config can name any cabinet; the same few come back every poll.
@functools.lru_cache(maxsize=1 << 10)
def _power_keys(cabinet: str, rectifiers: int) -> tuple[str, tuple[str, ...]]:
    """The perfdata keys of one cabinet: its total, and each rectifier's voltage."""
    return f"cab_{cabinet}", tuple(f"volt_{cabinet}_{n}" for n in range(rectifiers))


def check_power(sources: DataSource, cfg: AgentConfig) -> CheckResult:
    """Sum rectifier power per cabinet of ``cfg.cabinets`` and across the system.

    The system value is the sum of the cabinet values, each of which is the
    sum of its rectifier readings in file order; the identity is exact
    because everything is summed once, in that order. The state is CRIT
    over ``power_crit_w``; otherwise WARN when a cabinet is unreachable (it
    is named in the summary) or the system is over ``power_warn_w``;
    otherwise OK. All cabinets unreachable is CRIT, and a system sum that
    overflows to infinity is UNKNOWN, since it could not go on the wire.
    """
    cabinets, warn_w, crit_w = cfg.cabinets, cfg.power_warn_w, cfg.power_crit_w
    reachable: list[tuple[str, list[tuple[float, float]]]] = []
    unreachable: list[str] = []
    for cab in cabinets:
        try:
            reachable.append((cab, read_rectifiers(sources, cfg.cec_root, cab)))
        except (OSError, ValueError) as exc:
            log.debug("cabinet %s unreadable: %s", cab, exc)
            unreachable.append(cab)
    if cabinets and not reachable:
        return CheckResult(
            CheckState.CRIT, "power", [],
            f"all {len(cabinets)} cabinet controllers unreachable",
        )

    perfdata = []
    system_w = 0.0
    cab_perf = []
    volt_perf = []
    for cab, readings in reachable:
        cab_w = 0.0
        cab_key, volt_keys = _power_keys(cab, len(readings))
        for key, (power_w, voltage_v) in zip(volt_keys, readings):
            cab_w += power_w
            volt_perf.append(Perfdata(key, voltage_v))
        cab_perf.append(Perfdata(cab_key, cab_w))
        system_w += cab_w
    if not math.isfinite(system_w):
        return CheckResult(CheckState.UNKNOWN, "power", [], f"system power from {len(reachable)} cabinets overflows")
    perfdata.append(Perfdata("system", system_w, warn_w, crit_w))
    perfdata += cab_perf + volt_perf

    state = CheckState.OK
    notes = [f"system {system_w:.0f} W from {len(reachable)} cabinets"]
    if unreachable:
        state = CheckState.WARN
        notes.append("unreachable: " + ",".join(unreachable))
    if crit_w is not None and system_w > crit_w:
        state = CheckState.CRIT
        notes.append(f"over {crit_w:.0f} W limit")
    elif warn_w is not None and system_w > warn_w:
        state = CheckState.WARN
        notes.append(f"over {warn_w:.0f} W warning level")
    return CheckResult(state, "power", perfdata, "; ".join(notes))


# Bounded because sinfo can name any partition or state; the same few come back every poll.
@functools.lru_cache(maxsize=1 << 10)
def _node_state_keys(partition: str, states: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    """A partition's name as a key segment, and the perfdata key of each of its states."""
    name = _segment(partition)
    return name, tuple(f"state_{name}_{_segment(state)}" for state in states)


def check_node_state(sources: DataSource, cfg: AgentConfig) -> CheckResult:
    """Count scheduler node states per partition via sinfo; nodes in
    ``cfg.down_states`` are down."""
    down_states, warn_down, crit_down = cfg.down_states, cfg.down_warn, cfg.down_crit
    try:
        rc, out = sources.run_command(["sinfo"], timeout=cfg.check_timeout_s)
    except Exception as exc:
        return CheckResult(CheckState.UNKNOWN, "node_state", [], f"sinfo failed: {exc}")
    if rc != 0:
        return CheckResult(CheckState.UNKNOWN, "node_state", [], f"sinfo failed (exit {rc})")
    partitions = parse_sinfo(out)
    if not partitions:
        return CheckResult(CheckState.UNKNOWN, "node_state", [], "no parsable sinfo rows")

    perfdata = []
    total_down = 0
    for partition, counts in partitions.items():
        states = tuple(sorted(counts))
        name, keys = _node_state_keys(partition, states)
        total = sum(counts.values())
        down = sum(n for state, n in counts.items() if state in down_states)
        for state, key in zip(states, keys):
            perfdata.append(Perfdata(key, counts[state]))
        perfdata.append(Perfdata(f"down_{name}", down, warn_down, crit_down, 0, total))
        perfdata.append(Perfdata(f"avail_{name}", total - down, None, None, 0, total))
        total_down += down

    state = CheckState.OK
    if crit_down is not None and total_down >= crit_down:
        state = CheckState.CRIT
    elif warn_down is not None and total_down >= warn_down:
        state = CheckState.WARN
    summary = f"{total_down} nodes down across {len(partitions)} partition(s)"
    return CheckResult(state, "node_state", perfdata, summary)


def check_login(sources: DataSource, cfg: AgentConfig) -> CheckResult:
    """Probe interactive access to ``cfg.login_target``: exit 0 is OK, anything else is CRIT."""
    target = cfg.login_target
    try:
        rc = sources.probe_login(target, timeout=cfg.check_timeout_s)
    except Exception as exc:
        log.debug("login probe of %s raised: %s", target, exc)
        rc = 255
    up = 1.0 if rc == 0 else 0.0
    state = CheckState.OK if rc == 0 else CheckState.CRIT
    return CheckResult(state, "login", [Perfdata("login_up", up)], f"ssh probe of {target} exited {rc}")


def check_dns(sources: DataSource, cfg: AgentConfig) -> CheckResult:
    """Resolve ``cfg.dns_name``, a name users depend on; failure is CRIT and names the name."""
    name = cfg.dns_name
    try:
        addrs = sources.resolve_name(name)
    except OSError as exc:
        return CheckResult(
            CheckState.CRIT, "dns", [Perfdata("dns_ok", 0.0)],
            f"resolution of {name} failed: {exc}",
        )
    if not addrs:
        return CheckResult(
            CheckState.CRIT, "dns", [Perfdata("dns_ok", 0.0)],
            f"resolution of {name} returned no addresses",
        )
    return CheckResult(
        CheckState.OK, "dns", [Perfdata("dns_ok", 1.0)],
        f"{name} resolves to {len(addrs)} address(es)",
    )


def check_memory(sources: DataSource, cfg: AgentConfig) -> CheckResult:
    """Report used memory percentage from the meminfo-format file ``cfg.meminfo_path``."""
    path, warn_pct, crit_pct = cfg.meminfo_path, cfg.mem_warn_pct, cfg.mem_crit_pct
    try:
        text = sources.read_file(path).decode("utf-8", errors="replace")
    except OSError as exc:
        return CheckResult(CheckState.UNKNOWN, "memory", [], f"cannot read {path}: {exc}")
    fields = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if parts:
            try:
                fields[key.strip()] = int(parts[0])
            except ValueError:
                pass
    total = fields.get("MemTotal")
    avail = fields.get("MemAvailable")
    if not total or avail is None:
        return CheckResult(CheckState.UNKNOWN, "memory", [], f"no MemTotal/MemAvailable in {path}")
    used_pct = 100.0 * (1.0 - avail / total)
    state = CheckState.OK
    if crit_pct is not None and used_pct >= crit_pct:
        state = CheckState.CRIT
    elif warn_pct is not None and used_pct >= warn_pct:
        state = CheckState.WARN
    perf = [Perfdata("mem_used_pct", used_pct, warn_pct, crit_pct, 0, 100)]
    return CheckResult(state, "memory", perf, f"{used_pct:.1f}% memory used")


# The built-in checks by their name in `[agent] checks`.
BUILTIN_CHECKS = {
    "power": check_power,
    "node_state": check_node_state,
    "login": check_login,
    "dns": check_dns,
    "memory": check_memory,
}


def _failed(name: str, reason: str) -> CheckResult:
    return CheckResult(CheckState.UNKNOWN, f"_check_failed_{_segment(name)}", [], reason[:200])


def _run_one(name: str, thunk, out: list[CheckResult]) -> None:
    try:
        result = thunk()
    except subprocess.TimeoutExpired:
        result = _failed(name, "timed out")
    except Exception as exc:
        result = _failed(name, f"{type(exc).__name__}: {exc}")
    out.extend(result if isinstance(result, list) else [result])


def _run_script(sources: DataSource, script: Path, timeout_s: float) -> list[CheckResult]:
    rc, out = sources.run_command([str(script)], timeout=timeout_s)
    if rc != 0:
        return [_failed(script.name, f"exited {rc}")]
    if len(out.encode(errors="replace")) > MAX_SCRIPT_OUTPUT_BYTES:
        return [_failed(script.name, f"printed more than {MAX_SCRIPT_OUTPUT_BYTES} bytes")]
    results = []
    for line in out.splitlines():
        if not line.strip():
            continue
        try:
            results.append(parse_check_line(line))
        except MalformedLine as exc:
            results.append(
                CheckResult(
                    CheckState.UNKNOWN,
                    f"_parse_error_{_segment(script.name)}",
                    [],
                    f"bad output line: {str(exc)[:160]}",
                )
            )
    return results


@dataclass(frozen=True)
class AgentConfig:
    """Static agent setup, normally read from the [agent] config section."""

    bind: str = "0.0.0.0"
    port: int = DEFAULT_AGENT_PORT
    checks: tuple[str, ...] = ()
    check_dir: str | None = None
    check_timeout_s: float = DEFAULT_CHECK_TIMEOUT_S
    cabinets: tuple[str, ...] = ()
    cec_root: str = DEFAULT_CEC_ROOT
    power_warn_w: float | None = None
    power_crit_w: float | None = None
    down_states: frozenset[str] = DEFAULT_DOWN_STATES
    down_warn: int | None = None
    down_crit: int | None = None
    login_target: str = "localhost"
    dns_name: str = "localhost"
    meminfo_path: str = "/proc/meminfo"
    mem_warn_pct: float | None = 90.0
    mem_crit_pct: float | None = 95.0

    def __post_init__(self):
        for name in self.checks:
            if name not in BUILTIN_CHECKS:
                raise ConfigError(f"unknown built-in check {name!r} (have: {', '.join(BUILTIN_CHECKS)})")
        object.__setattr__(self, "down_states", frozenset(s.lower() for s in self.down_states))


class Agent:
    """Binds a config and a data source into a payload factory. It keeps each
    check's last thread between collections, so a check hung for good holds
    one thread, not one per poll, and never keeps the agent from exiting."""

    def __init__(self, cfg: AgentConfig, sources: DataSource, *, clock=time.time, version: str = __version__):
        self.cfg = cfg
        self.sources = sources
        self.clock = clock
        self.version = version
        self._running: dict[str, threading.Thread] = {}
        self._builtins = [(name, functools.partial(BUILTIN_CHECKS[name], sources, cfg)) for name in cfg.checks]

    def build_payload(self) -> AgentPayload:
        """Run the configured built-ins plus the executables in ``check_dir``
        into one payload.

        External executables run through the data source and may print
        several check lines. A check that fails or exceeds the timeout is
        demoted to a single UNKNOWN result named after it; nothing a check
        does can make the collection raise.

        When the data source may block, each check runs on its own daemon
        thread, all under one deadline ``check_timeout_s`` away. A check
        whose last thread (a built-in keyed by name, a script by path) is
        still alive is reported at once, not started again. Otherwise the
        checks run on the calling thread. Collections must not overlap.
        """
        cfg, sources = self.cfg, self.sources
        timeout_s = cfg.check_timeout_s
        tasks: list[tuple[str, str, object]] = [(name, name, thunk) for name, thunk in self._builtins]
        try:
            scripts = [] if cfg.check_dir is None else sorted(Path(cfg.check_dir).iterdir())
        except OSError as exc:  # missing, not a directory, unreadable, or removed since
            log.warning("check_dir %s cannot be listed (%s); running built-ins only", cfg.check_dir, exc)
            scripts = []
        for script in scripts:
            if script.is_file() and os.access(script, os.X_OK):
                run = functools.partial(_run_script, sources, script, timeout_s)
                tasks.append((str(script), script.name, run))

        results: list[CheckResult] = []
        if not sources.blocking:
            for _, name, thunk in tasks:
                _run_one(name, thunk, results)
            return AgentPayload(self.version, int(self.clock()), results)

        running = self._running
        deadline = time.monotonic() + timeout_s
        started = []
        for key, name, thunk in tasks:
            if key in running and running[key].is_alive():
                started.append((name, None, None))
                continue
            out: list[CheckResult] = []
            running[key] = threading.Thread(target=_run_one, args=(name, thunk, out), name=f"check-{name}", daemon=True)
            running[key].start()
            started.append((name, running[key], out))
        for name, thread, out in started:
            if thread is None:
                results.append(_failed(name, "still running since an earlier poll"))
                continue
            thread.join(max(0.0, deadline - time.monotonic()))
            results.extend([_failed(name, f"timed out after {timeout_s:g}s")] if thread.is_alive() else out)
        return AgentPayload(self.version, int(self.clock()), results)

    def payload_text(self) -> str:
        return serialize_agent_payload(self.build_payload())


class _PollHandler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            text = self.server.payload_fn()
        except Exception as exc:
            log.debug("payload build failed, closing poll connection: %s", exc)
            return
        try:
            self.request.sendall(text.encode("utf-8"))
        except OSError as exc:
            log.debug("poll write failed: %s", exc)


class AgentServer(socketserver.TCPServer):
    """One-shot TCP poll listener: connect, receive payload, close.

    Connections are served one at a time; concurrent pollers queue in the
    listen backlog. Construction fails loudly when the bind is taken.
    """

    allow_reuse_address = True

    def __init__(self, bind: tuple[str, int], payload_fn):
        self.payload_fn = payload_fn
        super().__init__(bind, _PollHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address
