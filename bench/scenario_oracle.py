"""What a scenario file says should happen, computed without gridwatch.

The benchmark checks the demo replay against these numbers, so they are
derived from the scenario text with a parser of its own and plain
arithmetic; none of gridwatch's sim or config code is used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Ev:
    kind: str
    from_tick: int
    to_tick: int  # exclusive
    values: dict = field(default_factory=dict)

    def active(self, tick: int) -> bool:
        return self.from_tick <= tick < self.to_tick


@dataclass(frozen=True)
class ScenarioFacts:
    tick_s: int
    duration_ticks: int
    idle_w: float
    cabinets: int
    nodes: int
    login_hosts: int
    events: tuple[Ev, ...]

    @property
    def cabinet_ids(self) -> list[str]:
        return [f"x{1000 + i}" for i in range(self.cabinets)]

    @property
    def login_names(self) -> list[str]:
        return [f"login{i + 1}" for i in range(self.login_hosts)]

    def of(self, kind: str) -> list[Ev]:
        return [e for e in self.events if e.kind == kind]

    def rounds(self, every: int) -> int:
        return math.ceil(self.duration_ticks / every)

    def round_ticks(self, every: int) -> range:
        return range(0, self.duration_ticks, every)

    def hosts_out(self, tick: int) -> set[str]:
        out: set[str] = set()
        for e in self.of("LOGIN_OUTAGE"):
            if e.active(tick):
                hosts = e.values.get("hosts", "all")
                out.update(self.login_names if hosts == "all" else
                           [h.strip() for h in hosts.split(",")])
        return out

    def drained(self, tick: int) -> int:
        return min(self.nodes, sum(int(e.values.get("count", 0))
                                   for e in self.of("NODE_DRAIN") if e.active(tick)))

    def dns_failing(self, tick: int) -> bool:
        return any(e.active(tick) for e in self.of("DNS_FAIL"))

    def expected_system_w(self, tick: int) -> float:
        """Nodes x per-node watts x (1 - dip depth), summed over cabinets."""
        per_node = self.idle_w
        for e in self.of("HPL_RUN"):
            if e.active(tick):
                per_node = float(e.values.get("power_per_node_w", 700))
                break
        total = 0.0
        for cab in self.cabinet_ids:
            factor = 1.0
            for e in self.of("POWER_DIP"):
                cabs = e.values.get("cabinets", "all")
                if e.active(tick) and (cabs == "all" or cab in [c.strip() for c in cabs.split(",")]):
                    factor *= 1.0 - float(e.values.get("depth_fraction", 0.5))
            total += self.nodes / self.cabinets * per_node * factor
        return total


def read_scenario(path: "str | Path") -> ScenarioFacts:
    sections: list[tuple[str, dict]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1], {}))
            continue
        key, _, value = line.partition("=")
        sections[-1][1][key.strip()] = value.strip()

    def one(name):
        return next((vals for sec, vals in sections if sec == name), {})

    sc, shape = one("scenario"), one("shape")
    events = tuple(
        Ev(vals["kind"].upper(), int(vals["from_tick"]), int(vals["to_tick"]), vals)
        for sec, vals in sections if sec == "event"
    )
    return ScenarioFacts(
        tick_s=int(sc.get("tick_s", 5)),
        duration_ticks=int(sc.get("duration_ticks", 720)),
        idle_w=float(sc.get("idle_power_per_node_w", 200)),
        cabinets=int(shape.get("cabinets", 4)),
        nodes=int(shape.get("nodes", 512)),
        login_hosts=int(shape.get("login_hosts", 4)),
        events=events,
    )
